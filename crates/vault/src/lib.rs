#![forbid(unsafe_code)]
//! # teleios-vault — the Data Vault
//!
//! Implements the Data Vault concept (Ivanova, Kersten, Manegold —
//! SSDBM 2012) used by TELEIOS: a *symbiosis* between the DBMS and a
//! scientific file repository. The DBMS is made aware of external file
//! formats; file **metadata** is cataloged up front (cheap header
//! parses), while the **payload** is converted into database arrays
//! just-in-time, on first query — so an archive where "up to 95% of the
//! data has never been accessed" (paper, §1) never pays ingestion cost
//! for cold files.
//!
//! Components:
//!
//! * [`mod@format`] — three synthetic external formats standing in for the
//!   proprietary ones in the paper's archive: `Sev1` (SEVIRI-like raw
//!   multiband rasters), `Gtf1` (GeoTIFF-like georeferenced products),
//!   `Shp1` (shapefile-like geometry sets),
//! * [`repository::Repository`] — an in-memory scientific file repository,
//! * [`catalog::VaultCatalog`] — the metadata catalog (JSON-serializable),
//! * [`vault::DataVault`] — the vault itself: lazy or eager policy, an
//!   LRU materialization cache, and access statistics (experiment E5).
//!
//! ## Example
//!
//! ```
//! use teleios_vault::format::{encode_sev1, Sev1Header};
//! use teleios_vault::repository::Repository;
//! use teleios_vault::vault::{DataVault, IngestionPolicy};
//! use teleios_monet::Catalog;
//!
//! let mut repo = Repository::new();
//! let header = Sev1Header {
//!     rows: 4, cols: 4, bands: 1,
//!     acquisition: "2007-08-25T12:00:00Z".into(),
//!     bbox: (20.0, 35.0, 25.0, 40.0),
//! };
//! repo.put("scene-001.sev1", encode_sev1(&header, &vec![300.0; 16]).unwrap());
//!
//! let mut vault = DataVault::new(repo, Catalog::new(), IngestionPolicy::Lazy, 8);
//! vault.register_all().unwrap();
//! let array = vault.array_for("scene-001.sev1").unwrap();
//! assert_eq!(array.shape(), vec![1, 4, 4]);
//! assert_eq!(vault.stats().materializations, 1);
//! ```

pub mod catalog;
pub mod format;
pub mod persist;
pub mod repository;
pub mod vault;

pub use vault::{DataVault, IngestionPolicy, VaultStats};

/// Errors for vault operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VaultError {
    /// The file's bytes did not match its declared format.
    Malformed(String),
    /// The file's payload checksum did not verify (bit rot / truncated
    /// archive writes).
    Corrupt(String),
    /// The named file failed a decode and sits in the quarantine list;
    /// accesses are refused until [`DataVault::retry_quarantined`].
    Quarantined(String),
    /// The named file is not in the repository.
    UnknownFile(String),
    /// The file extension matches no registered format.
    UnknownFormat(String),
    /// Database-side failure during materialization.
    Database(String),
}

impl std::fmt::Display for VaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VaultError::Malformed(m) => write!(f, "malformed file: {m}"),
            VaultError::Corrupt(m) => write!(f, "corrupt file: {m}"),
            VaultError::Quarantined(n) => write!(f, "file is quarantined: {n}"),
            VaultError::UnknownFile(n) => write!(f, "unknown file: {n}"),
            VaultError::UnknownFormat(n) => write!(f, "unknown format: {n}"),
            VaultError::Database(m) => write!(f, "database error: {m}"),
        }
    }
}

impl std::error::Error for VaultError {}

/// Result alias.
pub(crate) type Result<T> = std::result::Result<T, VaultError>;
