#![forbid(unsafe_code)]
//! # teleios-core — the Virtual Earth Observatory
//!
//! The facade wiring every tier of the TELEIOS architecture (paper
//! Fig. 2) into one system:
//!
//! * **Ingestion tier** — scenes arrive as external `.sev1` files in the
//!   Data Vault's repository; registration extracts metadata, payloads
//!   materialize just in time,
//! * **Database tier** — `teleios-monet` (arrays + SQL), `teleios-sciql`
//!   (array queries) and `teleios-strabon` (stRDF/stSPARQL) hold data,
//!   metadata and semantic annotations,
//! * **Service processing tier** — the NOA processing chains, the
//!   refinement service and the rapid-mapping service,
//! * **Application tier** — [`portal`], a text stand-in for the
//!   EOWEB-like GUI of Fig. 3: the queries the GUI would issue.
//!
//! ## Example
//!
//! ```
//! use teleios_core::Observatory;
//! use teleios_core::observatory::AcquisitionSpec;
//!
//! let mut obs = Observatory::with_defaults(42);
//! let id = obs.acquire_scene(&AcquisitionSpec::small_test(1)).unwrap();
//! let report = obs.run_chain(&id, &teleios_noa::ProcessingChain::operational()).unwrap();
//! assert!(report.features_published > 0 || report.output.hotspot_pixels() == 0);
//! ```

pub mod error;
pub mod observatory;
pub mod portal;

pub use error::ObservatoryError;
pub use observatory::{
    BurntAreaReport, Observatory, PassReport, ProductOutcome, ProductReport, RefineReport,
};
