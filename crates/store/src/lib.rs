#![forbid(unsafe_code)]
//! # teleios-store — the durability doorway
//!
//! Every persistent store in TELEIOS (the vault catalog, the rdf
//! triple store, monet tables) is memory-resident; this crate makes
//! the observatory restartable. It is the *only* crate allowed to
//! touch `std::fs` for writes (enforced by the fs entries in the root
//! `clippy.toml`) and exposes one transactional key-value
//! surface behind which the rest of the workspace persists itself:
//!
//! * [`StorageBackend`] — the object-safe trait: `begin`/`put`/
//!   `delete`/`commit` transactions over named keyspaces, plus
//!   `scan`/`get` reads of the committed state and an explicit
//!   `snapshot` checkpoint.
//! * [`transact`] — the one place library code opens a transaction:
//!   it begins, runs a staging closure, and commits, or rolls back
//!   when the closure fails. The domain ports stage their pages inside
//!   it, so no error exit between `begin` and `commit` can leave a
//!   transaction open.
//! * [`DurableBackend`] — the one engine: an append-only,
//!   length-prefixed, checksummed write-ahead log with
//!   fsync-barriered commits and periodic snapshots; crash recovery
//!   loads the latest valid snapshot and replays the WAL, *truncating*
//!   at the first torn/corrupt record instead of failing.
//! * [`Medium`] — the byte-device abstraction underneath:
//!   [`FsMedium`] is real files, [`MemMedium`] is a simulated disk
//!   that models the durable-vs-volatile split (`sync` makes bytes
//!   durable, [`MemMedium::crash`] discards everything volatile) and
//!   accepts injected [`WriteFault`]s — torn appends, short fsyncs,
//!   crash points — so property tests can kill the engine at every
//!   WAL offset and assert recovery is exact. An in-memory store is
//!   `DurableBackend<MemMedium>`.
//!
//! The recovery contract, tested exhaustively in
//! `tests/recovery_properties.rs`: for every crash point and every
//! WAL byte-truncation offset, reopening yields exactly the last
//! acknowledged committed state — no panic, no lost committed write,
//! no resurrected uncommitted write.

pub mod backend;
pub mod codec;
pub mod durable;
pub mod fault;
pub mod medium;
pub mod snapshot;
pub mod wal;

pub use backend::{full_state, transact, KeyspaceState, StorageBackend, StoreStats, TxOp};
pub use durable::{DurableBackend, DurableConfig, RecoveryReport};
pub use fault::WriteFault;
pub use medium::{FsMedium, MemMedium, Medium};

use std::fmt;

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O failure reported by the medium (includes a failed fsync
    /// barrier — the commit that hit it is unacknowledged).
    Io(String),
    /// The device has crashed (fault injection): every operation fails
    /// until the medium is reopened via recovery.
    Crashed,
    /// A commit barrier failed earlier; the engine refuses further
    /// writes because the WAL tail's durability is indeterminate.
    /// Reopen (crash recovery) to resume from the last known-good
    /// state.
    Poisoned,
    /// A checksum or structural decode failure in data that callers
    /// asked for directly (recovery itself never fails on torn WAL
    /// tails — it truncates).
    Corrupt(String),
    /// A write or commit was attempted outside `begin`/`commit`.
    NoTransaction,
    /// `begin` was called while a transaction was already open.
    NestedTransaction,
    /// Malformed bytes while decoding a record, snapshot, or a
    /// domain-level encoding built on [`codec`].
    Codec(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "storage i/o error: {msg}"),
            StoreError::Crashed => write!(f, "storage device crashed (injected fault)"),
            StoreError::Poisoned => {
                write!(f, "storage engine poisoned by a failed commit barrier; reopen to recover")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt storage data: {msg}"),
            StoreError::NoTransaction => write!(f, "no open transaction"),
            StoreError::NestedTransaction => write!(f, "transaction already open"),
            StoreError::Codec(msg) => write!(f, "storage decode error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Crate-wide result alias.
pub(crate) type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let cases: Vec<(StoreError, &str)> = vec![
            (StoreError::Io("disk full".into()), "disk full"),
            (StoreError::Crashed, "crashed"),
            (StoreError::Poisoned, "poisoned"),
            (StoreError::Corrupt("bad crc".into()), "bad crc"),
            (StoreError::NoTransaction, "no open transaction"),
            (StoreError::NestedTransaction, "already open"),
            (StoreError::Codec("short read".into()), "short read"),
        ];
        for (err, needle) in cases {
            let rendered = err.to_string();
            assert!(rendered.contains(needle), "{rendered} should contain {needle}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&StoreError::Crashed);
    }
}
