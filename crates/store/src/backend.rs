//! The storage surface: the [`StorageBackend`] trait, the op a
//! transaction buffers, and [`transact`], the one doorway through
//! which library code opens a transaction.
//!
//! The trait is object-safe on purpose — the domain adapters (vault
//! catalog, rdf triple store, monet tables) persist themselves
//! through `&mut dyn StorageBackend`, so the medium underneath (real
//! files or the simulated disk) is a constructor choice, not a code
//! change.

use std::collections::BTreeMap;

use crate::Result;

/// Canonical committed state: keyspace name → sorted key → value.
/// Keyspaces with no keys are absent (not present-but-empty), so
/// `KeyspaceState` equality is state equality.
pub type KeyspaceState = BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>>;

/// One buffered write: what a transaction stages, and what the WAL
/// logs between a transaction's `Begin` and `Commit` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOp {
    Put { keyspace: String, key: Vec<u8>, value: Vec<u8> },
    Delete { keyspace: String, key: Vec<u8> },
}

/// Counters exposed by [`StorageBackend::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successfully committed transactions.
    pub commits: u64,
    /// Put operations inside committed transactions.
    pub puts: u64,
    /// Delete operations inside committed transactions.
    pub deletes: u64,
    /// Keyspaces currently holding at least one key.
    pub keyspaces: usize,
    /// Total key/value entries across all keyspaces.
    pub entries: usize,
    /// Current WAL size in bytes.
    pub wal_bytes: usize,
    /// Snapshots written since open.
    pub snapshots_written: u64,
}

/// Transactional key-value storage over named keyspaces.
///
/// Contract:
/// * Reads (`get`/`scan`/`keyspaces`) observe only **committed**
///   state — never the ops buffered in an open transaction.
/// * `commit` returns the transaction's sequence number; once it
///   returns `Ok`, the transaction is durable (fsync-barriered).
/// * After any `Err` from `commit`, the transaction is NOT applied.
pub trait StorageBackend {
    /// Open a transaction. `Err(NestedTransaction)` if one is open.
    fn begin(&mut self) -> Result<()>;

    /// Buffer a put in the open transaction.
    fn put(&mut self, keyspace: &str, key: &[u8], value: &[u8]) -> Result<()>;

    /// Buffer a delete in the open transaction.
    fn delete(&mut self, keyspace: &str, key: &[u8]) -> Result<()>;

    /// Atomically apply the open transaction; returns its sequence
    /// number. Committing an empty transaction is a no-op that
    /// returns the current sequence.
    fn commit(&mut self) -> Result<u64>;

    /// Discard the open transaction (no-op if none is open).
    fn rollback(&mut self);

    /// True while a transaction is open.
    fn in_transaction(&self) -> bool;

    /// Committed value for `key` in `keyspace`.
    fn get(&self, keyspace: &str, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// All committed `(key, value)` pairs in `keyspace`, key-sorted.
    fn scan(&self, keyspace: &str) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;

    /// The committed keys in `keyspace`, sorted: `scan`'s keys, which
    /// an engine can list without cloning the values.
    fn keys(&self, keyspace: &str) -> Result<Vec<Vec<u8>>> {
        Ok(self.scan(keyspace)?.into_iter().map(|(key, _)| key).collect())
    }

    /// Sorted names of keyspaces holding at least one committed key.
    fn keyspaces(&self) -> Result<Vec<String>>;

    /// Sequence number of the most recently committed transaction
    /// (0 if none).
    fn last_seq(&self) -> u64;

    /// Force a checkpoint now: write a snapshot and reset the WAL.
    fn snapshot(&mut self) -> Result<()>;

    /// Current counters.
    fn stats(&self) -> StoreStats;
}

/// Full committed state of a backend, for equivalence assertions.
pub fn full_state(backend: &dyn StorageBackend) -> Result<KeyspaceState> {
    let mut state = KeyspaceState::new();
    for ks in backend.keyspaces()? {
        let pairs = backend.scan(&ks)?;
        if !pairs.is_empty() {
            state.insert(ks, pairs.into_iter().collect());
        }
    }
    Ok(state)
}

/// Run `stage` as one transaction: begin, stage, commit — or, when
/// `stage` fails, roll back and return its error. Returns the commit's
/// sequence number. This is the one place library code opens a
/// transaction, so no `?` inside a stage can leave one open. It is a
/// free function because a provided trait method could not hand `self`
/// on as `&mut dyn StorageBackend`.
pub fn transact(
    backend: &mut dyn StorageBackend,
    stage: impl FnOnce(&mut dyn StorageBackend) -> Result<()>,
) -> Result<u64> {
    backend.begin()?;
    if let Err(e) = stage(backend) {
        backend.rollback();
        return Err(e);
    }
    backend.commit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurableBackend, DurableConfig, MemMedium, StoreError};

    fn mem() -> DurableBackend<MemMedium> {
        DurableBackend::open(MemMedium::new(), DurableConfig::default()).unwrap()
    }

    #[test]
    fn commit_applies_rollback_discards() {
        let mut b = mem();
        b.begin().unwrap();
        b.put("ks", b"k", b"v1").unwrap();
        assert_eq!(b.get("ks", b"k").unwrap(), None, "uncommitted writes invisible");
        let seq = b.commit().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(b.get("ks", b"k").unwrap(), Some(b"v1".to_vec()));

        b.begin().unwrap();
        b.put("ks", b"k", b"v2").unwrap();
        b.rollback();
        assert_eq!(b.get("ks", b"k").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(b.last_seq(), 1);
    }

    #[test]
    fn transaction_discipline() {
        let mut b = mem();
        assert_eq!(b.put("ks", b"k", b"v"), Err(StoreError::NoTransaction));
        assert_eq!(b.commit(), Err(StoreError::NoTransaction));
        b.begin().unwrap();
        assert_eq!(b.begin(), Err(StoreError::NestedTransaction));
        b.rollback();
        b.begin().unwrap(); // rollback closes the txn
        assert_eq!(b.commit().unwrap(), 0, "empty commit is a no-op at seq 0");
    }

    #[test]
    fn delete_removes_empty_keyspaces() {
        let mut b = mem();
        transact(&mut b, |b| b.put("ks", b"k", b"v")).unwrap();
        assert_eq!(b.keyspaces().unwrap(), vec!["ks".to_string()]);
        transact(&mut b, |b| b.delete("ks", b"k")).unwrap();
        assert!(b.keyspaces().unwrap().is_empty());
        assert!(full_state(&b).unwrap().is_empty());
    }

    #[test]
    fn scan_is_sorted_and_stats_count() {
        let mut b = mem();
        transact(&mut b, |b| {
            b.put("ks", b"b", b"2")?;
            b.put("ks", b"a", b"1")?;
            b.delete("ks", b"missing")
        })
        .unwrap();
        let pairs = b.scan("ks").unwrap();
        assert_eq!(
            pairs,
            vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())]
        );
        let stats = b.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.puts, 2);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.entries, 2);
    }

    /// `DurableBackend`'s `keys` lists what the provided method (keys of
    /// `scan`) lists, without cloning values.
    #[test]
    fn keys_override_equals_the_default() {
        let mut b = mem();
        transact(&mut b, |b| {
            b.put("ks", b"b", b"2")?;
            b.put("ks", b"a", &[1; 90])?;
            b.put("other", b"z", b"")
        })
        .unwrap();
        transact(&mut b, |b| b.delete("other", b"z")).unwrap();
        for ks in ["ks", "other", "never"] {
            let default: Vec<Vec<u8>> = b.scan(ks).unwrap().into_iter().map(|(k, _)| k).collect();
            assert_eq!(b.keys(ks).unwrap(), default, "{ks}");
        }
    }

    /// A stage that fails after staging puts leaves no transaction
    /// open and nothing applied.
    #[test]
    fn a_failed_stage_rolls_back() {
        let mut b = mem();
        assert_eq!(transact(&mut b, |b| b.put("ks", b"k", b"v1")), Ok(1));
        let before = full_state(&b).unwrap();
        let failed = transact(&mut b, |b| {
            b.put("ks", b"k", b"v2")?;
            b.put("ks", b"other", b"x")?;
            Err(StoreError::Io("stage failed".into()))
        });
        assert_eq!(failed, Err(StoreError::Io("stage failed".into())));
        assert!(!b.in_transaction());
        assert_eq!(full_state(&b).unwrap(), before);
        b.begin().unwrap();
    }
}
