//! The pluggable storage surface: [`StorageBackend`] and the
//! in-memory reference implementation [`MemoryBackend`].
//!
//! The trait is object-safe on purpose — the domain adapters (vault
//! catalog, rdf triple store, monet tables) persist themselves
//! through `&mut dyn StorageBackend`, so swapping memory for WAL
//! durability is a constructor choice, not a code change.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::witness::{next_instance, TxnWitness};
use crate::{Result, StoreError};

/// Canonical committed state: keyspace name → sorted key → value.
/// Keyspaces with no keys are absent (not present-but-empty), so
/// `KeyspaceState` equality is state equality.
pub type KeyspaceState = BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>>;

/// One buffered transactional operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOp {
    Put { keyspace: String, key: Vec<u8>, value: Vec<u8> },
    Delete { keyspace: String, key: Vec<u8> },
}

/// Apply one op to a state map, removing keyspace entries that
/// become empty so state equality stays canonical.
pub(crate) fn apply_op(state: &mut KeyspaceState, op: &TxOp) {
    match op {
        TxOp::Put { keyspace, key, value } => {
            state.entry(keyspace.clone()).or_default().insert(key.clone(), value.clone());
        }
        TxOp::Delete { keyspace, key } => {
            if let Some(ks) = state.get_mut(keyspace) {
                ks.remove(key);
                if ks.is_empty() {
                    state.remove(keyspace);
                }
            }
        }
    }
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
    /// Current WAL size in bytes (0 for the memory backend).
    pub wal_bytes: usize,
    /// Snapshots written since open (0 for the memory backend).
    pub snapshots_written: u64,
}

/// Transactional key-value storage over named keyspaces.
///
/// Contract:
/// * Reads (`get`/`scan`/`keyspaces`) observe only **committed**
///   state — never the ops buffered in an open transaction.
/// * `commit` returns the transaction's sequence number; once it
///   returns `Ok`, the transaction is durable to the backend's
///   durability level (fsync-barriered for the WAL backend).
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

    /// Sorted names of keyspaces holding at least one committed key.
    fn keyspaces(&self) -> Result<Vec<String>>;

    /// Sequence number of the most recently committed transaction
    /// (0 if none).
    fn last_seq(&self) -> u64;

    /// Force a checkpoint now (durable backends write a snapshot and
    /// reset the WAL; the memory backend is a no-op).
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

/// The pre-existing in-memory behavior behind the trait: transactions
/// buffer ops and apply them on commit; nothing survives the process.
/// Doubles as the oracle in `DurableBackend` equivalence tests.
#[derive(Debug)]
pub struct MemoryBackend {
    state: KeyspaceState,
    tx: Option<Vec<TxOp>>,
    seq: u64,
    stats: StoreStats,
    instance: u64,
    witness: Arc<TxnWitness>,
}

impl Default for MemoryBackend {
    fn default() -> Self {
        Self::with_witness(TxnWitness::global())
    }
}

impl Clone for MemoryBackend {
    /// The clone is a new instance to the witness; a transaction open
    /// at clone time is open (and separately tracked) in both.
    fn clone(&self) -> Self {
        let instance = next_instance();
        if self.tx.is_some() {
            self.witness.note_begin(instance, "MemoryBackend");
        }
        MemoryBackend {
            state: self.state.clone(),
            tx: self.tx.clone(),
            seq: self.seq,
            stats: self.stats,
            instance,
            witness: Arc::clone(&self.witness),
        }
    }
}

impl Drop for MemoryBackend {
    /// Debug builds panic here if a transaction is still open.
    fn drop(&mut self) {
        self.witness.note_drop(self.instance);
    }
}

impl MemoryBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// A backend reporting to `witness` instead of the process-wide
    /// one. An always-on [`TxnWitness::new`] witness makes the
    /// drop-leak panic effective in release builds too and keeps test
    /// runs isolated.
    pub fn with_witness(witness: &Arc<TxnWitness>) -> Self {
        MemoryBackend {
            state: KeyspaceState::new(),
            tx: None,
            seq: 0,
            stats: StoreStats::default(),
            instance: next_instance(),
            witness: Arc::clone(witness),
        }
    }

    fn tx_mut(&mut self) -> Result<&mut Vec<TxOp>> {
        self.tx.as_mut().ok_or(StoreError::NoTransaction)
    }
}

impl StorageBackend for MemoryBackend {
    fn begin(&mut self) -> Result<()> {
        if self.tx.is_some() {
            return Err(StoreError::NestedTransaction);
        }
        self.tx = Some(Vec::new());
        self.witness.note_begin(self.instance, "MemoryBackend");
        Ok(())
    }

    fn put(&mut self, keyspace: &str, key: &[u8], value: &[u8]) -> Result<()> {
        let op = TxOp::Put {
            keyspace: keyspace.to_string(),
            key: key.to_vec(),
            value: value.to_vec(),
        };
        self.tx_mut()?.push(op);
        Ok(())
    }

    fn delete(&mut self, keyspace: &str, key: &[u8]) -> Result<()> {
        let op = TxOp::Delete { keyspace: keyspace.to_string(), key: key.to_vec() };
        self.tx_mut()?.push(op);
        Ok(())
    }

    fn commit(&mut self) -> Result<u64> {
        let ops = self.tx.take().ok_or(StoreError::NoTransaction)?;
        self.witness.note_end(self.instance);
        if ops.is_empty() {
            return Ok(self.seq);
        }
        self.seq += 1;
        for op in &ops {
            match op {
                TxOp::Put { .. } => self.stats.puts += 1,
                TxOp::Delete { .. } => self.stats.deletes += 1,
            }
            apply_op(&mut self.state, op);
        }
        self.stats.commits += 1;
        Ok(self.seq)
    }

    fn rollback(&mut self) {
        if self.tx.take().is_some() {
            self.witness.note_end(self.instance);
        }
    }

    fn in_transaction(&self) -> bool {
        self.tx.is_some()
    }

    fn get(&self, keyspace: &str, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.state.get(keyspace).and_then(|ks| ks.get(key).cloned()))
    }

    fn scan(&self, keyspace: &str) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self
            .state
            .get(keyspace)
            .map(|ks| ks.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default())
    }

    fn keyspaces(&self) -> Result<Vec<String>> {
        Ok(self.state.keys().cloned().collect())
    }

    fn last_seq(&self) -> u64 {
        self.seq
    }

    fn snapshot(&mut self) -> Result<()> {
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        let mut s = self.stats;
        s.keyspaces = self.state.len();
        s.entries = self.state.values().map(|ks| ks.len()).sum();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_applies_rollback_discards() {
        let mut b = MemoryBackend::new();
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
        let mut b = MemoryBackend::new();
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
        let mut b = MemoryBackend::new();
        b.begin().unwrap();
        b.put("ks", b"k", b"v").unwrap();
        b.commit().unwrap();
        assert_eq!(b.keyspaces().unwrap(), vec!["ks".to_string()]);
        b.begin().unwrap();
        b.delete("ks", b"k").unwrap();
        b.commit().unwrap();
        assert!(b.keyspaces().unwrap().is_empty());
        assert!(full_state(&b).unwrap().is_empty());
    }

    #[test]
    fn scan_is_sorted_and_stats_count() {
        let mut b = MemoryBackend::new();
        b.begin().unwrap();
        b.put("ks", b"b", b"2").unwrap();
        b.put("ks", b"a", b"1").unwrap();
        b.delete("ks", b"missing").unwrap();
        b.commit().unwrap();
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

    #[test]
    fn witness_sees_a_clean_lifecycle_through_the_backend() {
        let w = TxnWitness::new();
        {
            let mut b = MemoryBackend::with_witness(&w);
            b.begin().unwrap();
            b.put("ks", b"k", b"v").unwrap();
            b.commit().unwrap();
            b.begin().unwrap();
            b.rollback();
        }
        w.assert_none_open();
        assert_eq!(w.counts(), (2, 2));
    }

    // The explicit witness is always-on, so this panics in release
    // builds too.
    #[test]
    #[should_panic(expected = "transaction leak")]
    fn witness_panics_when_an_open_transaction_is_dropped() {
        let w = TxnWitness::new();
        let mut b = MemoryBackend::with_witness(&w);
        b.begin().unwrap();
        b.put("ks", b"k", b"v").unwrap();
        drop(b);
    }

    #[test]
    fn cloning_an_open_transaction_tracks_both_instances() {
        let w = TxnWitness::new();
        let mut a = MemoryBackend::with_witness(&w);
        a.begin().unwrap();
        let mut b = a.clone();
        assert_eq!(w.open_count(), 2);
        a.rollback();
        b.commit().unwrap();
        w.assert_none_open();
    }
}
