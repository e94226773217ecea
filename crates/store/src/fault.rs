//! Write-layer fault injection. These are the storage-side halves of
//! the durability faults in `teleios-resilience` (`Fault::TornWrite`,
//! `Fault::ShortFsync`, `Fault::CrashPoint`): a [`WriteFault`] is
//! armed on a [`MemMedium`](crate::MemMedium) and fires on the next
//! matching device operation, so tests can kill the engine at an
//! exact WAL offset and then assert recovery is bit-exact.
//! [`FailingPuts`] is the same idea one layer up: a backend whose
//! writes start failing mid-transaction.

use crate::backend::{MemoryBackend, StorageBackend, StoreStats};
use crate::{Result, StoreError};

/// A single injected device-level failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The next `sync` tears: only the first `keep` volatile bytes
    /// reach durable storage before the device crashes. Models a
    /// power cut mid-way through the kernel flushing the page cache.
    Torn { keep: usize },
    /// The next `sync` reports success-path I/O failure *without*
    /// persisting anything new and *without* crashing the device —
    /// the fsyncgate scenario. The engine must treat the commit as
    /// unacknowledged and poison itself.
    ShortFsync,
    /// The next `append` crashes the device before any byte of it is
    /// even buffered.
    Crash,
}

impl WriteFault {
    /// Stable label used in bench tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            WriteFault::Torn { .. } => "torn-write",
            WriteFault::ShortFsync => "short-fsync",
            WriteFault::Crash => "crash-point",
        }
    }
}

/// A [`MemoryBackend`] whose `put`s fail once `puts` of them have
/// succeeded — how a domain port's test drives the error exit between
/// its `begin` and its `commit`. Give the inner backend an always-on
/// [`TxnWitness`](crate::TxnWitness): dropping it with the transaction
/// still open then panics.
#[derive(Debug)]
pub struct FailingPuts {
    pub inner: MemoryBackend,
    pub puts: usize,
}

impl StorageBackend for FailingPuts {
    fn begin(&mut self) -> Result<()> {
        self.inner.begin()
    }
    fn put(&mut self, keyspace: &str, key: &[u8], value: &[u8]) -> Result<()> {
        let Some(left) = self.puts.checked_sub(1) else {
            return Err(StoreError::Io(format!("injected put failure at {keyspace}")));
        };
        self.puts = left;
        self.inner.put(keyspace, key, value)
    }
    fn delete(&mut self, keyspace: &str, key: &[u8]) -> Result<()> {
        self.inner.delete(keyspace, key)
    }
    fn commit(&mut self) -> Result<u64> {
        self.inner.commit()
    }
    fn rollback(&mut self) {
        self.inner.rollback()
    }
    fn in_transaction(&self) -> bool {
        self.inner.in_transaction()
    }
    fn get(&self, keyspace: &str, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(keyspace, key)
    }
    fn scan(&self, keyspace: &str) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner.scan(keyspace)
    }
    fn keyspaces(&self) -> Result<Vec<String>> {
        self.inner.keyspaces()
    }
    fn last_seq(&self) -> u64 {
        self.inner.last_seq()
    }
    fn snapshot(&mut self) -> Result<()> {
        self.inner.snapshot()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels = [
            WriteFault::Torn { keep: 3 }.label(),
            WriteFault::ShortFsync.label(),
            WriteFault::Crash.label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
