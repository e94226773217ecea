//! Runtime check of transaction discipline: every `begin()` must
//! reach a `commit()` or `rollback()` before its backend goes away.
//! Every backend notes `begin`/`commit`/`rollback` against a shared
//! [`TxnWitness`], and dropping a backend with a transaction still
//! open panics in debug builds (where the process-wide
//! [`TxnWitness::global`] records), naming the backend. It sees through
//! trait objects and function boundaries alike.
//!
//! Tests that want the check in release builds too construct an
//! always-on witness with [`TxnWitness::new`] and inject it via
//! `MemoryBackend::with_witness`, keeping runs isolated from each
//! other and from the global recorder.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock};

/// Distinguishes backend *instances* sharing one witness; a clone of
/// a backend is a new instance with its own transaction state.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// A fresh instance id for a backend that reports to a witness.
pub(crate) fn next_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::SeqCst)
}

#[derive(Debug, Default)]
struct WitnessState {
    /// Instance id → backend label, for every currently open
    /// transaction.
    open: BTreeMap<u64, &'static str>,
    /// Transactions opened since the witness was created.
    begun: u64,
    /// Transactions closed (committed or rolled back).
    closed: u64,
}

/// The transaction-lifecycle recorder shared by a set of storage
/// backends. Cloning the `Arc` shares the recorder.
pub struct TxnWitness {
    enabled: bool,
    state: StdMutex<WitnessState>,
}

impl fmt::Debug for TxnWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnWitness")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl TxnWitness {
    /// A fresh, always-recording witness — what tests inject via
    /// `MemoryBackend::with_witness` so leak panics fire in release
    /// builds too and runs stay isolated from each other.
    pub fn new() -> Arc<TxnWitness> {
        Arc::new(TxnWitness { enabled: true, state: StdMutex::new(WitnessState::default()) })
    }

    /// A witness that records nothing — the release-build behavior of
    /// the global witness, constructible explicitly for tests.
    pub fn disabled() -> Arc<TxnWitness> {
        Arc::new(TxnWitness { enabled: false, state: StdMutex::new(WitnessState::default()) })
    }

    /// The process-wide witness behind the default constructors:
    /// recording in debug builds, a no-op in release builds.
    pub fn global() -> &'static Arc<TxnWitness> {
        static GLOBAL: OnceLock<Arc<TxnWitness>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Arc::new(TxnWitness {
                enabled: cfg!(debug_assertions),
                state: StdMutex::new(WitnessState::default()),
            })
        })
    }

    /// Poison-tolerant: a panic mid-note must not cascade.
    fn state(&self) -> std::sync::MutexGuard<'_, WitnessState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record a successful `begin()` on `instance`.
    pub(crate) fn note_begin(&self, instance: u64, label: &'static str) {
        if !self.enabled {
            return;
        }
        let mut st = self.state();
        st.begun += 1;
        st.open.insert(instance, label);
    }

    /// Record a `commit()`/`rollback()` (or an `into_medium`
    /// teardown) closing `instance`'s transaction, if one was open.
    pub(crate) fn note_end(&self, instance: u64) {
        if !self.enabled {
            return;
        }
        let mut st = self.state();
        if st.open.remove(&instance).is_some() {
            st.closed += 1;
        }
    }

    /// Called from a backend's `Drop`: panics if `instance` still has
    /// an open transaction — unless the thread is already panicking
    /// (the drop is then part of unwinding from the real failure).
    pub(crate) fn note_drop(&self, instance: u64) {
        if !self.enabled {
            return;
        }
        let leaked = self.state().open.remove(&instance);
        if let Some(label) = leaked {
            assert!(
                std::thread::panicking(),
                "transaction leak: {label} dropped with a transaction still open — \
                 commit or roll back on every path out"
            );
        }
    }

    /// Transactions currently open across all instances reporting to
    /// this witness.
    pub fn open_count(&self) -> usize {
        self.state().open.len()
    }

    /// `(begun, closed)` since the witness was created.
    pub fn counts(&self) -> (u64, u64) {
        let st = self.state();
        (st.begun, st.closed)
    }

    /// Test hook: fail loudly if any transaction is still open.
    pub fn assert_none_open(&self) {
        let st = self.state();
        assert!(
            st.open.is_empty(),
            "transactions still open: {:?} (begun {}, closed {})",
            st.open,
            st.begun,
            st.closed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_begin_end_leaves_nothing_open() {
        let w = TxnWitness::new();
        let a = next_instance();
        let b = next_instance();
        w.note_begin(a, "A");
        w.note_begin(b, "B");
        assert_eq!(w.open_count(), 2);
        w.note_end(a);
        w.note_end(b);
        assert_eq!(w.open_count(), 0);
        assert_eq!(w.counts(), (2, 2));
        w.assert_none_open();
        w.note_drop(a); // closed instance: no panic
    }

    #[test]
    fn disabled_witness_records_nothing() {
        let w = TxnWitness::disabled();
        let i = next_instance();
        w.note_begin(i, "A");
        assert_eq!(w.open_count(), 0);
        w.note_drop(i); // would panic if it had recorded
    }

    #[test]
    #[should_panic(expected = "transaction leak")]
    fn dropping_an_open_transaction_panics() {
        let w = TxnWitness::new();
        let i = next_instance();
        w.note_begin(i, "MemoryBackend");
        w.note_drop(i);
    }

    #[test]
    fn note_end_without_begin_is_harmless() {
        let w = TxnWitness::new();
        let i = next_instance();
        w.note_end(i);
        assert_eq!(w.counts(), (0, 0));
    }
}
