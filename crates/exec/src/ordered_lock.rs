//! Runtime lock-order witness.
//!
//! An [`OrderedMutex`] is a named mutex that records, per thread, which
//! other named locks are held at the moment it is acquired — building
//! the lock-order graph from actual executions. An acquisition whose
//! new edge would close a cycle in that graph is a deadlock the
//! scheduler merely hasn't hit yet, so the witness panics right there,
//! naming the cycle. Every debug-build test run is therefore a
//! lock-order check over the paths it exercises.
//!
//! Two properties keep the witness honest and cheap:
//!
//! * Edges are checked and recorded **before** blocking on the
//!   underlying mutex, so an attempted inversion is caught even in the
//!   schedule where it would actually deadlock.
//! * Bookkeeping lives behind one short-lived state lock of its own,
//!   so the witness is race-free by construction (`tests/races.rs`
//!   hammers it from two threads).
//!
//! The process-wide witness behind [`OrderedMutex::new`] records only
//! in debug builds (`cfg!(debug_assertions)`); release builds pay one
//! predictable branch per acquisition and never touch its state.
//! Tests use [`LockWitness::new`], which is always enabled and
//! isolated per instance.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;

/// Distinguishes lock *instances* that share a name (two shards named
/// `"shard"` must not produce a self-edge) and detects re-entry.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Default)]
struct WitnessState {
    /// Interned lock names; a node in the order graph is a name, not
    /// an instance.
    names: Vec<String>,
    /// Directed edges `held -> acquiring` between name ids.
    edges: BTreeSet<(usize, usize)>,
    /// Per-thread stack of currently held `(instance, name id)`.
    held: HashMap<ThreadId, Vec<(u64, usize)>>,
}

impl WitnessState {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(id) = self.names.iter().position(|n| n == name) {
            return id;
        }
        self.names.push(name.to_string());
        self.names.len() - 1
    }
}

/// The acquisition recorder shared by a set of [`OrderedMutex`]es.
///
/// An enabled witness panics on the acquisition that would close a
/// cycle. Between acquisitions, [`Self::edges`] is the observed order
/// graph and [`Self::nothing_held`] a leak check. Cloning the `Arc`
/// shares the recorder.
pub struct LockWitness {
    enabled: bool,
    state: Mutex<WitnessState>,
}

impl fmt::Debug for LockWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockWitness")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl LockWitness {
    fn with_enabled(enabled: bool) -> Arc<LockWitness> {
        Arc::new(LockWitness { enabled, state: Mutex::new(WitnessState::default()) })
    }

    /// A fresh, always-recording witness — what tests pass to
    /// [`OrderedMutex::with_witness`] so checks hold in release builds
    /// too and runs stay isolated from each other.
    pub fn new() -> Arc<LockWitness> {
        LockWitness::with_enabled(true)
    }

    /// A witness that records nothing — the release-build behavior of
    /// the global witness, constructible explicitly for tests.
    pub fn disabled() -> Arc<LockWitness> {
        LockWitness::with_enabled(false)
    }

    /// The process-wide witness behind [`OrderedMutex::new`]:
    /// recording in debug builds, a no-op in release builds.
    pub fn global() -> &'static Arc<LockWitness> {
        static GLOBAL: OnceLock<Arc<LockWitness>> = OnceLock::new();
        GLOBAL.get_or_init(|| LockWitness::with_enabled(cfg!(debug_assertions)))
    }

    fn state(&self) -> MutexGuard<'_, WitnessState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record `held -> acquiring` edges for everything this thread
    /// holds. Called *before* blocking on the protected mutex; panics,
    /// naming the cycle, if a new edge would close one.
    #[expect(
        clippy::panic,
        reason = "an observed lock-order inversion is a latent deadlock: fail the run that took it"
    )]
    fn note_acquiring(&self, thread: ThreadId, instance: u64, name_id: usize) {
        let mut st = self.state();
        let held = st.held.get(&thread).cloned().unwrap_or_default();
        for (inst, nid) in held {
            // Same-name instances (shards) carry no order relative to
            // each other at name granularity; skip the self-edge.
            if inst == instance || nid == name_id || st.edges.contains(&(nid, name_id)) {
                continue;
            }
            if let Some(back) = path(&st.edges, name_id, nid) {
                let cycle: Vec<&str> =
                    std::iter::once(nid).chain(back).map(|n| st.names[n].as_str()).collect();
                let message = format!(
                    "lock-order inversion: taking `{}` while holding `{}` closes the cycle {}",
                    st.names[name_id],
                    st.names[nid],
                    cycle.join(" -> ")
                );
                drop(st);
                panic!("{message}");
            }
            st.edges.insert((nid, name_id));
        }
    }

    fn note_acquired(&self, thread: ThreadId, instance: u64, name_id: usize) {
        let mut st = self.state();
        st.held.entry(thread).or_default().push((instance, name_id));
    }

    /// Guards may be dropped in any order; release removes the guard's
    /// instance wherever it sits in the stack.
    fn note_released(&self, thread: ThreadId, instance: u64) {
        let mut st = self.state();
        if let Some(stack) = st.held.get_mut(&thread) {
            if let Some(pos) = stack.iter().rposition(|&(inst, _)| inst == instance) {
                stack.remove(pos);
            }
            if stack.is_empty() {
                st.held.remove(&thread);
            }
        }
    }

    /// The observed order graph as `(held, acquiring)` name pairs, in
    /// sorted order.
    pub fn edges(&self) -> Vec<(String, String)> {
        let st = self.state();
        st.edges
            .iter()
            .map(|&(a, b)| (st.names[a].clone(), st.names[b].clone()))
            .collect()
    }

    /// True when no thread currently holds any witnessed lock — the
    /// end-of-test leak check.
    pub fn nothing_held(&self) -> bool {
        self.state().held.is_empty()
    }
}

/// Shortest path `from ..= to` over `edges`, if one exists.
fn path(edges: &BTreeSet<(usize, usize)>, from: usize, to: usize) -> Option<Vec<usize>> {
    let mut prev: HashMap<usize, usize> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = vec![to];
            while let Some(&p) = prev.get(path.last()?) {
                path.push(p);
            }
            path.reverse();
            return Some(path);
        }
        for &(_, next) in edges.range((node, 0)..(node + 1, 0)) {
            if next != from && !prev.contains_key(&next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

/// A named mutex whose acquisitions feed a [`LockWitness`].
///
/// Drop-in for the `Mutex<T>` shape this workspace uses: `lock()`
/// returns the guard directly (poisoning is absorbed, matching the
/// `unwrap_or_else(|p| p.into_inner())` idiom at every existing call
/// site).
pub struct OrderedMutex<T> {
    name: &'static str,
    name_id: usize,
    instance: u64,
    witness: Arc<LockWitness>,
    raw: Mutex<T>,
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl<T> OrderedMutex<T> {
    /// A lock wired to the process-wide witness (recording in debug
    /// builds only). `name` is the node in the lock-order graph; give
    /// every distinct lock role a distinct name and reuse one name
    /// only for interchangeable shards.
    pub fn new(name: &'static str, value: T) -> OrderedMutex<T> {
        OrderedMutex::with_witness(name, value, LockWitness::global())
    }

    /// A lock wired to an explicit witness — how tests isolate and
    /// force-enable recording.
    pub fn with_witness(
        name: &'static str,
        value: T,
        witness: &Arc<LockWitness>,
    ) -> OrderedMutex<T> {
        // A disabled witness (the global one in release builds) never
        // takes its state lock, not even to intern the name.
        let name_id = if witness.enabled { witness.state().intern(name) } else { 0 };
        OrderedMutex {
            name,
            name_id,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::SeqCst),
            witness: Arc::clone(witness),
            raw: Mutex::new(value),
        }
    }

    /// The lock's graph-node name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire, recording the order edge first so an inversion is
    /// witnessed even in the schedule where it deadlocks.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let thread = std::thread::current().id();
        if self.witness.enabled {
            self.witness.note_acquiring(thread, self.instance, self.name_id);
        }
        let guard = self.raw.lock().unwrap_or_else(|p| p.into_inner());
        if self.witness.enabled {
            self.witness.note_acquired(thread, self.instance, self.name_id);
        }
        OrderedMutexGuard { inner: guard, lock: self }
    }
}

/// RAII guard for [`OrderedMutex::lock`]; releases the witness record
/// on drop. Guards may be dropped in any order.
pub struct OrderedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    lock: &'a OrderedMutex<T>,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.lock.witness.enabled {
            self.lock
                .witness
                .note_released(std::thread::current().id(), self.lock.instance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Take `first` then `second`, release both.
    fn nest<T>(first: &OrderedMutex<T>, second: &OrderedMutex<T>) {
        let g1 = first.lock();
        let g2 = second.lock();
        drop(g2);
        drop(g1);
    }

    /// The panic message of taking `first` then `second`.
    fn inversion<T>(first: &OrderedMutex<T>, second: &OrderedMutex<T>) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| nest(first, second)))
            .expect_err("an inversion must panic");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn consistent_order_stays_clean() {
        let w = LockWitness::new();
        let a = OrderedMutex::with_witness("a", 0u8, &w);
        let b = OrderedMutex::with_witness("b", 0u8, &w);
        nest(&a, &b);
        nest(&a, &b);
        assert_eq!(w.edges(), vec![("a".to_string(), "b".to_string())]);
        assert!(w.nothing_held());
    }

    #[test]
    fn inversion_panics_naming_the_cycle_and_records_no_edge() {
        let w = LockWitness::new();
        let a = OrderedMutex::with_witness("alpha", (), &w);
        let b = OrderedMutex::with_witness("beta", (), &w);
        nest(&a, &b);
        assert_eq!(
            inversion(&b, &a),
            "lock-order inversion: taking `alpha` while holding `beta` closes the cycle beta -> alpha -> beta"
        );
        // The unwinding guard released its record, the closing edge was
        // never added, and the same inversion fails again.
        assert!(w.nothing_held());
        assert_eq!(w.edges(), vec![("alpha".to_string(), "beta".to_string())]);
        assert!(inversion(&b, &a).contains("closes the cycle"));
        nest(&a, &b);
    }

    #[test]
    fn transitive_cycle_across_three_locks() {
        let w = LockWitness::new();
        let a = OrderedMutex::with_witness("a", (), &w);
        let b = OrderedMutex::with_witness("b", (), &w);
        let c = OrderedMutex::with_witness("c", (), &w);
        nest(&a, &b);
        nest(&b, &c);
        assert!(inversion(&c, &a).ends_with("closes the cycle c -> a -> b -> c"));
        assert!(w.nothing_held());
    }

    #[test]
    fn out_of_order_release_is_fine() {
        let w = LockWitness::new();
        let a = OrderedMutex::with_witness("a", (), &w);
        let b = OrderedMutex::with_witness("b", (), &w);
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // released before the later acquisition
        drop(gb);
        assert!(w.nothing_held());
        nest(&a, &b);
    }

    #[test]
    fn same_name_shards_produce_no_self_edge() {
        let w = LockWitness::new();
        let s1 = OrderedMutex::with_witness("shard", 1u8, &w);
        let s2 = OrderedMutex::with_witness("shard", 2u8, &w);
        nest(&s1, &s2);
        nest(&s2, &s1);
        assert!(w.edges().is_empty());
    }

    #[test]
    fn disabled_witness_records_nothing_and_never_interns() {
        let w = LockWitness::disabled();
        let a = OrderedMutex::with_witness("a", 7u8, &w);
        let b = OrderedMutex::with_witness("b", 9u8, &w);
        nest(&a, &b);
        nest(&b, &a);
        assert_eq!(*a.lock() + *b.lock(), 16);
        assert!(w.edges().is_empty());
        assert!(w.nothing_held());
        assert!(w.state().names.is_empty(), "a disabled witness took its state lock to intern");
    }

    #[test]
    fn guard_gives_mutable_access() {
        let w = LockWitness::new();
        let a = OrderedMutex::with_witness("counter", 0u32, &w);
        *a.lock() += 5;
        assert_eq!(*a.lock(), 5);
        assert!(w.nothing_held());
    }
}
