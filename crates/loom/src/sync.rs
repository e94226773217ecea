//! Modeled drop-in replacements for the `std::sync` types the
//! exec/cancel layer uses. Each shared-memory operation reaches a
//! scheduler yield point first; outside a [`crate::model`] run they
//! delegate straight to `std`.

use crate::sched;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicUsize as StdAtomicUsize;

pub use std::sync::Arc;
pub use std::sync::LockResult;

/// Modeled atomics. Ordering arguments are accepted for signature
/// compatibility but modeled as `SeqCst` — see the crate docs.
pub mod atomic {
    use crate::sched;
    use std::sync::atomic::Ordering as StdOrdering;

    pub use std::sync::atomic::Ordering;

    fn yield_point() {
        if let Some((exec, me)) = sched::current() {
            exec.yield_point(me);
        }
    }

    #[derive(Debug, Default)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        pub fn new(v: bool) -> AtomicBool {
            AtomicBool(std::sync::atomic::AtomicBool::new(v))
        }

        pub fn load(&self, _order: Ordering) -> bool {
            yield_point();
            self.0.load(StdOrdering::SeqCst)
        }

        pub fn store(&self, v: bool, _order: Ordering) {
            yield_point();
            self.0.store(v, StdOrdering::SeqCst)
        }

        pub fn swap(&self, v: bool, _order: Ordering) -> bool {
            yield_point();
            self.0.swap(v, StdOrdering::SeqCst)
        }
    }

    #[derive(Debug, Default)]
    pub struct AtomicUsize(std::sync::atomic::AtomicUsize);

    impl AtomicUsize {
        pub fn new(v: usize) -> AtomicUsize {
            AtomicUsize(std::sync::atomic::AtomicUsize::new(v))
        }

        pub fn load(&self, _order: Ordering) -> usize {
            yield_point();
            self.0.load(StdOrdering::SeqCst)
        }

        pub fn store(&self, v: usize, _order: Ordering) {
            yield_point();
            self.0.store(v, StdOrdering::SeqCst)
        }

        pub fn swap(&self, v: usize, _order: Ordering) -> usize {
            yield_point();
            self.0.swap(v, StdOrdering::SeqCst)
        }

        pub fn fetch_add(&self, v: usize, _order: Ordering) -> usize {
            yield_point();
            self.0.fetch_add(v, StdOrdering::SeqCst)
        }
    }
}

static NEXT_LOCK_ID: StdAtomicUsize = StdAtomicUsize::new(0);

/// A modeled mutex. Acquisition is a scheduler choice point and
/// contention blocks *in the model* (the scheduler runs someone else);
/// the inner `std` mutex is therefore always uncontended and only
/// provides the actual mutable-aliasing guarantee to the borrow
/// checker. `lock` mirrors `std`'s `LockResult` signature so call
/// sites written against `std::sync::Mutex` compile unchanged.
#[derive(Debug)]
pub struct Mutex<T> {
    id: usize,
    inner: std::sync::Mutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        // Not derived: a derived impl would default `id` to 0 and make
        // every default-constructed lock alias in the scheduler's
        // registry.
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            id: NEXT_LOCK_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let ctx = sched::current();
        if let Some((exec, me)) = &ctx {
            if !exec.acquire_lock(*me, self.id) {
                // Execution aborted (deadlock / failure elsewhere):
                // unwind instead of touching the OS mutex, whose
                // holder may itself be unwinding and never release.
                crate::fail("execution aborted during lock acquisition");
            }
        }
        let guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        Ok(MutexGuard {
            inner: guard,
            lock_id: self.id,
            ctx,
        })
    }
}

pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    lock_id: usize,
    ctx: Option<(std::sync::Arc<sched::Execution>, usize)>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the modeled lock *without yielding*: the inner std
        // guard is still held until field drop completes, so a rival
        // activated here would block on the OS mutex and wedge the
        // token protocol. Rivals become runnable now and get scheduled
        // at this thread's next yield point.
        if let Some((exec, me)) = &self.ctx {
            exec.release_lock(*me, self.lock_id);
        }
    }
}
