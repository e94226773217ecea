//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheap, cloneable flag shared between the
//! party that decides to stop a computation (a deadline watchdog, a
//! shutdown handler) and the code doing the work. Cancellation is
//! strictly cooperative: nothing is killed, no thread is unwound from
//! the outside. Workers observe the flag at safe points — between
//! morsels in [`crate::WorkerPool`], at stage boundaries in the NOA
//! chain — and drain gracefully, so partial results stay consistent.
//!
//! The first `cancel` call wins and records a human-readable reason;
//! later calls are no-ops. This keeps error attribution deterministic
//! when several watchdog rules fire close together.

use crate::ordered_lock::OrderedMutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    // Witnessed: debug builds record it in the global lock-order graph.
    reason: OrderedMutex<Option<String>>,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            cancelled: AtomicBool::default(),
            reason: OrderedMutex::new("cancel.reason", None),
        }
    }
}

/// A shared, clonable cancellation flag with a first-wins reason.
///
/// Clones observe the same flag; `Default` yields a fresh,
/// not-yet-cancelled token.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation with a reason. Returns `true` if this call
    /// was the one that flipped the flag (its reason is recorded);
    /// `false` if the token was already cancelled (reason unchanged).
    pub fn cancel(&self, reason: impl Into<String>) -> bool {
        let first = !self.inner.cancelled.swap(true, Ordering::SeqCst);
        if first {
            let mut slot = self.inner.reason.lock();
            *slot = Some(reason.into());
        }
        first
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// The reason recorded by the winning `cancel` call, if any.
    ///
    /// Note: a racing reader may briefly observe `is_cancelled() ==
    /// true` with no reason yet; callers format a generic message in
    /// that window.
    pub fn reason(&self) -> Option<String> {
        self.inner.reason.lock().clone()
    }

    /// Sleep for up to `total`, polling the token in ~1 ms slices.
    /// Returns `true` if the sleep was cut short by cancellation,
    /// `false` if the full duration elapsed uncancelled. This is how
    /// injected hang faults stay deterministic without ever outliving
    /// the deadline that cancels them.
    pub fn sleep_cancellable(&self, total: Duration) -> bool {
        const SLICE: Duration = Duration::from_millis(1);
        let start = Instant::now();
        loop {
            if self.is_cancelled() {
                return true;
            }
            let elapsed = start.elapsed();
            if elapsed >= total {
                return false;
            }
            // `total` may be enormous (an unbounded hang relies on the
            // watchdog); sleep only a slice at a time.
            thread::sleep(SLICE.min(total - elapsed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert_eq!(token.reason(), None);
    }

    #[test]
    fn first_cancel_wins_and_records_reason() {
        let token = CancelToken::new();
        assert!(token.cancel("deadline overshot"));
        assert!(token.is_cancelled());
        assert!(!token.cancel("second reason loses"));
        assert_eq!(token.reason().as_deref(), Some("deadline overshot"));
    }

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel("stop");
        assert!(clone.is_cancelled());
        assert_eq!(clone.reason().as_deref(), Some("stop"));
    }

    #[test]
    fn sleep_runs_to_completion_when_uncancelled() {
        let token = CancelToken::new();
        let t0 = Instant::now();
        let cut_short = token.sleep_cancellable(Duration::from_millis(5));
        assert!(!cut_short);
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn sleep_is_cut_short_by_cancellation() {
        let token = CancelToken::new();
        let watcher = token.clone();
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            watcher.cancel("watchdog");
        });
        let t0 = Instant::now();
        // Without cancellation this would sleep for ten seconds.
        let cut_short = token.sleep_cancellable(Duration::from_secs(10));
        assert!(cut_short);
        assert!(t0.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn sleep_returns_immediately_when_already_cancelled() {
        let token = CancelToken::new();
        token.cancel("pre-cancelled");
        assert!(token.sleep_cancellable(Duration::from_secs(10)));
    }
}
