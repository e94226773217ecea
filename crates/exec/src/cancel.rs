//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheap, cloneable flag shared between the
//! party that decides to stop a computation (a shutdown handler, a
//! caller giving up) and the code doing the work. Cancellation is
//! strictly cooperative: nothing is killed, no thread is unwound from
//! the outside. Workers observe the flag at safe points — at stage
//! boundaries in the NOA chain, between slices of
//! [`CancelToken::sleep_cancellable`] — and drain gracefully, so
//! partial results stay consistent.
//!
//! A token may carry a deadline ([`CancelToken::with_deadline`]): it
//! then fires itself the first time it is polled after that instant.
//! No thread watches the clock, so a deadline costs nothing until the
//! worker that owns the token looks at it.
//!
//! The first `cancel` call wins and records a human-readable reason;
//! later calls are no-ops. An expiring deadline fires through the same
//! call, so an explicit cancel racing it still leaves exactly one
//! winner and one reason.

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
    // The instant after which a poll fires the token, and its reason.
    deadline: Option<(Instant, String)>,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            cancelled: AtomicBool::default(),
            reason: OrderedMutex::new("cancel.reason", None),
            deadline: None,
        }
    }
}

/// A shared, clonable cancellation flag with a first-wins reason and
/// an optional deadline.
///
/// Clones observe the same flag; `Default` yields a fresh,
/// not-yet-cancelled token without a deadline.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A fresh token that cancels itself with `reason` once `at` has
    /// passed: the first [`Self::is_cancelled`] call that finds the
    /// deadline behind it fires the token through [`Self::cancel`], so
    /// an explicit cancel that got there first keeps its own reason.
    pub fn with_deadline(at: Instant, reason: impl Into<String>) -> CancelToken {
        let inner = Inner {
            deadline: Some((at, reason.into())),
            ..Inner::default()
        };
        CancelToken {
            inner: Arc::new(inner),
        }
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

    /// Has cancellation been requested, or has the deadline passed?
    /// The first call to see the deadline behind it fires the token.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        match &self.inner.deadline {
            Some((at, reason)) if Instant::now() >= *at => {
                self.cancel(reason.as_str());
                true
            }
            _ => false,
        }
    }

    /// The reason recorded by the winning `cancel` call, if any.
    /// Reading it never fires a deadline: an expired token nobody has
    /// polled yet has no reason.
    ///
    /// Note: a racing reader may briefly observe `is_cancelled() ==
    /// true` with no reason yet; callers format a generic message in
    /// that window.
    pub fn reason(&self) -> Option<String> {
        self.inner.reason.lock().clone()
    }

    /// Sleep for up to `total`, polling the token in ~1 ms slices.
    /// Returns `true` if the sleep was cut short by cancellation (a
    /// deadline included), `false` if the full duration elapsed
    /// uncancelled. This is how injected hang faults stay deterministic
    /// without ever outliving the deadline that cancels them.
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
            // `total` may be enormous (an unbounded hang relies on a
            // deadline or a canceller); sleep only a slice at a time.
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
    fn a_past_deadline_reads_as_cancelled_with_its_reason() {
        let token = CancelToken::with_deadline(Instant::now(), "attempt overshot 0ms");
        // Reading the reason does not fire the deadline; polling does.
        assert_eq!(token.reason(), None);
        assert!(token.is_cancelled());
        assert_eq!(token.reason().as_deref(), Some("attempt overshot 0ms"));
        // A fired deadline is an ordinary cancellation: later cancels lose.
        assert!(!token.cancel("too late"));
        assert_eq!(
            token.clone().reason().as_deref(),
            Some("attempt overshot 0ms")
        );

        let later = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600), "later");
        assert!(!later.is_cancelled());
        assert_eq!(later.reason(), None);
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
        let canceller = token.clone();
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            canceller.cancel("caller gave up");
        });
        let t0 = Instant::now();
        // Without cancellation this would sleep for ten seconds.
        let cut_short = token.sleep_cancellable(Duration::from_secs(10));
        assert!(cut_short);
        assert!(t0.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    /// The deadline needs no second thread: the sleeper's own polls
    /// fire it.
    #[test]
    fn sleep_is_cut_short_by_a_deadline_alone() {
        let t0 = Instant::now();
        let token = CancelToken::with_deadline(t0 + Duration::from_millis(20), "20ms budget");
        assert!(token.sleep_cancellable(Duration::from_secs(10)));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "slept {:?}",
            t0.elapsed()
        );
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(token.reason().as_deref(), Some("20ms budget"));
    }

    #[test]
    fn sleep_returns_immediately_when_already_cancelled() {
        let token = CancelToken::new();
        token.cancel("pre-cancelled");
        assert!(token.sleep_cancellable(Duration::from_secs(10)));
    }
}
