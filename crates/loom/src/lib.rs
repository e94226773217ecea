#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # teleios-loom — a vendored, loom-style interleaving model checker
//!
//! The exec/cancel layer's correctness arguments ("first cancel wins",
//! "what a fired token skips is a suffix of claim order") are
//! statements about *all* interleavings, but ordinary tests only
//! sample a few schedules. This crate supplies the missing tool: a
//! miniature model checker in the spirit of
//! [`loom`](https://github.com/tokio-rs/loom), vendored because the
//! build is fully offline. It exhaustively enumerates the schedules of
//! a small multi-threaded model by depth-first search over scheduling
//! choices, replaying the model once per schedule.
//!
//! ## How it works
//!
//! [`model`] runs a closure repeatedly. Threads spawned through
//! [`thread::spawn`] and operations on the modeled primitives in
//! [`sync`] are *controlled*: exactly one modeled thread runs at a
//! time, and before every shared-memory operation the running thread
//! reaches a *yield point* where the scheduler picks which thread runs
//! next. The first execution takes the first runnable thread at every
//! choice; each subsequent execution replays a recorded prefix and
//! flips the last choice that still has an untried alternative, until
//! the whole choice tree is exhausted.
//!
//! ## Model and limitations (read before trusting a green run)
//!
//! * **Sequential consistency only.** Modeled atomics honor their call
//!   signatures but execute `SeqCst`; weaker `Ordering` arguments are
//!   accepted and *modeled as `SeqCst`*. This is exact for the
//!   `CancelToken`, which uses `SeqCst` everywhere — and the
//!   `teleios-lint` L5 rule (no `Relaxed` outside `crates/exec`) keeps
//!   that assumption enforceable workspace-wide.
//! * **Mutex release is not a separate choice point.** A modeled
//!   `MutexGuard` drop frees the lock immediately; rivals resume at the
//!   releaser's next yield point. (Yielding inside the guard's `Drop`
//!   would wake rivals while the inner `std` mutex is still held.)
//! * **No partial-order reduction.** State space is the raw choice
//!   tree, so keep models tiny: 2–3 threads, a handful of operations
//!   each. The checker aborts with a diagnostic when an execution
//!   exceeds [`sched::MAX_STEPS`] steps or the search exceeds
//!   [`sched::MAX_EXECUTIONS`] executions.
//! * **Outside [`model`], everything degrades to `std`.** The modeled
//!   primitives detect that no controlled execution is active and
//!   behave exactly like their `std` counterparts, so a crate compiled
//!   with its loom feature enabled still runs its ordinary tests.
//!
//! Failures (assertion panics inside the model, deadlocks, livelocks)
//! abort the search and re-panic on the caller with the schedule that
//! exposed them, so a failing property gives a reproducible trace.

pub mod sched;
pub mod sync;
pub mod thread;

pub use sched::model;

/// Single funnel for the checker's own fatal errors, so the workspace
/// no-panic lint has exactly one documented suppression in this crate.
/// A model-checking harness *reports by panicking*: the panic carries
/// the failing schedule to the test runner.
pub(crate) fn fail(msg: &str) -> ! {
    panic!("teleios-loom: {msg}") // teleios-lint: allow(no-panic) — failure reporting channel of the checker itself
}
