#![forbid(unsafe_code)]
//! TELEIOS morsel-driven parallel execution engine.
//!
//! The paper sells the database tier as running "as fast as the
//! underlying hardware allows"; this crate supplies the in-process
//! half of that promise: a reusable scoped worker pool plus a morsel
//! partitioning API. Its users are the R-tree bulk load (which
//! strabon's spatial sidecar runs) and the resilience batch
//! supervisor. Strabon's BGP probes and FILTERs, monet's relational
//! operators and its array kernels are sequential: no workload's
//! bindings, tables or arrays are large enough for a fork to pay.
//!
//! Design rules (every consumer relies on them):
//!
//! * **Determinism** — operators built on [`WorkerPool::run`] must be
//!   bit-identical at every thread count. The pool returns results in
//!   task order, so partitioning the input into ordered morsels and
//!   merging per-morsel outputs in order ([`morsel::concat`])
//!   reproduces the scan order of the whole input exactly.
//! * **One fork site; sequential is the `threads = 1` case** —
//!   [`WorkerPool::morsels_for`] is the only place that decides
//!   "inline or morsel-parallel": a one-thread pool, or an input under
//!   the kernel's threshold, gets a single range, and a single task
//!   runs inline on the caller with no spawning. A kernel is therefore
//!   one range body plus one in-order merge, never a sequential loop
//!   and a parallel copy of it, and setting the `TELEIOS_THREADS`
//!   environment variable to `1` turns the R-tree and the supervisor
//!   into the sequential code path (`scripts/check.sh` greps that no
//!   other crate tests the thread count).
//! * **Panic transparency** — a panicking task does not poison the
//!   pool; [`WorkerPool::run`] re-raises the payload of the earliest
//!   failing task (matching sequential panic semantics), while
//!   [`WorkerPool::try_run`] hands every payload back to the caller
//!   for per-task isolation (the supervisor's contract).
//! * **Cooperative cancellation** — a [`CancelToken`] is a first-wins
//!   flag plus reason, optionally with a deadline that fires the token
//!   the first time it is polled after that instant. Nothing is ever
//!   killed and no thread watches the clock: long-running work polls
//!   the token at its own safe points (the NOA chain at stage
//!   boundaries, injected hangs in [`CancelToken::sleep_cancellable`]).
//!   The pool itself never skips a task.
//!
//! * **Witnessed locking** — internal mutexes are
//!   [`ordered_lock::OrderedMutex`]es: in debug builds every
//!   acquisition feeds a process-wide lock-order graph
//!   ([`LockWitness`]), and the acquisition that would close a cycle
//!   panics, naming it — so every debug test run checks lock order.
//!
//! * **One executor, the workspace's only threads** —
//!   [`WorkerPool::run`] is a view of [`WorkerPool::try_run`]:
//!   `std::thread::scope` workers claim task indices from a single
//!   shared counter, so the claim order is dynamic (a slow morsel never
//!   strands the ones behind it) while the output order is not. The
//!   root `clippy.toml` disallows `std::thread::{spawn, scope,
//!   Builder}` in library code; `try_run` carries the one waiver.
//!   E13b (retired, EXPERIMENTS.md) records why the channel-queue and
//!   work-stealing dispatchers this replaced were not worth keeping
//!   apart.
//!
//! `tests/races.rs` stress-tests the race surface — first-wins cancel
//! (a deadline racing an explicit cancel included), reason
//! publication, the witness under contention — from seeded std-thread
//! rounds.

pub mod cancel;
pub mod morsel;
pub mod ordered_lock;
pub mod pool;

pub use cancel::CancelToken;
pub use morsel::concat;
pub use ordered_lock::{LockWitness, OrderedMutex, OrderedMutexGuard};
pub use pool::{default_threads, panic_message, WorkerPool};
