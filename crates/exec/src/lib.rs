#![forbid(unsafe_code)]
//! TELEIOS morsel-driven parallel execution engine.
//!
//! The paper sells the database tier as running "as fast as the
//! underlying hardware allows"; this crate supplies the in-process
//! half of that promise: a reusable scoped worker pool plus a
//! morsel/chunk partitioning API that the monet column kernels, the
//! SciQL array operators and the resilience batch supervisor all
//! share.
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
//!   environment variable to `1` turns the whole engine into the
//!   sequential code path (`scripts/check.sh` greps that no other
//!   crate tests the thread count).
//! * **Panic transparency** — a panicking task does not poison the
//!   pool; [`WorkerPool::run`] re-raises the payload of the earliest
//!   failing task (matching sequential panic semantics), while
//!   [`WorkerPool::try_run`] hands every payload back to the caller
//!   for per-task isolation (the supervisor's contract).
//! * **Cooperative cancellation** — a [`CancelToken`] passed to
//!   [`WorkerPool::try_run_cancellable`] is checked between morsels
//!   only: in-flight tasks finish, unclaimed tasks are skipped
//!   (`None` slots), and nothing is ever killed. Long-running tasks
//!   that want finer-grained cancellation poll the same token at
//!   their own safe points.
//!
//! * **Witnessed locking** — internal mutexes are
//!   [`ordered_lock::OrderedMutex`]es: in debug builds every
//!   acquisition feeds a process-wide lock-order graph
//!   ([`LockWitness`]), and the acquisition that would close a cycle
//!   panics, naming it — so every debug test run checks lock order.
//!
//! * **One executor** — [`WorkerPool::run`], [`WorkerPool::try_run`]
//!   and [`WorkerPool::try_run_cancellable`] are three views of one
//!   private executor: `std::thread::scope` workers claim task indices
//!   from a single shared counter, so the claim order is dynamic (a
//!   slow morsel never strands the ones behind it) while the output
//!   order is not. E13b (retired, EXPERIMENTS.md) records why the
//!   channel-queue and work-stealing dispatchers this replaced were
//!   not worth keeping apart.
//!
//! `tests/races.rs` stress-tests the race surface — first-wins cancel,
//! reason publication, the claim loop under a racing cancel, the
//! witness under contention — from seeded std-thread rounds.

pub mod cancel;
pub mod morsel;
pub mod ordered_lock;
pub mod pool;
pub mod spawn;

pub use cancel::CancelToken;
pub use morsel::{concat, fixed_morsels, DEFAULT_MORSEL_CELLS};
pub use ordered_lock::{LockWitness, OrderedMutex, OrderedMutexGuard};
pub use pool::{default_threads, PoolStats, WorkerPool};
pub use spawn::spawn_named;
