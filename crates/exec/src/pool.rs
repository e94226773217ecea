//! Scoped worker pool built on `std::thread::scope`.
//!
//! The pool is a lightweight value (`Copy`): it records a thread
//! count and spins up scoped workers per call, so it can borrow the
//! caller's data (columns, chunks, arrays) without `Arc` plumbing.
//! Workers claim task indices from one shared counter, so a slow task
//! never strands the tasks behind it; results always come back in
//! task-submission order.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use crate::cancel::CancelToken;
use crate::morsel::morsels;
use crate::ordered_lock::OrderedMutex;

/// Worker count from the environment: `TELEIOS_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
/// The variable is read on every call so harnesses can sweep thread
/// counts in-process; the fallback (cgroup file reads) is read once.
pub fn default_threads() -> usize {
    match std::env::var("TELEIOS_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
}

/// Observability for a pool run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads that served the run (1 = inline on the caller).
    pub workers: usize,
    /// Tasks that actually executed (cancellation-skipped tasks are
    /// not counted).
    pub tasks_executed: usize,
}

/// A morsel-driven worker pool. `Copy` and stateless between calls:
/// construct one per operator invocation (or keep one around — both
/// are free).
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    /// A pool sized by [`default_threads`] (`TELEIOS_THREADS` env
    /// override, else available parallelism).
    fn default() -> WorkerPool {
        WorkerPool { threads: default_threads() }
    }
}

impl WorkerPool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> WorkerPool {
        WorkerPool { threads: threads.max(1) }
    }

    /// The worker count this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ordered ranges covering `0..len` exactly — the one place that
    /// decides "inline or morsel-parallel" for every kernel.
    ///
    /// A one-thread pool, or an input under `min_parallel` items (the
    /// caller's per-item-cost threshold), gets the single range
    /// `0..len`, empty input included; [`Self::run`] executes a single
    /// task inline on the caller, so a kernel written as one range
    /// body plus an in-order merge *is* its own sequential path.
    /// Otherwise the input splits into at most `threads * per_worker`
    /// near-equal morsels (`per_worker > 1` gives the claim counter
    /// slack to rebalance skewed items).
    pub fn morsels_for(
        &self,
        len: usize,
        min_parallel: usize,
        per_worker: usize,
    ) -> Vec<Range<usize>> {
        if self.threads <= 1 || len < min_parallel.max(1) {
            return std::iter::once(0..len).collect();
        }
        morsels(len, self.threads.saturating_mul(per_worker))
    }

    /// Run `tasks` and return their results in task order.
    ///
    /// With one thread (or fewer than two tasks) the tasks run inline
    /// on the caller, sequentially — the exact seed code path. In
    /// parallel mode a panicking task's payload is re-raised on the
    /// caller once all workers have drained, choosing the earliest
    /// failing task so panic identity matches the sequential run.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if self.threads <= 1 || tasks.len() <= 1 {
            return tasks.into_iter().map(|f| f()).collect();
        }
        let (results, _) = self.try_run(tasks);
        results
            .into_iter()
            .map(|result| result.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }

    /// Run `tasks`, returning per-task results (`Err` carries a panic
    /// payload) in task order plus the run's [`PoolStats`]. A
    /// panicking task never takes its neighbors down — the
    /// supervisor's per-scene isolation contract.
    pub fn try_run<T, F>(&self, tasks: Vec<F>) -> (Vec<thread::Result<T>>, PoolStats)
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let (slots, stats) = self.execute(tasks, None);
        let results = slots
            .into_iter()
            .map(|slot| match slot {
                Some(outcome) => outcome,
                // No cancel token was passed, so every task ran.
                None => unreachable!("uncancellable run skipped a task"),
            })
            .collect();
        (results, stats)
    }

    /// Like [`Self::try_run`], but checks `cancel` before every claim:
    /// once a worker observes the fired token it stops claiming, so
    /// in-flight work drains instead of running to completion. Tasks
    /// nobody claimed come back as `None` in their submission-order
    /// slot; completed ones as `Some(result)`. Tasks already executing
    /// when the token fires are *not* interrupted — cancellation
    /// inside a task is the task's own business (the NOA chain checks
    /// the same token at stage boundaries).
    pub fn try_run_cancellable<T, F>(
        &self,
        tasks: Vec<F>,
        cancel: &CancelToken,
    ) -> (Vec<Option<thread::Result<T>>>, PoolStats)
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.execute(tasks, Some(cancel))
    }

    /// The one executor. Every task closure is parked in a mutex slot
    /// and workers claim slot indices from a shared counter, in
    /// submission order; each worker hands its `(index, outcome)`
    /// pairs back through `join` and the caller scatters them into
    /// submission order. With one worker the same claim loop runs
    /// inline on the caller.
    ///
    /// A worker checks `cancel` *before* claiming, so the claimed
    /// indices always form a prefix of submission order and the `None`
    /// (never-claimed) slots a suffix.
    fn execute<T, F>(
        &self,
        tasks: Vec<F>,
        cancel: Option<&CancelToken>,
    ) -> (Vec<Option<thread::Result<T>>>, PoolStats)
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        let workers = self.threads.min(n).max(1);
        let parked: Vec<OrderedMutex<Option<F>>> =
            tasks.into_iter().map(|f| OrderedMutex::new("pool.task", Some(f))).collect();
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            while !cancel.is_some_and(CancelToken::is_cancelled) {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(task) = parked.get(i).and_then(|slot| slot.lock().take()) else {
                    break;
                };
                done.push((i, catch_unwind(AssertUnwindSafe(task))));
            }
            done
        };
        let joined = if workers == 1 {
            vec![Ok(worker())]
        } else {
            thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&worker)).collect();
                handles.into_iter().map(thread::ScopedJoinHandle::join).collect()
            })
        };

        let mut slots: Vec<Option<thread::Result<T>>> = (0..n).map(|_| None).collect();
        let mut tasks_executed = 0;
        for done in joined {
            match done {
                Ok(pairs) => {
                    tasks_executed += pairs.len();
                    for (i, outcome) in pairs {
                        slots[i] = Some(outcome);
                    }
                }
                // Workers only run caught code; a worker-level panic
                // would mean the claim loop itself failed.
                Err(payload) => resume_unwind(payload),
            }
        }
        (slots, PoolStats { workers, tasks_executed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// The pool contract, at every thread count: one table of
    /// properties instead of one copy per entry point.
    #[test]
    fn pool_contract_holds_at_every_thread_count() {
        for threads in 1..=8usize {
            let pool = WorkerPool::with_threads(threads);

            // Results come back in task order, whatever the claim order
            // (skewed costs: early tasks spin longest).
            let tasks: Vec<_> = (0..50usize)
                .map(|i| {
                    move || {
                        let mut acc = 0u64;
                        for k in 0..((50 - i) * 200) as u64 {
                            acc = acc.wrapping_add(k);
                        }
                        (i, acc)
                    }
                })
                .collect();
            let got: Vec<usize> = pool.run(tasks).into_iter().map(|(i, _)| i).collect();
            assert_eq!(got, (0..50).collect::<Vec<usize>>(), "threads={threads}");

            // `run` re-raises the earliest failing task's payload.
            let tasks: Vec<_> = (0..8usize)
                .map(|i| {
                    move || {
                        assert!(i != 3 && i != 6, "boom at {i}");
                        i
                    }
                })
                .collect();
            let err = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)))
                .expect_err("pool must re-raise the task panic");
            assert_eq!(panic_message(&*err), "boom at 3", "threads={threads}");

            // `try_run` isolates a panic to its own slot.
            let tasks: Vec<_> = (0..10usize)
                .map(|i| {
                    move || {
                        assert!(i != 4, "scene 4 exploded");
                        i
                    }
                })
                .collect();
            let (results, stats) = pool.try_run(tasks);
            assert_eq!(stats, PoolStats { workers: threads.min(10), tasks_executed: 10 });
            for (i, r) in results.into_iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(v, i, "threads={threads}"),
                    Err(p) => {
                        assert_eq!(i, 4, "threads={threads}");
                        assert_eq!(panic_message(&*p), "scene 4 exploded");
                    }
                }
            }

            // A token that never fires skips nothing.
            let token = CancelToken::new();
            let tasks: Vec<_> = (0..20).map(|i| move || i * 2).collect();
            let (slots, stats) = pool.try_run_cancellable(tasks, &token);
            let got: Vec<i32> = slots
                .into_iter()
                .map(|s| s.expect("no task skipped").expect("no panic"))
                .collect();
            assert_eq!(got, (0..20).map(|i| i * 2).collect::<Vec<i32>>(), "threads={threads}");
            assert_eq!(stats.tasks_executed, 20, "threads={threads}");

            // A token fired up front: nothing starts, every slot is None.
            let token = CancelToken::new();
            token.cancel("batch deadline");
            let ran = AtomicUsize::new(0);
            let tasks: Vec<_> = (0..32)
                .map(|i| {
                    let ran = &ran;
                    move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        i
                    }
                })
                .collect();
            let (slots, stats) = pool.try_run_cancellable(tasks, &token);
            assert_eq!(slots.len(), 32, "threads={threads}");
            assert!(slots.iter().all(Option::is_none), "threads={threads}");
            assert_eq!(ran.load(Ordering::SeqCst), 0, "threads={threads}");
            assert_eq!(stats.tasks_executed, 0, "threads={threads}");

            // A token fired mid-run by task 3: no worker claims after
            // observing it, so the executed slots are a prefix that
            // includes 3, the skipped ones a `None` suffix, and every
            // other worker finishes at most one task past the firing one.
            let token = CancelToken::new();
            let ran = AtomicUsize::new(0);
            let tasks: Vec<_> = (0..64usize)
                .map(|i| {
                    let (ran, fire) = (&ran, token.clone());
                    move || {
                        if i == 3 {
                            fire.cancel("task 3 pulled the plug");
                        }
                        // Later tasks hold their worker until the token
                        // has fired, which pins the interleaving.
                        while !fire.is_cancelled() && i > 3 {
                            thread::yield_now();
                        }
                        ran.fetch_add(1, Ordering::SeqCst);
                        i
                    }
                })
                .collect();
            let (slots, stats) = pool.try_run_cancellable(tasks, &token);
            let executed = slots.iter().take_while(|s| s.is_some()).count();
            assert!(slots[executed..].iter().all(Option::is_none), "threads={threads}");
            assert!((4..4 + threads).contains(&executed), "threads={threads} ran {executed}");
            assert_eq!(ran.load(Ordering::SeqCst), executed, "threads={threads}");
            assert_eq!(stats.tasks_executed, executed, "threads={threads}");
        }
    }

    #[test]
    fn one_thread_or_one_task_runs_inline_on_the_caller() {
        let caller = thread::current().id();
        let on_caller = move || thread::current().id() == caller;
        let token = CancelToken::new();

        let one = WorkerPool::with_threads(1);
        assert_eq!(one.run(vec![on_caller; 3]), vec![true; 3]);
        let (results, stats) = one.try_run(vec![on_caller; 3]);
        assert!(results.into_iter().all(|r| r.expect("no panic")));
        assert_eq!(stats.workers, 1);
        let (slots, _) = one.try_run_cancellable(vec![on_caller; 3], &token);
        assert!(slots.into_iter().all(|s| s.expect("not skipped").expect("no panic")));

        let four = WorkerPool::with_threads(4);
        assert_eq!(four.run(vec![on_caller]), vec![true]);
        let (results, stats) = four.try_run(vec![on_caller]);
        assert!(results.into_iter().all(|r| r.expect("no panic")));
        assert_eq!(stats.workers, 1);
        assert_eq!(four.run(vec![on_caller; 8]), vec![false; 8]);
    }

    /// The one inline-or-parallel decision, as a table: a single
    /// `0..len` range at one thread or under the threshold (empty
    /// input included), an ordered exact cover of at most
    /// `threads * per_worker` non-empty morsels otherwise.
    #[test]
    fn morsels_for_forks_on_threads_and_threshold_only() {
        const T: usize = 64;
        for threads in 1..=8usize {
            let pool = WorkerPool::with_threads(threads);
            for len in [0, 1, T - 1, T, T + 1, 10 * T] {
                for per_worker in [1usize, 4] {
                    let ms = pool.morsels_for(len, T, per_worker);
                    let case = format!("threads={threads} len={len} per_worker={per_worker}");
                    if threads == 1 || len < T {
                        assert_eq!((ms.len(), &ms[0]), (1, &(0..len)), "{case}");
                        continue;
                    }
                    assert_eq!(ms.len(), (threads * per_worker).min(len), "{case}");
                    let mut next = 0;
                    for m in &ms {
                        assert_eq!(m.start, next, "{case}");
                        assert!(!m.is_empty(), "{case}");
                        next = m.end;
                    }
                    assert_eq!(next, len, "{case}");
                }
            }
        }
        // A zero threshold still hands empty input one (empty) range.
        assert_eq!(WorkerPool::with_threads(4).morsels_for(0, 0, 1).as_slice(), &[0..0][..]);
    }

    #[test]
    fn borrows_caller_data() {
        let data: Vec<u64> = (0..10_000).collect();
        let pool = WorkerPool::with_threads(4);
        let tasks: Vec<_> = pool
            .morsels_for(data.len(), 0, 1)
            .into_iter()
            .map(|r| {
                let slice = &data[r.start..r.end];
                move || slice.iter().sum::<u64>()
            })
            .collect();
        let total: u64 = pool.run(tasks).into_iter().sum();
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn env_override_controls_default_threads() {
        std::env::set_var("TELEIOS_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("TELEIOS_THREADS", "not-a-number");
        assert!(default_threads() >= 1);
        std::env::remove_var("TELEIOS_THREADS");
        assert!(default_threads() >= 1);
    }
}
