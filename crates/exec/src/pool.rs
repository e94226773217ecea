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

use crate::morsel::morsels;
use crate::ordered_lock::OrderedMutex;

/// Worker count for [`WorkerPool::default`]: `TELEIOS_THREADS` when
/// set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]. Read once per process, on
/// first use, so a pool per statement costs no environment lookup.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        parse_threads(std::env::var("TELEIOS_THREADS").ok().as_deref())
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
    })
}

/// The worker count a `TELEIOS_THREADS` value asks for, if it names a
/// positive integer.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n| n >= 1)
}

/// The message of a panic payload, such as one [`WorkerPool::try_run`] returns.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
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
        self.try_run(tasks)
            .into_iter()
            .map(|result| result.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }

    /// Run `tasks`, returning per-task results (`Err` carries a panic
    /// payload) in task order. A panicking task never takes its
    /// neighbors down — the supervisor's per-scene isolation contract.
    ///
    /// The one executor behind [`Self::run`]: every task closure is
    /// parked in a mutex slot and workers claim slot indices from a
    /// shared counter, in submission order; each worker hands its
    /// `(index, outcome)` pairs back through `join` and the caller
    /// sorts them back into submission order. With one worker the same
    /// claim loop runs inline on the caller.
    #[expect(
        clippy::disallowed_methods,
        reason = "the pool's scoped workers are the workspace's OS threads"
    )]
    pub fn try_run<T, F>(&self, tasks: Vec<F>) -> Vec<thread::Result<T>>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let workers = self.threads.min(tasks.len()).max(1);
        let parked: Vec<OrderedMutex<Option<F>>> =
            tasks.into_iter().map(|f| OrderedMutex::new("pool.task", Some(f))).collect();
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
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
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
                handles.into_iter().map(thread::ScopedJoinHandle::join).collect()
            })
        };

        let mut done = Vec::with_capacity(parked.len());
        for pairs in joined {
            // Workers only run caught code; a worker-level panic would
            // mean the claim loop itself failed.
            done.extend(pairs.unwrap_or_else(|payload| resume_unwind(payload)));
        }
        // Every index was claimed exactly once, so sorting by it
        // restores submission order.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, outcome)| outcome).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let results = pool.try_run(tasks);
            assert_eq!(results.len(), 10, "threads={threads}");
            for (i, r) in results.into_iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(v, i, "threads={threads}"),
                    Err(p) => {
                        assert_eq!(i, 4, "threads={threads}");
                        assert_eq!(panic_message(&*p), "scene 4 exploded");
                    }
                }
            }
        }
    }

    #[test]
    fn one_thread_or_one_task_runs_inline_on_the_caller() {
        let caller = thread::current().id();
        let on_caller = move || thread::current().id() == caller;

        let one = WorkerPool::with_threads(1);
        assert_eq!(one.run(vec![on_caller; 3]), vec![true; 3]);
        assert!(one.try_run(vec![on_caller; 3]).into_iter().all(|r| r.expect("no panic")));

        let four = WorkerPool::with_threads(4);
        assert_eq!(four.run(vec![on_caller]), vec![true]);
        assert!(four.try_run(vec![on_caller]).into_iter().all(|r| r.expect("no panic")));
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
        let ranges = WorkerPool::with_threads(4).morsels_for(0, 0, 1);
        assert_eq!((ranges.len(), ranges[0].clone()), (1, 0..0));
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
    fn threads_parse_positive_integers_only() {
        assert_eq!(parse_threads(Some("3")), Some(3));
        assert_eq!(parse_threads(Some(" 8\n")), Some(8));
        for bad in [Some("0"), Some("-2"), Some("not-a-number"), Some(""), None] {
            assert_eq!(parse_threads(bad), None, "{bad:?}");
        }
        assert!(default_threads() >= 1);
        assert_eq!(default_threads(), WorkerPool::default().threads);
    }
}
