//! The depth-first schedule explorer.
//!
//! One [`Execution`] is one run of the model under one schedule. Every
//! modeled thread is backed by a real OS thread, but a condvar token
//! (`ExecState::active`) ensures only one of them is ever out of
//! `wait`: the scheduler *is* the single token holder. Each shared
//! memory operation calls [`Execution::yield_point`] first, which
//! records a [`Step`] (who was runnable, who was chosen) and hands the
//! token to the chosen thread. After the execution finishes, [`model`]
//! backtracks: it finds the deepest step whose chosen thread was not
//! the last runnable alternative, truncates the trace there, and
//! replays the prefix with the next alternative — classic DFS over the
//! scheduling tree.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Abort an execution whose trace grows past this many scheduling
/// decisions: the model is livelocked (e.g. a spin loop with a yield
/// point inside) or simply too large to enumerate.
pub const MAX_STEPS: usize = 10_000;

/// Abort the search after this many distinct schedules. A model small
/// enough to be exhaustively checked finishes orders of magnitude
/// earlier; hitting the cap means the model must shrink.
pub const MAX_EXECUTIONS: usize = 500_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    Runnable,
    Blocked,
    Finished,
}

/// One scheduling decision: the set of runnable threads at the choice
/// point and which of them was chosen. Backtracking advances `chosen`
/// through `runnable` left to right.
#[derive(Clone, Debug)]
struct Step {
    runnable: Vec<usize>,
    chosen: usize,
}

#[derive(Default)]
struct LockRec {
    holder: Option<usize>,
    waiters: Vec<usize>,
}

struct ExecState {
    threads: Vec<ThreadState>,
    /// The thread currently holding the run token.
    active: usize,
    /// Scheduling decisions made so far in this execution.
    trace: Vec<Step>,
    /// Prefix of choices to replay (from the previous execution's
    /// backtrack); once exhausted the scheduler picks first-runnable.
    replay: Vec<usize>,
    /// Modeled mutexes by id: who holds them, who waits on them.
    locks: HashMap<usize, LockRec>,
    /// join_waiters[t] = threads blocked joining thread `t`.
    join_waiters: Vec<Vec<usize>>,
    /// First failure observed (model panic, deadlock, livelock).
    failure: Option<String>,
    /// Once set, every scheduler operation becomes a no-op pass-through
    /// so all OS threads can drain and the failure can be reported.
    aborting: bool,
    /// OS handles of spawned modeled threads, joined at execution end.
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// A single controlled run of the model.
pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The controlled execution this OS thread belongs to, if any. `None`
/// means we are outside [`model`] and primitives fall back to `std`.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(exec: &Arc<Execution>, me: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(exec), me)));
}

fn record_failure(st: &mut ExecState, msg: &str) {
    if st.failure.is_none() {
        st.failure = Some(msg.to_string());
    }
    st.aborting = true;
}

impl Execution {
    fn new(replay: Vec<usize>) -> Execution {
        Execution {
            state: Mutex::new(ExecState {
                threads: vec![ThreadState::Runnable],
                active: 0,
                trace: Vec::new(),
                replay,
                locks: HashMap::new(),
                join_waiters: vec![Vec::new()],
                failure: None,
                aborting: false,
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, ExecState> {
        // A poisoned state mutex means a panic inside the scheduler
        // itself (user panics are caught before reaching it); the state
        // is still structurally sound, so continue and let the failure
        // path report.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Pick the next thread to run and store the decision in the
    /// trace. Detects deadlock (live threads, none runnable) and
    /// livelock (trace beyond [`MAX_STEPS`]).
    fn choose_next(&self, st: &mut ExecState) {
        if st.aborting {
            return;
        }
        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ThreadState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if st.threads.iter().any(|s| *s != ThreadState::Finished) {
                let blocked: Vec<usize> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s == ThreadState::Blocked)
                    .map(|(i, _)| i)
                    .collect();
                record_failure(st, &format!("deadlock: threads {blocked:?} are blocked and nothing can wake them"));
            }
            return;
        }
        if st.trace.len() >= MAX_STEPS {
            record_failure(st, &format!("livelock: schedule exceeded {MAX_STEPS} steps"));
            return;
        }
        let idx = st.trace.len();
        let chosen = match st.replay.get(idx) {
            Some(tid) if runnable.contains(tid) => *tid,
            Some(tid) => {
                record_failure(
                    st,
                    &format!("non-deterministic model: replayed choice of thread {tid} at step {idx} but runnable set is {runnable:?}"),
                );
                return;
            }
            None => runnable[0],
        };
        st.active = chosen;
        st.trace.push(Step { runnable, chosen });
    }

    /// Scheduling point: give every other thread a chance to run
    /// before the caller's next shared-memory operation.
    pub(crate) fn yield_point(&self, me: usize) {
        let mut st = self.lock_state();
        if st.aborting {
            return;
        }
        self.choose_next(&mut st);
        self.cv.notify_all();
        while !st.aborting && st.active != me {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Park until the scheduler hands this thread the token for the
    /// first time (used by freshly spawned threads).
    pub(crate) fn wait_until_active(&self, me: usize) {
        let mut st = self.lock_state();
        while !st.aborting && st.active != me {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Acquire modeled mutex `lock_id`, blocking in-model if held.
    /// Returns `false` if the execution aborted instead of granting
    /// the lock — the caller must *not* touch the inner OS mutex then
    /// (its holder may never release it during an abort) but unwind.
    pub(crate) fn acquire_lock(&self, me: usize, lock_id: usize) -> bool {
        self.yield_point(me);
        loop {
            let mut st = self.lock_state();
            if st.aborting {
                return false;
            }
            let rec = st.locks.entry(lock_id).or_default();
            if rec.holder.is_none() {
                rec.holder = Some(me);
                return true;
            }
            rec.waiters.push(me);
            st.threads[me] = ThreadState::Blocked;
            self.choose_next(&mut st);
            self.cv.notify_all();
            while !st.aborting && st.active != me {
                st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            // Woken because the holder released; re-contend.
        }
    }

    /// Release modeled mutex `lock_id` and make its waiters runnable.
    /// Deliberately *not* a yield point — see the crate docs: the
    /// inner `std` guard is still held while this runs (guard `Drop`
    /// order), so rivals must not be activated until the releaser's
    /// next yield point.
    pub(crate) fn release_lock(&self, me: usize, lock_id: usize) {
        let mut st = self.lock_state();
        if st.aborting {
            return;
        }
        let state = &mut *st;
        if let Some(rec) = state.locks.get_mut(&lock_id) {
            if rec.holder == Some(me) {
                rec.holder = None;
                for w in rec.waiters.drain(..) {
                    state.threads[w] = ThreadState::Runnable;
                }
            }
        }
    }

    /// Block until modeled thread `target` finishes.
    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        self.yield_point(me);
        loop {
            let mut st = self.lock_state();
            if st.aborting || st.threads[target] == ThreadState::Finished {
                return;
            }
            st.join_waiters[target].push(me);
            st.threads[me] = ThreadState::Blocked;
            self.choose_next(&mut st);
            self.cv.notify_all();
            while !st.aborting && st.active != me {
                st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
    }

    /// Register a newly spawned modeled thread; returns its id.
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        let tid = st.threads.len();
        st.threads.push(ThreadState::Runnable);
        st.join_waiters.push(Vec::new());
        tid
    }

    pub(crate) fn add_os_handle(&self, handle: std::thread::JoinHandle<()>) {
        self.lock_state().os_handles.push(handle);
    }

    /// Mark `me` finished, wake its joiners, hand the token onward.
    /// `panic_msg` carries a caught model panic into the failure slot.
    pub(crate) fn finish(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.lock_state();
        let state = &mut *st;
        state.threads[me] = ThreadState::Finished;
        let waiters: Vec<usize> = state.join_waiters[me].drain(..).collect();
        for w in waiters {
            state.threads[w] = ThreadState::Runnable;
        }
        if let Some(msg) = panic_msg {
            record_failure(state, &format!("model thread {me} panicked: {msg}"));
        }
        self.choose_next(state);
        self.cv.notify_all();
    }
}

/// Exhaustively explore every schedule of `f`.
///
/// Runs `f` once per schedule. Inside `f`, use [`crate::thread::spawn`]
/// and the [`crate::sync`] primitives; plain assertions state the
/// property being checked. Panics (with the failing schedule) if any
/// execution panics, deadlocks, or livelocks, or if the search exceeds
/// [`MAX_EXECUTIONS`].
#[expect(
    clippy::disallowed_types,
    reason = "the model checker runs each modeled thread on a real OS thread it controls"
)]
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut replay: Vec<usize> = Vec::new();
    let mut executions = 0usize;
    loop {
        executions += 1;
        if executions > MAX_EXECUTIONS {
            crate::fail(&format!("state space too large: more than {MAX_EXECUTIONS} schedules"));
        }
        let exec = Arc::new(Execution::new(std::mem::take(&mut replay)));
        let exec_main = Arc::clone(&exec);
        let f_main = Arc::clone(&f);
        let main_handle = std::thread::Builder::new()
            .name("teleios-loom-0".to_string())
            .spawn(move || {
                set_ctx(&exec_main, 0);
                exec_main.wait_until_active(0);
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f_main()));
                // `p.as_ref()`, not `&p`: `&Box<dyn Any>` unsize-coerces
                // to the Box-as-Any, hiding the actual payload.
                let msg = out.err().map(|p| crate::thread::payload_to_string(p.as_ref()));
                exec_main.finish(0, msg);
            });
        let main_handle = match main_handle {
            Ok(h) => h,
            Err(e) => crate::fail(&format!("could not spawn model thread: {e}")),
        };

        // Wait for every modeled thread to finish (or the execution to
        // abort), then join the OS threads.
        let (failure, trace, handles) = {
            let mut st = exec.lock_state();
            while !st.aborting && st.threads.iter().any(|s| *s != ThreadState::Finished) {
                st = exec.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            // On abort, release every parked thread so the OS threads
            // can drain before we join them.
            exec.cv.notify_all();
            let handles: Vec<std::thread::JoinHandle<()>> = st.os_handles.drain(..).collect();
            let failure = st.failure.clone();
            let trace = std::mem::take(&mut st.trace);
            drop(st);
            (failure, trace, handles)
        };
        // Model closures run under catch_unwind, so an OS thread that
        // still panicked did so in the scheduler itself: join them all,
        // then report the first such panic unless the model failed first.
        let escaped: Vec<String> = handles
            .into_iter()
            .chain([main_handle])
            .filter_map(|h| h.join().err())
            .map(|p| crate::thread::payload_to_string(p.as_ref()))
            .map(|msg| format!("scheduler thread panicked: {msg}"))
            .collect();
        let failure = failure.or(escaped.into_iter().next());

        if let Some(msg) = failure {
            let choices: Vec<usize> = trace.iter().map(|s| s.chosen).collect();
            crate::fail(&format!("{msg}\n  after {executions} execution(s); failing schedule (thread ids in choice order): {choices:?}"));
        }

        // Backtrack: find the deepest step with an untried alternative.
        let mut next: Option<Vec<usize>> = None;
        for depth in (0..trace.len()).rev() {
            let step = &trace[depth];
            let pos = step.runnable.iter().position(|t| *t == step.chosen);
            if let Some(pos) = pos {
                if pos + 1 < step.runnable.len() {
                    let mut prefix: Vec<usize> = trace[..depth].iter().map(|s| s.chosen).collect();
                    prefix.push(step.runnable[pos + 1]);
                    next = Some(prefix);
                    break;
                }
            }
        }
        match next {
            Some(prefix) => replay = prefix,
            None => return, // choice tree exhausted: every schedule explored
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use crate::sync::{Arc, Mutex};
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    /// Unsynchronized read-modify-write must expose a lost update in
    /// *some* schedule — proves the explorer actually interleaves.
    #[test]
    fn explorer_finds_lost_update() {
        let finals: Arc<StdMutex<HashSet<usize>>> = Arc::new(StdMutex::new(HashSet::new()));
        let finals2 = Arc::clone(&finals);
        crate::model(move || {
            let counter = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    crate::thread::spawn(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            finals2.lock().unwrap().insert(counter.load(Ordering::SeqCst));
        });
        let finals = finals.lock().unwrap();
        assert!(finals.contains(&1), "lost-update interleaving never explored: {finals:?}");
        assert!(finals.contains(&2), "sequential interleaving never explored: {finals:?}");
    }

    /// The same increments behind a modeled mutex never lose updates.
    #[test]
    fn mutex_serializes_increments() {
        crate::model(|| {
            let counter = Arc::new(Mutex::new(0u32));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    crate::thread::spawn(move || {
                        let mut g = c.lock().unwrap();
                        *g += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*counter.lock().unwrap(), 2);
        });
    }

    /// `swap` is a single atomic step: exactly one of two racing
    /// swappers observes `false`, and both orders are explored.
    #[test]
    fn swap_has_exactly_one_winner() {
        let winners: std::sync::Arc<StdMutex<HashSet<usize>>> =
            std::sync::Arc::new(StdMutex::new(HashSet::new()));
        let winners2 = std::sync::Arc::clone(&winners);
        crate::model(move || {
            let flag = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let f = Arc::clone(&flag);
                    crate::thread::spawn(move || (i, !f.swap(true, Ordering::SeqCst)))
                })
                .collect();
            let results: Vec<(usize, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let won: Vec<usize> = results.iter().filter(|(_, w)| *w).map(|(i, _)| *i).collect();
            assert_eq!(won.len(), 1, "exactly one swap must win: {results:?}");
            winners2.lock().unwrap().insert(won[0]);
        });
        let winners = winners.lock().unwrap();
        assert_eq!(winners.len(), 2, "both win orders must be explored: {winners:?}");
    }

    /// ABBA lock ordering deadlocks in some schedule; the checker must
    /// find it and report it rather than hang.
    #[test]
    fn abba_deadlock_is_detected() {
        let result = std::panic::catch_unwind(|| {
            crate::model(|| {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let t = crate::thread::spawn(move || {
                    let _ga = a2.lock().unwrap();
                    let _gb = b2.lock().unwrap();
                });
                {
                    let _gb = b.lock().unwrap();
                    let _ga = a.lock().unwrap();
                }
                let _ = t.join();
            });
        });
        let err = result.expect_err("ABBA model must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".to_string());
        assert!(msg.contains("deadlock"), "expected a deadlock report, got: {msg}");
    }

    /// A model panic aborts the search and surfaces the message plus a
    /// failing schedule.
    #[test]
    fn model_panic_is_reported_with_schedule() {
        let result = std::panic::catch_unwind(|| {
            crate::model(|| {
                let flag = Arc::new(AtomicBool::new(false));
                let f2 = Arc::clone(&flag);
                let t = crate::thread::spawn(move || f2.store(true, Ordering::SeqCst));
                // Fails only in schedules where the child ran first.
                assert!(!flag.load(Ordering::SeqCst), "child ran before parent");
                t.join().unwrap();
            });
        });
        let err = result.expect_err("racy assertion must fail in some schedule");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".to_string());
        assert!(msg.contains("child ran before parent"), "panic message lost: {msg}");
        assert!(msg.contains("failing schedule"), "schedule missing: {msg}");
    }

    /// Outside `model`, the primitives behave like `std`.
    #[test]
    fn fallback_outside_model_works() {
        let flag = AtomicBool::new(false);
        assert!(!flag.swap(true, Ordering::SeqCst));
        assert!(flag.load(Ordering::SeqCst));
        let m = Mutex::new(7);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 8);
        let h = crate::thread::spawn(|| 41 + 1);
        assert_eq!(h.join().unwrap(), 42);
    }
}
