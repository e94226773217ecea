//! Exhaustive model-checking of the exec/cancel race surface.
//!
//! Compiled only with the `loom` feature, which swaps the
//! [`CancelToken`]'s atomics and mutex for `teleios-loom` modeled
//! primitives — so these models exercise the *shipped* token code,
//! not a re-implementation. `teleios_loom::model` then runs each
//! closure once per schedule until the whole interleaving tree of the
//! modeled operations is explored.
//!
//! Covered races (the surface the E14 deadline watchdog depends on):
//!
//! 1. **First-wins cancel** — two racing `cancel` calls: exactly one
//!    wins in every schedule and the recorded reason is the winner's.
//! 2. **Cancel vs. read vs. reason-write** — a reader can observe the
//!    documented flag-before-reason window, but never a reason
//!    without the flag, and never a torn/foreign reason.
//! 3. **`sleep_cancellable` wakeup** — via its time-free core
//!    `poll_cancellable`: a poll loop racing a canceller either
//!    observes the cancel or completes, and always observes it once
//!    `cancel` has returned.
//! 4. **Pool claim counter** — the claim loop of the pool's executor
//!    (check the token, then `fetch_add` the shared counter), two
//!    workers racing a canceller: every index is claimed at most once,
//!    exactly once when the token never fires, and the unclaimed
//!    (skipped) indices always form a suffix of claim order.
//! 5. **Watchdog registry register/timeout/complete** — the deadline
//!    watchdog's in-flight registry protocol (worker registers, works,
//!    deregisters; watchdog snapshots and cancels the snapshot),
//!    modeled over a loom mutex list: a worker that deregistered
//!    before the snapshot is never cancelled, a cancelled worker was
//!    in the snapshot, and the registry always drains.
//! 6. **Lock witness under contention** — two threads acquiring two
//!    [`OrderedMutex`]es (modeled) in the same order while the
//!    witness's plain-`std` bookkeeping records both: every schedule
//!    yields the same single edge, no cycle, and no leaked hold — the
//!    witness itself is race-free.
#![cfg(feature = "loom")]

use teleios_exec::{CancelToken, LockWitness, OrderedMutex};
use teleios_loom::sync::atomic::{AtomicUsize, Ordering};
use teleios_loom::sync::{Arc, Mutex};
use teleios_loom::thread;

#[test]
fn first_wins_cancel_race() {
    teleios_loom::model(|| {
        let token = CancelToken::new();
        let (a, b) = (token.clone(), token.clone());
        let ta = thread::spawn(move || a.cancel("A"));
        let tb = thread::spawn(move || b.cancel("B"));
        let won_a = ta.join().unwrap();
        let won_b = tb.join().unwrap();
        assert!(won_a ^ won_b, "exactly one cancel must win");
        assert!(token.is_cancelled());
        let expected = if won_a { "A" } else { "B" };
        assert_eq!(
            token.reason().as_deref(),
            Some(expected),
            "the recorded reason must be the winning call's"
        );
    });
}

#[test]
fn reason_never_visible_before_flag() {
    teleios_loom::model(|| {
        let token = CancelToken::new();
        let canceller = token.clone();
        let reader = token.clone();
        let tc = thread::spawn(move || {
            canceller.cancel("stop");
        });
        let tr = thread::spawn(move || {
            // Read the reason FIRST, the flag second. Because cancel()
            // publishes flag-then-reason, a visible reason implies the
            // flag read afterwards must be true — in every schedule.
            let reason = reader.reason();
            let flag_after = reader.is_cancelled();
            if let Some(r) = &reason {
                assert_eq!(r, "stop", "no torn or foreign reason");
                assert!(flag_after, "reason visible but flag not: publication order broken");
            }
        });
        tr.join().unwrap();
        tc.join().unwrap();
        // Once cancel() has returned, both sides are published.
        assert!(token.is_cancelled());
        assert_eq!(token.reason().as_deref(), Some("stop"));
    });
}

#[test]
fn poll_wakeup_vs_cancel() {
    teleios_loom::model(|| {
        let token = CancelToken::new();
        let canceller = token.clone();
        let tc = thread::spawn(move || {
            canceller.cancel("deadline");
        });
        // The time-free core of sleep_cancellable: up to 2 polls with
        // a scheduler yield between them. In some schedules the poll
        // sees the cancel (true), in others it completes first
        // (false) — both are legal; what must NEVER happen is a poll
        // returning true on an uncancelled token.
        let woke = token.poll_cancellable(2);
        if woke {
            assert!(token.is_cancelled());
        }
        tc.join().unwrap();
        // After cancel() has returned, a poll must always observe it:
        // the sleep loop cannot oversleep a published cancellation.
        assert!(token.poll_cancellable(1), "published cancel missed by poll");
        assert_eq!(token.reason().as_deref(), Some("deadline"));
    });
}

/// The claim loop of `WorkerPool`'s executor over `tasks` slots: check
/// the token, then claim the next index. Returns the indices claimed.
fn claim_loop(next: &AtomicUsize, token: &CancelToken, tasks: usize) -> Vec<usize> {
    let mut claimed = Vec::new();
    while !token.is_cancelled() {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if i >= tasks {
            break;
        }
        claimed.push(i);
    }
    claimed
}

#[test]
fn claim_counter_claims_once_and_skips_a_suffix() {
    const TASKS: usize = 2;
    for cancel in [false, true] {
        teleios_loom::model(move || {
            let token = CancelToken::new();
            let next = Arc::new(AtomicUsize::new(0));
            let (rival_next, rival_token) = (Arc::clone(&next), token.clone());
            let rival = thread::spawn(move || claim_loop(&rival_next, &rival_token, TASKS));
            let canceller = token.clone();
            let tc = thread::spawn(move || cancel && canceller.cancel("batch deadline"));
            let mut claimed = claim_loop(&next, &token, TASKS);
            claimed.extend(rival.join().unwrap());
            tc.join().unwrap();
            claimed.sort_unstable();
            // Claimed exactly once each, and a clean prefix — so what a
            // fired token skipped is a suffix of claim order.
            assert_eq!(claimed, (0..claimed.len()).collect::<Vec<usize>>());
            if claimed.len() < TASKS {
                assert!(token.is_cancelled(), "a task was skipped without a cancel");
            }
        });
    }
}

#[test]
fn registry_register_timeout_complete_interleavings() {
    // The watchdog-registry protocol from the resilience supervisor,
    // over the same primitives: the worker registers its (id, token)
    // pair, runs, then deregisters; the watchdog takes one snapshot
    // and cancels everything in it (a deadline firing). Whatever the
    // interleaving:
    //   * a cancel only ever lands on an attempt the snapshot held;
    //   * a worker that completed (deregistered) before the snapshot
    //     is never cancelled afterwards;
    //   * the registry drains to empty once the worker is done.
    teleios_loom::model(|| {
        let registry: Arc<Mutex<Vec<(usize, CancelToken)>>> = Arc::new(Mutex::new(Vec::new()));
        let token = CancelToken::new();

        let worker_registry = Arc::clone(&registry);
        let worker_token = token.clone();
        let worker = thread::spawn(move || {
            worker_registry.lock().unwrap().push((7, worker_token.clone()));
            // The "work": one poll — a safe point where a fired
            // deadline is observed.
            let saw_cancel = worker_token.is_cancelled();
            worker_registry.lock().unwrap().retain(|(id, _)| *id != 7);
            saw_cancel
        });

        let watchdog_registry = Arc::clone(&registry);
        let watchdog = thread::spawn(move || {
            let snapshot: Vec<(usize, CancelToken)> =
                watchdog_registry.lock().unwrap().clone();
            for (id, t) in &snapshot {
                t.cancel(format!("attempt {id}: deadline overshot"));
            }
            snapshot.len()
        });

        let saw_cancel = worker.join().unwrap();
        let snapshot_len = watchdog.join().unwrap();

        if token.is_cancelled() {
            // A cancel implies the snapshot caught the attempt
            // registered — never a deregistered or foreign entry.
            assert_eq!(snapshot_len, 1, "cancel landed without a snapshot entry");
            let reason = token.reason().unwrap_or_default();
            assert!(reason.contains("attempt 7"), "foreign cancel reason: {reason}");
        } else {
            // No cancel: the snapshot must have missed the attempt
            // (taken before register or after deregister).
            assert_eq!(snapshot_len, 0, "snapshot held the attempt but never cancelled");
            assert!(!saw_cancel);
        }
        assert!(
            registry.lock().unwrap().is_empty(),
            "registry must drain once the worker deregisters"
        );
    });
}

#[test]
fn lock_witness_is_race_free_under_contention() {
    // Two threads take the same two witnessed (and loom-modeled) locks
    // in the same global order. Across every schedule the witness —
    // whose bookkeeping is plain std, deliberately un-modeled — must
    // agree: exactly the one edge, no cycle, nothing left held.
    teleios_loom::model(|| {
        let witness = LockWitness::new();
        let a = Arc::new(OrderedMutex::with_witness("first", 0u32, &witness));
        let b = Arc::new(OrderedMutex::with_witness("second", 0u32, &witness));

        let handles: Vec<_> = (0..2)
            .map(|_| {
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                thread::spawn(move || {
                    let mut ga = a.lock();
                    let mut gb = b.lock();
                    *ga += 1;
                    *gb += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(
            witness.edges(),
            vec![("first".to_string(), "second".to_string())]
        );
        assert!(witness.cycles().is_empty());
        assert!(witness.nothing_held(), "a guard leaked its witness record");
        witness.assert_acyclic();
        assert_eq!(*a.lock(), 2);
        assert_eq!(*b.lock(), 2);
    });
}

#[test]
fn lock_witness_sees_an_inversion_the_schedule_survived() {
    // An ABBA inversion that happens NOT to deadlock (the two orders
    // run sequentially on one thread) must still be witnessed: the
    // graph is built from acquisition order, not from luck.
    teleios_loom::model(|| {
        let witness = LockWitness::new();
        let a = OrderedMutex::with_witness("alpha", (), &witness);
        let b = OrderedMutex::with_witness("beta", (), &witness);
        {
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
        }
        {
            let gb = b.lock();
            let ga = a.lock();
            drop(ga);
            drop(gb);
        }
        let cycles = witness.cycles();
        assert_eq!(cycles.len(), 1, "inversion not witnessed: {cycles:?}");
        assert!(witness.nothing_held());
    });
}
