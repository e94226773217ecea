//! Seeded std-thread stress tests of the exec race surface: the
//! first-wins cancel, flag-before-reason publication, the pool's claim
//! loop under a racing cancel, and the lock witness under contention.
//!
//! Every round releases its threads from one spin barrier and then
//! staggers each by a seeded number of spins, so the rounds sweep the
//! interleavings around each protocol's critical step instead of
//! relying on whatever the OS scheduler happens to do. A round that
//! fails names its seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use teleios_exec::{CancelToken, LockWitness, OrderedMutex, WorkerPool};

const ROUNDS: u64 = 2_000;

/// The seeded stagger, in spins, of thread `who` in `round` (the
/// SplitMix64 finalizer of the pair, below `span`).
fn stagger(round: u64, who: u64, span: u64) -> u64 {
    let mut z = round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (who + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % span
}

fn spin(n: u64) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

/// Run `bodies` on one thread each: all check in at a spin barrier,
/// then each spins its seeded stagger and runs. Results come back in
/// body order.
fn race<'a, T: Send>(round: u64, span: u64, bodies: Vec<Box<dyn FnOnce() -> T + Send + 'a>>) -> Vec<T> {
    let arrived = AtomicUsize::new(0);
    let n = bodies.len();
    thread::scope(|s| {
        let handles: Vec<_> = bodies
            .into_iter()
            .enumerate()
            .map(|(who, body)| {
                let arrived = &arrived;
                s.spawn(move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    // Spin, but yield once a partner is clearly not
                    // running (more racing threads than cores).
                    let mut waited = 0u32;
                    while arrived.load(Ordering::SeqCst) < n {
                        waited += 1;
                        if waited.is_multiple_of(1_024) {
                            thread::yield_now();
                        }
                        std::hint::spin_loop();
                    }
                    spin(stagger(round, who as u64, span));
                    body()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("race body panicked")).collect()
    })
}

#[test]
fn racing_cancels_have_exactly_one_winner() {
    for round in 0..ROUNDS {
        let token = CancelToken::new();
        let (a, b) = (token.clone(), token.clone());
        let won = race(round, 16, vec![Box::new(move || a.cancel("a")), Box::new(move || b.cancel("b"))]);
        assert!(won[0] ^ won[1], "round {round}: exactly one cancel must win, got {won:?}");
        let winner = if won[0] { "a" } else { "b" };
        assert_eq!(token.reason().as_deref(), Some(winner), "round {round}: the winner's reason");
    }
}

/// Readers sample (reason, flag) until they see the flag: a reason
/// without the flag means `cancel` published in the wrong order. Two
/// readers keep the reason lock contended, so the canceller's unlock
/// pays a wake-up before its next step and a wrong order stays open
/// long enough to be seen.
#[test]
fn reason_is_never_visible_before_the_flag() {
    let reader = |token: CancelToken| -> Box<dyn FnOnce() -> bool + Send> {
        Box::new(move || loop {
            let reason = token.reason();
            let flag = token.is_cancelled();
            if reason.is_some() || flag {
                return flag;
            }
        })
    };
    for round in 0..ROUNDS {
        let token = CancelToken::new();
        let canceller = token.clone();
        let cancel: Box<dyn FnOnce() -> bool + Send> = Box::new(move || canceller.cancel("stop"));
        let seen = race(round, 16, vec![cancel, reader(token.clone()), reader(token.clone())]);
        assert!(seen.iter().all(|&s| s), "round {round}: reason visible before the flag");
        assert_eq!(token.reason().as_deref(), Some("stop"), "round {round}");
    }
}

/// A cancel racing the pool's claim loop: whatever the interleaving,
/// the tasks that ran are a prefix of submission order and a skipped
/// task implies the token fired.
#[test]
fn a_racing_cancel_skips_a_suffix_of_the_tasks() {
    const TASKS: usize = 32;
    let pool = WorkerPool::with_threads(2);
    let mut cut = 0;
    for round in 0..ROUNDS {
        let token = CancelToken::new();
        let (canceller, run_token) = (token.clone(), token.clone());
        let slots = race(
            round,
            4_096,
            vec![
                Box::new(move || {
                    canceller.cancel("deadline");
                    Vec::new()
                }),
                Box::new(move || {
                    let tasks: Vec<_> = (0..TASKS).map(|i| move || spin(64 + i as u64)).collect();
                    let (slots, _) = pool.try_run_cancellable(tasks, &run_token);
                    slots.iter().map(Option::is_some).collect::<Vec<bool>>()
                }),
            ],
        );
        let ran = &slots[1];
        let prefix = ran.iter().take_while(|&&r| r).count();
        assert!(ran[prefix..].iter().all(|&r| !r), "round {round}: skipped tasks are not a suffix: {ran:?}");
        if prefix > 0 && prefix < TASKS {
            cut += 1;
        }
    }
    // The sweep must actually land cancels mid-run, or it proved nothing.
    assert!(cut > 0, "no round cancelled mid-run");
}

/// Two threads take the same two witnessed locks in the same order,
/// over and over: the witness must record exactly that one edge and
/// end with nothing held.
#[test]
fn the_lock_witness_is_race_free_under_contention() {
    let witness = LockWitness::new();
    let first = OrderedMutex::with_witness("first", 0u64, &witness);
    let second = OrderedMutex::with_witness("second", 0u64, &witness);
    for round in 0..ROUNDS / 4 {
        let both = || {
            let mut a = first.lock();
            let mut b = second.lock();
            *a += 1;
            *b += 1;
        };
        race(round, 64, vec![Box::new(both), Box::new(both)]);
    }
    assert_eq!(witness.edges(), vec![("first".to_string(), "second".to_string())]);
    assert!(witness.nothing_held(), "a guard leaked its witness record");
    assert_eq!((*first.lock(), *second.lock()), (ROUNDS / 2, ROUNDS / 2));
}
