//! Seeded std-thread stress tests of the exec race surface: the
//! first-wins cancel (explicit or fired by an expired deadline),
//! flag-before-reason publication, and the lock witness under
//! contention.
//!
//! Every round releases its threads from one spin barrier and then
//! staggers each by a seeded number of spins, so the rounds sweep the
//! interleavings around each protocol's critical step instead of
//! relying on whatever the OS scheduler happens to do. A round that
//! fails names its seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;
use teleios_exec::{CancelToken, LockWitness, OrderedMutex};

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

/// Two parties race to cancel one token, in two settings: two explicit
/// cancels, and an explicit cancel against a deadline that has already
/// passed, which the other party's poll fires. Either way exactly one
/// wins and its reason is the one recorded.
#[test]
fn racing_cancels_have_exactly_one_winner() {
    let mut deadline_wins = 0;
    for round in 0..ROUNDS {
        let token = CancelToken::new();
        let (a, b) = (token.clone(), token.clone());
        let won = race(round, 16, vec![Box::new(move || a.cancel("a")), Box::new(move || b.cancel("b"))]);
        assert!(won[0] ^ won[1], "round {round}: exactly one cancel must win, got {won:?}");
        let winner = if won[0] { "a" } else { "b" };
        assert_eq!(token.reason().as_deref(), Some(winner), "round {round}: the winner's reason");

        let token = CancelToken::with_deadline(Instant::now(), "deadline");
        let (a, b) = (token.clone(), token.clone());
        let cancel_and_poll: Vec<Box<dyn FnOnce() -> bool + Send>> =
            vec![Box::new(move || a.cancel("a")), Box::new(move || b.is_cancelled())];
        let seen = race(round, 16, cancel_and_poll);
        assert!(seen[1], "round {round}: a poll past the deadline must read cancelled");
        // The cancel lost exactly when the deadline won.
        let winner = if seen[0] { "a" } else { "deadline" };
        assert_eq!(token.reason().as_deref(), Some(winner), "round {round}: the winner's reason");
        deadline_wins += u64::from(!seen[0]);
    }
    // The sweep must land both orders, or the deadline case proved nothing.
    assert!((1..ROUNDS).contains(&deadline_wins), "deadline won {deadline_wins} of {ROUNDS} rounds");
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
