//! Crash-recovery property suite for the durable backend.
//!
//! The contract under test, everywhere: after any injected failure —
//! a WAL truncated at an arbitrary byte, a torn sync that persisted
//! a prefix, a short fsync that persisted nothing, a crash before an
//! append, a crash inside the snapshot protocol — reopening the
//! store yields **exactly** the state of the last acknowledged
//! commit. No panic, no lost committed write, no resurrected
//! uncommitted write. The one sanctioned exception: a torn sync that
//! happened to persist the *entire* commit frame recovers to the
//! in-flight commit (its commit record is durable — the classic
//! unacknowledged-but-committed window every WAL engine has).

use teleios_check::SplitMix64;
use teleios_store::backend::full_state;
use teleios_store::wal::WAL_FILE;
use teleios_store::{
    DurableBackend, DurableConfig, KeyspaceState, MemMedium, MemoryBackend, StorageBackend,
    StoreError, WriteFault,
};

const KEYSPACES: [&str; 3] = ["vault/catalog", "rdf/spo", "monet/col"];

/// One scripted transaction: a few puts and deletes over the shared
/// keyspaces. Returns true if the txn carries at least one op.
fn scripted_txn(rng: &mut SplitMix64, backend: &mut dyn StorageBackend) -> bool {
    backend.begin().unwrap();
    let n_ops = 1 + rng.below(4);
    let mut any = false;
    for _ in 0..n_ops {
        let ks = KEYSPACES[rng.below(3)];
        let key = format!("k{:03}", rng.below(24));
        if rng.below(5) == 0 {
            backend.delete(ks, key.as_bytes()).unwrap();
        } else {
            let len = 1 + rng.below(48);
            let fill = rng.below(256) as u8;
            backend.put(ks, key.as_bytes(), &vec![fill; len]).unwrap();
        }
        any = true;
    }
    any
}

fn open_no_autosnap(medium: MemMedium) -> DurableBackend<MemMedium> {
    DurableBackend::open(medium, DurableConfig { snapshot_every: None, keep_snapshots: 2 })
        .unwrap()
}

/// Run `n_txns` scripted transactions, recording after each
/// acknowledged commit the durable WAL length and the full state.
/// Returns (final medium, checkpoints) where checkpoints[0] is the
/// empty pre-commit state at WAL length 0.
fn run_script(seed: u64, n_txns: usize) -> (MemMedium, Vec<(usize, KeyspaceState)>) {
    let mut rng = SplitMix64::new(seed);
    let mut b = open_no_autosnap(MemMedium::new());
    let mut checkpoints = vec![(0usize, KeyspaceState::new())];
    for _ in 0..n_txns {
        scripted_txn(&mut rng, &mut b);
        b.commit().unwrap();
        let wal_len = b.medium().durable_len(WAL_FILE);
        checkpoints.push((wal_len, full_state(&b).unwrap()));
    }
    (b.into_medium(), checkpoints)
}

/// The state of the last acknowledged commit whose durable WAL
/// prefix fits inside `len` bytes.
fn expected_at(checkpoints: &[(usize, KeyspaceState)], len: usize) -> &KeyspaceState {
    checkpoints
        .iter()
        .rev()
        .find(|(wal_len, _)| *wal_len <= len)
        .map(|(_, state)| state)
        .unwrap()
}

fn truncation_sweep(seed: u64, n_txns: usize) {
    let (medium, checkpoints) = run_script(seed, n_txns);
    let wal = medium.durable_bytes(WAL_FILE).unwrap();
    for cut in 0..=wal.len() {
        let mut m = MemMedium::new();
        m.set_file(WAL_FILE, &wal[..cut]);
        let b = open_no_autosnap(m);
        let recovered = full_state(&b).unwrap();
        let expected = expected_at(&checkpoints, cut);
        assert_eq!(
            &recovered, expected,
            "seed {seed}: truncation at byte {cut} of {} must recover the last \
             commit fitting in the prefix",
            wal.len()
        );
        // commit boundaries scan clean; any torn tail is physically gone
        let is_commit_boundary = checkpoints.iter().any(|(l, _)| *l == cut);
        if is_commit_boundary {
            assert!(b.recovery().wal_truncated.is_none(), "clean cut at {cut}");
        }
        assert!(b.medium().durable_len(WAL_FILE) <= cut);
    }
}

#[test]
fn truncation_at_every_byte_recovers_exact_committed_state() {
    truncation_sweep(0x7e1e_0507, 40);
}

#[test]
#[ignore = "exhaustive sweep over a larger log; run via scripts/check.sh --full"]
fn truncation_sweep_large() {
    for seed in [1u64, 42, 0xdead_beef, 0x7e1e_1057] {
        truncation_sweep(seed, 120);
    }
}

#[test]
fn reopening_twice_is_idempotent() {
    let (medium, checkpoints) = run_script(11, 30);
    let final_state = &checkpoints.last().unwrap().1;
    let b1 = open_no_autosnap(medium);
    assert_eq!(&full_state(&b1).unwrap(), final_state);
    let seq1 = b1.last_seq();
    let b2 = open_no_autosnap(b1.into_medium());
    assert_eq!(&full_state(&b2).unwrap(), final_state);
    assert_eq!(b2.last_seq(), seq1);
    let b3 = open_no_autosnap(b2.into_medium());
    assert_eq!(&full_state(&b3).unwrap(), final_state);
}

#[test]
fn wal_concatenated_with_itself_replays_identically() {
    // replaying the same log twice must be a no-op the second time:
    // sequence numbers ≤ the applied high-water mark are skipped
    let (medium, checkpoints) = run_script(23, 25);
    let wal = medium.durable_bytes(WAL_FILE).unwrap();
    let mut doubled = wal.clone();
    doubled.extend_from_slice(&wal);
    let mut m = MemMedium::new();
    m.set_file(WAL_FILE, &doubled);
    let b = open_no_autosnap(m);
    assert_eq!(&full_state(&b).unwrap(), &checkpoints.last().unwrap().1);
    assert_eq!(b.last_seq(), 25);
    assert!(b.recovery().wal_truncated.is_none(), "doubled log scans clean");
    assert_eq!(b.recovery().transactions_replayed, 25, "second copy replays as no-ops");
}

#[test]
fn crash_fault_before_every_commit_recovers_previous_state() {
    let n = 20usize;
    for crash_at in 1..=n {
        let mut rng = SplitMix64::new(77);
        let mut b = open_no_autosnap(MemMedium::new());
        let mut states = vec![KeyspaceState::new()];
        for k in 1..=n {
            scripted_txn(&mut rng, &mut b);
            if k == crash_at {
                b.medium_mut().arm(WriteFault::Crash);
                assert_eq!(b.commit(), Err(StoreError::Crashed));
                assert!(b.is_poisoned());
                break;
            }
            b.commit().unwrap();
            states.push(full_state(&b).unwrap());
        }
        let mut m = b.into_medium();
        m.crash();
        let recovered = open_no_autosnap(m);
        assert_eq!(
            &full_state(&recovered).unwrap(),
            states.last().unwrap(),
            "crash before commit {crash_at}: recovery must yield commit {}",
            crash_at - 1
        );
        assert_eq!(recovered.last_seq(), (crash_at - 1) as u64);
    }
}

#[test]
fn torn_sync_at_every_byte_of_the_commit_frame() {
    // run 5 committed txns, then tear the 6th commit's sync at every
    // possible surviving byte count
    let setup = |keep: Option<usize>| -> (MemMedium, KeyspaceState, KeyspaceState, usize) {
        let mut rng = SplitMix64::new(99);
        let mut b = open_no_autosnap(MemMedium::new());
        for _ in 0..5 {
            scripted_txn(&mut rng, &mut b);
            b.commit().unwrap();
        }
        let committed = full_state(&b).unwrap();
        let wal_before = b.medium().durable_len(WAL_FILE);
        scripted_txn(&mut rng, &mut b);
        if let Some(keep) = keep {
            b.medium_mut().arm(WriteFault::Torn { keep });
            assert_eq!(b.commit(), Err(StoreError::Crashed));
            let mut m = b.into_medium();
            m.crash();
            (m, committed, KeyspaceState::new(), wal_before)
        } else {
            b.commit().unwrap();
            let full = full_state(&b).unwrap();
            (b.into_medium(), committed, full, wal_before)
        }
    };

    // measure the in-flight frame length from a fault-free run
    let (clean_medium, _, state_after_6, wal_before) = setup(None);
    let frame_len = clean_medium.durable_len(WAL_FILE) - wal_before;
    assert!(frame_len > 0);

    for keep in 0..=frame_len {
        let (m, state_5, _, _) = setup(Some(keep));
        let b = open_no_autosnap(m);
        let recovered = full_state(&b).unwrap();
        if keep < frame_len {
            // any strictly partial frame must be discarded
            assert_eq!(
                recovered, state_5,
                "torn sync keeping {keep}/{frame_len} bytes must not resurrect \
                 the in-flight commit"
            );
            assert_eq!(b.last_seq(), 5);
        } else {
            // the whole frame survived: the commit record is durable,
            // so recovery legitimately lands on the in-flight commit
            assert_eq!(recovered, state_after_6);
            assert_eq!(b.last_seq(), 6);
        }
    }
}

#[test]
fn short_fsync_poisons_and_never_resurrects() {
    for fail_at in 1..=12usize {
        let mut rng = SplitMix64::new(123);
        let mut b = open_no_autosnap(MemMedium::new());
        let mut last_acked = KeyspaceState::new();
        for k in 1..=fail_at {
            scripted_txn(&mut rng, &mut b);
            if k == fail_at {
                b.medium_mut().arm(WriteFault::ShortFsync);
                match b.commit() {
                    Err(StoreError::Io(_)) => {}
                    other => panic!("expected Io error, got {other:?}"),
                }
                assert!(b.is_poisoned());
                assert_eq!(b.begin(), Err(StoreError::Poisoned));
            } else {
                b.commit().unwrap();
                last_acked = full_state(&b).unwrap();
            }
        }
        // the unacknowledged commit must not be readable now...
        assert_eq!(full_state(&b).unwrap(), last_acked);
        // ...and must not come back after a power cycle: a short
        // fsync persisted nothing, so the frame dies with the cache
        let mut m = b.into_medium();
        m.crash();
        let recovered = open_no_autosnap(m);
        assert_eq!(
            full_state(&recovered).unwrap(),
            last_acked,
            "short fsync at commit {fail_at} must recover commit {}",
            fail_at - 1
        );
    }
}

#[test]
fn crash_during_snapshot_publish_is_atomic() {
    let mut rng = SplitMix64::new(5);
    let mut b = open_no_autosnap(MemMedium::new());
    for _ in 0..8 {
        scripted_txn(&mut rng, &mut b);
        b.commit().unwrap();
    }
    let committed = full_state(&b).unwrap();
    b.medium_mut().arm(WriteFault::Crash);
    assert_eq!(b.snapshot(), Err(StoreError::Crashed));
    let mut m = b.into_medium();
    m.crash();
    let recovered = open_no_autosnap(m);
    assert_eq!(full_state(&recovered).unwrap(), committed);
    assert_eq!(recovered.recovery().snapshot_seq, 0, "no snapshot was published");
    assert_eq!(recovered.last_seq(), 8);
}

#[test]
fn crash_between_snapshot_publish_and_wal_reset_is_exact() {
    // clone-surgery: fabricate the disk state where the snapshot
    // landed but the WAL reset never happened — the full old WAL is
    // still there alongside the new snapshot
    let mut rng = SplitMix64::new(6);
    let mut b = open_no_autosnap(MemMedium::new());
    for _ in 0..10 {
        scripted_txn(&mut rng, &mut b);
        b.commit().unwrap();
    }
    let committed = full_state(&b).unwrap();
    let before_snapshot = b.medium().clone();
    b.snapshot().unwrap();
    let snap_name = teleios_store::snapshot::snapshot_name(10);
    let snap_bytes = b.medium().durable_bytes(&snap_name).unwrap();

    let mut hybrid = before_snapshot;
    hybrid.set_file(&snap_name, &snap_bytes);
    assert!(hybrid.durable_len(WAL_FILE) > 0, "old WAL still present");

    let recovered = open_no_autosnap(hybrid);
    assert_eq!(
        full_state(&recovered).unwrap(),
        committed,
        "snapshot + stale WAL must replay to the identical state (seq-skip)"
    );
    assert_eq!(recovered.recovery().snapshot_seq, 10);
    assert_eq!(recovered.recovery().transactions_replayed, 0);
    assert_eq!(recovered.last_seq(), 10);
}

#[test]
fn durable_backend_is_equivalent_to_memory_backend() {
    let mut rng_a = SplitMix64::new(314);
    let mut rng_b = SplitMix64::new(314);
    let mut mem = MemoryBackend::new();
    let mut dur = open_no_autosnap(MemMedium::new());
    for round in 0..50 {
        scripted_txn(&mut rng_a, &mut mem);
        scripted_txn(&mut rng_b, &mut dur);
        if round % 7 == 3 {
            mem.rollback();
            dur.rollback();
        } else {
            assert_eq!(mem.commit().unwrap(), dur.commit().unwrap());
        }
        assert_eq!(
            full_state(&mem).unwrap(),
            full_state(&dur).unwrap(),
            "round {round}: the two backends diverged"
        );
    }
    assert_eq!(mem.last_seq(), dur.last_seq());
    // and the durable one still matches after a restart
    let final_state = full_state(&mem).unwrap();
    let reopened = open_no_autosnap(dur.into_medium());
    assert_eq!(full_state(&reopened).unwrap(), final_state);
}

#[test]
fn recovery_with_periodic_snapshots_under_truncation() {
    // same sweep idea, but with auto-snapshots every 4 commits: the
    // WAL keeps resetting, so recovery = newest snapshot + short tail
    let config = DurableConfig { snapshot_every: Some(4), keep_snapshots: 2 };
    let mut rng = SplitMix64::new(2718);
    let mut b = DurableBackend::open(MemMedium::new(), config).unwrap();
    let mut acked = Vec::new();
    for _ in 0..17 {
        scripted_txn(&mut rng, &mut b);
        b.commit().unwrap();
        acked.push((b.medium().clone(), full_state(&b).unwrap()));
    }
    // after every commit, a power cycle must recover exactly the
    // acknowledged state
    for (i, (medium, state)) in acked.into_iter().enumerate() {
        let mut m = medium;
        m.crash();
        let recovered = DurableBackend::open(m, config).unwrap();
        assert_eq!(
            full_state(&recovered).unwrap(),
            state,
            "power cycle after commit {} with snapshots enabled",
            i + 1
        );
    }
}

#[test]
fn fs_medium_end_to_end_restart() {
    use teleios_store::FsMedium;
    let root = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/store-scratch/recovery-e2e"
    );
    let _ = std::fs::remove_dir_all(root);
    let config = DurableConfig { snapshot_every: Some(5), keep_snapshots: 2 };
    let mut rng = SplitMix64::new(161803);
    let mut b = DurableBackend::open(FsMedium::open(root).unwrap(), config).unwrap();
    for _ in 0..12 {
        scripted_txn(&mut rng, &mut b);
        b.commit().unwrap();
    }
    let committed = full_state(&b).unwrap();
    drop(b);
    let reopened = DurableBackend::open(FsMedium::open(root).unwrap(), config).unwrap();
    assert_eq!(full_state(&reopened).unwrap(), committed);
    assert_eq!(reopened.last_seq(), 12);
}
