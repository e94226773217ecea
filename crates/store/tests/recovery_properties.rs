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
//!
//! Each scenario runs two scripts: [`Values::Fresh`] puts short fresh
//! values, which the log holds whole; [`Values::Edits`] appends to a
//! key's last value or rewrites a stretch of its middle, so most puts
//! are logged as patch frames over the value before.

use teleios_check::SplitMix64;
use teleios_store::backend::full_state;
use teleios_store::wal::WAL_FILE;
use teleios_store::{
    DurableBackend, DurableConfig, KeyspaceState, Medium, MemMedium, StorageBackend, StoreError,
    WriteFault,
};

const KEYSPACES: [&str; 3] = ["vault/catalog", "rdf/spo", "monet/col"];

/// A scripted op: `(keyspace, key, Some(value))` puts, `None` deletes.
type ScriptOp = (&'static str, Vec<u8>, Option<Vec<u8>>);

/// How a scripted put picks its value.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// A run of 1 to 48 copies of one byte, too short to patch, over
    /// 24 keys per keyspace.
    Fresh,
    /// The key's committed value with 1 to 16 bytes appended, or a
    /// stretch of its middle rewritten; 80 to 176 fresh bytes for a key
    /// without one, and now and then anyway; over 4 keys per keyspace.
    Edits,
}

const BOTH: [Values; 2] = [Values::Fresh, Values::Edits];

fn noise(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.below(256) as u8).collect()
}

fn next_value(rng: &mut SplitMix64, values: Values, last: Option<Vec<u8>>) -> Vec<u8> {
    if let Values::Fresh = values {
        let len = 1 + rng.below(48);
        return vec![rng.below(256) as u8; len];
    }
    match (last, rng.below(5)) {
        (Some(mut value), 0 | 1) => {
            let tail = 1 + rng.below(16);
            value.extend(noise(rng, tail));
            value
        }
        (Some(mut value), 2 | 3) => {
            let at = rng.below(value.len() - 8);
            let (cut, len) = (1 + rng.below(8), rng.below(12));
            value.splice(at..at + cut, noise(rng, len));
            value
        }
        _ => {
            let len = 80 + rng.below(96);
            noise(rng, len)
        }
    }
}

/// The number of patch frames (kind 5) in a WAL.
fn patch_frames(wal: &[u8]) -> usize {
    let mut pos = 0;
    let mut patches = 0;
    while let Some(header) = wal.get(pos..pos + 13) {
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        patches += usize::from(header[12] == 5);
        pos += 12 + len;
    }
    patches
}

/// One scripted transaction, left open: one to four puts and deletes
/// over the shared keyspaces. Returns the ops it staged.
fn scripted_txn(
    rng: &mut SplitMix64,
    values: Values,
    backend: &mut dyn StorageBackend,
) -> Vec<ScriptOp> {
    backend.begin().unwrap();
    let n_ops = 1 + rng.below(4);
    let mut ops = Vec::new();
    for _ in 0..n_ops {
        let ks = KEYSPACES[rng.below(3)];
        // Edits land on fewer keys, so most find a value to patch.
        let keys = if let Values::Edits = values { 4 } else { 24 };
        let key = format!("k{:03}", rng.below(keys)).into_bytes();
        if rng.below(5) == 0 {
            backend.delete(ks, &key).unwrap();
            ops.push((ks, key, None));
        } else {
            let value = next_value(rng, values, backend.get(ks, &key).unwrap());
            backend.put(ks, &key, &value).unwrap();
            ops.push((ks, key, Some(value)));
        }
    }
    ops
}

/// The reference model: `ops` applied to a plain map, sharing no code
/// with the engine under test.
fn apply_to_model(model: &mut KeyspaceState, ops: Vec<ScriptOp>) {
    for (ks, key, value) in ops {
        let entries = model.entry(ks.to_string()).or_default();
        match value {
            Some(value) => entries.insert(key, value),
            None => entries.remove(&key),
        };
    }
    model.retain(|_, entries| !entries.is_empty());
}

fn open_no_autosnap(medium: MemMedium) -> DurableBackend<MemMedium> {
    DurableBackend::open(medium, DurableConfig { snapshot_every: None, keep_snapshots: 2 })
        .unwrap()
}

/// Run `n_txns` scripted transactions, recording after each
/// acknowledged commit the durable WAL length and the full state.
/// Returns (final medium, checkpoints) where checkpoints[0] is the
/// empty pre-commit state at WAL length 0. An `Edits` script's log
/// holds patch frames.
fn run_script(
    seed: u64,
    values: Values,
    n_txns: usize,
) -> (MemMedium, Vec<(usize, KeyspaceState)>) {
    let mut rng = SplitMix64::new(seed);
    let mut b = open_no_autosnap(MemMedium::new());
    let mut checkpoints = vec![(0usize, KeyspaceState::new())];
    for _ in 0..n_txns {
        scripted_txn(&mut rng, values, &mut b);
        b.commit().unwrap();
        let wal_len = b.medium().durable_len(WAL_FILE);
        checkpoints.push((wal_len, full_state(&b).unwrap()));
    }
    let patches = patch_frames(&b.medium().durable_bytes(WAL_FILE).unwrap());
    assert_eq!(patches > 0, matches!(values, Values::Edits), "{values:?}: {patches} patches");
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

fn truncation_sweep(seed: u64, values: Values, n_txns: usize) {
    let (medium, checkpoints) = run_script(seed, values, n_txns);
    let wal = medium.durable_bytes(WAL_FILE).unwrap();
    for cut in 0..=wal.len() {
        let mut m = MemMedium::new();
        m.set_file(WAL_FILE, &wal[..cut]);
        let b = open_no_autosnap(m);
        let recovered = full_state(&b).unwrap();
        let expected = expected_at(&checkpoints, cut);
        assert_eq!(
            &recovered, expected,
            "seed {seed}, {values:?}: truncation at byte {cut} of {} must recover \
             the last commit fitting in the prefix",
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
    for values in BOTH {
        truncation_sweep(0x7e1e_0507, values, 40);
    }
}

#[test]
#[ignore = "exhaustive sweep over a larger log; run via scripts/check.sh --full"]
fn truncation_sweep_large() {
    for seed in [1u64, 42, 0xdead_beef, 0x7e1e_1057] {
        for values in BOTH {
            truncation_sweep(seed, values, 120);
        }
    }
}

#[test]
fn reopening_twice_is_idempotent() {
    for values in BOTH {
        let (medium, checkpoints) = run_script(11, values, 30);
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
}

#[test]
fn wal_concatenated_with_itself_replays_identically() {
    // replaying the same log twice must be a no-op the second time:
    // sequence numbers ≤ the applied high-water mark are skipped, and
    // the second copy's patches never meet a base
    for values in BOTH {
        let (medium, checkpoints) = run_script(23, values, 25);
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
}

#[test]
fn crash_fault_before_every_commit_recovers_previous_state() {
    let n = 20usize;
    for (crash_at, values) in (1..=n).flat_map(|at| BOTH.map(|values| (at, values))) {
        let mut rng = SplitMix64::new(77);
        let mut b = open_no_autosnap(MemMedium::new());
        let mut states = vec![KeyspaceState::new()];
        for k in 1..=n {
            scripted_txn(&mut rng, values, &mut b);
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
            "{values:?}, crash before commit {crash_at}: recovery must yield commit {}",
            crash_at - 1
        );
        assert_eq!(recovered.last_seq(), (crash_at - 1) as u64);
    }
}

#[test]
fn torn_sync_at_every_byte_of_the_commit_frame() {
    for values in BOTH {
        torn_sync_sweep(values);
    }
}

fn torn_sync_sweep(values: Values) {
    // run `prior` committed txns, then tear the next commit's sync at
    // every possible surviving byte count; with edits, after enough
    // history that the torn commit holds patches
    let prior = if let Values::Edits = values { 20 } else { 5 };
    let setup = |keep: Option<usize>| -> (MemMedium, KeyspaceState, KeyspaceState, usize) {
        let mut rng = SplitMix64::new(99);
        let mut b = open_no_autosnap(MemMedium::new());
        for _ in 0..prior {
            scripted_txn(&mut rng, values, &mut b);
            b.commit().unwrap();
        }
        let committed = full_state(&b).unwrap();
        let wal_before = b.medium().durable_len(WAL_FILE);
        scripted_txn(&mut rng, values, &mut b);
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
    let (clean_medium, _, state_after, wal_before) = setup(None);
    let wal = clean_medium.durable_bytes(WAL_FILE).unwrap();
    let frame_len = wal.len() - wal_before;
    assert!(frame_len > 0);
    if let Values::Edits = values {
        assert!(patch_frames(&wal[wal_before..]) > 0, "the torn commit holds a patch");
    }

    for keep in 0..=frame_len {
        let (m, state_before, _, _) = setup(Some(keep));
        let b = open_no_autosnap(m);
        let recovered = full_state(&b).unwrap();
        if keep < frame_len {
            // any strictly partial frame must be discarded
            assert_eq!(
                recovered, state_before,
                "torn sync keeping {keep}/{frame_len} bytes must not resurrect \
                 the in-flight commit"
            );
            assert_eq!(b.last_seq(), prior as u64);
        } else {
            // the whole frame survived: the commit record is durable,
            // so recovery legitimately lands on the in-flight commit
            assert_eq!(recovered, state_after);
            assert_eq!(b.last_seq(), prior as u64 + 1);
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
            scripted_txn(&mut rng, Values::Fresh, &mut b);
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
        scripted_txn(&mut rng, Values::Fresh, &mut b);
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
    for values in BOTH {
        snapshot_beside_a_stale_wal(values);
    }
}

fn snapshot_beside_a_stale_wal(values: Values) {
    // clone-surgery: fabricate the disk state where the snapshot
    // landed but the WAL reset never happened — the full old WAL is
    // still there alongside the new snapshot
    let mut rng = SplitMix64::new(6);
    let mut b = open_no_autosnap(MemMedium::new());
    for _ in 0..10 {
        scripted_txn(&mut rng, values, &mut b);
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

    let mut recovered = open_no_autosnap(hybrid);
    assert_eq!(
        full_state(&recovered).unwrap(),
        committed,
        "snapshot + stale WAL must replay to the identical state (seq-skip)"
    );
    assert_eq!(recovered.recovery().snapshot_seq, 10);
    assert_eq!(recovered.recovery().transactions_replayed, 0);
    assert_eq!(recovered.last_seq(), 10);
    // commits appended to the stale log replay over the snapshot
    for _ in 0..5 {
        scripted_txn(&mut rng, values, &mut recovered);
        recovered.commit().unwrap();
    }
    let committed = full_state(&recovered).unwrap();
    let reopened = open_no_autosnap(recovered.into_medium());
    assert_eq!(full_state(&reopened).unwrap(), committed, "{values:?}");
    assert_eq!(reopened.recovery().transactions_replayed, 5);
}

/// The engine against an in-memory map model of the same scripted
/// ops: committed transactions apply, rolled-back ones vanish.
#[test]
fn durable_backend_is_equivalent_to_memory_backend() {
    for values in BOTH {
        equivalent_to_the_model(values);
    }
}

fn equivalent_to_the_model(values: Values) {
    let mut rng = SplitMix64::new(314);
    let mut model = KeyspaceState::new();
    let mut seq = 0;
    let mut dur = open_no_autosnap(MemMedium::new());
    for round in 0..50 {
        let ops = scripted_txn(&mut rng, values, &mut dur);
        if round % 7 == 3 {
            dur.rollback();
        } else {
            seq += 1;
            assert_eq!(dur.commit().unwrap(), seq);
            apply_to_model(&mut model, ops);
        }
        assert_eq!(full_state(&dur).unwrap(), model, "round {round}: engine and model diverged");
    }
    assert_eq!(dur.last_seq(), seq);
    // and the engine still matches after a restart
    let reopened = open_no_autosnap(dur.into_medium());
    assert_eq!(full_state(&reopened).unwrap(), model);
}

#[test]
fn recovery_with_periodic_snapshots_under_truncation() {
    for values in BOTH {
        power_cycles_with_periodic_snapshots(values);
    }
}

fn power_cycles_with_periodic_snapshots(values: Values) {
    // same sweep idea, but with auto-snapshots every 4 commits: the
    // WAL keeps resetting, so recovery = newest snapshot + short tail
    let config = DurableConfig { snapshot_every: Some(4), keep_snapshots: 2 };
    let mut rng = SplitMix64::new(2718);
    let mut b = DurableBackend::open(MemMedium::new(), config).unwrap();
    let mut acked = Vec::new();
    let mut patches = 0;
    for _ in 0..17 {
        scripted_txn(&mut rng, values, &mut b);
        b.commit().unwrap();
        patches = patches.max(patch_frames(&b.medium().durable_bytes(WAL_FILE).unwrap()));
        acked.push((b.medium().clone(), full_state(&b).unwrap()));
    }
    assert_eq!(patches > 0, matches!(values, Values::Edits), "{values:?}");
    // after every commit, a power cycle must recover exactly the
    // acknowledged state
    for (i, (medium, state)) in acked.into_iter().enumerate() {
        let mut m = medium;
        m.crash();
        let recovered = DurableBackend::open(m, config).unwrap();
        assert_eq!(
            full_state(&recovered).unwrap(),
            state,
            "{values:?}: power cycle after commit {} with snapshots enabled",
            i + 1
        );
    }
}

/// Crash after every few commits, with snapshots every 7: each life
/// patches values its own commits logged or recovery replayed from
/// the log. Every reopen recovers the last commit; with the newest
/// snapshot smashed, recovery lands on the older snapshot's state with
/// the log's transactions over it, the log's values exactly.
#[test]
fn lives_of_patched_commits_recover_exactly() {
    let config = DurableConfig { snapshot_every: Some(7), keep_snapshots: 2 };
    let mut rng = SplitMix64::new(4242);
    // `models[seq]` is the state after commit `seq`, `txns[seq]` its ops.
    let mut models = vec![KeyspaceState::new()];
    let mut txns: Vec<Vec<ScriptOp>> = vec![Vec::new()];
    let mut patches = 0;
    let mut m = MemMedium::new();
    for life in 0..10 {
        let mut b = DurableBackend::open(m, config).unwrap();
        assert_eq!(&full_state(&b).unwrap(), models.last().unwrap(), "life {life}");
        for _ in 0..1 + rng.below(5) {
            let ops = scripted_txn(&mut rng, Values::Edits, &mut b);
            b.commit().unwrap();
            let mut model = models.last().unwrap().clone();
            apply_to_model(&mut model, ops.clone());
            models.push(model);
            txns.push(ops);
        }
        patches += patch_frames(&b.medium().durable_bytes(WAL_FILE).unwrap());
        if life == 8 {
            // The last life opens on this snapshot: its first puts land
            // on the snapshot's values, which the fallback skips.
            b.snapshot().unwrap();
        }
        m = b.into_medium();
        m.crash();
    }
    assert!(patches > 0);
    let mut snaps: Vec<u64> = m
        .list()
        .unwrap()
        .iter()
        .filter_map(|name| u64::from_str_radix(name.strip_prefix("snap-")?.get(..16)?, 16).ok())
        .collect();
    snaps.sort();
    let [older, newest] = snaps[..] else { panic!("two snapshots kept, found {snaps:?}") };
    let newest_name = teleios_store::snapshot::snapshot_name(newest);
    let mut bytes = m.durable_bytes(&newest_name).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    m.set_file(&newest_name, &bytes);
    let mut expected = models[older as usize].clone();
    for ops in &txns[newest as usize + 1..] {
        apply_to_model(&mut expected, ops.clone());
    }
    let b = DurableBackend::open(m, config).unwrap();
    assert!(b.recovery().snapshot_fallback);
    assert_eq!(full_state(&b).unwrap(), expected);
}

#[test]
fn fs_medium_end_to_end_restart() {
    use teleios_store::FsMedium;
    let root = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/store-scratch/recovery-e2e"
    );
    let config = DurableConfig { snapshot_every: Some(5), keep_snapshots: 2 };
    for values in BOTH {
        let _ = std::fs::remove_dir_all(root);
        let mut rng = SplitMix64::new(161803);
        let mut b = DurableBackend::open(FsMedium::open(root).unwrap(), config).unwrap();
        for _ in 0..12 {
            scripted_txn(&mut rng, values, &mut b);
            b.commit().unwrap();
        }
        let committed = full_state(&b).unwrap();
        drop(b);
        let reopened = DurableBackend::open(FsMedium::open(root).unwrap(), config).unwrap();
        assert_eq!(full_state(&reopened).unwrap(), committed);
        assert_eq!(reopened.last_seq(), 12);
    }
}
