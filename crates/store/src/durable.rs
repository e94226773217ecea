//! [`DurableBackend`]: write-ahead logging with fsync-barriered
//! commits, periodic snapshots, and exact crash recovery.
//!
//! ## Commit protocol
//!
//! A transaction's `Begin` + ops + `Commit` records are encoded into
//! one buffer, appended to the WAL, and made durable with a single
//! `sync` barrier. A put is framed as a patch (WAL kind 5) when the
//! key's committed value was itself logged since the last WAL reset
//! and the new value keeps at least 64 bytes of it as a shared prefix
//! plus suffix (`wal` states the rule); one op is one record either
//! way. Only after the barrier returns `Ok` is the commit
//! acknowledged and applied in memory. If the barrier fails, the
//! engine **poisons** itself: the WAL tail's durability is
//! indeterminate (the fsyncgate lesson — a failed fsync may not be
//! retryable), so every later write returns [`StoreError::Poisoned`]
//! until the store is reopened through recovery.
//!
//! ## Snapshot protocol
//!
//! Every `snapshot_every` commits (or on an explicit
//! [`StorageBackend::snapshot`] call) the full state is published
//! atomically as `snap-<seq>.tls`, then the WAL is atomically reset
//! to empty, then old snapshots beyond `keep_snapshots` are pruned.
//! Each step is individually crash-safe: a crash between the
//! snapshot publish and the WAL reset just leaves a WAL whose
//! records replay as no-ops (sequence numbers ≤ the snapshot's are
//! skipped).
//!
//! ## Recovery
//!
//! [`DurableBackend::open`] loads the newest snapshot that passes
//! its checksum (falling back to older ones), scans the WAL with the
//! total `wal::scan` — truncating the file at the first
//! torn/corrupt record — and replays committed transactions whose
//! sequence exceeds the snapshot's, from the frames as scanned, a
//! patch rewriting its key's value in place. Transactions with a
//! `Begin` but no matching `Commit` on disk are discarded: an
//! unacknowledged write is never resurrected. A replayed patch whose
//! base is missing or not `base_len` bytes long fails `open` with
//! [`StoreError::Corrupt`]: recovery never invents a value.

use std::collections::{HashMap, HashSet};

use crate::backend::{KeyspaceState, StorageBackend, StoreStats, TxOp};
use crate::medium::Medium;
use crate::snapshot;
use crate::wal::{self, Frame, Patch, WAL_FILE};
use crate::{Result, StoreError};

/// Remove `key`, dropping a keyspace entry that becomes empty so state
/// equality stays canonical.
fn remove_key(state: &mut KeyspaceState, keyspace: &str, key: &[u8]) {
    if let Some(ks) = state.get_mut(keyspace) {
        ks.remove(key);
        if ks.is_empty() {
            state.remove(keyspace);
        }
    }
}

/// Apply one op to a state map by move.
fn apply_op(state: &mut KeyspaceState, op: TxOp) {
    match op {
        TxOp::Put { keyspace, key, value } => {
            state.entry(keyspace).or_default().insert(key, value);
        }
        TxOp::Delete { keyspace, key } => remove_key(state, &keyspace, &key),
    }
}

/// Keys whose committed value the current WAL holds, per keyspace.
type Logged = HashMap<String, HashSet<Vec<u8>>>;

fn mark_logged(logged: &mut Logged, keyspace: &str, key: &[u8]) {
    if !logged.get(keyspace).is_some_and(|keys| keys.contains(key)) {
        logged.entry(keyspace.to_owned()).or_default().insert(key.to_vec());
    }
}

/// Apply one replayed frame to a state map, a patch in place, and mark
/// the keys it puts as logged.
fn replay(state: &mut KeyspaceState, logged: &mut Logged, frame: Frame) -> Result<()> {
    match frame {
        Frame::Put { keyspace, key, value } => {
            mark_logged(logged, keyspace, key);
            match state.get_mut(keyspace).and_then(|ks| ks.get_mut(key)) {
                Some(old) => value.clone_into(old),
                None => {
                    let ks = state.entry(keyspace.to_owned()).or_default();
                    ks.insert(key.to_vec(), value.to_vec());
                }
            }
        }
        Frame::Patch { keyspace, key, patch } => {
            let base = state.get_mut(keyspace).and_then(|ks| ks.get_mut(key)).ok_or_else(|| {
                StoreError::Corrupt(format!("wal patch of {keyspace} key {key:?} has no base"))
            })?;
            // No mark: the put the patch rests on made the key logged.
            patch.apply(base)?;
        }
        Frame::Delete { keyspace, key } => remove_key(state, keyspace, key),
        Frame::Begin { .. } | Frame::Commit { .. } => {}
    }
    Ok(())
}

/// Tuning knobs for [`DurableBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Write an automatic snapshot after this many commits
    /// (`None` disables auto-snapshotting; explicit calls still work).
    pub snapshot_every: Option<u64>,
    /// How many snapshot generations to keep on disk (older ones are
    /// pruned after each new snapshot). The extras are the fallback
    /// chain if the newest snapshot is damaged.
    pub keep_snapshots: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig { snapshot_every: Some(64), keep_snapshots: 2 }
    }
}

/// What recovery found and did, exposed via
/// [`DurableBackend::recovery`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot the state was loaded from
    /// (0 = no snapshot, started empty).
    pub snapshot_seq: u64,
    /// True if the newest snapshot was damaged and an older one was
    /// used instead.
    pub snapshot_fallback: bool,
    /// WAL records that scanned successfully.
    pub records_scanned: usize,
    /// Committed transactions actually replayed on top of the
    /// snapshot (sequence-skipped ones don't count).
    pub transactions_replayed: u64,
    /// If the WAL had a torn/corrupt tail: how many bytes were
    /// discarded by the physical truncation.
    pub wal_truncated: Option<usize>,
    /// Keyspaces in the recovered state.
    pub recovered_keyspaces: usize,
    /// Total entries in the recovered state.
    pub recovered_entries: usize,
}

/// WAL + snapshot storage over any [`Medium`].
#[derive(Debug)]
pub struct DurableBackend<M: Medium> {
    medium: M,
    config: DurableConfig,
    state: KeyspaceState,
    tx: Option<Vec<TxOp>>,
    seq: u64,
    wal_len: usize,
    commits_since_snapshot: u64,
    /// Keys whose committed value the current WAL holds: put since the
    /// last reset, so a later put may be framed as a patch.
    logged: Logged,
    poisoned: bool,
    stats: StoreStats,
    recovery: RecoveryReport,
}

impl<M: Medium> DurableBackend<M> {
    /// Open a store on `medium`, running crash recovery: load the
    /// newest valid snapshot, truncate any torn WAL tail, replay
    /// committed transactions.
    pub fn open(medium: M, config: DurableConfig) -> Result<Self> {
        let mut medium = medium;
        let mut report = RecoveryReport::default();

        // 1. newest valid snapshot, falling back through generations
        let mut snap_names: Vec<(u64, String)> = medium
            .list()?
            .into_iter()
            .filter_map(|n| snapshot::parse_snapshot_name(&n).map(|seq| (seq, n)))
            .collect();
        snap_names.sort();
        let mut state = KeyspaceState::new();
        let mut snapshot_seq = 0u64;
        for (idx, (_, name)) in snap_names.iter().enumerate().rev() {
            match medium.read(name)? {
                Some(bytes) => match snapshot::decode(&bytes) {
                    Ok((seq, loaded)) => {
                        state = loaded;
                        snapshot_seq = seq;
                        report.snapshot_fallback = idx + 1 < snap_names.len();
                        break;
                    }
                    Err(_) => continue,
                },
                None => continue,
            }
        }
        report.snapshot_seq = snapshot_seq;

        // 2. scan the WAL, physically truncating a torn tail so
        // future appends land on a well-formed log
        let wal_bytes = medium.read(WAL_FILE)?.unwrap_or_default();
        let scan = wal::scan(&wal_bytes);
        if scan.truncated {
            medium.publish(WAL_FILE, &wal_bytes[..scan.valid_len])?;
            report.wal_truncated = Some(wal_bytes.len() - scan.valid_len);
        }
        report.records_scanned = scan.frames.len();

        // 3. replay committed transactions past the snapshot: a
        // transaction is the run of frames between its Begin and its
        // Commit
        let mut begun: Option<(u64, usize)> = None;
        let mut logged = Logged::new();
        let mut applied_seq = snapshot_seq;
        for (at, frame) in scan.frames.iter().enumerate() {
            match *frame {
                Frame::Begin { seq } => begun = Some((seq, at + 1)),
                Frame::Commit { seq } => {
                    if let Some((begin_seq, first)) = begun.take() {
                        if begin_seq == seq && seq > applied_seq {
                            for &op in &scan.frames[first..at] {
                                replay(&mut state, &mut logged, op)?;
                            }
                            applied_seq = seq;
                            report.transactions_replayed += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        report.recovered_keyspaces = state.len();
        report.recovered_entries = state.values().map(|ks| ks.len()).sum();

        let wal_len = scan.valid_len;
        Ok(DurableBackend {
            medium,
            config,
            state,
            tx: None,
            seq: applied_seq,
            wal_len,
            // Replayed transactions are commits the last checkpoint does
            // not cover: a store that crashes more often than every
            // `snapshot_every` commits must still reach a checkpoint.
            commits_since_snapshot: report.transactions_replayed,
            logged,
            poisoned: false,
            stats: StoreStats { wal_bytes: wal_len, ..StoreStats::default() },
            recovery: report,
        })
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// True once a failed commit barrier has halted the engine.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Mutable access to the medium — how tests arm write faults.
    pub fn medium_mut(&mut self) -> &mut M {
        &mut self.medium
    }

    /// Tear down the engine and hand back the medium (tests reopen
    /// it through [`DurableBackend::open`] to model a restart).
    pub fn into_medium(self) -> M {
        self.medium
    }

    fn check_writable(&self) -> Result<()> {
        if self.poisoned {
            Err(StoreError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// The committed value of `key` when the current WAL logged it.
    fn logged_value(&self, keyspace: &str, key: &[u8]) -> Option<&[u8]> {
        self.logged.get(keyspace).filter(|keys| keys.contains(key))?;
        self.state.get(keyspace)?.get(key).map(Vec::as_slice)
    }

    fn tx_mut(&mut self) -> Result<&mut Vec<TxOp>> {
        self.tx.as_mut().ok_or(StoreError::NoTransaction)
    }

    fn write_snapshot(&mut self) -> Result<()> {
        // Whatever happens below, no later patch may rest on a value
        // logged before this checkpoint.
        self.logged.clear();
        let bytes = snapshot::encode(self.seq, &self.state);
        let name = snapshot::snapshot_name(self.seq);
        self.medium.publish(&name, &bytes)?;
        self.medium.publish(WAL_FILE, &[])?;
        self.wal_len = 0;
        self.commits_since_snapshot = 0;
        self.stats.snapshots_written += 1;
        // prune old generations, keeping the newest `keep_snapshots`
        let mut snaps: Vec<(u64, String)> = self
            .medium
            .list()?
            .into_iter()
            .filter_map(|n| snapshot::parse_snapshot_name(&n).map(|seq| (seq, n)))
            .collect();
        snaps.sort();
        let keep = self.config.keep_snapshots.max(1);
        if snaps.len() > keep {
            let drop_n = snaps.len() - keep;
            for (_, name) in snaps.into_iter().take(drop_n) {
                self.medium.remove(&name)?;
            }
        }
        Ok(())
    }
}

impl<M: Medium> StorageBackend for DurableBackend<M> {
    fn begin(&mut self) -> Result<()> {
        self.check_writable()?;
        if self.tx.is_some() {
            return Err(StoreError::NestedTransaction);
        }
        self.tx = Some(Vec::new());
        Ok(())
    }

    fn put(&mut self, keyspace: &str, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_writable()?;
        let op = TxOp::Put {
            keyspace: keyspace.to_string(),
            key: key.to_vec(),
            value: value.to_vec(),
        };
        self.tx_mut()?.push(op);
        Ok(())
    }

    fn delete(&mut self, keyspace: &str, key: &[u8]) -> Result<()> {
        self.check_writable()?;
        let op = TxOp::Delete { keyspace: keyspace.to_string(), key: key.to_vec() };
        self.tx_mut()?.push(op);
        Ok(())
    }

    fn commit(&mut self) -> Result<u64> {
        self.check_writable()?;
        let ops = self.tx.take().ok_or(StoreError::NoTransaction)?;
        if ops.is_empty() {
            return Ok(self.seq);
        }
        let seq = self.seq + 1;
        let mut frame = Vec::new();
        wal::encode(&mut frame, &Frame::Begin { seq });
        // Only a key's first op in the transaction may patch: replay
        // applies a later one over the earlier, not over the committed
        // value.
        let mut seen: HashSet<(&str, &[u8])> = HashSet::new();
        for op in &ops {
            let framed = match op {
                TxOp::Put { keyspace, key, value } => {
                    let first = seen.insert((keyspace, key));
                    let base = self.logged_value(keyspace, key).filter(|_| first);
                    match base.and_then(|base| Patch::diff(base, value)) {
                        Some(patch) => Frame::Patch { keyspace, key, patch },
                        None => Frame::Put { keyspace, key, value },
                    }
                }
                TxOp::Delete { keyspace, key } => {
                    seen.insert((keyspace, key));
                    Frame::Delete { keyspace, key }
                }
            };
            wal::encode(&mut frame, &framed);
        }
        wal::encode(&mut frame, &Frame::Commit { seq });

        // single durability barrier for the whole transaction; a
        // failure anywhere leaves the tail's durability unknown, so
        // the engine halts rather than risk acknowledging a ghost
        if let Err(e) = self.medium.append(WAL_FILE, &frame) {
            self.poisoned = true;
            return Err(e);
        }
        if let Err(e) = self.medium.sync(WAL_FILE) {
            self.poisoned = true;
            return Err(e);
        }

        self.seq = seq;
        self.wal_len += frame.len();
        for op in ops {
            match &op {
                TxOp::Put { keyspace, key, .. } => {
                    self.stats.puts += 1;
                    mark_logged(&mut self.logged, keyspace, key);
                }
                TxOp::Delete { .. } => self.stats.deletes += 1,
            }
            apply_op(&mut self.state, op);
        }
        self.stats.commits += 1;
        self.commits_since_snapshot += 1;

        if let Some(every) = self.config.snapshot_every {
            if self.commits_since_snapshot >= every {
                // the commit above is already durable and must stay
                // acknowledged, so a failed checkpoint is never turned
                // into a commit error: it leaves `commits_since_snapshot`
                // standing, and the next commit retries it
                self.write_snapshot().unwrap_or(());
            }
        }
        Ok(seq)
    }

    fn rollback(&mut self) {
        self.tx = None;
    }

    fn in_transaction(&self) -> bool {
        self.tx.is_some()
    }

    fn get(&self, keyspace: &str, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.state.get(keyspace).and_then(|ks| ks.get(key).cloned()))
    }

    fn scan(&self, keyspace: &str) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self
            .state
            .get(keyspace)
            .map(|ks| ks.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default())
    }

    fn keys(&self, keyspace: &str) -> Result<Vec<Vec<u8>>> {
        Ok(self.state.get(keyspace).map(|ks| ks.keys().cloned().collect()).unwrap_or_default())
    }

    fn keyspaces(&self) -> Result<Vec<String>> {
        Ok(self.state.keys().cloned().collect())
    }

    fn last_seq(&self) -> u64 {
        self.seq
    }

    fn snapshot(&mut self) -> Result<()> {
        self.check_writable()?;
        if self.tx.is_some() {
            return Err(StoreError::NestedTransaction);
        }
        self.write_snapshot()
    }

    fn stats(&self) -> StoreStats {
        let mut s = self.stats;
        s.keyspaces = self.state.len();
        s.entries = self.state.values().map(|ks| ks.len()).sum();
        s.wal_bytes = self.wal_len;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::full_state;
    use crate::medium::MemMedium;

    fn open_mem() -> DurableBackend<MemMedium> {
        DurableBackend::open(MemMedium::new(), DurableConfig::default()).unwrap()
    }

    #[test]
    fn fresh_store_is_empty() {
        let b = open_mem();
        assert_eq!(b.last_seq(), 0);
        assert!(b.keyspaces().unwrap().is_empty());
        assert_eq!(b.recovery().records_scanned, 0);
    }

    #[test]
    fn commit_survives_reopen() {
        let mut b = open_mem();
        b.begin().unwrap();
        b.put("vault/catalog", b"scene-1", b"record").unwrap();
        b.commit().unwrap();
        let before = full_state(&b).unwrap();

        let b2 = DurableBackend::open(b.into_medium(), DurableConfig::default()).unwrap();
        assert_eq!(full_state(&b2).unwrap(), before);
        assert_eq!(b2.last_seq(), 1);
        assert_eq!(b2.recovery().transactions_replayed, 1);
    }

    #[test]
    fn uncommitted_writes_do_not_survive() {
        let mut b = open_mem();
        b.begin().unwrap();
        b.put("ks", b"committed", b"yes").unwrap();
        b.commit().unwrap();
        b.begin().unwrap();
        b.put("ks", b"uncommitted", b"no").unwrap();
        // power cut with the txn open: only the Begin/Put records may
        // be buffered; nothing was synced
        let mut m = b.into_medium();
        m.crash();
        let b2 = DurableBackend::open(m, DurableConfig::default()).unwrap();
        assert_eq!(b2.get("ks", b"committed").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(b2.get("ks", b"uncommitted").unwrap(), None);
    }

    #[test]
    fn snapshot_resets_wal_and_survives() {
        let mut b = DurableBackend::open(
            MemMedium::new(),
            DurableConfig { snapshot_every: None, keep_snapshots: 2 },
        )
        .unwrap();
        for i in 0..5u8 {
            b.begin().unwrap();
            b.put("ks", &[i], &[i; 8]).unwrap();
            b.commit().unwrap();
        }
        assert!(b.stats().wal_bytes > 0);
        b.snapshot().unwrap();
        assert_eq!(b.stats().wal_bytes, 0);
        let before = full_state(&b).unwrap();

        let b2 = DurableBackend::open(b.into_medium(), DurableConfig::default()).unwrap();
        assert_eq!(full_state(&b2).unwrap(), before);
        assert_eq!(b2.recovery().snapshot_seq, 5);
        assert_eq!(b2.recovery().transactions_replayed, 0);
        assert_eq!(b2.last_seq(), 5);
    }

    #[test]
    fn auto_snapshot_fires_and_prunes() {
        let mut b = DurableBackend::open(
            MemMedium::new(),
            DurableConfig { snapshot_every: Some(2), keep_snapshots: 2 },
        )
        .unwrap();
        for i in 0..10u8 {
            b.begin().unwrap();
            b.put("ks", &[i], &[i]).unwrap();
            b.commit().unwrap();
        }
        assert_eq!(b.stats().snapshots_written, 5);
        let snaps: Vec<u64> = b
            .medium()
            .list()
            .unwrap()
            .iter()
            .filter_map(|n| snapshot::parse_snapshot_name(n))
            .collect();
        assert_eq!(snaps, [8, 10], "pruned to keep_snapshots");
    }

    #[test]
    fn crashing_more_often_than_the_interval_still_checkpoints() {
        let config = DurableConfig { snapshot_every: Some(4), keep_snapshots: 2 };
        let mut m = MemMedium::new();
        let mut one_life_wal = 0;
        for life in 0..6u8 {
            let mut b = DurableBackend::open(m, config).unwrap();
            // Replay never reaches a whole interval, and the log never
            // outgrows what a single life appends.
            assert!(b.recovery().transactions_replayed < 4, "life {life}: {:?}", b.recovery());
            if life > 0 {
                assert!(b.stats().wal_bytes <= one_life_wal, "life {life}: WAL keeps growing");
            }
            for i in 0..3u8 {
                b.begin().unwrap();
                b.put("ks", &[life, i], &[i; 8]).unwrap();
                b.commit().unwrap();
            }
            match life {
                0 => one_life_wal = b.stats().wal_bytes,
                // 3 replayed + 1 committed = the interval.
                1 => assert_eq!(b.stats().snapshots_written, 1, "the second life checkpoints"),
                _ => {}
            }
            m = b.into_medium();
            m.crash();
        }
        let b = DurableBackend::open(m, config).unwrap();
        assert_eq!(b.scan("ks").unwrap().len(), 18, "nothing lost across the lives");
    }

    #[test]
    fn failed_barrier_poisons_engine() {
        let mut b = open_mem();
        b.begin().unwrap();
        b.put("ks", b"k", b"v").unwrap();
        b.medium_mut().arm(crate::WriteFault::ShortFsync);
        assert!(matches!(b.commit(), Err(StoreError::Io(_))));
        assert!(b.is_poisoned());
        assert_eq!(b.begin(), Err(StoreError::Poisoned));
        // committed state still readable and the ghost is invisible
        assert_eq!(b.get("ks", b"k").unwrap(), None);
        // reopen after power cycle: exact pre-commit state
        let mut m = b.into_medium();
        m.crash();
        let b2 = DurableBackend::open(m, DurableConfig::default()).unwrap();
        assert_eq!(b2.get("ks", b"k").unwrap(), None);
        assert_eq!(b2.last_seq(), 0);
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let mut b = open_mem();
        b.begin().unwrap();
        b.put("ks", b"k", b"v").unwrap();
        b.commit().unwrap();
        let mut m = b.into_medium();
        let mut bytes = m.durable_bytes(WAL_FILE).unwrap();
        let full = bytes.len();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        m.set_file(WAL_FILE, &bytes);
        let b2 = DurableBackend::open(m, DurableConfig::default()).unwrap();
        assert_eq!(b2.recovery().wal_truncated, Some(4));
        assert_eq!(b2.get("ks", b"k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(b2.medium().durable_len(WAL_FILE), full, "tail physically gone");
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let mut b = DurableBackend::open(
            MemMedium::new(),
            DurableConfig { snapshot_every: None, keep_snapshots: 2 },
        )
        .unwrap();
        b.begin().unwrap();
        b.put("ks", b"gen", b"1").unwrap();
        b.commit().unwrap();
        b.snapshot().unwrap();
        b.begin().unwrap();
        b.put("ks", b"gen", b"2").unwrap();
        b.commit().unwrap();
        b.snapshot().unwrap();
        let mut m = b.into_medium();
        // smash the newest snapshot
        let newest = snapshot::snapshot_name(2);
        let mut bytes = m.durable_bytes(&newest).unwrap();
        if let Some(byte) = bytes.last_mut() {
            *byte ^= 0xff;
        }
        m.set_file(&newest, &bytes);
        let b2 = DurableBackend::open(m, DurableConfig::default()).unwrap();
        assert!(b2.recovery().snapshot_fallback);
        assert_eq!(b2.recovery().snapshot_seq, 1);
        // WAL was reset at snapshot 2, so gen=2 is lost to the
        // damaged checkpoint — but gen=1 (the older valid
        // checkpoint) is recovered, not an empty store
        assert_eq!(b2.get("ks", b"gen").unwrap(), Some(b"1".to_vec()));
    }

    fn no_autosnap() -> DurableBackend<MemMedium> {
        let config = DurableConfig { snapshot_every: None, keep_snapshots: 2 };
        DurableBackend::open(MemMedium::new(), config).unwrap()
    }

    fn put_all(b: &mut DurableBackend<MemMedium>, puts: &[(&[u8], &[u8])]) {
        crate::transact(b, |b| puts.iter().try_for_each(|(k, v)| b.put("ks", k, v))).unwrap();
    }

    fn kinds(wal: &[u8]) -> String {
        let kind = |f: &Frame| match f {
            Frame::Begin { .. } => 'B',
            Frame::Put { .. } => 'P',
            Frame::Patch { .. } => 'D',
            Frame::Delete { .. } => 'X',
            Frame::Commit { .. } => 'C',
        };
        wal::scan(wal).frames.iter().map(kind).collect()
    }

    /// One op is one record, patch or not: a commit of N puts appends
    /// N + 2 frames, and `records_scanned` counts them all. e0's
    /// `crash_recover` digest folds `records_scanned` in, so a change
    /// to this count changes that frozen digest.
    #[test]
    fn a_commit_of_n_puts_appends_n_plus_two_frames() {
        let mut b = no_autosnap();
        let base = vec![5u8; 300];
        let grown = [&base[..], b"tail"].concat();
        put_all(&mut b, &[(b"a", &base), (b"b", b"small"), (b"c", &base)]);
        put_all(&mut b, &[(b"a", &grown), (b"b", b"small too"), (b"c", &base)]);
        b.begin().unwrap();
        b.put("ks", b"a", &base).unwrap();
        b.delete("ks", b"c").unwrap();
        b.put("ks", b"c", &grown).unwrap();
        b.put("ks", b"a", &grown).unwrap();
        b.commit().unwrap();
        let wal_bytes = b.medium().durable_bytes(WAL_FILE).unwrap();
        assert_eq!(kinds(&wal_bytes), "BPPPC".to_owned() + "BDPDC" + "BDXPPC");
        let before = full_state(&b).unwrap();
        let reopened = DurableBackend::open(b.into_medium(), DurableConfig::default()).unwrap();
        assert_eq!(reopened.recovery().records_scanned, 5 + 5 + 6);
        assert_eq!(reopened.recovery().transactions_replayed, 3);
        assert_eq!(full_state(&reopened).unwrap(), before);
    }

    /// The first put of a key after a snapshot is whole, and so is the
    /// first after `open` of a key whose value came from the snapshot;
    /// a value recovery replayed from the log may be patched.
    #[test]
    fn a_put_over_a_snapshots_value_is_whole() {
        let config = DurableConfig { snapshot_every: None, keep_snapshots: 2 };
        let mut b = no_autosnap();
        let base = vec![1u8; 100];
        let next = |n: u8| [&base[..], &[n]].concat();
        put_all(&mut b, &[(b"snap", &base)]);
        b.snapshot().unwrap();
        put_all(&mut b, &[(b"snap", &next(1))]);
        b.snapshot().unwrap();
        put_all(&mut b, &[(b"wal", &base)]);
        let mut b = DurableBackend::open(b.into_medium(), config).unwrap();
        put_all(&mut b, &[(b"snap", &next(2)), (b"wal", &next(2))]);
        put_all(&mut b, &[(b"snap", &next(3)), (b"wal", &next(3))]);
        let kinds_now = kinds(&b.medium().durable_bytes(WAL_FILE).unwrap());
        assert_eq!(kinds_now, "BPC".to_owned() + "BPDC" + "BDDC");
        let before = full_state(&b).unwrap();
        let b = DurableBackend::open(b.into_medium(), config).unwrap();
        assert_eq!(full_state(&b).unwrap(), before);
    }

    fn medium_with_wal(frames: &[Frame]) -> MemMedium {
        let mut bytes = Vec::new();
        for frame in frames {
            wal::encode(&mut bytes, frame);
        }
        let mut m = MemMedium::new();
        m.set_file(WAL_FILE, &bytes);
        m
    }

    #[test]
    fn a_patch_over_a_missing_or_wrong_length_base_is_corrupt() {
        let patch = Patch { base_len: 100, keep_prefix: 64, keep_suffix: 0, middle: b"x" };
        let (keyspace, key) = ("ks", &b"k"[..]);
        let (begin, commit) = (Frame::Begin { seq: 1 }, Frame::Commit { seq: 1 });
        let missing = [begin, Frame::Patch { keyspace, key, patch }, commit];
        let value = &[0u8; 101][..];
        let wrong_len = [
            Frame::Begin { seq: 1 },
            Frame::Put { keyspace, key, value },
            Frame::Commit { seq: 1 },
            Frame::Begin { seq: 2 },
            Frame::Patch { keyspace, key, patch },
            Frame::Commit { seq: 2 },
        ];
        for frames in [&missing[..], &wrong_len] {
            let opened = DurableBackend::open(medium_with_wal(frames), DurableConfig::default());
            assert!(matches!(opened, Err(StoreError::Corrupt(_))), "{frames:?}");
        }
        // The same patch over its true base replays.
        let mut right = wrong_len;
        right[4] = Frame::Patch { keyspace, key, patch: Patch { base_len: 101, ..patch } };
        let b = DurableBackend::open(medium_with_wal(&right), DurableConfig::default()).unwrap();
        assert_eq!(b.get("ks", b"k").unwrap(), Some([&[0u8; 64][..], b"x"].concat()));
    }

    /// Patches rest only on values logged since the WAL's reset, so a
    /// fallback to an older snapshot still replays the log's values.
    #[test]
    fn a_corrupt_newest_snapshot_after_patched_commits_replays_the_wals_values() {
        let mut b = no_autosnap();
        let base: Vec<u8> = (0..200).collect();
        let edited = |gen: u8| [&base[..150], &[gen; 3], &base[150..]].concat();
        put_all(&mut b, &[(b"a", &base), (b"b", &base)]);
        b.snapshot().unwrap();
        put_all(&mut b, &[(b"a", &edited(1))]);
        put_all(&mut b, &[(b"a", &edited(2))]);
        b.snapshot().unwrap();
        put_all(&mut b, &[(b"a", &edited(3))]);
        put_all(&mut b, &[(b"a", &edited(4)), (b"b", &edited(4))]);
        put_all(&mut b, &[(b"b", &edited(5))]);
        assert_eq!(kinds(&b.medium().durable_bytes(WAL_FILE).unwrap()), "BPCBDPCBDC");
        let mut m = b.into_medium();
        let newest = snapshot::snapshot_name(3);
        let mut bytes = m.durable_bytes(&newest).unwrap();
        bytes[30] ^= 0xff;
        m.set_file(&newest, &bytes);
        let b2 = DurableBackend::open(m, DurableConfig::default()).unwrap();
        assert!(b2.recovery().snapshot_fallback);
        assert_eq!(b2.recovery().snapshot_seq, 1);
        assert_eq!(b2.get("ks", b"a").unwrap(), Some(edited(4)));
        assert_eq!(b2.get("ks", b"b").unwrap(), Some(edited(5)));
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let mut b = open_mem();
        b.begin().unwrap();
        assert_eq!(b.commit().unwrap(), 0);
        assert_eq!(b.stats().commits, 0);
        assert_eq!(b.stats().wal_bytes, 0);
    }
}
