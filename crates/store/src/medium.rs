//! The byte-device abstraction under the durable backend.
//!
//! A [`Medium`] is a tiny flat namespace of files with exactly the
//! operations the WAL needs: `append` (buffered — NOT durable),
//! `sync` (the fsync barrier that makes appended bytes durable),
//! `publish` (atomic whole-file replace, used for snapshots and WAL
//! truncation), `read`, `remove`, `list`.
//!
//! [`MemMedium`] simulates a disk honestly enough for crash testing:
//! each file carries a *durable* byte prefix and a *volatile* tail
//! (the page cache). `read` sees both — exactly like a process
//! reading back its own un-synced writes — but [`MemMedium::crash`]
//! discards the volatile tail, which is what power loss does.
//! Injected [`WriteFault`]s fire on the next matching operation.
//!
//! [`FsMedium`] is the real-filesystem implementation and the single
//! sanctioned `std::fs` write site in the workspace (the root
//! `clippy.toml` disallows the fs mutators everywhere else).

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

use crate::fault::WriteFault;
use crate::{Result, StoreError};

/// Byte-device operations required by the durable backend.
pub trait Medium {
    /// Buffer `bytes` at the end of `name`. The bytes are visible to
    /// `read` but NOT durable until the next successful [`sync`].
    ///
    /// [`sync`]: Medium::sync
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()>;

    /// Durability barrier: flush all buffered appends of `name` to
    /// stable storage. On `Err` the durable prefix is unspecified —
    /// the caller must treat the write as unacknowledged.
    fn sync(&mut self, name: &str) -> Result<()>;

    /// Read the full current contents of `name` (durable + buffered),
    /// or `None` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>>;

    /// Atomically replace the contents of `name` with `bytes` and
    /// make the replacement durable (write-temp + fsync + rename on a
    /// real filesystem). Readers see either the old or the new
    /// content, never a mix.
    fn publish(&mut self, name: &str, bytes: &[u8]) -> Result<()>;

    /// Delete `name` if present.
    fn remove(&mut self, name: &str) -> Result<()>;

    /// Sorted list of existing file names.
    fn list(&self) -> Result<Vec<String>>;
}

#[derive(Debug, Clone, Default)]
struct MemFile {
    durable: Vec<u8>,
    volatile: Vec<u8>,
}

impl MemFile {
    fn view(&self) -> Vec<u8> {
        let mut all = self.durable.clone();
        all.extend_from_slice(&self.volatile);
        all
    }
}

/// In-memory simulated disk with a durable/volatile split and
/// write-fault injection. `Clone` is intentional: tests clone the
/// medium mid-protocol to freeze a crash window, then recover from
/// the clone.
#[derive(Debug, Clone, Default)]
pub struct MemMedium {
    files: BTreeMap<String, MemFile>,
    armed: VecDeque<WriteFault>,
    crashed: bool,
}

impl MemMedium {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm a fault; faults fire in FIFO order, one per matching
    /// operation.
    pub fn arm(&mut self, fault: WriteFault) {
        self.armed.push_back(fault);
    }

    /// Power-cycle: drop every volatile (un-synced) byte, disarm any
    /// remaining faults, and clear the crashed flag. This is the
    /// moment recovery code gets to run.
    pub fn crash(&mut self) {
        for file in self.files.values_mut() {
            file.volatile.clear();
        }
        self.armed.clear();
        self.crashed = false;
    }

    /// Overwrite a file's durable content directly (no fault checks) —
    /// the tool truncation sweeps use to fabricate arbitrary
    /// post-crash disk states.
    pub fn set_file(&mut self, name: &str, bytes: &[u8]) {
        if bytes.is_empty() {
            // keep the file existing but empty, matching publish("")
            self.files.insert(
                name.to_string(),
                MemFile { durable: Vec::new(), volatile: Vec::new() },
            );
        } else {
            self.files.insert(
                name.to_string(),
                MemFile { durable: bytes.to_vec(), volatile: Vec::new() },
            );
        }
    }

    /// The durable prefix of `name` (what survives a crash), if the
    /// file exists.
    pub fn durable_bytes(&self, name: &str) -> Option<Vec<u8>> {
        self.files.get(name).map(|f| f.durable.clone())
    }

    /// Length of the durable prefix of `name` (0 if absent).
    pub fn durable_len(&self, name: &str) -> usize {
        self.files.get(name).map(|f| f.durable.len()).unwrap_or(0)
    }

    fn check_crashed(&self) -> Result<()> {
        if self.crashed {
            Err(StoreError::Crashed)
        } else {
            Ok(())
        }
    }
}

impl Medium for MemMedium {
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.check_crashed()?;
        if matches!(self.armed.front(), Some(WriteFault::Crash)) {
            self.armed.pop_front();
            self.crashed = true;
            return Err(StoreError::Crashed);
        }
        self.files.entry(name.to_string()).or_default().volatile.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        self.check_crashed()?;
        match self.armed.front().copied() {
            Some(WriteFault::Torn { keep }) => {
                self.armed.pop_front();
                let file = self.files.entry(name.to_string()).or_default();
                let keep = keep.min(file.volatile.len());
                file.durable.extend_from_slice(&file.volatile[..keep]);
                file.volatile.clear();
                self.crashed = true;
                Err(StoreError::Crashed)
            }
            Some(WriteFault::ShortFsync) => {
                // fsyncgate: nothing new persisted, error reported,
                // device still alive. The volatile tail is now in an
                // indeterminate state from the caller's perspective.
                self.armed.pop_front();
                Err(StoreError::Io("short fsync: flush failed before reaching stable storage".into()))
            }
            _ => {
                let file = self.files.entry(name.to_string()).or_default();
                let tail = std::mem::take(&mut file.volatile);
                file.durable.extend_from_slice(&tail);
                Ok(())
            }
        }
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.check_crashed()?;
        Ok(self.files.get(name).map(MemFile::view))
    }

    fn publish(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.check_crashed()?;
        match self.armed.front().copied() {
            Some(WriteFault::Torn { .. }) | Some(WriteFault::Crash) => {
                // rename is atomic: a crash during publish leaves the
                // OLD content fully intact.
                self.armed.pop_front();
                self.crashed = true;
                Err(StoreError::Crashed)
            }
            Some(WriteFault::ShortFsync) => {
                self.armed.pop_front();
                Err(StoreError::Io("short fsync during publish".into()))
            }
            None => {
                self.files.insert(
                    name.to_string(),
                    MemFile { durable: bytes.to_vec(), volatile: Vec::new() },
                );
                Ok(())
            }
        }
    }

    fn remove(&mut self, name: &str) -> Result<()> {
        self.check_crashed()?;
        self.files.remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        self.check_crashed()?;
        Ok(self.files.keys().cloned().collect())
    }
}

/// Real-filesystem medium rooted at a directory. Opens files
/// per-operation (no cached handles), publishes via
/// write-temp + fsync + rename + directory fsync.
///
/// This is the workspace's single sanctioned `std::fs` write site;
/// the `clippy.toml` fs entries point every other crate here.
#[derive(Debug, Clone)]
pub struct FsMedium {
    root: PathBuf,
}

fn io_err(what: &str, err: &std::io::Error) -> StoreError {
    StoreError::Io(format!("{what}: {err}"))
}

/// Whether a failed directory fsync means "directories cannot be
/// synced here" rather than "the rename may not be durable": some
/// filesystems reject fsync on a directory handle (`EINVAL`, which std
/// reports as `InvalidInput`, or `Unsupported`), and Windows cannot
/// open a directory as a file at all (`PermissionDenied`). Every other
/// error fails the operation.
fn dir_sync_unsupported(err: &std::io::Error) -> bool {
    use std::io::ErrorKind;
    match err.kind() {
        ErrorKind::InvalidInput | ErrorKind::Unsupported => true,
        ErrorKind::PermissionDenied => cfg!(windows),
        _ => false,
    }
}

impl FsMedium {
    /// Open (creating if needed) a medium rooted at `root`.
    #[expect(clippy::disallowed_methods, reason = "FsMedium is the storage doorway")]
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| io_err("create medium root", &e))?;
        Ok(FsMedium { root })
    }

    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Durability of renames/creates requires fsyncing the parent
    /// directory. A failure is the caller's failure — the rename may
    /// not survive a crash — unless it only says directories cannot be
    /// synced on this platform ([`dir_sync_unsupported`]).
    fn sync_dir(&self) -> Result<()> {
        match std::fs::File::open(&self.root).and_then(|dir| dir.sync_all()) {
            Err(e) if !dir_sync_unsupported(&e) => Err(io_err("fsync medium root", &e)),
            _ => Ok(()),
        }
    }
}

impl Medium for FsMedium {
    #[expect(clippy::disallowed_types, reason = "FsMedium is the storage doorway")]
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| io_err("open for append", &e))?;
        file.write_all(bytes).map_err(|e| io_err("append", &e))?;
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        match std::fs::File::open(self.path(name)) {
            Ok(file) => file.sync_all().map_err(|e| io_err("fsync", &e)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("open for fsync", &e)),
        }
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", &e)),
        }
    }

    #[expect(clippy::disallowed_methods, reason = "FsMedium is the storage doorway")]
    fn publish(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        use std::io::Write as _;
        let tmp = self.path(&format!("{name}.tmp"));
        let dst = self.path(name);
        {
            let mut file =
                std::fs::File::create(&tmp).map_err(|e| io_err("create temp", &e))?;
            file.write_all(bytes).map_err(|e| io_err("write temp", &e))?;
            file.sync_all().map_err(|e| io_err("fsync temp", &e))?;
        }
        std::fs::rename(&tmp, &dst).map_err(|e| io_err("rename into place", &e))?;
        self.sync_dir()
    }

    #[expect(clippy::disallowed_methods, reason = "FsMedium is the storage doorway")]
    fn remove(&mut self, name: &str) -> Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", &e)),
        }
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        let entries =
            std::fs::read_dir(&self.root).map_err(|e| io_err("list medium root", &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir entry", &e))?;
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                if let Some(name) = entry.file_name().to_str() {
                    if !name.ends_with(".tmp") {
                        names.push(name.to_string());
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_is_visible_but_not_durable_until_sync() {
        let mut m = MemMedium::new();
        m.append("wal", b"hello").unwrap();
        assert_eq!(m.read("wal").unwrap().unwrap(), b"hello");
        assert_eq!(m.durable_len("wal"), 0);
        m.sync("wal").unwrap();
        assert_eq!(m.durable_bytes("wal").unwrap(), b"hello");
    }

    #[test]
    fn crash_discards_volatile_bytes() {
        let mut m = MemMedium::new();
        m.append("wal", b"durable").unwrap();
        m.sync("wal").unwrap();
        m.append("wal", b"+volatile").unwrap();
        m.crash();
        assert_eq!(m.read("wal").unwrap().unwrap(), b"durable");
    }

    #[test]
    fn torn_sync_keeps_a_prefix_and_crashes() {
        let mut m = MemMedium::new();
        m.append("wal", b"0123456789").unwrap();
        m.arm(WriteFault::Torn { keep: 4 });
        assert_eq!(m.sync("wal"), Err(StoreError::Crashed));
        assert_eq!(m.read("wal"), Err(StoreError::Crashed));
        m.crash();
        assert_eq!(m.read("wal").unwrap().unwrap(), b"0123");
    }

    #[test]
    fn short_fsync_persists_nothing_and_does_not_crash() {
        let mut m = MemMedium::new();
        m.append("wal", b"committed").unwrap();
        m.sync("wal").unwrap();
        m.append("wal", b"+lost").unwrap();
        m.arm(WriteFault::ShortFsync);
        assert!(matches!(m.sync("wal"), Err(StoreError::Io(_))));
        assert!(m.read("wal").is_ok(), "a short fsync does not crash the device");
        assert_eq!(m.durable_bytes("wal").unwrap(), b"committed");
        // the un-synced tail dies at the next power cycle
        m.crash();
        assert_eq!(m.read("wal").unwrap().unwrap(), b"committed");
    }

    #[test]
    fn crash_fault_fires_on_append_before_buffering() {
        let mut m = MemMedium::new();
        m.append("wal", b"first").unwrap();
        m.sync("wal").unwrap();
        m.arm(WriteFault::Crash);
        assert_eq!(m.append("wal", b"never"), Err(StoreError::Crashed));
        m.crash();
        assert_eq!(m.read("wal").unwrap().unwrap(), b"first");
    }

    #[test]
    fn publish_is_atomic_under_crash() {
        let mut m = MemMedium::new();
        m.publish("snap", b"old").unwrap();
        m.arm(WriteFault::Crash);
        assert_eq!(m.publish("snap", b"new"), Err(StoreError::Crashed));
        m.crash();
        assert_eq!(m.read("snap").unwrap().unwrap(), b"old");
    }

    #[test]
    fn faults_fire_in_fifo_order() {
        let mut m = MemMedium::new();
        m.arm(WriteFault::ShortFsync);
        m.append("wal", b"x").unwrap();
        assert!(matches!(m.sync("wal"), Err(StoreError::Io(_))));
        m.sync("wal").unwrap(); // no fault left
        assert_eq!(m.durable_bytes("wal").unwrap(), b"x");
    }

    #[test]
    fn list_and_remove() {
        let mut m = MemMedium::new();
        m.publish("b", b"2").unwrap();
        m.publish("a", b"1").unwrap();
        assert_eq!(m.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        m.remove("a").unwrap();
        assert_eq!(m.list().unwrap(), vec!["b".to_string()]);
    }

    fn fs_scratch(name: &str) -> PathBuf {
        let mut p = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/store-scratch"));
        p.push(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn fs_medium_round_trip() {
        let mut m = FsMedium::open(fs_scratch("roundtrip")).unwrap();
        assert_eq!(m.read("wal").unwrap(), None);
        m.append("wal", b"abc").unwrap();
        m.append("wal", b"def").unwrap();
        m.sync("wal").unwrap();
        assert_eq!(m.read("wal").unwrap().unwrap(), b"abcdef");
        m.publish("snap-01", b"state").unwrap();
        assert_eq!(
            m.list().unwrap(),
            vec!["snap-01".to_string(), "wal".to_string()]
        );
        m.publish("wal", b"").unwrap();
        assert_eq!(m.read("wal").unwrap().unwrap(), b"");
        m.remove("snap-01").unwrap();
        assert_eq!(m.list().unwrap(), vec!["wal".to_string()]);
    }
}
