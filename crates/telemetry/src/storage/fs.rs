//! Injectable filesystem abstraction for the durable storage engine.
//!
//! All I/O performed by [`crate::storage::PersistentEngine`] goes through the
//! [`StorageFs`] trait so that durability hazards — torn writes, short reads,
//! fsync loss, power cuts — can be simulated deterministically in tests. Two
//! implementations are provided:
//!
//! - [`SimFs`]: an in-memory filesystem that tracks, per file, both the
//!   *visible* contents (what a reader sees now) and the *durable* contents
//!   (what survives a crash, i.e. what has been fsync'd). Fault knobs allow
//!   tests to lose fsyncs, tear the tail of the last append, and serve short
//!   reads.
//! - [`RealFs`]: a thin wrapper over `std::fs` rooted at a directory, using
//!   the write-to-temp-then-rename idiom for atomic replacement.
//!
//! Both expose a **logical** clock ([`StorageFs::clock_ns`]) that advances
//! with I/O operations rather than wall time, keeping the storage layer
//! deterministic and compliant with the workspace lint that bans wall-clock
//! reads from digest-bearing crates.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Error surfaced by [`StorageFs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The named file does not exist.
    NotFound(String),
    /// Any other I/O failure, with a human-readable description.
    Io(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(path) => write!(f, "file not found: {path}"),
            FsError::Io(msg) => write!(f, "storage i/o error: {msg}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Flat-namespace filesystem interface used by the storage engine.
///
/// Paths are plain file names (the engine never uses directories); an
/// implementation may map them onto a root directory. Implementations must be
/// safe to share across threads.
pub trait StorageFs: Send + Sync {
    /// Append `bytes` to the end of `path`, creating the file if absent.
    ///
    /// Appended data is *visible* to subsequent [`read`](Self::read)s
    /// immediately but only becomes *durable* (crash-surviving) after a
    /// successful [`sync`](Self::sync).
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FsError>;

    /// Make all previously appended data of `path` durable (fsync).
    fn sync(&self, path: &str) -> Result<(), FsError>;

    /// Read the entire visible contents of `path`.
    fn read(&self, path: &str) -> Result<Vec<u8>, FsError>;

    /// Read up to `len` visible bytes of `path` starting at `offset`. Fewer
    /// come back when the file ends first (none when `offset` is past the
    /// end) or the read is short; the caller checks the length it needs.
    ///
    /// The default reads the whole file and slices it, so a wrapper that
    /// does not forward this method stays correct, only slower.
    fn read_at(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let bytes = self.read(path)?;
        Ok(clamped(&bytes, offset, len).to_vec())
    }

    /// Atomically replace `path` with `bytes` and make the result durable
    /// (write-temp / fsync / rename on a real filesystem).
    fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), FsError>;

    /// Truncate `path` to `len` bytes. Used to drop a torn WAL tail; the
    /// truncation is treated as immediately durable.
    fn truncate(&self, path: &str, len: u64) -> Result<(), FsError>;

    /// Remove `path`. Removing a missing file is an error.
    fn remove(&self, path: &str) -> Result<(), FsError>;

    /// List all file names in the store, sorted lexicographically.
    fn list(&self) -> Result<Vec<String>, FsError>;

    /// Logical clock in nanoseconds. Advances with I/O activity, not wall
    /// time, so fsync timing and recovery timing stay deterministic.
    fn clock_ns(&self) -> u64;
}

/// The part of `bytes` in `[offset, offset + len)` that exists.
fn clamped(bytes: &[u8], offset: u64, len: usize) -> &[u8] {
    let start = usize::try_from(offset).map_or(bytes.len(), |o| o.min(bytes.len()));
    let end = start.saturating_add(len).min(bytes.len());
    bytes.get(start..end).unwrap_or(&[])
}

/// Per-file state tracked by [`SimFs`].
#[derive(Debug, Clone, Default)]
struct SimFile {
    /// Contents visible to readers right now.
    data: Vec<u8>,
    /// Contents that survive a crash (everything fsync'd so far).
    durable: Vec<u8>,
    /// Whether the file's existence itself has been made durable. A file
    /// created and never synced disappears entirely on crash.
    created_durably: bool,
}

#[derive(Debug, Default)]
struct SimState {
    files: BTreeMap<String, SimFile>,
    /// File that received the most recent append — the candidate for a torn
    /// tail on [`SimFs::crash_torn`].
    last_appended: Option<String>,
    /// Number of upcoming sync/write_atomic durability points that will be
    /// silently lost (the call still reports success — a "lying fsync").
    lose_syncs: u32,
    /// Number of upcoming `sync` calls that will fail, changing nothing.
    fail_syncs: u32,
    /// Number of upcoming reads that will be truncated to `short_read_len`.
    short_reads: u32,
    short_read_len: usize,
    /// Logical operation counter backing `clock_ns`.
    ops: u64,
    /// Number of durability points that actually took effect.
    syncs: u64,
}

/// Deterministic in-memory filesystem with crash and fault simulation.
///
/// Every mutation distinguishes *visible* from *durable* state, so a test can
/// drive the engine to any lifecycle point, call [`crash`](Self::crash) (or
/// [`crash_torn`](Self::crash_torn)), and reopen over exactly the bytes a
/// power cut would have left behind.
#[derive(Debug, Default)]
pub struct SimFs {
    state: Mutex<SimState>,
}

impl SimFs {
    /// Create an empty simulated filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulate a power cut: every file reverts to its durable contents and
    /// files never made durable disappear. Visible state afterwards equals
    /// durable state (the surviving bytes are the new baseline).
    pub fn crash(&self) {
        let mut st = self.state.lock();
        st.files.retain(|_, f| f.created_durably);
        for f in st.files.values_mut() {
            f.data = f.durable.clone();
        }
        st.last_appended = None;
    }

    /// Simulate a power cut that leaves a *torn write*: like
    /// [`crash`](Self::crash), but the file that received the most recent
    /// append keeps the first `keep` bytes of its un-synced suffix. The torn
    /// prefix becomes part of the surviving (durable) contents, modelling a
    /// partial page write that made it to disk.
    pub fn crash_torn(&self, keep: usize) {
        let mut st = self.state.lock();
        let torn = st.last_appended.clone();
        st.files
            .retain(|name, f| f.created_durably || Some(name) == torn.as_ref());
        for (name, f) in st.files.iter_mut() {
            let mut survived = f.durable.clone();
            if Some(name) == torn.as_ref() {
                let pending = f.data.get(f.durable.len()..).unwrap_or(&[]);
                survived.extend_from_slice(pending.get(..keep.min(pending.len())).unwrap_or(&[]));
                f.created_durably = true;
            }
            f.data = survived.clone();
            f.durable = survived;
        }
        st.last_appended = None;
    }

    /// Arrange for the next `n` durability points (sync or atomic write) to
    /// be silently lost while still reporting success — a lying fsync.
    pub fn lose_next_syncs(&self, n: u32) {
        self.state.lock().lose_syncs = n;
    }

    /// Arrange for the next `n` [`sync`](StorageFs::sync) calls to return
    /// an error and make nothing durable — an fsync that reports its failure
    /// (the honest sibling of [`lose_next_syncs`](Self::lose_next_syncs)).
    pub fn fail_next_syncs(&self, n: u32) {
        self.state.lock().fail_syncs = n;
    }

    /// Arrange for the next `n` reads to return at most `len` bytes — a
    /// short read.
    pub fn short_next_reads(&self, n: u32, len: usize) {
        let mut st = self.state.lock();
        st.short_reads = n;
        st.short_read_len = len;
    }

    /// Number of durability points that actually took effect (not lost).
    pub fn sync_count(&self) -> u64 {
        self.state.lock().syncs
    }

    /// Whether `path` currently exists (visible namespace).
    pub fn exists(&self, path: &str) -> bool {
        self.state.lock().files.contains_key(path)
    }

    /// Length in bytes of the durable contents of `path`, if it exists.
    pub fn durable_len(&self, path: &str) -> Option<usize> {
        self.state.lock().files.get(path).map(|f| f.durable.len())
    }
}

impl StorageFs for SimFs {
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        let mut st = self.state.lock();
        st.ops += 1;
        st.files
            .entry(path.to_string())
            .or_default()
            .data
            .extend_from_slice(bytes);
        st.last_appended = Some(path.to_string());
        Ok(())
    }

    fn sync(&self, path: &str) -> Result<(), FsError> {
        let mut st = self.state.lock();
        st.ops += 1;
        if !st.files.contains_key(path) {
            return Err(FsError::NotFound(path.to_string()));
        }
        if st.fail_syncs > 0 {
            st.fail_syncs -= 1;
            return Err(FsError::Io(format!("injected sync failure: {path}")));
        }
        if st.lose_syncs > 0 {
            st.lose_syncs -= 1;
            return Ok(());
        }
        st.syncs += 1;
        if let Some(f) = st.files.get_mut(path) {
            f.durable = f.data.clone();
            f.created_durably = true;
        }
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
        self.read_at(path, 0, usize::MAX)
    }

    /// Copies the slice, cut to the pending short-read length if one is
    /// armed; one logical op either way.
    fn read_at(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let mut st = self.state.lock();
        st.ops += 1;
        let len = if st.short_reads > 0 {
            st.short_reads -= 1;
            len.min(st.short_read_len)
        } else {
            len
        };
        let f = st
            .files
            .get(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        Ok(clamped(&f.data, offset, len).to_vec())
    }

    fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        let mut st = self.state.lock();
        st.ops += 1;
        let lost = if st.lose_syncs > 0 {
            st.lose_syncs -= 1;
            true
        } else {
            st.syncs += 1;
            false
        };
        let f = st.files.entry(path.to_string()).or_default();
        f.data = bytes.to_vec();
        if !lost {
            // Rename + directory fsync took effect: the replacement is durable.
            f.durable = bytes.to_vec();
            f.created_durably = true;
        }
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
        let mut st = self.state.lock();
        st.ops += 1;
        let f = st
            .files
            .get_mut(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let len = len as usize;
        f.data.truncate(len);
        f.durable.truncate(len.min(f.durable.len()));
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        let mut st = self.state.lock();
        st.ops += 1;
        st.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    fn list(&self) -> Result<Vec<String>, FsError> {
        let mut st = self.state.lock();
        st.ops += 1;
        Ok(st.files.keys().cloned().collect())
    }

    fn clock_ns(&self) -> u64 {
        let mut st = self.state.lock();
        st.ops += 1;
        st.ops.saturating_mul(1_000)
    }
}

/// [`StorageFs`] over a real directory via `std::fs`.
///
/// Atomic replacement uses write-temp / fsync / rename / fsync-dir. The
/// clock remains logical (an atomic counter) so the storage layer never
/// reads wall time even on a real filesystem.
#[derive(Debug)]
pub struct RealFs {
    root: PathBuf,
    ops: AtomicU64,
}

impl RealFs {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, FsError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| FsError::Io(format!("{}: {e}", root.display())))?;
        Ok(Self {
            root,
            ops: AtomicU64::new(0),
        })
    }

    fn full(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }

    fn map_err(path: &str, e: std::io::Error) -> FsError {
        if e.kind() == std::io::ErrorKind::NotFound {
            FsError::NotFound(path.to_string())
        } else {
            FsError::Io(format!("{path}: {e}"))
        }
    }
}

impl StorageFs for RealFs {
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        use std::io::Write;
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.full(path))
            .map_err(|e| Self::map_err(path, e))?;
        f.write_all(bytes).map_err(|e| Self::map_err(path, e))
    }

    fn sync(&self, path: &str) -> Result<(), FsError> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let f = std::fs::File::open(self.full(path)).map_err(|e| Self::map_err(path, e))?;
        f.sync_all().map_err(|e| Self::map_err(path, e))
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        std::fs::read(self.full(path)).map_err(|e| Self::map_err(path, e))
    }

    /// Open, seek and read at most `len` bytes: a block costs its own size,
    /// not the file's.
    fn read_at(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        use std::io::{Read, Seek, SeekFrom};
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut f = std::fs::File::open(self.full(path)).map_err(|e| Self::map_err(path, e))?;
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| Self::map_err(path, e))?;
        // `len` may run far past the file: bound the up-front allocation.
        let mut out = Vec::with_capacity(len.min(1 << 20));
        f.take(len as u64)
            .read_to_end(&mut out)
            .map_err(|e| Self::map_err(path, e))?;
        Ok(out)
    }

    fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let tmp = self.full(&format!("{path}.tmp"));
        std::fs::write(&tmp, bytes).map_err(|e| Self::map_err(path, e))?;
        let f = std::fs::File::open(&tmp).map_err(|e| Self::map_err(path, e))?;
        f.sync_all().map_err(|e| Self::map_err(path, e))?;
        std::fs::rename(&tmp, self.full(path)).map_err(|e| Self::map_err(path, e))?;
        if let Ok(dir) = std::fs::File::open(&self.root) {
            // Directory fsync is best-effort: not all platforms support it.
            let _ = dir.sync_all();
        }
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.full(path))
            .map_err(|e| Self::map_err(path, e))?;
        f.set_len(len).map_err(|e| Self::map_err(path, e))
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        std::fs::remove_file(self.full(path)).map_err(|e| Self::map_err(path, e))
    }

    fn list(&self) -> Result<Vec<String>, FsError> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut names = Vec::new();
        let root_err = |e| FsError::Io(format!("{}: {e}", self.root.display()));
        for entry in std::fs::read_dir(&self.root).map_err(root_err)? {
            let entry = entry.map_err(root_err)?;
            let is_file = entry.file_type().map(|t| t.is_file()).unwrap_or(false);
            if !is_file {
                continue;
            }
            if let Ok(name) = entry.file_name().into_string() {
                if !name.ends_with(".tmp") {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    fn clock_ns(&self) -> u64 {
        self.ops
            .fetch_add(1, Ordering::Relaxed)
            .saturating_mul(1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_is_visible_but_not_durable_until_sync() {
        let fs = SimFs::new();
        fs.append("wal", b"hello").unwrap();
        assert_eq!(fs.read("wal").unwrap(), b"hello");
        fs.crash();
        // Never synced: file disappears entirely.
        assert!(matches!(fs.read("wal"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn sync_makes_data_survive_crash() {
        let fs = SimFs::new();
        fs.append("wal", b"hello").unwrap();
        fs.sync("wal").unwrap();
        fs.append("wal", b" world").unwrap();
        fs.crash();
        assert_eq!(fs.read("wal").unwrap(), b"hello");
    }

    #[test]
    fn crash_torn_keeps_prefix_of_pending_tail() {
        let fs = SimFs::new();
        fs.append("wal", b"abcd").unwrap();
        fs.sync("wal").unwrap();
        fs.append("wal", b"efgh").unwrap();
        fs.crash_torn(2);
        assert_eq!(fs.read("wal").unwrap(), b"abcdef");
        // The torn bytes are now the durable baseline.
        fs.crash();
        assert_eq!(fs.read("wal").unwrap(), b"abcdef");
    }

    #[test]
    fn lying_fsync_loses_durability_point() {
        let fs = SimFs::new();
        fs.append("wal", b"abcd").unwrap();
        fs.lose_next_syncs(1);
        fs.sync("wal").unwrap(); // reports success, does nothing
        fs.crash();
        assert!(matches!(fs.read("wal"), Err(FsError::NotFound(_))));
        assert_eq!(fs.sync_count(), 0);
    }

    #[test]
    fn failed_sync_reports_and_leaves_data_volatile_until_a_later_sync() {
        let fs = SimFs::new();
        fs.append("wal", b"abcd").unwrap();
        fs.fail_next_syncs(1);
        assert!(matches!(fs.sync("wal"), Err(FsError::Io(_))));
        assert_eq!(fs.sync_count(), 0);
        assert_eq!(fs.read("wal").unwrap(), b"abcd"); // still visible
        fs.sync("wal").unwrap();
        fs.crash();
        assert_eq!(fs.read("wal").unwrap(), b"abcd");
    }

    #[test]
    fn lost_write_atomic_keeps_old_durable_contents() {
        let fs = SimFs::new();
        fs.write_atomic("seg", b"old").unwrap();
        fs.lose_next_syncs(1);
        fs.write_atomic("seg", b"new").unwrap();
        assert_eq!(fs.read("seg").unwrap(), b"new"); // visible now
        fs.crash();
        assert_eq!(fs.read("seg").unwrap(), b"old"); // rename lost
    }

    #[test]
    fn short_read_truncates_and_expires() {
        let fs = SimFs::new();
        fs.append("seg", b"0123456789").unwrap();
        fs.short_next_reads(1, 4);
        assert_eq!(fs.read("seg").unwrap(), b"0123");
        assert_eq!(fs.read("seg").unwrap(), b"0123456789");
    }

    #[test]
    fn read_at_slices_honours_short_reads_and_ticks_the_clock() {
        let fs = SimFs::new();
        fs.append("seg", b"0123456789").unwrap();
        let before = fs.clock_ns();
        assert_eq!(fs.read_at("seg", 3, 4).unwrap(), b"3456");
        assert!(fs.clock_ns() > before + 1_000, "read_at is one logical op");
        // Past the end: what exists, then nothing.
        assert_eq!(fs.read_at("seg", 8, 4).unwrap(), b"89");
        assert_eq!(fs.read_at("seg", 12, 4).unwrap(), b"");
        // A short read cuts the slice to the armed length, once.
        fs.short_next_reads(1, 2);
        assert_eq!(fs.read_at("seg", 3, 4).unwrap(), b"34");
        assert_eq!(fs.read_at("seg", 3, 4).unwrap(), b"3456");
        assert!(matches!(
            fs.read_at("missing", 0, 1),
            Err(FsError::NotFound(_))
        ));
    }

    /// A wrapper that forwards only the required methods, as the
    /// benchmark's decorators do: `read_at` is the provided default.
    struct Forwarding(SimFs);

    impl StorageFs for Forwarding {
        fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.0.append(path, bytes)
        }
        fn sync(&self, path: &str) -> Result<(), FsError> {
            self.0.sync(path)
        }
        fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
            self.0.read(path)
        }
        fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.0.write_atomic(path, bytes)
        }
        fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
            self.0.truncate(path, len)
        }
        fn remove(&self, path: &str) -> Result<(), FsError> {
            self.0.remove(path)
        }
        fn list(&self) -> Result<Vec<String>, FsError> {
            self.0.list()
        }
        fn clock_ns(&self) -> u64 {
            self.0.clock_ns()
        }
    }

    #[test]
    fn default_read_at_reads_the_file_and_slices_it() {
        let fs = Forwarding(SimFs::new());
        fs.append("seg", b"0123456789").unwrap();
        for (offset, len) in [(0, 10), (3, 4), (8, 4), (12, 4), (0, usize::MAX)] {
            assert_eq!(
                fs.read_at("seg", offset, len).unwrap(),
                fs.0.read_at("seg", offset, len).unwrap(),
                "offset {offset} len {len}"
            );
        }
        fs.0.short_next_reads(1, 5);
        assert_eq!(fs.read_at("seg", 3, 4).unwrap(), b"34");
    }

    #[test]
    fn truncate_applies_to_visible_and_durable() {
        let fs = SimFs::new();
        fs.append("wal", b"0123456789").unwrap();
        fs.sync("wal").unwrap();
        fs.truncate("wal", 4).unwrap();
        assert_eq!(fs.read("wal").unwrap(), b"0123");
        fs.crash();
        assert_eq!(fs.read("wal").unwrap(), b"0123");
    }

    #[test]
    fn list_is_sorted_and_remove_works() {
        let fs = SimFs::new();
        fs.append("b", b"x").unwrap();
        fs.append("a", b"x").unwrap();
        assert_eq!(fs.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        fs.remove("a").unwrap();
        assert_eq!(fs.list().unwrap(), vec!["b".to_string()]);
        assert!(fs.remove("a").is_err());
    }

    #[test]
    fn logical_clock_is_monotone() {
        let fs = SimFs::new();
        let a = fs.clock_ns();
        fs.append("f", b"x").unwrap();
        let b = fs.clock_ns();
        assert!(b > a);
    }

    #[test]
    // Touches the real filesystem, which Miri's isolation rejects; the
    // SimFs tests cover the same trait surface hermetically.
    #[cfg_attr(miri, ignore)]
    fn real_fs_round_trip() {
        let dir = std::env::temp_dir().join(format!("oda-realfs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = RealFs::new(&dir).unwrap();
        fs.append("wal", b"abc").unwrap();
        fs.sync("wal").unwrap();
        fs.write_atomic("seg-000000000001.seg", b"segment").unwrap();
        assert_eq!(fs.read("wal").unwrap(), b"abc");
        assert_eq!(fs.read("seg-000000000001.seg").unwrap(), b"segment");
        assert_eq!(fs.read_at("seg-000000000001.seg", 2, 3).unwrap(), b"gme");
        assert_eq!(fs.read_at("seg-000000000001.seg", 5, 10).unwrap(), b"nt");
        assert_eq!(fs.read_at("seg-000000000001.seg", 40, 3).unwrap(), b"");
        assert!(matches!(
            fs.read_at("missing", 0, 1),
            Err(FsError::NotFound(_))
        ));
        assert_eq!(
            fs.list().unwrap(),
            vec!["seg-000000000001.seg".to_string(), "wal".to_string()]
        );
        fs.truncate("wal", 1).unwrap();
        assert_eq!(fs.read("wal").unwrap(), b"a");
        fs.remove("wal").unwrap();
        assert!(matches!(fs.read("wal"), Err(FsError::NotFound(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
