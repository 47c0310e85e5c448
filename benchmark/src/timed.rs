//! Bench-side decorators over the product's public traits.
//!
//! [`TimedFs`], [`TimedBackend`] and [`TimedNet`] forward every call,
//! unchanged and exactly once, to the wrapped [`StorageFs`],
//! [`StorageBackend`] or [`SimNet`], and record how often each call was made
//! and how long it took. They are only installed in the traced run; the
//! tests at the bottom prove they are pure pass-throughs (same data, same
//! errors, same call sequence), because a decorator that dropped or merged
//! a `sync` would be measuring a different program.

use crate::trace::{timed, Tracer};
use oda_serve::net::{ConnId, IoResult, ServerNet, SimNet};
use oda_telemetry::health::HealthReport;
use oda_telemetry::reading::{Reading, Timestamp};
use oda_telemetry::sensor::SensorId;
use oda_telemetry::storage::{BackendKind, FsError, RecoveryReport, StorageBackend, StorageFs};
use oda_telemetry::store::TimeSeriesStore;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn ns(wall: Duration) -> u64 {
    wall.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Counters behind a mutex that is only ever taken *after* the wrapped call
/// has returned, and never across one.
struct Counters<T>(Mutex<T>);

impl<T: Clone + Default> Counters<T> {
    fn new() -> Self {
        Counters(Mutex::new(T::default()))
    }

    fn update(&self, f: impl FnOnce(&mut T)) {
        f(&mut self
            .0
            .lock()
            .expect("decorator counters poisoned by a panicking recorder"));
    }

    fn get(&self) -> T {
        self.0
            .lock()
            .expect("decorator counters poisoned by a panicking recorder")
            .clone()
    }
}

// ----- filesystem ------------------------------------------------------------

/// Point-in-time copy of a [`TimedFs`]'s counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsSnapshot {
    pub append_calls: u64,
    pub append_ns: u64,
    pub append_bytes: u64,
    pub sync_calls: u64,
    pub sync_ns: u64,
    pub write_atomic_calls: u64,
    pub write_atomic_ns: u64,
    pub write_atomic_bytes: u64,
    pub read_calls: u64,
    pub read_ns: u64,
    pub read_bytes: u64,
    /// Per-call `sync` wall times, nanoseconds.
    pub sync_samples_ns: Vec<u64>,
}

impl FsSnapshot {
    /// Adds another filesystem's counters (one per round) to these.
    pub fn add(&mut self, other: &FsSnapshot) {
        self.append_calls += other.append_calls;
        self.append_ns += other.append_ns;
        self.append_bytes += other.append_bytes;
        self.sync_calls += other.sync_calls;
        self.sync_ns += other.sync_ns;
        self.write_atomic_calls += other.write_atomic_calls;
        self.write_atomic_ns += other.write_atomic_ns;
        self.write_atomic_bytes += other.write_atomic_bytes;
        self.read_calls += other.read_calls;
        self.read_ns += other.read_ns;
        self.read_bytes += other.read_bytes;
        self.sync_samples_ns.extend(&other.sync_samples_ns);
    }

    pub fn bytes_written(&self) -> u64 {
        self.append_bytes + self.write_atomic_bytes
    }

    /// Wall time spent inside the filesystem, all operations.
    pub fn busy_ns(&self) -> u64 {
        self.append_ns + self.sync_ns + self.write_atomic_ns + self.read_ns
    }
}

/// Pass-through [`StorageFs`] that counts and times every call.
pub struct TimedFs {
    inner: Arc<dyn StorageFs>,
    tracer: Option<Arc<Tracer>>,
    counters: Counters<FsSnapshot>,
}

impl TimedFs {
    pub fn new(inner: Arc<dyn StorageFs>, tracer: Option<Arc<Tracer>>) -> Self {
        TimedFs {
            inner,
            tracer,
            counters: Counters::new(),
        }
    }

    pub fn snapshot(&self) -> FsSnapshot {
        self.counters.get()
    }

    /// `read` calls so far, without copying the sync samples.
    pub fn read_calls(&self) -> u64 {
        let mut calls = 0;
        self.counters.update(|c| calls = c.read_calls);
        calls
    }
}

impl StorageFs for TimedFs {
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        let (out, wall) = timed(self.tracer.as_deref(), "fs.append", || {
            self.inner.append(path, bytes)
        });
        self.counters.update(|c| {
            c.append_calls += 1;
            c.append_ns += ns(wall);
            c.append_bytes += bytes.len() as u64;
        });
        out
    }

    fn sync(&self, path: &str) -> Result<(), FsError> {
        let (out, wall) = timed(self.tracer.as_deref(), "fs.sync", || self.inner.sync(path));
        self.counters.update(|c| {
            c.sync_calls += 1;
            c.sync_ns += ns(wall);
            c.sync_samples_ns.push(ns(wall));
        });
        out
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
        let (out, wall) = timed(self.tracer.as_deref(), "fs.read", || self.inner.read(path));
        self.counters.update(|c| {
            c.read_calls += 1;
            c.read_ns += ns(wall);
            c.read_bytes += out.as_ref().map_or(0, |bytes| bytes.len() as u64);
        });
        out
    }

    fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        let (out, wall) = timed(self.tracer.as_deref(), "fs.write_atomic", || {
            self.inner.write_atomic(path, bytes)
        });
        self.counters.update(|c| {
            c.write_atomic_calls += 1;
            c.write_atomic_ns += ns(wall);
            c.write_atomic_bytes += bytes.len() as u64;
        });
        out
    }

    fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
        self.inner.truncate(path, len)
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.inner.remove(path)
    }

    fn list(&self) -> Result<Vec<String>, FsError> {
        self.inner.list()
    }

    fn clock_ns(&self) -> u64 {
        self.inner.clock_ns()
    }
}

// ----- storage backend -------------------------------------------------------

/// What a [`TimedBackend`] has seen of `insert_batch`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertTotals {
    pub calls: u64,
    /// Wall nanoseconds inside the wrapped `insert_batch`.
    pub ns: u64,
    pub accepted: u64,
}

/// Pass-through [`StorageBackend`] that times `insert_batch`.
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    counters: Counters<InsertTotals>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn StorageBackend>) -> Self {
        TimedBackend {
            inner,
            counters: Counters::new(),
        }
    }

    pub fn insert_totals(&self) -> InsertTotals {
        self.counters.get()
    }
}

impl StorageBackend for TimedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn store(&self) -> &Arc<TimeSeriesStore> {
        self.inner.store()
    }

    fn insert_batch(&self, sensor: SensorId, readings: &[Reading]) -> usize {
        let (n, wall) = timed(None, "storage.insert_batch", || {
            self.inner.insert_batch(sensor, readings)
        });
        self.counters.update(|c| {
            c.calls += 1;
            c.ns += ns(wall);
            c.accepted += n as u64;
        });
        n
    }

    fn range(&self, sensor: SensorId, start: Timestamp, end: Timestamp) -> Vec<Reading> {
        self.inner.range(sensor, start, end)
    }

    fn flush(&self) -> Result<(), FsError> {
        self.inner.flush()
    }

    fn compact(&self) -> Result<usize, FsError> {
        self.inner.compact()
    }

    fn health_report(&self) -> HealthReport {
        self.inner.health_report()
    }

    fn durable_len(&self) -> u64 {
        self.inner.durable_len()
    }

    fn recovery(&self) -> Option<&RecoveryReport> {
        self.inner.recovery()
    }
}

// ----- network ---------------------------------------------------------------

/// Point-in-time copy of a [`TimedNet`]'s counters (all zero for the bare
/// [`SimNet`] of the measured run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    pub read_calls: u64,
    pub write_calls: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub busy_ns: u64,
}

impl NetSnapshot {
    /// Adds another transport's counters (one per round) to these.
    pub fn add(&mut self, other: &NetSnapshot) {
        self.read_calls += other.read_calls;
        self.write_calls += other.write_calls;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.busy_ns += other.busy_ns;
    }
}

/// Pass-through [`ServerNet`] over a [`SimNet`] that counts calls and bytes.
pub struct TimedNet {
    inner: Arc<SimNet>,
    tracer: Option<Arc<Tracer>>,
    counters: Counters<NetSnapshot>,
}

impl ServerNet for TimedNet {
    fn poll_accept(&self) -> Option<ConnId> {
        self.inner.poll_accept()
    }

    fn read(&self, conn: ConnId, buf: &mut [u8]) -> IoResult {
        let (out, wall) = timed(self.tracer.as_deref(), "net.read", || {
            self.inner.read(conn, buf)
        });
        self.counters.update(|c| {
            c.read_calls += 1;
            c.busy_ns += ns(wall);
            if let IoResult::Ready(n) = out {
                c.bytes_in += n as u64;
            }
        });
        out
    }

    fn write(&self, conn: ConnId, data: &[u8]) -> IoResult {
        let (out, wall) = timed(self.tracer.as_deref(), "net.write", || {
            self.inner.write(conn, data)
        });
        self.counters.update(|c| {
            c.write_calls += 1;
            c.busy_ns += ns(wall);
            if let IoResult::Ready(n) = out {
                c.bytes_out += n as u64;
            }
        });
        out
    }

    fn close(&self, conn: ConnId) {
        self.inner.close(conn)
    }

    fn clock_ns(&self) -> u64 {
        self.inner.clock_ns()
    }
}

/// The transport a benchmark server runs over: the bare [`SimNet`] in the
/// measured run, a [`TimedNet`] around it in the traced run. The client
/// side always talks to the [`SimNet`] directly.
pub trait BenchNet: ServerNet + Sized + 'static {
    fn over(sim: Arc<SimNet>, tracer: Option<Arc<Tracer>>) -> Arc<Self>;
    fn net_snapshot(&self) -> NetSnapshot;
}

impl BenchNet for SimNet {
    fn over(sim: Arc<SimNet>, _tracer: Option<Arc<Tracer>>) -> Arc<Self> {
        sim
    }

    fn net_snapshot(&self) -> NetSnapshot {
        NetSnapshot::default()
    }
}

impl BenchNet for TimedNet {
    fn over(sim: Arc<SimNet>, tracer: Option<Arc<Tracer>>) -> Arc<Self> {
        Arc::new(TimedNet {
            inner: sim,
            tracer,
            counters: Counters::new(),
        })
    }

    fn net_snapshot(&self) -> NetSnapshot {
        self.counters.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry::storage::{open_backend, SimFs, StorageConfig};

    /// A [`SimFs`] that logs every call it receives, so two runs of one
    /// script can be compared call for call.
    struct LogFs {
        sim: SimFs,
        log: Mutex<Vec<String>>,
    }

    impl LogFs {
        fn new() -> Self {
            LogFs {
                sim: SimFs::new(),
                log: Mutex::new(Vec::new()),
            }
        }

        fn note(&self, call: String) {
            self.log.lock().unwrap().push(call);
        }

        fn calls(&self) -> Vec<String> {
            self.log.lock().unwrap().clone()
        }
    }

    impl StorageFs for LogFs {
        fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.note(format!("append {path} {bytes:?}"));
            self.sim.append(path, bytes)
        }
        fn sync(&self, path: &str) -> Result<(), FsError> {
            self.note(format!("sync {path}"));
            self.sim.sync(path)
        }
        fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
            self.note(format!("read {path}"));
            self.sim.read(path)
        }
        fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.note(format!("write_atomic {path} {bytes:?}"));
            self.sim.write_atomic(path, bytes)
        }
        fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
            self.note(format!("truncate {path} {len}"));
            self.sim.truncate(path, len)
        }
        fn remove(&self, path: &str) -> Result<(), FsError> {
            self.note(format!("remove {path}"));
            self.sim.remove(path)
        }
        fn list(&self) -> Result<Vec<String>, FsError> {
            self.note("list".to_string());
            self.sim.list()
        }
        fn clock_ns(&self) -> u64 {
            self.note("clock_ns".to_string());
            self.sim.clock_ns()
        }
    }

    /// Every trait method, with successes, errors and a crash in between;
    /// returns each call's outcome rendered as text.
    fn fs_script(fs: &dyn StorageFs) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!("{:?}", fs.read("missing")));
        out.push(format!("{:?}", fs.sync("missing")));
        out.push(format!("{:?}", fs.remove("missing")));
        out.push(format!("{:?}", fs.truncate("missing", 0)));
        out.push(format!("{:?}", fs.append("wal.log", b"abc")));
        out.push(format!("{:?}", fs.append("wal.log", b"defg")));
        out.push(format!("{:?}", fs.sync("wal.log")));
        out.push(format!("{:?}", fs.append("wal.log", b"tail")));
        out.push(format!("{:?}", fs.read("wal.log")));
        out.push(format!("{:?}", fs.write_atomic("seg-1.seg", &[9; 40])));
        out.push(format!("{:?}", fs.truncate("wal.log", 5)));
        out.push(format!("{:?}", fs.list()));
        out.push(format!("{:?}", fs.remove("seg-1.seg")));
        out.push(format!("{:?}", fs.read("seg-1.seg")));
        out.push(format!("{:?}", fs.clock_ns()));
        out
    }

    #[test]
    fn timed_fs_is_a_pure_pass_through() {
        let bare = Arc::new(LogFs::new());
        let wrapped = Arc::new(LogFs::new());
        let tracer = Arc::new(Tracer::new());
        let timed_fs = TimedFs::new(
            Arc::clone(&wrapped) as Arc<dyn StorageFs>,
            Some(Arc::clone(&tracer)),
        );
        assert_eq!(fs_script(bare.as_ref()), fs_script(&timed_fs));
        // Same calls, same arguments, same order — nothing dropped or merged.
        assert_eq!(bare.calls(), wrapped.calls());
        // Same bytes visible and durable; every sync reached the filesystem.
        assert_eq!(bare.sim.read("wal.log"), wrapped.sim.read("wal.log"));
        assert_eq!(
            bare.sim.durable_len("wal.log"),
            wrapped.sim.durable_len("wal.log")
        );
        assert_eq!(bare.sim.sync_count(), wrapped.sim.sync_count());
        bare.sim.crash();
        wrapped.sim.crash();
        assert_eq!(bare.sim.read("wal.log"), wrapped.sim.read("wal.log"));

        let snap = timed_fs.snapshot();
        assert_eq!(snap.append_calls, 3);
        assert_eq!(snap.sync_calls, 2);
        assert_eq!(snap.sync_samples_ns.len(), 2);
        assert_eq!(snap.write_atomic_calls, 1);
        assert_eq!(snap.read_calls, 3);
        assert_eq!((snap.append_bytes, snap.write_atomic_bytes), (11, 40));
        assert_eq!(snap.bytes_written(), 51);
        assert_eq!(snap.read_bytes, 11);
        assert_eq!(tracer.totals()["fs.sync"].0, 2);
    }

    fn reading(ts: u64, value: f64) -> Reading {
        Reading::new(Timestamp::from_millis(ts), value)
    }

    /// Inserts (accepted, out-of-order and non-finite), flush, compact and
    /// scans; returns each call's outcome rendered as text.
    fn backend_script(backend: &dyn StorageBackend) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..40u64 {
            let sensor = SensorId((i % 3) as u32);
            out.push(format!(
                "{}",
                backend.insert_batch(sensor, &[reading(i * 10, i as f64)])
            ));
        }
        out.push(format!(
            "{}",
            backend.insert_batch(SensorId(0), &[reading(5, 1.0), reading(900, f64::NAN)])
        ));
        out.push(format!("{:?}", backend.flush()));
        out.push(format!(
            "{:?}",
            backend.range(SensorId(1), Timestamp::ZERO, Timestamp::MAX)
        ));
        out.push(format!("{:?}", backend.compact()));
        out.push(format!("{}", backend.durable_len()));
        out.push(format!("{:?}", backend.kind()));
        out.push(format!("{:?}", backend.recovery()));
        out.push(format!("{:?}", backend.health_report()));
        out.push(format!("{}", backend.store().total_len()));
        out
    }

    fn small_persistent() -> StorageConfig {
        let mut cfg = StorageConfig::persistent();
        cfg.engine.segment_max_readings = 8;
        cfg.engine.wal_sync_every = 2;
        cfg
    }

    fn open(fs: &Arc<LogFs>) -> Arc<dyn StorageBackend> {
        let store = Arc::new(TimeSeriesStore::with_capacity(64));
        open_backend(
            &small_persistent(),
            Arc::clone(fs) as Arc<dyn StorageFs>,
            store,
        )
        .unwrap()
    }

    #[test]
    fn timed_backend_is_a_pure_pass_through() {
        let bare_fs = Arc::new(LogFs::new());
        let wrapped_fs = Arc::new(LogFs::new());
        let bare = open(&bare_fs);
        let timed_backend = TimedBackend::new(open(&wrapped_fs));
        assert_eq!(
            backend_script(bare.as_ref()),
            backend_script(&timed_backend)
        );
        // The engine under the decorator issued the identical I/O sequence,
        // so both filesystems hold identical bytes.
        assert_eq!(bare_fs.calls(), wrapped_fs.calls());
        assert_eq!(bare_fs.sim.sync_count(), wrapped_fs.sim.sync_count());
        for name in bare_fs.sim.list().unwrap() {
            assert_eq!(bare_fs.sim.read(&name), wrapped_fs.sim.read(&name));
        }
        let totals = timed_backend.insert_totals();
        assert_eq!((totals.calls, totals.accepted), (41, 40));
    }

    /// Plays one client/server exchange with partial reads and chunked
    /// writes; returns every outcome the server side observed.
    fn net_script(client: &SimNet, server: &dyn ServerNet) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!("{:?}", server.poll_accept()));
        let conn = client.connect();
        out.push(format!("{:?}", server.poll_accept()));
        let mut buf = [0u8; 4];
        out.push(format!("{:?}", server.read(conn, &mut buf)));
        client.client_send(conn, b"hello world");
        for _ in 0..4 {
            let r = server.read(conn, &mut buf);
            out.push(format!("{r:?} {buf:?}"));
        }
        out.push(format!("{:?}", server.write(conn, &[7u8; 10])));
        out.push(format!("{:?}", server.write(conn, &[])));
        out.push(format!("{:?}", client.client_recv(conn)));
        out.push(format!("{:?}", server.read(ConnId(99), &mut buf)));
        out.push(format!("{:?}", server.write(ConnId(99), b"x")));
        client.client_close(conn);
        out.push(format!("{:?}", server.read(conn, &mut buf)));
        server.close(conn);
        out.push(format!("{:?}", server.write(conn, b"late")));
        out.push(format!("{}", client.server_closed(conn)));
        out.push(format!("{}", server.clock_ns()));
        out
    }

    #[test]
    fn timed_net_is_a_pure_pass_through() {
        let bare = Arc::new(SimNet::new().with_write_chunk(4));
        let sim = Arc::new(SimNet::new().with_write_chunk(4));
        let timed_net = TimedNet::over(Arc::clone(&sim), Some(Arc::new(Tracer::new())));
        assert_eq!(
            net_script(&bare, bare.as_ref()),
            net_script(&sim, timed_net.as_ref())
        );
        // Same number of transport operations: the logical clocks agree.
        assert_eq!(bare.now_ns(), sim.now_ns());
        let snap = timed_net.net_snapshot();
        assert_eq!(snap.bytes_in, 11);
        assert_eq!(snap.bytes_out, 4);
        assert_eq!(snap.read_calls, 7);
        assert_eq!(snap.write_calls, 4);
    }
}
