//! Durable storage: WAL + compressed segment files behind a backend trait.
//!
//! The archive has historically been purely in-memory (sharded ring buffers
//! plus rollup tiers in [`crate::store::TimeSeriesStore`]); a process
//! restart erased it. This module adds a durable tier while keeping the
//! query planner, rollup tiers and health reporting working identically,
//! by fronting the archive with the [`StorageBackend`] trait:
//!
//! - [`InMemoryBackend`] — the status quo: hot store only, nothing durable.
//! - [`DurableBackend`] — a [`PersistentEngine`] (WAL + sealed segments,
//!   see [`engine`]) paired with a hot store **mirror** that serves planner
//!   and rollup queries. On open, the engine replays the durable archive
//!   into the mirror; because replay preserves per-sensor acceptance order,
//!   the recovered hot state is bit-identical whenever the durable history
//!   is complete. Its trait-level [`StorageBackend::range`] always scans
//!   the segments and memtable, and its health report counts an eviction
//!   only when segment retention expires a reading.
//!
//! All I/O flows through the injectable [`StorageFs`] shim ([`fs`]), so
//! crash scenarios — torn writes, short reads, lying fsyncs — are simulated
//! deterministically in tests, and all timing comes from the shim's logical
//! clock rather than the wall clock.

pub mod codec;
pub mod engine;
pub mod fs;
pub mod segment;
pub mod wal;

use std::sync::Arc;

pub use engine::{EngineConfig, PersistentEngine, RecoveryReport};
pub use fs::{FsError, RealFs, SimFs, StorageFs};

use crate::health::HealthReport;
use crate::metrics::Counter;
use crate::reading::{Reading, ReadingBatch, Timestamp};
use crate::sensor::SensorId;
use crate::store::TimeSeriesStore;

/// Which storage backend an archive uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Hot in-memory store only; nothing survives a restart.
    InMemory,
    /// WAL + segments are the source of truth; trait-level range queries
    /// scan the durable files (honest cold-path latency), with the hot
    /// mirror serving only the planner/rollup interfaces.
    Persistent,
}

impl BackendKind {
    /// Stable lowercase name (used in benchmark JSON and config).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::InMemory => "inmemory",
            BackendKind::Persistent => "persistent",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Archive configuration carried through `DataCenterConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Backend selection.
    pub backend: BackendKind,
    /// Engine tuning of the persistent archive. An in-memory archive has no
    /// engine, but a site still hands this tuning to its collector shards,
    /// which always archive persistently.
    pub engine: EngineConfig,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            backend: BackendKind::InMemory,
            engine: EngineConfig::default(),
        }
    }
}

impl StorageConfig {
    /// In-memory archive (the default).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Persistent archive with default engine tuning.
    pub fn persistent() -> Self {
        StorageConfig {
            backend: BackendKind::Persistent,
            ..Self::default()
        }
    }
}

/// Uniform interface over the two archive backends.
///
/// The hot [`TimeSeriesStore`] is always available (it is the store itself
/// for [`InMemoryBackend`], and a replayed mirror for the durable
/// backends), so existing consumers — query planner, rollup tiers, alert
/// evaluation — keep working unchanged over both.
pub trait StorageBackend: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// The hot store serving planner and rollup queries.
    fn store(&self) -> &Arc<TimeSeriesStore>;

    /// Archive a batch: insert into the hot store and, for durable
    /// backends, WAL-log exactly the readings the store accepted. Returns
    /// the number of accepted readings.
    fn insert_batch(&self, sensor: SensorId, readings: &[Reading]) -> usize;

    /// Archive a group of batches — one sampling tick's readings — in
    /// order, as [`insert_batch`](Self::insert_batch) would one at a time.
    /// Durable backends log the whole group with one WAL write and at most
    /// one fsync. Returns the number of accepted readings.
    fn insert_many(&self, batches: &[ReadingBatch]) -> usize {
        batches
            .iter()
            .map(|b| self.insert_batch(b.sensor, &b.readings))
            .sum()
    }

    /// Range query in `[start, end)`: the hot ring for the in-memory
    /// backend, a scan of the durable archive for the durable one.
    fn range(&self, sensor: SensorId, start: Timestamp, end: Timestamp) -> Vec<Reading>;

    /// Fsync any buffered WAL records.
    fn flush(&self) -> Result<(), FsError>;

    /// Run one deterministic compaction pass; returns segments folded.
    fn compact(&self) -> Result<usize, FsError>;

    /// Health report with eviction attribution appropriate to the backend
    /// (see [`DurableBackend::health_report`] for the durable semantics).
    fn health_report(&self) -> HealthReport;

    /// Readings durably stored or represented; 0 for in-memory.
    fn durable_len(&self) -> u64;

    /// Recovery report from open, for durable backends.
    fn recovery(&self) -> Option<&RecoveryReport>;
}

/// The status-quo backend: hot store only.
pub struct InMemoryBackend {
    store: Arc<TimeSeriesStore>,
}

impl std::fmt::Debug for InMemoryBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InMemoryBackend").finish_non_exhaustive()
    }
}

impl InMemoryBackend {
    /// Wrap a hot store.
    pub fn new(store: Arc<TimeSeriesStore>) -> Self {
        InMemoryBackend { store }
    }
}

impl StorageBackend for InMemoryBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::InMemory
    }

    fn store(&self) -> &Arc<TimeSeriesStore> {
        &self.store
    }

    fn insert_batch(&self, sensor: SensorId, readings: &[Reading]) -> usize {
        self.store.insert_batch(sensor, readings)
    }

    fn range(&self, sensor: SensorId, start: Timestamp, end: Timestamp) -> Vec<Reading> {
        self.store.range(sensor, start, end)
    }

    fn flush(&self) -> Result<(), FsError> {
        Ok(())
    }

    fn compact(&self) -> Result<usize, FsError> {
        Ok(0)
    }

    fn health_report(&self) -> HealthReport {
        self.store.health_report()
    }

    fn durable_len(&self) -> u64 {
        0
    }

    fn recovery(&self) -> Option<&RecoveryReport> {
        None
    }
}

/// Persistent backend: hot mirror + [`PersistentEngine`].
pub struct DurableBackend {
    store: Arc<TimeSeriesStore>,
    engine: PersistentEngine,
    recovery: RecoveryReport,
    m_wal_errors: Counter,
    m_read_errors: Counter,
}

impl std::fmt::Debug for DurableBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableBackend")
            .field("engine", &self.engine)
            .finish()
    }
}

impl DurableBackend {
    /// Open the engine over `fs`, replay the durable archive into `store`,
    /// and serve through it. `store` should be freshly constructed.
    pub fn open(
        fs: Arc<dyn StorageFs>,
        engine_cfg: EngineConfig,
        store: Arc<TimeSeriesStore>,
    ) -> Result<Self, FsError> {
        let metrics = store.metrics().clone();
        let (engine, recovery) = PersistentEngine::open(fs, engine_cfg, &metrics)?;
        engine.replay_into(&store)?;
        Ok(DurableBackend {
            store,
            engine,
            recovery,
            m_wal_errors: metrics.counter("storage_wal_errors_total", &[]),
            m_read_errors: metrics.counter("storage_read_errors_total", &[]),
        })
    }

    /// The underlying engine (tests, benches, maintenance).
    pub fn engine(&self) -> &PersistentEngine {
        &self.engine
    }

    /// Inserts a group of batches into the hot store in order and logs
    /// exactly what the ring accepted, as one engine group, so durable
    /// history mirrors hot history. A WAL failure must not take down the
    /// ingest path: the hot store already has the data; the failed group is
    /// surfaced via `storage_wal_errors_total`.
    fn insert_group<'a>(&self, group: impl Iterator<Item = (SensorId, &'a [Reading])>) -> usize {
        let mut accepted: Vec<Reading> = Vec::new();
        // Each batch's sensor and how many of its readings were accepted.
        let mut counts: Vec<(SensorId, usize)> = Vec::with_capacity(group.size_hint().0);
        for (sensor, readings) in group {
            let n = self
                .store
                .insert_batch_accepted(sensor, readings, &mut accepted);
            counts.push((sensor, n));
        }
        let mut records: Vec<(SensorId, &[Reading])> = Vec::with_capacity(counts.len());
        let mut rest = accepted.as_slice();
        for (sensor, n) in counts {
            let (record, tail) = rest.split_at(n);
            records.push((sensor, record));
            rest = tail;
        }
        if self.engine.append_group(&records).is_err() {
            self.m_wal_errors.inc();
        }
        accepted.len()
    }
}

impl StorageBackend for DurableBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Persistent
    }

    fn store(&self) -> &Arc<TimeSeriesStore> {
        &self.store
    }

    fn insert_batch(&self, sensor: SensorId, readings: &[Reading]) -> usize {
        self.insert_group(std::iter::once((sensor, readings)))
    }

    fn insert_many(&self, batches: &[ReadingBatch]) -> usize {
        self.insert_group(batches.iter().map(|b| (b.sensor, b.readings.as_slice())))
    }

    fn range(&self, sensor: SensorId, start: Timestamp, end: Timestamp) -> Vec<Reading> {
        let mut out = Vec::new();
        // This signature cannot carry the error: a failed archive read is
        // counted, and the caller gets what was read before it.
        if self
            .engine
            .range_into(sensor, start, end, &mut out)
            .is_err()
        {
            self.m_read_errors.inc();
        }
        out
    }

    fn flush(&self) -> Result<(), FsError> {
        self.engine.flush()
    }

    fn compact(&self) -> Result<usize, FsError> {
        self.engine.compact()
    }

    /// Health report where `evicted` means **lost from the archive**: a
    /// reading overwritten in the hot ring but still held in a durable
    /// segment has not been evicted from the archive, and must not be
    /// counted; it is counted exactly once when segment retention expires
    /// it. This replaces the ring's per-sensor eviction counts with the
    /// engine's retention-expiry counts.
    fn health_report(&self) -> HealthReport {
        let mut report = self.store.health_report();
        for h in report.sensors.iter_mut() {
            h.evicted = self.engine.expired_for(h.sensor);
        }
        report
    }

    fn durable_len(&self) -> u64 {
        self.engine.durable_len()
    }

    fn recovery(&self) -> Option<&RecoveryReport> {
        Some(&self.recovery)
    }
}

/// Build the backend selected by `cfg` over `fs`, replaying any durable
/// archive into the provided fresh hot `store`.
pub fn open_backend(
    cfg: &StorageConfig,
    fs: Arc<dyn StorageFs>,
    store: Arc<TimeSeriesStore>,
) -> Result<Arc<dyn StorageBackend>, FsError> {
    match cfg.backend {
        BackendKind::InMemory => Ok(Arc::new(InMemoryBackend::new(store))),
        BackendKind::Persistent => Ok(Arc::new(DurableBackend::open(
            fs,
            cfg.engine.clone(),
            store,
        )?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::store::RollupConfig;
    use wal::WAL_FILE;

    fn reading(ts: u64, v: f64) -> Reading {
        Reading {
            ts: Timestamp(ts),
            value: v,
        }
    }

    fn open_persistent(fs: Arc<SimFs>, capacity: usize) -> Arc<dyn StorageBackend> {
        let cfg = StorageConfig {
            backend: BackendKind::Persistent,
            engine: EngineConfig {
                segment_max_readings: 8,
                wal_sync_every: 1,
                ..EngineConfig::default()
            },
        };
        let store = Arc::new(TimeSeriesStore::with_capacity(capacity));
        open_backend(&cfg, fs as Arc<dyn StorageFs>, store).unwrap()
    }

    #[test]
    // Touches the real filesystem, which Miri's isolation rejects.
    #[cfg_attr(miri, ignore)]
    fn real_fs_errors_name_the_file() {
        let dir = std::env::temp_dir().join(format!("oda-wal-dir-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(WAL_FILE)).unwrap();
        let fs = Arc::new(RealFs::new(&dir).unwrap());
        let store = Arc::new(TimeSeriesStore::with_capacity(8));
        let err = open_backend(&StorageConfig::persistent(), fs, store)
            .err()
            .expect("a directory is not a WAL");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.to_string().contains(WAL_FILE), "{err}");
    }

    #[test]
    fn in_memory_backend_matches_store() {
        let store = Arc::new(TimeSeriesStore::with_capacity(16));
        let backend = InMemoryBackend::new(Arc::clone(&store));
        assert_eq!(
            backend.insert_batch(SensorId(1), &[reading(1, 1.0), reading(2, 2.0)]),
            2
        );
        assert_eq!(
            backend
                .range(SensorId(1), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            2
        );
        assert_eq!(backend.durable_len(), 0);
        assert!(backend.recovery().is_none());
        assert_eq!(backend.kind(), BackendKind::InMemory);
    }

    #[test]
    fn durable_backend_survives_reopen() {
        let fs = Arc::new(SimFs::new());
        {
            let backend = open_persistent(Arc::clone(&fs), 64);
            for i in 0..20u64 {
                backend.insert_batch(SensorId(3), &[reading(i * 10, i as f64)]);
            }
            backend.flush().unwrap();
        }
        let backend = open_persistent(fs, 64);
        let rec = backend.recovery().unwrap();
        assert_eq!(rec.readings_recovered, 20);
        assert_eq!(backend.store().series_len(SensorId(3)), 20);
        assert_eq!(
            backend
                .range(SensorId(3), Timestamp::ZERO, Timestamp::MAX)
                .len(),
            20
        );
    }

    #[test]
    fn rejected_readings_never_reach_the_wal() {
        let fs = Arc::new(SimFs::new());
        {
            let backend = open_persistent(Arc::clone(&fs), 64);
            let batch = [
                reading(100, 1.0),
                reading(50, 2.0), // out of order: rejected
                Reading {
                    ts: Timestamp(200),
                    value: f64::NAN,
                }, // non-finite: rejected
                reading(300, 3.0),
            ];
            assert_eq!(backend.insert_batch(SensorId(1), &batch), 2);
            backend.flush().unwrap();
        }
        let backend = open_persistent(fs, 64);
        let got = backend.range(SensorId(1), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].ts, Timestamp(100));
        assert_eq!(got[1].ts, Timestamp(300));
    }

    /// A sealed segment that fails verification must not shorten the
    /// answer silently: the engine returns the error, the backend (whose
    /// `range` signature cannot) counts it under its own name, and a clean
    /// re-read is whole again.
    #[test]
    fn corrupt_segment_read_is_an_error_the_backend_counts() {
        let fs = Arc::new(SimFs::new());
        let metrics = MetricsRegistry::new();
        let store = Arc::new(TimeSeriesStore::with_rollups(
            64,
            1,
            metrics.clone(),
            RollupConfig::default(),
        ));
        let cfg = EngineConfig {
            segment_max_readings: 8,
            wal_sync_every: 1,
            ..EngineConfig::default()
        };
        let backend =
            DurableBackend::open(Arc::clone(&fs) as Arc<dyn StorageFs>, cfg, store).unwrap();
        for i in 0..20u64 {
            backend.insert_batch(SensorId(3), &[reading(i * 10, i as f64)]);
        }
        assert_eq!(backend.engine().segment_counts(), (2, 0));
        let all = |out: &mut Vec<Reading>| {
            backend
                .engine()
                .range_into(SensorId(3), Timestamp::ZERO, Timestamp::MAX, out)
        };

        fs.short_next_reads(1, 10);
        let err = all(&mut Vec::new()).unwrap_err();
        assert!(
            matches!(&err, FsError::Io(msg) if msg.contains(&segment::file_name(1))),
            "error must name the file: {err}"
        );

        fs.short_next_reads(1, 10);
        let short = backend.range(SensorId(3), Timestamp::ZERO, Timestamp::MAX);
        assert!(short.len() < 20);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("storage_read_errors_total"), Some(1));
        assert_eq!(snap.counter("storage_wal_errors_total"), Some(0));

        let mut clean = Vec::new();
        all(&mut clean).unwrap();
        assert_eq!(clean.len(), 20);
        assert_eq!(
            backend.range(SensorId(3), Timestamp::ZERO, Timestamp::MAX),
            clean
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("storage_read_errors_total"), Some(1));
    }

    /// Damage is isolated to the block it hits: a flipped byte in sensor B's
    /// block makes B's read a counted error, while sensor A in the same file
    /// still reads whole. (Before the block directory, a query verified the
    /// whole file, so both reads failed.)
    #[test]
    fn a_damaged_block_fails_only_the_reads_that_need_it() {
        let fs = Arc::new(SimFs::new());
        let metrics = MetricsRegistry::new();
        let store = Arc::new(TimeSeriesStore::with_rollups(
            64,
            1,
            metrics.clone(),
            RollupConfig::default(),
        ));
        let cfg = EngineConfig {
            segment_max_readings: 8,
            wal_sync_every: 1,
            ..EngineConfig::default()
        };
        let backend =
            DurableBackend::open(Arc::clone(&fs) as Arc<dyn StorageFs>, cfg, store).unwrap();
        let (a, b) = (SensorId(1), SensorId(2));
        for i in 0..16u64 {
            let sensor = if i % 2 == 0 { a } else { b };
            backend.insert_batch(sensor, &[reading(i * 10, i as f64)]);
        }
        assert_eq!(backend.engine().segment_counts(), (2, 0));
        let all_a = backend.range(a, Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(all_a.len(), 8);

        let name = segment::file_name(1);
        let mut bytes = fs.read(&name).unwrap();
        let (_, dir) = segment::decode_indexed(&bytes).unwrap();
        let hit = dir.of(b)[0];
        bytes[(hit.offset + hit.len / 2) as usize] ^= 0x01;
        fs.write_atomic(&name, &bytes).unwrap();

        let err = backend
            .engine()
            .range_into(b, Timestamp::ZERO, Timestamp::MAX, &mut Vec::new())
            .unwrap_err();
        assert!(
            matches!(&err, FsError::Io(msg) if msg.starts_with(&name) && msg.contains("checksum")),
            "error names the file: {err}"
        );
        assert!(backend.range(b, Timestamp::ZERO, Timestamp::MAX).is_empty());
        let errors = || metrics.snapshot().counter("storage_read_errors_total");
        assert_eq!(errors(), Some(1));
        assert_eq!(backend.range(a, Timestamp::ZERO, Timestamp::MAX), all_a);
        assert_eq!(errors(), Some(1));
    }

    #[test]
    fn durable_health_does_not_double_count_ring_overwrite_as_eviction() {
        let fs = Arc::new(SimFs::new());
        let backend = open_persistent(fs, 4);
        for i in 0..32u64 {
            backend.insert_batch(SensorId(7), &[reading(i * 10, i as f64)]);
        }
        // The ring overwrote 28 readings, but all 32 are durable: the
        // archive has evicted nothing.
        let ring_evicted = backend.store().sensor_health(SensorId(7)).unwrap().evicted;
        assert_eq!(ring_evicted, 28);
        let report = backend.health_report();
        assert_eq!(report.sensor(SensorId(7)).unwrap().evicted, 0);
        assert_eq!(report.total_evicted(), 0);
    }
}
