//! Storage-backend benchmark — ingest, long-window query, cold-start recovery.
//!
//! Drives the identical deterministic workload through each of the three
//! archive backends ([`BackendKind::InMemory`], [`BackendKind::Persistent`],
//! [`BackendKind::Hybrid`]) over a [`SimFs`] and measures, per backend:
//!
//! * **ingest throughput** — readings/s sustained through
//!   [`StorageBackend::insert_many`], one group per round (hot-store append
//!   plus, for the durable backends, WAL logging and segment sealing), and
//!   the accepted readings each durability point carried,
//! * **long-window query latency** p50/p99 — whole-history range queries
//!   through the trait's [`StorageBackend::range`], so each backend answers
//!   via its own routing policy (ring scan, durable-file decode, or hybrid),
//! * **cold-start recovery** — the backend is dropped and reopened over the
//!   same filesystem; the reopen wall time is the recovery cost, and the
//!   recovered archive's content digest must equal the pre-restart digest
//!   bit-for-bit (the in-memory backend instead proves it recovered
//!   *nothing*, which is its documented contract).
//!
//! The workload shape is fully deterministic, so digests and counts
//! reproduce exactly; only wall-clock figures vary run to run. CI pins the
//! binary's JSON as `BENCH_storage.json` and gates it with
//! `ci/check_bench.py`.

use oda_telemetry::reading::{Reading, ReadingBatch, Timestamp};
use oda_telemetry::sensor::SensorId;
use oda_telemetry::storage::codec::fnv1a64;
use oda_telemetry::storage::{
    open_backend, BackendKind, SimFs, StorageBackend, StorageConfig, StorageFs,
};
use oda_telemetry::store::TimeSeriesStore;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Storage benchmark parameters. The per-sensor ring capacity is always
/// sized to hold the whole workload so all three backends retain identical
/// content and their digests are directly comparable.
#[derive(Debug, Clone)]
pub struct StorageBenchConfig {
    /// Number of synthetic sensors.
    pub sensors: usize,
    /// Ingest rounds; each round appends one batch per sensor.
    pub rounds: usize,
    /// Readings per batch.
    pub readings_per_batch: usize,
    /// Whole-history queries in the read-back phase.
    pub queries: usize,
}

impl Default for StorageBenchConfig {
    fn default() -> Self {
        StorageBenchConfig {
            sensors: 32,
            rounds: 200,
            readings_per_batch: 8,
            queries: 64,
        }
    }
}

impl StorageBenchConfig {
    /// A smaller workload for unit tests.
    pub fn smoke() -> Self {
        StorageBenchConfig {
            sensors: 4,
            rounds: 12,
            readings_per_batch: 4,
            queries: 8,
        }
    }

    /// Readings each sensor receives (also the ring capacity used).
    pub fn per_sensor(&self) -> usize {
        self.rounds * self.readings_per_batch
    }

    /// Total readings pushed through one backend.
    pub fn total(&self) -> u64 {
        (self.sensors * self.per_sensor()) as u64
    }
}

/// One backend's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct BackendReport {
    /// Stable backend name (`inmemory` / `persistent` / `hybrid`).
    pub backend: String,
    /// Readings offered to the backend.
    pub readings_total: u64,
    /// Readings the hot store accepted (equals offered for this workload).
    pub accepted_total: u64,
    /// Wall time of the ingest phase, nanoseconds.
    pub ingest_wall_ns: u64,
    /// Sustained ingest rate, readings per second.
    pub ingest_rps: f64,
    /// Whole-history queries executed.
    pub longwin_queries: u64,
    /// Median whole-history query latency, nanoseconds.
    pub longwin_p50_ns: u64,
    /// 99th-percentile whole-history query latency, nanoseconds.
    pub longwin_p99_ns: u64,
    /// Accepted readings per durability point (WAL fsync or atomic file
    /// write) the ingest phase paid for; 0 for in-memory, which pays none.
    pub readings_per_sync: f64,
    /// Readings durably stored after the final flush (0 for in-memory).
    pub durable_len: u64,
    /// FNV-1a digest of the full archive content before the restart.
    pub digest: u64,
    /// Wall time to reopen the backend over the same filesystem, ns.
    pub recovery_ns: u64,
    /// Readings the reopen recovered from WAL + segments.
    pub recovered_readings: u64,
    /// Durable backends: post-restart digest equals pre-restart digest.
    /// In-memory: the reopen recovered nothing, as documented.
    pub recovered_ok: bool,
}

/// Exact percentile over an already-sorted latency list.
fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx]
}

fn wall_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// FNV-1a digest over every reading the backend serves for the full window,
/// sensor-major in id order, so two archives digest equal iff their visible
/// content is bit-identical.
fn archive_digest(backend: &dyn StorageBackend, sensors: usize) -> u64 {
    let mut bytes = Vec::new();
    for s in 0..sensors {
        let id = SensorId(s as u32);
        bytes.extend_from_slice(&id.0.to_le_bytes());
        for r in backend.range(id, Timestamp::ZERO, Timestamp::MAX) {
            bytes.extend_from_slice(&r.ts.0.to_le_bytes());
            bytes.extend_from_slice(&r.value.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn open_kind(kind: BackendKind, fs: &Arc<SimFs>, capacity: usize) -> Arc<dyn StorageBackend> {
    let cfg = StorageConfig {
        backend: kind,
        ..StorageConfig::default()
    };
    let store = Arc::new(TimeSeriesStore::with_capacity(capacity));
    open_backend(&cfg, Arc::clone(fs) as Arc<dyn StorageFs>, store)
        .expect("bench backend must open over a fresh SimFs")
}

/// Runs the full ingest → query → restart cycle for one backend kind.
pub fn run_backend(kind: BackendKind, cfg: &StorageBenchConfig) -> BackendReport {
    let fs = Arc::new(SimFs::new());
    let capacity = cfg.per_sensor();
    let backend = open_kind(kind, &fs, capacity);

    // Ingest: deterministic monotone timestamps, dyadic values.
    let mut accepted_total = 0u64;
    let ingest_start = Instant::now();
    // Each round — one batch per sensor — goes in as one group, the way a
    // site hands over a sampling tick.
    for round in 0..cfg.rounds {
        let group: Vec<ReadingBatch> = (0..cfg.sensors)
            .map(|s| ReadingBatch {
                sensor: SensorId(s as u32),
                readings: (0..cfg.readings_per_batch)
                    .map(|k| {
                        let seq = (round * cfg.readings_per_batch + k) as u64;
                        let value = (s as u64 * 100_000 + seq) as f64 * 0.5;
                        Reading::new(Timestamp::from_millis(seq * 1_000), value)
                    })
                    .collect(),
            })
            .collect();
        accepted_total += backend.insert_many(&group) as u64;
    }
    backend.flush().expect("SimFs flush cannot fail");
    let ingest_wall_ns = wall_ns(ingest_start);
    let durability_points = fs.sync_count();

    // Long-window read-back through the trait, so every backend answers via
    // its own routing policy.
    let per_sensor = cfg.per_sensor();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(cfg.queries);
    for qi in 0..cfg.queries {
        let id = SensorId((qi % cfg.sensors) as u32);
        let t = Instant::now();
        let got = backend.range(id, Timestamp::ZERO, Timestamp::MAX);
        latencies_ns.push(wall_ns(t));
        assert_eq!(
            got.len(),
            per_sensor,
            "every backend serves the full history"
        );
    }
    latencies_ns.sort_unstable();

    let digest = archive_digest(backend.as_ref(), cfg.sensors);
    let durable_len = backend.durable_len();
    drop(backend);

    // Cold start: reopen over the same filesystem with a fresh hot store and
    // check what came back.
    let recovery_start = Instant::now();
    let reopened = open_kind(kind, &fs, capacity);
    let recovery_ns = wall_ns(recovery_start);
    let recovered_readings = reopened.recovery().map_or(0, |r| r.readings_recovered);
    let recovered_ok = match kind {
        BackendKind::InMemory => {
            recovered_readings == 0 && archive_digest(reopened.as_ref(), cfg.sensors) != digest
        }
        _ => archive_digest(reopened.as_ref(), cfg.sensors) == digest,
    };

    let elapsed_s = (ingest_wall_ns as f64 / 1e9).max(1e-9);
    BackendReport {
        backend: kind.as_str().to_string(),
        readings_total: cfg.total(),
        accepted_total,
        ingest_wall_ns,
        ingest_rps: accepted_total as f64 / elapsed_s,
        longwin_queries: latencies_ns.len() as u64,
        longwin_p50_ns: percentile(&latencies_ns, 0.50),
        longwin_p99_ns: percentile(&latencies_ns, 0.99),
        readings_per_sync: if durability_points == 0 {
            0.0
        } else {
            accepted_total as f64 / durability_points as f64
        },
        durable_len,
        digest,
        recovery_ns,
        recovered_readings,
        recovered_ok,
    }
}

/// Runs every backend on the identical workload and asserts the pre-restart
/// archive digests agree bit-for-bit across all three.
pub fn run_storage(cfg: &StorageBenchConfig) -> Vec<BackendReport> {
    let reports: Vec<BackendReport> = [
        BackendKind::InMemory,
        BackendKind::Persistent,
        BackendKind::Hybrid,
    ]
    .into_iter()
    .map(|kind| run_backend(kind, cfg))
    .collect();
    for r in &reports[1..] {
        assert_eq!(
            r.digest, reports[0].digest,
            "backend {} must serve the identical archive content",
            r.backend
        );
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_backends_serve_identical_content_and_recover() {
        let cfg = StorageBenchConfig::smoke();
        let reports = run_storage(&cfg);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.accepted_total, cfg.total());
            assert!(r.ingest_rps > 0.0);
            assert_eq!(r.longwin_queries, cfg.queries as u64);
            assert!(r.longwin_p50_ns <= r.longwin_p99_ns);
            assert!(r.recovered_ok, "{} failed its recovery contract", r.backend);
        }
        let by_name = |n: &str| reports.iter().find(|r| r.backend == n).unwrap();
        assert_eq!(by_name("inmemory").durable_len, 0);
        assert_eq!(by_name("inmemory").recovered_readings, 0);
        for n in ["persistent", "hybrid"] {
            assert_eq!(by_name(n).durable_len, cfg.total());
            assert_eq!(by_name(n).recovered_readings, cfg.total());
        }
    }

    #[test]
    fn same_config_reproduces_digests_and_counts() {
        let cfg = StorageBenchConfig::smoke();
        let a = run_storage(&cfg);
        let b = run_storage(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest, y.digest);
            assert_eq!(x.durable_len, y.durable_len);
            assert_eq!(x.recovered_readings, y.recovered_readings);
        }
    }
}
