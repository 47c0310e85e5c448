//! Ingest soak — the self-observability baseline benchmark.
//!
//! Drives the full telemetry data path — `TelemetryBus::publish` →
//! `TimeSeriesStore` archive → `Query` read-back — on a synthetic fleet and
//! measures:
//!
//! * **ingest throughput** (readings/s sustained through publish+archive),
//! * **query latency** p50/p99 over a fixed mixed query workload,
//! * **metrics overhead** — the same soak run against a live
//!   [`MetricsRegistry`] and against [`MetricsRegistry::disabled`]; the
//!   wall-clock delta is the price of the observability layer,
//! * **rollup-tier savings** — a long-window fleet aggregate answered
//!   through the planner's rollup tiers and again with [`Query::raw_scan`];
//!   the paired latencies and readings-scanned deltas quantify what the
//!   multi-resolution archive buys (the answers themselves are asserted
//!   bit-identical, since the soak's synthetic values are dyadic).
//!
//! `cargo run --release -p oda-bench --bin ingest` prints the paired result
//! as one JSON object; CI pins it as `BENCH_ingest.json` at the repo root.
//! The *shape* of the workload is fully deterministic (fixed sensor count,
//! batch sizes, synthetic values), so count-valued metrics reproduce
//! exactly; only wall-clock figures vary run to run.

use oda_telemetry::bus::TelemetryBus;
use oda_telemetry::metrics::{MetricsRegistry, MetricsSnapshot};
use oda_telemetry::query::{Aggregation, Query, QueryEngine, TimeRange};
use oda_telemetry::reading::{Reading, ReadingBatch, Timestamp};
use oda_telemetry::sensor::{SensorKind, SensorRegistry, Unit};
use oda_telemetry::store::{RollupConfig, TimeSeriesStore};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Ingest soak parameters.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of synthetic sensors (`/hw/nodeN/power_w`).
    pub sensors: usize,
    /// Publish rounds; each round publishes one batch per sensor.
    pub rounds: usize,
    /// Readings per batch.
    pub readings_per_batch: usize,
    /// Per-sensor ring capacity.
    pub store_capacity: usize,
    /// Queries per flavour in the read-back phase.
    pub queries: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            sensors: 64,
            rounds: 400,
            readings_per_batch: 16,
            store_capacity: 8_192,
            queries: 200,
        }
    }
}

impl IngestConfig {
    /// A smaller workload for unit tests.
    pub fn smoke() -> Self {
        IngestConfig {
            sensors: 8,
            rounds: 20,
            readings_per_batch: 4,
            store_capacity: 256,
            queries: 10,
        }
    }
}

/// Result of one soak against one recorder.
#[derive(Debug, Clone, Serialize)]
pub struct IngestReport {
    /// Whether the soak recorded into a live registry.
    pub metrics_enabled: bool,
    /// Total readings pushed through publish+archive.
    pub readings_total: u64,
    /// Wall time of the publish phase, nanoseconds.
    pub publish_wall_ns: u64,
    /// Sustained ingest rate, readings per second.
    pub throughput_rps: f64,
    /// Queries executed in the read-back phase.
    pub queries_run: u64,
    /// Median query latency, nanoseconds (measured externally, so it is
    /// comparable between the enabled and disabled runs).
    pub query_p50_ns: u64,
    /// 99th-percentile query latency, nanoseconds.
    pub query_p99_ns: u64,
    /// Batches delivered to the soak's subscriber.
    pub delivered_total: u64,
    /// Batches shed on the subscriber's full buffer.
    pub shed_total: u64,
    /// Long-window fleet-query phase (rollup planner vs forced raw scan).
    pub longwin: LongWindowReport,
}

/// Result of the long-window fleet-aggregate phase: the same whole-window
/// fleet query answered through the rollup planner and again with
/// [`Query::raw_scan`], so the tier savings are measured on identical work.
/// Counter-valued fields are zero when the soak ran with metrics disabled.
#[derive(Debug, Clone, Serialize)]
pub struct LongWindowReport {
    /// Fleet queries per path (tiered and raw each ran this many).
    pub queries_run: u64,
    /// Median planner-served fleet-query latency, nanoseconds.
    pub tiered_p50_ns: u64,
    /// 99th-percentile planner-served fleet-query latency, nanoseconds.
    pub tiered_p99_ns: u64,
    /// Median forced-raw fleet-query latency, nanoseconds.
    pub raw_p50_ns: u64,
    /// 99th-percentile forced-raw fleet-query latency, nanoseconds.
    pub raw_p99_ns: u64,
    /// Raw readings materialised by the tiered phase (head/tail edges only).
    pub tiered_readings_scanned: u64,
    /// Readings the planner avoided rescanning by serving rollup buckets.
    pub readings_avoided: u64,
    /// Per-sensor tier hits recorded during the tiered phase.
    pub tier_hits: u64,
    /// Raw readings materialised by the forced-raw phase.
    pub raw_readings_scanned: u64,
    /// `raw_readings_scanned / max(tiered_readings_scanned, 1)` — how many
    /// times fewer readings the planner touched for the same answers.
    pub scan_reduction_x: f64,
}

/// Exact percentile over an already-sorted latency list.
fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx]
}

/// Runs the publish→archive→query soak against `metrics`, returning the
/// report and the final metrics snapshot (empty when disabled).
pub fn run_ingest(cfg: &IngestConfig, metrics: MetricsRegistry) -> (IngestReport, MetricsSnapshot) {
    let metrics_enabled = metrics.is_enabled();
    let registry = SensorRegistry::new();
    let sensors: Vec<_> = (0..cfg.sensors)
        .map(|i| {
            registry.register(
                &format!("/hw/node{i}/power_w"),
                SensorKind::Power,
                Unit::Watts,
            )
        })
        .collect();
    let store = Arc::new(TimeSeriesStore::with_rollups(
        cfg.store_capacity,
        TimeSeriesStore::DEFAULT_SHARDS,
        metrics.clone(),
        RollupConfig::default(),
    ));
    let bus = TelemetryBus::with_parts(registry, Some(Arc::clone(&store)), metrics.clone());
    // One live subscriber so the fan-out path is exercised; drained each
    // round so it never sheds.
    let sub = bus
        .subscription("/hw/**")
        .capacity(cfg.sensors * 2)
        .named("ingest-soak")
        .subscribe();

    // Publish phase: deterministic synthetic values, monotone timestamps.
    let publish_start = Instant::now();
    let mut readings_total = 0u64;
    for round in 0..cfg.rounds {
        for (i, &sensor) in sensors.iter().enumerate() {
            let readings: Vec<Reading> = (0..cfg.readings_per_batch)
                .map(|k| {
                    let ts = (round * cfg.readings_per_batch + k) as u64 * 1_000;
                    let value = 100.0 + (i as f64) + (k as f64) * 0.25;
                    Reading::new(Timestamp::from_millis(ts), value)
                })
                .collect();
            readings_total += readings.len() as u64;
            bus.publish(ReadingBatch { sensor, readings });
        }
        while sub.rx.try_recv().is_ok() {}
    }
    let publish_wall_ns = publish_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    // Query phase: a mixed read-back workload (scalar aggregate, downsample,
    // raw scan) cycled across sensors; latencies measured externally so the
    // enabled and disabled runs are directly comparable.
    let engine = QueryEngine::new(&store);
    let all = TimeRange::all();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(cfg.queries * 3);
    let mut timed = |query: Query| {
        let t = Instant::now();
        let result = query.run(&engine);
        latencies_ns.push(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        result
    };
    for qi in 0..cfg.queries {
        let s = sensors[qi % sensors.len()];
        let mean = timed(Query::sensors(s).range(all).aggregate(Aggregation::Mean)).scalar();
        assert!(mean.is_some(), "soak store must have data for every sensor");
        let buckets = timed(
            Query::sensors(s)
                .range(all)
                .downsample(10_000, Aggregation::Max),
        )
        .buckets();
        assert!(!buckets.is_empty());
        let readings = timed(Query::sensors(s).range(all)).readings();
        assert!(!readings.is_empty());
    }
    latencies_ns.sort_unstable();

    // Long-window fleet phase: one whole-window aggregate spanning every
    // sensor, answered through the rollup planner and then again with the
    // planner bypassed. The soak's values (100 + i + k/4) are dyadic, so
    // tier partial sums are bit-exact and both paths must agree exactly.
    let longwin_queries = cfg.queries.max(1);
    let scanned_of = |snap: &MetricsSnapshot, id: &str| snap.counter(id).unwrap_or(0);
    let fleet_mean = |raw: bool| -> Vec<Option<f64>> {
        let mut q = Query::sensors(sensors.as_slice())
            .range(all)
            .aggregate(Aggregation::Mean);
        if raw {
            q = q.raw_scan();
        }
        q.run(&engine).scalars()
    };
    let before = metrics.snapshot();
    let mut tiered_ns: Vec<u64> = Vec::with_capacity(longwin_queries);
    let mut tiered_answer = Vec::new();
    for _ in 0..longwin_queries {
        let t = Instant::now();
        tiered_answer = fleet_mean(false);
        tiered_ns.push(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    let mid = metrics.snapshot();
    let mut raw_ns: Vec<u64> = Vec::with_capacity(longwin_queries);
    let mut raw_answer = Vec::new();
    for _ in 0..longwin_queries {
        let t = Instant::now();
        raw_answer = fleet_mean(true);
        raw_ns.push(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    let after = metrics.snapshot();
    assert_eq!(
        tiered_answer, raw_answer,
        "rollup-served fleet means must equal the raw rescan bit-for-bit"
    );
    tiered_ns.sort_unstable();
    raw_ns.sort_unstable();
    let delta = |a: &MetricsSnapshot, b: &MetricsSnapshot, id: &str| {
        scanned_of(b, id).saturating_sub(scanned_of(a, id))
    };
    let tiered_scanned = delta(&before, &mid, "query_readings_scanned_total");
    let raw_scanned = delta(&mid, &after, "query_readings_scanned_total");
    let longwin = LongWindowReport {
        queries_run: longwin_queries as u64,
        tiered_p50_ns: percentile(&tiered_ns, 0.50),
        tiered_p99_ns: percentile(&tiered_ns, 0.99),
        raw_p50_ns: percentile(&raw_ns, 0.50),
        raw_p99_ns: percentile(&raw_ns, 0.99),
        tiered_readings_scanned: tiered_scanned,
        readings_avoided: delta(&before, &mid, "query_readings_avoided_total"),
        tier_hits: delta(&before, &mid, "query_tier_hit_total"),
        raw_readings_scanned: raw_scanned,
        scan_reduction_x: raw_scanned as f64 / tiered_scanned.max(1) as f64,
    };

    let pct = |p: f64| -> u64 { percentile(&latencies_ns, p) };
    let elapsed_s = (publish_wall_ns as f64 / 1e9).max(1e-9);
    let report = IngestReport {
        metrics_enabled,
        readings_total,
        publish_wall_ns,
        throughput_rps: readings_total as f64 / elapsed_s,
        queries_run: latencies_ns.len() as u64,
        query_p50_ns: pct(0.50),
        query_p99_ns: pct(0.99),
        delivered_total: bus.delivered_total(),
        shed_total: bus.dropped_total(),
        longwin,
    };
    (report, metrics.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_pushes_every_reading_through_the_path() {
        let cfg = IngestConfig::smoke();
        let (report, snap) = run_ingest(&cfg, MetricsRegistry::new());
        let expected = (cfg.sensors * cfg.rounds * cfg.readings_per_batch) as u64;
        assert_eq!(report.readings_total, expected);
        assert!(report.throughput_rps > 0.0);
        assert_eq!(report.queries_run, (cfg.queries * 3) as u64);
        assert!(report.query_p50_ns <= report.query_p99_ns);
        // The drained subscriber saw every batch, shed nothing.
        assert_eq!(report.delivered_total, (cfg.sensors * cfg.rounds) as u64);
        assert_eq!(report.shed_total, 0);
        // The instrumented path recorded the same totals into the registry.
        assert_eq!(snap.counter("bus_readings_total"), Some(expected));
        let appends: u64 = snap
            .counters
            .iter()
            .filter(|c| c.id.starts_with("store_append_total"))
            .map(|c| c.value)
            .sum();
        assert_eq!(appends, expected);
    }

    #[test]
    fn long_window_phase_tier_hits_and_counts_savings() {
        let cfg = IngestConfig::smoke();
        let (report, _) = run_ingest(&cfg, MetricsRegistry::new());
        let lw = &report.longwin;
        assert_eq!(lw.queries_run, cfg.queries as u64);
        // Every sensor tier-hits on every tiered fleet query...
        assert_eq!(lw.tier_hits, (cfg.queries * cfg.sensors) as u64);
        // ...so the raw path scans at least 5x more readings for the same
        // (exactly equal — asserted inside run_ingest) answers.
        assert!(lw.readings_avoided > 0);
        assert!(
            lw.scan_reduction_x >= 5.0,
            "tiers should avoid >=5x rescans, got {}x",
            lw.scan_reduction_x
        );
        assert!(lw.raw_readings_scanned > lw.tiered_readings_scanned);
        assert!(lw.tiered_p50_ns <= lw.tiered_p99_ns);
        assert!(lw.raw_p50_ns <= lw.raw_p99_ns);
    }

    #[test]
    fn disabled_recorder_runs_the_same_workload_with_no_instruments() {
        let cfg = IngestConfig::smoke();
        let (report, snap) = run_ingest(&cfg, MetricsRegistry::disabled());
        assert!(!report.metrics_enabled);
        assert!(report.throughput_rps > 0.0);
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn same_config_reproduces_count_valued_metrics() {
        let cfg = IngestConfig::smoke();
        let (_, a) = run_ingest(&cfg, MetricsRegistry::new());
        let (_, b) = run_ingest(&cfg, MetricsRegistry::new());
        assert_eq!(a.count_values(), b.count_values());
    }
}
