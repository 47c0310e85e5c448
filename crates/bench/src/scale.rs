//! Worker-scaling benchmark for the deterministic capability scheduler.
//!
//! Builds a wide synthetic registry — many independent capabilities spread
//! across the read-only analytics stages — and sweeps the scheduler's
//! worker count, measuring per-pass latency and verifying that every
//! worker count produces **bit-identical** pipeline output.
//!
//! Each synthetic capability is *CPU-bound*: it burns a fixed number of
//! hash rounds (real work the host has to execute, not a sleep the
//! scheduler can overlap for free) and then runs a small deterministic
//! computation seeded from [`CapabilityContext::rng_seed`]. Speed-up from
//! fan-out is therefore bounded by the cores the host actually has, so it
//! is reported for information beside [`ScaleReport::host_parallelism`]
//! and never gated; what `ci/check_bench.py` gates holds on any runner —
//! output equality, the digest, and that fanning out costs at most 15 %
//! over the serial pass at every swept width.

use oda_core::analytics_type::AnalyticsType;
use oda_core::capability::{Artifact, Capability, CapabilityContext};
use oda_core::grid::{GridCell, GridFootprint};
use oda_core::pillar::Pillar;
use oda_core::runtime::{OdaRuntime, RuntimeConfig};
use oda_telemetry::hash::{fnv1a_fold, splitmix64, FNV_OFFSET};
use oda_telemetry::metrics::MetricsRegistry;
use oda_telemetry::plane::{LocalPlane, QueryPlane};
use oda_telemetry::query::TimeRange;
use oda_telemetry::reading::Timestamp;
use oda_telemetry::sensor::SensorRegistry;
use oda_telemetry::store::TimeSeriesStore;
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one scaling sweep.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Synthetic capabilities in the registry, spread evenly across the
    /// Descriptive, Diagnostic and Predictive stages.
    pub caps: usize,
    /// Timed passes per worker count (one extra untimed warm-up pass runs
    /// first so cold caches never land in the measurement).
    pub passes: usize,
    /// Worker counts to sweep; the first entry is the speedup baseline
    /// (conventionally 1).
    pub worker_counts: Vec<usize>,
    /// Scheduler seed; every worker count replays the same seed.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            caps: 48,
            passes: 7,
            worker_counts: vec![1, 2, 4, 8],
            seed: 4242,
        }
    }
}

/// Measurements for one worker count.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerPoint {
    /// Scheduler worker count.
    pub workers: usize,
    /// Median pass latency, nanoseconds.
    pub pass_p50_ns: u64,
    /// 99th-percentile pass latency, nanoseconds.
    pub pass_p99_ns: u64,
    /// Median-pass speedup vs the baseline worker count (informational:
    /// read it against [`ScaleReport::host_parallelism`]).
    pub speedup_x: f64,
    /// Order-sensitive digest over every pass's pipeline output.
    pub digest: u64,
}

/// Everything one sweep measured.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleReport {
    /// Capabilities in the synthetic registry.
    pub caps: usize,
    /// Timed passes per worker count.
    pub passes: usize,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Per-worker-count measurements, in sweep order.
    pub points: Vec<WorkerPoint>,
    /// Whether every worker count produced a bit-identical output-digest
    /// sequence. **Must be true** — gated by `ci/check_bench.py`.
    pub outputs_equal: bool,
}

/// Hash rounds each synthetic capability burns per execution — a little
/// under a millisecond of one core.
const BURN_ROUNDS: u32 = 200_000;

/// A CPU-bound synthetic capability: a fixed burn, then a deterministic
/// seed-derived computation.
struct SyntheticCollector {
    name: String,
    cell: GridCell,
}

impl Capability for SyntheticCollector {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        "synthetic CPU-bound capability (scale bench)"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(self.cell)
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        // The analysis cost fan-out is supposed to spread over cores; the
        // result goes nowhere but `black_box`, so the KPI below (and with
        // it the output digest) does not depend on the burn.
        black_box((0..BURN_ROUNDS).fold(black_box(ctx.rng_seed), |x, _| splitmix64(x)));
        // A short deterministic computation seeded *only* from the
        // scheduler-assigned stream, so output is worker-count-invariant.
        let mut x = ctx.rng_seed;
        for _ in 0..256 {
            x = splitmix64(x);
        }
        vec![Artifact::Kpi {
            name: self.name.clone(),
            value: (x >> 11) as f64 / (1u64 << 53) as f64,
        }]
    }
}

/// The read-only stages the synthetic registry cycles through. Prescriptive
/// is deliberately absent: its footprint-conflict sub-layering is covered by
/// the chaos soak and the runtime property tests, while this bench isolates
/// the scheduler's fan-out behaviour on conflict-free layers.
const STAGES: [AnalyticsType; 3] = [
    AnalyticsType::Descriptive,
    AnalyticsType::Diagnostic,
    AnalyticsType::Predictive,
];

const PILLARS: [Pillar; 4] = [
    Pillar::BuildingInfrastructure,
    Pillar::SystemHardware,
    Pillar::SystemSoftware,
    Pillar::Applications,
];

fn build_runtime(cfg: &ScaleConfig, workers: usize) -> OdaRuntime {
    let mut runtime = OdaRuntime::with_config(
        0,
        RuntimeConfig::serial()
            .with_workers(workers)
            .with_seed(cfg.seed),
    )
    .with_metrics(MetricsRegistry::disabled());
    for i in 0..cfg.caps {
        let stage = STAGES[i % STAGES.len()];
        let pillar = PILLARS[(i / STAGES.len()) % PILLARS.len()];
        runtime.add_capability(
            stage,
            Box::new(SyntheticCollector {
                name: format!("scale-cap-{i:02}"),
                cell: GridCell::new(stage, pillar),
            }),
        );
    }
    runtime
}

fn percentile_ns(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() * pct).div_ceil(100).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the sweep: for each worker count, a fresh runtime replays the
/// same seed over the same registry; per-pass output digests are folded
/// into a sequence digest that must match across all worker counts.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let plane: Arc<dyn QueryPlane> = Arc::new(LocalPlane {
        store: Arc::new(TimeSeriesStore::with_capacity(64)),
        registry: SensorRegistry::new(),
    });

    let mut points: Vec<WorkerPoint> = Vec::with_capacity(cfg.worker_counts.len());
    for &workers in &cfg.worker_counts {
        let mut runtime = build_runtime(cfg, workers);
        let mut digest = FNV_OFFSET;
        let mut samples: Vec<u64> = Vec::with_capacity(cfg.passes);
        // Pass 0 is the untimed warm-up; it still folds into the digest so
        // the pass-seed sequence stays aligned across worker counts.
        for pass in 0..=cfg.passes {
            let ctx = CapabilityContext::new(
                Arc::clone(&plane),
                TimeRange::all(),
                Timestamp::from_millis(1_000 * (pass as u64 + 1)),
            );
            let start = Instant::now();
            let run = runtime.run(ctx);
            let wall_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if pass > 0 {
                samples.push(wall_ns);
            }
            fnv1a_fold(&mut digest, &run.output_digest().to_le_bytes());
        }
        samples.sort_unstable();
        points.push(WorkerPoint {
            workers,
            pass_p50_ns: percentile_ns(&samples, 50),
            pass_p99_ns: percentile_ns(&samples, 99),
            speedup_x: 0.0,
            digest,
        });
    }

    let base_p50 = points.first().map(|p| p.pass_p50_ns.max(1)).unwrap_or(1);
    for p in &mut points {
        p.speedup_x = base_p50 as f64 / p.pass_p50_ns.max(1) as f64;
    }
    let outputs_equal = points.windows(2).all(|w| w[0].digest == w[1].digest);

    ScaleReport {
        caps: cfg.caps,
        passes: cfg.passes,
        host_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        points,
        outputs_equal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_outputs_are_worker_count_invariant() {
        let cfg = ScaleConfig {
            caps: 12,
            passes: 2,
            worker_counts: vec![1, 4],
            seed: 7,
        };
        let report = run_scale(&cfg);
        assert!(
            report.outputs_equal,
            "digests diverged across worker counts"
        );
        assert_eq!(report.points.len(), 2);
        assert!(report.points.iter().all(|p| p.pass_p50_ns > 0));
        assert!(report.host_parallelism >= 1);
    }
}
