//! Pins the output of real ODA passes, bit for bit.
//!
//! The sixteen reference capabilities run three passes over a seeded tiny
//! site whose rings have wrapped and whose clock stands off every rollup
//! boundary, so the passes read through the tier path with a raw head and
//! tail around each tier-served core. The digest of those passes is a
//! recorded constant: a change to how the store finds or folds a window
//! that moves a single bit of any artifact fails here, at every worker
//! count.

use hpc_oda::core::cells;
use hpc_oda::core::runtime::{OdaRuntime, RuntimeConfig, SimControlPlane};
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::hash::{fnv1a_fold, FNV_OFFSET};
use hpc_oda::telemetry::metrics::MetricsRegistry;
use std::sync::Arc;

const SEED: u64 = 11;
/// One hour, the window the benchmark's passes analyse.
const WINDOW_MS: u64 = 3_600_000;
/// The widest default rollup tier, ten minutes.
const WIDEST_TIER_MS: u64 = 600_000;
/// Recorded before the store's search and borrowed-view rewrite.
const PINNED: u64 = 5_883_591_429_608_518_083;

fn pass_digest(workers: usize) -> u64 {
    let config = DataCenterConfig {
        // 512 readings at one per 10 s cover 85 minutes: the rings wrap
        // well before the first pass, yet still hold its whole window.
        store_capacity: 512,
        ..DataCenterConfig::tiny()
    };
    let mut dc = DataCenter::builder(config).seed(SEED).build();
    let mut runtime = OdaRuntime::with_config(
        WINDOW_MS,
        RuntimeConfig::serial()
            .with_workers(workers)
            .with_seed(SEED),
    )
    .with_metrics(MetricsRegistry::new());
    for capability in cells::all_sixteen() {
        let stage = capability.footprint().types()[0];
        runtime.add_capability(stage, capability);
    }
    // 2 h 7 min 13 s, then passes 433 s apart: no pass time and no window
    // start is a multiple of any tier width.
    dc.run_ticks(7_633);
    let mut digest = FNV_OFFSET;
    for _ in 0..3 {
        let now = dc.now();
        assert_ne!(now.as_millis() % WIDEST_TIER_MS, 0);
        assert_ne!((now.as_millis() - WINDOW_MS) % 10_000, 0);
        let store = Arc::clone(dc.store());
        let registry = dc.registry().clone();
        let report = runtime.pass(store, registry, now, &mut SimControlPlane { dc: &mut dc });
        assert!(report.run.spans.iter().all(|s| !s.panicked));
        fnv1a_fold(&mut digest, &report.run.output_digest().to_le_bytes());
        dc.run_ticks(433);
    }
    let health = dc.store().health_report();
    assert!(health.total_evicted() > 0, "the rings must have wrapped");
    let snap = dc.metrics().snapshot();
    let tier_hits: u64 = snap
        .counters
        .iter()
        .filter(|c| c.id.starts_with("query_tier_hit_total"))
        .map(|c| c.value)
        .sum();
    assert!(tier_hits > 0, "the passes must read through the tiers");
    digest
}

#[test]
fn sixteen_cell_passes_match_the_pinned_digest_at_every_worker_count() {
    for workers in [1, 2] {
        assert_eq!(pass_digest(workers), PINNED, "workers = {workers}");
    }
}
