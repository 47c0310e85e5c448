//! No thread outlives a pass: the capability scheduler's workers are
//! scoped to one DAG layer and joined at its barrier, so a runtime holds
//! no thread between passes.
//!
//! The process thread count is global state, so this file holds exactly
//! one test — alone in its process, the count is exact.

use hpc_oda::core::cells;
use hpc_oda::core::runtime::{OdaRuntime, SimControlPlane};
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::metrics::MetricsRegistry;
use std::sync::Arc;

/// Threads of this process, from /proc (Linux only).
fn thread_count() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

#[test]
fn no_thread_outlives_a_pass() {
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(56)
        .metrics(MetricsRegistry::disabled())
        .build();
    dc.run_for_hours(0.5);
    // All sixteen cells: four layers of width four, so a four-worker pass
    // spawns three scoped threads per layer.
    let mut runtime = OdaRuntime::new(3_600_000)
        .with_workers(4)
        .with_metrics(MetricsRegistry::disabled());
    for capability in cells::all_sixteen() {
        let stage = capability.footprint().types()[0];
        runtime.add_capability(stage, capability);
    }
    let Some(before) = thread_count() else {
        return; // no /proc on this platform; covered on Linux CI
    };
    for _ in 0..3 {
        let report = runtime.pass(
            Arc::clone(dc.store()),
            dc.registry().clone(),
            dc.now(),
            &mut SimControlPlane { dc: &mut dc },
        );
        assert_eq!(report.run.spans.len(), 16);
        assert_eq!(thread_count(), Some(before), "a worker outlived its pass");
    }
}
