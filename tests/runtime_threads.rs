//! No thread outlives a pass: the capability scheduler's workers are
//! scoped to one DAG layer and joined at its barrier, so a runtime holds
//! no thread between passes. And no thread is born inside one except those
//! workers: a fleet-wide query runs on the thread that issued it, so a
//! `workers = w` pass never has more than `w` threads running.
//!
//! The process thread count is global state, so this file holds exactly
//! one test — alone in its process, the count is exact.

use hpc_oda::core::analytics_type::AnalyticsType;
use hpc_oda::core::capability::{Artifact, Capability, CapabilityContext};
use hpc_oda::core::cells;
use hpc_oda::core::grid::{GridCell, GridFootprint};
use hpc_oda::core::runtime::{OdaRuntime, RuntimeConfig, SimControlPlane};
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::metrics::MetricsRegistry;
use hpc_oda::telemetry::query::{Aggregation, Query, QueryEngine, TimeRange};
use hpc_oda::telemetry::sensor::SensorId;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// What the probe and its fleet-reading peers share.
#[derive(Default)]
struct Layer {
    /// Peers that have completed at least one fleet-wide query.
    reading: AtomicUsize,
    /// Fleet-wide queries completed, all peers together.
    queries: AtomicUsize,
    /// Set by the probe once it has its samples; peers read until then.
    sampled: AtomicBool,
    max_threads: AtomicUsize,
}

const PEERS: usize = 3;

/// One four-wide layer: a probe that samples the process thread count
/// while all three peers are inside fleet-wide queries.
enum FleetRead {
    Probe(Arc<Layer>),
    Peer(Arc<Layer>, Vec<SensorId>),
}

impl Capability for FleetRead {
    fn name(&self) -> &str {
        "fleet-read"
    }

    fn description(&self) -> &str {
        "thread-count probe and its fleet-reading peers"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::from_index(0))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        // Bounds both loops, so a scheduler that stops running the layer
        // four abreast fails the assertion below instead of hanging.
        let deadline = Instant::now() + Duration::from_secs(20);
        match self {
            FleetRead::Probe(layer) => {
                while layer.reading.load(SeqCst) < PEERS && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let abreast = layer.reading.load(SeqCst) == PEERS;
                // At least 2000 samples spread over at least 300 of the
                // peers' queries: neither one time slice of this thread
                // nor one of theirs.
                let until = layer.queries.load(SeqCst) + 300;
                let mut samples = 0;
                while (samples < 2_000 || layer.queries.load(SeqCst) < until)
                    && Instant::now() < deadline
                {
                    let threads = thread_count().expect("/proc was readable before the pass");
                    layer.max_threads.fetch_max(threads, SeqCst);
                    samples += 1;
                }
                layer.sampled.store(true, SeqCst);
                assert!(abreast, "the peers never ran beside the probe");
            }
            FleetRead::Peer(layer, fleet) => {
                let engine = QueryEngine::new(&ctx.store);
                let mut first = true;
                while !layer.sampled.load(SeqCst) && Instant::now() < deadline {
                    let means = Query::sensors(&*fleet)
                        .range(ctx.window)
                        .aggregate(Aggregation::Mean)
                        .run(&engine)
                        .scalars();
                    assert_eq!(means.len(), fleet.len());
                    layer.queries.fetch_add(1, SeqCst);
                    if std::mem::take(&mut first) {
                        layer.reading.fetch_add(1, SeqCst);
                    }
                }
            }
        }
        Vec::new()
    }
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

    // Reads create no thread: over a 128-node site, the most threads the
    // probe ever sees beside its three fleet-reading peers is the layer's
    // own three scoped workers.
    let mut dc = DataCenter::builder(DataCenterConfig::medium())
        .seed(56)
        .metrics(MetricsRegistry::disabled())
        .build();
    dc.run_for_hours(0.1);
    let fleet = dc.sensors().node_temp.clone();
    assert_eq!(fleet.len(), 128);
    let layer = Arc::new(Layer::default());
    let mut runtime = OdaRuntime::with_config(0, RuntimeConfig::serial().with_workers(4))
        .with_metrics(MetricsRegistry::disabled());
    runtime.add_capability(
        AnalyticsType::Descriptive,
        Box::new(FleetRead::Probe(Arc::clone(&layer))),
    );
    for _ in 0..PEERS {
        runtime.add_capability(
            AnalyticsType::Descriptive,
            Box::new(FleetRead::Peer(Arc::clone(&layer), fleet.clone())),
        );
    }
    let run = runtime.run(CapabilityContext::new(
        Arc::clone(dc.store()),
        dc.registry().clone(),
        TimeRange::all(),
        dc.now(),
    ));
    assert!(run.spans.iter().all(|s| !s.panicked), "{:?}", run.spans);
    let max_threads = layer.max_threads.load(SeqCst);
    assert!(
        max_threads <= before + 3,
        "a fleet-wide read created a thread: {max_threads} running, {before} before the pass"
    );
    assert_eq!(thread_count(), Some(before), "a worker outlived its pass");
}
