//! Property tests of the deterministic parallel capability scheduler.
//!
//! The scheduler's replay contract: for a fixed `(registry, seed)`, every
//! worker count must produce **byte-identical** pipeline output — the
//! same artifact sequence (checked via the order-sensitive output digest),
//! the same per-capability spans (including which capabilities panicked),
//! and the same deterministic metrics counters. Scheduling telemetry
//! (busy/contention counters and all latency histograms) is
//! explicitly exempt: it describes *how* work was executed, not *what* was
//! computed.
//!
//! The randomized registries deliberately include hostile members: failing
//! capabilities (panic mid-execute), abstaining ones (no artifacts), and
//! randomized ones (output derived from the scheduler-assigned
//! [`CapabilityContext::rng_seed`] and the upstream snapshot).

use hpc_oda::core::analytics_type::AnalyticsType;
use hpc_oda::core::capability::{Artifact, Capability, CapabilityContext};
use hpc_oda::core::grid::{GridCell, GridFootprint};
use hpc_oda::core::runtime::{OdaRuntime, RuntimeConfig};
use hpc_oda::telemetry::hash::splitmix64;
use hpc_oda::telemetry::metrics::MetricsRegistry;
use hpc_oda::telemetry::query::TimeRange;
use hpc_oda::telemetry::reading::Timestamp;
use hpc_oda::telemetry::sensor::SensorRegistry;
use hpc_oda::telemetry::store::TimeSeriesStore;
use proptest::prelude::*;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::sync::Once;
use std::time::Duration;

/// Panic payload marker for deliberately failing capabilities; the quiet
/// panic hook suppresses only these, so genuine test failures still print.
const FAILURE_MARKER: &str = "synthetic-capability-failure";

static QUIET_HOOK: Once = Once::new();

fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let deliberate = payload
                .downcast_ref::<String>()
                .map(|s| s.contains(FAILURE_MARKER))
                .unwrap_or(false)
                || payload
                    .downcast_ref::<&str>()
                    .map(|s| s.contains(FAILURE_MARKER))
                    .unwrap_or(false);
            if !deliberate {
                prev(info);
            }
        }));
    });
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Behaviour {
    /// Emit `n` artifacts derived from the rng seed and upstream snapshot.
    Emit(usize),
    /// Return no artifacts.
    Abstain,
    /// Panic mid-execute; the scheduler must isolate it.
    Fail,
}

#[derive(Debug, Clone)]
struct CapSpec {
    stage: AnalyticsType,
    cell: GridCell,
    behaviour: Behaviour,
}

struct SyntheticCap {
    name: String,
    spec: CapSpec,
}

impl Capability for SyntheticCap {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        "randomized property-test capability"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(self.spec.cell)
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        match self.spec.behaviour {
            Behaviour::Fail => panic!("{FAILURE_MARKER}: {}", self.name),
            Behaviour::Abstain => Vec::new(),
            Behaviour::Emit(n) => {
                // Output depends on the scheduler-assigned seed *and* the
                // upstream snapshot, so any visibility or sequencing drift
                // across worker counts changes the digest.
                let mut x = ctx.rng_seed ^ (ctx.upstream.len() as u64).wrapping_mul(0x9e37);
                (0..n)
                    .map(|i| {
                        x = splitmix64(x);
                        Artifact::Kpi {
                            name: format!("{}-k{i}", self.name),
                            value: (x >> 11) as f64 / (1u64 << 53) as f64,
                        }
                    })
                    .collect()
            }
        }
    }
}

fn arb_spec() -> impl Strategy<Value = CapSpec> {
    (0usize..4, 0usize..16, 0usize..8).prop_map(|(s, cell, b)| CapSpec {
        stage: AnalyticsType::ALL[s],
        cell: GridCell::from_index(cell),
        behaviour: match b {
            0 => Behaviour::Fail,
            1 => Behaviour::Abstain,
            n => Behaviour::Emit(n % 3 + 1),
        },
    })
}

/// Counters describing *how* the pass was scheduled rather than what it
/// computed — the only metrics allowed to differ across worker counts.
fn is_scheduling_telemetry(id: &str) -> bool {
    id.contains("busy") || id.contains("contention")
}

/// Observable outcome of a multi-pass run at one worker count: per-pass
/// output digests, per-pass span traces, and deterministic counters.
#[derive(Debug, PartialEq)]
struct Observed {
    digests: Vec<u64>,
    spans: Vec<String>,
    counters: Vec<(String, u64)>,
}

fn run_with_workers(specs: &[CapSpec], seed: u64, workers: usize, passes: usize) -> Observed {
    let metrics = MetricsRegistry::new();
    let mut runtime = OdaRuntime::with_config(
        0,
        RuntimeConfig::serial()
            .with_workers(workers)
            .with_seed(seed),
    )
    .with_metrics(metrics.clone());
    for (i, spec) in specs.iter().enumerate() {
        runtime.add_capability(
            spec.stage,
            Box::new(SyntheticCap {
                name: format!("prop-cap-{i:02}"),
                spec: spec.clone(),
            }),
        );
    }
    let store = Arc::new(TimeSeriesStore::with_capacity(8));
    let registry = SensorRegistry::new();

    let mut observed = Observed {
        digests: Vec::with_capacity(passes),
        spans: Vec::new(),
        counters: Vec::new(),
    };
    for pass in 0..passes {
        let ctx = CapabilityContext::new(
            Arc::clone(&store),
            registry.clone(),
            TimeRange::all(),
            Timestamp::from_millis(1_000 * (pass as u64 + 1)),
        );
        let run = runtime.run(ctx);
        observed.digests.push(run.output_digest());
        for span in &run.spans {
            observed.spans.push(format!(
                "{pass}/{:?}/{}/{}/{}",
                span.stage, span.capability, span.artifacts, span.panicked
            ));
        }
    }
    observed.counters = metrics
        .snapshot()
        .counters
        .iter()
        .filter(|c| !is_scheduling_telemetry(&c.id))
        .map(|c| (c.id.clone(), c.value))
        .collect();
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scheduler_output_is_worker_count_invariant(
        specs in prop::collection::vec(arb_spec(), 1..12),
        seed in any::<u64>(),
    ) {
        install_quiet_hook();
        let passes = 2;
        let baseline = run_with_workers(&specs, seed, 1, passes);

        // Replay at the same width must be bit-identical (determinism).
        let replay = run_with_workers(&specs, seed, 1, passes);
        prop_assert_eq!(&baseline, &replay);

        // Every worker count must match the serial baseline exactly.
        for workers in [2usize, 4, 8] {
            let parallel = run_with_workers(&specs, seed, workers, passes);
            prop_assert_eq!(
                &baseline, &parallel,
                "workers={} diverged from serial baseline", workers
            );
        }

        // Sanity on the trace itself: one span per capability per pass,
        // failing capabilities marked panicked and artifact-free.
        prop_assert_eq!(baseline.spans.len(), specs.len() * passes);
        let panicked = baseline.spans.iter().filter(|s| s.ends_with("/true")).count();
        let failing = specs.iter().filter(|s| s.behaviour == Behaviour::Fail).count();
        prop_assert_eq!(panicked, failing * passes);
    }

    #[test]
    fn different_seeds_give_different_randomized_output(
        specs in prop::collection::vec(arb_spec(), 2..10),
        seed in any::<u64>(),
    ) {
        install_quiet_hook();
        // Only meaningful when at least one capability emits seed-derived
        // artifacts.
        prop_assume!(specs.iter().any(|s| matches!(s.behaviour, Behaviour::Emit(_))));
        let a = run_with_workers(&specs, seed, 4, 1);
        let b = run_with_workers(&specs, seed ^ 0xdead_beef, 4, 1);
        prop_assert_ne!(a.digests, b.digests);
    }
}

/// The two sides of the dynamic-scheduling rendezvous below.
enum Rendezvous {
    /// Blocks until this many other capabilities have reported finishing.
    AwaitPeers(Receiver<()>, usize),
    /// Reports finishing.
    Finish(Sender<()>),
}

impl Capability for Rendezvous {
    fn name(&self) -> &str {
        "rendezvous"
    }

    fn description(&self) -> &str {
        "dynamic-scheduling rendezvous capability"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::from_index(0))
    }

    fn execute(&mut self, _ctx: &CapabilityContext) -> Vec<Artifact> {
        match self {
            Rendezvous::AwaitPeers(done, peers) => {
                for seen in 0..*peers {
                    done.recv_timeout(Duration::from_secs(20))
                        .unwrap_or_else(|_| panic!("only {seen} of {peers} peers ran"));
                }
            }
            Rendezvous::Finish(done) => done.send(()).expect("the waiter outlives its peers"),
        }
        Vec::new()
    }
}

/// Workers pull the next task when they finish one; nothing is dealt to a
/// worker up front. Slot 0 of an eight-wide layer blocks until the other
/// seven have finished: with two workers that completes only if the second
/// worker takes all seven — a static round-robin deal would park slots 2, 4
/// and 6 behind the blocked worker and time out.
#[test]
fn a_blocked_capability_strands_no_work_behind_it() {
    let (tx, rx) = channel();
    let mut runtime = OdaRuntime::with_config(0, RuntimeConfig::serial().with_workers(2))
        .with_metrics(MetricsRegistry::disabled());
    runtime.add_capability(
        AnalyticsType::Descriptive,
        Box::new(Rendezvous::AwaitPeers(rx, 7)),
    );
    for _ in 0..7 {
        runtime.add_capability(
            AnalyticsType::Descriptive,
            Box::new(Rendezvous::Finish(tx.clone())),
        );
    }
    let run = runtime.run(CapabilityContext::new(
        Arc::new(TimeSeriesStore::with_capacity(8)),
        SensorRegistry::new(),
        TimeRange::all(),
        Timestamp::from_millis(1_000),
    ));
    assert_eq!(run.spans.len(), 8);
    assert!(
        run.spans.iter().all(|s| !s.panicked),
        "a capability was stranded behind the blocked one: {:?}",
        run.spans
    );
}
