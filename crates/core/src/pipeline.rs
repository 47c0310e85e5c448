//! Staged pipelines: the hindsight→foresight staircase, executable.
//!
//! Fig. 2 of the paper orders the four analytics types by increasing value
//! and difficulty; §V-A argues that combining types is what makes ODA
//! powerful — a prescriptive component fed by predictive output acts
//! *proactively* instead of *reactively*. The pipeline implements exactly
//! that wiring: stages run in staged order, and every capability sees the
//! artifacts produced by the stages before it (`ctx.upstream`).
//!
//! The same mechanism expresses §V-B's multi-pillar orchestration: a
//! cooling-aware scheduler is simply a prescriptive System-Software
//! capability that reads Building-Infrastructure artifacts from upstream.
//!
//! # One executor
//!
//! [`OdaRuntime::run`](crate::runtime::OdaRuntime::run) is the only pass
//! executor. It turns the registered capabilities into a
//! [`CapabilityDag`], layers it topologically, and runs each layer on
//! scoped threads that pull tasks off the layer and are joined at its
//! barrier — no thread is resident between passes. The runtime owns
//! everything a pass needs: its capabilities, its
//! [`RuntimeConfig`](crate::runtime::RuntimeConfig) (worker count and RNG
//! root seed), its pass counter and the one [`MetricsRegistry`] every pass
//! records into. This module holds the executor's internals and the
//! [`PipelineRun`] trace a pass returns.
//!
//! # Determinism contract
//!
//! Production ODA evaluates many analytical models online and in parallel
//! (DCDB Wintermute and friends), but replayability is what makes a
//! control loop debuggable. A pass's *outputs* — the [`PipelineRun`] stage
//! sequence, every artifact, and all count-valued metrics — are
//! bit-identical at any worker count:
//!
//! * workers record results into **pre-assigned slots** (one per
//!   registered capability), never into a shared append log;
//! * artifact/metric emission is **sequenced by capability slot** at each
//!   stage barrier, so emission order never depends on which worker
//!   finished first;
//! * per-task RNG streams derive from `(pass seed, capability slot)` —
//!   not from the executing worker — and the pass seed from
//!   `(config seed, pass number)`, so which worker pulls a task cannot
//!   perturb a randomized capability;
//! * capability panics are caught on the worker, surfaced as
//!   [`StageSpan::panicked`], and isolated (the pass continues), so one
//!   bad plugin cannot take down the telemetry plane.
//!
//! `workers = 1` (and any layer of one) spawns nothing: the same drain
//! runs on the calling thread, in exactly the historical serial order
//! (stages in staged order, peers in insertion order).

use crate::analytics_type::AnalyticsType;
use crate::capability::{Artifact, Capability, CapabilityContext};
use crate::grid::GridFootprint;
use crate::runtime::CapabilityDag;
use oda_telemetry::hash::{fnv1a_fold, splitmix64, FNV_OFFSET};
use oda_telemetry::metrics::MetricsRegistry;
use serde::Serialize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Named span covering one capability execution within a pipeline run —
/// the per-plugin overhead accounting the paper's production references
/// treat as a deployment prerequisite.
#[derive(Debug, Clone, Serialize)]
pub struct StageSpan {
    /// Analytics stage the capability ran in.
    pub stage: AnalyticsType,
    /// Capability (span) name.
    pub capability: String,
    /// Wall time of the capability's `execute`, nanoseconds.
    pub wall_ns: u64,
    /// Number of artifacts the capability produced.
    pub artifacts: usize,
    /// Whether the capability panicked (the executor isolates the panic:
    /// the capability contributes no artifacts and the run continues).
    pub panicked: bool,
}

/// Execution trace of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Per-stage results: `(stage, capability name, artifacts)`.
    pub stages: Vec<(AnalyticsType, String, Vec<Artifact>)>,
    /// One span per capability execution, in run order.
    pub spans: Vec<StageSpan>,
    /// Wall time of the whole run, nanoseconds.
    pub wall_ns: u64,
}

impl PipelineRun {
    /// All artifacts in production order.
    pub fn artifacts(&self) -> Vec<&Artifact> {
        self.stages.iter().flat_map(|(_, _, a)| a.iter()).collect()
    }

    /// Artifacts produced by a given stage.
    pub fn stage_artifacts(&self, stage: AnalyticsType) -> Vec<&Artifact> {
        self.stages
            .iter()
            .filter(|(s, _, _)| *s == stage)
            .flat_map(|(_, _, a)| a.iter())
            .collect()
    }

    /// The span of the named capability, if it ran.
    pub fn span(&self, capability: &str) -> Option<&StageSpan> {
        self.spans.iter().find(|s| s.capability == capability)
    }

    /// Order-sensitive FNV-1a digest over everything the run *produced* —
    /// stage order, capability names, artifacts (floats by bit pattern) and
    /// panic flags — excluding wall times. Two runs of the same pipeline
    /// over the same telemetry must yield equal digests at any worker
    /// count; the scale bench and the determinism property tests gate on
    /// exactly this.
    pub fn output_digest(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut fold = |bytes: &[u8]| fnv1a_fold(&mut hash, bytes);
        for (stage, name, artifacts) in &self.stages {
            fold(&[stage.index() as u8]);
            fold(name.as_bytes());
            fold(&(artifacts.len() as u64).to_le_bytes());
            for artifact in artifacts {
                match artifact {
                    Artifact::Report { title, body } => {
                        fold(b"report");
                        fold(title.as_bytes());
                        fold(body.as_bytes());
                    }
                    Artifact::Kpi { name, value } => {
                        fold(b"kpi");
                        fold(name.as_bytes());
                        fold(&value.to_bits().to_le_bytes());
                    }
                    Artifact::Diagnosis {
                        kind,
                        subject,
                        severity,
                        evidence,
                    } => {
                        fold(b"diagnosis");
                        fold(kind.as_bytes());
                        fold(subject.as_bytes());
                        fold(&severity.to_bits().to_le_bytes());
                        fold(evidence.as_bytes());
                    }
                    Artifact::Forecast {
                        quantity,
                        horizon_s,
                        value,
                    } => {
                        fold(b"forecast");
                        fold(quantity.as_bytes());
                        fold(&horizon_s.to_bits().to_le_bytes());
                        fold(&value.to_bits().to_le_bytes());
                    }
                    Artifact::Prescription {
                        action,
                        expected_impact,
                    } => {
                        fold(b"prescription");
                        fold(action.knob().as_bytes());
                        fold(action.setting().as_bytes());
                        fold(expected_impact.as_bytes());
                        fold(&[action.automatable() as u8]);
                    }
                }
            }
        }
        for span in &self.spans {
            fold(span.capability.as_bytes());
            fold(&[span.panicked as u8]);
        }
        hash
    }
}

/// One registered capability and its stage — the executor's unit of
/// dispatch. Workers borrow the capability in place, so the slot index is
/// a stable identity for the whole runtime lifetime.
pub(crate) struct PipelineSlot {
    pub(crate) stage: AnalyticsType,
    pub(crate) cap: Box<dyn Capability>,
}

/// The slot-addressed outcome of one capability execution.
struct SlotResult {
    stage: AnalyticsType,
    name: String,
    artifacts: Vec<Artifact>,
    wall_ns: u64,
    panicked: bool,
}

/// One unit of layer work: a capability borrowed from its pipeline slot,
/// the stage snapshot it runs against, and the result slot it fills.
struct Task<'a> {
    stage: AnalyticsType,
    cap: &'a mut Box<dyn Capability>,
    ctx: CapabilityContext,
    out: &'a mut Option<SlotResult>,
}

pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Executes one task into its result slot, catching a capability panic so
/// a bad plugin is isolated instead of taking the pass down. Returns the
/// execution's wall nanoseconds.
fn execute_task(task: Task<'_>) -> u64 {
    // odalint: allow(wall-clock) -- worker timing telemetry only; never feeds output digests
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| task.cap.execute(&task.ctx)));
    let wall_ns = elapsed_ns(start);
    *task.out = Some(SlotResult {
        stage: task.stage,
        name: task.cap.name().to_owned(),
        panicked: outcome.is_err(),
        artifacts: outcome.unwrap_or_default(),
        wall_ns,
    });
    wall_ns
}

/// Runs one layer to its barrier on `threads` scoped workers — the caller
/// plus `threads - 1` spawned for this layer only — each pulling the next
/// task off the shared iterator until it is dry, so a slow capability
/// never strands work behind it. One thread (a layer of one, or
/// `workers == 1`) spawns nothing and drains on the caller in slot order.
/// Returns each worker's busy nanoseconds, the caller's first.
fn run_layer<'a>(threads: usize, tasks: impl Iterator<Item = Task<'a>> + Send) -> Vec<u64> {
    let tasks = Mutex::new(tasks);
    let drain = || {
        let mut busy_ns = 0u64;
        loop {
            // The guard drops with this statement: tasks execute unlocked
            // (and a poisoned lock still guards a valid iterator).
            let next = tasks.lock().unwrap_or_else(|e| e.into_inner()).next();
            match next {
                Some(task) => busy_ns += execute_task(task),
                None => return busy_ns,
            }
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(drain)).collect();
        let mut busy = vec![drain()];
        // `execute_task` catches capability panics, so a failed join is an
        // executor bug: re-raise it on the caller.
        busy.extend(
            helpers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
        );
        busy
    })
}

/// Runs one pass of `slots` over `ctx` (whose `upstream` is used as the
/// initial blackboard, normally empty): builds the [`CapabilityDag`] fresh
/// (capability registration may change between passes), then runs each
/// layer on `min(workers, layer width)` scoped threads, the caller among
/// them, with per-task RNG streams derived from `pass_seed`. Outputs are
/// bit-identical at every worker count.
///
/// Records per capability a [`StageSpan`] plus
/// `pipeline_stage_ns{capability}`, `pipeline_artifacts_total{capability}`
/// and `runtime_capability_panics_total{capability}`; per layer
/// `runtime_layer_span` and `runtime_worker_busy_ns{worker}`.
pub(crate) fn run(
    slots: &mut [PipelineSlot],
    workers: usize,
    metrics: &MetricsRegistry,
    pass_seed: u64,
    ctx: CapabilityContext,
) -> PipelineRun {
    // odalint: allow(wall-clock) -- pass duration telemetry only; never feeds output digests
    let run_start = Instant::now();
    let mut run = PipelineRun {
        stages: Vec::new(),
        spans: Vec::new(),
        wall_ns: 0,
    };
    let meta: Vec<(AnalyticsType, GridFootprint)> =
        slots.iter().map(|s| (s.stage, s.cap.footprint())).collect();
    let dag = CapabilityDag::build(&meta);

    let mut results: Vec<Option<SlotResult>> = meta.iter().map(|_| None).collect();
    let mut upstream = ctx.upstream.clone();
    for stage_layers in dag.layers.chunk_by(|a, b| a.stage == b.stage) {
        // Peers never see each other: every layer of the stage runs
        // against the artifacts of the stages before it.
        let snapshot = upstream.clone();
        for layer in stage_layers {
            // odalint: allow(wall-clock) -- layer duration telemetry only; never feeds output digests
            let layer_start = Instant::now();
            // `layer.slots` is ascending, so the tasks come off in slot
            // order, each holding its own capability and result slot.
            let tasks = slots
                .iter_mut()
                .zip(results.iter_mut())
                .enumerate()
                .filter(|(slot, _)| layer.slots.binary_search(slot).is_ok())
                .map(|(slot, (entry, out))| Task {
                    stage: layer.stage,
                    cap: &mut entry.cap,
                    ctx: CapabilityContext {
                        plane: Arc::clone(&ctx.plane),
                        window: ctx.window,
                        now: ctx.now,
                        upstream: snapshot.clone(),
                        rng_seed: splitmix64(pass_seed ^ (slot as u64 + 1)),
                    },
                    out,
                });
            let busy = run_layer(workers.min(layer.slots.len()), tasks);
            metrics
                .histogram("runtime_layer_span", &[])
                .record(elapsed_ns(layer_start));
            // Scheduling telemetry: varies run to run and is explicitly
            // *outside* the determinism contract.
            for (worker, busy_ns) in busy.into_iter().enumerate().filter(|&(_, ns)| ns > 0) {
                let idx = worker.to_string();
                metrics
                    .histogram("runtime_worker_busy_ns", &[("worker", idx.as_str())])
                    .record(busy_ns);
            }
        }
        emit_stage(&mut run, &mut upstream, &mut results, metrics);
    }
    run.wall_ns = elapsed_ns(run_start);
    run
}

/// Stage barrier: emits every result the finished stage left in
/// `results` — spans, per-capability metrics and downstream artifact
/// visibility — in slot order, never in completion order.
fn emit_stage(
    run: &mut PipelineRun,
    upstream: &mut Vec<Artifact>,
    results: &mut [Option<SlotResult>],
    metrics: &MetricsRegistry,
) {
    for done in results.iter_mut().filter_map(Option::take) {
        let name = done.name;
        let labels: &[(&str, &str)] = &[("capability", name.as_str())];
        metrics
            .histogram("pipeline_stage_ns", labels)
            .record(done.wall_ns);
        metrics
            .counter("pipeline_artifacts_total", labels)
            .add(done.artifacts.len() as u64);
        if done.panicked {
            metrics
                .counter("runtime_capability_panics_total", labels)
                .inc();
        }
        run.spans.push(StageSpan {
            stage: done.stage,
            capability: name.clone(),
            wall_ns: done.wall_ns,
            artifacts: done.artifacts.len(),
            panicked: done.panicked,
        });
        upstream.extend(done.artifacts.iter().cloned());
        run.stages.push((done.stage, name, done.artifacts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::Action;
    use crate::grid::{GridCell, GridFootprint};
    use crate::pillar::Pillar;
    use crate::runtime::{OdaRuntime, RuntimeConfig};
    use oda_telemetry::plane::LocalPlane;
    use oda_telemetry::query::TimeRange;
    use oda_telemetry::reading::Timestamp;
    use oda_telemetry::sensor::SensorRegistry;
    use oda_telemetry::store::TimeSeriesStore;
    use std::sync::Arc;

    fn ctx() -> CapabilityContext {
        CapabilityContext::new(
            Arc::new(LocalPlane {
                store: Arc::new(TimeSeriesStore::with_capacity(8)),
                registry: SensorRegistry::new(),
            }),
            TimeRange::all(),
            Timestamp::ZERO,
        )
    }

    fn serial() -> OdaRuntime {
        OdaRuntime::with_config(0, RuntimeConfig::serial())
    }

    /// Emits a forecast.
    struct Predictor;
    impl Capability for Predictor {
        fn name(&self) -> &str {
            "predictor"
        }
        fn description(&self) -> &str {
            "emits a power forecast"
        }
        fn footprint(&self) -> GridFootprint {
            GridFootprint::single(GridCell::new(
                AnalyticsType::Predictive,
                Pillar::SystemHardware,
            ))
        }
        fn execute(&mut self, _ctx: &CapabilityContext) -> Vec<Artifact> {
            vec![Artifact::Forecast {
                quantity: "it_power".into(),
                horizon_s: 60.0,
                value: 123.0,
            }]
        }
    }

    /// Prescribes based on upstream forecasts if present (proactive), else
    /// reactively.
    struct Governor {
        saw_forecast: bool,
    }
    impl Capability for Governor {
        fn name(&self) -> &str {
            "governor"
        }
        fn description(&self) -> &str {
            "acts on forecasts when available"
        }
        fn footprint(&self) -> GridFootprint {
            GridFootprint::single(GridCell::new(
                AnalyticsType::Prescriptive,
                Pillar::SystemHardware,
            ))
        }
        fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
            let forecasts = ctx.upstream_forecasts("it_power");
            self.saw_forecast = !forecasts.is_empty();
            vec![Artifact::Prescription {
                action: Action::NodeClock { node: 0, ghz: 2.0 },
                expected_impact: if self.saw_forecast {
                    "proactive"
                } else {
                    "reactive"
                }
                .into(),
            }]
        }
    }

    #[test]
    fn later_stages_see_earlier_artifacts() {
        let mut p = serial()
            .with_capability(
                AnalyticsType::Prescriptive,
                Box::new(Governor {
                    saw_forecast: false,
                }),
            )
            .with_capability(AnalyticsType::Predictive, Box::new(Predictor));
        // Insertion order deliberately reversed: the pipeline must order by
        // stage, not insertion.
        let run = p.run(ctx());
        let presc = run.stage_artifacts(AnalyticsType::Prescriptive);
        assert_eq!(presc.len(), 1);
        match presc[0] {
            Artifact::Prescription {
                expected_impact, ..
            } => assert_eq!(expected_impact, "proactive"),
            other => panic!("unexpected artifact {other:?}"),
        }
    }

    #[test]
    fn prescriptive_without_predictor_is_reactive() {
        let mut p = serial().with_capability(
            AnalyticsType::Prescriptive,
            Box::new(Governor {
                saw_forecast: false,
            }),
        );
        let run = p.run(ctx());
        match run.stage_artifacts(AnalyticsType::Prescriptive)[0] {
            Artifact::Prescription {
                expected_impact, ..
            } => assert_eq!(expected_impact, "reactive"),
            other => panic!("unexpected artifact {other:?}"),
        }
    }

    /// Peers in the same stage must not see each other.
    struct Peer {
        name: &'static str,
    }
    impl Capability for Peer {
        fn name(&self) -> &str {
            self.name
        }
        fn description(&self) -> &str {
            "peer"
        }
        fn footprint(&self) -> GridFootprint {
            GridFootprint::single(GridCell::new(
                AnalyticsType::Descriptive,
                Pillar::Applications,
            ))
        }
        fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
            vec![Artifact::Kpi {
                name: format!("{}:saw_{}", self.name, ctx.upstream.len()),
                value: 0.0,
            }]
        }
    }

    #[test]
    fn peers_do_not_see_each_other() {
        let mut p = serial()
            .with_capability(AnalyticsType::Descriptive, Box::new(Peer { name: "a" }))
            .with_capability(AnalyticsType::Descriptive, Box::new(Peer { name: "b" }));
        let run = p.run(ctx());
        let kpis: Vec<String> = run
            .artifacts()
            .iter()
            .filter_map(|a| match a {
                Artifact::Kpi { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(kpis, vec!["a:saw_0", "b:saw_0"]);
    }

    #[test]
    fn run_records_spans_and_stage_metrics() {
        let m = MetricsRegistry::new();
        let mut p = serial()
            .with_metrics(m.clone())
            .with_capability(AnalyticsType::Predictive, Box::new(Predictor))
            .with_capability(
                AnalyticsType::Prescriptive,
                Box::new(Governor {
                    saw_forecast: false,
                }),
            );
        let run = p.run(ctx());
        assert_eq!(run.spans.len(), 2);
        let span = run.span("predictor").unwrap();
        assert_eq!(span.stage, AnalyticsType::Predictive);
        assert_eq!(span.artifacts, 1);
        assert!(run.wall_ns >= run.spans.iter().map(|s| s.wall_ns).sum::<u64>());
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("pipeline_artifacts_total{capability=\"governor\"}"),
            Some(1)
        );
        assert_eq!(
            snap.histogram("pipeline_stage_ns{capability=\"predictor\"}")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn a_parallel_pass_records_into_the_pipeline_registry() {
        let m = MetricsRegistry::new();
        let mut p = serial()
            .with_workers(2)
            .with_metrics(m.clone())
            .with_capability(AnalyticsType::Descriptive, Box::new(Peer { name: "a" }))
            .with_capability(AnalyticsType::Descriptive, Box::new(Peer { name: "b" }))
            .with_capability(AnalyticsType::Predictive, Box::new(Predictor));
        p.run(ctx());
        let snap = m.snapshot();
        // Executor instruments: one span per layer, busy time per worker.
        assert_eq!(
            snap.histogram("runtime_layer_span").map(|h| h.count),
            Some(2)
        );
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.id.starts_with("runtime_worker_busy_ns{worker=")));
        // Stage instruments, in the same registry.
        for capability in ["a", "b", "predictor"] {
            let id = format!("pipeline_stage_ns{{capability=\"{capability}\"}}");
            assert_eq!(snap.histogram(&id).map(|h| h.count), Some(1), "{id}");
        }
        assert_eq!(
            snap.counter("pipeline_artifacts_total{capability=\"predictor\"}"),
            Some(1)
        );
    }

    #[test]
    fn run_trace_is_ordered_by_stage() {
        let mut p = serial()
            .with_capability(
                AnalyticsType::Prescriptive,
                Box::new(Governor {
                    saw_forecast: false,
                }),
            )
            .with_capability(AnalyticsType::Predictive, Box::new(Predictor))
            .with_capability(AnalyticsType::Descriptive, Box::new(Peer { name: "p" }));
        let run = p.run(ctx());
        let order: Vec<AnalyticsType> = run.stages.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(
            order,
            vec![
                AnalyticsType::Descriptive,
                AnalyticsType::Predictive,
                AnalyticsType::Prescriptive
            ]
        );
        assert_eq!(run.artifacts().len(), 3);
    }
}
