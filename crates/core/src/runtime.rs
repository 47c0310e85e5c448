//! The ODA runtime: periodic monitoring → analysis → actuation passes.
//!
//! The examples and experiments all share one loop: read the telemetry
//! window, run a staged pipeline, apply the automatable prescriptions to
//! the site's knobs, keep the rest for the operator. This module owns
//! that loop so a deployment configures it once:
//!
//! * [`ControlPlane`] abstracts "the thing that can actually turn knobs" —
//!   the simulator in this reproduction, a BMC/Redfish/SLURM adapter in a
//!   real deployment;
//! * [`CapabilityDag`] is the dependency DAG a pass runs as, and
//!   [`RuntimeConfig`] its worker count and RNG root seed;
//! * [`OdaRuntime`] is the one owner of registered capabilities. It runs
//!   a pass over a window of telemetry ([`OdaRuntime::run`], the pass
//!   executor; see [`crate::pipeline`] for its determinism contract),
//!   routes prescriptions, and reports an audit record of every action
//!   taken or deferred (prescriptions are outward-facing: a system that
//!   cannot say what it did and why is not deployable). Its worker count,
//!   seed and metrics registry are set once.
//!
//! The audit records inherit the executor's determinism: prescriptions
//! are routed in the pass's slot-sequenced stage order, so each pass's
//! [`PassReport::actions`] is bit-identical at any worker count.

use crate::analytics_type::AnalyticsType;
use crate::capability::{Action, Artifact, Capability, CapabilityContext};
use crate::grid::GridFootprint;
use crate::pipeline::{self, elapsed_ns, PipelineRun, PipelineSlot};
use oda_telemetry::hash::splitmix64;
use oda_telemetry::metrics::MetricsRegistry;
use oda_telemetry::plane::LocalPlane;
use oda_telemetry::query::TimeRange;
use oda_telemetry::reading::Timestamp;
use oda_telemetry::sensor::SensorRegistry;
use oda_telemetry::store::TimeSeriesStore;
use serde::Serialize;
use std::sync::Arc;

/// Worker count and RNG root seed of a runtime's passes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RuntimeConfig {
    /// Most threads a layer runs on (the caller included). `1` (the
    /// [`Self::serial`] preset) runs every capability on the calling
    /// thread in the historical serial order; the default is
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Root seed for the per-task RNG streams handed to capabilities via
    /// [`CapabilityContext::rng_seed`]. Same seed ⇒ same streams, pass
    /// after pass.
    pub seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            seed: 0,
        }
    }
}

impl RuntimeConfig {
    /// Single-worker preset: today's exact serial behavior. Probes nothing
    /// on the host.
    pub fn serial() -> Self {
        RuntimeConfig {
            workers: 1,
            seed: 0,
        }
    }

    /// Sets the worker count (clamped to ≥ 1). Builder-style.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the RNG root seed. Builder-style.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One concurrency layer of the capability DAG: every slot in `slots` may
/// execute concurrently once all earlier layers have completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagLayer {
    /// Analytics stage all of this layer's capabilities belong to (layers
    /// never span stages — stage boundaries are artifact-flow barriers).
    pub stage: AnalyticsType,
    /// Capability slot indices, ascending (= registration order).
    pub slots: Vec<usize>,
}

/// Dependency DAG over a pipeline's registered capabilities, topologically
/// layered for barrier execution.
///
/// Two edge rules, straight from the pipeline's visibility semantics:
///
/// 1. **Artifact flow** — every capability of stage *s* reads the
///    artifacts of *every* capability of stages < *s* (`ctx.upstream`),
///    so each non-empty stage depends wholesale on the previous non-empty
///    stage (transitively on all earlier ones).
/// 2. **Actuation-domain conflict** — two *prescriptive* capabilities
///    whose grid footprints intersect prescribe into the same sensor
///    domain; they are serialized in registration order (an edge from the
///    earlier to the later) so conflicting knob proposals are always
///    produced — and later routed — in a stable order. Hindsight stages
///    only read telemetry and never conflict.
///
/// Layering is the usual longest-path assignment: a capability's layer is
/// one past the deepest of its dependencies, which groups every stage
/// into one layer (plus conflict sub-layers inside the prescriptive
/// stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapabilityDag {
    /// Execution layers, in order.
    pub layers: Vec<DagLayer>,
    /// Total dependency edges (artifact-flow + conflict).
    pub edges: usize,
}

impl CapabilityDag {
    /// Builds the DAG for capabilities declared as `(stage, footprint)`
    /// pairs in registration order.
    pub fn build(slots: &[(AnalyticsType, GridFootprint)]) -> Self {
        let mut layers: Vec<DagLayer> = Vec::new();
        let mut edges = 0usize;
        let mut prev_stage_size = 0usize;
        for stage in AnalyticsType::ALL {
            let members: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, (s, _))| *s == stage)
                .map(|(i, _)| i)
                .collect();
            if members.is_empty() {
                continue;
            }
            // Artifact-flow edges: complete bipartite from the previous
            // non-empty stage.
            edges += prev_stage_size * members.len();
            prev_stage_size = members.len();
            if stage == AnalyticsType::Prescriptive {
                // Conflict sub-layers: longest chain of overlapping
                // footprints, registration order within a chain.
                let mut sublayer = vec![0usize; members.len()];
                for j in 0..members.len() {
                    for i in 0..j {
                        let fi = slots[members[i]].1;
                        let fj = slots[members[j]].1;
                        if fi.intersection(fj).count() > 0 {
                            edges += 1;
                            sublayer[j] = sublayer[j].max(sublayer[i] + 1);
                        }
                    }
                }
                let depth = sublayer.iter().max().copied().unwrap_or(0);
                for d in 0..=depth {
                    let slots_d: Vec<usize> = members
                        .iter()
                        .zip(&sublayer)
                        .filter(|(_, &l)| l == d)
                        .map(|(&m, _)| m)
                        .collect();
                    layers.push(DagLayer {
                        stage,
                        slots: slots_d,
                    });
                }
            } else {
                layers.push(DagLayer {
                    stage,
                    slots: members,
                });
            }
        }
        CapabilityDag { layers, edges }
    }

    /// Total capabilities across all layers.
    pub fn len(&self) -> usize {
        self.layers.iter().map(|l| l.slots.len()).sum()
    }

    /// `true` when the DAG has no capabilities.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The widest layer — the pass's maximum exploitable parallelism.
    pub fn max_width(&self) -> usize {
        self.layers.iter().map(|l| l.slots.len()).max().unwrap_or(0)
    }
}

/// The actuation surface prescriptions are applied to.
pub trait ControlPlane {
    /// Attempts to apply `action`. Returns `true` when it was applied,
    /// `false` when the control plane does not own that knob or refuses
    /// the setting (the prescription is then deferred to the operator).
    fn apply(&mut self, action: &Action) -> bool;
}

/// What happened to one prescription during a pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ActionOutcome {
    /// Applied automatically by the control plane.
    Applied,
    /// Automatable, but the control plane does not own the knob.
    Unrecognised,
    /// Not automatable: left for operator review.
    NeedsOperator,
}

/// Audit record of one prescription.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ActionRecord {
    /// Simulated/real time of the pass.
    pub at: Timestamp,
    /// Capability that produced the prescription.
    pub source: String,
    /// The knob and its proposed setting.
    pub action: Action,
    /// What the runtime did with it.
    pub outcome: ActionOutcome,
}

/// Summary of one runtime pass.
#[derive(Debug)]
pub struct PassReport {
    /// Full pipeline trace (including per-capability
    /// [`crate::pipeline::StageSpan`]s).
    pub run: PipelineRun,
    /// Prescriptions applied this pass.
    pub applied: usize,
    /// Prescriptions deferred to the operator.
    pub deferred: usize,
    /// Audit record of every prescription routed this pass, applied and
    /// deferred, in routing order.
    pub actions: Vec<ActionRecord>,
    /// Diagnoses raised this pass.
    pub diagnoses: usize,
    /// Wall time of the whole pass (pipeline + prescription routing), ns.
    pub wall_ns: u64,
}

/// Periodic ODA driver: the one owner of registered capabilities and the
/// executor of their passes (see [`crate::pipeline`]).
///
/// ```
/// use oda_core::analytics_type::AnalyticsType;
/// use oda_core::cells;
/// use oda_core::runtime::{OdaRuntime, SimControlPlane};
/// use oda_sim::prelude::*;
///
/// let mut dc = DataCenter::builder(DataCenterConfig::tiny()).seed(1).build();
/// dc.run_for_hours(0.5);
/// let mut runtime = OdaRuntime::new(3_600_000).with_capability(
///     AnalyticsType::Prescriptive,
///     Box::new(cells::prescriptive::DvfsTuner::new()),
/// );
/// let report = runtime.pass(
///     std::sync::Arc::clone(dc.store()),
///     dc.registry().clone(),
///     dc.now(),
///     &mut SimControlPlane { dc: &mut dc },
/// );
/// // Idle nodes at max clock get downclocked, and every action is audited.
/// assert_eq!(report.actions.len(), report.applied + report.deferred);
/// ```
///
/// Within one stage, capabilities are peers and do *not* see each other's
/// artifacts; across stages, later stages see everything earlier stages
/// produced.
pub struct OdaRuntime {
    slots: Vec<PipelineSlot>,
    config: RuntimeConfig,
    metrics: MetricsRegistry,
    passes: u64,
    /// Width of the telemetry window each pass analyses, ms.
    pub window_ms: u64,
}

impl OdaRuntime {
    /// Creates a runtime analysing trailing windows of `window_ms`, with
    /// the default configuration (one worker per available core).
    pub fn new(window_ms: u64) -> Self {
        Self::with_config(window_ms, RuntimeConfig::default())
    }

    /// Creates a runtime with an explicit worker count and seed. Records
    /// into a fresh registry of its own unless [`Self::with_metrics`] is
    /// used.
    pub fn with_config(window_ms: u64, config: RuntimeConfig) -> Self {
        OdaRuntime {
            slots: Vec::new(),
            config,
            metrics: MetricsRegistry::new(),
            passes: 0,
            window_ms,
        }
    }

    /// Sets the worker count (1 = serial). Builder-style.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config = self.config.with_workers(workers);
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Records pass metrics (`runtime_pass_total`, `runtime_pass_ns`,
    /// `runtime_prescriptions_{applied,deferred}_total`,
    /// `runtime_diagnoses_total`) and everything [`Self::run`] records
    /// per pass into `metrics`. Builder-style.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Adds a capability at its stage. Builder-style.
    #[must_use]
    pub fn with_capability(mut self, stage: AnalyticsType, c: Box<dyn Capability>) -> Self {
        self.add_capability(stage, c);
        self
    }

    /// Adds a capability at its stage.
    pub fn add_capability(&mut self, stage: AnalyticsType, cap: Box<dyn Capability>) {
        self.slots.push(PipelineSlot { stage, cap });
    }

    /// Runs the registered capabilities once over `ctx`, without routing
    /// anything: the pass executor behind [`Self::pass`], for callers that
    /// build their own context. Each run advances the pass seed; outputs
    /// are bit-identical at every worker count.
    pub fn run(&mut self, ctx: CapabilityContext) -> PipelineRun {
        let pass_seed = splitmix64(self.config.seed ^ splitmix64(self.passes));
        self.passes += 1;
        pipeline::run(
            &mut self.slots,
            self.config.workers,
            &self.metrics,
            pass_seed,
            ctx,
        )
    }

    /// Runs one pass at time `now` over the trailing window, applying
    /// automatable prescriptions through `control`. Capabilities read
    /// through one [`LocalPlane`] over `store` and `registry`, built per
    /// pass; once ROADMAP item 1a lands, `pass` takes the site's plane
    /// instead.
    pub fn pass(
        &mut self,
        store: Arc<TimeSeriesStore>,
        registry: SensorRegistry,
        now: Timestamp,
        control: &mut dyn ControlPlane,
    ) -> PassReport {
        let pass_timer = self.metrics.histogram("runtime_pass_ns", &[]).start_timer();
        // odalint: allow(wall-clock) -- pass duration telemetry only; never feeds output digests
        let pass_start = std::time::Instant::now();
        let ctx = CapabilityContext::new(
            Arc::new(LocalPlane { store, registry }),
            TimeRange::trailing(now, self.window_ms),
            now,
        );
        let run = self.run(ctx);
        let mut actions = Vec::new();
        let mut applied = 0;
        let mut deferred = 0;
        let mut diagnoses = 0;
        for (_, source, artifacts) in &run.stages {
            for artifact in artifacts {
                match artifact {
                    Artifact::Prescription { action, .. } => {
                        let outcome = if action.automatable() {
                            if control.apply(action) {
                                applied += 1;
                                ActionOutcome::Applied
                            } else {
                                deferred += 1;
                                ActionOutcome::Unrecognised
                            }
                        } else {
                            deferred += 1;
                            ActionOutcome::NeedsOperator
                        };
                        actions.push(ActionRecord {
                            at: now,
                            source: source.clone(),
                            action: action.clone(),
                            outcome,
                        });
                    }
                    Artifact::Diagnosis { .. } => diagnoses += 1,
                    _ => {}
                }
            }
        }
        let metrics = &self.metrics;
        metrics.counter("runtime_pass_total", &[]).inc();
        metrics
            .counter("runtime_prescriptions_applied_total", &[])
            .add(applied as u64);
        metrics
            .counter("runtime_prescriptions_deferred_total", &[])
            .add(deferred as u64);
        metrics
            .counter("runtime_diagnoses_total", &[])
            .add(diagnoses as u64);
        metrics
            .histogram("runtime_pass_ns", &[])
            .observe_timer(pass_timer);
        PassReport {
            run,
            applied,
            deferred,
            actions,
            diagnoses,
            wall_ns: elapsed_ns(pass_start),
        }
    }
}

/// Control plane over the simulated data center: owns the DVFS, cooling
/// and placement knobs.
pub struct SimControlPlane<'a> {
    /// The site being actuated.
    pub dc: &'a mut oda_sim::datacenter::DataCenter,
}

impl ControlPlane for SimControlPlane<'_> {
    fn apply(&mut self, action: &Action) -> bool {
        use crate::capability::Placement;
        use oda_analytics::prescriptive::cooling_mode::ModeAdvice;
        use oda_sim::facility::cooling::CoolingMode;
        use oda_sim::hardware::node::NodeId;
        use oda_sim::scheduler::placement::{CoolingAware, FirstFit, PackRacks};
        match *action {
            Action::NodeClock { node, ghz } => {
                if node as usize >= self.dc.node_count() {
                    return false;
                }
                self.dc.set_node_freq(NodeId(node), ghz);
            }
            Action::CoolingSetpoint(c) => self.dc.set_cooling_setpoint(c),
            Action::CoolingMode(mode) => self.dc.set_cooling_mode(match mode {
                ModeAdvice::FreeCooling => CoolingMode::FreeCooling,
                ModeAdvice::Chiller => CoolingMode::Chiller,
            }),
            Action::Placement(policy) => self.dc.set_placement_policy(match policy {
                Placement::FirstFit => Box::new(FirstFit),
                Placement::CoolingAware => Box::new(CoolingAware),
                Placement::PackRacks => Box::new(PackRacks),
            }),
            Action::AppParameters { .. }
            | Action::ServiceTicket(_)
            | Action::CodeRecommendation(_) => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;
    use oda_sim::prelude::*;

    fn full_runtime() -> OdaRuntime {
        OdaRuntime::new(2 * 3_600_000)
            .with_capability(
                AnalyticsType::Diagnostic,
                Box::new(cells::diagnostic::InfraAnomalyDetector::new()),
            )
            .with_capability(
                AnalyticsType::Predictive,
                Box::new(cells::predictive::InfraForecaster::new()),
            )
            .with_capability(
                AnalyticsType::Prescriptive,
                Box::new(cells::prescriptive::CoolingOptimizer::new()),
            )
            .with_capability(
                AnalyticsType::Prescriptive,
                Box::new(cells::prescriptive::DvfsTuner::new()),
            )
    }

    #[test]
    fn runtime_closes_the_loop_on_the_simulator() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(51)
            .build();
        dc.run_for_hours(1.0);
        let mut runtime = full_runtime();
        let store = std::sync::Arc::clone(dc.store());
        let registry = dc.registry().clone();
        let now = dc.now();
        let before_setpoint = dc.cooling_setpoint();
        let report = runtime.pass(store, registry, now, &mut SimControlPlane { dc: &mut dc });
        assert!(report.applied > 0, "idle nodes yield DVFS actions at least");
        // The setpoint tracked the actual weather (initial 30 °C is not the
        // free-cooling frontier in general).
        let after = dc.cooling_setpoint();
        let _ = before_setpoint;
        assert!((18.0..=45.0).contains(&after));
        // The report audits everything with outcomes.
        assert_eq!(report.actions.len(), report.applied + report.deferred);
        assert!(report
            .actions
            .iter()
            .all(|r| r.at == now && !r.source.is_empty()));
    }

    #[test]
    fn every_report_audits_exactly_its_own_pass() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(52)
            .build();
        let mut runtime = full_runtime();
        let mut routed = 0;
        for _ in 0..4 {
            dc.run_for_hours(0.5);
            let now = dc.now();
            let report = runtime.pass(
                std::sync::Arc::clone(dc.store()),
                dc.registry().clone(),
                now,
                &mut SimControlPlane { dc: &mut dc },
            );
            assert_eq!(report.actions.len(), report.applied + report.deferred);
            assert!(report.actions.iter().all(|r| r.at == now));
            routed += report.actions.len();
        }
        assert!(
            routed > 0,
            "four passes over a live site prescribe something"
        );
    }

    #[test]
    fn unknown_actions_are_deferred_not_lost() {
        struct DeafControlPlane;
        impl ControlPlane for DeafControlPlane {
            fn apply(&mut self, _: &Action) -> bool {
                false
            }
        }
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(53)
            .build();
        dc.run_for_hours(0.5);
        let mut runtime = full_runtime();
        let report = runtime.pass(
            std::sync::Arc::clone(dc.store()),
            dc.registry().clone(),
            dc.now(),
            &mut DeafControlPlane,
        );
        assert_eq!(report.applied, 0);
        assert!(report
            .actions
            .iter()
            .all(|r| r.outcome != ActionOutcome::Applied));
    }

    #[test]
    fn dag_layers_stages_and_serializes_prescriptive_conflicts() {
        use crate::grid::GridCell;
        use crate::pillar::Pillar;
        let cell = |a, p| GridFootprint::single(GridCell::new(a, p));
        // Registration order: prescriptive (hw), descriptive ×2, predictive,
        // prescriptive (hw again → conflicts with slot 0), prescriptive (apps).
        let slots = vec![
            (
                AnalyticsType::Prescriptive,
                cell(AnalyticsType::Prescriptive, Pillar::SystemHardware),
            ),
            (
                AnalyticsType::Descriptive,
                cell(AnalyticsType::Descriptive, Pillar::SystemHardware),
            ),
            (
                AnalyticsType::Descriptive,
                cell(AnalyticsType::Descriptive, Pillar::Applications),
            ),
            (
                AnalyticsType::Predictive,
                cell(AnalyticsType::Predictive, Pillar::SystemHardware),
            ),
            (
                AnalyticsType::Prescriptive,
                cell(AnalyticsType::Prescriptive, Pillar::SystemHardware),
            ),
            (
                AnalyticsType::Prescriptive,
                cell(AnalyticsType::Prescriptive, Pillar::Applications),
            ),
        ];
        let dag = CapabilityDag::build(&slots);
        assert_eq!(dag.len(), 6);
        let layers: Vec<(AnalyticsType, Vec<usize>)> = dag
            .layers
            .iter()
            .map(|l| (l.stage, l.slots.clone()))
            .collect();
        assert_eq!(
            layers,
            vec![
                (AnalyticsType::Descriptive, vec![1, 2]),
                (AnalyticsType::Predictive, vec![3]),
                // Slot 4 overlaps slot 0's hardware domain → its own
                // sub-layer; slot 5 (apps) rides with slot 0.
                (AnalyticsType::Prescriptive, vec![0, 5]),
                (AnalyticsType::Prescriptive, vec![4]),
            ]
        );
        // Artifact flow: 2·1 + 1·3; conflict: 0→4. Max width is the
        // descriptive/first-prescriptive pair.
        assert_eq!(dag.edges, 2 + 3 + 1);
        assert_eq!(dag.max_width(), 2);
    }

    #[test]
    fn parallel_pass_is_bit_identical_to_serial() {
        let mut outputs = Vec::new();
        for workers in [1usize, 4] {
            let mut dc = DataCenter::builder(DataCenterConfig::tiny())
                .seed(77)
                .build();
            dc.run_for_hours(1.0);
            let mut runtime = full_runtime()
                .with_workers(workers)
                .with_metrics(MetricsRegistry::new());
            let report = runtime.pass(
                std::sync::Arc::clone(dc.store()),
                dc.registry().clone(),
                dc.now(),
                &mut SimControlPlane { dc: &mut dc },
            );
            outputs.push((
                report.run.output_digest(),
                report.applied,
                report.deferred,
                report.actions,
            ));
        }
        assert_eq!(outputs[0].0, outputs[1].0, "pipeline outputs must match");
        assert_eq!(outputs[0].1, outputs[1].1, "applied counts must match");
        assert_eq!(outputs[0].2, outputs[1].2, "deferred counts must match");
        assert_eq!(outputs[0].3, outputs[1].3, "audit records must match");
    }

    /// A capability that always panics: the executor must isolate it.
    struct Exploder;
    impl Capability for Exploder {
        fn name(&self) -> &str {
            "exploder"
        }
        fn description(&self) -> &str {
            "panics on execute"
        }
        fn footprint(&self) -> crate::grid::GridFootprint {
            crate::grid::GridFootprint::single(crate::grid::GridCell::new(
                AnalyticsType::Diagnostic,
                crate::pillar::Pillar::SystemHardware,
            ))
        }
        fn execute(&mut self, _ctx: &CapabilityContext) -> Vec<Artifact> {
            panic!("deliberate test panic");
        }
    }

    #[test]
    fn capability_panic_is_isolated_and_recorded() {
        // The serial drain on the caller, then the Exploder's layer shared
        // out over scoped workers: the panic may land on either side.
        for workers in [1usize, 4] {
            let metrics = MetricsRegistry::new();
            let mut dc = DataCenter::builder(DataCenterConfig::tiny())
                .seed(55)
                .build();
            dc.run_for_hours(0.5);
            let mut runtime = full_runtime()
                .with_capability(AnalyticsType::Diagnostic, Box::new(Exploder))
                .with_workers(workers)
                .with_metrics(metrics.clone());
            let report = runtime.pass(
                std::sync::Arc::clone(dc.store()),
                dc.registry().clone(),
                dc.now(),
                &mut SimControlPlane { dc: &mut dc },
            );
            let span = report.run.span("exploder").expect("exploder span recorded");
            assert!(span.panicked, "workers={workers}");
            assert_eq!(span.artifacts, 0);
            // The rest of the pipeline still ran to completion.
            assert!(report.run.spans.len() > 1);
            assert!(report.applied + report.deferred > 0);
            assert_eq!(
                metrics
                    .snapshot()
                    .counter("runtime_capability_panics_total{capability=\"exploder\"}"),
                Some(1),
                "workers={workers}"
            );
        }
    }

    /// Records the RNG seed of every execution.
    struct SeedProbe(Arc<std::sync::Mutex<Vec<u64>>>);
    impl Capability for SeedProbe {
        fn name(&self) -> &str {
            "seed-probe"
        }
        fn description(&self) -> &str {
            "records ctx.rng_seed"
        }
        fn footprint(&self) -> GridFootprint {
            GridFootprint::single(crate::grid::GridCell::new(
                AnalyticsType::Descriptive,
                crate::pillar::Pillar::SystemHardware,
            ))
        }
        fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
            self.0.lock().unwrap().push(ctx.rng_seed);
            Vec::new()
        }
    }

    #[test]
    fn standalone_pipeline_runs_hand_out_the_runtime_pass_seeds() {
        struct NoKnobs;
        impl ControlPlane for NoKnobs {
            fn apply(&mut self, _: &Action) -> bool {
                false
            }
        }
        let store = Arc::new(TimeSeriesStore::with_capacity(8));
        for seed in [0, 0x5eed] {
            let config = RuntimeConfig::serial().with_seed(seed);
            let standalone = Arc::default();
            let mut standalone_runtime = OdaRuntime::with_config(3_600_000, config.clone())
                .with_capability(
                    AnalyticsType::Descriptive,
                    Box::new(SeedProbe(Arc::clone(&standalone))),
                );
            let in_runtime = Arc::default();
            let mut runtime = OdaRuntime::with_config(3_600_000, config).with_capability(
                AnalyticsType::Descriptive,
                Box::new(SeedProbe(Arc::clone(&in_runtime))),
            );
            for _ in 0..3 {
                standalone_runtime.run(CapabilityContext::new(
                    Arc::new(LocalPlane {
                        store: Arc::clone(&store),
                        registry: SensorRegistry::new(),
                    }),
                    TimeRange::all(),
                    Timestamp::ZERO,
                ));
                runtime.pass(
                    Arc::clone(&store),
                    SensorRegistry::new(),
                    Timestamp::ZERO,
                    &mut NoKnobs,
                );
            }
            let seeds = standalone.lock().unwrap().clone();
            assert_eq!(seeds, *in_runtime.lock().unwrap(), "seed {seed}");
            assert!(seeds[0] != seeds[1] && seeds[1] != seeds[2], "{seeds:?}");
        }
    }

    #[test]
    fn sim_control_plane_refuses_what_it_cannot_apply() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(54)
            .build();
        let mut cp = SimControlPlane { dc: &mut dc };
        assert!(cp.apply(&Action::NodeClock { node: 0, ghz: 2.0 }));
        assert!(
            !cp.apply(&Action::NodeClock {
                node: 999,
                ghz: 2.0
            }),
            "out-of-range node"
        );
        assert!(!cp.apply(&Action::AppParameters {
            threads: 16.0,
            tile: 64.0
        }));
        assert_eq!(dc.node(NodeId(0)).freq_ghz(), 2.0);
    }
}
