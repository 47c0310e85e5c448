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

use crate::analytics_type::AnalyticsType;
use crate::capability::{Artifact, Capability, CapabilityContext};
use crate::runtime::{CapabilityScheduler, RuntimeConfig};
use oda_telemetry::hash::{fnv1a_fold, FNV_OFFSET};
use oda_telemetry::metrics::MetricsRegistry;
use serde::Serialize;

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
    /// Whether the capability panicked (the scheduler isolates the panic:
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
                        setting,
                        expected_impact,
                        automatable,
                    } => {
                        fold(b"prescription");
                        fold(action.as_bytes());
                        fold(setting.as_bytes());
                        fold(expected_impact.as_bytes());
                        fold(&[*automatable as u8]);
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

/// One registered capability and its stage — the scheduler's unit of
/// dispatch. Workers borrow the capability in place, so the slot index is
/// a stable identity for the whole pipeline lifetime.
pub(crate) struct PipelineSlot {
    pub(crate) stage: AnalyticsType,
    pub(crate) cap: Box<dyn Capability>,
}

/// A pipeline of capabilities organised by analytics type.
///
/// Within one stage, capabilities run in insertion order and do *not* see
/// each other's artifacts (they are peers); across stages, later stages see
/// everything earlier stages produced.
///
/// Each capability execution is timed as a [`StageSpan`] and recorded as
/// `pipeline_stage_ns{capability}` / `pipeline_artifacts_total{capability}`
/// into the pipeline's metrics registry (the process-wide default unless
/// [`Self::with_metrics`] is used).
#[derive(Default)]
pub struct StagedPipeline {
    slots: Vec<PipelineSlot>,
    metrics: Option<MetricsRegistry>,
}

impl StagedPipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a capability at a stage. Builder-style.
    #[must_use]
    pub fn with_stage(mut self, stage: AnalyticsType, capability: Box<dyn Capability>) -> Self {
        self.add_stage(stage, capability);
        self
    }

    /// Records stage metrics into `metrics` instead of the process-wide
    /// default registry. Builder-style.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.set_metrics(metrics);
        self
    }

    /// Records stage metrics into `metrics` instead of the process-wide
    /// default registry.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = Some(metrics);
    }

    /// Adds a capability at a stage.
    pub fn add_stage(&mut self, stage: AnalyticsType, capability: Box<dyn Capability>) {
        self.slots.push(PipelineSlot {
            stage,
            cap: capability,
        });
    }

    /// Number of capabilities in the pipeline.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The metrics registry stage spans are recorded into.
    pub(crate) fn resolved_metrics(&self) -> MetricsRegistry {
        self.metrics.clone().unwrap_or_else(MetricsRegistry::global)
    }

    /// The scheduler's view of the registered capabilities.
    pub(crate) fn slots(&self) -> &[PipelineSlot] {
        &self.slots
    }

    /// Mutable slot access: a layer's workers borrow its capabilities.
    pub(crate) fn slots_mut(&mut self) -> &mut [PipelineSlot] {
        &mut self.slots
    }

    /// Runs the pipeline serially over `ctx` (whose `upstream` is used as
    /// the initial blackboard, normally empty).
    ///
    /// This is the one-worker degenerate case of the DAG scheduler in
    /// [`crate::runtime`]: stages run in staged order, peers within a stage
    /// in insertion order on the calling thread. Use
    /// [`CapabilityScheduler`] (or [`crate::runtime::OdaRuntime`], which
    /// embeds one) to fan a pass out across worker threads.
    pub fn run(&mut self, ctx: CapabilityContext) -> PipelineRun {
        let metrics = self.resolved_metrics();
        CapabilityScheduler::with_metrics(RuntimeConfig::serial(), metrics).run(self, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridCell, GridFootprint};
    use crate::pillar::Pillar;
    use oda_telemetry::query::TimeRange;
    use oda_telemetry::reading::Timestamp;
    use oda_telemetry::sensor::SensorRegistry;
    use oda_telemetry::store::TimeSeriesStore;
    use std::sync::Arc;

    fn ctx() -> CapabilityContext {
        CapabilityContext::new(
            Arc::new(TimeSeriesStore::with_capacity(8)),
            SensorRegistry::new(),
            TimeRange::all(),
            Timestamp::ZERO,
        )
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
                action: "dvfs".into(),
                setting: if self.saw_forecast {
                    "proactive"
                } else {
                    "reactive"
                }
                .into(),
                expected_impact: String::new(),
                automatable: true,
            }]
        }
    }

    #[test]
    fn later_stages_see_earlier_artifacts() {
        let mut p = StagedPipeline::new()
            .with_stage(
                AnalyticsType::Prescriptive,
                Box::new(Governor {
                    saw_forecast: false,
                }),
            )
            .with_stage(AnalyticsType::Predictive, Box::new(Predictor));
        // Insertion order deliberately reversed: the pipeline must order by
        // stage, not insertion.
        let run = p.run(ctx());
        let presc = run.stage_artifacts(AnalyticsType::Prescriptive);
        assert_eq!(presc.len(), 1);
        match presc[0] {
            Artifact::Prescription { setting, .. } => assert_eq!(setting, "proactive"),
            other => panic!("unexpected artifact {other:?}"),
        }
    }

    #[test]
    fn prescriptive_without_predictor_is_reactive() {
        let mut p = StagedPipeline::new().with_stage(
            AnalyticsType::Prescriptive,
            Box::new(Governor {
                saw_forecast: false,
            }),
        );
        let run = p.run(ctx());
        match run.stage_artifacts(AnalyticsType::Prescriptive)[0] {
            Artifact::Prescription { setting, .. } => assert_eq!(setting, "reactive"),
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
        let mut p = StagedPipeline::new()
            .with_stage(AnalyticsType::Descriptive, Box::new(Peer { name: "a" }))
            .with_stage(AnalyticsType::Descriptive, Box::new(Peer { name: "b" }));
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
        let mut p = StagedPipeline::new()
            .with_metrics(m.clone())
            .with_stage(AnalyticsType::Predictive, Box::new(Predictor))
            .with_stage(
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
    fn run_trace_is_ordered_by_stage() {
        let mut p = StagedPipeline::new()
            .with_stage(
                AnalyticsType::Prescriptive,
                Box::new(Governor {
                    saw_forecast: false,
                }),
            )
            .with_stage(AnalyticsType::Predictive, Box::new(Predictor))
            .with_stage(AnalyticsType::Descriptive, Box::new(Peer { name: "p" }));
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
