//! The unit of ODA: a capability with a grid footprint.
//!
//! A capability is anything the paper's survey would classify — a PUE
//! dashboard, a node anomaly detector, a job-duration predictor, a cooling
//! optimizer. It declares *where it lives* on the grid (its
//! [`GridFootprint`]) and implements one operation: consume a telemetry
//! window, produce typed [`Artifact`]s. The artifact types mirror the four
//! analytics types' outputs, which is what lets [`crate::pipeline`] wire
//! stages together generically: a prescriptive capability can look for
//! `Forecast` artifacts from earlier stages and become proactive.

use crate::grid::GridFootprint;
use oda_telemetry::query::TimeRange;
use oda_telemetry::reading::Timestamp;
use oda_telemetry::sensor::SensorRegistry;
use oda_telemetry::store::TimeSeriesStore;
use serde::Serialize;
use std::sync::Arc;

/// Typed output of a capability run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Artifact {
    /// Human-readable report text (dashboards, summaries).
    Report {
        /// Capability-chosen title.
        title: String,
        /// Rendered body.
        body: String,
    },
    /// A named scalar indicator (PUE, slowdown, utilization, ...).
    Kpi {
        /// Indicator name.
        name: String,
        /// Current value.
        value: f64,
    },
    /// A diagnostic finding.
    Diagnosis {
        /// Stable kind label (matches the recommendation rulebook).
        kind: String,
        /// Affected entity (node, rack, job).
        subject: String,
        /// Severity/confidence in `[0, 1]`.
        severity: f64,
        /// Free-text evidence summary.
        evidence: String,
    },
    /// A forecast of a named quantity.
    Forecast {
        /// Quantity name (usually a sensor name or KPI).
        quantity: String,
        /// Forecast horizon, seconds ahead of `now`.
        horizon_s: f64,
        /// Predicted value at the horizon.
        value: f64,
    },
    /// A recommended or enacted action.
    Prescription {
        /// Knob or action identifier.
        action: String,
        /// Proposed setting/description.
        setting: String,
        /// Expected impact description.
        expected_impact: String,
        /// Whether the pipeline may apply it without operator review.
        automatable: bool,
    },
}

impl Artifact {
    /// The KPI value, if this artifact is a KPI with the given name.
    pub fn kpi(&self, kpi_name: &str) -> Option<f64> {
        match self {
            Artifact::Kpi { name, value } if name == kpi_name => Some(*value),
            _ => None,
        }
    }

    /// Short label for logs.
    pub fn label(&self) -> &'static str {
        match self {
            Artifact::Report { .. } => "report",
            Artifact::Kpi { .. } => "kpi",
            Artifact::Diagnosis { .. } => "diagnosis",
            Artifact::Forecast { .. } => "forecast",
            Artifact::Prescription { .. } => "prescription",
        }
    }
}

/// Everything a capability may read during a run.
///
/// Capabilities see telemetry (store + registry) and the artifacts produced
/// by *earlier stages of the same pipeline run* — never simulator
/// internals. `window` is the analysis range; `now` its upper edge.
pub struct CapabilityContext {
    /// Archive to query.
    pub store: Arc<TimeSeriesStore>,
    /// Registry for name→id resolution.
    pub registry: SensorRegistry,
    /// The analysis window.
    pub window: TimeRange,
    /// Current time (upper edge of the window).
    pub now: Timestamp,
    /// Artifacts from earlier pipeline stages, in production order.
    pub upstream: Vec<Artifact>,
    /// Deterministic RNG seed for this capability execution.
    ///
    /// The scheduler derives one stream per task from the pass seed and
    /// the capability's registration slot — *never* from the worker that
    /// happens to execute the task — so a randomized capability produces
    /// bit-identical output at any worker count (which worker pulls a
    /// task off its layer is nondeterministic; a per-worker stream would
    /// break replay). Capabilities that want randomness must seed
    /// their generator from this value and nothing else.
    pub rng_seed: u64,
}

impl CapabilityContext {
    /// Creates a context with no upstream artifacts.
    pub fn new(
        store: Arc<TimeSeriesStore>,
        registry: SensorRegistry,
        window: TimeRange,
        now: Timestamp,
    ) -> Self {
        CapabilityContext {
            store,
            registry,
            window,
            now,
            upstream: Vec::new(),
            rng_seed: 0,
        }
    }

    /// Upstream forecasts of a given quantity.
    pub fn upstream_forecasts(&self, quantity: &str) -> Vec<(f64, f64)> {
        self.upstream
            .iter()
            .filter_map(|a| match a {
                Artifact::Forecast {
                    quantity: q,
                    horizon_s,
                    value,
                } if q == quantity => Some((*horizon_s, *value)),
                _ => None,
            })
            .collect()
    }

    /// Upstream diagnoses.
    pub fn upstream_diagnoses(&self) -> Vec<(&str, &str, f64)> {
        self.upstream
            .iter()
            .filter_map(|a| match a {
                Artifact::Diagnosis {
                    kind,
                    subject,
                    severity,
                    ..
                } => Some((kind.as_str(), subject.as_str(), *severity)),
                _ => None,
            })
            .collect()
    }
}

// Compile-time audit: contexts and artifacts cross worker-thread
// boundaries in the parallel scheduler.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CapabilityContext>();
    assert_send::<Artifact>();
    assert_send::<Box<dyn Capability>>();
};

/// A classified, runnable ODA component.
pub trait Capability: Send {
    /// Stable capability name.
    fn name(&self) -> &str;

    /// One-line description (what a survey table would print).
    fn description(&self) -> &str;

    /// The grid cells this capability covers.
    fn footprint(&self) -> GridFootprint;

    /// Runs the capability over the context's window.
    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics_type::AnalyticsType;
    use crate::grid::GridCell;
    use crate::pillar::Pillar;

    struct Dummy;

    impl Capability for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn description(&self) -> &str {
            "test capability"
        }
        fn footprint(&self) -> GridFootprint {
            GridFootprint::single(GridCell::new(
                AnalyticsType::Descriptive,
                Pillar::SystemHardware,
            ))
        }
        fn execute(&mut self, _ctx: &CapabilityContext) -> Vec<Artifact> {
            vec![Artifact::Kpi {
                name: "x".into(),
                value: 1.0,
            }]
        }
    }

    fn ctx() -> CapabilityContext {
        CapabilityContext::new(
            Arc::new(TimeSeriesStore::with_capacity(8)),
            SensorRegistry::new(),
            TimeRange::all(),
            Timestamp::ZERO,
        )
    }

    #[test]
    fn capability_trait_is_object_safe_and_runs() {
        let mut c: Box<dyn Capability> = Box::new(Dummy);
        let out = c.execute(&ctx());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kpi("x"), Some(1.0));
        assert_eq!(out[0].kpi("y"), None);
        assert_eq!(out[0].label(), "kpi");
    }

    #[test]
    fn context_filters_upstream_artifacts() {
        let mut ctx = ctx();
        ctx.upstream = vec![
            Artifact::Forecast {
                quantity: "power".into(),
                horizon_s: 60.0,
                value: 500.0,
            },
            Artifact::Forecast {
                quantity: "temp".into(),
                horizon_s: 60.0,
                value: 40.0,
            },
            Artifact::Diagnosis {
                kind: "fan-failure".into(),
                subject: "node3".into(),
                severity: 0.9,
                evidence: "temp rising".into(),
            },
        ];
        assert_eq!(ctx.upstream_forecasts("power"), vec![(60.0, 500.0)]);
        assert_eq!(ctx.upstream_forecasts("missing"), vec![]);
        let diags = ctx.upstream_diagnoses();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].0, "fan-failure");
    }
}
