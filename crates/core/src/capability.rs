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
use oda_analytics::prescriptive::cooling_mode::ModeAdvice;
use oda_telemetry::plane::QueryPlane;
use oda_telemetry::query::TimeRange;
use oda_telemetry::reading::Timestamp;
use serde::Serialize;
use std::cmp::Ordering;
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
        /// The knob and the setting proposed for it.
        action: Action,
        /// Expected impact description.
        expected_impact: String,
    },
}

/// The actuation vocabulary: every knob a prescription can turn, with a
/// typed setting. A control plane matches on it, so a knob it does not
/// own is a match arm, not a string it fails to parse.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Action {
    /// One node's CPU clock (DVFS).
    NodeClock {
        /// Node index.
        node: u32,
        /// Clock, GHz, to 0.01 GHz.
        ghz: f64,
    },
    /// The cooling-loop inlet setpoint, °C, to 0.1 °C.
    CoolingSetpoint(f64),
    /// The cooling plant's mode.
    CoolingMode(ModeAdvice),
    /// The scheduler's placement policy.
    Placement(Placement),
    /// An application's tuned parameters.
    AppParameters {
        /// Thread count.
        threads: f64,
        /// Tile size.
        tile: f64,
    },
    /// Operator-only advice: a maintenance request.
    ServiceTicket(String),
    /// Operator-only advice: a change to the application's code.
    CodeRecommendation(String),
}

/// Placement policies a prescription can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Placement {
    /// The lowest-numbered free nodes.
    FirstFit,
    /// The coolest free nodes.
    CoolingAware,
    /// As few racks as possible.
    PackRacks,
}

impl Action {
    /// The knob's identifier, as logs and the pass digest spell it.
    pub fn knob(&self) -> String {
        match self {
            Action::NodeClock { node, .. } => return format!("node{node}/freq_ghz"),
            Action::CoolingSetpoint(_) => "cooling_setpoint_c",
            Action::CoolingMode(_) => "cooling_mode",
            Action::Placement(_) => "placement_policy",
            Action::AppParameters { .. } => "app_parameters",
            Action::ServiceTicket(_) => "service_ticket",
            Action::CodeRecommendation(_) => "code_recommendation",
        }
        .into()
    }

    /// The proposed setting, as logs and the pass digest spell it.
    pub fn setting(&self) -> String {
        match self {
            Action::NodeClock { ghz, .. } => format!("{ghz:.2}"),
            Action::CoolingSetpoint(c) => format!("{c:.1}"),
            Action::CoolingMode(ModeAdvice::FreeCooling) => "free-cooling".into(),
            Action::CoolingMode(ModeAdvice::Chiller) => "chiller".into(),
            Action::Placement(Placement::FirstFit) => "first-fit".into(),
            Action::Placement(Placement::CoolingAware) => "cooling-aware".into(),
            Action::Placement(Placement::PackRacks) => "pack-racks".into(),
            Action::AppParameters { threads, tile } => format!("threads={threads}, tile={tile}"),
            Action::ServiceTicket(text) | Action::CodeRecommendation(text) => text.clone(),
        }
    }

    /// Whether a control plane may apply it without operator review:
    /// everything but advice.
    pub fn automatable(&self) -> bool {
        !matches!(
            self,
            Action::ServiceTicket(_) | Action::CodeRecommendation(_)
        )
    }
}

/// `x` rounded to `decimals` places the way `format!("{x:.decimals$}")`
/// rounds it (to nearest on `x`'s exact binary value, ties to even), so
/// the result is bit-identical to parsing that string back. Producers
/// store clocks and setpoints this way: the value applied is the value
/// [`Action::setting`] prints.
pub(crate) fn round_to(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    let a = x.abs();
    let p = a * scale;
    // `a * scale` is exactly `p + err`. Only a `p` half-way between two
    // integers can round the wrong way, and then `err` decides.
    let err = a.mul_add(scale, -p);
    let n = match (p - p.floor()).total_cmp(&0.5).then(err.total_cmp(&0.0)) {
        Ordering::Less => p.floor(),
        Ordering::Greater => p.ceil(),
        Ordering::Equal => p.round_ties_even(),
    };
    (n / scale).copysign(x)
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
/// Capabilities read telemetry only through the site's query plane, the
/// read interface the serving layer also holds, so on a sharded site they
/// read the collector cluster. They also see the artifacts produced by
/// *earlier stages of the same pipeline run*. `window` is the analysis
/// range; `now` its upper edge. The four Applications-pillar cells also
/// take the simulator's job records, outside the context, through
/// `set_records` (see [`crate::cells`]).
pub struct CapabilityContext {
    /// The site's read interface: queries, and the registry for name→id
    /// resolution. Take it from the site once per pass: a plane taken
    /// before an archive restart keeps reading the pre-restart store.
    pub plane: Arc<dyn QueryPlane>,
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
    pub fn new(plane: Arc<dyn QueryPlane>, window: TimeRange, now: Timestamp) -> Self {
        CapabilityContext {
            plane,
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
    use oda_telemetry::plane::LocalPlane;
    use oda_telemetry::sensor::SensorRegistry;
    use oda_telemetry::store::TimeSeriesStore;

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
            Arc::new(LocalPlane {
                store: Arc::new(TimeSeriesStore::with_capacity(8)),
                registry: SensorRegistry::new(),
            }),
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

    /// The pass digest folds these strings: a digest break points at the
    /// variant whose row changed.
    #[test]
    fn actions_spell_their_knob_and_setting() {
        let table = [
            (
                Action::NodeClock { node: 0, ghz: 1.2 },
                "node0/freq_ghz",
                "1.20",
                true,
            ),
            (
                Action::CoolingSetpoint(18.0),
                "cooling_setpoint_c",
                "18.0",
                true,
            ),
            (
                Action::CoolingMode(ModeAdvice::FreeCooling),
                "cooling_mode",
                "free-cooling",
                true,
            ),
            (
                Action::CoolingMode(ModeAdvice::Chiller),
                "cooling_mode",
                "chiller",
                true,
            ),
            (
                Action::Placement(Placement::FirstFit),
                "placement_policy",
                "first-fit",
                true,
            ),
            (
                Action::Placement(Placement::CoolingAware),
                "placement_policy",
                "cooling-aware",
                true,
            ),
            (
                Action::Placement(Placement::PackRacks),
                "placement_policy",
                "pack-racks",
                true,
            ),
            (
                Action::AppParameters {
                    threads: 16.0,
                    tile: 64.0,
                },
                "app_parameters",
                "threads=16, tile=64",
                true,
            ),
            (
                Action::ServiceTicket("call someone".into()),
                "service_ticket",
                "call someone",
                false,
            ),
            (
                Action::CodeRecommendation("call someone".into()),
                "code_recommendation",
                "call someone",
                false,
            ),
        ];
        for (action, knob, setting, automatable) in table {
            assert_eq!(action.knob(), knob, "{action:?}");
            assert_eq!(action.setting(), setting, "{action:?}");
            assert_eq!(action.automatable(), automatable, "{action:?}");
        }
    }

    /// `round_to` must agree bit for bit with printing at the precision
    /// and reading back, on exact ties (odd multiples of 1/8 and 1/4) and
    /// on values one ulp either side of a half-way point.
    #[test]
    fn round_to_matches_print_and_reparse() {
        let mut xs = Vec::new();
        for k in 0..4_000u32 {
            let k = f64::from(k);
            xs.extend([k / 8.0, k / 4.0, k / 200.0, k / 20.0, -k / 8.0]);
            for half in [(k + 0.5) / 100.0, (k + 0.5) / 10.0] {
                xs.extend([half, half.next_up(), half.next_down()]);
            }
        }
        xs.extend([0.0, -0.0, 1e-9, 44.999_999, 3.004_999_999_999_999]);
        for x in xs {
            for decimals in [1, 2] {
                let printed: f64 = format!("{x:.*}", decimals as usize).parse().unwrap();
                assert_eq!(
                    round_to(x, decimals).to_bits(),
                    printed.to_bits(),
                    "{x:?} to {decimals} places"
                );
            }
        }
    }
}
