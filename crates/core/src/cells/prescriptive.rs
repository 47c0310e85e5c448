//! Prescriptive-row reference capabilities.
//!
//! Prescriptive cells emit [`Artifact::Prescription`]s; the control plane
//! (an experiment harness, or an operator) applies them to the data
//! center's knobs. Each capability becomes *proactive* automatically when
//! upstream predictive artifacts are present in the pipeline context —
//! the §V-A pattern.

use crate::analytics_type::AnalyticsType;
use crate::capability::{round_to, Action, Artifact, Capability, CapabilityContext, Placement};
use crate::grid::{GridCell, GridFootprint};
use crate::pillar::Pillar;
use oda_analytics::prescriptive::autotune::{coordinate_descent, ParameterSpace};
use oda_analytics::prescriptive::cooling_mode::{CoolingModeSwitcher, PlantModel};
use oda_analytics::prescriptive::dvfs::FreqPolicy;
use oda_telemetry::query::{Aggregation, Query, TimeRange};

/// Prescriptive × Building Infrastructure: cooling setpoint and mode
/// tuning (Table I: "Switching between types of cooling \[12\]", "Tuning of
/// cooling machinery \[18\],\[37\]", "Responding to anomalies \[38\],\[39\]").
///
/// Strategy: track the outside temperature (forecast if a predictive stage
/// supplied one, otherwise the latest observation) and propose the lowest
/// setpoint that still admits free cooling, within a safety band; advise
/// the plant mode via the economics model. Upstream cooling-degradation
/// diagnoses trigger a conservative response (raise setpoint, flag for
/// service) — the anomaly-response use case.
pub struct CoolingOptimizer {
    /// Legal setpoint band, °C.
    pub setpoint_range_c: (f64, f64),
    /// Margin added over `outside + approach` to keep free cooling robust.
    pub margin_c: f64,
    plant: PlantModel,
    switcher: CoolingModeSwitcher,
}

impl Default for CoolingOptimizer {
    fn default() -> Self {
        CoolingOptimizer {
            setpoint_range_c: (18.0, 45.0),
            margin_c: 1.0,
            plant: PlantModel::default(),
            switcher: CoolingModeSwitcher::new(PlantModel::default(), 4),
        }
    }
}

impl CoolingOptimizer {
    /// Creates the optimizer with default plant economics.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for CoolingOptimizer {
    fn name(&self) -> &str {
        "cooling-optimizer"
    }

    fn description(&self) -> &str {
        "Setpoint and cooling-mode prescription; proactive with upstream weather forecasts"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Prescriptive,
            Pillar::BuildingInfrastructure,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let mut out = Vec::new();
        // Anomaly response dominates: with a degraded plant, run warm and
        // call service.
        let degraded = ctx
            .upstream_diagnoses()
            .iter()
            .any(|(kind, _, _)| *kind == "cooling-degradation");
        if degraded {
            out.push(Artifact::Prescription {
                action: Action::CoolingSetpoint(round_to(self.setpoint_range_c.1, 1)),
                expected_impact: "reduce load on degraded plant until serviced".into(),
            });
            out.push(Artifact::Prescription {
                action: Action::ServiceTicket("cooling-plant inspection".into()),
                expected_impact: "restore plant efficiency".into(),
            });
            return out;
        }
        // Outside temperature: forecast if available (proactive), else
        // latest observation (reactive).
        let forecasts = ctx.upstream_forecasts("/facility/outside_temp");
        let proactive = !forecasts.is_empty();
        let outside = if proactive {
            forecasts
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max)
        } else {
            match ctx
                .plane
                .registry()
                .lookup("/facility/outside_temp")
                .and_then(|s| {
                    let query = Query::sensors(s)
                        .range(TimeRange::trailing(ctx.now, 600_000))
                        .aggregate(Aggregation::Last);
                    ctx.plane.query(query).scalar()
                }) {
                Some(v) => v,
                None => return out,
            }
        };
        let it_kw = ctx
            .plane
            .registry()
            .lookup("/facility/power/it_kw")
            .and_then(|s| {
                let query = Query::sensors(s)
                    .range(TimeRange::trailing(ctx.now, 600_000))
                    .aggregate(Aggregation::Mean);
                ctx.plane.query(query).scalar()
            })
            .unwrap_or(0.0);
        // Lowest setpoint that keeps free cooling feasible against the
        // (worst-case forecast) outside temperature.
        let setpoint = (outside + self.plant.approach_c + self.margin_c)
            .clamp(self.setpoint_range_c.0, self.setpoint_range_c.1);
        let mode = self.switcher.advise(setpoint, outside, it_kw);
        out.push(Artifact::Prescription {
            action: Action::CoolingSetpoint(round_to(setpoint, 1)),
            expected_impact: format!(
                "{} free cooling at outside {outside:.1} °C",
                if proactive {
                    "proactively hold"
                } else {
                    "hold"
                }
            ),
        });
        out.push(Artifact::Prescription {
            action: Action::CoolingMode(mode),
            expected_impact: "cheapest feasible plant mode".into(),
        });
        out
    }
}

/// Prescriptive × System Hardware: fleet DVFS prescriptions (Table I:
/// "CPU frequency tuning \[11\],\[24\],\[40\]").
///
/// Maps each node's recent (or upstream-forecast) utilization through a
/// [`FreqPolicy`]; emits one prescription per node whose recommended clock
/// differs from its current clock by more than a deadband.
pub struct DvfsTuner {
    /// The utilization→frequency policy.
    pub policy: FreqPolicy,
    /// Minimum change worth prescribing, GHz.
    pub deadband_ghz: f64,
}

impl Default for DvfsTuner {
    fn default() -> Self {
        DvfsTuner {
            policy: FreqPolicy::default_for_range(1.2, 3.0),
            deadband_ghz: 0.05,
        }
    }
}

impl DvfsTuner {
    /// Creates the tuner with the default policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for DvfsTuner {
    fn name(&self) -> &str {
        "dvfs-tuner"
    }

    fn description(&self) -> &str {
        "Per-node CPU frequency prescriptions from utilization"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Prescriptive,
            Pillar::SystemHardware,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let utils = super::node_sensors(ctx.plane.registry(), "util");
        let freqs = super::node_sensors(ctx.plane.registry(), "freq_ghz");
        let recent = TimeRange::trailing(ctx.now, 5 * 60 * 1_000);
        let query = Query::sensors(&utils)
            .range(recent)
            .aggregate(Aggregation::Mean);
        let u = ctx.plane.query(query).scalars();
        let query = Query::sensors(&freqs)
            .range(recent)
            .aggregate(Aggregation::Last);
        let f = ctx.plane.query(query).scalars();
        let mut out = Vec::new();
        for (i, (util, cur)) in u.iter().zip(&f).enumerate() {
            let (Some(util), Some(cur)) = (util, cur) else {
                continue;
            };
            // Proactive basis when the pipeline forecast this node's load.
            let basis = ctx
                .upstream_forecasts(&format!("/hw/node{i}/util"))
                .last()
                .map(|&(_, v)| v.clamp(0.0, 1.0))
                .unwrap_or(*util);
            let target = self.policy.frequency_for(basis);
            if (target - cur).abs() > self.deadband_ghz {
                out.push(Artifact::Prescription {
                    action: Action::NodeClock {
                        node: i as u32,
                        ghz: round_to(target, 2),
                    },
                    expected_impact: format!(
                        "match clock to utilization {basis:.2} (cubic dynamic-power saving)"
                    ),
                });
            }
        }
        out
    }
}

/// Prescriptive × System Software: placement-policy prescription (Table I:
/// "Power and KPI-aware scheduling \[21\]-\[23\]", "Intelligent placement
/// \[42\]").
///
/// Chooses among the simulator's placement policies from observed
/// conditions: network contention favours packing, thermally skewed racks
/// favour cooling-aware placement, otherwise first-fit.
pub struct SchedulerTuner {
    /// Mean uplink contention below which packing is prescribed.
    pub contention_threshold: f64,
    /// Fleet temperature spread (max-min of rack means) above which
    /// cooling-aware placement is prescribed, °C.
    pub thermal_skew_c: f64,
}

impl Default for SchedulerTuner {
    fn default() -> Self {
        SchedulerTuner {
            contention_threshold: 0.98,
            thermal_skew_c: 4.0,
        }
    }
}

impl SchedulerTuner {
    /// Creates the tuner with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for SchedulerTuner {
    fn name(&self) -> &str {
        "scheduler-tuner"
    }

    fn description(&self) -> &str {
        "Prescribes the placement policy from contention and thermal telemetry"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Prescriptive,
            Pillar::SystemSoftware,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        // Mean contention across rack uplinks.
        let pattern = oda_telemetry::pattern::SensorPattern::new("/hw/*/uplink_contention");
        let links = ctx.plane.registry().matching(&pattern);
        let query = Query::sensors(&links)
            .range(ctx.window)
            .aggregate(Aggregation::Mean);
        let contention: Vec<f64> = ctx
            .plane
            .query(query)
            .scalars()
            .into_iter()
            .flatten()
            .collect();
        let mean_contention = if contention.is_empty() {
            1.0
        } else {
            contention.iter().sum::<f64>() / contention.len() as f64
        };
        // Thermal skew across nodes.
        let temps = super::node_sensors(ctx.plane.registry(), "temp_c");
        let query = Query::sensors(&temps)
            .range(ctx.window)
            .aggregate(Aggregation::Mean);
        let t_means: Vec<f64> = ctx
            .plane
            .query(query)
            .scalars()
            .into_iter()
            .flatten()
            .collect();
        let skew = if t_means.is_empty() {
            0.0
        } else {
            t_means.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - t_means.iter().copied().fold(f64::INFINITY, f64::min)
        };
        let (policy, why) = if mean_contention < self.contention_threshold {
            (
                Placement::PackRacks,
                format!("uplink contention {mean_contention:.3} — minimise inter-rack traffic"),
            )
        } else if skew > self.thermal_skew_c {
            (
                Placement::CoolingAware,
                format!("node temperature skew {skew:.1} °C — place heat where cooling is cheap"),
            )
        } else {
            (
                Placement::FirstFit,
                "no contention or thermal pressure".into(),
            )
        };
        vec![Artifact::Prescription {
            action: Action::Placement(policy),
            expected_impact: why,
        }]
    }
}

/// Prescriptive × Applications: application auto-tuning (Table I:
/// "Auto-tuning of HPC applications \[28\],\[29\],\[41\]", "Code improvement
/// recommendations \[44\]").
///
/// Owns a modelled application (runtime as a function of thread count and
/// tile size, with machine-dependent constants) and tunes it by coordinate
/// descent, exactly as Active-Harmony-style tuners search measured
/// configurations. Emits the tuned parameters and, when the tuned optimum
/// still leaves the kernel memory-bound, a code recommendation.
pub struct AppAutoTuner {
    /// Candidate thread counts.
    pub threads: Vec<f64>,
    /// Candidate tile sizes.
    pub tiles: Vec<f64>,
    /// Probe budget per tuning session.
    pub budget: usize,
}

impl Default for AppAutoTuner {
    fn default() -> Self {
        AppAutoTuner {
            threads: (0..6).map(|i| (1u32 << i) as f64).collect(), // 1..32
            tiles: vec![16.0, 32.0, 64.0, 128.0, 256.0],
            budget: 60,
        }
    }
}

impl AppAutoTuner {
    /// Creates the tuner with the default parameter space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Modelled kernel runtime (seconds) at a configuration, for a machine
    /// whose relative clock is `clock` (1.0 = nominal).
    ///
    /// The shape is the usual one: compute time scales 1/threads until
    /// memory bandwidth saturates; tiles too small thrash the cache, too
    /// large spill it; parallel overhead grows with thread count.
    fn runtime_model(threads: f64, tile: f64, clock: f64) -> f64 {
        let compute = 64.0 / (threads.min(16.0) * clock); // bandwidth wall at 16
        let cache_penalty = {
            let ideal: f64 = 64.0;
            let ratio = (tile.max(1.0) / ideal).ln().abs();
            1.0 + 0.35 * ratio * ratio
        };
        let overhead = 0.08 * threads;
        compute * cache_penalty + overhead
    }
}

impl Capability for AppAutoTuner {
    fn name(&self) -> &str {
        "app-auto-tuner"
    }

    fn description(&self) -> &str {
        "Coordinate-descent tuning of application parameters on the target machine"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Prescriptive,
            Pillar::Applications,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        // Machine state affects measured runtimes: read the fleet's mean
        // clock so the tuned optimum reflects the deployment.
        let freqs = super::node_sensors(ctx.plane.registry(), "freq_ghz");
        let query = Query::sensors(&freqs)
            .range(TimeRange::trailing(ctx.now, 600_000))
            .aggregate(Aggregation::Last);
        let clocks: Vec<f64> = ctx
            .plane
            .query(query)
            .scalars()
            .into_iter()
            .flatten()
            .collect();
        let clock = if clocks.is_empty() {
            1.0
        } else {
            clocks.iter().sum::<f64>() / clocks.len() as f64 / 3.0
        };
        let space = ParameterSpace::new(vec![self.threads.clone(), self.tiles.clone()]);
        let result = coordinate_descent(&space, vec![0, 0], self.budget, |v| {
            Self::runtime_model(v[0], v[1], clock.max(0.1))
        });
        let mut out = vec![Artifact::Prescription {
            action: Action::AppParameters {
                threads: result.best_values[0],
                tile: result.best_values[1],
            },
            expected_impact: format!(
                "modelled runtime {:.2} s after {} probes",
                result.best_cost, result.evaluations
            ),
        }];
        // Code recommendation: if adding threads past the bandwidth wall no
        // longer helps, the kernel is memory-bound.
        if result.best_values[0] >= 16.0 {
            out.push(Artifact::Prescription {
                action: Action::CodeRecommendation("improve data locality / blocking".into()),
                expected_impact: "kernel saturates memory bandwidth at 16 threads".into(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::testutil::sim_context;

    fn actions(out: &[Artifact]) -> Vec<&Action> {
        out.iter()
            .filter_map(|a| match a {
                Artifact::Prescription { action, .. } => Some(action),
                _ => None,
            })
            .collect()
    }

    fn setpoint(out: &[Artifact]) -> Option<f64> {
        actions(out).into_iter().find_map(|a| match a {
            Action::CoolingSetpoint(c) => Some(*c),
            _ => None,
        })
    }

    #[test]
    fn cooling_optimizer_tracks_outside_temperature() {
        let (_dc, ctx) = sim_context(2.0, 41);
        let out = CoolingOptimizer::new().execute(&ctx);
        let sp = setpoint(&out).expect("setpoint prescription");
        assert!((18.0..=45.0).contains(&sp), "setpoint {sp}");
        assert!(actions(&out)
            .iter()
            .any(|a| matches!(a, Action::CoolingMode(_))));
    }

    #[test]
    fn cooling_optimizer_uses_upstream_forecast_proactively() {
        let (_dc, mut ctx) = sim_context(2.0, 42);
        // A predictive stage warns of a hot afternoon.
        ctx.upstream.push(Artifact::Forecast {
            quantity: "/facility/outside_temp".into(),
            horizon_s: 3_600.0,
            value: 38.0,
        });
        let sp = setpoint(&CoolingOptimizer::new().execute(&ctx)).unwrap();
        // Must hold free cooling against the *forecast* 38 °C: ≥ 43.
        assert!(sp >= 42.9, "proactive setpoint {sp}");
    }

    #[test]
    fn cooling_optimizer_responds_to_degradation_diagnosis() {
        let (_dc, mut ctx) = sim_context(1.0, 43);
        ctx.upstream.push(Artifact::Diagnosis {
            kind: "cooling-degradation".into(),
            subject: "cooling-plant".into(),
            severity: 0.8,
            evidence: String::new(),
        });
        let out = CoolingOptimizer::new().execute(&ctx);
        assert!(actions(&out)
            .iter()
            .any(|a| matches!(a, Action::ServiceTicket(_))));
        assert_eq!(
            setpoint(&out),
            Some(45.0),
            "conservative setpoint under degradation"
        );
    }

    #[test]
    fn dvfs_tuner_downclocks_idle_nodes() {
        // A freshly-started site is idle: nodes at 3.0 GHz with ~0 util
        // should be prescribed the minimum clock.
        let (dc, ctx) = sim_context(0.5, 44);
        let out = DvfsTuner::new().execute(&ctx);
        let p = actions(&out);
        assert!(!p.is_empty(), "idle nodes at max clock must be downclocked");
        for action in p {
            let Action::NodeClock { ghz, .. } = action else {
                panic!("not a clock: {action:?}");
            };
            assert!((1.2..=3.0).contains(ghz));
        }
        let _ = dc;
    }

    #[test]
    fn scheduler_tuner_prescribes_packing_under_contention() {
        let (mut dc, _) = sim_context(0.0, 45);
        dc.inject_fault(oda_sim::prelude::Fault::new(
            oda_sim::faults::FaultKind::NetworkHog {
                rack: oda_sim::hardware::rack::RackId(0),
                demand_gbps: 100.0,
            },
            oda_telemetry::reading::Timestamp::from_mins(5),
            oda_telemetry::reading::Timestamp::from_hours(3),
        ));
        dc.run_for_hours(2.0);
        let ctx = crate::capability::CapabilityContext::new(
            dc.site().plane(),
            oda_telemetry::query::TimeRange::new(
                oda_telemetry::reading::Timestamp::ZERO,
                dc.now() + 1,
            ),
            dc.now(),
        );
        let out = SchedulerTuner::new().execute(&ctx);
        assert_eq!(
            actions(&out),
            [&Action::Placement(Placement::PackRacks)],
            "congestion should prescribe packing"
        );
    }

    #[test]
    fn app_tuner_finds_interior_optimum() {
        let (_dc, ctx) = sim_context(0.5, 46);
        let out = AppAutoTuner::new().execute(&ctx);
        let p = actions(&out);
        // The modelled kernel's best tile is 64; threads should hit the
        // bandwidth wall at 16 (not 32 — overhead) for any clock.
        assert_eq!(
            p[0],
            &Action::AppParameters {
                threads: 16.0,
                tile: 64.0
            }
        );
        // Memory-bound recommendation accompanies the wall.
        assert!(p.iter().any(|a| matches!(a, Action::CodeRecommendation(_))));
    }
}
