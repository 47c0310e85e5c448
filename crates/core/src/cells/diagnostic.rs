//! Diagnostic-row reference capabilities.

use crate::analytics_type::AnalyticsType;
use crate::capability::{Artifact, Capability, CapabilityContext};
use crate::grid::{GridCell, GridFootprint};
use crate::pillar::Pillar;
use oda_analytics::descriptive::outlier::{mad_z_scores, median};
use oda_analytics::descriptive::stats::linear_fit;
use oda_analytics::diagnostic::fingerprint::{JobFeatures, NearestCentroid};
use oda_sim::datacenter::JobRecord;
use oda_sim::scheduler::job::JobClass;
use oda_telemetry::query::{Aggregation, Query, TimeRange};

/// Diagnostic × Building Infrastructure: cooling-plant anomaly detection
/// (Table I: "Infrastructure anomaly detection \[54\]", "Fingerprinting data
/// center crises \[38\]").
///
/// Watches the plant's *specific power* — cooling kW per IT kW — which is
/// invariant to load, so a rise flags plant degradation rather than a busy
/// machine. Detection compares the recent window against the earlier
/// baseline with a robust z-score.
pub struct InfraAnomalyDetector {
    /// Robust-z threshold for flagging.
    pub z_threshold: f64,
    /// Fraction of the window treated as "recent" (the candidate anomaly).
    pub recent_fraction: f64,
}

impl Default for InfraAnomalyDetector {
    fn default() -> Self {
        InfraAnomalyDetector {
            z_threshold: 6.0,
            recent_fraction: 0.25,
        }
    }
}

impl InfraAnomalyDetector {
    /// Creates the detector with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for InfraAnomalyDetector {
    fn name(&self) -> &str {
        "infra-anomaly-detector"
    }

    fn description(&self) -> &str {
        "Cooling-plant anomaly detection from specific cooling power"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Diagnostic,
            Pillar::BuildingInfrastructure,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let (Some(cooling), Some(it)) = (
            ctx.plane.registry().lookup("/facility/cooling/power_kw"),
            ctx.plane.registry().lookup("/facility/power/it_kw"),
        ) else {
            return Vec::new();
        };
        // Specific power series on a common 1-minute grid.
        let query = Query::sensors([cooling, it])
            .range(ctx.window)
            .align(60_000);
        let (grid, m) = ctx.plane.query(query).aligned();
        if grid.len() < 16 {
            return Vec::new();
        }
        let specific: Vec<f64> = m[0]
            .iter()
            .zip(&m[1])
            .map(|(&c, &i)| if i > 1e-6 { c / i } else { f64::NAN })
            .filter(|v| v.is_finite())
            .collect();
        if specific.len() < 16 {
            return Vec::new();
        }
        let split = ((1.0 - self.recent_fraction) * specific.len() as f64) as usize;
        let (baseline, recent) = specific.split_at(split.max(8).min(specific.len() - 1));
        // Robust z of the recent mean against the baseline distribution.
        let recent_mean = recent.iter().sum::<f64>() / recent.len() as f64;
        let mut with_candidate = baseline.to_vec();
        with_candidate.push(recent_mean);
        let Some(zs) = mad_z_scores(&with_candidate) else {
            return Vec::new();
        };
        let z = *zs.last().unwrap();
        if z > self.z_threshold {
            vec![Artifact::Diagnosis {
                kind: "cooling-degradation".into(),
                subject: "cooling-plant".into(),
                severity: (z / (2.0 * self.z_threshold)).min(1.0),
                evidence: format!(
                    "specific cooling power {recent_mean:.3} kW/kW, robust z {z:.1} vs baseline"
                ),
            }]
        } else {
            Vec::new()
        }
    }
}

/// Diagnostic × System Hardware: node-level anomaly detection with cause
/// attribution (Table I: "Node-level anomaly detection \[17\],\[26\],\[47\]",
/// "System-level root cause analysis \[9\]").
///
/// Comparing raw temperatures across a fleet fails: a loaded healthy node
/// runs far hotter than an idle faulty one. The detector therefore
/// compares the *thermal-path quality* of each node — its temperature rise
/// over the loop inlet per watt of power, `(T − T_inlet)/P` — which is a
/// physical constant of the node, invariant to load and weather. A fan
/// failure or degraded thermal interface multiplies it.
///
/// Two complementary tests flag a node:
///
/// * **fleet-relative** — robust z of the node's recent thermal resistance
///   against the fleet's (catches faults that predate the window, but is
///   diluted by legitimate heterogeneity such as rack cooling layout);
/// * **self-relative** — robust z of the node's recent resistance against
///   its *own* earlier baseline in the window (immune to heterogeneity;
///   catches any onset inside the window).
///
/// Attribution uses fan telemetry: high thermal resistance with a dead fan
/// is a fan failure; with a spinning fan it is thermal degradation.
pub struct NodeAnomalyDetector {
    /// Robust-z threshold against the fleet distribution.
    pub z_threshold: f64,
    /// Trailing sub-window used as "current state", milliseconds.
    pub recent_ms: u64,
    /// Minimum relative increase of thermal resistance to report — the
    /// effect-size guard. Legitimate operating-point changes (a node going
    /// idle moves its rack-offset term) shift the estimate by up to ~20%
    /// on the default layouts; real faults multiply it by 1.4× or more.
    pub min_relative_increase: f64,
}

impl Default for NodeAnomalyDetector {
    fn default() -> Self {
        NodeAnomalyDetector {
            // The relative-increase guard is the primary discriminator
            // (healthy nodes stay within ±10%, faults exceed +25%); the z
            // test only confirms the shift is large against the natural
            // (load-driven) variance, so it is deliberately loose.
            z_threshold: 2.5,
            recent_ms: 10 * 60 * 1_000,
            min_relative_increase: 0.25,
        }
    }
}

impl NodeAnomalyDetector {
    /// Creates the detector with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for NodeAnomalyDetector {
    fn name(&self) -> &str {
        "node-anomaly-detector"
    }

    fn description(&self) -> &str {
        "Fleet-relative node thermal anomaly detection with fan attribution"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Diagnostic,
            Pillar::SystemHardware,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let temps = super::node_sensors(ctx.plane.registry(), "temp_c");
        let powers = super::node_sensors(ctx.plane.registry(), "power_w");
        let fans = super::node_sensors(ctx.plane.registry(), "fan");
        if temps.len() < 4 {
            return Vec::new();
        }
        let recent = TimeRange::trailing(ctx.now, self.recent_ms);
        let inlet = ctx
            .plane
            .registry()
            .lookup("/facility/cooling/inlet_c")
            .and_then(|s| {
                let query = Query::sensors(s).range(recent).aggregate(Aggregation::Mean);
                ctx.plane.query(query).scalar()
            })
            .unwrap_or(25.0);
        // Per-node thermal-resistance *series* over the full window, on a
        // 1-minute grid: r(t) = (T(t) − inlet)/P(t).
        let bucket_ms = 60_000u64;
        let r_series: Vec<Vec<f64>> = temps
            .iter()
            .zip(&powers)
            .map(|(&t, &p)| {
                let query = Query::sensors([t, p]).range(ctx.window).align(bucket_ms);
                let (grid, m) = ctx.plane.query(query).aligned();
                let _ = grid;
                m[0].iter()
                    .zip(&m[1])
                    .filter(|(t, p)| t.is_finite() && p.is_finite() && **p > 1.0)
                    .map(|(&t, &p)| (t - inlet).max(0.0) / p)
                    .collect()
            })
            .collect();
        let recent_r: Vec<Option<f64>> = r_series
            .iter()
            .map(|s| {
                let n = s.len();
                (n >= 10).then(|| {
                    let tail = &s[n - (n / 5).max(3)..];
                    tail.iter().sum::<f64>() / tail.len() as f64
                })
            })
            .collect();
        // Fleet-relative z over the recent resistances.
        let fleet_values: Vec<f64> = recent_r.iter().flatten().copied().collect();
        if fleet_values.len() < 4 {
            return Vec::new();
        }
        let fleet_z = mad_z_scores(&fleet_values).unwrap_or(vec![0.0; fleet_values.len()]);
        let fleet_median = median(&fleet_values).unwrap_or(f64::NAN);
        let query = Query::sensors(&fans)
            .range(recent)
            .aggregate(Aggregation::Mean);
        let f_recent = ctx.plane.query(query).scalars();
        let mut out = Vec::new();
        let mut vi = 0usize;
        for (node_pos, r) in recent_r.iter().enumerate() {
            let Some(r) = r else { continue };
            let zf = fleet_z[vi];
            vi += 1;
            // Self-relative z: recent mean against the node's own *early*
            // baseline (first 25% of its series — before any mid-window
            // fault onset).
            let series = &r_series[node_pos];
            let split = ((series.len() as f64 * 0.25) as usize)
                .max(4)
                .min(series.len() - 1);
            let baseline_median = median(&series[..split]);
            let zs_self = {
                let mut baseline = series[..split].to_vec();
                baseline.push(*r);
                mad_z_scores(&baseline)
                    .map(|z| *z.last().unwrap())
                    .unwrap_or(0.0)
            };
            // Effect-size guard: the resistance must have actually *risen*
            // materially against whichever reference flagged it.
            let rel_fleet = if fleet_median > 1e-9 {
                r / fleet_median - 1.0
            } else {
                0.0
            };
            let rel_self = baseline_median
                .map(|b| if b > 1e-9 { r / b - 1.0 } else { 0.0 })
                .unwrap_or(0.0);
            let fleet_hit = zf > self.z_threshold && rel_fleet > self.min_relative_increase;
            let self_hit = zs_self > self.z_threshold && rel_self > self.min_relative_increase;
            let z = zf.max(zs_self);
            if fleet_hit || self_hit {
                let fan = f_recent.get(node_pos).copied().flatten().unwrap_or(1.0);
                let (kind, evidence) = if fan < 0.1 {
                    (
                        "fan-failure",
                        format!(
                            "thermal resistance {r:.3} °C/W (fleet z {zf:.1}, self z {zs_self:.1}), fan speed {fan:.2}"
                        ),
                    )
                } else {
                    (
                        "thermal-degradation",
                        format!(
                            "thermal resistance {r:.3} °C/W (fleet z {zf:.1}, self z {zs_self:.1}), fan spinning at {fan:.2}"
                        ),
                    )
                };
                out.push(Artifact::Diagnosis {
                    kind: kind.into(),
                    subject: format!("node{node_pos}"),
                    severity: (z / (2.0 * self.z_threshold)).min(1.0),
                    evidence,
                });
            }
        }
        out
    }
}

/// Diagnostic × System Hardware (second capability in the cell):
/// network-contention diagnosis from link-level counters (Table I:
/// "Diagnosing network contention issues \[19\],\[55\]", after Grant et al.'s
/// *overtime* and Jha et al.'s link-level analysis).
///
/// Reads each rack uplink's offered-vs-contention telemetry; sustained
/// contention below the threshold is reported per link, with severity
/// scaled by how much traffic was denied and how long.
pub struct NetworkContentionDiagnostics {
    /// Contention factor below which a link sample counts as congested.
    pub congested_below: f64,
    /// Fraction of the window that must be congested to report.
    pub min_congested_fraction: f64,
}

impl Default for NetworkContentionDiagnostics {
    fn default() -> Self {
        NetworkContentionDiagnostics {
            congested_below: 0.9,
            min_congested_fraction: 0.2,
        }
    }
}

impl NetworkContentionDiagnostics {
    /// Creates the diagnostic with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for NetworkContentionDiagnostics {
    fn name(&self) -> &str {
        "network-contention-diagnostics"
    }

    fn description(&self) -> &str {
        "Per-uplink congestion diagnosis from offered vs delivered counters"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Diagnostic,
            Pillar::SystemHardware,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let pattern = oda_telemetry::pattern::SensorPattern::new("/hw/*/uplink_contention");
        let mut out = Vec::new();
        for sensor in ctx.plane.registry().matching(&pattern) {
            let name = ctx.plane.registry().name(sensor).unwrap_or_default();
            let rack = name
                .trim_start_matches("/hw/")
                .split('/')
                .next()
                .unwrap_or("rack?")
                .to_owned();
            let query = Query::sensors(sensor).range(ctx.window);
            let samples = ctx.plane.query(query).readings();
            if samples.len() < 10 {
                continue;
            }
            let congested: Vec<f64> = samples
                .iter()
                .filter(|r| r.value < self.congested_below)
                .map(|r| r.value)
                .collect();
            let fraction = congested.len() as f64 / samples.len() as f64;
            if fraction >= self.min_congested_fraction {
                let mean_factor = congested.iter().sum::<f64>() / congested.len() as f64;
                out.push(Artifact::Diagnosis {
                    kind: "network-hog".into(),
                    subject: format!("{rack}-uplink"),
                    severity: ((1.0 - mean_factor) * fraction * 2.0).clamp(0.0, 1.0),
                    evidence: format!(
                        "congested {:.0}% of the window, mean delivery factor {mean_factor:.2}",
                        fraction * 100.0
                    ),
                });
            }
        }
        out
    }
}

/// Diagnostic × System Software: software anomaly detection (Table I:
/// "Detection of software anomalies \[16\],\[56\]", memory leaks and rogue
/// CPU consumers).
pub struct SoftwareAnomalyDetector {
    /// Minimum sustained memory growth to call a leak, GiB per hour.
    pub leak_gib_per_hour: f64,
    /// Node utilization floor that flags a rogue process on an otherwise
    /// idle machine.
    pub rogue_util_floor: f64,
}

impl Default for SoftwareAnomalyDetector {
    fn default() -> Self {
        SoftwareAnomalyDetector {
            leak_gib_per_hour: 6.0,
            rogue_util_floor: 0.15,
        }
    }
}

impl SoftwareAnomalyDetector {
    /// Creates the detector with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for SoftwareAnomalyDetector {
    fn name(&self) -> &str {
        "software-anomaly-detector"
    }

    fn description(&self) -> &str {
        "Memory-leak and rogue-process detection from node software telemetry"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Diagnostic,
            Pillar::SystemSoftware,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        // System (daemon/kernel) memory is reported separately from job
        // memory, as production node exporters do — job churn would
        // otherwise mask a daemon leak completely.
        let pattern = oda_telemetry::pattern::SensorPattern::new("/sw/*/sys_mem_gib");
        let mut mems = ctx.plane.registry().matching(&pattern);
        mems.sort_by_key(|id| {
            ctx.plane
                .registry()
                .name(*id)
                .and_then(|n| {
                    n.trim_start_matches("/sw/node")
                        .split('/')
                        .next()
                        .and_then(|s| s.parse::<u32>().ok())
                })
                .unwrap_or(u32::MAX)
        });
        let utils = super::node_sensors(ctx.plane.registry(), "util");
        let mut out = Vec::new();
        // Memory leaks: *monotone* growth of the system-memory floor.
        // Discriminator: the minimum of each quarter of the window must be
        // strictly increasing, each by a margin consistent with the
        // leak-rate threshold — a one-off allocation raises one quarter
        // and then plateaus.
        for (i, &sensor) in mems.iter().enumerate() {
            let query = Query::sensors(sensor)
                .range(ctx.window)
                .downsample(60_000, Aggregation::Min);
            let buckets = ctx.plane.query(query).buckets();
            if buckets.len() < 16 {
                continue;
            }
            let xs: Vec<f64> = buckets.iter().map(|b| b.start.as_hours_f64()).collect();
            let ys: Vec<f64> = buckets.iter().map(|b| b.value).collect();
            let Some((_, slope)) = linear_fit(&xs, &ys) else {
                continue;
            };
            let window_hours = xs.last().unwrap() - xs[0];
            let quarter_mins: Vec<f64> = ys
                .chunks(ys.len().div_ceil(4))
                .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
                .collect();
            let margin = self.leak_gib_per_hour * window_hours / 8.0;
            let monotone =
                quarter_mins.len() == 4 && quarter_mins.windows(2).all(|w| w[1] > w[0] + margin);
            if slope > self.leak_gib_per_hour && monotone {
                out.push(Artifact::Diagnosis {
                    kind: "memory-leak".into(),
                    subject: format!("node{i}"),
                    severity: (slope / (4.0 * self.leak_gib_per_hour)).min(1.0),
                    evidence: format!(
                        "memory floor rising monotonically at {slope:.1} GiB/h (quarter minima {quarter_mins:.1?})"
                    ),
                });
            }
        }
        // Rogue CPU consumers: a node whose utilization *never* drops below
        // the floor across the window even though the fleet has idle
        // capacity. Scheduler-allocated work shows phase dips; a rogue
        // process is a constant floor.
        let fleet_util = ctx
            .plane
            .registry()
            .lookup("/sw/sched/utilization")
            .and_then(|s| {
                let query = Query::sensors(s)
                    .range(ctx.window)
                    .aggregate(Aggregation::Mean);
                ctx.plane.query(query).scalar()
            })
            .unwrap_or(1.0);
        if fleet_util < 0.8 {
            for (i, &sensor) in utils.iter().enumerate() {
                let util = Query::sensors(sensor).range(ctx.window);
                let min = ctx
                    .plane
                    .query(util.clone().aggregate(Aggregation::Min))
                    .scalar();
                let mean = ctx.plane.query(util.aggregate(Aggregation::Mean)).scalar();
                if let (Some(min), Some(mean)) = (min, mean) {
                    if min > self.rogue_util_floor && mean < 0.95 {
                        out.push(Artifact::Diagnosis {
                            kind: "cpu-contention".into(),
                            subject: format!("node{i}"),
                            severity: min.min(1.0),
                            evidence: format!(
                                "utilization never below {min:.2} over the window (fleet at {fleet_util:.2})"
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

/// Diagnostic × Applications: application fingerprinting (Table I:
/// "Application fingerprinting \[33\],\[36\]"), specifically the cryptominer
/// hunt of DeMasi et al. / Ates et al.
///
/// Trains a nearest-centroid classifier on labelled historical jobs, then
/// classifies new finished jobs; suspected miners are reported as
/// diagnoses with the classifier's margin as severity.
#[derive(Default)]
pub struct AppFingerprinter {
    training: Vec<JobRecord>,
    to_classify: Vec<JobRecord>,
}

impl AppFingerprinter {
    /// Creates the capability with empty feeds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Supplies labelled history (ground-truth classes known to operators).
    pub fn set_training(&mut self, records: Vec<JobRecord>) {
        self.training = records;
    }

    /// Supplies finished jobs to classify.
    pub fn set_records(&mut self, records: Vec<JobRecord>) {
        self.to_classify = records;
    }

    fn features(r: &JobRecord) -> JobFeatures {
        JobFeatures {
            mean_cpu: r.mean_cpu,
            var_cpu: r.cpu_variance(),
            mean_mem_gib: r.mean_mem_gib,
            mean_net_gbps: r.mean_net_gbps,
        }
    }
}

impl Capability for AppFingerprinter {
    fn name(&self) -> &str {
        "app-fingerprinter"
    }

    fn description(&self) -> &str {
        "Nearest-centroid application classification; flags cryptominers"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Diagnostic,
            Pillar::Applications,
        ))
    }

    fn execute(&mut self, _ctx: &CapabilityContext) -> Vec<Artifact> {
        if self.training.len() < 5 || self.to_classify.is_empty() {
            return Vec::new();
        }
        let examples: Vec<(JobClass, JobFeatures)> = self
            .training
            .iter()
            .map(|r| (r.class, Self::features(r)))
            .collect();
        let model = NearestCentroid::fit(&examples);
        let mut out = Vec::new();
        let mut correct = 0usize;
        for r in &self.to_classify {
            let (label, confidence) = model.predict(Self::features(r));
            if label == r.class {
                correct += 1;
            }
            if label == JobClass::Cryptominer {
                out.push(Artifact::Diagnosis {
                    kind: "cryptominer".into(),
                    subject: format!("job{}", r.id.0),
                    severity: confidence,
                    evidence: format!(
                        "flat max utilization (mean {:.2}, var {:.4}), {:.1} GiB, {:.2} GB/s",
                        r.mean_cpu,
                        r.cpu_variance(),
                        r.mean_mem_gib,
                        r.mean_net_gbps
                    ),
                });
            }
        }
        out.push(Artifact::Kpi {
            name: "fingerprint_accuracy".into(),
            value: correct as f64 / self.to_classify.len() as f64,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::testutil::sim_context;
    use oda_sim::prelude::*;
    use oda_telemetry::reading::Timestamp;

    #[test]
    fn node_detector_finds_injected_fan_failure() {
        let (mut dc, _) = sim_context(0.0, 21);
        dc.inject_fault(Fault::new(
            FaultKind::FanFailure { node: NodeId(2) },
            Timestamp::from_mins(10),
            Timestamp::from_hours(3),
        ));
        dc.run_for_hours(2.0);
        let ctx = crate::capability::CapabilityContext::new(
            dc.site().plane(),
            oda_telemetry::query::TimeRange::new(Timestamp::ZERO, dc.now() + 1),
            dc.now(),
        );
        let out = NodeAnomalyDetector::new().execute(&ctx);
        let hit = out.iter().find_map(|a| match a {
            Artifact::Diagnosis { kind, subject, .. } => Some((kind.clone(), subject.clone())),
            _ => None,
        });
        let (kind, subject) = hit.expect("fan failure should be detected");
        assert_eq!(subject, "node2");
        assert_eq!(kind, "fan-failure");
    }

    #[test]
    fn node_detector_is_quiet_on_healthy_fleet() {
        let (_dc, ctx) = sim_context(2.0, 22);
        let out = NodeAnomalyDetector::new().execute(&ctx);
        let diags: Vec<_> = out
            .iter()
            .filter(|a| matches!(a, Artifact::Diagnosis { .. }))
            .collect();
        assert!(diags.is_empty(), "false alarms: {diags:?}");
    }

    #[test]
    fn network_diagnostics_find_a_hogged_uplink() {
        let (mut dc, _) = sim_context(0.0, 26);
        dc.inject_fault(Fault::new(
            FaultKind::NetworkHog {
                rack: oda_sim::hardware::rack::RackId(0),
                demand_gbps: 120.0,
            },
            Timestamp::from_mins(10),
            Timestamp::from_hours(3),
        ));
        dc.run_for_hours(2.0);
        let ctx = crate::capability::CapabilityContext::new(
            dc.site().plane(),
            oda_telemetry::query::TimeRange::new(Timestamp::ZERO, dc.now() + 1),
            dc.now(),
        );
        let out = NetworkContentionDiagnostics::new().execute(&ctx);
        let hit = out
            .iter()
            .find_map(|a| match a {
                Artifact::Diagnosis {
                    kind,
                    subject,
                    severity,
                    ..
                } => Some((kind.clone(), subject.clone(), *severity)),
                _ => None,
            })
            .expect("hogged uplink must be diagnosed");
        assert_eq!(hit.0, "network-hog");
        assert_eq!(hit.1, "rack0-uplink");
        assert!(hit.2 > 0.5, "severity {}", hit.2);
        // A quiet twin produces no rack0 finding.
        let (_clean, clean_ctx) = sim_context(2.0, 26);
        let clean_out = NetworkContentionDiagnostics::new().execute(&clean_ctx);
        assert!(
            !clean_out.iter().any(
                |a| matches!(a, Artifact::Diagnosis { subject, .. } if subject == "rack0-uplink")
            ),
            "{clean_out:?}"
        );
    }

    #[test]
    fn infra_detector_finds_cooling_degradation() {
        let (mut dc, _) = sim_context(0.0, 22);
        dc.inject_fault(Fault::new(
            FaultKind::CoolingDegradation { factor: 2.5 },
            Timestamp::from_hours(3),
            Timestamp::from_hours(8),
        ));
        dc.run_for_hours(4.0);
        let ctx = crate::capability::CapabilityContext::new(
            dc.site().plane(),
            oda_telemetry::query::TimeRange::new(Timestamp::ZERO, dc.now() + 1),
            dc.now(),
        );
        let out = InfraAnomalyDetector::new().execute(&ctx);
        assert!(
            out.iter().any(
                |a| matches!(a, Artifact::Diagnosis { kind, .. } if kind == "cooling-degradation")
            ),
            "degradation not detected: {out:?}"
        );
        // And quiet without the fault.
        let (_clean, clean_ctx) = sim_context(4.0, 22);
        assert!(InfraAnomalyDetector::new().execute(&clean_ctx).is_empty());
    }

    #[test]
    fn software_detector_finds_memory_leak() {
        let (mut dc, _) = sim_context(0.0, 24);
        dc.inject_fault(Fault::new(
            FaultKind::MemoryLeak {
                node: NodeId(1),
                gib_per_min: 0.5,
            },
            Timestamp::from_mins(10),
            Timestamp::from_hours(5),
        ));
        dc.run_for_hours(3.0);
        let ctx = crate::capability::CapabilityContext::new(
            dc.site().plane(),
            oda_telemetry::query::TimeRange::new(Timestamp::ZERO, dc.now() + 1),
            dc.now(),
        );
        let out = SoftwareAnomalyDetector::new().execute(&ctx);
        assert!(
            out.iter()
                .any(|a| matches!(a, Artifact::Diagnosis { kind, subject, .. }
                if kind == "memory-leak" && subject == "node1")),
            "leak not detected: {out:?}"
        );
    }

    #[test]
    fn fingerprinter_flags_miners_and_reports_accuracy() {
        // Build records straight from class profiles (deterministic).
        let mk = |id: u64, class: JobClass| {
            let mut r = JobRecord {
                id: JobId(id),
                user: 0,
                class,
                nodes: 1,
                submit: Timestamp::ZERO,
                start: Some(Timestamp::ZERO),
                end: Some(Timestamp::from_mins(30)),
                state: JobState::Completed,
                requested_walltime_s: 3_600.0,
                work_node_seconds: 1_000.0,
                mean_cpu: 0.0,
                var_cpu: 0.0,
                mean_mem_gib: 0.0,
                mean_net_gbps: 0.0,
                energy_j: 1.0,
                samples: 0,
            };
            // Sample the class's profile like the simulator would.
            for tick in 0..200u64 {
                let x = (tick % 100) as f64 / 100.0;
                let cpu = class.cpu_util(x);
                let n = (tick + 1) as f64;
                let d = cpu - r.mean_cpu;
                r.mean_cpu += d / n;
                r.var_cpu += d * (cpu - r.mean_cpu);
                r.mean_mem_gib += (class.memory_gib(x) - r.mean_mem_gib) / n;
                r.mean_net_gbps += (class.net_gbps(x) - r.mean_net_gbps) / n;
                r.samples += 1;
            }
            r
        };
        let mut training = Vec::new();
        let mut id = 0;
        for class in JobClass::ALL {
            for _ in 0..4 {
                training.push(mk(id, class));
                id += 1;
            }
        }
        let suspects = vec![
            mk(100, JobClass::Cryptominer),
            mk(101, JobClass::ComputeBound),
        ];
        let mut cap = AppFingerprinter::new();
        cap.set_training(training);
        cap.set_records(suspects);
        let ctx = crate::capability::CapabilityContext::new(
            std::sync::Arc::new(oda_telemetry::plane::LocalPlane {
                store: std::sync::Arc::new(oda_telemetry::store::TimeSeriesStore::with_capacity(4)),
                registry: oda_telemetry::sensor::SensorRegistry::new(),
            }),
            oda_telemetry::query::TimeRange::all(),
            Timestamp::ZERO,
        );
        let out = cap.execute(&ctx);
        let miners: Vec<&Artifact> = out
            .iter()
            .filter(|a| matches!(a, Artifact::Diagnosis { kind, .. } if kind == "cryptominer"))
            .collect();
        assert_eq!(miners.len(), 1);
        match miners[0] {
            Artifact::Diagnosis { subject, .. } => assert_eq!(subject, "job100"),
            _ => unreachable!(),
        }
        let acc = out
            .iter()
            .find_map(|a| a.kpi("fingerprint_accuracy"))
            .unwrap();
        assert_eq!(acc, 1.0);
    }
}
