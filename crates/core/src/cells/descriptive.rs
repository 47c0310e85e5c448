//! Descriptive-row reference capabilities: one dashboard/KPI capability per
//! pillar.

use crate::analytics_type::AnalyticsType;
use crate::capability::{Artifact, Capability, CapabilityContext};
use crate::grid::{GridCell, GridFootprint};
use crate::pillar::Pillar;
use oda_analytics::descriptive::dashboard::{gauge, sparkline, stat_line, Table};
use oda_analytics::descriptive::kpi::{self, SystemInformationEntropy};
use oda_sim::datacenter::JobRecord;
use oda_telemetry::query::{Aggregation, Query};

fn resolve(ctx: &CapabilityContext, name: &str) -> Option<oda_telemetry::sensor::SensorId> {
    ctx.plane.registry().lookup(name)
}

/// Descriptive × Building Infrastructure: PUE calculation and a facility
/// wallboard (Table I: "PUE calculation \[4\]", "Facility-level dashboards
/// \[1\],\[7\]").
#[derive(Default)]
pub struct FacilityDashboard;

impl FacilityDashboard {
    /// Creates the capability.
    pub fn new() -> Self {
        Self
    }
}

impl Capability for FacilityDashboard {
    fn name(&self) -> &str {
        "facility-dashboard"
    }

    fn description(&self) -> &str {
        "PUE calculation and facility-level wallboard over cooling/power telemetry"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Descriptive,
            Pillar::BuildingInfrastructure,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let mut out = Vec::new();
        let get_mean = |name: &str| {
            resolve(ctx, name).and_then(|s| {
                let query = Query::sensors(s)
                    .range(ctx.window)
                    .aggregate(Aggregation::Mean);
                ctx.plane.query(query).scalar()
            })
        };
        let utility = get_mean("/facility/power/utility_kw");
        let it = get_mean("/facility/power/it_kw");
        let cooling = get_mean("/facility/cooling/power_kw");
        if let (Some(u), Some(i)) = (utility, it) {
            if let Some(p) = kpi::pue(u, i) {
                out.push(Artifact::Kpi {
                    name: "pue".into(),
                    value: p,
                });
            }
        }
        let mut body = String::new();
        if let Some(u) = utility {
            body.push_str(&stat_line("Utility feed", u, "kW"));
            body.push('\n');
        }
        if let Some(i) = it {
            body.push_str(&stat_line("IT load", i, "kW"));
            body.push('\n');
        }
        if let Some(c) = cooling {
            body.push_str(&stat_line("Cooling plant", c, "kW"));
            body.push('\n');
        }
        if let Some(s) = resolve(ctx, "/facility/outside_temp") {
            let query = Query::sensors(s)
                .range(ctx.window)
                .downsample(600_000, Aggregation::Mean);
            let buckets = ctx.plane.query(query).buckets();
            let series: Vec<f64> = buckets
                .iter()
                .rev()
                .take(48)
                .rev()
                .map(|b| b.value)
                .collect();
            body.push_str(&format!("Outside temp  {}\n", sparkline(&series)));
        }
        out.push(Artifact::Report {
            title: "Facility wallboard".into(),
            body,
        });
        out
    }
}

/// Descriptive × System Hardware: ITUE, System Information Entropy and a
/// node fleet dashboard (Table I: "ITUE calculation \[59\]", "System
/// performance indicators \[14\]", "System-level dashboards \[7\],\[8\]").
pub struct HardwareDashboard {
    /// Fan power at full speed, used to separate "useful" compute power
    /// from node overhead in the ITUE denominator (deployment constant).
    pub fan_max_w: f64,
    /// Temperature above which a node counts as "hot" in the SIE state
    /// space.
    pub hot_threshold_c: f64,
}

impl Default for HardwareDashboard {
    fn default() -> Self {
        HardwareDashboard {
            fan_max_w: 60.0,
            hot_threshold_c: 80.0,
        }
    }
}

impl HardwareDashboard {
    /// Creates the capability with default deployment constants.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for HardwareDashboard {
    fn name(&self) -> &str {
        "hardware-dashboard"
    }

    fn description(&self) -> &str {
        "ITUE and SIE indicators plus a per-node fleet dashboard"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Descriptive,
            Pillar::SystemHardware,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let mut out = Vec::new();
        let powers = super::node_sensors(ctx.plane.registry(), "power_w");
        let temps = super::node_sensors(ctx.plane.registry(), "temp_c");
        let utils = super::node_sensors(ctx.plane.registry(), "util");
        let fans = super::node_sensors(ctx.plane.registry(), "fan");
        let mean_of = |ids: &[oda_telemetry::sensor::SensorId]| {
            let query = Query::sensors(ids)
                .range(ctx.window)
                .aggregate(Aggregation::Mean);
            ctx.plane.query(query).scalars()
        };
        let p_means = mean_of(&powers);
        let t_means = mean_of(&temps);
        let u_means = mean_of(&utils);
        let f_means = mean_of(&fans);
        // ITUE: total node power over power excluding node-internal cooling
        // (fans). Fan power model: fan_max · speed³.
        let total_w: f64 = p_means.iter().flatten().sum();
        let fan_w: f64 = f_means
            .iter()
            .flatten()
            .map(|s| self.fan_max_w * s.powi(3))
            .sum();
        if total_w > 0.0 {
            if let Some(itue) = kpi::itue(total_w, total_w - fan_w) {
                out.push(Artifact::Kpi {
                    name: "itue".into(),
                    value: itue,
                });
            }
        }
        // SIE over per-node (util, temp) states sampled at window means —
        // entropy of the fleet's state distribution.
        let mut sie = SystemInformationEntropy::new(6);
        for (u, t) in u_means.iter().zip(&t_means) {
            if let (Some(u), Some(t)) = (u, t) {
                sie.observe(kpi::node_state(*u, *t, self.hot_threshold_c));
            }
        }
        if sie.count() > 0 {
            out.push(Artifact::Kpi {
                name: "sie_bits".into(),
                value: sie.entropy_bits(),
            });
        }
        // Fleet table.
        let mut table = Table::new(["node", "power W", "temp °C", "util"]);
        for (i, ((p, t), u)) in p_means.iter().zip(&t_means).zip(&u_means).enumerate() {
            if let (Some(p), Some(t), Some(u)) = (p, t, u) {
                table.row([
                    format!("node{i}"),
                    format!("{p:.0}"),
                    format!("{t:.1}"),
                    gauge(*u, 10),
                ]);
            }
        }
        out.push(Artifact::Report {
            title: "Node fleet".into(),
            body: table.render(),
        });
        out
    }
}

/// Descriptive × System Software: slowdown and scheduler dashboard
/// (Table I: "Slowdown calculation \[60\]", "Scheduler-level dashboards
/// \[61\],\[62\]").
#[derive(Default)]
pub struct SchedulerDashboard {
    records: Vec<JobRecord>,
}

impl SchedulerDashboard {
    /// Creates the capability with an empty accounting feed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Supplies the resource manager's accounting records (finished jobs).
    pub fn set_records(&mut self, records: Vec<JobRecord>) {
        self.records = records;
    }
}

impl Capability for SchedulerDashboard {
    fn name(&self) -> &str {
        "scheduler-dashboard"
    }

    fn description(&self) -> &str {
        "Job slowdown KPI and scheduler state dashboard"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Descriptive,
            Pillar::SystemSoftware,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let mut out = Vec::new();
        let scalar = |name: &str, agg: Aggregation| {
            resolve(ctx, name).and_then(|s| {
                let query = Query::sensors(s).range(ctx.window).aggregate(agg);
                ctx.plane.query(query).scalar()
            })
        };
        let mean = |name: &str| scalar(name, Aggregation::Mean);
        let last = |name: &str| scalar(name, Aggregation::Last);
        if let Some(u) = mean("/sw/sched/utilization") {
            out.push(Artifact::Kpi {
                name: "utilization".into(),
                value: u,
            });
        }
        // Bounded slowdown from accounting records.
        let waits_runs: Vec<(f64, f64)> = self
            .records
            .iter()
            .filter_map(|r| {
                let run = r.runtime_s()?;
                let wait = r.start?.millis_since(r.submit) as f64 / 1_000.0;
                Some((wait, run))
            })
            .collect();
        if let Some(sd) = kpi::mean_bounded_slowdown(&waits_runs, 10.0) {
            out.push(Artifact::Kpi {
                name: "mean_bounded_slowdown".into(),
                value: sd,
            });
        }
        let mut body = String::new();
        for (label, sensor) in [
            ("Queue length", "/sw/sched/queue_len"),
            ("Running jobs", "/sw/sched/running"),
            ("Completed", "/sw/sched/completed_total"),
            ("Killed at walltime", "/sw/sched/killed_total"),
        ] {
            if let Some(v) = last(sensor) {
                body.push_str(&stat_line(label, v, ""));
                body.push('\n');
            }
        }
        if let Some(s) = resolve(ctx, "/sw/sched/queue_len") {
            let query = Query::sensors(s)
                .range(ctx.window)
                .downsample(600_000, Aggregation::Mean);
            let buckets = ctx.plane.query(query).buckets();
            let series: Vec<f64> = buckets
                .iter()
                .rev()
                .take(48)
                .rev()
                .map(|b| b.value)
                .collect();
            body.push_str(&format!("Queue history {}\n", sparkline(&series)));
        }
        out.push(Artifact::Report {
            title: "Scheduler".into(),
            body,
        });
        out
    }
}

/// Descriptive × Applications: job-level dashboards and per-job accounting
/// (Table I: "Job performance models \[63\]", "Job data processing \[8\]",
/// "Job-level dashboards \[5\],\[6\],\[10\]").
#[derive(Default)]
pub struct JobDashboard {
    records: Vec<JobRecord>,
}

impl JobDashboard {
    /// Creates the capability with an empty accounting feed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Supplies finished-job records.
    pub fn set_records(&mut self, records: Vec<JobRecord>) {
        self.records = records;
    }
}

impl Capability for JobDashboard {
    fn name(&self) -> &str {
        "job-dashboard"
    }

    fn description(&self) -> &str {
        "Per-job accounting dashboard: runtimes, energy, class mix"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Descriptive,
            Pillar::Applications,
        ))
    }

    fn execute(&mut self, _ctx: &CapabilityContext) -> Vec<Artifact> {
        let mut out = Vec::new();
        out.push(Artifact::Kpi {
            name: "jobs_finished".into(),
            value: self.records.len() as f64,
        });
        if !self.records.is_empty() {
            let total_energy_kwh: f64 =
                self.records.iter().map(|r| r.energy_j).sum::<f64>() / 3.6e6;
            out.push(Artifact::Kpi {
                name: "job_energy_kwh_total".into(),
                value: total_energy_kwh,
            });
        }
        let mut table = Table::new(["job", "user", "nodes", "runtime s", "energy kWh", "cpu"]);
        for r in self.records.iter().rev().take(20) {
            table.row([
                format!("{}", r.id.0),
                format!("u{}", r.user),
                format!("{}", r.nodes),
                format!("{:.0}", r.runtime_s().unwrap_or(0.0)),
                format!("{:.2}", r.energy_j / 3.6e6),
                gauge(r.mean_cpu, 8),
            ]);
        }
        out.push(Artifact::Report {
            title: "Recent jobs".into(),
            body: table.render(),
        });
        out
    }
}

/// Descriptive × (Infrastructure + Hardware): threshold alerting — the
/// paper's "automated alerts upon exceeding human-defined thresholds of
/// monitored sensors", explicitly part of descriptive analytics (§III-B).
///
/// A second capability sharing cells with the dashboards, demonstrating
/// that the framework admits many capabilities per cell. Rules are
/// configured as sensor-name/threshold pairs; the board replays the
/// window through a debounced [`oda_telemetry::alert::AlertEngine`] and
/// reports the currently-firing alerts.
pub struct AlertBoard {
    /// `(rule name, sensor name, condition, severity)` tuples.
    pub rules: Vec<(
        String,
        String,
        oda_telemetry::alert::Condition,
        oda_telemetry::alert::AlertSeverity,
    )>,
    /// Consecutive violating samples required before firing.
    pub debounce: u32,
}

impl Default for AlertBoard {
    fn default() -> Self {
        use oda_telemetry::alert::{AlertSeverity, Condition};
        AlertBoard {
            rules: vec![
                (
                    "pue-high".into(),
                    "/facility/pue".into(),
                    Condition::Above(2.2),
                    AlertSeverity::Warning,
                ),
                (
                    "node-hot".into(),
                    "/hw/*/temp_c".into(),
                    Condition::Above(88.0),
                    AlertSeverity::Critical,
                ),
                (
                    "queue-deep".into(),
                    "/sw/sched/queue_len".into(),
                    Condition::Above(50.0),
                    AlertSeverity::Info,
                ),
            ],
            debounce: 3,
        }
    }
}

impl AlertBoard {
    /// Creates the board with the default operator rulebook.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for AlertBoard {
    fn name(&self) -> &str {
        "alert-board"
    }

    fn description(&self) -> &str {
        "Debounced threshold alerts over configured sensors"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::from_cells(&[
            GridCell::new(AnalyticsType::Descriptive, Pillar::BuildingInfrastructure),
            GridCell::new(AnalyticsType::Descriptive, Pillar::SystemHardware),
        ])
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        use oda_telemetry::alert::{AlertEngine, AlertRule};
        use oda_telemetry::pattern::SensorPattern;
        // Expand patterns to concrete sensors, build the engine.
        let registry = ctx.plane.registry();
        let mut rules = Vec::new();
        for (name, sensor_pat, condition, severity) in &self.rules {
            for sensor in registry.matching(&SensorPattern::new(sensor_pat)) {
                let label = if sensor_pat.contains('*') {
                    let full = registry.name(sensor).unwrap_or_default();
                    format!("{name} ({full})")
                } else {
                    name.clone()
                };
                rules.push(
                    AlertRule::new(label, sensor, *condition, *severity)
                        .with_debounce(self.debounce),
                );
            }
        }
        let sensors: Vec<oda_telemetry::sensor::SensorId> =
            rules.iter().map(|r| r.sensor).collect();
        let mut engine = AlertEngine::new(rules);
        // Replay the window per sensor (chronological per series is all the
        // level rules need).
        let mut fired_log = Vec::new();
        for sensor in sensors {
            let query = Query::sensors(sensor).range(ctx.window);
            let readings = ctx.plane.query(query).readings();
            for reading in readings {
                for ev in engine.observe(sensor, reading) {
                    if ev.active {
                        fired_log.push(format!(
                            "[{}] {:?} {} (value {:.2})",
                            reading.ts, ev.severity, ev.rule, reading.value
                        ));
                    }
                }
            }
        }
        let active: Vec<String> = engine
            .active_rules()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        let mut body = String::new();
        body.push_str(&format!(
            "{} alerts fired over the window; {} active now\n",
            engine.fired_total(),
            active.len()
        ));
        for line in fired_log.iter().take(20) {
            body.push_str(line);
            body.push('\n');
        }
        for a in &active {
            body.push_str(&format!("ACTIVE: {a}\n"));
        }
        vec![
            Artifact::Kpi {
                name: "alerts_active".into(),
                value: active.len() as f64,
            },
            Artifact::Report {
                title: "Alert board".into(),
                body,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::testutil::sim_context;

    #[test]
    fn facility_dashboard_reports_pue() {
        let (_dc, ctx) = sim_context(1.0, 11);
        let out = FacilityDashboard::new().execute(&ctx);
        let pue = out.iter().find_map(|a| a.kpi("pue")).expect("pue kpi");
        assert!(pue > 1.0 && pue < 3.0, "pue {pue}");
        assert!(out
            .iter()
            .any(|a| matches!(a, Artifact::Report { body, .. } if body.contains("IT load"))));
    }

    #[test]
    fn hardware_dashboard_reports_itue_and_sie() {
        let (_dc, ctx) = sim_context(1.0, 12);
        let out = HardwareDashboard::new().execute(&ctx);
        let itue = out.iter().find_map(|a| a.kpi("itue")).expect("itue kpi");
        assert!((1.0..1.5).contains(&itue), "itue {itue}");
        assert!(out.iter().any(|a| a.kpi("sie_bits").is_some()));
        // The fleet table lists all 8 tiny-site nodes.
        let report = out
            .iter()
            .find_map(|a| match a {
                Artifact::Report { body, .. } => Some(body),
                _ => None,
            })
            .unwrap();
        assert!(report.contains("node7"));
    }

    #[test]
    fn scheduler_dashboard_uses_accounting_feed() {
        let (dc, ctx) = sim_context(4.0, 13);
        let mut cap = SchedulerDashboard::new();
        cap.set_records(dc.finished_jobs().to_vec());
        let out = cap.execute(&ctx);
        let sd = out
            .iter()
            .find_map(|a| a.kpi("mean_bounded_slowdown"))
            .expect("slowdown kpi");
        assert!(sd >= 1.0, "slowdown {sd}");
        assert!(out.iter().any(|a| a.kpi("utilization").is_some()));
    }

    #[test]
    fn job_dashboard_summarises_records() {
        let (dc, ctx) = sim_context(4.0, 14);
        let mut cap = JobDashboard::new();
        cap.set_records(dc.finished_jobs().to_vec());
        let out = cap.execute(&ctx);
        let n = out.iter().find_map(|a| a.kpi("jobs_finished")).unwrap();
        assert!(n > 0.0);
        assert!(out.iter().any(|a| a.kpi("job_energy_kwh_total").is_some()));
    }

    #[test]
    fn alert_board_quiet_on_healthy_site_fires_on_hot_node() {
        // Healthy: no active alerts.
        let (_dc, ctx) = sim_context(1.0, 15);
        let out = AlertBoard::new().execute(&ctx);
        assert_eq!(out.iter().find_map(|a| a.kpi("alerts_active")), Some(0.0));

        // Fan failure under stress load → node crosses the 88 °C rule.
        let (mut dc, _) = sim_context(0.0, 15);
        dc.inject_fault(oda_sim::prelude::Fault::new(
            oda_sim::faults::FaultKind::FanFailure {
                node: oda_sim::prelude::NodeId(0),
            },
            oda_telemetry::reading::Timestamp::ZERO,
            oda_telemetry::reading::Timestamp::from_hours(4),
        ));
        dc.submit_stress_test(8, 3_600.0);
        dc.run_for_hours(1.0);
        let ctx = crate::capability::CapabilityContext::new(
            dc.site().plane(),
            oda_telemetry::query::TimeRange::new(
                oda_telemetry::reading::Timestamp::ZERO,
                dc.now() + 1,
            ),
            dc.now(),
        );
        let out = AlertBoard::new().execute(&ctx);
        let active = out.iter().find_map(|a| a.kpi("alerts_active")).unwrap();
        assert!(active >= 1.0, "hot node must raise an alert");
        let report = out
            .iter()
            .find_map(|a| match a {
                Artifact::Report { body, .. } => Some(body.clone()),
                _ => None,
            })
            .unwrap();
        assert!(report.contains("node-hot"), "{report}");
        assert!(report.contains("node0"), "{report}");
    }

    #[test]
    fn alert_board_shares_cells_with_dashboards() {
        use crate::grid::Coverage;
        let cov = Coverage::of([
            FacilityDashboard::new().footprint(),
            AlertBoard::new().footprint(),
        ]);
        let cell = GridCell::new(AnalyticsType::Descriptive, Pillar::BuildingInfrastructure);
        assert_eq!(
            cov.per_cell.get(cell),
            &2usize,
            "two capabilities in one cell"
        );
    }

    #[test]
    fn dashboards_survive_empty_telemetry() {
        let ctx = crate::capability::CapabilityContext::new(
            std::sync::Arc::new(oda_telemetry::plane::LocalPlane {
                store: std::sync::Arc::new(oda_telemetry::store::TimeSeriesStore::with_capacity(4)),
                registry: oda_telemetry::sensor::SensorRegistry::new(),
            }),
            oda_telemetry::query::TimeRange::all(),
            oda_telemetry::reading::Timestamp::ZERO,
        );
        for mut cap in [
            Box::new(FacilityDashboard::new()) as Box<dyn Capability>,
            Box::new(HardwareDashboard::new()),
            Box::new(SchedulerDashboard::new()),
            Box::new(JobDashboard::new()),
        ] {
            let out = cap.execute(&ctx);
            // No KPIs fabricated from nothing, but a report is still
            // produced (possibly empty).
            assert!(out.iter().all(|a| a.kpi("pue").is_none()));
            assert!(out.iter().any(|a| matches!(a, Artifact::Report { .. })));
        }
    }
}
