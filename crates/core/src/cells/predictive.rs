//! Predictive-row reference capabilities.

use crate::analytics_type::AnalyticsType;
use crate::capability::{Artifact, Capability, CapabilityContext};
use crate::grid::{GridCell, GridFootprint};
use crate::pillar::Pillar;
use oda_analytics::predictive::ar::ArModel;
use oda_analytics::predictive::forecast::{Forecaster, Holt, HoltWinters};
use oda_analytics::predictive::jobs::{JobPredictor, Outcome, Submission};
use oda_sim::datacenter::JobRecord;
use oda_telemetry::query::{Aggregation, Query};

/// Diurnal-period Holt–Winters over a sensor downsampled to `bucket_ms`;
/// falls back to Holt's trend method while less than one full season of
/// history exists (a forecaster that refuses to forecast for its first day
/// in production would be useless).
fn seasonal_forecast(
    ctx: &CapabilityContext,
    sensor_name: &str,
    bucket_ms: u64,
    horizon_buckets: usize,
) -> Option<Vec<(f64, f64)>> {
    let sensor = ctx.plane.registry().lookup(sensor_name)?;
    let query = Query::sensors(sensor)
        .range(ctx.window)
        .downsample(bucket_ms, Aggregation::Mean);
    let buckets = ctx.plane.query(query).buckets();
    let period = (24 * 3_600_000 / bucket_ms) as usize;
    let mut model: Box<dyn Forecaster> = if buckets.len() >= period + 4 {
        Box::new(HoltWinters::new(0.3, 0.02, 0.3, period))
    } else if buckets.len() >= 8 {
        Box::new(Holt::new(0.3, 0.05))
    } else {
        return None;
    };
    for b in &buckets {
        model.update(b.value);
    }
    Some(
        (1..=horizon_buckets)
            .filter_map(|h| {
                model
                    .forecast(h)
                    .map(|v| (h as f64 * bucket_ms as f64 / 1_000.0, v))
            })
            .collect(),
    )
}

/// Predictive × Building Infrastructure: forecasting facility conditions
/// (Table I: "Predicting cooling demand \[37\]", "Predicting data center
/// KPIs \[45\]").
///
/// Holt–Winters with a daily season over outside temperature and cooling
/// power — the structure facility series actually have.
pub struct InfraForecaster {
    /// Downsampling bucket for the fitted series, ms.
    pub bucket_ms: u64,
    /// Forecast horizon in buckets.
    pub horizon_buckets: usize,
}

impl Default for InfraForecaster {
    fn default() -> Self {
        InfraForecaster {
            bucket_ms: 15 * 60 * 1_000,
            horizon_buckets: 8,
        }
    }
}

impl InfraForecaster {
    /// Creates the forecaster with default windows.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for InfraForecaster {
    fn name(&self) -> &str {
        "infra-forecaster"
    }

    fn description(&self) -> &str {
        "Holt-Winters forecasting of outside temperature and cooling demand"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Predictive,
            Pillar::BuildingInfrastructure,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let mut out = Vec::new();
        for sensor in ["/facility/outside_temp", "/facility/cooling/power_kw"] {
            if let Some(fc) = seasonal_forecast(ctx, sensor, self.bucket_ms, self.horizon_buckets) {
                for (horizon_s, value) in fc {
                    out.push(Artifact::Forecast {
                        quantity: sensor.into(),
                        horizon_s,
                        value,
                    });
                }
            }
        }
        out
    }
}

/// Predictive × System Hardware: sensor forecasting (Table I: "Forecasting
/// hardware sensors \[32\],\[47\]").
///
/// AR(p) over each node's temperature; emits the forecast for every node
/// plus a fleet-max forecast (the operators' "will anything overheat?"
/// question).
pub struct HardwareForecaster {
    /// AR order.
    pub order: usize,
    /// Downsampling bucket, ms.
    pub bucket_ms: u64,
    /// Forecast horizon in buckets.
    pub horizon_buckets: usize,
}

impl Default for HardwareForecaster {
    fn default() -> Self {
        HardwareForecaster {
            order: 4,
            bucket_ms: 60_000,
            horizon_buckets: 10,
        }
    }
}

impl HardwareForecaster {
    /// Creates the forecaster with default parameters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for HardwareForecaster {
    fn name(&self) -> &str {
        "hardware-forecaster"
    }

    fn description(&self) -> &str {
        "AR(p) forecasting of node temperatures"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Predictive,
            Pillar::SystemHardware,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let temps = super::node_sensors(ctx.plane.registry(), "temp_c");
        let mut out = Vec::new();
        let mut fleet_max: Option<f64> = None;
        for (i, &sensor) in temps.iter().enumerate() {
            let query = Query::sensors(sensor)
                .range(ctx.window)
                .downsample(self.bucket_ms, Aggregation::Mean);
            let buckets = ctx.plane.query(query).buckets();
            let series: Vec<f64> = buckets.iter().map(|b| b.value).collect();
            let Some(model) = ArModel::fit(&series, self.order) else {
                continue;
            };
            let mut recent: Vec<f64> = series.iter().rev().take(self.order).copied().collect();
            if recent.len() < self.order {
                continue;
            }
            recent.truncate(self.order);
            let fc = model.forecast(&recent, self.horizon_buckets);
            let value = *fc.last().unwrap();
            let horizon_s = self.horizon_buckets as f64 * self.bucket_ms as f64 / 1_000.0;
            out.push(Artifact::Forecast {
                quantity: format!("/hw/node{i}/temp_c"),
                horizon_s,
                value,
            });
            fleet_max = Some(fleet_max.map_or(value, |m: f64| m.max(value)));
        }
        if let Some(m) = fleet_max {
            out.push(Artifact::Forecast {
                quantity: "fleet_max_temp_c".into(),
                horizon_s: self.horizon_buckets as f64 * self.bucket_ms as f64 / 1_000.0,
                value: m,
            });
        }
        out
    }
}

/// Predictive × System Software: workload forecasting (Table I:
/// "Predicting HPC workloads \[23\]"); the companion cell "Simulating HPC
/// systems and schedulers \[49\]-\[51\]" is exercised by the what-if policy
/// experiment (E6), which replays identical workloads under different
/// placement policies using `oda-sim` as the simulator.
pub struct WorkloadForecaster {
    /// Downsampling bucket, ms.
    pub bucket_ms: u64,
    /// Forecast horizon in buckets.
    pub horizon_buckets: usize,
}

impl Default for WorkloadForecaster {
    fn default() -> Self {
        WorkloadForecaster {
            bucket_ms: 15 * 60 * 1_000,
            horizon_buckets: 8,
        }
    }
}

impl WorkloadForecaster {
    /// Creates the forecaster with default windows.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Capability for WorkloadForecaster {
    fn name(&self) -> &str {
        "workload-forecaster"
    }

    fn description(&self) -> &str {
        "Holt-Winters forecasting of queue length and arrival pressure"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Predictive,
            Pillar::SystemSoftware,
        ))
    }

    fn execute(&mut self, ctx: &CapabilityContext) -> Vec<Artifact> {
        let mut out = Vec::new();
        for sensor in ["/sw/sched/queue_len", "/sw/sched/utilization"] {
            if let Some(fc) = seasonal_forecast(ctx, sensor, self.bucket_ms, self.horizon_buckets) {
                for (horizon_s, value) in fc {
                    out.push(Artifact::Forecast {
                        quantity: sensor.into(),
                        horizon_s,
                        value: value.max(0.0),
                    });
                }
            }
        }
        out
    }
}

/// Predictive × Applications: job duration prediction from submission
/// metadata (Table I: "Predicting job durations \[30\],\[34\],\[35\]",
/// "Predicting job resource usage \[31\],\[52\],\[53\]").
#[derive(Default)]
pub struct JobDurationPredictor {
    records: Vec<JobRecord>,
}

impl JobDurationPredictor {
    /// Creates the predictor with an empty accounting feed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Supplies finished-job records (chronological).
    pub fn set_records(&mut self, records: Vec<JobRecord>) {
        self.records = records;
    }

    fn outcomes(&self) -> Vec<Outcome> {
        self.records
            .iter()
            .filter_map(|r| {
                let runtime_s = r.runtime_s()?;
                Some(Outcome {
                    submission: Submission {
                        user: r.user,
                        nodes: r.nodes,
                        requested_walltime_s: r.requested_walltime_s,
                    },
                    runtime_s,
                    mean_node_power_w: if r.samples > 0 {
                        r.energy_j / runtime_s.max(1.0) / r.nodes as f64
                    } else {
                        0.0
                    },
                })
            })
            .collect()
    }
}

impl Capability for JobDurationPredictor {
    fn name(&self) -> &str {
        "job-duration-predictor"
    }

    fn description(&self) -> &str {
        "Per-user history + k-NN prediction of job runtime and power from submission data"
    }

    fn footprint(&self) -> GridFootprint {
        GridFootprint::single(GridCell::new(
            AnalyticsType::Predictive,
            Pillar::Applications,
        ))
    }

    fn execute(&mut self, _ctx: &CapabilityContext) -> Vec<Artifact> {
        let outcomes = self.outcomes();
        if outcomes.len() < 10 {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Replay accuracy (each job predicted before being observed).
        if let Some(mape) = JobPredictor::replay_mape(&outcomes) {
            out.push(Artifact::Kpi {
                name: "job_runtime_mape".into(),
                value: mape,
            });
            // Baseline the paper-cited predictors beat: trusting the
            // requested walltime.
            let walltime_mape = outcomes
                .iter()
                .filter(|o| o.runtime_s > 1e-9)
                .map(|o| ((o.submission.requested_walltime_s - o.runtime_s) / o.runtime_s).abs())
                .sum::<f64>()
                / outcomes.len() as f64;
            out.push(Artifact::Kpi {
                name: "walltime_baseline_mape".into(),
                value: walltime_mape,
            });
        }
        // Forward prediction for the most recent submitter's next job.
        let mut model = JobPredictor::new();
        for &o in &outcomes {
            model.observe(o);
        }
        if let Some(last) = outcomes.last() {
            if let Some(pred) = model.predict(last.submission) {
                out.push(Artifact::Forecast {
                    quantity: format!("user{}_next_runtime_s", last.submission.user),
                    horizon_s: 0.0,
                    value: pred.runtime_s,
                });
                out.push(Artifact::Forecast {
                    quantity: format!("user{}_next_node_power_w", last.submission.user),
                    horizon_s: 0.0,
                    value: pred.mean_node_power_w,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::testutil::sim_context;

    #[test]
    fn infra_forecaster_trend_fallback_then_seasonal() {
        // A few hours: the trend fallback already forecasts.
        let (_dc, ctx) = sim_context(4.0, 31);
        let out = InfraForecaster::new().execute(&ctx);
        assert!(!out.is_empty(), "trend fallback should forecast");
        // Over a day: the seasonal model forecasts in a plausible band.
        let (_dc, ctx) = sim_context(30.0, 31);
        let out = InfraForecaster::new().execute(&ctx);
        let temps: Vec<f64> = out
            .iter()
            .filter_map(|a| match a {
                Artifact::Forecast {
                    quantity, value, ..
                } if quantity == "/facility/outside_temp" => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(temps.len(), 8);
        for t in temps {
            assert!((-20.0..60.0).contains(&t), "forecast {t}");
        }
    }

    #[test]
    fn hardware_forecaster_covers_every_node() {
        let (dc, ctx) = sim_context(2.0, 32);
        let out = HardwareForecaster::new().execute(&ctx);
        let per_node = out
            .iter()
            .filter(|a| matches!(a, Artifact::Forecast { quantity, .. } if quantity.starts_with("/hw/")))
            .count();
        assert_eq!(per_node, dc.node_count());
        let fleet = out.iter().find_map(|a| match a {
            Artifact::Forecast {
                quantity, value, ..
            } if quantity == "fleet_max_temp_c" => Some(*value),
            _ => None,
        });
        let m = fleet.expect("fleet max forecast");
        assert!((20.0..110.0).contains(&m), "fleet max {m}");
    }

    #[test]
    fn workload_forecaster_emits_non_negative_queue() {
        let (_dc, ctx) = sim_context(30.0, 33);
        let out = WorkloadForecaster::new().execute(&ctx);
        assert!(!out.is_empty());
        for a in &out {
            if let Artifact::Forecast { value, .. } = a {
                assert!(*value >= 0.0);
            }
        }
    }

    #[test]
    fn job_predictor_beats_walltime_baseline() {
        let (dc, ctx) = sim_context(10.0, 34);
        let mut cap = JobDurationPredictor::new();
        cap.set_records(dc.finished_jobs().to_vec());
        let out = cap.execute(&ctx);
        let mape = out.iter().find_map(|a| a.kpi("job_runtime_mape"));
        let base = out.iter().find_map(|a| a.kpi("walltime_baseline_mape"));
        let (mape, base) = (mape.expect("mape"), base.expect("baseline"));
        assert!(
            mape < base,
            "history-based prediction ({mape:.2}) must beat walltime guess ({base:.2})"
        );
    }

    #[test]
    fn job_predictor_silent_without_history() {
        let (_dc, ctx) = sim_context(0.05, 35);
        let out = JobDurationPredictor::new().execute(&ctx);
        assert!(out.is_empty());
    }
}
