//! E6 — §V-B: single-pillar vs multi-pillar ODA.
//!
//! The paper observes that most deployed ODA stays within one pillar
//! (closed systems are easier), while multi-pillar use cases — which need
//! holistic monitoring and orchestration — promise more, especially in
//! designs that couple the HPC system tightly to its cooling plant.
//!
//! The experiment compares three configurations on identical workloads:
//!
//! * **siloed** — no ODA: fixed cold cooling setpoint, first-fit
//!   placement. The facility team's conservative default.
//! * **single-pillar** — infrastructure-only ODA: the cooling controller
//!   tunes the setpoint from *facility* telemetry (weather) to maximise
//!   free cooling — the optimum *of its own silo*, since within the
//!   free-cooling region plant power barely depends on the setpoint.
//! * **multi-pillar** — a controller that also sees the System-Hardware
//!   pillar: it minimises `plant_power(setpoint) + leakage(setpoint)`
//!   using per-node temperature telemetry and the silicon's leakage
//!   coefficient. On hot afternoons with leaky silicon this optimiser
//!   discovers what the facility silo *cannot*: paying the chiller for a
//!   cold loop saves more in CPU leakage than it costs in compressor
//!   power. Placement is also cooling-aware (a System-Software decision
//!   from Building-Infrastructure data).
//!
//! Expected shape: single-pillar beats the siloed default; multi-pillar
//! beats single-pillar — the paper's "opportunities that can come from
//! multi-pillar ODA" in data centers with tight HPC/cooling coupling.

use crate::control::{metrics, run_with_controller, RunMetrics};
use oda_analytics::prescriptive::cooling_mode::PlantModel;
use oda_analytics::prescriptive::setpoint::golden_section_min;
use oda_sim::prelude::*;
use oda_sim::scheduler::placement::CoolingAware;
use oda_telemetry::query::{Aggregation, Query, TimeRange};

/// Experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Fixed setpoint, first-fit placement.
    Siloed,
    /// ODA-tuned cooling setpoint only.
    SinglePillar,
    /// Tuned cooling + cooling-aware placement.
    MultiPillar,
}

impl Config {
    /// All configurations, report order.
    pub const ALL: [Config; 3] = [Config::Siloed, Config::SinglePillar, Config::MultiPillar];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Config::Siloed => "siloed",
            Config::SinglePillar => "single-pillar",
            Config::MultiPillar => "multi-pillar",
        }
    }
}

fn site_config() -> DataCenterConfig {
    // The §V-B setting: a warm-climate site with tight coupling between
    // the HPC system and its cooling. Pronounced rack thermal
    // heterogeneity makes placement matter; leakage-sensitive silicon
    // (large `leakage_w_per_c`) is what couples loop temperature back into
    // IT power. The simulated year starts in winter, so a warm annual mean
    // puts the run in chiller-relevant conditions.
    let mut cfg = DataCenterConfig::small();
    cfg.max_rack_inlet_offset_c = 8.0;
    cfg.weather.mean_c = 24.0;
    cfg.node.leakage_w_per_c = 3.0;
    cfg.node.leakage_onset_c = 40.0;
    cfg
}

/// The infrastructure-pillar controller: hold the loop as warm as free
/// cooling needs (reading only facility telemetry). Within the
/// free-cooling region plant power is flat in the setpoint, so "lowest
/// setpoint that still admits free cooling" is the silo's optimum.
fn tune_cooling_silo(dc: &mut DataCenter) {
    let plane = dc.site().plane();
    let outside = dc
        .registry()
        .lookup("/facility/outside_temp")
        .and_then(|s| {
            let query = Query::sensors(s)
                .range(TimeRange::trailing(dc.now(), 900_000))
                .aggregate(Aggregation::Max);
            plane.query(query).scalar()
        });
    if let Some(outside) = outside {
        // Free cooling needs outside + approach ≤ setpoint; 1 °C margin.
        let target = (outside + 4.0 + 1.0).clamp(18.0, 45.0);
        dc.set_cooling_setpoint(target);
    }
}

/// The cross-pillar controller: choose the setpoint minimising
/// `plant_power + IT leakage`, where leakage response is predicted from
/// *observed per-node temperatures* (node temperature moves 1:1 with the
/// loop setpoint) and the silicon's leakage coefficient — hardware-pillar
/// knowledge a facility silo does not have.
fn tune_cooling_cross_pillar(dc: &mut DataCenter, leak_w_per_c: f64, leak_onset_c: f64) {
    let plane = dc.site().plane();
    let recent = TimeRange::trailing(dc.now(), 900_000);
    let lookup = |name: &str, agg| {
        dc.registry().lookup(name).and_then(|s| {
            let query = Query::sensors(s).range(recent).aggregate(agg);
            plane.query(query).scalar()
        })
    };
    let Some(outside) = lookup("/facility/outside_temp", Aggregation::Max) else {
        return;
    };
    let Some(it_kw) = lookup("/facility/power/it_kw", Aggregation::Mean) else {
        return;
    };
    let sp_now = dc.cooling_setpoint();
    // Per-node temperatures at the current operating point.
    let node_temps: Vec<f64> = (0..dc.node_count())
        .filter_map(|i| lookup(&format!("/hw/node{i}/temp_c"), Aggregation::Mean))
        .collect();
    if node_temps.is_empty() {
        return;
    }
    let plant = PlantModel::default();
    let cost = |sp: f64| {
        // Plant side: cheapest feasible mode at this setpoint.
        let free = plant
            .free_cooling_feasible(sp, outside)
            .then(|| plant.free_cooling_power_kw(it_kw));
        let chill = plant.chiller_power_kw(it_kw, sp, outside);
        let plant_kw = free.map_or(chill, |f| f.min(chill));
        // Hardware side: leakage at the shifted node temperatures.
        let dsp = sp - sp_now;
        let leak_kw: f64 = node_temps
            .iter()
            .map(|t| leak_w_per_c * (t + dsp - leak_onset_c).max(0.0))
            .sum::<f64>()
            / 1_000.0;
        plant_kw + leak_kw
    };
    let best = golden_section_min(18.0, 45.0, 0.1, 60, cost);
    dc.set_cooling_setpoint(best.knob);
    // Use whichever plant mode the optimiser's model found cheaper.
    let mode = if plant.free_cooling_feasible(best.knob, outside)
        && plant.free_cooling_power_kw(it_kw) <= plant.chiller_power_kw(it_kw, best.knob, outside)
    {
        CoolingMode::FreeCooling
    } else {
        CoolingMode::Chiller
    };
    dc.set_cooling_mode(mode);
}

/// Runs one configuration.
pub fn run_config(config: Config, hours: f64, seed: u64) -> RunMetrics {
    let cfg = site_config();
    let (leak_w_per_c, leak_onset_c) = (cfg.node.leakage_w_per_c, cfg.node.leakage_onset_c);
    let mut dc = DataCenter::builder(cfg).seed(seed).build();
    // Siloed sites run a conservative cold loop all year.
    dc.set_cooling_setpoint(20.0);
    match config {
        Config::Siloed => dc.run_for_hours(hours),
        Config::SinglePillar => {
            run_with_controller(&mut dc, hours, 900, tune_cooling_silo);
        }
        Config::MultiPillar => {
            dc.set_placement_policy(Box::new(CoolingAware));
            run_with_controller(&mut dc, hours, 900, |dc| {
                tune_cooling_cross_pillar(dc, leak_w_per_c, leak_onset_c);
            });
        }
    }
    metrics(&dc)
}

/// Runs the whole experiment.
pub fn run_experiment(hours: f64, seed: u64) -> Vec<(Config, RunMetrics)> {
    Config::ALL
        .into_iter()
        .map(|c| (c, run_config(c, hours, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oda_beats_siloed_and_multipillar_beats_single() {
        let results = run_experiment(8.0, 2);
        let m = |c: Config| results.iter().find(|(x, _)| *x == c).unwrap().1;
        let siloed = m(Config::Siloed);
        let single = m(Config::SinglePillar);
        let multi = m(Config::MultiPillar);
        // Single-pillar cooling ODA reduces facility energy vs the fixed
        // cold loop.
        assert!(
            single.utility_energy_kwh < siloed.utility_energy_kwh,
            "single {} vs siloed {}",
            single.utility_energy_kwh,
            siloed.utility_energy_kwh
        );
        // Multi-pillar adds on top (allow equality margin of 0.1%: the
        // placement effect is real but smaller).
        assert!(
            multi.utility_energy_kwh < single.utility_energy_kwh * 1.001,
            "multi {} vs single {}",
            multi.utility_energy_kwh,
            single.utility_energy_kwh
        );
        // No throughput collapse: completed work within 5% across configs.
        assert!(multi.work_done_node_s > siloed.work_done_node_s * 0.95);
    }
}
