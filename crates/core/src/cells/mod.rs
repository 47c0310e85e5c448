//! Working reference capabilities — one (at least) per grid cell.
//!
//! The paper classifies fifty published systems into sixteen cells; this
//! module makes the classification concrete by providing a runnable
//! capability for every cell, each built from `oda-analytics` algorithms
//! over ordinary telemetry. Together they turn Table I from a taxonomy
//! into a test suite: experiment E8 executes all sixteen against one
//! simulated trace.
//!
//! Conventions shared by all cells:
//!
//! * inputs are the telemetry archive (plus, for Applications-pillar
//!   cells, the resource manager's job-accounting feed — the equivalent of
//!   reading the SLURM database, provided via `set_records`);
//! * outputs are typed [`crate::capability::Artifact`]s.
//!
//! That job feed is the simulator's own `oda_sim::datacenter::JobRecord`,
//! handed over outside [`crate::capability::CapabilityContext`]: four cells
//! read it through `set_records` / `set_training` (`JobDashboard`,
//! `AppFingerprinter`, `JobDurationPredictor` and `SchedulerDashboard`), and
//! each record folds the workload class's *demanded* resources, not what
//! the node sensors report. ROADMAP item 13 moves these cells onto the
//! monitoring data.

pub mod descriptive;
pub mod diagnostic;
pub mod predictive;
pub mod prescriptive;

use crate::capability::Capability;
use oda_telemetry::pattern::SensorPattern;
use oda_telemetry::sensor::{SensorId, SensorRegistry};

/// Resolves all `/hw/node*/<leaf>` sensors, ordered by node index (stable,
/// so sensors whose name does not parse keep their match order, last). Each
/// name is read and parsed once, not once per comparison.
pub(crate) fn node_sensors(registry: &SensorRegistry, leaf: &str) -> Vec<SensorId> {
    let pattern = SensorPattern::new(&format!("/hw/*/{leaf}"));
    let mut ids = registry.matching(&pattern);
    ids.sort_by_cached_key(|&id| node_index_of(registry, id).unwrap_or(u32::MAX));
    ids
}

/// Node index parsed back from a `/hw/node<i>/...` sensor name.
pub(crate) fn node_index_of(registry: &SensorRegistry, id: SensorId) -> Option<u32> {
    registry.name(id).and_then(|n| {
        n.trim_start_matches("/hw/node")
            .split('/')
            .next()
            .and_then(|s| s.parse().ok())
    })
}

/// Builds the sixteen-plus-extras capability set: the sixteen reference
/// capabilities plus the additional per-cell capabilities (alert board,
/// network-contention diagnostics) — demonstrating that cells hold many
/// capabilities, as the paper's Table I cells hold many use cases.
pub fn extended_set() -> Vec<Box<dyn Capability>> {
    let mut set = all_sixteen();
    set.push(Box::new(descriptive::AlertBoard::new()));
    set.push(Box::new(diagnostic::NetworkContentionDiagnostics::new()));
    set
}

/// Builds the full set of sixteen reference capabilities with default
/// configurations (Applications-pillar cells start with empty accounting
/// feeds).
pub fn all_sixteen() -> Vec<Box<dyn Capability>> {
    vec![
        Box::new(descriptive::FacilityDashboard::new()),
        Box::new(descriptive::HardwareDashboard::new()),
        Box::new(descriptive::SchedulerDashboard::new()),
        Box::new(descriptive::JobDashboard::new()),
        Box::new(diagnostic::InfraAnomalyDetector::new()),
        Box::new(diagnostic::NodeAnomalyDetector::new()),
        Box::new(diagnostic::SoftwareAnomalyDetector::new()),
        Box::new(diagnostic::AppFingerprinter::new()),
        Box::new(predictive::InfraForecaster::new()),
        Box::new(predictive::HardwareForecaster::new()),
        Box::new(predictive::WorkloadForecaster::new()),
        Box::new(predictive::JobDurationPredictor::new()),
        Box::new(prescriptive::CoolingOptimizer::new()),
        Box::new(prescriptive::DvfsTuner::new()),
        Box::new(prescriptive::SchedulerTuner::new()),
        Box::new(prescriptive::AppAutoTuner::new()),
    ]
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::capability::CapabilityContext;
    use oda_sim::prelude::*;
    use oda_telemetry::query::TimeRange;
    use std::sync::Arc;

    /// Runs a tiny data center for `hours` and wraps its telemetry in a
    /// capability context covering the full run.
    pub fn sim_context(hours: f64, seed: u64) -> (DataCenter, CapabilityContext) {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(seed)
            .build();
        dc.run_for_hours(hours);
        let ctx = CapabilityContext::new(
            Arc::clone(dc.store()),
            dc.registry().clone(),
            TimeRange::new(oda_telemetry::reading::Timestamp::ZERO, dc.now() + 1),
            dc.now(),
        );
        (dc, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Coverage, GridCell};

    #[test]
    fn sixteen_capabilities_cover_the_whole_grid() {
        let caps = all_sixteen();
        assert_eq!(caps.len(), 16);
        let cov = Coverage::of(caps.iter().map(|c| c.footprint()));
        assert!(cov.gaps.is_empty(), "uncovered cells: {:?}", cov.gaps);
        for cell in GridCell::all() {
            assert!(*cov.per_cell.get(cell) > 0, "nothing in {cell}");
        }
    }

    #[test]
    fn extended_set_deepens_cells_without_new_gaps() {
        let caps = extended_set();
        assert_eq!(caps.len(), 18);
        let cov = Coverage::of(caps.iter().map(|c| c.footprint()));
        assert!(cov.gaps.is_empty());
        // The deepened cells hold two capabilities each.
        use crate::analytics_type::AnalyticsType;
        use crate::pillar::Pillar;
        assert_eq!(
            *cov.per_cell.get(GridCell::new(
                AnalyticsType::Diagnostic,
                Pillar::SystemHardware
            )),
            2
        );
        assert_eq!(
            *cov.per_cell.get(GridCell::new(
                AnalyticsType::Descriptive,
                Pillar::BuildingInfrastructure
            )),
            2
        );
    }

    #[test]
    fn node_sensor_resolution_is_ordered() {
        let (dc, _) = testutil::sim_context(0.05, 1);
        let temps = node_sensors(dc.registry(), "temp_c");
        assert_eq!(temps.len(), dc.node_count());
        for (i, id) in temps.iter().enumerate() {
            assert_eq!(node_index_of(dc.registry(), *id), Some(i as u32));
        }
    }
}
