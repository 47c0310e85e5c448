//! E8 — the sixteen-cell demonstration: every reference capability runs on
//! one common trace, with labelled faults injected so the diagnostic cells
//! have something real to find.

use oda_core::capability::{Artifact, Capability, CapabilityContext};
use oda_core::cells;
use oda_core::grid::GridCell;
use oda_sim::prelude::*;
use oda_telemetry::query::TimeRange;
use oda_telemetry::reading::Timestamp;

/// Result of one cell's run.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Capability name.
    pub name: String,
    /// Cells it covers.
    pub cells: Vec<GridCell>,
    /// Artifacts produced, as `(label, short description)`.
    pub artifacts: Vec<(String, String)>,
}

fn short(a: &Artifact) -> String {
    match a {
        Artifact::Report { title, body } => {
            format!("{title} ({} lines)", body.lines().count())
        }
        Artifact::Kpi { name, value } => format!("{name} = {value:.3}"),
        Artifact::Diagnosis {
            kind,
            subject,
            severity,
            ..
        } => {
            format!("{kind} on {subject} (sev {severity:.2})")
        }
        Artifact::Forecast {
            quantity,
            horizon_s,
            value,
        } => {
            format!("{quantity} @ +{horizon_s:.0}s → {value:.2}")
        }
        Artifact::Prescription { action, .. } => {
            format!("{} := {}", action.knob(), action.setting())
        }
    }
}

/// Builds the common trace: a small site run for `hours` with one fault in
/// each pillar's territory.
pub fn build_site(hours: f64, seed: u64) -> DataCenter {
    let mut dc = DataCenter::builder(DataCenterConfig::small())
        .seed(seed)
        .build();
    let h = |x: f64| Timestamp::from_millis((x * 3_600_000.0) as u64);
    dc.inject_fault(Fault::new(
        FaultKind::FanFailure { node: NodeId(3) },
        h(hours * 0.3),
        h(hours * 2.0),
    ));
    dc.inject_fault(Fault::new(
        FaultKind::MemoryLeak {
            node: NodeId(10),
            gib_per_min: 0.4,
        },
        h(hours * 0.2),
        h(hours * 2.0),
    ));
    dc.inject_fault(Fault::new(
        FaultKind::CoolingDegradation { factor: 2.0 },
        h(hours * 0.6),
        h(hours * 2.0),
    ));
    dc.run_for_hours(hours);
    dc
}

/// Runs all sixteen reference capabilities against the site's telemetry.
pub fn run_all(dc: &DataCenter) -> Vec<CellResult> {
    let ctx = CapabilityContext::new(
        dc.site().plane(),
        TimeRange::new(Timestamp::ZERO, dc.now() + 1),
        dc.now(),
    );
    let records = dc.finished_jobs().to_vec();
    let capabilities = cells::all_sixteen();
    let mut results = Vec::new();
    for mut c in capabilities {
        // The accounting-fed capabilities are rebuilt with their feeds: the
        // fingerprinter trains on the first half of history (labelled by
        // operators) and classifies the second half.
        let fed: Option<Box<dyn Capability>> = match c.name() {
            "scheduler-dashboard" => {
                let mut x = cells::descriptive::SchedulerDashboard::new();
                x.set_records(records.clone());
                Some(Box::new(x))
            }
            "job-dashboard" => {
                let mut x = cells::descriptive::JobDashboard::new();
                x.set_records(records.clone());
                Some(Box::new(x))
            }
            "app-fingerprinter" => {
                let mut x = cells::diagnostic::AppFingerprinter::new();
                let half = records.len() / 2;
                x.set_training(records[..half].to_vec());
                x.set_records(records[half..].to_vec());
                Some(Box::new(x))
            }
            "job-duration-predictor" => {
                let mut x = cells::predictive::JobDurationPredictor::new();
                x.set_records(records.clone());
                Some(Box::new(x))
            }
            _ => None,
        };
        if let Some(f) = fed {
            c = f;
        }
        let artifacts = c.execute(&ctx);
        results.push(CellResult {
            name: c.name().to_owned(),
            cells: c.footprint().cells(),
            artifacts: artifacts
                .iter()
                .map(|a| (a.label().to_owned(), short(a)))
                .collect(),
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_capability_produces_artifacts_on_the_common_trace() {
        let dc = build_site(4.0, 99);
        let results = run_all(&dc);
        assert_eq!(results.len(), 16);
        for r in &results {
            assert!(
                !r.artifacts.is_empty(),
                "{} produced nothing on the common trace",
                r.name
            );
        }
    }

    #[test]
    fn injected_faults_are_found_by_the_diagnostic_row() {
        let dc = build_site(4.0, 99);
        let results = run_all(&dc);
        let all_diags: Vec<&String> = results
            .iter()
            .flat_map(|r| r.artifacts.iter())
            .filter(|(label, _)| label == "diagnosis")
            .map(|(_, d)| d)
            .collect();
        assert!(
            all_diags
                .iter()
                .any(|d| d.contains("fan-failure") && d.contains("node3")),
            "fan failure missed: {all_diags:?}"
        );
        assert!(
            all_diags
                .iter()
                .any(|d| d.contains("memory-leak") && d.contains("node10")),
            "memory leak missed: {all_diags:?}"
        );
        assert!(
            all_diags.iter().any(|d| d.contains("cooling-degradation")),
            "cooling degradation missed: {all_diags:?}"
        );
    }
}
