//! The deployment story in one file: replay a standard-format workload
//! trace on the simulated site, run the ODA runtime's periodic
//! monitor→analyse→actuate passes against it, and export the evidence.
//!
//! Demonstrates the three adoption-facing APIs:
//! * `oda_sim::swf` — Standard Workload Format import/replay,
//! * `oda_core::runtime` — the closed-loop `OdaRuntime` + `ControlPlane`,
//! * `oda_telemetry::export` — CSV export of the archive.
//!
//! ```text
//! cargo run --release --example oda_runtime
//! ```

use hpc_oda::core::analytics_type::AnalyticsType;
use hpc_oda::core::cells;
use hpc_oda::core::runtime::{OdaRuntime, SimControlPlane};
use hpc_oda::sim::prelude::*;
use hpc_oda::sim::swf;
use hpc_oda::telemetry::export::to_csv_wide;
use hpc_oda::telemetry::query::TimeRange;
use std::sync::Arc;

/// A small SWF trace (the archive format of Feitelson's Parallel
/// Workloads Archive): job#, submit, wait, runtime, procs, ..., req
/// procs, req time, ..., status, user, ..., executable#.
const TRACE: &str = "\
; demo trace, SWF fields
1     60 -1 1800 4 -1 -1 4 3600 -1 1 11 -1 0 -1 -1 -1 -1
2    300 -1  900 2 -1 -1 2 1800 -1 1 12 -1 1 -1 -1 -1 -1
3    600 -1 2400 8 -1 -1 8 4800 -1 1 13 -1 2 -1 -1 -1 -1
4   1800 -1 1200 1 -1 -1 1 2400 -1 1 11 -1 3 -1 -1 -1 -1
5   3600 -1 1800 4 -1 -1 4 3600 -1 1 12 -1 0 -1 -1 -1 -1
6   5400 -1  600 2 -1 -1 2 1200 -1 1 14 -1 1 -1 -1 -1 -1
";

fn main() {
    // A quiet site: the replayed trace is the whole workload.
    let mut cfg = DataCenterConfig::small();
    cfg.workload.mean_interarrival_s = 1e9;
    let mut dc = DataCenter::builder(cfg).seed(77).build();

    let trace = swf::parse_swf(TRACE);
    println!("parsed {} jobs from the SWF trace", trace.len());

    // The runtime: forecasting feeding cooling control, DVFS, and the
    // scheduler tuner — audit-logged.
    let mut runtime = OdaRuntime::new(2 * 3_600_000)
        .with_capability(
            AnalyticsType::Diagnostic,
            Box::new(cells::diagnostic::InfraAnomalyDetector::new()),
        )
        .with_capability(
            AnalyticsType::Predictive,
            Box::new(cells::predictive::InfraForecaster::new()),
        )
        .with_capability(
            AnalyticsType::Prescriptive,
            Box::new(cells::prescriptive::CoolingOptimizer::new()),
        )
        .with_capability(
            AnalyticsType::Prescriptive,
            Box::new(cells::prescriptive::DvfsTuner::new()),
        );

    // Replay hour by hour, one runtime pass per hour; the Replayer keeps
    // its position in the trace across slices.
    let mut replayer = swf::Replayer::new(trace);
    let mut audit = Vec::new();
    println!("\nhour  applied  deferred  diagnoses  setpoint  IT kWh");
    for hour in 1..=4 {
        replayer.advance(&mut dc, 1.0);
        let report = runtime.pass(
            Arc::clone(dc.store()),
            dc.registry().clone(),
            dc.now(),
            &mut SimControlPlane { dc: &mut dc },
        );
        let snap = dc.snapshot();
        println!(
            "{hour:>4}  {:>7}  {:>8}  {:>9}  {:>8.1}  {:>6.2}",
            report.applied, report.deferred, report.diagnoses, snap.setpoint_c, snap.it_energy_kwh
        );
        audit.extend(report.actions);
    }
    assert_eq!(replayer.remaining(), 0, "whole trace submitted");

    // Each pass reports what it did; kept together, the reports are the
    // deployable system's memory of what it did.
    println!("\naudit log (last 8 entries):");
    for rec in &audit[audit.len().saturating_sub(8)..] {
        println!(
            "  [{}] {:<18} {} := {}  ({:?})",
            rec.at,
            rec.source,
            rec.action.knob(),
            rec.action.setting(),
            rec.outcome
        );
    }

    // Export an hour of facility telemetry for offline tooling.
    let sensors = [
        dc.registry().lookup("/facility/power/it_kw").unwrap(),
        dc.registry().lookup("/facility/pue").unwrap(),
        dc.registry().lookup("/facility/outside_temp").unwrap(),
    ];
    let csv = to_csv_wide(
        dc.store(),
        dc.registry(),
        &sensors,
        TimeRange::new(dc.now() - 3_600_000, dc.now() + 1),
        300_000,
    );
    println!("\nCSV export of the last hour (5-min buckets):\n{csv}");

    // And the accounting goes back out as SWF.
    let swf_out = swf::export_swf(dc.finished_jobs());
    println!("SWF re-export of the session's accounting:\n{swf_out}");
}
