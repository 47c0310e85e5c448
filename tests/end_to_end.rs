//! Integration tests spanning all four crates: simulator → telemetry →
//! framework capabilities → closed-loop actuation.

use hpc_oda::core::analytics_type::AnalyticsType;
use hpc_oda::core::capability::{Action, Artifact, Capability, CapabilityContext};
use hpc_oda::core::cells;
use hpc_oda::core::grid::Coverage;
use hpc_oda::core::pipeline::PipelineRun;
use hpc_oda::core::runtime::{ControlPlane, OdaRuntime, RuntimeConfig, SimControlPlane};
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::query::{Aggregation, Query, QueryEngine, TimeRange};
use hpc_oda::telemetry::reading::Timestamp;

fn ctx_for(dc: &DataCenter) -> CapabilityContext {
    CapabilityContext::new(
        dc.site().plane(),
        TimeRange::new(Timestamp::ZERO, dc.now() + 1),
        dc.now(),
    )
}

#[test]
fn telemetry_agrees_with_simulator_ground_truth() {
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(5)
        .build();
    dc.run_for_hours(2.0);
    let snap = dc.snapshot();
    let q = QueryEngine::new(dc.store());
    // The latest archived IT power matches the snapshot.
    let it = dc.registry().lookup("/facility/power/it_kw").unwrap();
    let latest = Query::sensors(it)
        .range(TimeRange::all())
        .aggregate(Aggregation::Last)
        .run(&q)
        .scalar()
        .unwrap();
    assert!(
        (latest - snap.it_power_kw).abs() < 0.5,
        "telemetry {latest} vs truth {}",
        snap.it_power_kw
    );
    // Sum of node powers ≈ IT power.
    let node_sum: f64 = (0..dc.node_count())
        .map(|i| {
            let s = dc
                .registry()
                .lookup(&format!("/hw/node{i}/power_w"))
                .unwrap();
            Query::sensors(s)
                .range(TimeRange::all())
                .aggregate(Aggregation::Last)
                .run(&q)
                .scalar()
                .unwrap()
        })
        .sum();
    assert!(
        (node_sum / 1_000.0 - snap.it_power_kw).abs() < 0.1,
        "node sum {} vs {}",
        node_sum / 1_000.0,
        snap.it_power_kw
    );
}

#[test]
fn descriptive_kpis_match_physics() {
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(6)
        .build();
    dc.run_for_hours(2.0);
    let out = cells::descriptive::FacilityDashboard::new().execute(&ctx_for(&dc));
    let pue = out.iter().find_map(|a| a.kpi("pue")).unwrap();
    // Energy-weighted PUE from the simulator's own accounting.
    let snap = dc.snapshot();
    let truth = snap.utility_energy_kwh / snap.it_energy_kwh;
    assert!(
        (pue - truth).abs() < 0.15,
        "dashboard PUE {pue:.3} vs energy-ratio {truth:.3}"
    );
}

#[test]
fn full_sixteen_cell_pass_on_a_live_site() {
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(7)
        .build();
    dc.run_for_hours(3.0);
    let capabilities = cells::all_sixteen();
    assert!(Coverage::of(capabilities.iter().map(|c| c.footprint()))
        .gaps
        .is_empty());
    let ctx = ctx_for(&dc);
    let results: Vec<(String, Vec<Artifact>)> = capabilities
        .into_iter()
        .map(|mut c| (c.name().to_owned(), c.execute(&ctx)))
        .collect();
    assert_eq!(results.len(), 16);
    // Dashboards, forecasters and tuners must produce output on any live
    // site. Detectors are rightly silent on a healthy one, and the
    // accounting-fed capabilities were given no records here.
    let always_on = [
        "facility-dashboard",
        "hardware-dashboard",
        "infra-forecaster",
        "hardware-forecaster",
        "workload-forecaster",
        "cooling-optimizer",
        "scheduler-tuner",
        "app-auto-tuner",
    ];
    for (name, artifacts) in &results {
        if always_on.contains(&name.as_str()) {
            assert!(!artifacts.is_empty(), "{name} produced nothing");
        }
    }
    // And no detector produced a false alarm on the healthy site.
    for (name, artifacts) in &results {
        for a in artifacts {
            assert!(
                !matches!(a, Artifact::Diagnosis { .. }),
                "{name} raised a false alarm: {a:?}"
            );
        }
    }
}

#[test]
fn closed_loop_dvfs_actually_reduces_power() {
    // Run, read telemetry through the framework, apply its prescriptions,
    // verify the physics responded — the full ODA loop.
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(8)
        .build();
    dc.run_for_hours(1.0);
    let before: f64 = (0..dc.node_count())
        .map(|i| dc.node(NodeId(i as u32)).freq_ghz())
        .sum();
    let out = cells::prescriptive::DvfsTuner::new().execute(&ctx_for(&dc));
    let mut control = SimControlPlane { dc: &mut dc };
    let mut applied = 0;
    for a in &out {
        if let Artifact::Prescription {
            action: action @ Action::NodeClock { .. },
            ..
        } = a
        {
            assert!(control.apply(action), "{action:?}");
            applied += 1;
        }
    }
    assert!(applied > 0, "an active site must yield DVFS prescriptions");
    let after: f64 = (0..dc.node_count())
        .map(|i| dc.node(NodeId(i as u32)).freq_ghz())
        .sum();
    assert!(after < before, "clocks must drop: {after} vs {before}");
}

#[test]
fn staged_pipeline_makes_prescriptive_proactive() {
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(9)
        .build();
    dc.run_for_hours(2.0);
    // Without the predictive stage: the optimizer reacts to current
    // weather.
    let serial = || OdaRuntime::with_config(0, RuntimeConfig::serial());
    let mut reactive_only = serial().with_capability(
        AnalyticsType::Prescriptive,
        Box::new(cells::prescriptive::CoolingOptimizer::new()),
    );
    let run_r = reactive_only.run(ctx_for(&dc));
    // With it: the optimizer consumes the forecast.
    let mut proactive = serial()
        .with_capability(
            AnalyticsType::Predictive,
            Box::new(cells::predictive::InfraForecaster::new()),
        )
        .with_capability(
            AnalyticsType::Prescriptive,
            Box::new(cells::prescriptive::CoolingOptimizer::new()),
        );
    let run_p = proactive.run(ctx_for(&dc));
    let impact = |run: &PipelineRun| {
        run.stage_artifacts(AnalyticsType::Prescriptive)
            .iter()
            .find_map(|a| match a {
                Artifact::Prescription {
                    action: Action::CoolingSetpoint(_),
                    expected_impact,
                } => Some(expected_impact.clone()),
                _ => None,
            })
            .unwrap()
    };
    assert!(!impact(&run_r).contains("proactively"));
    assert!(impact(&run_p).contains("proactively"));
}

#[test]
fn runs_are_deterministic_across_the_whole_stack() {
    let run = |seed| {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(seed)
            .build();
        dc.inject_fault(Fault::new(
            FaultKind::FanFailure { node: NodeId(1) },
            Timestamp::from_mins(20),
            Timestamp::from_hours(2),
        ));
        dc.run_for_hours(2.0);
        let diags = cells::diagnostic::NodeAnomalyDetector::new().execute(&ctx_for(&dc));
        (
            dc.snapshot().it_energy_kwh,
            dc.snapshot().completed,
            format!("{diags:?}"),
        )
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn job_records_flow_to_application_pillar_cells() {
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(10)
        .build();
    dc.run_for_hours(8.0);
    let records = dc.finished_jobs().to_vec();
    assert!(records.len() > 20, "need a populated accounting database");
    let mut predictor = cells::predictive::JobDurationPredictor::new();
    predictor.set_records(records.clone());
    let out = predictor.execute(&ctx_for(&dc));
    let mape = out.iter().find_map(|a| a.kpi("job_runtime_mape")).unwrap();
    let baseline = out
        .iter()
        .find_map(|a| a.kpi("walltime_baseline_mape"))
        .unwrap();
    assert!(
        mape < baseline,
        "prediction {mape} must beat walltime {baseline}"
    );
}
