//! A Powerstack-style system (paper §V-B, Fig. 3, Wu et al.): cross-pillar
//! power management — predictive techniques informing prescriptive control
//! of hardware knobs, scheduling, and application settings at once.
//!
//! The example composes four of the reference cells into one pipeline,
//! runs it against a live site, applies the prescriptions, and reports the
//! power-management outcome against an uncontrolled twin.
//!
//! ```text
//! cargo run --release --example powerstack
//! ```

use hpc_oda::core::analytics_type::AnalyticsType;
use hpc_oda::core::capability::{Artifact, CapabilityContext};
use hpc_oda::core::cells::predictive::HardwareForecaster;
use hpc_oda::core::cells::prescriptive::{AppAutoTuner, DvfsTuner, SchedulerTuner};
use hpc_oda::core::grid::GridFootprint;
use hpc_oda::core::pipeline::StagedPipeline;
use hpc_oda::core::runtime::{ControlPlane, SimControlPlane};
use hpc_oda::core::systems;
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::query::TimeRange;
use hpc_oda::telemetry::reading::Timestamp;
use std::sync::Arc;

/// Applies the prescriptions the site owns a knob for; returns how many.
fn apply_prescriptions(dc: &mut DataCenter, artifacts: &[&Artifact]) -> usize {
    let mut control = SimControlPlane { dc };
    let mut applied = 0;
    for a in artifacts {
        if let Artifact::Prescription { action, .. } = a {
            applied += usize::from(control.apply(action));
        }
    }
    applied
}

fn main() {
    println!("Powerstack-style cross-pillar power management\n");
    let blueprint = systems::powerstack();
    println!("{}\n", blueprint.render());

    // Controlled site: the pipeline runs hourly and its prescriptions are
    // applied. Uncontrolled twin: same seed, no ODA.
    let mut controlled = DataCenter::builder(DataCenterConfig::small())
        .seed(99)
        .build();
    let mut twin = DataCenter::builder(DataCenterConfig::small())
        .seed(99)
        .build();

    let mut pipeline = StagedPipeline::new()
        .with_stage(
            AnalyticsType::Predictive,
            Box::new(HardwareForecaster::new()),
        )
        .with_stage(AnalyticsType::Prescriptive, Box::new(DvfsTuner::new()))
        .with_stage(AnalyticsType::Prescriptive, Box::new(SchedulerTuner::new()))
        .with_stage(AnalyticsType::Prescriptive, Box::new(AppAutoTuner::new()));

    // The composed system's own grid footprint:
    let mut footprint = GridFootprint::EMPTY;
    for f in [
        HardwareForecaster::new().footprint_of(),
        DvfsTuner::new().footprint_of(),
        SchedulerTuner::new().footprint_of(),
        AppAutoTuner::new().footprint_of(),
    ] {
        footprint = footprint.union(f);
    }
    println!("our composition's footprint:\n{}", footprint.render());

    println!("hour   controlled IT kWh   twin IT kWh   applied");
    for hour in 1..=10 {
        controlled.run_for_hours(1.0);
        twin.run_for_hours(1.0);
        let ctx = CapabilityContext::new(
            Arc::clone(controlled.store()),
            controlled.registry().clone(),
            TimeRange::new(Timestamp::ZERO, controlled.now() + 1),
            controlled.now(),
        );
        let run = pipeline.run(ctx);
        let applied = apply_prescriptions(&mut controlled, &run.artifacts());
        println!(
            "{hour:>4}   {:>15.2}   {:>11.2}   {applied} actions",
            controlled.snapshot().it_energy_kwh,
            twin.snapshot().it_energy_kwh,
        );
    }
    let c = controlled.snapshot();
    let t = twin.snapshot();
    let work = |dc: &DataCenter| -> f64 {
        dc.finished_jobs()
            .iter()
            .filter(|r| r.state == JobState::Completed)
            .map(|r| r.work_node_seconds)
            .sum()
    };
    let (wc, wt) = (work(&controlled), work(&twin));
    println!(
        "\nresult: IT energy {:.2} vs {:.2} kWh ({:+.1}%); completed work {:.0} vs {:.0} node·s \
         ({:+.1}%); energy per kilonode·s {:.3} vs {:.3}",
        c.it_energy_kwh,
        t.it_energy_kwh,
        (c.it_energy_kwh / t.it_energy_kwh - 1.0) * 100.0,
        wc,
        wt,
        (wc / wt - 1.0) * 100.0,
        c.it_energy_kwh / (wc / 1_000.0),
        t.it_energy_kwh / (wt / 1_000.0),
    );
}

/// Local helper: expose a capability's footprint without consuming it.
trait FootprintOf {
    fn footprint_of(&self) -> GridFootprint;
}

impl<T: hpc_oda::core::capability::Capability> FootprintOf for T {
    fn footprint_of(&self) -> GridFootprint {
        self.footprint()
    }
}
