//! A Powerstack-style system (paper §V-B, Fig. 3, Wu et al.): cross-pillar
//! power management — predictive techniques informing prescriptive control
//! of hardware knobs, scheduling, and application settings at once.
//!
//! The example registers four of the reference cells on one runtime, runs
//! its passes against a live site, which apply the prescriptions, and
//! reports the power-management outcome against an uncontrolled twin.
//!
//! ```text
//! cargo run --release --example powerstack
//! ```

use hpc_oda::core::analytics_type::AnalyticsType;
use hpc_oda::core::capability::Capability;
use hpc_oda::core::cells::predictive::HardwareForecaster;
use hpc_oda::core::cells::prescriptive::{AppAutoTuner, DvfsTuner, SchedulerTuner};
use hpc_oda::core::grid::Coverage;
use hpc_oda::core::runtime::{OdaRuntime, RuntimeConfig, SimControlPlane};
use hpc_oda::core::systems;
use hpc_oda::sim::prelude::*;
use std::sync::Arc;

/// Hours the controlled site runs; each pass analyses all of them.
const HOURS: u64 = 10;

fn main() {
    println!("Powerstack-style cross-pillar power management\n");
    let blueprint = systems::powerstack();
    println!("{}\n", blueprint.render());

    // Controlled site: the runtime passes hourly and applies its
    // prescriptions. Uncontrolled twin: same seed, no ODA.
    let mut controlled = DataCenter::builder(DataCenterConfig::small())
        .seed(99)
        .build();
    let mut twin = DataCenter::builder(DataCenterConfig::small())
        .seed(99)
        .build();

    let mut runtime = OdaRuntime::with_config(HOURS * 3_600_000, RuntimeConfig::serial())
        .with_capability(
            AnalyticsType::Predictive,
            Box::new(HardwareForecaster::new()),
        )
        .with_capability(AnalyticsType::Prescriptive, Box::new(DvfsTuner::new()))
        .with_capability(AnalyticsType::Prescriptive, Box::new(SchedulerTuner::new()))
        .with_capability(AnalyticsType::Prescriptive, Box::new(AppAutoTuner::new()));

    // The composed system's own grid footprint:
    let footprint = Coverage::of([
        HardwareForecaster::new().footprint(),
        DvfsTuner::new().footprint(),
        SchedulerTuner::new().footprint(),
        AppAutoTuner::new().footprint(),
    ])
    .union;
    println!("our composition's footprint:\n{}", footprint.render());

    println!("hour   controlled IT kWh   twin IT kWh   applied");
    for hour in 1..=HOURS {
        controlled.run_for_hours(1.0);
        twin.run_for_hours(1.0);
        let applied = runtime
            .pass(
                Arc::clone(controlled.store()),
                controlled.registry().clone(),
                controlled.now(),
                &mut SimControlPlane {
                    dc: &mut controlled,
                },
            )
            .applied;
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
