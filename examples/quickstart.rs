//! Quickstart: stand up a simulated HPC site, let it run, and read it
//! through the ODA framework.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hpc_oda::core::capability::{Artifact, Capability, CapabilityContext};
use hpc_oda::core::cells::descriptive::{FacilityDashboard, HardwareDashboard, SchedulerDashboard};
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::query::TimeRange;
use hpc_oda::telemetry::reading::Timestamp;

fn main() {
    // 1. A small simulated data center: 4 racks × 8 nodes, with weather,
    //    cooling plant, scheduler and a synthetic user workload.
    let mut dc = DataCenter::builder(DataCenterConfig::small())
        .seed(2024)
        .build();

    // 2. Let it operate for six simulated hours. Telemetry for every
    //    modelled quantity lands in the archive automatically.
    println!("running 6 simulated hours of operations...");
    dc.run_for_hours(6.0);

    // 3. Point capabilities at the telemetry, exactly as a real ODA stack
    //    would read a monitoring database.
    let ctx = CapabilityContext::new(
        dc.site().plane(),
        TimeRange::new(Timestamp::ZERO, dc.now() + 1),
        dc.now(),
    );

    let mut facility = FacilityDashboard::new();
    let mut hardware = HardwareDashboard::new();
    let mut sched = SchedulerDashboard::new();
    sched.set_records(dc.finished_jobs().to_vec());

    for capability in [
        &mut facility as &mut dyn Capability,
        &mut hardware,
        &mut sched,
    ] {
        println!("== {} ==", capability.name());
        for artifact in capability.execute(&ctx) {
            match artifact {
                Artifact::Report { title, body } => {
                    println!("-- {title} --\n{body}");
                }
                Artifact::Kpi { name, value } => println!("KPI {name} = {value:.3}"),
                other => println!("{other:?}"),
            }
        }
        println!();
    }

    // 4. The snapshot is the ground truth the dashboards should agree with.
    let snap = dc.snapshot();
    println!(
        "ground truth: PUE {:.3} | IT {:.1} kW | cooling {:.1} kW | {} jobs done ({} killed)",
        snap.pue, snap.it_power_kw, snap.cooling_power_kw, snap.completed, snap.killed
    );
}
