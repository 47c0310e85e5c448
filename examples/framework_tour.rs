//! A tour of the conceptual framework itself: the four pillars (Fig. 1),
//! the four types (Fig. 2), the 4×4 grid with Table I, the Fig. 3 complex
//! systems, and a live staged pipeline run over a simulated site.
//!
//! ```text
//! cargo run --release --example framework_tour
//! ```

use hpc_oda::core::analytics_type::AnalyticsType;
use hpc_oda::core::capability::CapabilityContext;
use hpc_oda::core::cells;
use hpc_oda::core::grid::Coverage;
use hpc_oda::core::pillar::Pillar;
use hpc_oda::core::runtime::{OdaRuntime, RuntimeConfig};
use hpc_oda::core::survey;
use hpc_oda::core::systems;
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::query::TimeRange;
use hpc_oda::telemetry::reading::Timestamp;

fn main() {
    // ----- Figure 1: the four pillars -----------------------------------
    println!("FIGURE 1 — the four pillars of energy-efficient HPC\n");
    for p in Pillar::ALL {
        println!(
            "  {:<24} telemetry domain /{:<9} {}",
            p.name(),
            p.telemetry_domain(),
            p.definition()
        );
    }

    // ----- Figure 2: the four types --------------------------------------
    println!("\nFIGURE 2 — the four types of data analytics (hindsight → foresight)\n");
    for t in AnalyticsType::ALL {
        println!(
            "  {:<13} {:<45} {}",
            t.name(),
            t.question(),
            if t.is_foresight() {
                "foresight"
            } else {
                "hindsight"
            }
        );
    }

    // ----- Table I: the survey corpus ------------------------------------
    println!("\nTABLE I — surveyed ODA use cases classified on the grid\n");
    println!("{}", survey::render_table1());
    let stats = survey::pillar_stats();
    println!(
        "survey statistics: {} distinct cited works; {} single-pillar, {} multi-pillar, {} multi-type",
        stats.total, stats.single_pillar, stats.multi_pillar, stats.multi_type
    );

    // ----- Figure 3: complex systems mapped on the grid ------------------
    println!("\nFIGURE 3 — complex ODA systems\n");
    for system in systems::figure3_systems() {
        println!("{}\n", system.render());
    }

    // ----- The grid, executable: 16 cells over a live simulation ---------
    println!("RUNNING THE GRID — all sixteen reference capabilities on a simulated site\n");
    let mut dc = DataCenter::builder(DataCenterConfig::small())
        .seed(7)
        .build();
    dc.run_for_hours(3.0);

    let capabilities = cells::all_sixteen();
    let coverage = Coverage::of(capabilities.iter().map(|c| c.footprint()));
    println!(
        "registered {} capabilities; union footprint covers {}/16 cells ({} gaps)\n{}",
        capabilities.len(),
        coverage.union.count(),
        coverage.gaps.len(),
        coverage.union.render()
    );

    let ctx = CapabilityContext::new(
        dc.site().plane(),
        TimeRange::new(Timestamp::ZERO, dc.now() + 1),
        dc.now(),
    );
    for mut capability in capabilities {
        let artifacts = capability.execute(&ctx);
        println!(
            "  {:<26} → {:2} artifacts",
            capability.name(),
            artifacts.len()
        );
    }

    // ----- A staged pipeline: descriptive → ... → prescriptive -----------
    println!("\nSTAGED PIPELINE — §V-A wiring, predictive output feeding prescriptive\n");
    let mut runtime = OdaRuntime::with_config(0, RuntimeConfig::serial())
        .with_capability(
            AnalyticsType::Descriptive,
            Box::new(cells::descriptive::FacilityDashboard::new()),
        )
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
        );
    let ctx = CapabilityContext::new(
        dc.site().plane(),
        TimeRange::new(Timestamp::ZERO, dc.now() + 1),
        dc.now(),
    );
    let run = runtime.run(ctx);
    for (stage, name, artifacts) in &run.stages {
        println!("  [{stage}] {name}: {} artifacts", artifacts.len());
        for a in artifacts.iter().take(3) {
            println!("      {a:?}");
        }
    }
}
