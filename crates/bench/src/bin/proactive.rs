//! E5 — §V-A: reactive vs proactive DVFS control on identical workloads.

use oda_bench::control::{metrics_header, metrics_row, write_json_report};
use oda_bench::e5_proactive::{run_experiment, Regime};

fn main() {
    let hours = 12.0;
    let seeds = [42u64, 43, 44];
    println!("E5 — reactive vs proactive control (§V-A), {hours} h per run\n");
    println!("{}", metrics_header());
    println!("{}", "-".repeat(100));
    let mut totals: Vec<(Regime, f64, f64)> = Regime::ALL.iter().map(|&r| (r, 0.0, 0.0)).collect();
    let mut report = Vec::new();
    for seed in seeds {
        for (regime, m) in run_experiment(hours, seed) {
            println!(
                "{}",
                metrics_row(&format!("{} (s{seed})", regime.label()), &m)
            );
            let t = totals.iter_mut().find(|(r, _, _)| *r == regime).unwrap();
            t.1 += m.it_energy_kwh;
            t.2 += m.work_done_node_s;
            report.push((regime.label(), seed, m));
        }
        println!();
    }
    if let Some(path) = write_json_report("e5_proactive", &report) {
        println!("(report written to {})\n", path.display());
    }
    println!("Aggregate over {} seeds:", seeds.len());
    let base = totals[0];
    for (regime, e, w) in &totals {
        println!(
            "  {:<16} IT energy {:>8.2} kWh ({:+.1}% vs static), work {:>12.0} node·s ({:+.1}%)",
            regime.label(),
            e,
            (e / base.1 - 1.0) * 100.0,
            w,
            (w / base.2 - 1.0) * 100.0
        );
    }
    println!("\nExpected shape (paper §V-A): governed < static on energy, proactive < reactive");
    println!("on energy. Not reproduced: proactive does not recover the throughput the");
    println!("reactive governor loses (both lose about the same completed work).");
}
