//! Chaos soak — the full ODA runtime under deterministic fault injection.
//!
//! Runs four soaks on the same simulated site: a clean baseline, two
//! identical faulted runs (same seed, same schedule) to verify replay, and
//! the same faulted run again with the analytics runtime fanned out across
//! worker threads to verify the parallel scheduler is bit-identical to
//! serial execution. Prints the degradation metrics side by side.
//!
//! Usage: `chaos [ticks] [seed] [workers]` — defaults to 12 000 ticks,
//! seed 21, 4 workers. Exits non-zero if any determinism check fails.

use oda_bench::chaos::{demo_schedule, run_soak, SoakConfig, SoakReport};
use oda_sim::faults::randomized;

fn main() {
    let mut args = std::env::args().skip(1);
    let ticks: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(12_000);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(21);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    // Hand-built overlap (all seven kinds concurrently active mid-run) plus
    // randomized background faults for variety.
    let mut schedule = demo_schedule(ticks, 1_000);
    schedule.extend(randomized(
        seed,
        oda_telemetry::reading::Timestamp::from_millis(ticks * 1_000),
        8,
        5,
    ));

    println!(
        "chaos soak — {ticks} ticks, seed {seed}, {} scheduled faults, runtime workers 1 vs {workers}\n",
        schedule.len()
    );

    let clean = run_soak(&SoakConfig::clean(seed, ticks));
    let faulty = run_soak(&SoakConfig::faulty(seed, ticks, schedule.clone()));
    let replay = run_soak(&SoakConfig::faulty(seed, ticks, schedule.clone()));
    let parallel = run_soak(&SoakConfig::faulty(seed, ticks, schedule).with_workers(workers));

    print_comparison(&clean, &faulty);

    println!(
        "\ndeterminism: run A digest           {:#018x} (workers=1)",
        faulty.digest
    );
    println!(
        "             run B digest           {:#018x} (workers=1, replay)",
        replay.digest
    );
    println!(
        "             run C digest           {:#018x} (workers={workers})",
        parallel.digest
    );
    let deterministic = faulty.digest == replay.digest
        && faulty.suppressed == replay.suppressed
        && faulty.corrupted == replay.corrupted
        && faulty.alerts_raised == replay.alerts_raised;
    let worker_invariant = faulty.digest == parallel.digest
        && faulty.prescriptions_applied == parallel.prescriptions_applied
        && faulty.prescriptions_deferred == parallel.prescriptions_deferred;
    println!(
        "             replay:  {}",
        if deterministic {
            "IDENTICAL — replay reproduces the degraded run"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "             workers: {}",
        if worker_invariant {
            "IDENTICAL — parallel scheduling is bit-identical to serial"
        } else {
            "MISMATCH"
        }
    );

    let healthy = deterministic
        && worker_invariant
        && faulty.nan_alert_events == 0
        && faulty.max_concurrent_faults >= 3
        && faulty.windows > 0
        && faulty.runtime_passes == faulty.windows;
    if !healthy {
        eprintln!("\nchaos soak FAILED (determinism or degradation invariant violated)");
        std::process::exit(1);
    }
    println!("\nchaos soak OK — zero panics, NaN-free alerting, deterministic replay at any worker count");
}

fn print_comparison(clean: &SoakReport, faulty: &SoakReport) {
    println!("{:<28} {:>14} {:>14}", "metric", "clean", "faulted");
    println!("{}", "-".repeat(58));
    let row = |name: &str, c: String, f: String| println!("{name:<28} {c:>14} {f:>14}");
    row(
        "usable windows",
        format!("{}/{}", clean.usable_windows, clean.windows),
        format!("{}/{}", faulty.usable_windows, faulty.windows),
    );
    row(
        "usable fraction",
        format!("{:.3}", clean.usable_fraction()),
        format!("{:.3}", faulty.usable_fraction()),
    );
    row(
        "alerts raised",
        clean.alerts_raised.to_string(),
        format!(
            "{} (+{} false)",
            faulty.alerts_raised,
            faulty.alerts_raised.saturating_sub(clean.alerts_raised)
        ),
    );
    row(
        "alert events w/ NaN",
        clean.nan_alert_events.to_string(),
        faulty.nan_alert_events.to_string(),
    );
    row(
        "forecasts made/abstained",
        format!("{}/{}", clean.forecasts_made, clean.forecasts_abstained),
        format!("{}/{}", faulty.forecasts_made, faulty.forecasts_abstained),
    );
    row(
        "readings suppressed",
        clean.suppressed.to_string(),
        faulty.suppressed.to_string(),
    );
    row(
        "readings corrupted",
        clean.corrupted.to_string(),
        faulty.corrupted.to_string(),
    );
    row(
        "store rejections",
        clean.store_rejected.to_string(),
        faulty.store_rejected.to_string(),
    );
    row(
        "max archive gap (s)",
        (clean.max_gap_ms / 1_000).to_string(),
        (faulty.max_gap_ms / 1_000).to_string(),
    );
    row(
        "bus delivered/dropped",
        format!("{}/{}", clean.bus_delivered, clean.bus_dropped),
        format!("{}/{}", faulty.bus_delivered, faulty.bus_dropped),
    );
    row(
        "max concurrent faults",
        clean.max_concurrent_faults.to_string(),
        faulty.max_concurrent_faults.to_string(),
    );
    row(
        "jobs completed",
        clean.jobs_completed.to_string(),
        faulty.jobs_completed.to_string(),
    );
    row(
        "runtime passes",
        clean.runtime_passes.to_string(),
        faulty.runtime_passes.to_string(),
    );
    row(
        "prescriptions applied/def.",
        format!(
            "{}/{}",
            clean.prescriptions_applied, clean.prescriptions_deferred
        ),
        format!(
            "{}/{}",
            faulty.prescriptions_applied, faulty.prescriptions_deferred
        ),
    );
}
