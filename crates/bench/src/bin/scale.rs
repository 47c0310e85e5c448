//! Scale bench — scheduler worker-count scaling.
//!
//! Sweeps the capability scheduler's worker count over a wide synthetic
//! registry of CPU-bound capabilities, printing ONE JSON object to stdout
//! (the shape of `ci/baselines/BENCH_scale.json`; CI redirects it to
//! `target/BENCH_scale.json`). Exits non-zero if any worker
//! count's output diverges from the serial baseline; the fan-out overhead
//! bound is gated downstream by `ci/check_bench.py`, and the worker
//! speed-up is informational (read it against `host_parallelism`).
//!
//! Usage: `scale [caps] [passes]` — defaults 48 caps, 7 timed passes,
//! sweeping workers 1/2/4/8.

use oda_bench::scale::{run_scale, ScaleConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cfg = ScaleConfig::default();
    if let Some(caps) = args.next().and_then(|s| s.parse().ok()) {
        cfg.caps = caps;
    }
    if let Some(passes) = args.next().and_then(|s| s.parse().ok()) {
        cfg.passes = passes;
    }

    let report = run_scale(&cfg);

    let mut out = serde_json::json!({
        "bench": "scale",
        "caps": report.caps,
        "passes": report.passes,
        "host_parallelism": report.host_parallelism,
        "outputs_equal": report.outputs_equal,
        "points": report.points,
    });
    // Flatten per-count keys for the regression gate's flat lookup.
    if let serde_json::Value::Object(entries) = &mut out {
        for p in &report.points {
            entries.push((
                format!("pass_p50_ns_{}", p.workers),
                serde_json::json!(p.pass_p50_ns),
            ));
            entries.push((
                format!("pass_p99_ns_{}", p.workers),
                serde_json::json!(p.pass_p99_ns),
            ));
            entries.push((
                format!("speedup_x_{}", p.workers),
                serde_json::json!(p.speedup_x),
            ));
        }
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&out).expect("report serialises")
    );

    if !report.outputs_equal {
        eprintln!("scale bench FAILED (parallel output diverged from serial baseline)");
        std::process::exit(1);
    }
}
