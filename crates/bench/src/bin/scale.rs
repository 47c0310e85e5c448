//! Scale bench — scheduler worker-count and collector-shard scaling.
//!
//! Sweeps (a) the capability scheduler's worker count over a wide
//! synthetic registry of CPU-bound capabilities and (b) the
//! collector-shard count of the distributed ingest hierarchy over a
//! synthetic sensor space, printing ONE JSON object to stdout (the
//! `BENCH_scale.json` baseline shape). Exits non-zero if any worker
//! count's output diverges from the serial baseline or any shard count's
//! query digest diverges from the single-shard baseline; the fan-out
//! overhead bound is gated downstream by `ci/check_bench.py`, and the
//! worker speed-up and per-shard-count ingest throughput are
//! informational (read them against `host_parallelism`).
//!
//! Usage: `scale [caps] [passes]` — defaults 48 caps, 7 timed passes,
//! sweeping workers 1/2/4/8 and shards 1/2/4/8.

use oda_bench::scale::{run_scale, run_shard_sweep, ScaleConfig, ShardSweepConfig};

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
    let shard_report = run_shard_sweep(&ShardSweepConfig::default());

    let mut out = serde_json::json!({
        "bench": "scale",
        "caps": report.caps,
        "passes": report.passes,
        "host_parallelism": report.host_parallelism,
        "outputs_equal": report.outputs_equal,
        "points": report.points,
        "shard_sensors": shard_report.sensors,
        "shard_ticks": shard_report.ticks,
        "shard_producers": shard_report.producers,
        "shard_points": shard_report.points,
        "shard_digests_equal": shard_report.digests_equal,
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
        for p in &shard_report.points {
            entries.push((
                format!("shard_rps_{}", p.shards),
                serde_json::json!(p.ingest_rps),
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
    if !shard_report.digests_equal {
        eprintln!("scale bench FAILED (sharded query digest diverged from single-shard baseline)");
        std::process::exit(1);
    }
}
