//! Storage-backend benchmark — ingest / long-window query / recovery sweep.
//!
//! Runs the identical deterministic workload through the in-memory,
//! persistent and hybrid archive backends over a `SimFs`, prints ONE JSON
//! object to stdout (the `BENCH_storage.json` baseline shape) and exits
//! non-zero if any recovery or content-equality invariant fails.
//!
//! Usage: `storage [rounds] [sensors]` — defaults 200 rounds × 32 sensors.

use oda_bench::storage::{run_storage, StorageBenchConfig};
use serde_json::{json, Value};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cfg = StorageBenchConfig::default();
    if let Some(rounds) = args.next().and_then(|s| s.parse().ok()) {
        cfg.rounds = rounds;
    }
    if let Some(sensors) = args.next().and_then(|s| s.parse().ok()) {
        cfg.sensors = sensors;
    }

    // Warm caches/allocator so the three sweeps see comparable conditions.
    let _ = run_storage(&StorageBenchConfig::smoke());

    let reports = run_storage(&cfg);

    let mut entries: Vec<(String, Value)> = vec![
        ("bench".to_string(), json!("storage")),
        ("sensors".to_string(), json!(cfg.sensors as u64)),
        ("rounds".to_string(), json!(cfg.rounds as u64)),
        (
            "readings_per_batch".to_string(),
            json!(cfg.readings_per_batch as u64),
        ),
        ("readings_total".to_string(), json!(cfg.total())),
        (
            "backends".to_string(),
            Value::Array(reports.iter().map(|r| json!(r.backend)).collect()),
        ),
    ];
    for r in &reports {
        let k = &r.backend;
        entries.push((format!("{k}_ingest_rps"), json!(r.ingest_rps)));
        entries.push((format!("{k}_longwin_p50_ns"), json!(r.longwin_p50_ns)));
        entries.push((format!("{k}_longwin_p99_ns"), json!(r.longwin_p99_ns)));
        entries.push((format!("{k}_durable_len"), json!(r.durable_len)));
        entries.push((
            format!("{k}_recovered_readings"),
            json!(r.recovered_readings),
        ));
        entries.push((format!("{k}_recovered_ok"), json!(r.recovered_ok)));
        if r.durable_len > 0 {
            entries.push((format!("{k}_readings_per_sync"), json!(r.readings_per_sync)));
            entries.push((format!("{k}_recovery_ns"), json!(r.recovery_ns)));
        }
    }
    let out = Value::Object(entries);
    println!(
        "{}",
        serde_json::to_string_pretty(&out).expect("report serialises")
    );

    // Structural gate: every backend honoured its recovery contract, the
    // durable backends persisted and recovered the whole workload, and the
    // in-memory backend (by design) recovered nothing.
    let by_name = |n: &str| reports.iter().find(|r| r.backend == n);
    let durable_full = ["persistent", "hybrid"].iter().all(|n| {
        by_name(n)
            .is_some_and(|r| r.durable_len == cfg.total() && r.recovered_readings == cfg.total())
    });
    let healthy = reports.len() == 3
        && reports
            .iter()
            .all(|r| r.recovered_ok && r.accepted_total == cfg.total())
        && durable_full
        && by_name("inmemory").is_some_and(|r| r.recovered_readings == 0);
    if !healthy {
        eprintln!("storage bench FAILED (recovery or content-equality invariant violated)");
        std::process::exit(1);
    }
}
