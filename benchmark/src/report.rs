//! From pooled measurements to named metrics, and their JSON.
//!
//! The names, units and order here are the ones `BENCHMARK.json` lists; a
//! test at the bottom keeps the two in step.

use crate::ladder::IngestLadder;
use crate::queries::Class;
use crate::round::Measured;
use crate::site::{Plan, Workload};
use crate::stats::{median, percentile, ratio};
use oda_core::analytics_type::AnalyticsType;
use std::time::Duration;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// What a user of the site sees. Every workload reports every one of them.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut out = vec![
        metric("setup_s", "s", m.setup.median_ns() / 1e9),
        metric("ingest_rps", "readings/s", median(&m.ingest_rps)),
        metric("pass_p50_ms", "ms", m.pass.median_ns() / 1e6),
        metric("query_rps", "req/s", median(&m.query_rps)),
    ];
    for class in Class::ALL {
        out.push(metric(
            format!("q_{}_p50_us", class.name()),
            "us",
            m.request[class.index()].median_ns() / 1e3,
        ));
    }
    out.push(metric(
        "archive_scan_p50_us",
        "us",
        m.scan.median_ns() / 1e3,
    ));
    out.push(metric("peak_rss_mb", "MB", m.rss_steady_mb));
    out
}

/// What only the traced run knows beyond [`Measured`].
pub struct TraceExtras {
    pub ingest: IngestLadder,
    /// The one untraced round run first, for comparison.
    pub untraced: Measured,
}

/// One number (or a few) per layer, from the traced run. Totals are per
/// round; idle layers report zero.
pub fn per_layer(plan: &Plan, m: &Measured, extras: &TraceExtras) -> Vec<Metric> {
    let workload = plan.workload;
    let rounds = m.rounds.max(1) as f64;
    let count = |name: &str| m.counts.get(name).copied().unwrap_or(0) as f64;
    let lad = &extras.ingest;
    let serving = m.layers.serving.clone().unwrap_or_default();
    let fs = &m.layers.fs;
    let net = &m.layers.net;
    let sharded = workload == Workload::ShardedSite;
    let accepted = count("store.accepted");
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64| out.push(metric(name, unit, value));

    // sim — oda_sim::datacenter
    let readings_per_tick = ratio(m.readings as f64, m.step.len() as f64);
    let sim_self = ratio(lad.sim_ns_per_tick, lad.readings_per_tick);
    push("sim.ticks", "count", m.step.len() as f64 / rounds);
    push("sim.readings_per_tick", "count", readings_per_tick);
    push("sim.step_busy_s", "s", secs(m.step.total()) / rounds);
    push("sim.self_ns_per_reading", "ns", sim_self);

    // bus — telemetry::bus
    push("bus.publish_calls", "count", count("bus.publish_calls"));
    push("bus.publish_ns_per_reading", "ns", lad.publish_ns);
    push(
        "bus.self_ns_per_reading",
        "ns",
        lad.publish_ns - lad.insert_ns,
    );
    push("bus.delivered", "count", count("bus.delivered"));
    push("bus.shed", "count", count("bus.shed"));

    // store — telemetry::store
    push("store.append_ns_per_reading", "ns", lad.store_append_ns);
    push(
        "store.rollup_fold_ns_per_reading",
        "ns",
        lad.store_ns - lad.store_append_ns,
    );
    push("store.accepted", "count", accepted);
    push("store.rejected", "count", count("store.rejected"));
    push("store.evicted", "count", count("store.evicted"));

    // storage — telemetry::storage::{engine,wal,segment,codec}
    // Differences of rungs only mean the engine's own work where there is an
    // engine; on the in-memory sites they are the decorator's clock reads.
    let durable = workload == Workload::DurableSite;
    let gate = |v: f64| if durable { v } else { 0.0 };
    let sealed = count("storage.segments_sealed");
    let folded = count("storage.segments_folded");
    let wal_headers = (fs.write_atomic_calls as f64 / rounds - sealed - folded).max(0.0);
    let recovered = count("storage.recovered_readings");
    let scan_us = secs(m.scan.total()) * 1e6;
    push("storage.insert_ns_per_reading", "ns", lad.insert_ns);
    push(
        "storage.self_ns_per_reading",
        "ns",
        gate(lad.insert_ns - lad.store_ns - lad.fs_ns),
    );
    push("storage.wal_bytes", "B", fs.append_bytes as f64 / rounds);
    push(
        "storage.segment_bytes",
        "B",
        (fs.write_atomic_bytes as f64 / rounds - 16.0 * wal_headers).max(0.0),
    );
    push("storage.segments_sealed", "count", sealed);
    push("storage.wal_syncs", "count", count("storage.wal_syncs"));
    push(
        "storage.readings_per_sync",
        "count",
        ratio(accepted, count("storage.wal_syncs")),
    );
    push("storage.compact_s", "s", m.compact.median_ns() / 1e9);
    push("storage.segments_folded", "count", folded);
    push("storage.recovered_readings", "count", recovered);
    push("storage.recovery_s", "s", m.restart.median_ns() / 1e9);
    push(
        "storage.recovery_replay_ns_per_reading",
        "ns",
        ratio(m.restart.median_ns(), recovered),
    );
    push(
        "storage.recovery_rss_mb",
        "MB",
        extras.untraced.rss_after_drills_mb - extras.untraced.rss_steady_mb,
    );
    push(
        "storage.bytes_per_reading",
        "B",
        ratio(count("storage.bytes_on_disk"), accepted),
    );
    push(
        "storage.cold_scan_segments_read",
        "count",
        ratio(m.layers.scan_segments_read as f64, m.scan.len() as f64),
    );
    push(
        "storage.cold_scan_readings_per_us",
        "1/us",
        gate(ratio(m.layers.scan_readings as f64, scan_us)),
    );
    push("codec.encode_ns_per_reading", "ns", lad.segment_encode_ns);
    push("codec.decode_ns_per_reading", "ns", lad.segment_decode_ns);

    // fs — storage::fs, through TimedFs around RealFs, in place
    let mut syncs = fs.sync_samples_ns.clone();
    syncs.sort_unstable();
    push("fs.append_calls", "count", fs.append_calls as f64 / rounds);
    push("fs.append_s", "s", fs.append_ns as f64 / 1e9 / rounds);
    push("fs.sync_calls", "count", fs.sync_calls as f64 / rounds);
    push("fs.sync_s", "s", fs.sync_ns as f64 / 1e9 / rounds);
    push("fs.sync_p50_us", "us", percentile(&syncs, 0.5) / 1e3);
    push(
        "fs.write_atomic_calls",
        "count",
        fs.write_atomic_calls as f64 / rounds,
    );
    push(
        "fs.write_atomic_s",
        "s",
        fs.write_atomic_ns as f64 / 1e9 / rounds,
    );
    push("fs.read_calls", "count", fs.read_calls as f64 / rounds);
    push("fs.read_bytes", "B", fs.read_bytes as f64 / rounds);
    push("fs.bytes_written", "B", fs.bytes_written() as f64 / rounds);
    push(
        "fs.write_amp",
        "ratio",
        ratio(fs.bytes_written() as f64 / rounds, 16.0 * accepted),
    );
    push(
        "fs.is_tmpfs",
        "count",
        f64::from(u8::from(m.fs_kind == "tmpfs")),
    );

    // cluster — telemetry::cluster
    let shards = plan.shards.max(1) as f64;
    push(
        "cluster.ingest_send_ns_per_reading",
        "ns",
        lad.cluster_send_ns,
    );
    push(
        "cluster.fence_s",
        "s",
        if sharded {
            secs(m.barrier.total()) / rounds
        } else {
            0.0
        },
    );
    push(
        "cluster.shard_skew",
        "ratio",
        ratio(
            count("cluster.readings_max_shard"),
            count("cluster.readings_total") / shards,
        ),
    );
    push("cluster.durable_len", "count", count("cluster.durable_len"));
    for class in Class::ALL {
        let i = class.index();
        push(
            &format!("cluster.query_ns.{}", class.name()),
            "ns",
            serving.cluster_query_ns[i],
        );
        push(
            &format!("cluster.query_overhead_ns.{}", class.name()),
            "ns",
            if sharded {
                serving.cluster_query_ns[i] - serving.run_ns[i]
            } else {
                0.0
            },
        );
    }
    push(
        "cluster.versions_ns",
        "ns",
        if sharded {
            serving.versions_ns.iter().sum::<f64>() / 4.0
        } else {
            0.0
        },
    );

    // query — telemetry::query
    push("query.parse_ns", "ns", serving.query_parse_ns);
    for class in Class::ALL {
        let i = class.index();
        let name = class.name();
        push(&format!("query.run_ns.{name}"), "ns", serving.run_ns[i]);
        push(
            &format!("query.scanned_per_query.{name}"),
            "count",
            serving.scanned_per_query[i],
        );
        push(
            &format!("query.encode_ns.{name}"),
            "ns",
            serving.encode_ns[i],
        );
        push(
            &format!("query.result_bytes.{name}"),
            "B",
            serving.result_bytes[i],
        );
    }
    push("query.tier_hit_ratio", "ratio", serving.tier_hit_ratio);

    // http, tenant, cache, server, net, fanout — oda_serve
    push("http.parse_ns", "ns", serving.http_parse_ns);
    push("http.response_ns", "ns", serving.http_response_ns);
    push("tenant.admit_ns", "ns", serving.admit_ns);
    push(
        "tenant.shed_share",
        "ratio",
        ratio(count("tenant.shed"), count("tenant.offered")),
    );
    push("cache.lookup_ns", "ns", serving.cache_lookup_ns);
    push("cache.invalidated", "count", count("cache.invalidated"));
    push("cache.evicted", "count", count("cache.evicted"));
    push(
        "server.polls_per_request",
        "count",
        ratio(m.polls as f64, m.requests as f64),
    );
    let fixed = serving.http_parse_ns
        + serving.admit_ns
        + serving.query_parse_ns
        + serving.cache_lookup_ns
        + serving.http_response_ns;
    for class in Class::ALL {
        let i = class.index();
        let name = class.name();
        let samples = &m.request[i];
        let hit_ratio = ratio(m.cache_hits[i] as f64, samples.len() as f64);
        let execute = if sharded {
            serving.cluster_query_ns[i]
        } else {
            serving.run_ns[i]
        };
        // What a miss adds to the fixed path: execute, encode, store. The
        // median request is a miss unless most of the class hits.
        let on_miss = if hit_ratio < 0.5 {
            execute + serving.encode_ns[i] + serving.cache_lookup_ns
        } else {
            0.0
        };
        push(&format!("cache.hit_ratio.{name}"), "ratio", hit_ratio);
        push(
            &format!("server.self_ns.{name}"),
            "ns",
            samples.median_ns() - fixed - serving.versions_ns[i] - on_miss,
        );
        push(
            &format!("server.q_{name}_p99_us"),
            "us",
            samples.percentile_ns(0.99) / 1e3,
        );
    }
    push("net.bytes_in", "B", net.bytes_in as f64 / rounds);
    push("net.bytes_out", "B", net.bytes_out as f64 / rounds);
    push("net.write_calls", "count", net.write_calls as f64 / rounds);
    push(
        "fanout.frames_delivered",
        "count",
        count("fanout.frames_delivered"),
    );
    push("fanout.frames_shed", "count", count("fanout.frames_shed"));
    push("fanout.pump_us_per_tick", "us", m.pump.median_ns() / 1e3);

    // runtime — oda_core::runtime + cells
    let passes = m.pass.len().max(1) as f64;
    let mut staged = 0.0;
    for stage in AnalyticsType::ALL {
        let ms = m.layers.stage_ns.get(&stage).copied().unwrap_or(0) as f64 / passes / 1e6;
        staged += ms;
        let name = stage.name().to_lowercase();
        push(&format!("runtime.stage_ms.{name}"), "ms", ms);
    }
    push("runtime.self_ms", "ms", m.pass.mean_ns() / 1e6 - staged);
    push(
        "runtime.queries_per_pass",
        "count",
        m.layers.pass_queries as f64 / passes,
    );
    push(
        "runtime.scanned_per_pass",
        "count",
        m.layers.pass_scanned as f64 / passes,
    );
    push("runtime.pass_p90_ms", "ms", m.pass.percentile_ns(0.9) / 1e6);
    push("runtime.pass_max_ms", "ms", m.pass.max_ns() / 1e6);

    // trace — the measurement itself
    let traced_round = m.round_work.mean_ns();
    let untraced_round = extras.untraced.round_work.mean_ns();
    push(
        "trace.overhead_pct",
        "%",
        100.0 * ratio(traced_round - untraced_round, untraced_round),
    );
    // Ingest is the one chain whose rungs are all measured independently
    // (in place, on the twin, by replay), so it is where time can go
    // missing; passes and requests attribute their remainder to
    // `runtime.self_ms` / `server.self_ns` by construction.
    let in_place = ratio(m.ingest_time().as_nanos() as f64, m.readings as f64);
    let attributed = sim_self + lad.publish_ns + lad.cluster_send_ns;
    let measured_wall = m.round_work.total().as_nanos() as f64;
    push(
        "trace.unattributed_pct",
        "%",
        100.0 * ratio((in_place - attributed) * m.readings as f64, measured_wall),
    );
    out
}

/// JSON number: finite values as measured, anything else as `0`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(m: &Measured, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.failed() == 0,
        m.attempted_total().max(1),
        m.failed(),
        metrics_object(metrics)
    )
}

/// The trace file: span list plus the per-layer table it was reduced to.
pub fn trace_document(
    workload: Workload,
    seed: u64,
    m: &Measured,
    metrics: &[Metric],
    tracer: &crate::trace::Tracer,
) -> String {
    let mut doc = String::new();
    doc.push_str(&format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"rounds\": {}, \"fs_kind\": \"{}\", ",
        workload.name(),
        m.rounds,
        m.fs_kind
    ));
    doc.push_str(&format!("\"per_layer\": {}, ", metrics_object(metrics)));
    let totals: Vec<String> = tracer
        .totals()
        .iter()
        .map(|(name, (count, total_ns, self_ns))| {
            format!(
                "\"{name}\": {{\"count\": {count}, \"total_ns\": {total_ns}, \"self_ns\": {self_ns}}}"
            )
        })
        .collect();
    doc.push_str(&format!("\"span_totals\": {{{}}}, ", totals.join(", ")));
    doc.push_str(&format!("\"spans_dropped\": {}, ", tracer.dropped()));
    doc.push_str("\"spans\": [\n");
    let spans = tracer.spans();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        doc.push_str(&format!(
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.op,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    doc.push_str("]}\n");
    doc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The `"name"` values of one array of `BENCHMARK.json`, in order.
    pub fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let m = Measured::default();
        let names = |ms: Vec<Metric>| ms.into_iter().map(|m| m.name).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(end_to_end(&m)));
        let extras = TraceExtras {
            ingest: IngestLadder::default(),
            untraced: Measured::default(),
        };
        for workload in Workload::ALL {
            let emitted = names(per_layer(&Plan::full(workload), &m, &extras));
            assert_eq!(declared("per_layer"), emitted, "{}", workload.name());
            assert!(emitted.len() <= 128);
        }
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Measured::default();
        let line = result_line(&m, &[metric("setup_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        m.checks.record(Err("corrupted".to_string()));
        assert!(result_line(&m, &[])
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
        assert_eq!(number(f64::NAN), "0");
    }
}
