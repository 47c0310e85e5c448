//! Serving-layer benchmark — mixed-tenant query traffic + fan-out soak.
//!
//! Drives the full HTTP serving stack ([`oda_serve::server::Server`] over a
//! [`SimNet`]) with the three canonical traffic classes from the paper's
//! visualization/exploration pillar:
//!
//! * **dashboard** — a small pool of identical aggregate queries repeated
//!   forever (cache-friendly; generous quota),
//! * **alerts** — a pool of tail-quantile queries (cache-friendly),
//! * **adhoc** — a unique time-range per request (cache-hostile) under a
//!   deliberately tight quota, so admission control sheds a measurable
//!   fraction with `429`s.
//!
//! Periodic telemetry writes interleave with the queries, so the result
//! cache is exercised through invalidation, not just repetition. Every
//! sampled cache *hit* is immediately re-executed uncached through the
//! query engine and compared **byte for byte** (and digest for digest) —
//! `cache_equal` in the report is the conjunction, and the binary exits
//! non-zero if it ever fails.
//!
//! A second phase attaches a large subscriber fleet to `/api/v1/subscribe`
//! and publishes bursts wider than the per-client buffer, proving the
//! fan-out hub sheds oldest-first per client without stalling the bus.
//!
//! Counts (hits, sheds, frames) are deterministic; only wall-clock figures
//! (throughput, latency percentiles) vary run to run. CI pins the binary's
//! JSON as `BENCH_serving.json` and gates it with `ci/check_bench.py`.

use oda_serve::config::{ServingConfig, TenantQuota};
use oda_serve::net::SimNet;
use oda_serve::server::Server;
use oda_telemetry::bus::TelemetryBus;
use oda_telemetry::metrics::MetricsRegistry;
use oda_telemetry::plane::LocalPlane;
use oda_telemetry::query::{Aggregation, Query, QueryEngine, TimeRange};
use oda_telemetry::reading::{Reading, ReadingBatch, Timestamp};
use oda_telemetry::sensor::{SensorId, SensorKind, SensorRegistry, Unit};
use oda_telemetry::store::TimeSeriesStore;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Serving benchmark parameters.
#[derive(Debug, Clone)]
pub struct ServingBenchConfig {
    /// Synthetic sensors (spread over `racks` rack domains).
    pub sensors: usize,
    /// Rack domains the sensor names are spread over.
    pub racks: usize,
    /// Readings pre-filled per sensor before the query phase.
    pub prefill: usize,
    /// Query requests in the mixed-traffic phase.
    pub requests: usize,
    /// Logical nanoseconds the clock advances between requests.
    pub request_gap_ns: u64,
    /// A fresh batch is published every this many requests (invalidation).
    pub publish_every: usize,
    /// Streaming subscribers attached in the fan-out phase.
    pub subscribers: usize,
    /// Publish bursts in the fan-out phase.
    pub fanout_rounds: usize,
    /// Batches per burst (wider than the per-client buffer → shedding).
    pub fanout_burst: usize,
    /// Per-subscriber buffer, frames.
    pub sub_buffer_frames: usize,
    /// Cache hits re-executed uncached and compared bit-for-bit.
    pub verify_samples: usize,
}

impl Default for ServingBenchConfig {
    fn default() -> Self {
        ServingBenchConfig {
            sensors: 64,
            racks: 8,
            prefill: 256,
            requests: 1500,
            request_gap_ns: 2_000_000, // 2 ms → ~167 offered rps per tenant trio
            publish_every: 200,
            subscribers: 2000,
            fanout_rounds: 24,
            fanout_burst: 12,
            sub_buffer_frames: 8,
            verify_samples: 64,
        }
    }
}

impl ServingBenchConfig {
    /// A smaller workload for unit tests.
    pub fn smoke() -> Self {
        ServingBenchConfig {
            sensors: 8,
            racks: 2,
            prefill: 32,
            requests: 120,
            request_gap_ns: 2_000_000,
            publish_every: 40,
            subscribers: 32,
            fanout_rounds: 6,
            fanout_burst: 6,
            sub_buffer_frames: 4,
            verify_samples: 16,
        }
    }
}

/// Measurements of one serving-bench run.
#[derive(Debug, Clone, Serialize)]
pub struct ServingReport {
    /// Query requests issued (all tenants).
    pub requests_total: u64,
    /// Requests answered `200`.
    pub responses_200: u64,
    /// Requests shed with `429` (rate) or `503` (saturation).
    pub responses_shed: u64,
    /// Sustained request throughput, requests per wall-clock second.
    pub throughput_rps: f64,
    /// Median request round-trip latency, nanoseconds (wall clock).
    pub query_p50_ns: u64,
    /// 99th-percentile request round-trip latency, nanoseconds.
    pub query_p99_ns: u64,
    /// Result-cache hit rate over the query phase.
    pub cache_hit_rate: f64,
    /// Cache entries invalidated by interleaved writes.
    pub cache_invalidated: u64,
    /// Fraction of offered queries shed by admission control.
    pub shed_rate: f64,
    /// `offered == admitted + shed` held for every tenant ledger.
    pub sheds_reconcile: bool,
    /// Every sampled cache hit was byte- and digest-identical to an
    /// uncached re-execution.
    pub cache_equal: bool,
    /// Cache hits that were re-executed and compared.
    pub verified_hits: u64,
    /// Streaming subscribers attached in the fan-out phase.
    pub subscribers: u64,
    /// Frames delivered to subscriber connections.
    pub frames_delivered: u64,
    /// Frames shed from slow subscriber buffers (oldest-first).
    pub frames_shed: u64,
    /// Wall time of the fan-out phase, nanoseconds.
    pub fanout_wall_ns: u64,
}

/// Exact percentile over an already-sorted latency list.
fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

/// A complete HTTP/1.1 response, split for assertions.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Polls the server until `raw` has a complete framed response, then
/// returns it parsed. Opens and closes a fresh connection per call.
fn round_trip(net: &Arc<SimNet>, server: &mut Server<SimNet>, raw: &[u8]) -> Response {
    let conn = net.connect();
    net.client_send(conn, raw);
    let mut got = Vec::new();
    for _ in 0..4096 {
        server.poll();
        got.extend(net.client_recv(conn));
        if let Some(r) = try_parse(&got) {
            net.client_close(conn);
            server.poll();
            return r;
        }
    }
    panic!(
        "no complete response after 4096 polls ({} bytes buffered)",
        got.len()
    );
}

/// Parses a framed response if `raw` holds head + full Content-Length body.
fn try_parse(raw: &[u8]) -> Option<Response> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = String::from_utf8_lossy(&raw[..head_end - 4]).into_owned();
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")?
        .1
        .parse()
        .ok()?;
    if raw.len() < head_end + len {
        return None;
    }
    Some(Response {
        status,
        headers,
        body: raw[head_end..head_end + len].to_vec(),
    })
}

fn post_query(tenant: &str, wire: &str) -> Vec<u8> {
    format!(
        "POST /api/v1/query HTTP/1.1\r\nx-tenant: {tenant}\r\ncontent-length: {}\r\n\r\n{wire}",
        wire.len()
    )
    .into_bytes()
}

/// Runs the serving benchmark.
pub fn run_serving(cfg: &ServingBenchConfig) -> ServingReport {
    // ----- world ----------------------------------------------------------
    let registry = SensorRegistry::new();
    let sensors: Vec<SensorId> = (0..cfg.sensors)
        .map(|i| {
            registry.register(
                &format!("/bench/rack{}/node{}/power", i % cfg.racks, i),
                SensorKind::Power,
                Unit::Watts,
            )
        })
        .collect();
    let store = Arc::new(TimeSeriesStore::with_capacity(cfg.prefill + cfg.requests));
    let bus = Arc::new(TelemetryBus::with_store(
        registry.clone(),
        Arc::clone(&store),
    ));
    for round in 0..cfg.prefill {
        for (i, &s) in sensors.iter().enumerate() {
            bus.publish(ReadingBatch::single(
                s,
                Reading::new(
                    Timestamp::from_millis(round as u64 * 100),
                    (round * 7 + i * 13) as f64 * 0.25,
                ),
            ));
        }
    }

    let serving = ServingConfig {
        default_quota: TenantQuota {
            rate_per_sec: 25.0,
            burst: 10.0,
            max_concurrent: 8,
            max_subscriptions: 4,
        },
        sub_buffer_frames: cfg.sub_buffer_frames,
        max_connections: cfg.subscribers + 64,
        ..ServingConfig::default()
    }
    .with_tenant("dashboard", TenantQuota::unlimited())
    .with_tenant("alerts", TenantQuota::unlimited())
    .with_tenant(
        "subscribers",
        TenantQuota {
            max_subscriptions: u32::MAX,
            ..TenantQuota::unlimited()
        },
    );
    let net = Arc::new(SimNet::new());
    let mut server = Server::new(
        Arc::clone(&net),
        serving,
        Arc::new(LocalPlane {
            store: Arc::clone(&store),
            registry: registry.clone(),
        }),
    )
    .with_bus(Arc::clone(&bus))
    .with_metrics(MetricsRegistry::new());

    // ----- query pools ----------------------------------------------------
    // Dashboards: per-rack mean power. Alerts: per-rack p99. Both repeat
    // verbatim, so they populate and then hit the cache. Adhoc: a unique
    // range per request, so it can never hit.
    let dashboard: Vec<String> = (0..cfg.racks)
        .map(|r| {
            Query::sensors(format!("/bench/rack{r}/**").as_str())
                .aggregate(Aggregation::Mean)
                .to_json()
        })
        .collect();
    let alerts: Vec<String> = (0..cfg.racks)
        .map(|r| {
            Query::sensors(format!("/bench/rack{r}/**").as_str())
                .aggregate(Aggregation::Quantile(0.99))
                .to_json()
        })
        .collect();
    let adhoc = |i: usize| {
        Query::sensors(sensors[i % sensors.len()])
            .range(TimeRange::new(
                Timestamp::from_millis(i as u64),
                Timestamp::from_millis(i as u64 + 60_000),
            ))
            .aggregate(Aggregation::Max)
            .to_json()
    };

    // ----- phase 1: mixed query traffic -----------------------------------
    let mut latencies = Vec::with_capacity(cfg.requests);
    let mut responses_200 = 0u64;
    let mut responses_shed = 0u64;
    let mut cache_equal = true;
    let mut verified_hits = 0u64;
    let engine = QueryEngine::new(&store).with_registry(registry.clone());
    let started = Instant::now();
    for i in 0..cfg.requests {
        if i % cfg.publish_every == cfg.publish_every - 1 {
            // An interleaved write: bumps one sensor's version, so every
            // cached query involving it must re-miss.
            bus.publish(ReadingBatch::single(
                sensors[i % sensors.len()],
                Reading::new(
                    Timestamp::from_millis((cfg.prefill * 100 + i) as u64),
                    i as f64,
                ),
            ));
        }
        let (tenant, wire) = match i % 3 {
            0 => ("dashboard", dashboard[i / 3 % dashboard.len()].clone()),
            1 => ("alerts", alerts[i / 3 % alerts.len()].clone()),
            _ => ("adhoc", adhoc(i)),
        };
        let t0 = Instant::now();
        let resp = round_trip(&net, &mut server, &post_query(tenant, &wire));
        latencies.push(t0.elapsed().as_nanos() as u64);
        match resp.status {
            200 => responses_200 += 1,
            429 | 503 => responses_shed += 1,
            other => panic!("unexpected status {other} for {q}", q = wire.as_str()),
        }
        // Sampled bit-equality gate: a hit must equal re-execution.
        if resp.status == 200
            && resp.header("x-cache") == Some("hit")
            && verified_hits < cfg.verify_samples as u64
        {
            verified_hits += 1;
            let fresh = Query::from_json(&wire)
                .expect("bench query re-parses")
                .run(&engine);
            let fresh_digest = format!("{:016x}", fresh.digest());
            if fresh.to_json().into_bytes() != resp.body
                || resp.header("x-result-digest") != Some(fresh_digest.as_str())
            {
                cache_equal = false;
            }
        }
        net.advance(cfg.request_gap_ns);
    }
    let query_wall = started.elapsed();

    // ----- phase 2: subscription fan-out ----------------------------------
    let fanout_started = Instant::now();
    let subs: Vec<_> = (0..cfg.subscribers)
        .map(|_| {
            let conn = net.connect();
            net.client_send(
                conn,
                b"GET /api/v1/subscribe?pattern=%2Fbench%2F%2A%2A HTTP/1.1\r\n\
                  x-tenant: subscribers\r\n\r\n",
            );
            conn
        })
        .collect();
    for _ in 0..4 {
        server.poll();
    }
    for round in 0..cfg.fanout_rounds {
        // A burst wider than the per-client buffer: every client keeps the
        // newest `sub_buffer_frames` frames and sheds the rest.
        for b in 0..cfg.fanout_burst {
            bus.publish(ReadingBatch::single(
                sensors[(round * cfg.fanout_burst + b) % sensors.len()],
                Reading::new(
                    Timestamp::from_millis((round * 1000 + b) as u64),
                    round as f64 + b as f64 * 0.5,
                ),
            ));
        }
        server.poll();
    }
    // Drain what the clients buffered, then hang up.
    for &conn in &subs {
        let _ = net.client_recv(conn);
        net.client_close(conn);
    }
    for _ in 0..4 {
        server.poll();
    }
    let fanout_wall = fanout_started.elapsed();

    // ----- report ---------------------------------------------------------
    latencies.sort_unstable();
    let totals = server.admission().totals();
    let cache = server.cache_stats();
    let fanout = server.fanout_stats();
    let sheds_reconcile = totals.reconciles()
        && server
            .admission()
            .all_counters()
            .iter()
            .all(|(_, c)| c.reconciles())
        && totals.shed_rate_limited + totals.shed_saturated == responses_shed;
    ServingReport {
        requests_total: cfg.requests as u64,
        responses_200,
        responses_shed,
        throughput_rps: cfg.requests as f64 / query_wall.as_secs_f64().max(1e-9),
        query_p50_ns: percentile(&latencies, 0.50),
        query_p99_ns: percentile(&latencies, 0.99),
        cache_hit_rate: cache.hit_rate(),
        cache_invalidated: cache.invalidated,
        shed_rate: responses_shed as f64 / (cfg.requests as f64).max(1.0),
        sheds_reconcile,
        cache_equal,
        verified_hits,
        subscribers: cfg.subscribers as u64,
        frames_delivered: fanout.frames_dequeued,
        frames_shed: fanout.frames_shed,
        fanout_wall_ns: fanout_wall.as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_meets_structural_gates() {
        let r = run_serving(&ServingBenchConfig::smoke());
        assert_eq!(r.requests_total, 120);
        assert_eq!(r.responses_200 + r.responses_shed, r.requests_total);
        assert!(r.cache_equal, "cached results must be bit-identical");
        assert!(r.sheds_reconcile, "admission ledger must balance");
        assert!(r.verified_hits > 0, "the bit-equality gate must have run");
        assert!(r.cache_hit_rate > 0.2, "hit rate {}", r.cache_hit_rate);
        assert!(r.responses_shed > 0, "tight adhoc quota must shed");
        assert!(r.shed_rate < 0.5, "shed rate {}", r.shed_rate);
        assert!(r.frames_delivered > 0);
        assert!(
            r.frames_shed > 0,
            "bursts wider than the buffer must shed oldest frames"
        );
    }

    #[test]
    fn counts_are_deterministic_across_runs() {
        let a = run_serving(&ServingBenchConfig::smoke());
        let b = run_serving(&ServingBenchConfig::smoke());
        assert_eq!(a.responses_200, b.responses_200);
        assert_eq!(a.responses_shed, b.responses_shed);
        assert_eq!(a.cache_invalidated, b.cache_invalidated);
        assert_eq!(a.frames_delivered, b.frames_delivered);
        assert_eq!(a.frames_shed, b.frames_shed);
    }
}
