//! Serving-layer integration suite: tenant-quota accounting under burst
//! load and fault regimes, the cache's bit-equality contract while
//! rollup tiers fold under concurrent writers, and the bytes live
//! subscribers receive.
//!
//! Everything runs over [`SimNet`], so admission decisions are functions
//! of the logical clock and the request sequence — the quota tests assert
//! exact determinism by replaying the same seed and comparing whole
//! counter ledgers and status-code sequences.

use hpc_oda::serve::config::{ServingConfig, TenantQuota};
use hpc_oda::serve::net::SimNet;
use hpc_oda::serve::server::Server;
use hpc_oda::serve::tenant::TenantCounters;
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::bus::TelemetryBus;
use hpc_oda::telemetry::hash::fnv1a64;
use hpc_oda::telemetry::metrics::MetricsRegistry;
use hpc_oda::telemetry::plane::{LocalPlane, QueryPlane, ShardStats};
use hpc_oda::telemetry::query::{Aggregation, Query, QueryEngine, QueryResult};
use hpc_oda::telemetry::reading::{Reading, ReadingBatch, Timestamp};
use hpc_oda::telemetry::sensor::{SensorId, SensorKind, SensorRegistry, Unit};
use hpc_oda::telemetry::storage::InMemoryBackend;
use hpc_oda::telemetry::store::{RollupConfig, TimeSeriesStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// (status, lowercased headers, body) of one framed response.
type Response = (u16, Vec<(String, String)>, Vec<u8>);

/// Drives `server` until the connection `raw` was sent on has a complete
/// framed response; returns (status, headers, body).
fn round_trip(net: &Arc<SimNet>, server: &mut Server<SimNet>, raw: &str) -> Response {
    let conn = net.connect();
    net.client_send(conn, raw.as_bytes());
    let mut got: Vec<u8> = Vec::new();
    for _ in 0..4096 {
        server.poll();
        got.extend(net.client_recv(conn));
        if let Some(parsed) = try_parse(&got) {
            net.client_close(conn);
            server.poll();
            return parsed;
        }
    }
    panic!("no complete response after 4096 polls");
}

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
    (raw.len() >= head_end + len).then(|| (status, headers, raw[head_end..head_end + len].to_vec()))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn post(tenant: &str, wire: &str) -> String {
    format!(
        "POST /api/v1/query HTTP/1.1\r\nx-tenant: {tenant}\r\ncontent-length: {}\r\n\r\n{wire}",
        wire.len()
    )
}

/// Runs a seeded site under a node-failure fault regime, fires bursty
/// two-tenant query traffic at its serving frontend, and returns the
/// status-code sequence plus both tenants' final counter ledgers.
fn burst_load_run(seed: u64) -> (Vec<u16>, TenantCounters, TenantCounters) {
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(seed)
        .metrics(MetricsRegistry::new())
        .serving(
            ServingConfig {
                default_quota: TenantQuota {
                    rate_per_sec: 20.0,
                    burst: 5.0,
                    max_concurrent: 4,
                    max_subscriptions: 2,
                },
                ..ServingConfig::default()
            }
            .with_tenant("dashboard", TenantQuota::unlimited()),
        )
        .build();
    dc.inject_fault(Fault::new(
        FaultKind::NodeFailure { node: NodeId(0) },
        Timestamp::from_millis(2 * 60_000),
        Timestamp::from_millis(20 * 60_000),
    ));
    dc.run_ticks(600); // 10 simulated minutes into the fault window

    let net = Arc::new(SimNet::new());
    let mut server = dc.serve(Arc::clone(&net));
    let wire = Query::sensors("/facility/**")
        .aggregate(Aggregation::Mean)
        .to_json();
    let mut codes = Vec::new();
    for burst in 0..8 {
        // Each burst: 10 rapid-fire requests per tenant, then the site
        // advances (more telemetry, more faults) and the clock refills
        // part of the bucket.
        for _ in 0..10 {
            let (status, _, _) = round_trip(&net, &mut server, &post("adhoc", &wire));
            codes.push(status);
            let (status, _, _) = round_trip(&net, &mut server, &post("dashboard", &wire));
            codes.push(status);
        }
        dc.run_ticks(60);
        net.advance(if burst % 2 == 0 {
            100_000_000
        } else {
            400_000_000
        });
    }
    (
        codes,
        server.admission().counters("adhoc"),
        server.admission().counters("dashboard"),
    )
}

#[test]
fn burst_load_quota_accounting_reconciles_and_sheds_fairly() {
    let (codes, adhoc, dashboard) = burst_load_run(42);
    // Every request was answered; the tight tenant shed, the unlimited
    // tenant never did, and both ledgers balance exactly.
    assert_eq!(codes.len(), 160);
    assert!(codes.iter().all(|c| *c == 200 || *c == 429 || *c == 503));
    assert!(adhoc.reconciles(), "{adhoc:?}");
    assert!(dashboard.reconciles(), "{dashboard:?}");
    assert_eq!(adhoc.offered, 80);
    assert_eq!(dashboard.offered, 80);
    assert!(
        adhoc.shed_rate_limited > 0,
        "burst beyond the bucket must shed: {adhoc:?}"
    );
    assert_eq!(dashboard.shed_rate_limited + dashboard.shed_saturated, 0);
    assert_eq!(adhoc.in_flight(), 0, "all slots drained after flush");
    assert_eq!(dashboard.in_flight(), 0);
    // Shed responses match the 429/503 codes one for one.
    let shed_codes = codes.iter().filter(|c| **c != 200).count() as u64;
    assert_eq!(
        adhoc.shed_rate_limited
            + adhoc.shed_saturated
            + dashboard.shed_rate_limited
            + dashboard.shed_saturated,
        shed_codes
    );
}

#[test]
fn burst_load_admission_sequence_is_deterministic_under_seed() {
    let (codes_a, adhoc_a, dash_a) = burst_load_run(7);
    let (codes_b, adhoc_b, dash_b) = burst_load_run(7);
    assert_eq!(codes_a, codes_b, "same seed, same shed decisions");
    assert_eq!(adhoc_a, adhoc_b);
    assert_eq!(dash_a, dash_b);
    // A different seed still reconciles (fault regime differs, ledger
    // invariants don't).
    let (_, adhoc_c, dash_c) = burst_load_run(8);
    assert!(adhoc_c.reconciles() && dash_c.reconciles());
}

#[test]
fn cache_hits_stay_bit_identical_while_rollups_fold_concurrently() {
    // A store with rollup tiers, hammered by four writer threads while the
    // serving loop answers the same aggregate query over and over. Writer
    // bursts are joined between assertion windows, so every bit-equality
    // comparison runs against a quiescent store — but all folding happened
    // on the writer threads, concurrently with the preceding lookups.
    let registry = SensorRegistry::new();
    let sensors: Vec<_> = (0..8)
        .map(|i| {
            registry.register(
                &format!("/conc/node{i}/power"),
                SensorKind::Power,
                Unit::Watts,
            )
        })
        .collect();
    let store = Arc::new(TimeSeriesStore::with_rollups(
        4096,
        16,
        MetricsRegistry::new(),
        RollupConfig::default(),
    ));
    let bus = Arc::new(TelemetryBus::with_archive(
        registry.clone(),
        Arc::new(InMemoryBackend::new(Arc::clone(&store))),
        MetricsRegistry::new(),
    ));

    let net = Arc::new(SimNet::new());
    let mut server = Server::new(
        Arc::clone(&net),
        ServingConfig::default().with_tenant("t", TenantQuota::unlimited()),
        Arc::new(LocalPlane {
            store: Arc::clone(&store),
            registry: registry.clone(),
        }),
        Arc::clone(&bus),
    );
    let wire = Query::sensors("/conc/**")
        .aggregate(Aggregation::Mean)
        .to_json();
    let engine = QueryEngine::new(&store).with_registry(registry.clone());

    let mut hits = 0u64;
    let mut invalidated_rounds = 0u64;
    for round in 0..30u64 {
        // Concurrent fold phase: four writers push interleaved batches.
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let bus = Arc::clone(&bus);
                let sensors = sensors.clone();
                std::thread::spawn(move || {
                    for k in 0..40u64 {
                        let s = sensors[((w + k) % sensors.len() as u64) as usize];
                        bus.publish(ReadingBatch::single(
                            s,
                            Reading::new(
                                Timestamp::from_millis(round * 40_000 + k * 1000 + w * 7),
                                (round * 31 + k * 13 + w) as f64 * 0.5,
                            ),
                        ));
                    }
                })
            })
            .collect();
        // Queries race the writers: responses must stay well-formed and
        // self-consistent, whatever interleaving happened.
        let mut missed = false;
        for _ in 0..5 {
            let (status, headers, _) = round_trip(&net, &mut server, &post("t", &wire));
            assert_eq!(status, 200);
            assert!(header(&headers, "x-result-digest").is_some());
            missed |= header(&headers, "x-cache") == Some("miss");
        }
        for h in handles {
            h.join().expect("writer thread");
        }

        // Quiescent window: a miss (unless a racing probe already took it)
        // then a hit, and the hit must be byte- and digest-identical to an
        // uncached re-execution of the same canonical query.
        let (_, h1, b1) = round_trip(&net, &mut server, &post("t", &wire));
        missed |= header(&h1, "x-cache") == Some("miss");
        invalidated_rounds += u64::from(missed);
        let (_, h2, b2) = round_trip(&net, &mut server, &post("t", &wire));
        assert_eq!(header(&h2, "x-cache"), Some("hit"));
        assert_eq!(b1, b2, "round {round}: hit differs from stored body");
        hits += 1;
        let fresh = Query::from_json(&wire)
            .expect("canonical wire form re-parses")
            .run(&engine);
        assert_eq!(
            fresh.to_json().into_bytes(),
            b2,
            "round {round}: cached bytes differ from uncached execution"
        );
        assert_eq!(
            header(&h2, "x-result-digest"),
            Some(format!("{:016x}", fresh.digest()).as_str()),
            "round {round}: digest header differs from uncached digest"
        );
    }
    assert_eq!(hits, 30);
    // Every round writes new readings after the previous round's entry was
    // stored, so whatever the interleaving, the first probe that runs after
    // any of them — a racing one, or at the latest the first quiescent one
    // — must miss. (A racing probe that lands after the burst's final write
    // legitimately caches the end state, so the first quiescent probe alone
    // may hit.)
    assert_eq!(
        invalidated_rounds, 30,
        "every writer burst must invalidate the cached entry"
    );
    let stats = server.cache_stats();
    assert!(stats.hits >= 30 && stats.invalidated > 0, "{stats:?}");
}

#[test]
fn subscribe_streams_are_byte_identical_to_pinned_digests() {
    // Three live subscribers on a seeded medium site, two of them sharing
    // a pattern. The FNV-1a digest of everything each one receives pins
    // the frame bytes, their order and which client gets which frame.
    let mut dc = DataCenter::builder(DataCenterConfig {
        sample_every_ticks: 1,
        ..DataCenterConfig::medium()
    })
    .seed(5)
    .metrics(MetricsRegistry::new())
    .build();
    let net = Arc::new(SimNet::new());
    let mut server = dc.serve(Arc::clone(&net));
    let patterns = ["/facility/**", "/facility/**", "/hw/node0/**"];
    let conns: Vec<_> = patterns
        .iter()
        .map(|p| {
            let conn = net.connect();
            let encoded = p.replace('/', "%2F").replace('*', "%2A");
            net.client_send(
                conn,
                format!("GET /api/v1/subscribe?pattern={encoded} HTTP/1.1\r\n\r\n").as_bytes(),
            );
            conn
        })
        .collect();
    server.poll();
    let mut received = vec![Vec::new(); conns.len()];
    for _ in 0..20 {
        dc.run_ticks(1);
        server.poll();
        for (conn, got) in conns.iter().zip(&mut received) {
            got.extend(net.client_recv(*conn));
        }
    }
    // Lines: the 4 of the streaming head, then one frame per tick for each
    // of the 10 facility sensors, or of node 0's 6 sensors.
    let lines = |bytes: &[u8]| bytes.iter().filter(|b| **b == b'\n').count();
    assert_eq!(lines(&received[0]), 4 + 20 * 10);
    assert_eq!(lines(&received[2]), 4 + 20 * 6);
    assert_eq!(received[0], received[1], "one pattern, one byte stream");
    let digests: Vec<u64> = received.iter().map(|b| fnv1a64(b)).collect();
    assert_eq!(
        digests,
        [
            504_578_280_372_955_059,
            504_578_280_372_955_059,
            16_494_771_761_654_163_751
        ],
        "{digests:?}"
    );
    let fanout = server.fanout_stats();
    assert_eq!((fanout.frames_shed, fanout.bus_dropped), (0, 0));
    assert_eq!(fanout.frames_dequeued, 20 * (10 + 10 + 6));
}

/// Counts the name resolutions a plane is asked for: each `resolve`, and
/// each `query` whose selector is still a pattern, which the plane then
/// resolves itself.
struct CountingPlane {
    inner: Arc<dyn QueryPlane>,
    resolutions: AtomicUsize,
}

impl QueryPlane for CountingPlane {
    fn registry(&self) -> &SensorRegistry {
        self.inner.registry()
    }

    fn resolve(&self, query: &Query) -> Vec<SensorId> {
        self.resolutions.fetch_add(1, Ordering::Relaxed);
        self.inner.resolve(query)
    }

    fn sensor_versions(&self, sensors: &[SensorId]) -> Vec<u64> {
        self.inner.sensor_versions(sensors)
    }

    fn query(&self, query: Query) -> QueryResult {
        if query.to_json().starts_with(r#"{"selector":{"pattern""#) {
            self.resolutions.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.query(query)
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        self.inner.shard_stats()
    }
}

#[test]
fn a_served_pattern_miss_resolves_its_names_once_on_either_plane() {
    for shards in [0, 2] {
        let mut dc = DataCenter::builder(DataCenterConfig {
            shards,
            ..DataCenterConfig::medium()
        })
        .build();
        dc.run_ticks(120);
        let plane = Arc::new(CountingPlane {
            inner: dc.plane(),
            resolutions: AtomicUsize::new(0),
        });
        let net = Arc::new(SimNet::new());
        let mut server = Server::new(
            Arc::clone(&net),
            ServingConfig::default(),
            Arc::clone(&plane) as Arc<dyn QueryPlane>,
            Arc::clone(dc.bus()),
        );
        let engine = QueryEngine::new(dc.store()).with_registry(dc.registry().clone());
        for pattern in ["/hw/node5/power_w", "/hw/node5/*", "/*/sched/**"] {
            let query = Query::sensors(pattern).aggregate(Aggregation::Mean);
            let (status, headers, body) =
                round_trip(&net, &mut server, &post("t", &query.to_json()));
            assert_eq!(status, 200);
            assert_eq!(header(&headers, "x-cache"), Some("miss"));
            assert_eq!(
                plane.resolutions.swap(0, Ordering::Relaxed),
                1,
                "{pattern} at {shards} shards"
            );
            let fresh = query.run(&engine);
            assert_eq!(body, fresh.to_json().into_bytes(), "{pattern}");
        }
    }
}
