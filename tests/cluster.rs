//! Distributed-collector integration suite: the sharded hierarchy must be
//! *observationally identical* to the unsharded site — every scatter-gather
//! query answers with a digest bit-identical to the single-store engine's,
//! at any shard count, through a mid-run node failure and rebalance, and
//! through the serving frontend — while per-shard health sums account for
//! exactly the readings the unsharded archive holds.

use hpc_oda::serve::net::SimNet;
use hpc_oda::serve::server::Server;
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::cluster::{ClusterConfig, ClusterCoordinator, ShardId};
use hpc_oda::telemetry::hash::{fnv1a_fold, splitmix64, FNV_OFFSET};
use hpc_oda::telemetry::metrics::MetricsRegistry;
use hpc_oda::telemetry::query::{Aggregation, Query, QueryEngine, TimeRange};
use hpc_oda::telemetry::reading::{Reading, ReadingBatch, Timestamp};
use hpc_oda::telemetry::sensor::{SensorId, SensorKind, SensorRegistry, Unit};
use std::sync::Arc;

const TICKS: u64 = 1_800; // 30 simulated minutes at 1 s per tick

fn mins(m: u64) -> Timestamp {
    Timestamp::from_millis(m * 60_000)
}

/// The query battery: every result shape the coordinator merges, over
/// patterns that cross shard boundaries, plus rate/raw paths.
fn battery() -> Vec<Query> {
    vec![
        Query::sensors("/facility/**").aggregate(Aggregation::Mean),
        Query::sensors("/hw/**").aggregate(Aggregation::Max),
        Query::sensors("/hw/*/power_w").downsample(60_000, Aggregation::Mean),
        Query::sensors("/facility/power/*").align(120_000),
        Query::sensors("/hw/node0/temp_c").range(TimeRange::new(mins(5), mins(25))),
        Query::sensors("/facility/power/it_kw")
            .rate()
            .aggregate(Aggregation::Sum),
        Query::sensors("/sched/**").aggregate(Aggregation::Count),
    ]
}

/// Digests of the battery against an unsharded site's store.
fn unsharded_digests(dc: &DataCenter) -> Vec<u64> {
    let engine = QueryEngine::new(dc.store()).with_registry(dc.registry().clone());
    battery()
        .into_iter()
        .map(|q| q.run(&engine).digest())
        .collect()
}

/// Digests of the battery through a coordinator's scatter-gather path.
fn sharded_digests(cluster: &ClusterCoordinator) -> Vec<u64> {
    battery()
        .into_iter()
        .map(|q| cluster.query(q).digest())
        .collect()
}

fn build(seed: u64, shards: usize, schedule: Vec<Fault>) -> DataCenter {
    let mut dc = DataCenter::builder(DataCenterConfig {
        shards,
        ..DataCenterConfig::tiny()
    })
    .seed(seed)
    .metrics(MetricsRegistry::new())
    .build();
    for fault in schedule {
        dc.inject_fault(fault);
    }
    dc.run_ticks(TICKS);
    if let Some(cluster) = dc.cluster() {
        cluster.fence();
    }
    dc
}

#[test]
fn scatter_gather_digests_are_bit_identical_at_any_shard_count() {
    let baseline = unsharded_digests(&build(31, 0, Vec::new()));
    for shards in [1usize, 2, 4] {
        let dc = build(31, shards, Vec::new());
        let cluster = dc.cluster().expect("sharded site has a coordinator");
        assert_eq!(cluster.shard_count(), shards);
        assert_eq!(
            sharded_digests(cluster),
            baseline,
            "digests diverged at {shards} shard(s)"
        );
        // The unsharded engine over the same site agrees too: both planes
        // ingested the identical stream.
        assert_eq!(unsharded_digests(&dc), baseline);
    }
}

#[test]
fn node_failure_rebalance_loses_no_accepted_reading() {
    let schedule = || {
        vec![Fault::new(
            FaultKind::NodeFailure { node: NodeId(1) },
            mins(10),
            mins(20),
        )]
    };
    // The fault blacks out node1's streams in BOTH worlds; the sharded one
    // additionally loses a collector shard and must rebalance its slice
    // out of the durable tier.
    let baseline = unsharded_digests(&build(32, 0, schedule()));
    for shards in [2usize, 4] {
        let dc = build(32, shards, schedule());
        let cluster = dc.cluster().expect("sharded site has a coordinator");
        assert_eq!(
            cluster.rebalances(),
            1,
            "the failure at minute 10 must trigger exactly one rebalance"
        );
        assert_eq!(cluster.alive_shards().len(), shards - 1);
        assert!(cluster.epoch() > 0);
        assert_eq!(
            sharded_digests(cluster),
            baseline,
            "digests diverged after rebalance at {shards} shard(s)"
        );
        // The dead shard reports not-alive and owns nothing.
        let occ = cluster.occupancy();
        assert_eq!(occ.len(), shards);
        let dead: Vec<_> = occ.iter().filter(|o| !o.alive).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].sensors_owned, 0);
    }

    // A single-shard cluster cannot shed its last shard: the coordinator
    // restarts it in place over its own durable tier instead, and still
    // answers bit-identically.
    let dc = build(32, 1, schedule());
    let cluster = dc.cluster().expect("sharded site has a coordinator");
    assert_eq!(
        cluster.rebalances(),
        0,
        "restart-in-place is not a rebalance"
    );
    assert!(
        cluster.epoch() > 0,
        "the restart is still a membership event"
    );
    assert_eq!(cluster.alive_shards().len(), 1);
    assert_eq!(sharded_digests(cluster), baseline);
}

#[test]
fn per_shard_health_sums_match_the_unsharded_archive() {
    let unsharded = build(33, 0, Vec::new());
    let dc = build(33, 3, Vec::new());
    let cluster = dc.cluster().expect("sharded site has a coordinator");

    let expected = unsharded.store().health_report();
    let health = cluster.health();
    assert_eq!(health.len(), 3);
    let readings: usize = health.iter().map(|h| h.report.total_len()).sum();
    let evicted: u64 = health.iter().map(|h| h.report.total_evicted()).sum();
    assert_eq!(readings, expected.total_len());
    assert_eq!(evicted, expected.total_evicted());

    // Occupancy partitions the registry exactly: every sensor owned once.
    let occ = cluster.occupancy();
    let owned: u64 = occ.iter().map(|o| o.sensors_owned).sum();
    assert_eq!(owned as usize, dc.registry().len());
    assert!(occ.iter().all(|o| o.alive && o.sensors_owned > 0));
    // Each shard durably archived what it ingested, and `published` counts
    // exactly the batches routed to it: the site hands the cluster every
    // tick's batches after publishing them on the bus.
    for h in &health {
        assert!(h.durable_len > 0, "{} archived nothing", h.shard);
        assert!(h.published > 0, "{} ingested nothing", h.shard);
        assert_eq!(h.wal_errors, 0, "{} failed a WAL write or sync", h.shard);
    }
    let batches: u64 = health.iter().map(|h| h.published).sum();
    assert_eq!(batches, dc.bus().published());
    let durable: u64 = health.iter().map(|h| h.durable_len).sum();
    assert_eq!(durable, batches - expected.total_rejected());
}

#[test]
fn ingest_many_is_ingest_in_a_loop_also_across_a_rebalance() {
    const SENSORS: u32 = 24;
    const TICKS: u64 = 40;
    let queries = || {
        vec![
            Query::sensors("/grp/**").aggregate(Aggregation::Mean),
            Query::sensors("/grp/a/*").downsample(5_000, Aggregation::Max),
            Query::sensors("/grp/b/*").align(10_000),
            Query::sensors("/grp/a/s000"),
        ]
    };
    // One tick of the stream: a reading per sensor, one of them rejected
    // (non-finite) on every third tick.
    let tick = |sensors: &[SensorId], t: u64| -> Vec<ReadingBatch> {
        sensors
            .iter()
            .map(|&s| {
                let value = if t.is_multiple_of(3) && s.0 == 5 {
                    f64::NAN
                } else {
                    0.1 + (s.0 as u64 * 1_000 + t) as f64 * 0.3
                };
                ReadingBatch::single(s, Reading::new(Timestamp::from_millis(t * 1_000), value))
            })
            .collect()
    };
    // What the cluster looks like from outside after the whole stream, fed
    // by `feed` one tick at a time, with shard 0 failing halfway.
    let run = |shards: usize, feed: &dyn Fn(&ClusterCoordinator, Vec<ReadingBatch>)| {
        let registry = SensorRegistry::new();
        let sensors: Vec<SensorId> = (0..SENSORS)
            .map(|i| {
                let half = if i % 2 == 0 { "a" } else { "b" };
                registry.register(
                    &format!("/grp/{half}/s{i:03}"),
                    SensorKind::Power,
                    Unit::Watts,
                )
            })
            .collect();
        let cluster = ClusterCoordinator::new(ClusterConfig::with_shards(shards), registry)
            .expect("cluster opens over fresh in-memory filesystems");
        for t in 0..TICKS {
            if t == TICKS / 2 {
                assert!(cluster.fail_shard(ShardId(0)));
            }
            feed(&cluster, tick(&sensors, t));
        }
        cluster.fence();
        let digests: Vec<u64> = queries()
            .into_iter()
            .map(|q| cluster.query(q).digest())
            .collect();
        let per_shard: Vec<(ShardId, u64, u64, u64)> = cluster
            .health()
            .iter()
            .map(|h| (h.shard, h.durable_len, h.published, h.wal_errors))
            .collect();
        (digests, per_shard, cluster.rebalances())
    };
    for shards in [1usize, 2, 4] {
        let one = run(shards, &|cluster, batches| {
            for b in batches {
                assert!(cluster.ingest(b));
            }
        });
        let many = run(shards, &|cluster, batches| {
            assert!(cluster.ingest_many(batches));
        });
        assert_eq!(one, many, "planes diverged at {shards} shard(s)");
        let (_, per_shard, rebalances) = many;
        assert_eq!(rebalances, u64::from(shards > 1));
        let durable: u64 = per_shard.iter().map(|(_, d, _, _)| d).sum();
        let rejected = TICKS.div_ceil(3);
        assert_eq!(durable, u64::from(SENSORS) * TICKS - rejected);
    }
}

/// Concurrent producers at any shard count: 64 sensors, 40 ticks, two
/// producer threads each feeding its round-robin half of the sensors one
/// tick at a time, so arrival order across producers varies run to run.
/// The six-query battery must digest identically at shards 1/2/4/8 — and to
/// the pinned value, so a change to routing, gather order or the readings
/// themselves cannot pass by moving every shard count at once.
#[test]
fn concurrent_producers_digest_identically_at_any_shard_count() {
    const SENSORS: usize = 64;
    const TICKS: u64 = 40;
    const PRODUCERS: usize = 2;
    const SEED: u64 = 4242;
    for shards in [1usize, 2, 4, 8] {
        let registry = SensorRegistry::new();
        let sensor_ids: Vec<SensorId> = (0..SENSORS)
            .map(|i| registry.register(&format!("/bench/s{i:03}"), SensorKind::Power, Unit::Watts))
            .collect();
        let cluster = ClusterCoordinator::new(
            ClusterConfig {
                shards,
                per_sensor_capacity: 64,
                ..ClusterConfig::default()
            },
            registry,
        )
        .expect("cluster opens over fresh in-memory filesystems");
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let cluster = &cluster;
                let mine: Vec<SensorId> = sensor_ids
                    .iter()
                    .skip(p)
                    .step_by(PRODUCERS)
                    .copied()
                    .collect();
                scope.spawn(move || {
                    for t in 0..TICKS {
                        assert!(cluster.ingest_many(mine.iter().map(|&sensor| {
                            let x = splitmix64(SEED ^ (u64::from(sensor.0) << 32) ^ t);
                            let value = (x >> 11) as f64 / (1u64 << 53) as f64 * 1_000.0;
                            ReadingBatch::single(
                                sensor,
                                Reading::new(Timestamp::from_secs(t), value),
                            )
                        })));
                    }
                });
            }
        });
        cluster.fence();

        let battery = [
            Query::sensors("/bench/*").aggregate(Aggregation::Mean),
            Query::sensors("/bench/*").aggregate(Aggregation::Max),
            Query::sensors("/bench/*").downsample(5_000, Aggregation::Mean),
            Query::sensors("/bench/*").align(10_000),
            Query::sensors(&sensor_ids[..8]).range(TimeRange::all()),
            Query::sensors("/bench/*")
                .rate()
                .aggregate(Aggregation::Sum),
        ];
        let mut digest = FNV_OFFSET;
        for q in battery {
            fnv1a_fold(&mut digest, &cluster.query(q).digest().to_le_bytes());
        }
        assert_eq!(digest, 12081241311551407245, "digest at {shards} shard(s)");
    }
}

/// Every query shape × option × selector kind the planes must agree on.
fn parity_table(dc: &DataCenter) -> Vec<(&'static str, Query)> {
    let by_id = dc.registry().matching(&"/facility/power/*".into());
    assert!(by_id.len() > 1, "the id selector must span several sensors");
    let window = TimeRange::new(mins(5), mins(25));
    vec![
        (
            "readings/pattern",
            Query::sensors("/hw/node0/*").range(window),
        ),
        ("readings/ids", Query::sensors(&by_id).range(window)),
        ("readings/rate", Query::sensors(&by_id).range(window).rate()),
        (
            "buckets/pattern",
            Query::sensors("/hw/*/power_w").downsample(60_000, Aggregation::Mean),
        ),
        (
            "buckets/raw_scan",
            Query::sensors("/hw/*/power_w")
                .raw_scan()
                .downsample(60_000, Aggregation::Max),
        ),
        (
            "scalars/pattern",
            Query::sensors("/facility/**").aggregate(Aggregation::Mean),
        ),
        (
            "scalars/ids+rate",
            Query::sensors(&by_id).rate().aggregate(Aggregation::Sum),
        ),
        (
            "scalars/raw_scan",
            Query::sensors("/sched/**")
                .raw_scan()
                .aggregate(Aggregation::Count),
        ),
        (
            "aligned/pattern",
            Query::sensors("/facility/power/*").align(120_000),
        ),
        ("aligned/ids", Query::sensors(&by_id).align(120_000)),
    ]
}

/// Writes one batch to whichever plane `dc` serves from and waits until
/// the plane has applied it.
fn write(dc: &DataCenter, batch: ReadingBatch) {
    match dc.cluster() {
        Some(cluster) => {
            assert!(cluster.ingest(batch));
            cluster.fence();
        }
        None => {
            dc.bus().publish(batch);
        }
    }
}

#[test]
fn query_planes_agree_on_every_shape_and_version_only_accepted_writes() {
    let unsharded = build(35, 0, Vec::new());
    let expected: Vec<(Vec<SensorId>, u64)> = {
        let plane = unsharded.site().plane();
        assert!(plane.shard_stats().is_none());
        parity_table(&unsharded)
            .into_iter()
            .map(|(_, q)| (plane.resolve(&q), plane.query(q).digest()))
            .collect()
    };
    for shards in [0usize, 1, 2, 4] {
        let dc = build(35, shards, Vec::new());
        let plane = dc.site().plane();
        assert_eq!(
            plane.shard_stats().map(|s| s.count),
            (shards > 0).then_some(shards)
        );
        for ((label, q), (sensors, digest)) in parity_table(&dc).into_iter().zip(&expected) {
            assert_eq!(&plane.resolve(&q), sensors, "{label} @ {shards} shard(s)");
            assert_eq!(
                plane.query(q).digest(),
                *digest,
                "{label} @ {shards} shard(s)"
            );
        }

        // Cache-safety contract: a sensor's version moves iff the plane
        // accepted a reading for it.
        let watched = dc.registry().matching(&"/facility/power/*".into());
        let (target, later) = (watched[0], dc.now().0 + 60_000);
        let before = plane.sensor_versions(&watched);
        write(
            &dc,
            ReadingBatch::single(target, Reading::new(Timestamp(later), 1.0)),
        );
        let accepted = plane.sensor_versions(&watched);
        assert_ne!(accepted[0], before[0], "accepted write @ {shards}");
        assert_eq!(accepted[1..], before[1..], "bystanders @ {shards}");
        for rejected in [
            Reading::new(Timestamp::ZERO, 2.0),           // out of order
            Reading::new(Timestamp(later + 1), f64::NAN), // non-finite
        ] {
            write(&dc, ReadingBatch::single(target, rejected));
        }
        assert_eq!(
            plane.sensor_versions(&watched),
            accepted,
            "rejected writes @ {shards}"
        );
    }
}

// ----- serving-layer round trip ---------------------------------------------

type Response = (u16, Vec<(String, String)>, Vec<u8>);

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

#[test]
fn serving_frontend_fans_out_transparently_over_shards() {
    let unsharded = build(36, 0, Vec::new());
    let sharded = build(36, 3, Vec::new());

    let wire = Query::sensors("/facility/**")
        .aggregate(Aggregation::Mean)
        .to_json();
    let post = format!(
        "POST /api/v1/query HTTP/1.1\r\nx-tenant: ops\r\ncontent-length: {}\r\n\r\n{wire}",
        wire.len()
    );

    let net_a = Arc::new(SimNet::new());
    let mut srv_a = unsharded.serve(Arc::clone(&net_a));
    let (status_a, headers_a, body_a) = round_trip(&net_a, &mut srv_a, &post);

    let net_b = Arc::new(SimNet::new());
    let mut srv_b = sharded.serve(Arc::clone(&net_b));
    let (status_b, headers_b, body_b) = round_trip(&net_b, &mut srv_b, &post);

    assert_eq!((status_a, status_b), (200, 200));
    let digest = |h: &[(String, String)]| {
        h.iter()
            .find(|(n, _)| n == "x-result-digest")
            .map(|(_, v)| v.clone())
            .expect("query responses carry a digest header")
    };
    assert_eq!(digest(&headers_a), digest(&headers_b));
    assert_eq!(body_a, body_b, "fan-out changed the response body");

    // The sharded site's stats report per-shard occupancy.
    let stats_req = "GET /api/v1/stats HTTP/1.1\r\nx-tenant: ops\r\n\r\n";
    let (status, _, body) = round_trip(&net_b, &mut srv_b, stats_req);
    assert_eq!(status, 200);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"shards\""), "stats missing shards section");
    assert!(text.contains("\"occupancy\""));
    assert!(text.contains("\"count\":3"), "{text}");
    assert!(text.contains("\"handoff_errors\":0"), "{text}");
    let (status, _, body) = round_trip(&net_a, &mut srv_a, stats_req);
    assert_eq!(status, 200);
    assert!(
        !String::from_utf8_lossy(&body).contains("\"shards\""),
        "unsharded stats must not report shards"
    );
}
