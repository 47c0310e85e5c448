//! Ladder replays of the traced run.
//!
//! A site builds its own bus, store and backend, so those layers cannot be
//! wrapped in place. Instead a captured slice of the workload's own input —
//! the first `Plan::capture_ticks` ticks of readings, and the requests the round
//! actually sent — is replayed through each layer's public entry point on an
//! identically configured instance, one rung of the call ladder at a time.
//! A layer's self time is its rung minus the rung below it.

use crate::queries::Class;
use crate::site::{self, Plan, ScratchDir, Workload, STORE_CAPACITY};
use crate::stats::{ratio, Samples};
use crate::timed::{TimedBackend, TimedFs};
use oda_serve::cache::QueryCache;
use oda_serve::http::{parse_request, response};
use oda_serve::tenant::AdmissionController;
use oda_sim::datacenter::{DataCenter, DataCenterConfig};
use oda_telemetry::bus::TelemetryBus;
use oda_telemetry::cluster::{ClusterConfig, ClusterCoordinator};
use oda_telemetry::metrics::MetricsRegistry;
use oda_telemetry::query::{Query, QueryEngine};
use oda_telemetry::reading::{Reading, ReadingBatch};
use oda_telemetry::sensor::{SensorId, SensorRegistry};
use oda_telemetry::storage::segment::{self, Segment};
use oda_telemetry::storage::{open_backend, RealFs, SimFs, StorageBackend, StorageFs};
use oda_telemetry::store::{RollupConfig, TimeSeriesStore};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per class replayed through the serving rungs.
const REPLAY_PER_CLASS: usize = 300;
/// Ticks the sampling-free twin is timed over for the simulator's self time.
const SIM_TWIN_TICKS: u64 = 400;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

// ----- serving ---------------------------------------------------------------

/// Cost of each rung of the request path, nanoseconds: means for the rungs
/// every request climbs, medians per class for execution and encoding.
#[derive(Debug, Clone, Default)]
pub struct ServingLadder {
    pub http_parse_ns: f64,
    pub admit_ns: f64,
    pub query_parse_ns: f64,
    /// Resolve the selector and snapshot sensor versions (the cache key),
    /// per class: pattern selectors walk the whole registry.
    pub versions_ns: [f64; 4],
    pub cache_lookup_ns: f64,
    pub http_response_ns: f64,
    /// `Query::run` on the unsharded engine, per class.
    pub run_ns: [f64; 4],
    pub scanned_per_query: [f64; 4],
    pub encode_ns: [f64; 4],
    pub result_bytes: [f64; 4],
    /// `ClusterCoordinator::query`, per class (zero on unsharded sites).
    pub cluster_query_ns: [f64; 4],
    pub tier_hit_ratio: f64,
}

/// Replays the tail of `sent` through every public function on the request
/// path, against the live site the requests were served by.
pub fn serving(dc: &DataCenter, sent: &[(Class, String)]) -> ServingLadder {
    let mut by_class: [Vec<&str>; 4] = Default::default();
    for (class, wire) in sent.iter().rev() {
        let slot = &mut by_class[class.index()];
        if slot.len() < REPLAY_PER_CLASS {
            slot.push(wire);
        }
    }
    let all: Vec<&str> = by_class.iter().flatten().copied().collect();
    let n = all.len() as f64;
    let mut out = ServingLadder::default();
    if all.is_empty() {
        return out;
    }
    let serving_cfg = site::serving_config();

    let raws: Vec<Vec<u8>> = all.iter().map(|w| crate::client::post_query(w)).collect();
    let t = Instant::now();
    for raw in &raws {
        black_box(parse_request(raw, serving_cfg.max_request_bytes));
    }
    out.http_parse_ns = ns(t.elapsed()) / n;

    let admission = AdmissionController::new(serving_cfg.clone());
    let t = Instant::now();
    for i in 0..all.len() as u64 {
        black_box(admission.try_admit(crate::client::TENANT, i));
        admission.release(crate::client::TENANT, i);
    }
    out.admit_ns = ns(t.elapsed()) / n;

    let t = Instant::now();
    for wire in &all {
        black_box(Query::from_json(wire).is_ok());
    }
    out.query_parse_ns = ns(t.elapsed()) / n;

    let engine = QueryEngine::new(dc.store()).with_registry(dc.registry().clone());
    let parsed = |wire: &str| Query::from_json(wire).expect("a sent query parses back");
    let mut keys: Vec<(String, Vec<SensorId>, Vec<u64>)> = Vec::with_capacity(all.len());
    for class in Class::ALL {
        let mut versions_of = Samples::default();
        for wire in &by_class[class.index()] {
            let query = parsed(wire);
            let t = Instant::now();
            let (sensors, versions) = match dc.cluster() {
                Some(cluster) => {
                    let sensors = cluster.resolve(&query);
                    let versions = cluster.sensor_versions(&sensors);
                    (sensors, versions)
                }
                None => {
                    let sensors = engine.resolve_sensors(&query);
                    let versions = sensors
                        .iter()
                        .map(|s| dc.store().sensor_version(*s))
                        .collect();
                    (sensors, versions)
                }
            };
            versions_of.push(t.elapsed());
            keys.push((query.to_json(), sensors, versions));
        }
        out.versions_ns[class.index()] = versions_of.median_ns();
    }

    // A miss, an insert and a hit per key, as the server does on a first
    // and a repeated request.
    let cache = QueryCache::new(serving_cfg.cache_capacity);
    let body = Arc::new(vec![b'x'; 256]);
    let mut lookups = Duration::ZERO;
    for (key, sensors, versions) in &keys {
        let t = Instant::now();
        black_box(cache.lookup(key, sensors, versions));
        lookups += t.elapsed();
        cache.insert(
            key.clone(),
            sensors.clone(),
            versions.clone(),
            Arc::clone(&body),
            0,
        );
        let t = Instant::now();
        black_box(cache.lookup(key, sensors, versions));
        lookups += t.elapsed();
    }
    out.cache_lookup_ns = ns(lookups) / (2.0 * n);

    let scanned = |dc: &DataCenter| {
        let snap = dc.metrics().snapshot();
        (
            crate::round::counter_sum(&snap, "query_readings_scanned_total"),
            crate::round::counter_sum(&snap, "query_tier_hit_total"),
            crate::round::counter_sum(&snap, "query_tier_miss_total"),
        )
    };
    let (_, hits_before, misses_before) = scanned(dc);
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for class in Class::ALL {
        let wires = &by_class[class.index()];
        let k = wires.len().max(1) as f64;
        let queries: Vec<Query> = wires.iter().map(|w| parsed(w)).collect();
        let (scanned_before, _, _) = scanned(dc);
        let mut run = Samples::default();
        let mut results = Vec::with_capacity(queries.len());
        for q in &queries {
            let t = Instant::now();
            results.push(q.clone().run(&engine));
            run.push(t.elapsed());
        }
        out.run_ns[class.index()] = run.median_ns();
        out.scanned_per_query[class.index()] = (scanned(dc).0 - scanned_before) as f64 / k;
        let mut encode = Samples::default();
        let mut rendered = Vec::with_capacity(results.len());
        for r in &results {
            let t = Instant::now();
            rendered.push(r.to_json().into_bytes());
            encode.push(t.elapsed());
        }
        out.encode_ns[class.index()] = encode.median_ns();
        out.result_bytes[class.index()] = rendered.iter().map(Vec::len).sum::<usize>() as f64 / k;
        bodies.extend(rendered);
        if let Some(cluster) = dc.cluster() {
            let mut gather = Samples::default();
            for q in &queries {
                let t = Instant::now();
                black_box(cluster.query(q.clone()));
                gather.push(t.elapsed());
            }
            out.cluster_query_ns[class.index()] = gather.median_ns();
        }
    }
    let (_, hits_after, misses_after) = scanned(dc);
    let (hits, misses) = (hits_after - hits_before, misses_after - misses_before);
    out.tier_hit_ratio = ratio(hits as f64, (hits + misses) as f64);

    let headers = [
        ("x-cache", "miss".to_string()),
        ("x-result-digest", format!("{:016x}", 0u64)),
    ];
    let t = Instant::now();
    for body in &bodies {
        black_box(response(200, "application/json", &headers, body));
    }
    out.http_response_ns = ns(t.elapsed()) / bodies.len().max(1) as f64;
    out
}

// ----- ingest ----------------------------------------------------------------

/// Cost of each rung of the ingest path, nanoseconds per reading unless
/// stated otherwise.
#[derive(Debug, Clone, Default)]
pub struct IngestLadder {
    pub readings_per_tick: f64,
    /// `DataCenter::step` on a twin that never samples: the simulator alone.
    pub sim_ns_per_tick: f64,
    /// `TelemetryBus::publish`, everything below it included.
    pub publish_ns: f64,
    /// `StorageBackend::insert_batch` inside that publish.
    pub insert_ns: f64,
    /// `StorageFs` calls inside that insert.
    pub fs_ns: f64,
    /// `TimeSeriesStore::insert_batch` with the site's rollup tiers.
    pub store_ns: f64,
    /// The same without tiers: the ring append alone.
    pub store_append_ns: f64,
    /// `ClusterCoordinator::ingest`: route plus bounded send, back-pressure
    /// wait included (zero on unsharded sites).
    pub cluster_send_ns: f64,
    pub segment_encode_ns: f64,
    pub segment_decode_ns: f64,
}

/// The first `plan.capture_ticks` ticks of the site's reading stream, captured
/// from a bus subscription on an in-memory twin of the same seed.
fn capture(plan: &Plan, seed: u64) -> (SensorRegistry, Captured) {
    let config = DataCenterConfig {
        shards: 0,
        storage: oda_telemetry::storage::StorageConfig::in_memory(),
        ..site::site_config(plan)
    };
    let mut twin = DataCenter::builder(config)
        .seed(seed)
        .metrics(MetricsRegistry::new())
        .build();
    let sub = twin
        .bus()
        .subscription("/**")
        .capacity(4_096)
        .named("e2e-capture")
        .subscribe();
    let mut batches = Vec::new();
    for _ in 0..plan.capture_ticks {
        twin.step();
        while let Ok(batch) = sub.rx.try_recv() {
            batches.push(batch);
        }
    }
    assert_eq!(sub.dropped(), 0, "capture subscription must not shed");
    let captured = Captured {
        ticks: plan.capture_ticks,
        batches,
    };
    (twin.registry().clone(), captured)
}

/// Replays the captured slice `reps` times starting at repetition
/// `first_rep`, each repetition shifted one slice-length later in time so
/// timestamps keep ascending; returns the wall time spent in `sink`. Batches
/// are built one tick at a time, right before they are consumed, as the
/// simulator builds them: the replay then touches memory the way the site
/// does. Warm repetitions (result ignored) put an instance in the state the
/// workload measures in — a ring that evicts.
fn replay(
    slice: &Captured,
    first_rep: u64,
    reps: u64,
    mut sink: impl FnMut(ReadingBatch),
) -> Duration {
    let span_ms = slice.ticks * 1_000;
    let per_tick = (slice.batches.len() / slice.ticks as usize).max(1);
    let mut wall = Duration::ZERO;
    for rep in first_rep..first_rep + reps {
        for tick in slice.batches.chunks(per_tick) {
            let shifted: Vec<ReadingBatch> = tick
                .iter()
                .map(|b| ReadingBatch {
                    sensor: b.sensor,
                    readings: b
                        .readings
                        .iter()
                        .map(|r| Reading::new(r.ts + rep * span_ms, r.value))
                        .collect(),
                })
                .collect();
            let t = Instant::now();
            for batch in shifted {
                sink(batch);
            }
            wall += t.elapsed();
        }
    }
    wall
}

/// Warm repetitions, then `timed_reps` timed ones; nanoseconds per reading.
fn replay_warm_then_timed(
    slice: &Captured,
    warm: u64,
    timed_reps: u64,
    mut sink: impl FnMut(ReadingBatch),
) -> f64 {
    replay(slice, 0, warm, &mut sink);
    let wall = replay(slice, warm, timed_reps, &mut sink);
    ns(wall) / (timed_reps * slice.batches.len() as u64) as f64
}

/// A slice of a site's reading stream: `ticks` ticks, one batch per reading.
struct Captured {
    ticks: u64,
    batches: Vec<ReadingBatch>,
}

/// Repetitions that bring a replica to the workload's measured state.
fn warm_reps(plan: &Plan) -> u64 {
    plan.warmup_ticks
        .min(STORE_CAPACITY as u64 + plan.capture_ticks)
        .div_ceil(plan.capture_ticks)
}

fn fresh_store(rollups: RollupConfig) -> Arc<TimeSeriesStore> {
    Arc::new(TimeSeriesStore::with_rollups(
        STORE_CAPACITY,
        TimeSeriesStore::DEFAULT_SHARDS,
        MetricsRegistry::new(),
        rollups,
    ))
}

struct PublishRung {
    publish_ns: f64,
    insert_ns: f64,
    fs_ns: f64,
}

/// Replays the slice through `TelemetryBus::publish` on a replica of the
/// site's bus, backend and filesystem; nanoseconds per reading of the one
/// timed repetition after `warm` untimed ones.
fn publish_rung(
    plan: &Plan,
    registry: &SensorRegistry,
    slice: &Captured,
    warm: u64,
    tmp_root: &Path,
    split: bool,
) -> PublishRung {
    let scratch = (plan.workload == Workload::DurableSite).then(|| {
        ScratchDir::create(tmp_root, "ladder").expect("scratch directory for the ladder replay")
    });
    let fs: Arc<dyn StorageFs> = match &scratch {
        Some(dir) => Arc::new(RealFs::new(dir.path()).expect("RealFs opens over scratch")),
        None => Arc::new(SimFs::new()),
    };
    let timed_fs = Arc::new(TimedFs::new(fs, None));
    let rollups = site::site_config(plan).rollups;
    let mut backend = open_backend(
        &plan.storage,
        Arc::clone(&timed_fs) as Arc<dyn StorageFs>,
        fresh_store(rollups),
    )
    .expect("replica backend opens over a fresh filesystem");
    let timed_backend = split.then(|| Arc::new(TimedBackend::new(Arc::clone(&backend))));
    if let Some(timed) = &timed_backend {
        backend = Arc::clone(timed) as Arc<dyn StorageBackend>;
    }
    let bus = TelemetryBus::with_archive(registry.clone(), backend, MetricsRegistry::new());
    // The site's bus delivers the facility sensors to the reference model.
    let subscriber = bus
        .subscription("/facility/**")
        .capacity(1 << 16)
        .subscribe();
    let mut publish = |b: ReadingBatch| {
        black_box(bus.publish(b));
    };
    replay(slice, 0, warm, &mut publish);
    while subscriber.rx.try_recv().is_ok() {}
    let insert_before = timed_backend.as_ref().map_or(0, |b| b.insert_totals().ns);
    let fs_before = timed_fs.snapshot().busy_ns();
    let readings = slice.batches.len() as f64;
    let publish_ns = ns(replay(slice, warm, 1, &mut publish)) / readings;
    assert_eq!(subscriber.dropped(), 0, "replica subscriber must not shed");
    let insert_after = timed_backend.as_ref().map_or(0, |b| b.insert_totals().ns);
    PublishRung {
        publish_ns,
        insert_ns: (insert_after - insert_before) as f64 / readings,
        fs_ns: (timed_fs.snapshot().busy_ns() - fs_before) as f64 / readings,
    }
}

/// Runs every ingest rung for `plan`'s site configuration.
pub fn ingest(plan: &Plan, seed: u64, tmp_root: &Path) -> IngestLadder {
    let (registry, slice) = capture(plan, seed);
    let mut out = IngestLadder {
        readings_per_tick: slice.batches.len() as f64 / slice.ticks as f64,
        ..IngestLadder::default()
    };
    let warm = warm_reps(plan);
    let rollups = site::site_config(plan).rollups;

    // Simulator alone: same seed and tick window, telemetry never sampled.
    let mut twin = DataCenter::builder(DataCenterConfig {
        sample_every_ticks: u64::MAX,
        shards: 0,
        storage: oda_telemetry::storage::StorageConfig::in_memory(),
        ..site::site_config(plan)
    })
    .seed(seed)
    .metrics(MetricsRegistry::new())
    .build();
    twin.run_ticks(plan.warmup_ticks);
    let t = Instant::now();
    twin.run_ticks(SIM_TWIN_TICKS);
    out.sim_ns_per_tick = ns(t.elapsed()) / SIM_TWIN_TICKS as f64;
    assert_eq!(twin.bus().published(), 0, "the twin must never sample");

    // Ring append alone, then with the rollup fold.
    let store = fresh_store(RollupConfig::none());
    out.store_append_ns = replay_warm_then_timed(&slice, warm, 2, |b| {
        black_box(store.insert_batch(b.sensor, &b.readings));
    });
    let store = fresh_store(rollups.clone());
    out.store_ns = replay_warm_then_timed(&slice, warm, 2, |b| {
        black_box(store.insert_batch(b.sensor, &b.readings));
    });

    // Bus publish over the site's backend kind on the site's kind of
    // filesystem, twice: over the bare backend for the publish rung, then
    // under a `TimedBackend` for the insert and filesystem rungs inside it
    // (its two clock reads per insert would otherwise be charged to the bus).
    let bare = publish_rung(plan, &registry, &slice, warm, tmp_root, false);
    let split = publish_rung(plan, &registry, &slice, warm, tmp_root, true);
    out.publish_ns = bare.publish_ns;
    out.insert_ns = split.insert_ns;
    out.fs_ns = split.fs_ns;

    if plan.shards > 0 {
        let cluster = ClusterCoordinator::new(
            ClusterConfig {
                shards: plan.shards,
                per_sensor_capacity: STORE_CAPACITY,
                rollups,
                ..ClusterConfig::default()
            },
            registry,
        )
        .expect("replica cluster opens over fresh in-memory filesystems");
        out.cluster_send_ns = replay_warm_then_timed(&slice, warm, 2, |b| {
            black_box(cluster.ingest(b));
        });
        cluster.fence();
    }

    // Segment codec on a memtable-sized block of the captured stream, shaped
    // as the engine seals it: every sensor's few readings side by side.
    let mut block: BTreeMap<SensorId, Vec<Reading>> = BTreeMap::new();
    for batch in slice.batches.iter().take(4_096) {
        block
            .entry(batch.sensor)
            .or_default()
            .extend(&batch.readings);
    }
    let seg = Segment::raw(1, block.into_iter().collect());
    let in_block = seg.total_readings() as f64;
    const CODEC_REPS: u32 = 20;
    let t = Instant::now();
    for _ in 0..CODEC_REPS {
        black_box(segment::encode(black_box(&seg)));
    }
    out.segment_encode_ns = ns(t.elapsed()) / (f64::from(CODEC_REPS) * in_block);
    let bytes = segment::encode(&seg);
    let t = Instant::now();
    for _ in 0..CODEC_REPS {
        black_box(segment::decode(black_box(&bytes)).is_ok());
    }
    out.segment_decode_ns = ns(t.elapsed()) / (f64::from(CODEC_REPS) * in_block);
    out
}
