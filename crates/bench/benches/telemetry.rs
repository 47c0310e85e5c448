//! B1/B2 — telemetry substrate benchmarks and the store ablations from
//! DESIGN.md: ingest throughput (single vs batch, sharded vs single-lock)
//! and the analytical read path (range scan, downsample, parallel
//! multi-sensor aggregation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oda_telemetry::prelude::*;
use oda_telemetry::query::Aggregation;
use std::hint::black_box;
use std::sync::Arc;

/// A default-tier store with an explicit lock-shard count (the ablation
/// axis; `1` degenerates to a single global lock).
fn store_with_shards(capacity: usize, shards: usize) -> TimeSeriesStore {
    TimeSeriesStore::with_rollups(
        capacity,
        shards,
        MetricsRegistry::new(),
        RollupConfig::default(),
    )
}

fn prefilled_store(sensors: u32, samples: u64, shards: usize) -> TimeSeriesStore {
    let store = store_with_shards(samples as usize + 8, shards);
    for s in 0..sensors {
        for t in 0..samples {
            store.insert(
                SensorId(s),
                Reading::new(Timestamp::from_millis(t * 1_000), (t % 97) as f64),
            );
        }
    }
    store
}

/// Ablation baseline: the naive unbounded Vec-per-sensor store the ring
/// buffer replaces. Grows without bound and pays reallocation; kept here
/// only for the DESIGN.md store ablation.
struct NaiveVecStore {
    series: Vec<Vec<Reading>>,
}

impl NaiveVecStore {
    fn new(sensors: usize) -> Self {
        NaiveVecStore {
            series: (0..sensors).map(|_| Vec::new()).collect(),
        }
    }

    fn insert(&mut self, sensor: SensorId, r: Reading) {
        self.series[sensor.index()].push(r);
    }

    fn range(&self, sensor: SensorId, start: Timestamp, end: Timestamp) -> Vec<Reading> {
        self.series[sensor.index()]
            .iter()
            .copied()
            .filter(|r| r.ts >= start && r.ts < end)
            .collect()
    }
}

fn bench_store_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_ablation");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("ring_store_insert_10k", |b| {
        b.iter_with_setup(
            || TimeSeriesStore::with_capacity(16_384),
            |store| {
                for t in 0..10_000u64 {
                    store.insert(
                        SensorId(0),
                        Reading::new(Timestamp::from_millis(t), t as f64),
                    );
                }
                black_box(store.series_len(SensorId(0)))
            },
        );
    });
    g.bench_function("naive_vec_insert_10k", |b| {
        b.iter_with_setup(
            || NaiveVecStore::new(1),
            |mut store| {
                for t in 0..10_000u64 {
                    store.insert(
                        SensorId(0),
                        Reading::new(Timestamp::from_millis(t), t as f64),
                    );
                }
                black_box(store.series[0].len())
            },
        );
    });
    // Read path: ring buffer range uses binary search; the naive store
    // scans linearly.
    let ring = prefilled_store(1, 16_384, TimeSeriesStore::DEFAULT_SHARDS);
    let mut naive = NaiveVecStore::new(1);
    for t in 0..16_384u64 {
        naive.insert(
            SensorId(0),
            Reading::new(Timestamp::from_millis(t * 1_000), t as f64),
        );
    }
    let (s, e) = (Timestamp::from_secs(8_000), Timestamp::from_secs(8_064));
    g.bench_function("ring_store_narrow_range", |b| {
        b.iter(|| black_box(ring.range(SensorId(0), s, e).len()));
    });
    g.bench_function("naive_vec_narrow_range", |b| {
        b.iter(|| black_box(naive.range(SensorId(0), s, e).len()));
    });
    g.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest");
    g.throughput(Throughput::Elements(10_000));
    // Ablation: shard count (1 = global lock).
    for shards in [1usize, 16] {
        g.bench_with_input(
            BenchmarkId::new("single_insert", shards),
            &shards,
            |b, &shards| {
                b.iter_with_setup(
                    || store_with_shards(16_384, shards),
                    |store| {
                        for t in 0..10_000u64 {
                            store.insert(
                                SensorId((t % 64) as u32),
                                Reading::new(Timestamp::from_millis(t), t as f64),
                            );
                        }
                        black_box(store.total_len())
                    },
                );
            },
        );
    }
    // Batch ingest amortises locking.
    g.bench_function("batch_insert_64", |b| {
        let batch: Vec<Reading> = (0..64u64)
            .map(|t| Reading::new(Timestamp::from_millis(t), t as f64))
            .collect();
        b.iter_with_setup(
            || TimeSeriesStore::with_capacity(16_384),
            |store| {
                let mut batch = batch.clone();
                for round in 0..156u64 {
                    for (i, r) in batch.iter_mut().enumerate() {
                        r.ts = Timestamp::from_millis(round * 64 + i as u64);
                    }
                    store.insert_batch(SensorId(0), &batch);
                }
                black_box(store.total_len())
            },
        );
    });
    // Concurrent writers on a sharded vs single-lock store.
    for shards in [1usize, 16] {
        g.bench_with_input(
            BenchmarkId::new("concurrent_8_writers", shards),
            &shards,
            |b, &shards| {
                b.iter_with_setup(
                    || Arc::new(store_with_shards(4_096, shards)),
                    |store| {
                        std::thread::scope(|scope| {
                            for w in 0..8u32 {
                                let store = Arc::clone(&store);
                                scope.spawn(move || {
                                    for t in 0..1_250u64 {
                                        store.insert(
                                            SensorId(w * 8),
                                            Reading::new(Timestamp::from_millis(t), t as f64),
                                        );
                                    }
                                });
                            }
                        });
                        black_box(store.total_len())
                    },
                );
            },
        );
    }
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("query");
    let store = prefilled_store(256, 4_096, TimeSeriesStore::DEFAULT_SHARDS);
    let engine = QueryEngine::new(&store);
    let all = TimeRange::all();

    g.bench_function("range_scan_4k", |b| {
        b.iter(|| {
            black_box(
                Query::sensors(SensorId(3))
                    .range(all)
                    .run(&engine)
                    .readings()
                    .len(),
            )
        });
    });
    g.bench_function("aggregate_mean_4k", |b| {
        b.iter(|| {
            black_box(
                Query::sensors(SensorId(3))
                    .range(all)
                    .aggregate(Aggregation::Mean)
                    .run(&engine)
                    .scalar(),
            )
        });
    });
    g.bench_function("aggregate_p99_4k", |b| {
        b.iter(|| {
            black_box(
                Query::sensors(SensorId(3))
                    .range(all)
                    .aggregate(Aggregation::Quantile(0.99))
                    .run(&engine)
                    .scalar(),
            )
        });
    });
    g.bench_function("downsample_1min_4k", |b| {
        b.iter(|| {
            black_box(
                Query::sensors(SensorId(3))
                    .range(all)
                    .downsample(60_000, Aggregation::Mean)
                    .run(&engine)
                    .buckets()
                    .len(),
            )
        });
    });

    // Ablation: one 256-sensor plan vs 256 single-sensor queries.
    let sensors: Vec<SensorId> = (0..256).map(SensorId).collect();
    g.bench_function("aggregate_many_256_one_query", |b| {
        b.iter(|| {
            black_box(
                Query::sensors(&sensors)
                    .range(all)
                    .aggregate(Aggregation::Mean)
                    .run(&engine)
                    .scalars(),
            )
        });
    });
    g.bench_function("aggregate_many_256_queries", |b| {
        b.iter(|| {
            let out: Vec<Option<f64>> = sensors
                .iter()
                .map(|&s| {
                    Query::sensors(s)
                        .range(all)
                        .aggregate(Aggregation::Mean)
                        .run(&engine)
                        .scalar()
                })
                .collect();
            black_box(out)
        });
    });
    g.bench_function("align_16_sensors_1min", |b| {
        let few: Vec<SensorId> = (0..16).map(SensorId).collect();
        b.iter(|| {
            black_box(
                Query::sensors(&few)
                    .range(all)
                    .align(60_000)
                    .run(&engine)
                    .aligned()
                    .0
                    .len(),
            )
        });
    });
    g.finish();
}

fn bench_bus(c: &mut Criterion) {
    let mut g = c.benchmark_group("bus");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("publish_fanout_8_subscribers", |b| {
        let registry = SensorRegistry::new();
        let sensor = registry.register("/hw/node0/power_w", SensorKind::Power, Unit::Watts);
        let store = Arc::new(TimeSeriesStore::with_capacity(1_024));
        let bus = TelemetryBus::with_archive(
            registry,
            Arc::new(InMemoryBackend::new(store)),
            MetricsRegistry::new(),
        );
        let _subs: Vec<Subscription> = (0..8)
            .map(|i| {
                bus.subscription("/hw/**")
                    .capacity(2_048)
                    .named(format!("bench-fanout-{i}"))
                    .subscribe()
            })
            .collect();
        b.iter(|| {
            for t in 0..1_000u64 {
                bus.publish(oda_telemetry::reading::ReadingBatch::single(
                    sensor,
                    Reading::new(Timestamp::from_millis(t), t as f64),
                ));
            }
            // Drain so buffers do not saturate.
            for s in &_subs {
                while s.rx.try_recv().is_ok() {}
            }
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_store_ablation,
    bench_ingest,
    bench_query,
    bench_bus
);
criterion_main!(benches);
