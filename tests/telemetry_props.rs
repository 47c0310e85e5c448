//! Property-based tests of the telemetry substrate: the ring-buffer store
//! against a reference model, and query-layer invariants.

use hpc_oda::telemetry::query::{aggregate_readings, Aggregation, Query, QueryEngine, TimeRange};
use hpc_oda::telemetry::reading::{Reading, Timestamp};
use hpc_oda::telemetry::sensor::SensorId;
use hpc_oda::telemetry::store::{RingBuffer, TimeSeriesStore};
use proptest::prelude::*;

/// Arbitrary valid (monotone-timestamp, finite) reading sequences.
fn arb_series(max_len: usize) -> impl Strategy<Value = Vec<Reading>> {
    prop::collection::vec((0u64..1_000, -1e6f64..1e6), 0..max_len).prop_map(|steps| {
        let mut ts = 0u64;
        steps
            .into_iter()
            .map(|(dt, v)| {
                ts += dt;
                Reading::new(Timestamp::from_millis(ts), v)
            })
            .collect()
    })
}

proptest! {
    /// The ring buffer behaves exactly like "a Vec that keeps the last N".
    #[test]
    fn ring_buffer_matches_vec_model(series in arb_series(200), cap in 1usize..64) {
        let mut buf = RingBuffer::new(cap);
        let mut model: Vec<Reading> = Vec::new();
        for r in &series {
            let accepted = buf.push(*r);
            prop_assert!(accepted); // series is valid by construction
            model.push(*r);
            if model.len() > cap {
                model.remove(0);
            }
        }
        prop_assert_eq!(buf.to_vec(), model.clone());
        prop_assert_eq!(buf.len(), model.len());
        prop_assert_eq!(buf.oldest(), model.first().copied());
        prop_assert_eq!(buf.newest(), model.last().copied());
    }

    /// Range queries return exactly the model's filtered slice.
    #[test]
    fn range_query_matches_model(
        series in arb_series(120),
        cap in 8usize..128,
        start in 0u64..60_000,
        width in 0u64..60_000,
    ) {
        let mut buf = RingBuffer::new(cap);
        let mut model: Vec<Reading> = Vec::new();
        for r in &series {
            buf.push(*r);
            model.push(*r);
            if model.len() > cap {
                model.remove(0);
            }
        }
        let (s, e) = (Timestamp::from_millis(start), Timestamp::from_millis(start + width));
        let mut got = Vec::new();
        buf.range_into(s, e, &mut got);
        let expected: Vec<Reading> = model
            .iter()
            .copied()
            .filter(|r| r.ts >= s && r.ts < e)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Out-of-order and non-finite data never lands in the store.
    #[test]
    fn store_rejects_garbage(vals in prop::collection::vec((0u64..100, -10f64..10.0), 1..50)) {
        let store = TimeSeriesStore::with_capacity(128);
        let s = SensorId(0);
        let mut last_ts = None;
        for (ts, v) in vals {
            let accepted = store.insert(s, Reading::new(Timestamp::from_millis(ts), v));
            match last_ts {
                Some(prev) if ts < prev => prop_assert!(!accepted),
                _ => {
                    prop_assert!(accepted);
                    last_ts = Some(ts);
                }
            }
        }
        // NaN is always rejected.
        prop_assert!(!store.insert(s, Reading::new(Timestamp::from_millis(10_000), f64::NAN)));
    }

    /// Aggregation invariants: min ≤ mean ≤ max, quantile monotone,
    /// count exact.
    #[test]
    fn aggregation_invariants(series in arb_series(100)) {
        prop_assume!(!series.is_empty());
        let store = TimeSeriesStore::with_capacity(256);
        let s = SensorId(3);
        for r in &series {
            store.insert(s, *r);
        }
        let q = QueryEngine::new(&store);
        let all = TimeRange::all();
        let agg = |a: Aggregation| {
            Query::sensors(s).range(all).aggregate(a).run(&q).scalar().unwrap()
        };
        let mean = agg(Aggregation::Mean);
        let min = agg(Aggregation::Min);
        let max = agg(Aggregation::Max);
        // The mean may be served from rollup tiers, whose per-bucket partial
        // sums associate differently than a flat fold — allow the usual
        // n·ε relative slack on top of the absolute epsilon.
        let slack = 1e-9 + min.abs().max(max.abs()) * 1e-12;
        prop_assert!(min <= mean + slack && mean <= max + slack);
        prop_assert_eq!(agg(Aggregation::Count) as usize, series.len());
        let q25 = agg(Aggregation::Quantile(0.25));
        let q75 = agg(Aggregation::Quantile(0.75));
        prop_assert!(q25 <= q75);
        prop_assert!(min <= q25 && q75 <= max);
        // Time-weighted mean also sits within [min, max].
        let twm = agg(Aggregation::TimeWeightedMean);
        prop_assert!(min - 1e-9 <= twm && twm <= max + 1e-9);
    }

    /// Downsampling conserves the reading count and respects bucket bounds.
    #[test]
    fn downsample_conserves_counts(series in arb_series(150), bucket in 1u64..20_000) {
        prop_assume!(!series.is_empty());
        let store = TimeSeriesStore::with_capacity(256);
        let s = SensorId(0);
        for r in &series {
            store.insert(s, *r);
        }
        let q = QueryEngine::new(&store);
        let buckets = Query::sensors(s)
            .downsample(bucket, Aggregation::Mean)
            .run(&q)
            .buckets();
        let total: usize = buckets.iter().map(|b| b.count).sum();
        prop_assert_eq!(total, series.len());
        for w in buckets.windows(2) {
            prop_assert!(w[0].start < w[1].start);
        }
        for b in &buckets {
            prop_assert_eq!(b.start.as_millis() % bucket, 0);
        }
    }

    /// Wrap-around under hostile input: out-of-order, duplicate-timestamp
    /// and non-finite readings against the "Vec that keeps the last N
    /// accepted" model, with exact rejection/eviction accounting.
    #[test]
    fn ring_buffer_survives_out_of_order_and_duplicates(
        raw in prop::collection::vec((0u64..2_000, -1e6f64..1e6, 0u8..10), 0..300),
        cap in 1usize..16,
    ) {
        // Map the selector byte onto hostile values: ~20% of readings are
        // NaN or ±infinity.
        let raw: Vec<(u64, f64)> = raw
            .into_iter()
            .map(|(ts, v, sel)| match sel {
                0 => (ts, f64::NAN),
                1 => (ts, if v < 0.0 { f64::NEG_INFINITY } else { f64::INFINITY }),
                _ => (ts, v),
            })
            .collect();
        let mut buf = RingBuffer::new(cap);
        let mut model: Vec<Reading> = Vec::new();
        let mut evicted = 0u64;
        let mut ooo = 0u64;
        let mut non_finite = 0u64;
        for (ts, v) in raw {
            let r = Reading::new(Timestamp::from_millis(ts), v);
            let accepted = buf.push(r);
            if !v.is_finite() {
                prop_assert!(!accepted);
                non_finite += 1;
            } else if model.last().is_some_and(|last| r.ts < last.ts) {
                // Strictly older than the newest accepted reading: dropped.
                prop_assert!(!accepted);
                ooo += 1;
            } else {
                // Fresh or duplicate timestamp: accepted in arrival order.
                prop_assert!(accepted);
                model.push(r);
                if model.len() > cap {
                    model.remove(0);
                    evicted += 1;
                }
            }
        }
        prop_assert_eq!(buf.to_vec(), model);
        prop_assert_eq!(buf.evicted(), evicted);
        prop_assert_eq!(buf.rejected_out_of_order(), ooo);
        prop_assert_eq!(buf.rejected_non_finite(), non_finite);
        // Whatever survived is non-decreasing in time.
        let kept = buf.to_vec();
        prop_assert!(kept.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    /// A stalled subscriber sheds batches instead of blocking the bus, the
    /// drop counters grow monotonically, and every published batch is
    /// accounted for as either delivered or dropped.
    #[test]
    fn bus_drop_counters_are_monotone_under_stalled_subscriber(
        publishes in 1usize..60,
        buffer in 1usize..8,
    ) {
        use hpc_oda::telemetry::bus::TelemetryBus;
        use hpc_oda::telemetry::metrics::MetricsRegistry;
        use hpc_oda::telemetry::pattern::SensorPattern;
        use hpc_oda::telemetry::reading::ReadingBatch;
        use hpc_oda::telemetry::sensor::{SensorKind, SensorRegistry, Unit};
        use hpc_oda::telemetry::storage::InMemoryBackend;
        use std::sync::Arc;

        let registry = SensorRegistry::new();
        let sensor = registry.register("/hw/node0/temp_c", SensorKind::Temperature, Unit::Celsius);
        let bus = TelemetryBus::with_archive(
            registry,
            Arc::new(InMemoryBackend::new(Arc::new(TimeSeriesStore::with_capacity(64)))),
            MetricsRegistry::new(),
        );
        // Never drained: fills after `buffer` batches, sheds afterwards.
        let stalled = bus
            .subscription(SensorPattern::new("/hw/**"))
            .capacity(buffer)
            .named("stalled")
            .subscribe();

        let mut last_dropped = 0u64;
        for i in 0..publishes {
            bus.publish(ReadingBatch::single(
                sensor,
                Reading::new(Timestamp::from_millis(i as u64 * 1_000), 25.0),
            ));
            let dropped = stalled.dropped();
            prop_assert!(dropped >= last_dropped, "drop counter went backwards");
            last_dropped = dropped;
            prop_assert_eq!(
                bus.delivered_total() + bus.dropped_total(),
                i as u64 + 1,
                "every batch is delivered or shed"
            );
        }
        let expected_dropped = publishes.saturating_sub(buffer) as u64;
        prop_assert_eq!(stalled.dropped(), expected_dropped);
        prop_assert_eq!(bus.dropped_total(), expected_dropped);
        prop_assert_eq!(bus.delivered_total(), publishes.min(buffer) as u64);
        prop_assert_eq!(bus.published(), publishes as u64);
    }

    /// Rollup-tier answers are *exactly* the raw-scan answers — scalar and
    /// downsampled, for every decomposable aggregation — under hostile
    /// input: out-of-order rejects, NaN bursts, raw-ring eviction and
    /// tier-ring eviction all active at once. Values are dyadic (multiples
    /// of 0.25, bounded magnitude) so tier partial sums are bit-exact and
    /// `prop_assert_eq!` needs no tolerance.
    #[test]
    fn rollup_tier_answers_match_raw_scan(
        raw in prop::collection::vec((0u64..50_000, -4000i32..4000, 0u8..10), 1..300),
        raw_cap in 4usize..64,
        tier_cap in 2usize..32,
    ) {
        use hpc_oda::telemetry::metrics::MetricsRegistry;
        use hpc_oda::telemetry::store::{RollupConfig, RollupTierSpec};

        let rollups = RollupConfig {
            tiers: vec![
                RollupTierSpec { bucket_ms: 1_000, capacity: tier_cap },
                RollupTierSpec { bucket_ms: 5_000, capacity: tier_cap },
            ],
        };
        let store =
            TimeSeriesStore::with_rollups(raw_cap, 1, MetricsRegistry::disabled(), rollups);
        let s = SensorId(0);
        for (ts, v, sel) in raw {
            // ~10% NaN bursts: rejected readings must leave no trace in any
            // tier, or the planner would answer from poisoned summaries.
            let value = if sel == 0 { f64::NAN } else { v as f64 * 0.25 };
            store.insert(s, Reading::new(Timestamp::from_millis(ts), value));
        }
        let q = QueryEngine::new(&store);
        let all = TimeRange::all();
        for agg in [
            Aggregation::Mean,
            Aggregation::Min,
            Aggregation::Max,
            Aggregation::Sum,
            Aggregation::Count,
        ] {
            let planned =
                Query::sensors(s).range(all).aggregate(agg).run(&q).scalar();
            let rescan = Query::sensors(s)
                .range(all)
                .aggregate(agg)
                .raw_scan()
                .run(&q)
                .scalar();
            prop_assert_eq!(planned, rescan, "scalar {:?} diverged", agg);
            for bucket_ms in [1_000u64, 5_000, 10_000] {
                let planned = Query::sensors(s)
                    .range(all)
                    .downsample(bucket_ms, agg)
                    .run(&q)
                    .buckets();
                let rescan = Query::sensors(s)
                    .range(all)
                    .downsample(bucket_ms, agg)
                    .raw_scan()
                    .run(&q)
                    .buckets();
                prop_assert_eq!(
                    &planned, &rescan,
                    "downsample({}) {:?} diverged", bucket_ms, agg
                );
            }
        }
    }

    /// The duplicate-timestamp policy (accept-and-order-stable; see
    /// `RingBuffer::push`) holds all the way up the query stack: streams
    /// dense with same-ts runs are kept in exact arrival order, and every
    /// tier-planned answer is *bit-identical* to the raw scan over them —
    /// scalar and downsampled, for every decomposable aggregation.
    /// Timestamp gaps are drawn from `0..3` ticks so roughly a third of
    /// consecutive readings collide; values are dyadic (multiples of 0.25)
    /// so `prop_assert_eq!` needs no tolerance.
    #[test]
    fn duplicate_timestamps_are_order_stable_and_tier_exact(
        raw in prop::collection::vec((0u64..3, -4000i32..4000), 1..250),
        raw_cap in 8usize..64,
        tier_cap in 2usize..32,
    ) {
        use hpc_oda::telemetry::metrics::MetricsRegistry;
        use hpc_oda::telemetry::store::{RollupConfig, RollupTierSpec};

        let rollups = RollupConfig {
            tiers: vec![
                RollupTierSpec { bucket_ms: 1_000, capacity: tier_cap },
                RollupTierSpec { bucket_ms: 5_000, capacity: tier_cap },
            ],
        };
        let store =
            TimeSeriesStore::with_rollups(raw_cap, 1, MetricsRegistry::disabled(), rollups);
        let s = SensorId(0);
        let mut ts = 0u64;
        let mut model: Vec<Reading> = Vec::new();
        for (gap, v) in raw {
            ts += gap * 250; // gap == 0 → duplicate timestamp
            let r = Reading::new(Timestamp::from_millis(ts), v as f64 * 0.25);
            store.insert(s, r);
            model.push(r);
            if model.len() > raw_cap {
                model.remove(0);
            }
        }
        let q = QueryEngine::new(&store);
        let all = TimeRange::all();

        // Arrival order survives verbatim — same-ts runs are neither merged
        // nor reordered.
        let fetched = Query::sensors(s).range(all).run(&q).readings();
        prop_assert_eq!(fetched, model);

        for agg in [
            Aggregation::Mean,
            Aggregation::Min,
            Aggregation::Max,
            Aggregation::Sum,
            Aggregation::Count,
        ] {
            let planned =
                Query::sensors(s).range(all).aggregate(agg).run(&q).scalar();
            let rescan = Query::sensors(s)
                .range(all)
                .aggregate(agg)
                .raw_scan()
                .run(&q)
                .scalar();
            prop_assert_eq!(planned, rescan, "scalar {:?} diverged on dup-ts", agg);
            for bucket_ms in [1_000u64, 5_000] {
                let planned = Query::sensors(s)
                    .range(all)
                    .downsample(bucket_ms, agg)
                    .run(&q)
                    .buckets();
                let rescan = Query::sensors(s)
                    .range(all)
                    .downsample(bucket_ms, agg)
                    .raw_scan()
                    .run(&q)
                    .buckets();
                prop_assert_eq!(
                    &planned, &rescan,
                    "downsample({}) {:?} diverged on dup-ts", bucket_ms, agg
                );
            }
        }
    }

    /// `aggregate_readings` agrees between the slice helper and the engine.
    #[test]
    fn engine_and_slice_aggregation_agree(series in arb_series(80)) {
        prop_assume!(!series.is_empty());
        let store = TimeSeriesStore::with_capacity(128);
        let s = SensorId(0);
        for r in &series {
            store.insert(s, *r);
        }
        let q = QueryEngine::new(&store);
        let fetched = Query::sensors(s).run(&q).readings();
        // Engine aggregation may go through rollup tiers, so Sum/Mean can
        // differ from the flat slice fold by summation-order rounding:
        // bounded by n·ε·Σ|v|.
        let scale: f64 = fetched.iter().map(|r| r.value.abs()).sum();
        let tol = 1e-9 + scale * fetched.len() as f64 * f64::EPSILON;
        for agg in [Aggregation::Mean, Aggregation::Sum, Aggregation::StdDev] {
            let a = Query::sensors(s).aggregate(agg).run(&q).scalar().unwrap();
            let b = aggregate_readings(&fetched, agg).unwrap();
            prop_assert!((a - b).abs() < tol, "{agg:?}: {a} vs {b}");
        }
    }
}

/// A ragged two-sensor alignment leaves NaN holes where one sensor has no
/// data in a bucket; those holes must not poison downstream correlation.
/// The NaN-aware estimators in `analytics` give exactly the answer you get
/// by compacting to the overlapping buckets first.
#[test]
fn ragged_alignment_does_not_poison_downstream_correlation() {
    use hpc_oda::analytics::descriptive::stats::{correlation, spearman};

    let store = TimeSeriesStore::with_capacity(256);
    let (a, b) = (SensorId(0), SensorId(1));
    // Sensor a samples every second for 20 s; sensor b only every other
    // second and only from t=4 s, so the aligned matrix is ragged: b's row
    // is NaN for half its buckets.
    for t in 0..20u64 {
        store.insert(a, Reading::new(Timestamp::from_millis(t * 1_000), t as f64));
        if t >= 4 && t % 2 == 0 {
            store.insert(
                b,
                Reading::new(Timestamp::from_millis(t * 1_000), 3.0 * t as f64 + 1.0),
            );
        }
    }
    let q = QueryEngine::new(&store);
    let (grid, matrix) = Query::sensors([a, b].as_slice())
        .range(TimeRange::all())
        .align(1_000)
        .run(&q)
        .aligned();
    assert_eq!(grid.len(), 20);
    assert!(
        matrix[0].iter().all(|v| v.is_finite()),
        "dense sensor has no holes"
    );
    assert!(
        matrix[1].iter().any(|v| v.is_nan()),
        "ragged sensor must have holes"
    );

    let pearson = correlation(&matrix[0], &matrix[1]).expect("NaN-aware pearson");
    let rho = spearman(&matrix[0], &matrix[1]).expect("NaN-aware spearman");
    assert!(
        pearson.is_finite() && rho.is_finite(),
        "holes poisoned the estimators"
    );
    // b is a perfect affine, monotone function of a on the overlap.
    assert!((pearson - 1.0).abs() < 1e-12, "pearson {pearson}");
    assert!((rho - 1.0).abs() < 1e-12, "spearman {rho}");
    // Same answer as compacting to overlapping buckets by hand.
    let (xs, ys): (Vec<f64>, Vec<f64>) = matrix[0]
        .iter()
        .zip(&matrix[1])
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .unzip();
    assert_eq!(xs.len(), 8, "overlap is the 8 even seconds in 4..=18");
    assert_eq!(correlation(&matrix[0], &matrix[1]), correlation(&xs, &ys));
    assert_eq!(spearman(&matrix[0], &matrix[1]), spearman(&xs, &ys));
}

/// How [`fused_fleet_query_is_the_per_sensor_queries_concatenated`] plans
/// its scans.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Tiered,
    RawScan,
    Rate,
}

/// The four result shapes, at one bucket width and one aggregation.
#[derive(Debug, Clone, Copy)]
enum Want {
    Readings,
    Buckets,
    Scalars,
    Aligned,
}

fn fleet_query(sensors: Vec<SensorId>, plan: Plan, want: Want) -> Query {
    let q = Query::sensors(sensors).range(TimeRange::new(
        Timestamp::from_millis(3_500),
        Timestamp::from_millis(95_500),
    ));
    let q = match plan {
        Plan::Tiered => q,
        Plan::RawScan => q.raw_scan(),
        Plan::Rate => q.rate(),
    };
    match want {
        Want::Readings => q,
        Want::Buckets => q.downsample(10_000, Aggregation::Mean),
        Want::Scalars => q.aggregate(Aggregation::Mean),
        Want::Aligned => q.align(10_000),
    }
}

/// The inside of `json`'s `"key":[…]` array. Result bodies hold no
/// strings past `"kind"`, so counting brackets is exact.
fn array_body<'a>(json: &'a str, key: &str) -> &'a str {
    let open = json.find(&format!("\"{key}\":[")).expect("key present") + key.len() + 4;
    let mut depth = 1;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' if depth == 1 => return &json[open..open + i],
            ']' => depth -= 1,
            _ => {}
        }
    }
    panic!("unbalanced array under {key:?}");
}

fn tokens(body: &str) -> impl Iterator<Item = &str> {
    body.split(',').filter(|t| !t.is_empty())
}

/// One query over `w` sensors is the `w` single-sensor queries laid side by
/// side: same JSON bytes, same digest, same read-path counters — for every
/// shape and plan, at widths on both sides of the 64-sensor line where a
/// thread fan-out used to begin. The expected body is spliced from the
/// single-sensor bodies and the expected digest rebuilt from their typed
/// values over `QueryResult::digest`'s documented byte layout, so neither
/// passes through the multi-sensor path under test.
#[test]
fn fused_fleet_query_is_the_per_sensor_queries_concatenated() {
    use hpc_oda::telemetry::hash::fnv1a64;
    use hpc_oda::telemetry::metrics::MetricsRegistry;
    use hpc_oda::telemetry::store::RollupConfig;
    use std::collections::{BTreeMap, BTreeSet};

    const COUNTERS: [&str; 5] = [
        "query_readings_scanned_total",
        "query_tier_hit_total",
        "query_tier_miss_total",
        "query_readings_avoided_total",
        "query_rollup_buckets_scanned_total",
    ];
    let metrics = MetricsRegistry::new();
    let store = TimeSeriesStore::with_rollups(256, 4, metrics.clone(), RollupConfig::default());
    // A ragged fleet: dense sensors the 10 s tier serves, one-reading-per-
    // bucket sensors it cannot save anything on, short ones, silent ones.
    for i in 0..300u32 {
        let (step_ms, n) = match i % 10 {
            9 => continue,
            0 | 3 | 6 => (10_000, 12),
            1 | 4 | 7 => (1_000, 120),
            _ => (2_500, 28),
        };
        for k in 0..n {
            let value = f64::from((i * 31 + k * 17) % 257) * 0.25;
            let ts = Timestamp::from_millis(u64::from(5_000 + k * step_ms + i % 4 * 100));
            assert!(store.insert(SensorId(i), Reading::new(ts, value)));
        }
    }
    let q = QueryEngine::new(&store);
    let counters = || {
        let snap = metrics.snapshot();
        COUNTERS.map(|c| snap.counter(c).unwrap_or(0))
    };
    let advance_since = |before: [u64; 5]| {
        let after = counters();
        [0, 1, 2, 3, 4].map(|i| after[i] - before[i])
    };
    let le = |bytes: &mut Vec<u8>, x: u64| bytes.extend_from_slice(&x.to_le_bytes());

    for width in [1u32, 63, 64, 65, 300] {
        // Selector order is not id order.
        let ids: Vec<SensorId> = (0..width).rev().map(SensorId).collect();
        for plan in [Plan::Tiered, Plan::RawScan, Plan::Rate] {
            for want in [Want::Readings, Want::Buckets, Want::Scalars, Want::Aligned] {
                let case = format!("width {width}, {plan:?}, {want:?}");
                let before = counters();
                let fused = fleet_query(ids.clone(), plan, want).run(&q);
                let fused_advance = advance_since(before);
                let before = counters();
                let parts: Vec<_> = ids
                    .iter()
                    .map(|&s| fleet_query(vec![s], plan, want).run(&q))
                    .collect();
                let parts_advance = advance_since(before);
                assert_eq!(fused_advance, parts_advance, "{case}: {COUNTERS:?}");
                if matches!(plan, Plan::Tiered) && !matches!(want, Want::Readings) && width > 1 {
                    assert!(
                        fused_advance[1] > 0 && fused_advance[2] > 0,
                        "{case}: the fleet must mix tier hits and misses"
                    );
                }

                let id_list: Vec<String> = ids.iter().map(|s| s.0.to_string()).collect();
                let jsons: Vec<String> = parts.iter().map(|p| p.to_json()).collect();
                let mut bytes: Vec<u8> = ids.iter().flat_map(|s| s.0.to_le_bytes()).collect();
                let (kind, data) = match want {
                    Want::Readings | Want::Buckets | Want::Scalars => {
                        let (kind, key, tag) = match want {
                            Want::Readings => ("readings", "series", 0),
                            Want::Buckets => ("buckets", "series", 1),
                            _ => ("scalars", "values", 2),
                        };
                        bytes.push(tag);
                        for part in &parts {
                            match want {
                                Want::Readings => {
                                    let rs = part.clone().readings();
                                    le(&mut bytes, rs.len() as u64);
                                    for r in rs {
                                        le(&mut bytes, r.ts.0);
                                        le(&mut bytes, r.value.to_bits());
                                    }
                                }
                                Want::Buckets => {
                                    let bs = part.clone().buckets();
                                    le(&mut bytes, bs.len() as u64);
                                    for b in bs {
                                        le(&mut bytes, b.start.0);
                                        le(&mut bytes, b.value.to_bits());
                                        le(&mut bytes, b.count as u64);
                                    }
                                }
                                _ => match part.clone().scalar() {
                                    Some(x) => {
                                        bytes.push(1);
                                        le(&mut bytes, x.to_bits());
                                    }
                                    None => bytes.push(0),
                                },
                            }
                        }
                        let cells: Vec<&str> = jsons.iter().map(|j| array_body(j, key)).collect();
                        (kind, format!("\"{key}\":[{}]", cells.join(",")))
                    }
                    Want::Aligned => {
                        // Per sensor: bucket start → (value, its JSON token).
                        let rows: Vec<BTreeMap<u64, (f64, &str)>> = parts
                            .iter()
                            .zip(&jsons)
                            .map(|(part, json)| {
                                let (grid, matrix) = part.clone().aligned();
                                let row = array_body(json, "matrix");
                                let row = row.trim_start_matches('[').trim_end_matches(']');
                                grid.iter()
                                    .zip(&matrix[0])
                                    .zip(tokens(row))
                                    .map(|((t, &x), token)| (t.0, (x, token)))
                                    .collect()
                            })
                            .collect();
                        let grid: BTreeSet<u64> =
                            rows.iter().flat_map(|r| r.keys().copied()).collect();
                        bytes.push(3);
                        le(&mut bytes, grid.len() as u64);
                        grid.iter().for_each(|&t| le(&mut bytes, t));
                        let mut matrix = Vec::new();
                        for row in &rows {
                            let cells: Vec<&str> = grid
                                .iter()
                                .map(|t| {
                                    let (x, token) =
                                        row.get(t).copied().unwrap_or((f64::NAN, "null"));
                                    le(&mut bytes, x.to_bits());
                                    token
                                })
                                .collect();
                            matrix.push(format!("[{}]", cells.join(",")));
                        }
                        let grid: Vec<String> = grid.iter().map(u64::to_string).collect();
                        (
                            "aligned",
                            format!(
                                "\"grid_ms\":[{}],\"matrix\":[{}]",
                                grid.join(","),
                                matrix.join(",")
                            ),
                        )
                    }
                };
                let expected = format!(
                    "{{\"kind\":\"{kind}\",\"sensors\":[{}],{data}}}",
                    id_list.join(",")
                );
                assert_eq!(fused.to_json(), expected, "{case}");
                assert_eq!(fused.digest(), fnv1a64(&bytes), "{case}");
            }
        }
    }
}

/// A long-window fleet mean, published through the bus and answered through
/// the rollup planner, then again with the planner bypassed — counted
/// exactly rather than timed. Every sensor tier-hits on every planned query
/// and the planned path scans no raw reading; the bypass scans every
/// reading of every sensor on every query; both answer bit-for-bit alike
/// (the values are dyadic, so tier partial sums are exact). A disabled
/// recorder runs the same workload to the same answers and records nothing.
#[test]
fn long_window_fleet_mean_is_served_from_tiers_with_exact_counts() {
    use hpc_oda::telemetry::bus::TelemetryBus;
    use hpc_oda::telemetry::metrics::MetricsRegistry;
    use hpc_oda::telemetry::reading::ReadingBatch;
    use hpc_oda::telemetry::sensor::{SensorKind, SensorRegistry, Unit};
    use hpc_oda::telemetry::storage::InMemoryBackend;
    use hpc_oda::telemetry::store::RollupConfig;
    use std::sync::Arc;

    const SENSORS: u64 = 8;
    const ROUNDS: u64 = 20;
    const PER_BATCH: u64 = 4;
    const QUERIES: u64 = 10;
    const READINGS: u64 = ROUNDS * PER_BATCH; // per sensor
    const COUNTERS: [&str; 2] = ["query_tier_hit_total", "query_readings_scanned_total"];

    let run = |metrics: MetricsRegistry| {
        let registry = SensorRegistry::new();
        let sensors: Vec<SensorId> = (0..SENSORS)
            .map(|i| {
                registry.register(
                    &format!("/hw/node{i}/power_w"),
                    SensorKind::Power,
                    Unit::Watts,
                )
            })
            .collect();
        let store = Arc::new(TimeSeriesStore::with_rollups(
            256,
            TimeSeriesStore::DEFAULT_SHARDS,
            metrics.clone(),
            RollupConfig::default(),
        ));
        let archive = Arc::new(InMemoryBackend::new(Arc::clone(&store)));
        let bus = TelemetryBus::with_archive(registry, archive, metrics.clone());
        let sub = bus
            .subscription("/hw/**")
            .capacity(2 * SENSORS as usize)
            .named("drain")
            .subscribe();
        for round in 0..ROUNDS {
            for (i, &sensor) in sensors.iter().enumerate() {
                let readings = (0..PER_BATCH)
                    .map(|k| {
                        let ts = Timestamp::from_millis((round * PER_BATCH + k) * 1_000);
                        Reading::new(ts, 100.0 + i as f64 + k as f64 * 0.25)
                    })
                    .collect();
                bus.publish(ReadingBatch { sensor, readings });
            }
            while sub.rx.try_recv().is_ok() {}
        }
        assert_eq!(bus.delivered_total(), SENSORS * ROUNDS);
        assert_eq!(bus.dropped_total(), 0);

        let engine = QueryEngine::new(&store);
        let counters = || {
            let snap = metrics.snapshot();
            COUNTERS.map(|c| snap.counter(c).unwrap_or(0))
        };
        let fleet_means = |raw: bool| -> Vec<Vec<Option<u64>>> {
            (0..QUERIES)
                .map(|_| {
                    let q = Query::sensors(sensors.as_slice())
                        .range(TimeRange::all())
                        .aggregate(Aggregation::Mean);
                    let q = if raw { q.raw_scan() } else { q };
                    q.run(&engine)
                        .scalars()
                        .into_iter()
                        .map(|x| x.map(f64::to_bits))
                        .collect()
                })
                .collect()
        };
        let start = counters();
        let tiered = fleet_means(false);
        let mid = counters();
        let raw = fleet_means(true);
        let end = counters();
        assert_eq!(
            tiered, raw,
            "planned answers must equal the raw rescan bit for bit"
        );
        let phase = |a: [u64; 2], b: [u64; 2]| [b[0] - a[0], b[1] - a[1]];
        (
            tiered,
            phase(start, mid),
            phase(mid, end),
            metrics.snapshot(),
        )
    };

    let (answers, tiered, raw, snap) = run(MetricsRegistry::new());
    assert_eq!(tiered, [QUERIES * SENSORS, 0], "tiered [hits, scanned]");
    assert_eq!(
        raw,
        [0, QUERIES * SENSORS * READINGS],
        "raw [hits, scanned]"
    );
    let total = SENSORS * READINGS;
    assert_eq!(snap.counter("bus_readings_total"), Some(total));
    let appended: u64 = snap
        .counters
        .iter()
        .filter(|c| c.id.starts_with("store_append_total"))
        .map(|c| c.value)
        .sum();
    assert_eq!(appended, total);

    let (quiet_answers, _, _, quiet) = run(MetricsRegistry::disabled());
    assert_eq!(quiet_answers, answers);
    assert!(quiet.counters.is_empty() && quiet.histograms.is_empty());
}
