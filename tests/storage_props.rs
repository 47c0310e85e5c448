//! Property-based tests of the storage codecs, segment container and WAL:
//! every encoder round-trips **bit-for-bit** over adversarial inputs (NaN
//! payload bits, ±inf, -0.0, clock-jittered and even non-monotone
//! timestamps), truncated input never panics a decoder, and deterministic
//! compaction produces exactly the buckets an independent raw-rescan fold
//! produces. A last property pins group commit: however a record stream is
//! cut into groups, the engine leaves byte-identical files.

use hpc_oda::telemetry::metrics::MetricsRegistry;
use hpc_oda::telemetry::reading::{Reading, Timestamp};
use hpc_oda::telemetry::sensor::SensorId;
use hpc_oda::telemetry::storage::codec::{
    decode_timestamps, decode_value_bits, encode_timestamps, encode_value_bits,
};
use hpc_oda::telemetry::storage::segment::{self, Segment, SegmentBlocks};
use hpc_oda::telemetry::storage::wal;
use hpc_oda::telemetry::storage::{EngineConfig, PersistentEngine, SimFs, StorageFs};
use hpc_oda::telemetry::store::{RollupBucket, TimeSeriesStore};
use proptest::prelude::*;
use std::sync::Arc;

/// Adversarial f64 bit patterns: quiet/signalling NaNs with arbitrary
/// payloads, ±inf, ±0.0, subnormals and ordinary values all arise from
/// uniformly random bits.
fn arb_value_bits(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..max_len)
}

/// Clock-jittered timestamps: a monotone base walk plus occasional signed
/// jitter that may step backwards — the codec's wrapping delta-of-delta
/// must round-trip *any* u64 sequence, ordered or not.
fn arb_jittered_ts(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u64..120_000, -60_000i64..60_000), 0..max_len).prop_map(|steps| {
        let mut ts = 1_700_000_000_000u64;
        steps
            .into_iter()
            .map(|(dt, jitter)| {
                ts = ts.wrapping_add(dt);
                ts.wrapping_add_signed(jitter)
            })
            .collect()
    })
}

/// Valid archive series: strictly increasing timestamps, finite values.
fn arb_series(max_len: usize) -> impl Strategy<Value = Vec<Reading>> {
    prop::collection::vec((1u64..90_000, -1e9f64..1e9), 0..max_len).prop_map(|steps| {
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

/// The reference fold: group `readings` into `bucket_ms` buckets by a plain
/// linear rescan, mirroring what the online rollup tier computes.
fn rescan_fold(readings: &[Reading], bucket_ms: u64) -> Vec<RollupBucket> {
    let mut out: Vec<RollupBucket> = Vec::new();
    for r in readings {
        let start = Timestamp(r.ts.0 - r.ts.0 % bucket_ms);
        match out.last_mut() {
            Some(b) if b.start == start => {
                b.count += 1;
                b.sum += r.value;
                b.min = b.min.min(r.value);
                b.max = b.max.max(r.value);
                b.last = r.value;
                b.last_ts = r.ts;
            }
            _ => out.push(RollupBucket {
                start,
                count: 1,
                sum: r.value,
                min: r.value,
                max: r.value,
                first: r.value,
                last: r.value,
                first_ts: r.ts,
                last_ts: r.ts,
            }),
        }
    }
    out
}

/// Bit-level digest of a bucket list (floats compared by representation).
fn bucket_bits(buckets: &[RollupBucket]) -> Vec<[u64; 9]> {
    buckets
        .iter()
        .map(|b| {
            [
                b.start.0,
                b.count,
                b.sum.to_bits(),
                b.min.to_bits(),
                b.max.to_bits(),
                b.first.to_bits(),
                b.last.to_bits(),
                b.first_ts.0,
                b.last_ts.0,
            ]
        })
        .collect()
}

proptest! {
    /// Delta-of-delta round-trips any u64 timestamp sequence exactly,
    /// including backwards jitter and wrap-around deltas.
    #[test]
    fn timestamp_codec_roundtrips_jittered_sequences(ts in arb_jittered_ts(300)) {
        let encoded = encode_timestamps(&ts);
        prop_assert_eq!(decode_timestamps(&encoded, ts.len()), Some(ts));
    }

    /// XOR float compression round-trips arbitrary bit patterns —
    /// NaN payloads, ±inf, -0.0, subnormals — bit for bit.
    #[test]
    fn value_codec_roundtrips_adversarial_bits(bits in arb_value_bits(300)) {
        let encoded = encode_value_bits(&bits);
        prop_assert_eq!(decode_value_bits(&encoded, bits.len()), Some(bits));
    }

    /// Truncating an encoded stream anywhere never panics a decoder; it
    /// fails closed (None) or yields exactly the requested count.
    #[test]
    fn truncated_codec_input_fails_closed(
        ts in arb_jittered_ts(100),
        bits in arb_value_bits(100),
        cut_pct in 0.0f64..1.0,
    ) {
        let e1 = encode_timestamps(&ts);
        let cut1 = (e1.len() as f64 * cut_pct) as usize;
        if let Some(v) = decode_timestamps(&e1[..cut1], ts.len()) {
            prop_assert_eq!(v.len(), ts.len());
        }
        let e2 = encode_value_bits(&bits);
        let cut2 = (e2.len() as f64 * cut_pct) as usize;
        if let Some(v) = decode_value_bits(&e2[..cut2], bits.len()) {
            prop_assert_eq!(v.len(), bits.len());
        }
    }

    /// A raw segment encodes and decodes back to identical content, and a
    /// one-byte corruption anywhere is always rejected.
    #[test]
    fn segment_roundtrips_and_detects_corruption(
        a in arb_series(80),
        b in arb_series(80),
        flip_pct in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        prop_assume!(!a.is_empty() || !b.is_empty());
        let sensors = vec![(SensorId(1), a), (SensorId(2), b)];
        let seg = Segment::raw(7, sensors.clone());
        let bytes = segment::encode(&seg);
        let back = segment::decode(&bytes).expect("clean bytes decode");
        prop_assert_eq!(back.seq, 7);
        match back.blocks {
            SegmentBlocks::Raw(got) => prop_assert_eq!(got, sensors),
            SegmentBlocks::Compacted(_) => prop_assert!(false, "raw stays raw"),
        }
        let mut corrupt = bytes.clone();
        let idx = ((corrupt.len() - 1) as f64 * flip_pct) as usize;
        corrupt[idx] ^= 1u8 << flip_bit;
        prop_assert!(segment::decode(&corrupt).is_err(), "bit flip must be detected");
    }

    /// Compacting a raw segment yields exactly the buckets an independent
    /// raw-rescan fold computes — same floats, bit for bit.
    #[test]
    fn compaction_matches_raw_rescan_fold(
        series in arb_series(150),
        bucket_pow in 0u32..8,
    ) {
        let bucket_ms = 1_000u64 << bucket_pow;
        let seg = Segment::raw(1, vec![(SensorId(9), series.clone())]);
        let folded = segment::compact(&seg, bucket_ms);
        let mut got = Vec::new();
        folded.buckets_for(SensorId(9), Timestamp::ZERO, Timestamp::MAX, &mut got);
        prop_assert_eq!(bucket_bits(&got), bucket_bits(&rescan_fold(&series, bucket_ms)));
        // And the compacted container itself round-trips losslessly.
        let back = segment::decode(&segment::encode(&folded)).expect("compacted decodes");
        let mut got2 = Vec::new();
        back.buckets_for(SensorId(9), Timestamp::ZERO, Timestamp::MAX, &mut got2);
        prop_assert_eq!(bucket_bits(&got2), bucket_bits(&got));
    }

    /// WAL streams replay exactly what was appended, and any truncation is
    /// detected as a torn tail with only whole checksummed records kept.
    #[test]
    fn wal_replay_returns_appended_prefix(
        batches in prop::collection::vec(arb_series(20), 0..12),
        cut_pct in 0.0f64..1.0,
    ) {
        let mut bytes = wal::encode_header(3).to_vec();
        let mut boundaries = vec![bytes.len()];
        for (i, batch) in batches.iter().enumerate() {
            bytes.extend_from_slice(&wal::encode_record(SensorId(i as u32), batch));
            boundaries.push(bytes.len());
        }
        // Clean replay: every record comes back in order.
        let clean = wal::replay(&bytes);
        prop_assert_eq!(clean.epoch, Some(3));
        prop_assert!(!clean.torn);
        prop_assert_eq!(clean.records.len(), batches.len());
        for (i, (sensor, got)) in clean.records.iter().enumerate() {
            prop_assert_eq!(*sensor, SensorId(i as u32));
            prop_assert_eq!(got, &batches[i]);
        }
        // Truncated replay: whole-record prefix only, tail flagged torn.
        let cut = wal::WAL_HEADER_LEN
            + ((bytes.len() - wal::WAL_HEADER_LEN) as f64 * cut_pct) as usize;
        let torn = wal::replay(&bytes[..cut]);
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        prop_assert_eq!(torn.records.len(), whole);
        prop_assert_eq!(torn.valid_len, boundaries[whole]);
        prop_assert_eq!(torn.torn, cut != boundaries[whole]);
        for (i, (_, got)) in torn.records.iter().enumerate() {
            prop_assert_eq!(got, &batches[i]);
        }
    }
}

// ----- grouped vs per-record ingest ----------------------------------------

/// Everything a filesystem holds: names and bytes, in name order.
fn files(fs: &SimFs) -> Vec<(String, Vec<u8>)> {
    fs.list()
        .expect("SimFs lists")
        .into_iter()
        .map(|name| {
            let bytes = fs.read(&name).expect("listed file reads");
            (name, bytes)
        })
        .collect()
}

/// What a restart brings back from `fs` after a power cut: the recovery
/// report's reading count and every sensor's replayed history, bit for bit.
fn recovered(fs: &Arc<SimFs>, cfg: &EngineConfig, sensors: u32) -> (u64, Vec<Vec<(u64, u64)>>) {
    fs.crash();
    let (engine, report) = PersistentEngine::open(
        Arc::clone(fs) as Arc<dyn StorageFs>,
        cfg.clone(),
        &MetricsRegistry::disabled(),
    )
    .expect("engine reopens over the surviving bytes");
    let store = TimeSeriesStore::with_capacity(1 << 14);
    engine.replay_into(&store).expect("replay reads SimFs");
    let history = (0..sensors)
        .map(|s| {
            store
                .range(SensorId(s), Timestamp::ZERO, Timestamp::MAX)
                .iter()
                .map(|r| (r.ts.0, r.value.to_bits()))
                .collect()
        })
        .collect();
    (report.readings_recovered, history)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// However a record stream is cut into groups, `append_group` leaves the
    /// files `append` leaves record by record: same names, same bytes, same
    /// durable count, same recovered archive — and pays at most one WAL
    /// fsync per group (plus the final flush) for it.
    #[test]
    fn grouped_ingest_is_byte_identical_to_per_record_ingest(
        shape in prop::collection::vec((0u32..6, 1usize..4), 1..3_000),
        cuts in prop::collection::vec(1usize..2_001, 1..40),
        seals_wanted in 0usize..4,
        wal_sync_every in 1usize..17,
    ) {
        const SENSORS: u32 = 6;
        // Per-sensor strictly increasing stamps, non-dyadic values.
        let mut next_ts = [0u64; SENSORS as usize];
        let stream: Vec<(SensorId, Vec<Reading>)> = shape
            .iter()
            .map(|&(sensor, n)| {
                let readings = (0..n)
                    .map(|_| {
                        let ts = &mut next_ts[sensor as usize];
                        *ts += 1_000;
                        Reading::new(Timestamp::from_millis(*ts), 0.1 + *ts as f64 * 0.3)
                    })
                    .collect();
                (SensorId(sensor), readings)
            })
            .collect();
        let total: usize = stream.iter().map(|(_, rs)| rs.len()).sum();
        let cfg = EngineConfig {
            segment_max_readings: match seals_wanted {
                0 => total + 1,
                n => total.div_ceil(n),
            },
            wal_sync_every,
            ..EngineConfig::default()
        };
        let open = |metrics: &MetricsRegistry| {
            let fs = Arc::new(SimFs::new());
            let (engine, _) =
                PersistentEngine::open(Arc::clone(&fs) as Arc<dyn StorageFs>, cfg.clone(), metrics)
                    .expect("engine opens over a fresh SimFs");
            (fs, engine)
        };

        let (one_fs, one) = open(&MetricsRegistry::disabled());
        for (sensor, readings) in &stream {
            one.append(*sensor, readings).expect("SimFs append");
        }
        one.flush().expect("SimFs flush");

        let metrics = MetricsRegistry::new();
        let (many_fs, many) = open(&metrics);
        let records: Vec<(SensorId, &[Reading])> =
            stream.iter().map(|(s, rs)| (*s, rs.as_slice())).collect();
        let (mut rest, mut groups) = (records.as_slice(), 0u64);
        for cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (group, tail) = rest.split_at((*cut).min(rest.len()));
            many.append_group(group).expect("SimFs append");
            // The contract at the call boundary, whatever the group size:
            // fewer than `wal_sync_every` logged records are still unsynced.
            let log = many_fs.read(wal::WAL_FILE).expect("WAL reads");
            let synced = many_fs.durable_len(wal::WAL_FILE).unwrap_or(0);
            let unsynced =
                wal::replay(&log).records.len() - wal::replay(&log[..synced]).records.len();
            prop_assert!(unsynced < wal_sync_every, "{unsynced} records unsynced");
            rest = tail;
            groups += 1;
        }
        many.flush().expect("SimFs flush");

        prop_assert_eq!(files(&one_fs), files(&many_fs));
        prop_assert_eq!(one.durable_len(), many.durable_len());
        prop_assert_eq!(one.durable_len(), total as u64);
        let seals = many.segment_counts().0 as u64;
        prop_assert!(seals <= 3);
        let wal_syncs = metrics.snapshot().counter("storage_wal_syncs_total").unwrap_or(0);
        prop_assert!(
            wal_syncs <= groups + seals + 1,
            "{wal_syncs} WAL syncs for {groups} groups and {seals} seals"
        );
        drop((one, many));
        prop_assert_eq!(
            recovered(&one_fs, &cfg, SENSORS),
            recovered(&many_fs, &cfg, SENSORS)
        );
    }
}
