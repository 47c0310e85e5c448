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
    decode_timestamps, decode_value_bits, encode_timestamps, encode_value_bits, fnv1a64,
};
use hpc_oda::telemetry::storage::segment::{self, BlockRef, Segment, SegmentBlocks};
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

/// `sensor`'s raw readings in `seg`, its blocks concatenated in file order.
fn raw_of(seg: &Segment, sensor: SensorId) -> Vec<Reading> {
    match &seg.blocks {
        SegmentBlocks::Raw(blocks) => blocks
            .iter()
            .filter(|(s, _)| *s == sensor)
            .flat_map(|(_, rs)| rs.iter().copied())
            .collect(),
        SegmentBlocks::Compacted(_) => Vec::new(),
    }
}

/// `sensor`'s buckets in `seg`, its blocks concatenated in file order.
fn compacted_of(seg: &Segment, sensor: SensorId) -> Vec<RollupBucket> {
    match &seg.blocks {
        SegmentBlocks::Compacted(blocks) => blocks
            .iter()
            .filter(|(s, _)| *s == sensor)
            .flat_map(|(_, bs)| bs.iter().copied())
            .collect(),
        SegmentBlocks::Raw(_) => Vec::new(),
    }
}

fn block_count(seg: &Segment) -> usize {
    match &seg.blocks {
        SegmentBlocks::Raw(blocks) => blocks.len(),
        SegmentBlocks::Compacted(blocks) => blocks.len(),
    }
}

/// The bytes a directory entry points at.
fn block_bytes<'a>(file: &'a [u8], b: &BlockRef) -> &'a [u8] {
    &file[b.offset as usize..(b.offset + b.len) as usize]
}

/// Bit-level form of a reading list.
fn reading_bits(readings: &[Reading]) -> Vec<(u64, u64)> {
    readings
        .iter()
        .map(|r| (r.ts.0, r.value.to_bits()))
        .collect()
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
        let got = compacted_of(&folded, SensorId(9));
        prop_assert_eq!(bucket_bits(&got), bucket_bits(&rescan_fold(&series, bucket_ms)));
        // And the compacted container itself round-trips losslessly.
        let back = segment::decode(&segment::encode(&folded)).expect("compacted decodes");
        prop_assert_eq!(bucket_bits(&compacted_of(&back, SensorId(9))), bucket_bits(&got));
    }

    /// Every block fetched through the directory and decoded alone equals
    /// that sensor's data in `decode(&bytes)`, in file order, bit for bit —
    /// raw and compacted, with unsorted and repeated sensors — and a single
    /// bit flip anywhere inside a block fails that block's checksum.
    #[test]
    fn directory_blocks_decode_alone_to_the_sensors_data(
        blocks in prop::collection::vec((0u32..5, arb_series(40)), 0..9),
        bucket_pow in 0u32..6,
        flip in (0.0f64..1.0, 0u8..8),
    ) {
        let raw = Segment::raw(3, blocks.into_iter().map(|(s, rs)| (SensorId(s), rs)).collect());
        for seg in [segment::compact(&raw, 1_000u64 << bucket_pow), raw] {
            let (bytes, dir) = segment::encode_indexed(&seg);
            let (back, read_dir) = segment::decode_indexed(&bytes).expect("clean bytes decode");
            prop_assert_eq!(&dir, &read_dir);
            prop_assert_eq!(dir.iter().count(), block_count(&back));
            for sensor in (0..6).map(SensorId) {
                let refs = dir.of(sensor);
                prop_assert!(refs.windows(2).all(|w| w[0].offset < w[1].offset));
                let (mut readings, mut buckets) = (Vec::new(), Vec::new());
                for b in refs {
                    let block = block_bytes(&bytes, b);
                    prop_assert_eq!(fnv1a64(block), b.sum);
                    match segment::decode_block(seg.kind(), block).expect("block decodes alone") {
                        SegmentBlocks::Raw(one) => readings.extend(one.into_iter().flat_map(|(_, v)| v)),
                        SegmentBlocks::Compacted(one) => buckets.extend(one.into_iter().flat_map(|(_, v)| v)),
                    }
                }
                match &back.blocks {
                    SegmentBlocks::Raw(_) => {
                        prop_assert_eq!(reading_bits(&readings), reading_bits(&raw_of(&back, sensor)));
                        prop_assert!(buckets.is_empty());
                    }
                    SegmentBlocks::Compacted(_) => {
                        prop_assert_eq!(bucket_bits(&buckets), bucket_bits(&compacted_of(&back, sensor)));
                        prop_assert!(readings.is_empty());
                    }
                }
            }
            if let Some(b) = dir.iter().next() {
                let mut block = block_bytes(&bytes, b).to_vec();
                let at = ((block.len() - 1) as f64 * flip.0) as usize;
                block[at] ^= 1u8 << flip.1;
                prop_assert_ne!(fnv1a64(&block), b.sum, "flip at {} of the block", at);
            }
        }
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

// ----- segment bytes and the engine's read path ------------------------------

/// A fixed segment with unsorted and repeated sensors, an empty block, NaN,
/// -0.0 and ±inf values.
fn golden_segment() -> Segment {
    let series = |n: u64, t0: u64, step: u64, f: fn(u64) -> f64| -> Vec<Reading> {
        (0..n)
            .map(|i| Reading::new(Timestamp(t0 + i * step), f(i)))
            .collect()
    };
    Segment::raw(
        42,
        vec![
            (
                SensorId(5),
                series(40, 10_000, 250, |i| 40.0 + (i % 7) as f64),
            ),
            (SensorId(2), series(12, 11_000, 1_000, |i| -0.25 * i as f64)),
            (SensorId(9), Vec::new()),
            (
                SensorId(5),
                series(6, 30_000, 333, |i| match i {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => f64::INFINITY,
                    3 => f64::NEG_INFINITY,
                    _ => 1e-300 * i as f64,
                }),
            ),
        ],
    )
}

/// The encoder's bytes are the format's: pinned at the digests the encoder
/// produced before the block directory existed.
#[test]
fn segment_bytes_match_the_pinned_golden_digests() {
    let raw = golden_segment();
    let folded = segment::compact(&raw, 5_000);
    assert_eq!(fnv1a64(&segment::encode(&raw)), RAW_GOLDEN);
    assert_eq!(fnv1a64(&segment::encode(&folded)), COMPACTED_GOLDEN);
    for seg in [&raw, &folded] {
        let (bytes, _) = segment::encode_indexed(seg);
        assert_eq!(bytes, segment::encode(seg));
    }
}

/// `fnv1a64(encode(golden_segment()))` at the parent of the block directory.
const RAW_GOLDEN: u64 = 14_136_222_133_156_378_004;
/// The same for the segment compacted at 5 s buckets.
const COMPACTED_GOLDEN: u64 = 8_669_599_431_923_469_022;

/// The read path with no directory: decode every segment file whole (in
/// sequence order, which is name order), then the WAL's records.
fn whole_file_reference(
    fs: &SimFs,
    sensor: SensorId,
    start: Timestamp,
    end: Timestamp,
) -> (Vec<Reading>, Vec<RollupBucket>) {
    let (mut readings, mut buckets) = (Vec::new(), Vec::new());
    let in_range = |t: Timestamp| t >= start && t < end;
    for name in fs.list().expect("SimFs lists") {
        if segment::parse_file_name(&name).is_none() {
            continue;
        }
        let seg = segment::decode(&fs.read(&name).expect("listed file reads"))
            .expect("engine-written segment decodes");
        readings.extend(raw_of(&seg, sensor).into_iter().filter(|r| in_range(r.ts)));
        buckets.extend(
            compacted_of(&seg, sensor)
                .into_iter()
                .filter(|b| in_range(b.start)),
        );
    }
    let log = wal::replay(&fs.read(wal::WAL_FILE).expect("WAL reads"));
    for (s, rs) in log.records {
        if s == sensor {
            readings.extend(rs.into_iter().filter(|r| in_range(r.ts)));
        }
    }
    (readings, buckets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Across seals, compaction, retention and restarts, `range_into` and
    /// `buckets` — one positioned read per listed block — return exactly
    /// what decoding every file whole returns.
    #[test]
    fn directory_reads_equal_whole_file_reads(
        ops in prop::collection::vec((0u8..12, 0u32..4, 1usize..4), 1..240),
        segment_max_readings in 4usize..24,
        retention in 0usize..6,
        compact_keep_raw in 0usize..3,
        windows in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..4),
    ) {
        let cfg = EngineConfig {
            segment_max_readings,
            wal_sync_every: 3,
            // 0 and 1 keep everything; 2..6 expire.
            retention_segments: (retention >= 2).then_some(retention),
            compact_keep_raw,
            compact_bucket_ms: 4_000,
        };
        let fs = Arc::new(SimFs::new());
        let open = || {
            PersistentEngine::open(
                Arc::clone(&fs) as Arc<dyn StorageFs>,
                cfg.clone(),
                &MetricsRegistry::disabled(),
            )
            .expect("engine opens over SimFs")
            .0
        };
        let mut engine = open();
        let mut next_ts = [0u64; 4];
        let last = ops.len() - 1;
        for (i, &(op, sensor, n)) in ops.iter().enumerate() {
            match op {
                0 => {
                    engine.compact().expect("clean segments compact");
                }
                1 => {
                    drop(engine);
                    engine = open();
                }
                _ => {
                    let readings: Vec<Reading> = (0..n)
                        .map(|_| {
                            let ts = &mut next_ts[sensor as usize];
                            *ts += 1_000;
                            Reading::new(Timestamp(*ts), 0.1 + *ts as f64 * 0.7)
                        })
                        .collect();
                    engine.append(SensorId(sensor), &readings).expect("SimFs append");
                }
            }
            if op != 2 && i != last {
                continue;
            }
            let horizon = next_ts.iter().max().copied().unwrap_or(0) + 1_000;
            let mut spans = vec![(Timestamp::ZERO, Timestamp::MAX)];
            spans.extend(windows.iter().map(|&(a, b)| {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                (Timestamp((lo * horizon as f64) as u64), Timestamp((hi * horizon as f64) as u64))
            }));
            for sensor in (0..5).map(SensorId) {
                for &(start, end) in &spans {
                    let (want_raw, want_buckets) = whole_file_reference(&fs, sensor, start, end);
                    let mut got = Vec::new();
                    engine.range_into(sensor, start, end, &mut got).expect("clean range read");
                    prop_assert_eq!(reading_bits(&got), reading_bits(&want_raw));
                    let buckets = engine.buckets(sensor, start, end).expect("clean bucket read");
                    prop_assert_eq!(bucket_bits(&buckets), bucket_bits(&want_buckets));
                }
            }
        }
    }
}
