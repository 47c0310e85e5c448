//! Crash-recovery integration suite for the durable storage engine.
//!
//! Each test kills the archive at a different point of the WAL / segment
//! lifecycle (unsynced tail, synced prefix, torn final record, lying fsync,
//! crash between seal and WAL reset, crash mid-compaction), reopens it over
//! the surviving bytes, and asserts the recovered archive is **bit-identical
//! to a reference in-memory store fed exactly the durable prefix** — the
//! recovery contract from DESIGN.md §12. The group-commit tests at the end
//! hold the same contract at the call boundary: a crash can cost the group
//! in flight, torn at any byte, and nothing an earlier call returned from
//! beyond the sync interval. A regression test pins the
//! eviction-attribution bugfix: a reading overwritten in the hot ring but
//! still durable is not "evicted" and must be counted at most once, when
//! segment retention actually expires it.

use hpc_oda::telemetry::prelude::*;
use hpc_oda::telemetry::reading::ReadingBatch;
use hpc_oda::telemetry::storage::wal;
use std::sync::Arc;

/// Deterministic finite readings with non-dyadic values, so any bit-level
/// corruption of a recovered value breaks equality.
fn reading(i: u64) -> Reading {
    Reading::new(Timestamp::from_millis(i * 1_000), 0.1 + i as f64 * 0.3)
}

fn readings(n: u64) -> Vec<Reading> {
    (0..n).map(reading).collect()
}

/// Reference in-memory store fed `prefix` for `sensor` — what a loss-free
/// archive holding exactly the durable prefix looks like.
fn reference_store(sensor: SensorId, prefix: &[Reading]) -> TimeSeriesStore {
    let store = TimeSeriesStore::with_capacity(1_024);
    assert_eq!(store.insert_batch(sensor, prefix), prefix.len());
    store
}

/// Bit-identical comparison of one sensor's full history across two stores:
/// same readings, same order, same timestamp and value *bits*.
fn assert_bit_identical(got: &TimeSeriesStore, want: &TimeSeriesStore, sensor: SensorId) {
    let g = got.range(sensor, Timestamp::ZERO, Timestamp::MAX);
    let w = want.range(sensor, Timestamp::ZERO, Timestamp::MAX);
    assert_eq!(g, w, "recovered archive diverges from the reference store");
    let bits = |rs: &[Reading]| -> Vec<(u64, u64)> {
        rs.iter().map(|r| (r.ts.0, r.value.to_bits())).collect()
    };
    assert_eq!(
        bits(&g),
        bits(&w),
        "recovered values differ at the bit level"
    );
    assert_eq!(got.series_len(sensor), want.series_len(sensor));
}

fn engine_over(fs: &Arc<SimFs>, cfg: EngineConfig) -> (PersistentEngine, RecoveryReport) {
    PersistentEngine::open(
        Arc::clone(fs) as Arc<dyn StorageFs>,
        cfg,
        &MetricsRegistry::new(),
    )
    .expect("engine opens over SimFs")
}

fn backend_over(
    fs: &Arc<SimFs>,
    kind: BackendKind,
    engine: EngineConfig,
    capacity: usize,
) -> Arc<dyn StorageBackend> {
    let cfg = StorageConfig {
        backend: kind,
        engine,
    };
    let store = Arc::new(TimeSeriesStore::with_capacity(capacity));
    open_backend(&cfg, Arc::clone(fs) as Arc<dyn StorageFs>, store)
        .expect("backend opens over SimFs")
}

const S: SensorId = SensorId(1);

#[test]
fn crash_with_unsynced_tail_recovers_exactly_the_synced_prefix() {
    let fs = Arc::new(SimFs::new());
    let cfg = EngineConfig {
        wal_sync_every: 4,
        ..EngineConfig::default()
    };
    let all = readings(10);
    {
        let backend = backend_over(&fs, BackendKind::Persistent, cfg.clone(), 1_024);
        for r in &all {
            backend.insert_batch(S, std::slice::from_ref(r));
        }
        // No flush: records 9 and 10 sit behind the last group sync.
    }
    fs.crash();
    let backend = backend_over(&fs, BackendKind::Persistent, cfg, 1_024);
    let rec = backend
        .recovery()
        .expect("durable backend reports recovery");
    assert_eq!(
        rec.readings_recovered, 8,
        "durable prefix is the two synced groups"
    );
    assert!(
        !rec.wal_truncated,
        "a clean crash loses whole records, not bytes"
    );
    assert_bit_identical(backend.store(), &reference_store(S, &all[..8]), S);
}

#[test]
fn flushed_archive_recovers_bit_identical_across_segments_and_wal_tail() {
    let fs = Arc::new(SimFs::new());
    // Small segments so recovery crosses sealed segments *and* a WAL tail.
    let cfg = EngineConfig {
        segment_max_readings: 8,
        wal_sync_every: 1,
        ..EngineConfig::default()
    };
    let all = readings(21); // 2 sealed segments + 5 readings in the WAL
    {
        let backend = backend_over(&fs, BackendKind::Persistent, cfg.clone(), 1_024);
        for r in &all {
            backend.insert_batch(S, std::slice::from_ref(r));
        }
        backend.flush().unwrap();
    }
    fs.crash();
    let backend = backend_over(&fs, BackendKind::Persistent, cfg, 1_024);
    let rec = backend.recovery().unwrap();
    assert_eq!(rec.segments_loaded, 2);
    assert_eq!(rec.wal_records_replayed, 5);
    assert_eq!(rec.readings_recovered, 21);
    assert_bit_identical(backend.store(), &reference_store(S, &all), S);
    assert_eq!(backend.durable_len(), 21);
}

#[test]
fn torn_final_record_is_truncated_not_propagated() {
    let fs = Arc::new(SimFs::new());
    // Buffer everything: three appended records, none synced.
    let cfg = EngineConfig {
        wal_sync_every: 100,
        ..EngineConfig::default()
    };
    let all = readings(3);
    {
        let engine = engine_over(&fs, cfg.clone()).0;
        for r in &all {
            engine.append(S, std::slice::from_ref(r)).unwrap();
        }
    }
    // One single-reading WAL record is 36 bytes (len 4 + payload 24 +
    // checksum 8). Keep record 1 whole and 10 bytes of record 2: a torn
    // page write.
    fs.crash_torn(36 + 10);
    let (engine, rec) = engine_over(&fs, cfg.clone());
    assert!(rec.wal_truncated, "the torn tail must be detected");
    assert_eq!(rec.wal_records_replayed, 1);
    assert_eq!(
        rec.readings_recovered, 1,
        "only the checksummed prefix survives"
    );
    // The truncated WAL stays writable: new appends land after the valid
    // prefix and a further clean reopen sees prefix + new data, in order.
    let more = [reading(10), reading(11)];
    engine.append(S, &more).unwrap();
    engine.flush().unwrap();
    drop(engine);
    fs.crash();
    let (engine, rec) = engine_over(&fs, cfg);
    assert!(!rec.wal_truncated);
    assert_eq!(rec.readings_recovered, 3);
    let mut got = Vec::new();
    engine
        .range_into(S, Timestamp::ZERO, Timestamp::MAX, &mut got)
        .unwrap();
    assert_eq!(got, vec![all[0], more[0], more[1]]);
}

#[test]
fn stale_wal_epoch_is_discarded_so_a_sealed_segment_never_replays_twice() {
    let fs = Arc::new(SimFs::new());
    let cfg = EngineConfig {
        segment_max_readings: 4,
        wal_sync_every: 1,
        ..EngineConfig::default()
    };
    let all = readings(4);
    {
        let engine = engine_over(&fs, cfg.clone()).0;
        engine.append(S, &all).unwrap(); // fills the memtable: seals seq 1
        assert_eq!(engine.memtable_len(), 0, "seal must have fired");
        assert_eq!(engine.wal_epoch(), 2);
    }
    // Model a crash *between* segment seal and WAL reset: the durable
    // segment (epoch 1's data) exists, but the disk still holds the
    // pre-seal WAL with epoch 1 and the same four readings.
    let mut stale = wal::encode_header(1).to_vec();
    stale.extend_from_slice(&wal::encode_record(S, &all));
    fs.write_atomic(wal::WAL_FILE, &stale).unwrap();
    let (engine, rec) = engine_over(&fs, cfg);
    assert!(
        rec.wal_discarded_stale,
        "epoch guard must reject the stale WAL"
    );
    assert_eq!(rec.wal_records_replayed, 0);
    assert_eq!(
        rec.readings_recovered, 4,
        "the four readings come from the segment exactly once"
    );
    let mut got = Vec::new();
    engine
        .range_into(S, Timestamp::ZERO, Timestamp::MAX, &mut got)
        .unwrap();
    assert_eq!(got, all, "no duplicate replay of the sealed batch");
}

#[test]
fn lying_fsync_loses_a_suffix_but_the_recovered_prefix_is_consistent() {
    let fs = Arc::new(SimFs::new());
    let cfg = EngineConfig {
        wal_sync_every: 2,
        ..EngineConfig::default()
    };
    let all = readings(10);
    {
        let backend = backend_over(&fs, BackendKind::Persistent, cfg.clone(), 1_024);
        for (i, r) in all.iter().enumerate() {
            if i == 6 {
                // Every durability point from here on lies: it reports
                // success but persists nothing.
                fs.lose_next_syncs(u32::MAX);
            }
            backend.insert_batch(S, std::slice::from_ref(r));
        }
        backend.flush().unwrap(); // also swallowed
    }
    fs.crash();
    let backend = backend_over(&fs, BackendKind::Persistent, cfg, 1_024);
    let rec = backend.recovery().unwrap();
    assert_eq!(
        rec.readings_recovered, 6,
        "recovery yields the last honestly-synced prefix"
    );
    assert_bit_identical(backend.store(), &reference_store(S, &all[..6]), S);
}

#[test]
fn crash_mid_compaction_leaves_raw_segments_intact() {
    let fs = Arc::new(SimFs::new());
    let cfg = EngineConfig {
        segment_max_readings: 4,
        wal_sync_every: 1,
        compact_keep_raw: 2,
        compact_bucket_ms: 2_000,
        ..EngineConfig::default()
    };
    let all = readings(16); // 4 sealed segments, 2 of them cold
    let engine = engine_over(&fs, cfg.clone()).0;
    for chunk in all.chunks(4) {
        engine.append(S, chunk).unwrap();
    }
    assert_eq!(engine.segment_counts(), (4, 0));
    // The compacted rewrite of the first cold segment hits a lying fsync;
    // the second lands durably. Power cut.
    fs.lose_next_syncs(1);
    assert_eq!(engine.compact().unwrap(), 2);
    drop(engine);
    fs.crash();
    let (engine, rec) = engine_over(&fs, cfg);
    assert_eq!(rec.segments_loaded, 4, "every segment file still verifies");
    assert_eq!(rec.segments_dropped, 0);
    // Segment 1 reverted to its raw pre-compaction bytes; segment 2 kept
    // its durable compacted form. Nothing was lost either way.
    assert_eq!(engine.segment_counts(), (3, 1));
    assert_eq!(rec.readings_recovered, 16);
    assert_eq!(engine.durable_len(), 16);
    // The reverted raw segment still serves raw readings; the compacted
    // one serves its buckets, which fold the same four readings.
    let mut raw = Vec::new();
    engine
        .range_into(S, Timestamp::ZERO, Timestamp::MAX, &mut raw)
        .unwrap();
    assert_eq!(
        raw[..4],
        all[..4],
        "reverted segment serves its original readings"
    );
    let buckets = engine
        .buckets(S, Timestamp::ZERO, Timestamp::MAX)
        .expect("compacted segment serves buckets");
    let folded: u64 = buckets.iter().map(|b| b.count).sum();
    assert_eq!(
        folded, 4,
        "the durable compacted segment folds its 4 readings"
    );
}

#[test]
fn ring_overwrite_of_durable_data_is_not_eviction_and_expiry_counts_once() {
    let fs = Arc::new(SimFs::new());
    let cfg = EngineConfig {
        segment_max_readings: 4,
        wal_sync_every: 1,
        retention_segments: Some(2),
        ..EngineConfig::default()
    };
    // Tiny ring: 32 readings overwrite 28 slots while all of them flow to
    // segments; retention keeps the newest 2 segments (8 readings) and
    // expires 6 (24 readings).
    let backend = backend_over(&fs, BackendKind::Persistent, cfg, 4);
    for r in readings(32) {
        backend.insert_batch(S, &[r]);
    }
    let ring_evicted = backend.store().sensor_health(S).unwrap().evicted;
    assert_eq!(ring_evicted, 28, "the ring itself overwrote 28 slots");
    let report = backend.health_report();
    let archived_evicted = report.sensor(S).unwrap().evicted;
    // Regression: the archive-level count is retention expiry alone — not
    // the ring overwrites (28), and not ring + expiry double-counted (52).
    assert_eq!(archived_evicted, 24);
    assert_eq!(report.total_evicted(), 24);
    assert_eq!(backend.durable_len(), 8);
}

// ----- group commit ----------------------------------------------------------

/// `n` single-reading batches for `S`, continuing the stream at `from`.
fn group(from: u64, n: u64) -> Vec<ReadingBatch> {
    (from..from + n)
        .map(|i| ReadingBatch::single(S, reading(i)))
        .collect()
}

/// One single-reading engine record for `S` per reading.
fn one_reading_records(readings: &[Reading]) -> Vec<(SensorId, &[Reading])> {
    readings
        .iter()
        .map(|r| (S, std::slice::from_ref(r)))
        .collect()
}

#[test]
fn crash_before_a_groups_sync_loses_only_that_group() {
    let fs = Arc::new(SimFs::new());
    let cfg = EngineConfig {
        wal_sync_every: 4,
        ..EngineConfig::default()
    };
    {
        let backend = backend_over(&fs, BackendKind::Persistent, cfg.clone(), 1_024);
        assert_eq!(backend.insert_many(&group(0, 6)), 6); // one write, one sync
        assert_eq!(fs.sync_count(), 2, "the WAL header, then the group");
        // The second group's bytes land but its fsync fails, which is where
        // a power cut between write and sync leaves the disk.
        fs.fail_next_syncs(1);
        assert_eq!(backend.insert_many(&group(6, 5)), 5);
        assert_eq!(backend.store().series_len(S), 11, "the hot ring has both");
    }
    fs.crash();
    let backend = backend_over(&fs, BackendKind::Persistent, cfg, 1_024);
    let rec = backend.recovery().unwrap();
    assert_eq!(
        rec.readings_recovered, 6,
        "the unsynced group is gone, whole"
    );
    assert!(!rec.wal_truncated);
    assert_bit_identical(backend.store(), &reference_store(S, &readings(6)), S);
}

#[test]
fn a_group_torn_at_any_byte_recovers_a_whole_record_prefix_and_stays_writable() {
    // Never reaches the sync interval, so the second group is on disk only
    // as far as the tear lets it be.
    let cfg = EngineConfig {
        wal_sync_every: 100,
        ..EngineConfig::default()
    };
    const RECORD: usize = 36; // len 4 + payload 24 + checksum 8
    let torn_group = 5u64;
    for keep in 0..=torn_group as usize * RECORD {
        let fs = Arc::new(SimFs::new());
        {
            let engine = engine_over(&fs, cfg.clone()).0;
            let stream = readings(3 + torn_group);
            let (first, second) = stream.split_at(3);
            engine.append_group(&one_reading_records(first)).unwrap();
            engine.flush().unwrap();
            engine.append_group(&one_reading_records(second)).unwrap();
        }
        fs.crash_torn(keep);
        let whole = (keep / RECORD) as u64;
        let (engine, rec) = engine_over(&fs, cfg.clone());
        assert_eq!(rec.readings_recovered, 3 + whole, "keep {keep}");
        assert_eq!(rec.wal_truncated, keep % RECORD != 0, "keep {keep}");
        assert_eq!(
            fs.durable_len(wal::WAL_FILE),
            Some(wal::WAL_HEADER_LEN + (3 + whole as usize) * RECORD),
            "keep {keep}: the tail is cut at the last whole record"
        );
        // Writable afterwards: a new group lands behind the valid prefix.
        let more = [reading(100), reading(101)];
        engine.append_group(&[(S, &more)]).unwrap();
        engine.flush().unwrap();
        drop(engine);
        fs.crash();
        let (engine, rec) = engine_over(&fs, cfg.clone());
        assert!(!rec.wal_truncated, "keep {keep}");
        let mut got = Vec::new();
        engine
            .range_into(S, Timestamp::ZERO, Timestamp::MAX, &mut got)
            .unwrap();
        let mut want = readings(3 + whole);
        want.extend(more);
        assert_eq!(got, want, "keep {keep}");
    }
}

#[test]
fn after_any_returned_call_fewer_than_the_sync_interval_are_missing() {
    let cfg = EngineConfig {
        segment_max_readings: 16,
        wal_sync_every: 4,
        ..EngineConfig::default()
    };
    let sizes = [1u64, 2, 3, 5, 1, 1, 9, 2, 1, 30, 3];
    for calls in 1..=sizes.len() {
        let fs = Arc::new(SimFs::new());
        let mut offered = 0;
        {
            let backend = backend_over(&fs, BackendKind::Persistent, cfg.clone(), 1_024);
            for &n in &sizes[..calls] {
                backend.insert_many(&group(offered, n));
                offered += n;
            }
        }
        fs.crash();
        let backend = backend_over(&fs, BackendKind::Persistent, cfg.clone(), 1_024);
        let kept = backend.recovery().unwrap().readings_recovered;
        assert!(
            kept <= offered && offered - kept < 4,
            "{calls} calls: {kept} of {offered} survived"
        );
        assert_bit_identical(backend.store(), &reference_store(S, &readings(kept)), S);
    }
}

// ----- backend parity --------------------------------------------------------

/// FNV-1a over every reading `backend` serves for `sensors`, sensor-major in
/// id order: two archives digest equal iff their visible content is
/// bit-identical.
fn archive_digest(backend: &dyn StorageBackend, sensors: u32) -> u64 {
    let mut bytes = Vec::new();
    for id in (0..sensors).map(SensorId) {
        bytes.extend_from_slice(&id.0.to_le_bytes());
        for r in backend.range(id, Timestamp::ZERO, Timestamp::MAX) {
            bytes.extend_from_slice(&r.ts.0.to_le_bytes());
            bytes.extend_from_slice(&r.value.to_bits().to_le_bytes());
        }
    }
    hpc_oda::telemetry::hash::fnv1a64(&bytes)
}

/// The two backends hold one archive: the same grouped workload digests
/// identically through each, the durable one persists every reading and
/// recovers it bit-identically across a crash, and the in-memory one
/// persists and recovers nothing.
#[test]
fn every_backend_serves_one_archive_and_the_durable_ones_recover_it() {
    const SENSORS: u32 = 8;
    const ROUNDS: u64 = 40;
    const PER_BATCH: u64 = 4;
    const TOTAL: u64 = SENSORS as u64 * ROUNDS * PER_BATCH;
    let per_sensor = (ROUNDS * PER_BATCH) as usize;
    // Small segments, so recovery crosses sealed segments and a WAL tail.
    let cfg = EngineConfig {
        segment_max_readings: 256,
        ..EngineConfig::default()
    };
    let mut served = Vec::new();
    for kind in [BackendKind::InMemory, BackendKind::Persistent] {
        let fs = Arc::new(SimFs::new());
        let (before, durable) = {
            let backend = backend_over(&fs, kind, cfg.clone(), per_sensor);
            // One group per round, the way a site hands over a tick.
            for round in 0..ROUNDS {
                let tick: Vec<ReadingBatch> = (0..SENSORS)
                    .map(|s| ReadingBatch {
                        sensor: SensorId(s),
                        readings: (0..PER_BATCH)
                            .map(|k| {
                                let seq = round * PER_BATCH + k;
                                let value = (u64::from(s) * 100_000 + seq) as f64 * 0.5;
                                Reading::new(Timestamp::from_millis(seq * 1_000), value)
                            })
                            .collect(),
                    })
                    .collect();
                assert_eq!(backend.insert_many(&tick), tick.len() * PER_BATCH as usize);
            }
            backend.flush().unwrap();
            for s in 0..SENSORS {
                let all = backend.range(SensorId(s), Timestamp::ZERO, Timestamp::MAX);
                assert_eq!(all.len(), per_sensor, "{kind:?} serves the whole history");
            }
            (
                archive_digest(backend.as_ref(), SENSORS),
                backend.durable_len(),
            )
        };
        fs.crash();
        let reopened = backend_over(&fs, kind, cfg.clone(), per_sensor);
        let recovered = reopened.recovery().map_or(0, |r| r.readings_recovered);
        let after = archive_digest(reopened.as_ref(), SENSORS);
        if kind == BackendKind::InMemory {
            assert_eq!((durable, recovered), (0, 0));
            assert_ne!(after, before, "in-memory content must not survive");
        } else {
            assert_eq!((durable, recovered), (TOTAL, TOTAL), "{kind:?}");
            assert_eq!(after, before, "{kind:?} recovered different content");
        }
        served.push(before);
    }
    assert!(
        served.windows(2).all(|w| w[0] == w[1]),
        "backends served different archives: {served:x?}"
    );
}
