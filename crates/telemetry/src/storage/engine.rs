//! The persistent engine: WAL-fronted segment store with recovery,
//! retention and compaction.
//!
//! Write path: accepted readings arrive a group of records at a time
//! ([`PersistentEngine::append_group`]; a single record is a group of one),
//! are framed into checksummed WAL records ([`super::wal`]), written with
//! one append, and fsync'd at group end once
//! [`EngineConfig::wal_sync_every`] records are unsynced; the same readings
//! accumulate in an in-memory memtable. When the memtable reaches
//! [`EngineConfig::segment_max_readings`], it is **sealed**: encoded as an
//! immutable raw segment ([`super::segment`]), written atomically as
//! `seg-<seq>.seg`, and the WAL is atomically reset to a bare header whose
//! epoch is `seq + 1`.
//!
//! Recovery ([`PersistentEngine::open`]) lists segment files, drops any that
//! fail verification, then reconciles the WAL against the highest durable
//! segment sequence using the epoch (see [`super::wal`] for the three
//! cases: replay, stale-discard, sequence gap). A torn WAL tail is truncated
//! at the last valid record boundary.
//!
//! Read path: every segment's [`segment::BlockDir`] stays in memory, filled
//! from the whole-file decode at open and from the encode at seal and
//! compaction. [`PersistentEngine::range_into`] and
//! [`PersistentEngine::buckets`] prune segments by time, find the sensor's
//! blocks in each by binary search, and fetch each block with one
//! [`StorageFs::read_at`]. A fetched block must have the length and
//! checksum the directory recorded when its file was last verified or
//! written, or the read is an error naming the file; only then is that
//! block decoded. So a damaged block fails the reads that need it and no
//! others. Whole files are read only where every block is needed: open,
//! [`PersistentEngine::compact`] and [`PersistentEngine::replay_into`],
//! each of which verifies the whole file and returns an error naming it.
//!
//! Everything here is deterministic: identical operation sequences over
//! identical [`super::fs::StorageFs`] contents produce byte-identical files,
//! and all timing comes from the injected filesystem's logical clock.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use super::codec;
use super::fs::{FsError, StorageFs};
use super::segment::{self, BlockDir, BlockRef, Segment, SegmentBlocks, SegmentKind};
use super::wal;
use crate::metrics::{Counter, MetricsRegistry};
use crate::reading::{Reading, Timestamp};
use crate::sensor::SensorId;
use crate::store::{RollupBucket, TimeSeriesStore};

/// Tuning knobs for the persistent engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Memtable readings that trigger sealing a segment.
    pub segment_max_readings: usize,
    /// WAL records between fsyncs (1 = sync every append).
    pub wal_sync_every: usize,
    /// Maximum segments retained; `None` keeps everything. When exceeded,
    /// the oldest segments are expired (deleted) and their per-sensor
    /// reading counts are added to the expiry counters surfaced through
    /// health reporting.
    pub retention_segments: Option<usize>,
    /// Number of newest segments kept raw by [`PersistentEngine::compact`];
    /// everything older is folded into rollup-bucket form.
    pub compact_keep_raw: usize,
    /// Bucket width used when compacting raw segments, milliseconds.
    pub compact_bucket_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            segment_max_readings: 4096,
            wal_sync_every: 8,
            retention_segments: None,
            compact_keep_raw: 2,
            compact_bucket_ms: 60_000,
        }
    }
}

/// What [`PersistentEngine::open`] found and did while recovering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Verified segments loaded.
    pub segments_loaded: usize,
    /// Segment files that failed verification and were ignored.
    pub segments_dropped: usize,
    /// WAL records replayed into the memtable.
    pub wal_records_replayed: usize,
    /// Whether a torn WAL tail was truncated.
    pub wal_truncated: bool,
    /// Whether a stale WAL (epoch at or behind the last durable segment)
    /// was discarded, preventing double-replay after a crash between seal
    /// and WAL reset.
    pub wal_discarded_stale: bool,
    /// Whether the WAL epoch implies at least one segment was lost (e.g. a
    /// lying fsync swallowed a seal). The WAL is still replayed.
    pub sequence_gap: bool,
    /// Total readings recovered (segment totals plus replayed WAL records).
    pub readings_recovered: u64,
    /// Logical-clock nanoseconds consumed by recovery I/O.
    pub recovery_clock_ns: u64,
}

#[derive(Debug, Clone)]
struct SegmentMeta {
    seq: u64,
    file: String,
    kind: SegmentKind,
    /// Bucket width of a compacted segment; 0 for a raw one.
    bucket_ms: u64,
    min_ts: Timestamp,
    max_ts: Timestamp,
    total_readings: u64,
    /// Where each block sits, what it hashes to and how many readings it
    /// holds or represents (retention counts come from here).
    blocks: BlockDir,
}

impl SegmentMeta {
    fn of(seg: &Segment, file: String, blocks: BlockDir) -> Self {
        SegmentMeta {
            seq: seg.seq,
            file,
            kind: seg.kind(),
            bucket_ms: seg.bucket_ms,
            min_ts: seg.min_ts(),
            max_ts: seg.max_ts(),
            total_readings: seg.total_readings(),
            blocks,
        }
    }

    /// Whether the segment is of `kind` and may hold data in `[start, end)`:
    /// a reading by its stamp, a bucket by its start, which precedes the
    /// bucket's first reading by up to one bucket width.
    fn serves(&self, kind: SegmentKind, start: Timestamp, end: Timestamp) -> bool {
        let first = match self.kind {
            SegmentKind::Raw => self.min_ts,
            SegmentKind::Compacted => self.min_ts.bucket(self.bucket_ms.max(1)),
        };
        self.kind == kind && self.max_ts >= start && first < end
    }

    /// An error about this segment's file.
    fn err(&self, why: impl std::fmt::Display) -> FsError {
        FsError::Io(format!("{}: {why}", self.file))
    }
}

#[derive(Debug, Default)]
struct EngineState {
    memtable: BTreeMap<SensorId, Vec<Reading>>,
    memtable_len: usize,
    segments: Vec<SegmentMeta>,
    wal_epoch: u64,
    wal_unsynced: usize,
    /// Frames of the WAL write being assembled; kept for its capacity.
    wal_buf: Vec<u8>,
    expired: BTreeMap<SensorId, u64>,
}

/// Append-only segment store with a write-ahead log.
pub struct PersistentEngine {
    fs: Arc<dyn StorageFs>,
    cfg: EngineConfig,
    state: Mutex<EngineState>,
    m_wal_appends: Counter,
    m_wal_syncs: Counter,
    m_seals: Counter,
    m_expired: Counter,
    m_compactions: Counter,
    m_block_reads: Counter,
    m_block_bytes: Counter,
}

impl std::fmt::Debug for PersistentEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("PersistentEngine")
            .field("segments", &st.segments.len())
            .field("memtable_len", &st.memtable_len)
            .field("wal_epoch", &st.wal_epoch)
            .finish()
    }
}

impl PersistentEngine {
    /// Open (or create) a store over `fs`, running recovery.
    pub fn open(
        fs: Arc<dyn StorageFs>,
        cfg: EngineConfig,
        metrics: &MetricsRegistry,
    ) -> Result<(Self, RecoveryReport), FsError> {
        let clock_start = fs.clock_ns();
        let mut report = RecoveryReport::default();
        let mut segments: Vec<SegmentMeta> = Vec::new();
        for name in fs.list()? {
            let Some(seq) = segment::parse_file_name(&name) else {
                continue;
            };
            let decoded = fs
                .read(&name)
                .ok()
                .and_then(|bytes| segment::decode_indexed(&bytes).ok());
            match decoded {
                Some((seg, blocks)) if seg.seq == seq => {
                    segments.push(SegmentMeta::of(&seg, name, blocks))
                }
                _ => report.segments_dropped += 1,
            }
        }
        segments.sort_by_key(|m| m.seq);
        report.segments_loaded = segments.len();
        let max_seq = segments.last().map(|m| m.seq).unwrap_or(0);

        let mut memtable: BTreeMap<SensorId, Vec<Reading>> = BTreeMap::new();
        let mut memtable_len = 0usize;
        let mut wal_epoch = max_seq + 1;
        match fs.read(wal::WAL_FILE) {
            Err(FsError::NotFound(_)) => {
                fs.write_atomic(wal::WAL_FILE, &wal::encode_header(wal_epoch))?;
            }
            Err(e) => return Err(e),
            Ok(bytes) => {
                let rep = wal::replay(&bytes);
                match rep.epoch {
                    None => {
                        // Header unreadable: nothing salvageable; start a
                        // fresh log for the next segment.
                        report.wal_truncated = rep.torn;
                        fs.write_atomic(wal::WAL_FILE, &wal::encode_header(wal_epoch))?;
                    }
                    Some(epoch) if epoch <= max_seq => {
                        // Seal completed but the reset raced the crash: the
                        // records are already inside segment `epoch`.
                        // Discarding them is what prevents double-replay.
                        report.wal_discarded_stale = true;
                        fs.write_atomic(wal::WAL_FILE, &wal::encode_header(wal_epoch))?;
                    }
                    Some(epoch) => {
                        if epoch > max_seq + 1 {
                            report.sequence_gap = true;
                        }
                        wal_epoch = epoch;
                        for (sensor, readings) in rep.records {
                            memtable_len += readings.len();
                            memtable.entry(sensor).or_default().extend(readings);
                            report.wal_records_replayed += 1;
                        }
                        if rep.torn {
                            report.wal_truncated = true;
                            fs.truncate(wal::WAL_FILE, rep.valid_len as u64)?;
                        }
                    }
                }
            }
        }
        report.readings_recovered =
            segments.iter().map(|m| m.total_readings).sum::<u64>() + memtable_len as u64;
        report.recovery_clock_ns = fs.clock_ns().saturating_sub(clock_start);

        let state = EngineState {
            memtable,
            memtable_len,
            segments,
            wal_epoch,
            wal_unsynced: 0,
            wal_buf: Vec::new(),
            expired: BTreeMap::new(),
        };
        let engine = PersistentEngine {
            fs,
            cfg,
            state: Mutex::new(state),
            m_wal_appends: metrics.counter("storage_wal_appends_total", &[]),
            m_wal_syncs: metrics.counter("storage_wal_syncs_total", &[]),
            m_seals: metrics.counter("storage_segments_sealed_total", &[]),
            m_expired: metrics.counter("storage_readings_expired_total", &[]),
            m_compactions: metrics.counter("storage_segments_compacted_total", &[]),
            m_block_reads: metrics.counter("storage_segment_block_reads_total", &[]),
            m_block_bytes: metrics.counter("storage_segment_read_bytes_total", &[]),
        };
        Ok((engine, report))
    }

    /// Durably log and buffer a batch of **accepted** readings for `sensor`:
    /// a one-record [`append_group`](Self::append_group).
    ///
    /// The caller (the storage backend) must pass only readings the hot
    /// store accepted, so durable history and ring history stay identical.
    pub fn append(&self, sensor: SensorId, readings: &[Reading]) -> Result<(), FsError> {
        self.append_group(&[(sensor, readings)])
    }

    /// Durably log and buffer a group of records — one `(sensor, accepted
    /// readings)` pair each — with one WAL write per run of records and at
    /// most one fsync for the whole group.
    ///
    /// Records are framed into one reusable buffer and written with a single
    /// append; the memtable takes them only once that append succeeded. The
    /// run ends early at exactly the record that fills the memtable to
    /// [`EngineConfig::segment_max_readings`], where the segment is sealed
    /// and the next run starts a fresh WAL — so WAL and segment files hold
    /// the same bytes however a record stream is cut into groups. The fsync
    /// is issued at group end if [`EngineConfig::wal_sync_every`] or more
    /// records are then unsynced: on return fewer than that many are, and a
    /// crash inside the call can lose only records of this group.
    pub fn append_group(&self, records: &[(SensorId, &[Reading])]) -> Result<(), FsError> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let seal_at = self.cfg.segment_max_readings.max(1);
        let mut rest = records;
        while !rest.is_empty() {
            let mut room = seal_at.saturating_sub(st.memtable_len);
            let mut run = 0usize;
            let mut logged = 0usize;
            st.wal_buf.clear();
            for (sensor, readings) in rest {
                run += 1;
                if readings.is_empty() {
                    continue;
                }
                wal::encode_record_into(&mut st.wal_buf, *sensor, readings);
                logged += 1;
                room = room.saturating_sub(readings.len());
                if room == 0 {
                    break;
                }
            }
            let (logged_run, tail) = rest.split_at(run);
            rest = tail;
            if logged == 0 {
                continue;
            }
            self.fs.append(wal::WAL_FILE, &st.wal_buf)?;
            self.m_wal_appends.add(logged as u64);
            st.wal_unsynced += logged;
            for (sensor, readings) in logged_run {
                if !readings.is_empty() {
                    st.memtable
                        .entry(*sensor)
                        .or_default()
                        .extend_from_slice(readings);
                    st.memtable_len += readings.len();
                }
            }
            if st.memtable_len >= seal_at {
                self.seal_locked(st)?;
            }
        }
        if st.wal_unsynced >= self.cfg.wal_sync_every.max(1) {
            self.sync_locked(st)?;
        }
        Ok(())
    }

    /// Fsync any WAL records still buffered below the sync interval.
    pub fn flush(&self) -> Result<(), FsError> {
        let mut st = self.state.lock();
        if st.wal_unsynced > 0 {
            self.sync_locked(&mut st)?;
        }
        Ok(())
    }

    fn sync_locked(&self, st: &mut EngineState) -> Result<(), FsError> {
        self.fs.sync(wal::WAL_FILE)?;
        self.m_wal_syncs.inc();
        st.wal_unsynced = 0;
        Ok(())
    }

    fn seal_locked(&self, st: &mut EngineState) -> Result<(), FsError> {
        if st.memtable_len == 0 {
            return Ok(());
        }
        let seq = st.wal_epoch;
        let seg = Segment::raw(seq, std::mem::take(&mut st.memtable).into_iter().collect());
        let (bytes, blocks) = segment::encode_indexed(&seg);
        let name = segment::file_name(seq);
        // Order matters: the segment must be durable before the WAL reset,
        // or a crash in between would lose the records entirely.
        if let Err(e) = self.fs.write_atomic(&name, &bytes) {
            // Not sealed: the readings stay in the memtable (and the WAL).
            if let SegmentBlocks::Raw(sensors) = seg.blocks {
                st.memtable = sensors.into_iter().collect();
            }
            return Err(e);
        }
        st.segments.push(SegmentMeta::of(&seg, name, blocks));
        st.memtable_len = 0;
        st.wal_epoch = seq + 1;
        self.fs
            .write_atomic(wal::WAL_FILE, &wal::encode_header(st.wal_epoch))?;
        st.wal_unsynced = 0;
        self.m_seals.inc();
        self.retain_locked(st)
    }

    fn retain_locked(&self, st: &mut EngineState) -> Result<(), FsError> {
        let Some(keep) = self.cfg.retention_segments else {
            return Ok(());
        };
        while st.segments.len() > keep.max(1) {
            let meta = st.segments.remove(0);
            for b in meta.blocks.iter() {
                *st.expired.entry(b.sensor).or_insert(0) += u64::from(b.count);
            }
            self.m_expired.add(meta.total_readings);
            match self.fs.remove(&meta.file) {
                Ok(()) | Err(FsError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Deterministically fold cold raw segments (all but the newest
    /// [`EngineConfig::compact_keep_raw`]) into rollup-bucket form, rewriting
    /// each file atomically in place under the same sequence number. Returns
    /// the number of segments compacted.
    ///
    /// A cold segment that no longer verifies is an error naming its file,
    /// and its file and directory stay as they were; segments folded
    /// before it stay folded.
    pub fn compact(&self) -> Result<usize, FsError> {
        let mut st = self.state.lock();
        let n = st.segments.len();
        let cold = n.saturating_sub(self.cfg.compact_keep_raw);
        let mut done = 0usize;
        for meta in st.segments.iter_mut().take(cold) {
            if meta.kind == SegmentKind::Compacted {
                continue;
            }
            let seg = self.read_whole(meta)?;
            let folded = segment::compact(&seg, self.cfg.compact_bucket_ms.max(1));
            let (bytes, blocks) = segment::encode_indexed(&folded);
            self.fs.write_atomic(&meta.file, &bytes)?;
            *meta = SegmentMeta::of(&folded, meta.file.clone(), blocks);
            done += 1;
            self.m_compactions.inc();
        }
        Ok(done)
    }

    /// Reads and fully verifies a segment whose every block is needed. A
    /// file that no longer decodes is an error naming it: skipping it would
    /// pass a short archive on as if it were complete.
    fn read_whole(&self, meta: &SegmentMeta) -> Result<Segment, FsError> {
        let bytes = self.fs.read(&meta.file)?;
        segment::decode(&bytes).map_err(|e| meta.err(e))
    }

    /// Reads one block a query needs, checks it against the directory and
    /// decodes it alone. A block whose length or checksum differs from what
    /// was recorded when its file was last verified or written is an error
    /// naming the file.
    fn read_block(&self, meta: &SegmentMeta, block: &BlockRef) -> Result<SegmentBlocks, FsError> {
        let want = block.len as usize;
        let bytes = self.fs.read_at(&meta.file, u64::from(block.offset), want)?;
        self.m_block_reads.inc();
        self.m_block_bytes.add(bytes.len() as u64);
        let bad = |why: String| {
            let (sensor, offset) = (block.sensor.0, block.offset);
            meta.err(format!("block of sensor {sensor} at byte {offset}: {why}"))
        };
        if bytes.len() != want {
            return Err(bad(format!("read {} of {want} bytes", bytes.len())));
        }
        if codec::fnv1a64(&bytes) != block.sum {
            return Err(bad("checksum mismatch".to_string()));
        }
        segment::decode_block(meta.kind, &bytes).map_err(|e| bad(e.to_string()))
    }

    /// Collect raw readings for `sensor` in `[start, end)` from raw segments
    /// and the memtable. Readings that were folded into compacted segments
    /// are no longer individually available (use [`buckets`](Self::buckets)).
    /// Reads only `sensor`'s blocks, one [`StorageFs::read_at`] each.
    pub fn range_into(
        &self,
        sensor: SensorId,
        start: Timestamp,
        end: Timestamp,
        out: &mut Vec<Reading>,
    ) -> Result<(), FsError> {
        let st = self.state.lock();
        for meta in &st.segments {
            if !meta.serves(SegmentKind::Raw, start, end) {
                continue;
            }
            for block in meta.blocks.of(sensor) {
                if let SegmentBlocks::Raw(sensors) = self.read_block(meta, block)? {
                    for (_, readings) in sensors {
                        out.extend(readings.into_iter().filter(|r| r.ts >= start && r.ts < end));
                    }
                }
            }
        }
        if let Some(mem) = st.memtable.get(&sensor) {
            for r in mem {
                if r.ts >= start && r.ts < end {
                    out.push(*r);
                }
            }
        }
        Ok(())
    }

    /// Collect rollup buckets for `sensor` whose start lies in `[start, end)`
    /// from compacted segments, reading only `sensor`'s blocks.
    pub fn buckets(
        &self,
        sensor: SensorId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<RollupBucket>, FsError> {
        let st = self.state.lock();
        let mut out = Vec::new();
        for meta in &st.segments {
            if !meta.serves(SegmentKind::Compacted, start, end) {
                continue;
            }
            for block in meta.blocks.of(sensor) {
                if let SegmentBlocks::Compacted(sensors) = self.read_block(meta, block)? {
                    for (_, buckets) in sensors {
                        out.extend(
                            buckets
                                .into_iter()
                                .filter(|b| b.start >= start && b.start < end),
                        );
                    }
                }
            }
        }
        Ok(out)
    }

    /// Replay the durable archive (raw segments in sequence order, then the
    /// memtable) into a hot store. Per-sensor insertion order equals original
    /// acceptance order, so ring and rollup state come back bit-identical
    /// when the durable history is complete. Returns readings inserted; a
    /// segment that no longer verifies is an error naming its file.
    pub fn replay_into(&self, store: &TimeSeriesStore) -> Result<u64, FsError> {
        let st = self.state.lock();
        let mut n = 0u64;
        for meta in &st.segments {
            if meta.kind != SegmentKind::Raw {
                continue;
            }
            if let SegmentBlocks::Raw(sensors) = self.read_whole(meta)?.blocks {
                for (sensor, readings) in &sensors {
                    n += store.insert_batch(*sensor, readings) as u64;
                }
            }
        }
        for (sensor, readings) in &st.memtable {
            n += store.insert_batch(*sensor, readings) as u64;
        }
        Ok(n)
    }

    /// Total readings durably stored or represented (segments + memtable).
    pub fn durable_len(&self) -> u64 {
        let st = self.state.lock();
        st.segments.iter().map(|m| m.total_readings).sum::<u64>() + st.memtable_len as u64
    }

    /// Readings expired from `sensor` by segment retention.
    pub fn expired_for(&self, sensor: SensorId) -> u64 {
        self.state.lock().expired.get(&sensor).copied().unwrap_or(0)
    }

    /// Number of durable segments, `(raw, compacted)`.
    pub fn segment_counts(&self) -> (usize, usize) {
        let st = self.state.lock();
        let raw = st
            .segments
            .iter()
            .filter(|m| m.kind == SegmentKind::Raw)
            .count();
        (raw, st.segments.len() - raw)
    }

    /// Current WAL epoch (sequence the next seal will use).
    pub fn wal_epoch(&self) -> u64 {
        self.state.lock().wal_epoch
    }

    /// Readings buffered in the memtable (logged but not yet sealed).
    pub fn memtable_len(&self) -> usize {
        self.state.lock().memtable_len
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The filesystem this engine operates over.
    pub fn fs(&self) -> &Arc<dyn StorageFs> {
        &self.fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::fs::SimFs;

    fn reading(ts: u64, v: f64) -> Reading {
        Reading {
            ts: Timestamp(ts),
            value: v,
        }
    }

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            segment_max_readings: 10,
            wal_sync_every: 2,
            ..EngineConfig::default()
        }
    }

    fn open(fs: &Arc<SimFs>, cfg: EngineConfig) -> (PersistentEngine, RecoveryReport) {
        let fs: Arc<dyn StorageFs> = Arc::clone(fs) as Arc<dyn StorageFs>;
        PersistentEngine::open(fs, cfg, &MetricsRegistry::disabled()).unwrap()
    }

    #[test]
    fn fresh_open_creates_wal_with_epoch_one() {
        let fs = Arc::new(SimFs::new());
        let (engine, report) = open(&fs, small_cfg());
        assert_eq!(
            report,
            RecoveryReport {
                recovery_clock_ns: report.recovery_clock_ns,
                ..Default::default()
            }
        );
        assert_eq!(engine.wal_epoch(), 1);
        assert!(fs.exists(wal::WAL_FILE));
    }

    #[test]
    fn seal_rolls_epoch_and_writes_segment() {
        let fs = Arc::new(SimFs::new());
        let (engine, _) = open(&fs, small_cfg());
        for i in 0..10u64 {
            engine
                .append(SensorId(1), &[reading(i * 100, i as f64)])
                .unwrap();
        }
        assert_eq!(engine.segment_counts(), (1, 0));
        assert_eq!(engine.memtable_len(), 0);
        assert_eq!(engine.wal_epoch(), 2);
        assert!(fs.exists(&segment::file_name(1)));
        let mut out = Vec::new();
        engine
            .range_into(SensorId(1), Timestamp::ZERO, Timestamp::MAX, &mut out)
            .unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn unsynced_wal_tail_is_lost_on_crash_but_synced_prefix_survives() {
        let fs = Arc::new(SimFs::new());
        let (engine, _) = open(&fs, small_cfg());
        // wal_sync_every = 2: records 1-4 synced, record 5 pending.
        for i in 0..5u64 {
            engine
                .append(SensorId(1), &[reading(i * 100, i as f64)])
                .unwrap();
        }
        fs.crash();
        let (engine2, report) = open(&fs, small_cfg());
        assert_eq!(report.wal_records_replayed, 4);
        assert!(!report.wal_discarded_stale);
        assert_eq!(engine2.memtable_len(), 4);
    }

    #[test]
    fn stale_wal_after_seal_is_discarded_not_double_replayed() {
        let fs = Arc::new(SimFs::new());
        let (engine, _) = open(&fs, small_cfg());
        for i in 0..10u64 {
            engine
                .append(SensorId(1), &[reading(i * 100, i as f64)])
                .unwrap();
        }
        // Simulate the crash window between segment write and WAL reset by
        // rewriting the WAL with the pre-seal epoch and stale records.
        let mut stale = wal::encode_header(1).to_vec();
        stale.extend_from_slice(&wal::encode_record(SensorId(1), &[reading(0, 0.0)]));
        fs.write_atomic(wal::WAL_FILE, &stale).unwrap();
        drop(engine);
        let (engine2, report) = open(&fs, small_cfg());
        assert!(report.wal_discarded_stale);
        assert_eq!(report.wal_records_replayed, 0);
        assert_eq!(engine2.memtable_len(), 0);
        assert_eq!(report.readings_recovered, 10);
        assert_eq!(engine2.wal_epoch(), 2);
    }

    #[test]
    fn sequence_gap_is_flagged_when_segment_lost() {
        let fs = Arc::new(SimFs::new());
        let (engine, _) = open(&fs, small_cfg());
        for i in 0..10u64 {
            engine
                .append(SensorId(1), &[reading(i * 100, i as f64)])
                .unwrap();
        }
        engine.append(SensorId(1), &[reading(2000, 1.0)]).unwrap();
        engine.flush().unwrap();
        drop(engine);
        // Lose segment 1 entirely: WAL epoch 2 now exceeds max_seq + 1.
        fs.remove(&segment::file_name(1)).unwrap();
        let (engine2, report) = open(&fs, small_cfg());
        assert!(report.sequence_gap);
        assert_eq!(report.wal_records_replayed, 1);
        assert_eq!(engine2.wal_epoch(), 2);
    }

    #[test]
    fn retention_expires_oldest_and_counts_per_sensor() {
        let fs = Arc::new(SimFs::new());
        let cfg = EngineConfig {
            retention_segments: Some(2),
            ..small_cfg()
        };
        let (engine, _) = open(&fs, cfg);
        for i in 0..40u64 {
            engine
                .append(SensorId(i as u32 % 2), &[reading(i * 100, i as f64)])
                .unwrap();
        }
        assert_eq!(engine.segment_counts().0, 2);
        assert_eq!(engine.expired_for(SensorId(0)), 10);
        assert_eq!(engine.expired_for(SensorId(1)), 10);
        assert!(!fs.exists(&segment::file_name(1)));
    }

    #[test]
    fn compaction_folds_cold_segments_and_preserves_counts() {
        let fs = Arc::new(SimFs::new());
        let (engine, _) = open(&fs, small_cfg());
        for i in 0..40u64 {
            engine
                .append(SensorId(1), &[reading(i * 100, i as f64)])
                .unwrap();
        }
        assert_eq!(engine.segment_counts(), (4, 0));
        let before = engine.durable_len();
        let done = engine.compact().unwrap();
        assert_eq!(done, 2); // keep_raw = 2
        assert_eq!(engine.segment_counts(), (2, 2));
        assert_eq!(engine.durable_len(), before);
        // Compacted data served as buckets, not raw readings.
        let buckets = engine
            .buckets(SensorId(1), Timestamp::ZERO, Timestamp::MAX)
            .unwrap();
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 20);
        // Idempotent.
        assert_eq!(engine.compact().unwrap(), 0);
    }

    /// Counts whole-file and positioned reads on their way to a [`SimFs`].
    #[derive(Default)]
    struct CountingFs {
        inner: SimFs,
        reads: std::sync::atomic::AtomicU64,
        read_ats: std::sync::atomic::AtomicU64,
    }

    impl CountingFs {
        fn counts(&self) -> (u64, u64) {
            use std::sync::atomic::Ordering::Relaxed;
            (self.reads.load(Relaxed), self.read_ats.load(Relaxed))
        }
    }

    impl StorageFs for CountingFs {
        fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.inner.append(path, bytes)
        }
        fn sync(&self, path: &str) -> Result<(), FsError> {
            self.inner.sync(path)
        }
        fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
            self.reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.read(path)
        }
        fn read_at(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
            self.read_ats
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.read_at(path, offset, len)
        }
        fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.inner.write_atomic(path, bytes)
        }
        fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
            self.inner.truncate(path, len)
        }
        fn remove(&self, path: &str) -> Result<(), FsError> {
            self.inner.remove(path)
        }
        fn list(&self) -> Result<Vec<String>, FsError> {
            self.inner.list()
        }
        fn clock_ns(&self) -> u64 {
            self.inner.clock_ns()
        }
    }

    /// `(block reads, block bytes)` so far.
    fn block_counters(metrics: &MetricsRegistry) -> (u64, u64) {
        let snap = metrics.snapshot();
        let get = |name| snap.counter(name).unwrap_or(0);
        (
            get("storage_segment_block_reads_total"),
            get("storage_segment_read_bytes_total"),
        )
    }

    #[test]
    fn queries_read_one_block_per_segment_and_count_it() {
        let fs = Arc::new(CountingFs::default());
        let metrics = MetricsRegistry::new();
        let (engine, _) =
            PersistentEngine::open(Arc::clone(&fs) as Arc<dyn StorageFs>, small_cfg(), &metrics)
                .unwrap();
        // Three sensors interleaved: every one of six segments holds all three.
        for i in 0..60u64 {
            engine
                .append(SensorId(i as u32 % 3), &[reading(i * 100, i as f64)])
                .unwrap();
        }
        assert_eq!(engine.segment_counts(), (6, 0));
        let listed = |sensor: SensorId| -> (u64, u64) {
            let st = engine.state.lock();
            let blocks = st.segments.iter().flat_map(|m| m.blocks.of(sensor));
            blocks.fold((0, 0), |(n, bytes), b| (n + 1, bytes + u64::from(b.len)))
        };
        let file_bytes: u64 = (1..=6)
            .map(|seq| fs.inner.read(&segment::file_name(seq)).unwrap().len() as u64)
            .sum();

        let (reads, read_ats) = fs.counts();
        let before = block_counters(&metrics);
        let mut out = Vec::new();
        engine
            .range_into(SensorId(1), Timestamp::ZERO, Timestamp::MAX, &mut out)
            .unwrap();
        assert_eq!(out.len(), 20);
        let (n, bytes) = listed(SensorId(1));
        assert_eq!(n, 6, "one block per segment");
        let after = block_counters(&metrics);
        assert_eq!((after.0 - before.0, after.1 - before.1), (n, bytes));
        assert!(bytes * 2 < file_bytes, "{bytes} of {file_bytes} file bytes");
        assert_eq!(fs.counts(), (reads, read_ats + n), "no whole-file read");

        // An absent sensor costs nothing; a window pruned by time neither.
        engine
            .range_into(SensorId(9), Timestamp::ZERO, Timestamp::MAX, &mut out)
            .unwrap();
        engine
            .range_into(SensorId(1), Timestamp(10_000), Timestamp::MAX, &mut out)
            .unwrap();
        assert_eq!(block_counters(&metrics), after);

        // Buckets read the same way from the folded segments.
        assert_eq!(engine.compact().unwrap(), 4);
        let (reads, read_ats) = fs.counts();
        let buckets = engine
            .buckets(SensorId(2), Timestamp::ZERO, Timestamp::MAX)
            .unwrap();
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 13);
        assert_eq!(fs.counts(), (reads, read_ats + 4));
        assert_eq!(block_counters(&metrics).0, after.0 + 4);
    }

    /// A compacted segment is pruned by its first bucket's start, not its
    /// first reading: the bucket [4000, 8000) holding readings at 7500 and
    /// 7600 starts inside [0, 6000). (Before, it was pruned away.)
    #[test]
    fn a_bucket_starting_before_its_first_reading_is_not_pruned() {
        let fs = Arc::new(SimFs::new());
        let cfg = EngineConfig {
            segment_max_readings: 2,
            compact_keep_raw: 0,
            compact_bucket_ms: 4_000,
            ..small_cfg()
        };
        let (engine, _) = open(&fs, cfg);
        engine
            .append(SensorId(1), &[reading(7_500, 1.0), reading(7_600, 2.0)])
            .unwrap();
        assert_eq!(engine.compact().unwrap(), 1);
        let starts = |start: u64, end: u64| -> Vec<u64> {
            let got = engine.buckets(SensorId(1), Timestamp(start), Timestamp(end));
            got.unwrap().iter().map(|b| b.start.0).collect()
        };
        assert_eq!(starts(0, 6_000), vec![4_000]);
        assert_eq!(starts(0, 4_000), Vec::<u64>::new());
        assert_eq!(starts(4_001, 9_000), Vec::<u64>::new());
    }

    /// Overwrites `file` with a copy that has one bit flipped mid-file.
    fn rot(fs: &SimFs, file: &str) -> Vec<u8> {
        let mut bytes = fs.read(file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs.write_atomic(file, &bytes).unwrap();
        bytes
    }

    #[test]
    fn compact_fails_on_a_segment_that_no_longer_verifies_and_leaves_it_alone() {
        let fs = Arc::new(SimFs::new());
        let (engine, _) = open(&fs, small_cfg());
        for i in 0..40u64 {
            engine
                .append(SensorId(1), &[reading(i * 100, i as f64)])
                .unwrap();
        }
        let bad = segment::file_name(2);
        let rotten = rot(&fs, &bad);
        let err = engine.compact().unwrap_err();
        assert!(
            matches!(&err, FsError::Io(msg) if msg.starts_with(&bad)),
            "the error names the file: {err}"
        );
        // Segment 1 folded before the failure; segment 2 is untouched.
        assert_eq!(engine.segment_counts(), (3, 1));
        assert_eq!(fs.read(&bad).unwrap(), rotten);
        assert_eq!(engine.durable_len(), 40);
    }

    #[test]
    fn replay_into_fails_on_a_segment_that_no_longer_verifies() {
        let fs = Arc::new(SimFs::new());
        let (engine, _) = open(&fs, small_cfg());
        for i in 0..25u64 {
            engine
                .append(SensorId(2), &[reading(i * 100, i as f64)])
                .unwrap();
        }
        let bad = segment::file_name(1);
        rot(&fs, &bad);
        let err = engine
            .replay_into(&TimeSeriesStore::with_capacity(64))
            .unwrap_err();
        assert!(
            matches!(&err, FsError::Io(msg) if msg.starts_with(&bad)),
            "the error names the file: {err}"
        );
    }

    #[test]
    fn replay_into_rebuilds_store_identically() {
        let fs = Arc::new(SimFs::new());
        let (engine, _) = open(&fs, small_cfg());
        let reference = TimeSeriesStore::with_capacity(1024);
        for i in 0..25u64 {
            let r = reading(i * 100, (i % 5) as f64);
            engine.append(SensorId(2), &[r]).unwrap();
            reference.insert_batch(SensorId(2), &[r]);
        }
        let recovered = TimeSeriesStore::with_capacity(1024);
        assert_eq!(engine.replay_into(&recovered).unwrap(), 25);
        let a = reference.range(SensorId(2), Timestamp::ZERO, Timestamp::MAX);
        let b = recovered.range(SensorId(2), Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.ts, y.ts);
            assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }
}
