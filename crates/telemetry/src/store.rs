//! The in-memory time-series archive.
//!
//! Production ODA stacks archive near-real-time data in a write-optimised
//! store and serve analytical reads from it. This module provides an
//! in-memory equivalent with the same access pattern:
//!
//! * **writes** are appends of monotonically-timestamped readings to one
//!   sensor's series;
//! * **reads** are contiguous time-range scans of one or more series.
//!
//! Each sensor owns a fixed-capacity **ring buffer**: once full, the oldest
//! readings are overwritten. This matches the "retain the recent operational
//! window, downsample/export for long-term archival" policy of real
//! deployments and gives O(1) ingest with zero steady-state allocation.
//!
//! The store is sharded: sensor ids map round-robin onto `N` shards, each
//! behind its own `parking_lot::RwLock`, so concurrent collectors writing
//! disjoint sensors rarely contend. The shard count is fixed at construction.
//!
//! ## Multi-resolution rollup tiers
//!
//! Alongside its raw ring buffer, each sensor maintains a small set of
//! fixed-width **rollup tiers** (by default 10 s / 1 min / 10 min buckets,
//! see [`RollupConfig`]). Every accepted reading folds into the open bucket
//! of every tier in O(1); each tier keeps a bounded ring of buckets, so
//! memory stays fixed. A [`RollupBucket`] stores `count/sum/min/max` plus
//! the first/last values and timestamps of its bucket — enough to answer
//! the decomposable aggregations (`Mean`/`Min`/`Max`/`Sum`/`Count`/
//! `First`/`Last`) *exactly* without touching raw readings. The query
//! planner ([`crate::query`]) consults the tiers through
//! `TimeSeriesStore::read_window`, which hands it summary buckets for the
//! aligned core of a range and raw readings for the unaligned edges — all
//! borrowed under one shard lock, with eviction horizons respected so a
//! tier never answers about data the raw buffer no longer retains (tier
//! answers are therefore always identical to a raw rescan). Readings
//! rejected at the door (non-finite, out-of-order) never reach any tier.
//!
//! ## Finding a window
//!
//! A pass reads each sensor's window after ingest has pushed the rings out
//! of cache, so every key a search reads is a cache miss of its own. Both
//! the ring and the tiers therefore find a bound with one routine,
//! `lower_bound`: it starts from an interpolation guess (linear between
//! the ring's oldest and newest timestamps; `(t − front.start) / width`
//! for a tier), gallops outward in doubling steps until it has bracketed
//! the bound, and binary-searches the bracket. On regularly sampled series
//! the guess is exact or one off, so a bound costs two or three probes
//! instead of a binary search's twelve over a 4 096-reading ring; on
//! adversarial spacing it costs at most 2⌈log₂ n⌉ + 2. The answer is the
//! one a plain binary search gives, by construction. Windows come back as
//! [`Slices`] — the two contiguous runs either side of the ring's wrap
//! point — so a read copies nothing it does not have to.

use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::query::QueryInstruments;
use crate::reading::{Reading, Timestamp};
use crate::sensor::SensorId;
use parking_lot::RwLock;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// A window of a ring, borrowed as its two contiguous runs: the first holds
/// the older elements, and either may be empty — the shape of
/// [`VecDeque::as_slices`]. Read as one sequence, the runs are sorted by
/// timestamp.
pub type Slices<'a, T> = (&'a [T], &'a [T]);

/// Element `i` of `runs` read as one sequence (`i` must be in bounds).
#[inline]
pub(crate) fn nth<T>((older, newer): Slices<'_, T>, i: usize) -> &T {
    if i < older.len() {
        &older[i]
    } else {
        &newer[i - older.len()]
    }
}

/// Elements `lo..hi` of `runs` read as one sequence, again as two runs
/// (`lo <= hi <= len` is the caller's).
#[inline]
pub(crate) fn sub<T>((older, newer): Slices<'_, T>, lo: usize, hi: usize) -> Slices<'_, T> {
    let n = older.len();
    (
        &older[lo.min(n)..hi.min(n)],
        &newer[lo.saturating_sub(n)..hi.saturating_sub(n)],
    )
}

/// First index in `0..len` whose element is not `below`, for a `below`
/// that holds on a prefix — the index a plain binary search returns.
///
/// Starts at `guess` (clamped to `len`), the caller's interpolation of
/// where the bound lies; gallops away from it in doubling steps until the
/// bound is bracketed; then binary-searches the bracket. A guess `d` off
/// the bound costs about 2⌈log₂ d⌉ + 2 calls of `below`, so an exact guess
/// costs two and the worst guess 2⌈log₂ len⌉ + 2.
pub(crate) fn lower_bound(len: usize, guess: usize, below: impl Fn(usize) -> bool) -> usize {
    #[cfg(test)]
    let below = |i| {
        probes::count();
        below(i)
    };
    let guess = guess.min(len);
    // Invariant of both gallops: the bound lies in `lo..=hi`.
    let (mut lo, mut hi);
    if guess < len && below(guess) {
        (lo, hi) = (guess + 1, len);
        let mut step = 1;
        while let Some(probe) = guess.checked_add(step).filter(|&p| p < len) {
            if !below(probe) {
                hi = probe;
                break;
            }
            lo = probe + 1;
            step *= 2;
        }
    } else {
        (lo, hi) = (0, guess);
        let mut step = 1;
        while let Some(probe) = guess.checked_sub(step) {
            if below(probe) {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Counts [`lower_bound`]'s probes on the calling thread, for the tests
/// that hold the search to its probe budget.
#[cfg(test)]
mod probes {
    use std::cell::Cell;

    thread_local!(static PROBES: Cell<usize> = const { Cell::new(0) });

    pub(super) fn count() {
        PROBES.with(|p| p.set(p.get() + 1));
    }

    /// Probes made since the last call on this thread.
    pub(super) fn take() -> usize {
        PROBES.with(|p| p.replace(0))
    }
}

/// Fixed-capacity ring buffer of readings with monotonic timestamps.
///
/// Kept public so analytics code can be tested directly against a buffer
/// without constructing a full store.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    /// Holds exactly the stored readings: it grows to `capacity` by
    /// appending, and only then do writes wrap, so `head` stays `0` until
    /// the ring is full.
    buf: Vec<Reading>,
    /// Physical index of the oldest reading.
    head: usize,
    capacity: usize,
    /// Count of readings ever evicted by wrap-around.
    evicted: u64,
    /// Count of readings rejected for an out-of-order timestamp.
    rejected_out_of_order: u64,
    /// Count of readings rejected for a non-finite value.
    rejected_non_finite: u64,
    /// Largest inter-reading gap ever accepted, milliseconds.
    max_gap_ms: u64,
}

impl RingBuffer {
    /// Creates a buffer holding at most `capacity` readings.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            evicted: 0,
            rejected_out_of_order: 0,
            rejected_non_finite: 0,
            max_gap_ms: 0,
        }
    }

    /// Number of readings currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no readings are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Count of readings evicted by wrap-around since creation.
    #[inline]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Count of readings rejected for an out-of-order timestamp.
    #[inline]
    pub fn rejected_out_of_order(&self) -> u64 {
        self.rejected_out_of_order
    }

    /// Count of readings rejected for a non-finite value.
    #[inline]
    pub fn rejected_non_finite(&self) -> u64 {
        self.rejected_non_finite
    }

    /// Largest gap between consecutive accepted readings, milliseconds
    /// (`0` until two readings have been accepted).
    #[inline]
    pub fn max_gap_ms(&self) -> u64 {
        self.max_gap_ms
    }

    /// Appends a reading.
    ///
    /// Returns `false` (and stores nothing) if the reading is non-finite or
    /// older than the newest stored reading — out-of-order data is dropped
    /// rather than silently corrupting the series, mirroring the behaviour
    /// of production collectors.
    ///
    /// **Duplicate-timestamp policy: accept-and-order-stable.** A reading
    /// whose timestamp *equals* the newest stored one is appended, never
    /// merged, deduplicated or replaced — runs of same-ts readings survive
    /// in exact arrival order. Real collectors emit such runs routinely
    /// (two sensors flushed in one batch, a re-sent sample after a
    /// collector hiccup, sub-resolution bursts), and keeping every one is
    /// what makes the pipeline deterministic end to end: the buffer stays
    /// sorted (non-decreasing), so `range_slices`' lower bounds pick up a
    /// whole same-ts run on the start edge and exclude it on the end edge,
    /// and the rollup tiers fold the duplicates into their buckets in that
    /// same stable order — a tier-served aggregate is bit-identical to a
    /// raw scan even when every reading in the window shares one timestamp.
    pub fn push(&mut self, r: Reading) -> bool {
        if !r.is_finite() {
            self.rejected_non_finite += 1;
            return false;
        }
        if let Some(last) = self.newest() {
            if r.ts < last.ts {
                self.rejected_out_of_order += 1;
                return false;
            }
            self.max_gap_ms = self.max_gap_ms.max(r.ts.millis_since(last.ts));
        }
        if self.buf.len() < self.capacity {
            // Still filling the initial allocation.
            self.buf.push(r);
        } else {
            // Overwrite the oldest slot.
            self.buf[self.head] = r;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.evicted += 1;
        }
        true
    }

    /// The stored readings as two runs, oldest first.
    #[inline]
    pub fn as_slices(&self) -> Slices<'_, Reading> {
        let (newer, older) = self.buf.split_at(self.head);
        (older, newer)
    }

    /// The oldest stored reading.
    #[inline]
    pub fn oldest(&self) -> Option<Reading> {
        self.as_slices().0.first().copied()
    }

    /// The newest stored reading.
    #[inline]
    pub fn newest(&self) -> Option<Reading> {
        let (older, newer) = self.as_slices();
        newer.last().or(older.last()).copied()
    }

    /// The readings with `start <= ts < end`, in order, as two runs.
    ///
    /// Each bound is an interpolation-guided `lower_bound` between the
    /// oldest and newest timestamps: two or three probes on a regularly
    /// sampled ring, at most 2⌈log₂ n⌉ + 2 on any other.
    pub fn range_slices(&self, start: Timestamp, end: Timestamp) -> Slices<'_, Reading> {
        let runs = self.as_slices();
        match (self.oldest(), self.newest()) {
            (Some(oldest), Some(newest)) if start < end => {
                let bound = |t: Timestamp| {
                    if t <= oldest.ts {
                        return 0;
                    }
                    let n = self.len();
                    if t > newest.ts {
                        return n;
                    }
                    // oldest < t <= newest, so the span is positive.
                    let guess = u128::from(t.millis_since(oldest.ts)) * (n as u128 - 1)
                        / u128::from(newest.ts.millis_since(oldest.ts));
                    lower_bound(n, guess as usize, |i| nth(runs, i).ts < t)
                };
                sub(runs, bound(start), bound(end))
            }
            _ => (&[], &[]),
        }
    }

    /// Copies all readings with `start <= ts < end` into `out`, in order:
    /// the two bounds of [`Self::range_slices`], then one copy per run.
    pub fn range_into(&self, start: Timestamp, end: Timestamp, out: &mut Vec<Reading>) {
        let (older, newer) = self.range_slices(start, end);
        out.extend_from_slice(older);
        out.extend_from_slice(newer);
    }

    /// All readings in chronological order (mostly for tests and snapshots).
    pub fn to_vec(&self) -> Vec<Reading> {
        let (older, newer) = self.as_slices();
        [older, newer].concat()
    }

    /// The most recent `n` readings, oldest-first.
    pub fn last_n(&self, n: usize) -> Vec<Reading> {
        let len = self.len();
        let (older, newer) = sub(self.as_slices(), len - n.min(len), len);
        [older, newer].concat()
    }
}

/// One fixed-width summary bucket of a rollup tier.
///
/// The stored statistics are exactly those that compose: two adjacent
/// buckets (or a bucket and a raw-reading edge) merge without loss for the
/// decomposable aggregations, which is what lets the query planner answer
/// from tiers with raw-scan-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RollupBucket {
    /// Bucket start, aligned to the tier width.
    pub start: Timestamp,
    /// Raw readings folded into this bucket.
    pub count: u64,
    /// Sum of folded values.
    pub sum: f64,
    /// Minimum folded value.
    pub min: f64,
    /// Maximum folded value.
    pub max: f64,
    /// Chronologically first folded value.
    pub first: f64,
    /// Chronologically last folded value.
    pub last: f64,
    /// Timestamp of the first folded reading.
    pub first_ts: Timestamp,
    /// Timestamp of the last folded reading.
    pub last_ts: Timestamp,
}

impl RollupBucket {
    fn open(start: Timestamp, r: Reading) -> Self {
        RollupBucket {
            start,
            count: 1,
            sum: r.value,
            min: r.value,
            max: r.value,
            first: r.value,
            last: r.value,
            first_ts: r.ts,
            last_ts: r.ts,
        }
    }

    #[inline]
    fn fold(&mut self, r: Reading) {
        self.count += 1;
        self.sum += r.value;
        self.min = self.min.min(r.value);
        self.max = self.max.max(r.value);
        self.last = r.value;
        self.last_ts = r.ts;
    }
}

/// Width and retention of one rollup tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RollupTierSpec {
    /// Bucket width, milliseconds.
    pub bucket_ms: u64,
    /// Maximum buckets retained per sensor (ring; oldest evicted first).
    pub capacity: usize,
}

/// Rollup-tier layout of a store: zero or more strictly-widening tiers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RollupConfig {
    /// Tier specs, strictly increasing in `bucket_ms`.
    pub tiers: Vec<RollupTierSpec>,
}

impl Default for RollupConfig {
    /// 10 s / 1 min / 10 min tiers of 1024 buckets each (≈ 2.8 h / 17 h /
    /// 7 days of summary per sensor, ~90 KiB per sensor total).
    fn default() -> Self {
        RollupConfig {
            tiers: [10_000, 60_000, 600_000]
                .into_iter()
                .map(|bucket_ms| RollupTierSpec {
                    bucket_ms,
                    capacity: 1_024,
                })
                .collect(),
        }
    }
}

impl RollupConfig {
    /// No tiers at all: every query falls back to raw scans (the ablation
    /// baseline).
    pub fn none() -> Self {
        RollupConfig { tiers: Vec::new() }
    }

    fn validate(&self) {
        for (i, t) in self.tiers.iter().enumerate() {
            assert!(t.bucket_ms > 0, "rollup tier width must be positive");
            assert!(t.capacity > 0, "rollup tier capacity must be positive");
            if i > 0 {
                assert!(
                    t.bucket_ms > self.tiers[i - 1].bucket_ms,
                    "rollup tiers must strictly widen (got {} ms after {} ms)",
                    t.bucket_ms,
                    self.tiers[i - 1].bucket_ms
                );
            }
        }
    }
}

/// One sensor's ring of summary buckets at a fixed width.
///
/// Public so rollup maintenance can be tested directly against a tier
/// without a full store, mirroring [`RingBuffer`].
#[derive(Debug, Clone)]
pub struct RollupTier {
    bucket_ms: u64,
    capacity: usize,
    buckets: VecDeque<RollupBucket>,
    evicted: u64,
}

impl RollupTier {
    /// Creates an empty tier from its spec.
    pub fn new(spec: RollupTierSpec) -> Self {
        RollupTier {
            bucket_ms: spec.bucket_ms,
            capacity: spec.capacity,
            buckets: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Bucket width, milliseconds.
    #[inline]
    pub fn bucket_ms(&self) -> u64 {
        self.bucket_ms
    }

    /// Buckets currently retained.
    #[inline]
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// `true` when no bucket has been opened yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Buckets evicted by ring wrap-around since creation.
    #[inline]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Start of the oldest retained bucket.
    #[inline]
    pub fn oldest_start(&self) -> Option<Timestamp> {
        self.buckets.front().map(|b| b.start)
    }

    /// Folds one *accepted* reading into the tier. Callers must uphold the
    /// ring-buffer invariant (non-decreasing timestamps, finite values); the
    /// store only calls this after [`RingBuffer::push`] succeeds.
    pub fn observe(&mut self, r: Reading) {
        let start = r.ts.bucket(self.bucket_ms);
        if let Some(open) = self.buckets.back_mut() {
            if open.start == start {
                open.fold(r);
                return;
            }
            debug_assert!(start > open.start, "tier timestamps must be monotone");
        }
        self.buckets.push_back(RollupBucket::open(start, r));
        if self.buckets.len() > self.capacity {
            self.buckets.pop_front();
            self.evicted += 1;
        }
    }

    /// The buckets with `start <= bucket.start < end`, in order, as two
    /// runs. Each bound is a `lower_bound` guessed at
    /// `(t − front.start) / bucket_ms`: exact while no bucket in between is
    /// missing, so a gap-free tier answers in two probes per bound.
    pub fn range_slices(&self, start: Timestamp, end: Timestamp) -> Slices<'_, RollupBucket> {
        let runs = self.buckets.as_slices();
        let Some(front) = self.buckets.front() else {
            return runs;
        };
        let n = self.buckets.len();
        let bound = |t: Timestamp| {
            let ahead = t.millis_since(front.start).div_ceil(self.bucket_ms);
            let guess = usize::try_from(ahead).map_or(n, |g| g.min(n));
            lower_bound(n, guess, |i| nth(runs, i).start < t)
        };
        let lo = bound(start);
        sub(runs, lo, bound(end).max(lo))
    }

    /// Copies the buckets with `start <= bucket.start < end` into `out`.
    pub fn range_into(&self, start: Timestamp, end: Timestamp, out: &mut Vec<RollupBucket>) {
        let (older, newer) = self.range_slices(start, end);
        out.extend_from_slice(older);
        out.extend_from_slice(newer);
    }
}

/// One sensor's archive: the raw ring plus its rollup tiers.
#[derive(Debug, Clone)]
struct SensorSeries {
    raw: RingBuffer,
    tiers: Vec<RollupTier>,
    /// Monotone write-version, bumped once per *accepted* reading (which is
    /// also exactly when every rollup tier folds). Read via
    /// [`TimeSeriesStore::sensor_version`]; result caches compare recorded
    /// versions against current ones, so any raw append or bucket fold
    /// since the cached execution invalidates the entry — and an unchanged
    /// version proves the sensor's visible state is bit-identical.
    version: u64,
}

impl SensorSeries {
    fn new(capacity: usize, rollups: &RollupConfig) -> Self {
        SensorSeries {
            raw: RingBuffer::new(capacity),
            tiers: rollups.tiers.iter().map(|&s| RollupTier::new(s)).collect(),
            version: 0,
        }
    }

    /// Pushes into the raw ring and, only on acceptance, into every tier —
    /// rejected readings (non-finite, out-of-order) never pollute rollups.
    fn push(&mut self, r: Reading) -> bool {
        if !self.raw.push(r) {
            return false;
        }
        for tier in &mut self.tiers {
            tier.observe(r);
        }
        self.version += 1;
        true
    }

    /// The tier-served decomposition of `[start, end)`, if a tier serves
    /// it; see [`TimeSeriesStore::read_window`] for the rules.
    fn tier_view(
        &self,
        start: Timestamp,
        end: Timestamp,
        align_ms: Option<u64>,
    ) -> Option<TierView<'_>> {
        if start >= end {
            return None;
        }
        // Coarsest tier first: widest buckets summarise the most readings.
        for tier in self.tiers.iter().rev() {
            let tier_ms = tier.bucket_ms();
            if let Some(req) = align_ms {
                if req == 0 || req % tier_ms != 0 {
                    continue;
                }
            }
            if tier.is_empty() {
                continue;
            }
            // Core boundaries must land on the *request* alignment (the
            // caller's bucket width, or the tier's own for scalar reads) so
            // the caller's buckets are each served wholly by tiers or
            // wholly by raw edges — never split.
            let align = align_ms.unwrap_or(tier_ms);
            let Some(mut core_start) = start.as_millis().checked_next_multiple_of(align) else {
                continue;
            };
            let core_end = (end.as_millis() / align) * align;
            // Eviction horizon: the head edge must be fully present in raw.
            if let (true, Some(oldest)) = (self.raw.evicted() > 0, self.raw.oldest()) {
                let Some(horizon) = oldest
                    .ts
                    .as_millis()
                    .checked_add(1)
                    .and_then(|t| t.checked_next_multiple_of(align))
                else {
                    continue;
                };
                core_start = core_start.max(horizon);
            }
            // Tier floor: only retained buckets can serve the core.
            if let (true, Some(floor)) = (tier.evicted() > 0, tier.oldest_start()) {
                let Some(floor) = floor.as_millis().checked_next_multiple_of(align) else {
                    continue;
                };
                core_start = core_start.max(floor);
            }
            if core_start >= core_end {
                continue;
            }
            let core_start = Timestamp::from_millis(core_start);
            let core_end = Timestamp::from_millis(core_end);
            let core = tier.range_slices(core_start, core_end);
            let (older, newer) = core;
            let readings_avoided = older
                .iter()
                .chain(newer)
                .map(|b| b.count)
                .sum::<u64>()
                .saturating_sub((older.len() + newer.len()) as u64);
            if readings_avoided == 0 {
                continue;
            }
            return Some(TierView {
                head: self.raw.range_slices(start, core_start),
                core,
                tail: self.raw.range_slices(core_end, end),
                readings_avoided,
            });
        }
        None
    }
}

/// One sensor's window as [`TimeSeriesStore::read_window`] lends it to
/// its visitor, borrowed from the store under the shard's read lock.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Window<'a> {
    /// No tier serves the window: its raw readings.
    Raw(Slices<'a, Reading>),
    /// Raw edges around a tier-served core.
    Tiered(TierView<'a>),
}

/// A window decomposed into a raw head, a tier-served core and a raw tail;
/// the three are consecutive in time and disjoint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TierView<'a> {
    /// Raw readings in `[start, core_start)`.
    pub(crate) head: Slices<'a, Reading>,
    /// Summary buckets covering `[core_start, core_end)`, chronological.
    pub(crate) core: Slices<'a, RollupBucket>,
    /// Raw readings in `[core_end, end)`.
    pub(crate) tail: Slices<'a, Reading>,
    /// Raw readings the core summarises minus the buckets it holds — the
    /// scan work the tier saved.
    pub(crate) readings_avoided: u64,
}

struct Shard {
    /// Indexed by `sensor.index() / num_shards`.
    series: Vec<Option<SensorSeries>>,
}

/// Per-shard write-path instruments, created once at store construction so
/// the hot path never touches the registry's maps.
struct ShardMetrics {
    appends: Counter,
    rejects_out_of_order: Counter,
    rejects_non_finite: Counter,
    evictions: Counter,
    lock_hold_ns: Histogram,
    /// Write-lock acquisitions that found the shard lock already held —
    /// the collector-vs-collector (or collector-vs-query) contention the
    /// parallel runtime makes possible. Scheduling telemetry: varies run
    /// to run, excluded from the determinism contract.
    contention: Counter,
}

impl ShardMetrics {
    fn new(metrics: &MetricsRegistry, shard: usize) -> Self {
        let idx = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", idx.as_str())];
        ShardMetrics {
            appends: metrics.counter("store_append_total", labels),
            rejects_out_of_order: metrics.counter("store_reject_out_of_order_total", labels),
            rejects_non_finite: metrics.counter("store_reject_non_finite_total", labels),
            evictions: metrics.counter("store_evict_total", labels),
            lock_hold_ns: metrics.histogram("store_lock_hold_ns", labels),
            contention: metrics.counter("store_shard_contention_total", labels),
        }
    }
}

// Compile-time audit: the store is shared (`Arc`) across runtime workers,
// collectors and query threads; it must stay fully thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TimeSeriesStore>();
};

/// Sharded, thread-safe archive of per-sensor time series.
pub struct TimeSeriesStore {
    shards: Vec<RwLock<Shard>>,
    shard_metrics: Vec<ShardMetrics>,
    metrics: MetricsRegistry,
    /// Looked up by the first `QueryEngine` over the store, so the
    /// read-path series appear in the registry only once something reads.
    query_instruments: OnceLock<QueryInstruments>,
    per_sensor_capacity: usize,
    rollups: RollupConfig,
}

impl TimeSeriesStore {
    /// Default number of lock shards.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a store where each sensor retains up to `per_sensor_capacity`
    /// readings, with the default shard count. Records into a fresh
    /// registry of its own.
    pub fn with_capacity(per_sensor_capacity: usize) -> Self {
        Self::with_rollups(
            per_sensor_capacity,
            Self::DEFAULT_SHARDS,
            MetricsRegistry::new(),
            RollupConfig::default(),
        )
    }

    /// Creates a store with an explicit lock-shard count (`1` degenerates
    /// to a single global lock), metrics registry (write-path instruments
    /// `store_append_total`, `store_reject_*_total`, `store_evict_total`,
    /// `store_lock_hold_ns`, all labeled per shard — pass
    /// [`MetricsRegistry::disabled`] for a zero-overhead store) and
    /// rollup-tier layout ([`RollupConfig::none`] for a raw-only store,
    /// the ablation baseline).
    ///
    /// # Panics
    /// Panics if `per_sensor_capacity == 0`, `shards == 0`, or `rollups`
    /// has a non-widening or zero-width/zero-capacity tier.
    pub fn with_rollups(
        per_sensor_capacity: usize,
        shards: usize,
        metrics: MetricsRegistry,
        rollups: RollupConfig,
    ) -> Self {
        assert!(
            per_sensor_capacity > 0,
            "per-sensor capacity must be positive"
        );
        assert!(shards > 0, "shard count must be positive");
        rollups.validate();
        TimeSeriesStore {
            shards: (0..shards)
                .map(|_| RwLock::new(Shard { series: Vec::new() }))
                .collect(),
            shard_metrics: (0..shards)
                .map(|i| ShardMetrics::new(&metrics, i))
                .collect(),
            metrics,
            query_instruments: OnceLock::new(),
            per_sensor_capacity,
            rollups,
        }
    }

    /// The registry this store's write-path instruments record into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The read-path instruments every [`crate::query::QueryEngine`] over
    /// this store records into.
    pub(crate) fn query_instruments(&self) -> &QueryInstruments {
        self.query_instruments
            .get_or_init(|| QueryInstruments::new(&self.metrics))
    }

    #[inline]
    fn locate(&self, sensor: SensorId) -> (usize, usize) {
        let n = self.shards.len();
        (sensor.index() % n, sensor.index() / n)
    }

    /// Retention capacity per sensor.
    pub fn per_sensor_capacity(&self) -> usize {
        self.per_sensor_capacity
    }

    /// Appends one reading. Returns `false` if it was rejected (non-finite
    /// value or out-of-order timestamp).
    pub fn insert(&self, sensor: SensorId, reading: Reading) -> bool {
        self.insert_batch(sensor, std::slice::from_ref(&reading)) == 1
    }

    /// Appends a batch of readings for one sensor; returns how many were
    /// accepted.
    pub fn insert_batch(&self, sensor: SensorId, readings: &[Reading]) -> usize {
        self.insert_batch_with(sensor, readings, |_| {})
    }

    /// As [`Self::insert_batch`], additionally pushing every *accepted*
    /// reading onto `accepted`, in acceptance order. Durable storage
    /// backends use this to WAL-log exactly the readings the ring admitted.
    pub fn insert_batch_accepted(
        &self,
        sensor: SensorId,
        readings: &[Reading],
        accepted: &mut Vec<Reading>,
    ) -> usize {
        self.insert_batch_with(sensor, readings, |r| accepted.push(r))
    }

    fn insert_batch_with(
        &self,
        sensor: SensorId,
        readings: &[Reading],
        mut on_accept: impl FnMut(Reading),
    ) -> usize {
        let (s, slot) = self.locate(sensor);
        let m = &self.shard_metrics[s];
        let mut shard = match self.shards[s].try_write() {
            Some(guard) => guard,
            None => {
                m.contention.inc();
                self.shards[s].write()
            }
        };
        let timer = m.lock_hold_ns.start_timer();
        if shard.series.len() <= slot {
            shard.series.resize_with(slot + 1, || None);
        }
        let series = shard.series[slot]
            .get_or_insert_with(|| SensorSeries::new(self.per_sensor_capacity, &self.rollups));
        let buf = &series.raw;
        let (ooo0, nf0, ev0) = (
            buf.rejected_out_of_order(),
            buf.rejected_non_finite(),
            buf.evicted(),
        );
        let mut accepted = 0usize;
        for r in readings {
            if series.push(*r) {
                accepted += 1;
                on_accept(*r);
            }
        }
        let buf = &series.raw;
        m.appends.add(accepted as u64);
        m.rejects_out_of_order
            .add(buf.rejected_out_of_order() - ooo0);
        m.rejects_non_finite.add(buf.rejected_non_finite() - nf0);
        m.evictions.add(buf.evicted() - ev0);
        m.lock_hold_ns.observe_timer(timer);
        accepted
    }

    /// Readings for `sensor` with `start <= ts < end`, chronological.
    pub fn range(&self, sensor: SensorId, start: Timestamp, end: Timestamp) -> Vec<Reading> {
        let mut out = Vec::new();
        self.range_into(sensor, start, end, &mut out);
        out
    }

    /// As [`Self::range`], appending into a caller-provided buffer to allow
    /// reuse across queries.
    pub fn range_into(
        &self,
        sensor: SensorId,
        start: Timestamp,
        end: Timestamp,
        out: &mut Vec<Reading>,
    ) {
        let (s, slot) = self.locate(sensor);
        let shard = self.shards[s].read();
        if let Some(Some(series)) = shard.series.get(slot) {
            series.raw.range_into(start, end, out);
        }
    }

    /// Lends `sensor`'s window `[start, end)` to `visit`, tier-served
    /// where a tier can serve it, and returns what `visit` returns.
    ///
    /// `align_ms` is the caller's bucketing requirement: for downsample /
    /// align shapes it is the requested bucket width (only tiers whose
    /// width **divides** it can serve, since both bucket from epoch zero);
    /// for whole-range scalar aggregations pass `None` and any tier may
    /// serve with its own width.
    ///
    /// Picks the **coarsest** eligible tier and decomposes the range into a
    /// raw `head` edge, a tier-served aligned `core`, and a raw `tail` edge
    /// ([`Window::Tiered`]). Correctness constraints (either failing → the
    /// core shrinks or the next tier is tried):
    ///
    /// * **eviction horizon** — if the raw ring has evicted, the core may
    ///   only start after the oldest retained raw reading, so edges can
    ///   always be re-read from raw and answers equal a raw rescan;
    /// * **tier floor** — if the tier ring has evicted buckets, the core may
    ///   only start at the oldest retained bucket.
    ///
    /// When no tier is eligible, the core would be empty, or the tier saves
    /// nothing (`readings_avoided == 0`), `visit` gets the raw window
    /// ([`Window::Raw`]) instead; an unknown sensor's is empty.
    ///
    /// **Contract:** `visit` runs under the shard's read lock, which is
    /// what makes the borrowed pieces one consistent snapshot. It must not
    /// call back into the store — a read queued behind a waiting writer
    /// would deadlock — and should only fold what it was lent; the lock is
    /// then held for less time than copying the window out would hold it.
    pub(crate) fn read_window<R>(
        &self,
        sensor: SensorId,
        start: Timestamp,
        end: Timestamp,
        align_ms: Option<u64>,
        visit: impl FnOnce(Window<'_>) -> R,
    ) -> R {
        let (s, slot) = self.locate(sensor);
        let shard = self.shards[s].read();
        let Some(Some(series)) = shard.series.get(slot) else {
            return visit(Window::Raw((&[], &[])));
        };
        visit(match series.tier_view(start, end, align_ms) {
            Some(view) => Window::Tiered(view),
            None => Window::Raw(series.raw.range_slices(start, end)),
        })
    }

    /// Monotone write-version of `sensor`'s series: starts at `0` for a
    /// sensor the store has never accepted a reading for, and increments by
    /// one for every accepted reading — the same event that folds every
    /// rollup tier. Two reads of a sensor bracketed by equal versions are
    /// guaranteed to observe bit-identical raw and tier state, which is the
    /// invalidation contract the serving layer's query-result cache builds
    /// on (see `oda-serve`).
    pub fn sensor_version(&self, sensor: SensorId) -> u64 {
        let (s, slot) = self.locate(sensor);
        let shard = self.shards[s].read();
        shard
            .series
            .get(slot)
            .and_then(|b| b.as_ref())
            .map(|b| b.version)
            .unwrap_or(0)
    }

    /// The newest reading for `sensor`, if any.
    pub fn latest(&self, sensor: SensorId) -> Option<Reading> {
        let (s, slot) = self.locate(sensor);
        let shard = self.shards[s].read();
        shard
            .series
            .get(slot)
            .and_then(|b| b.as_ref())
            .and_then(|b| b.raw.newest())
    }

    /// The most recent `n` readings for `sensor`, oldest-first.
    pub fn last_n(&self, sensor: SensorId, n: usize) -> Vec<Reading> {
        let (s, slot) = self.locate(sensor);
        let shard = self.shards[s].read();
        shard
            .series
            .get(slot)
            .and_then(|b| b.as_ref())
            .map(|b| b.raw.last_n(n))
            .unwrap_or_default()
    }

    /// Number of readings currently retained for `sensor`.
    pub fn series_len(&self, sensor: SensorId) -> usize {
        let (s, slot) = self.locate(sensor);
        let shard = self.shards[s].read();
        shard
            .series
            .get(slot)
            .and_then(|b| b.as_ref())
            .map(|b| b.raw.len())
            .unwrap_or(0)
    }

    /// Ingest health of one sensor's series, if the sensor ever reached the
    /// store.
    pub fn sensor_health(&self, sensor: SensorId) -> Option<crate::health::SensorHealth> {
        let (s, slot) = self.locate(sensor);
        let shard = self.shards[s].read();
        shard
            .series
            .get(slot)
            .and_then(|b| b.as_ref())
            .map(|b| Self::health_row(sensor, &b.raw))
    }

    /// Point-in-time health roll-up across every sensor that has reached
    /// the store, ordered by sensor index. Includes per-tier rollup
    /// occupancy aggregated over all sensors.
    pub fn health_report(&self) -> crate::health::HealthReport {
        let n = self.shards.len();
        let mut sensors = Vec::new();
        let mut rollups: Vec<crate::health::TierOccupancy> = self
            .rollups
            .tiers
            .iter()
            .map(|t| crate::health::TierOccupancy {
                bucket_ms: t.bucket_ms,
                capacity: t.capacity,
                buckets: 0,
                evicted: 0,
            })
            .collect();
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let shard = shard.read();
            for (slot, series) in shard.series.iter().enumerate() {
                if let Some(series) = series {
                    let sensor = SensorId((slot * n + shard_idx) as u32);
                    sensors.push(Self::health_row(sensor, &series.raw));
                    for (occ, tier) in rollups.iter_mut().zip(&series.tiers) {
                        occ.buckets += tier.len() as u64;
                        occ.evicted += tier.evicted();
                    }
                }
            }
        }
        sensors.sort_by_key(|h| h.sensor.index());
        crate::health::HealthReport { sensors, rollups }
    }

    fn health_row(sensor: SensorId, buf: &RingBuffer) -> crate::health::SensorHealth {
        crate::health::SensorHealth {
            sensor,
            len: buf.len(),
            last_seen: buf.newest().map(|r| r.ts),
            evicted: buf.evicted(),
            rejected_out_of_order: buf.rejected_out_of_order(),
            rejected_non_finite: buf.rejected_non_finite(),
            max_gap_ms: buf.max_gap_ms(),
        }
    }

    /// Total readings retained across all sensors (diagnostic).
    pub fn total_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .series
                    .iter()
                    .flatten()
                    .map(|b| b.raw.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ts: u64, v: f64) -> Reading {
        Reading::new(Timestamp::from_millis(ts), v)
    }

    /// Head, core and tail of a tier-served read, copied out of the store;
    /// `None` when the store lends the raw window instead.
    type Tiered = (Vec<Reading>, Vec<RollupBucket>, Vec<Reading>, u64);

    fn tiered(
        store: &TimeSeriesStore,
        s: SensorId,
        start: Timestamp,
        end: Timestamp,
        align_ms: Option<u64>,
    ) -> Option<Tiered> {
        store.read_window(s, start, end, align_ms, |w| match w {
            Window::Tiered(t) => Some((
                [t.head.0, t.head.1].concat(),
                [t.core.0, t.core.1].concat(),
                [t.tail.0, t.tail.1].concat(),
                t.readings_avoided,
            )),
            Window::Raw(_) => None,
        })
    }

    #[test]
    fn ring_buffer_fills_then_wraps() {
        let mut b = RingBuffer::new(3);
        assert!(b.push(r(0, 0.0)));
        assert!(b.push(r(1, 1.0)));
        assert!(b.push(r(2, 2.0)));
        assert_eq!(b.len(), 3);
        assert_eq!(b.evicted(), 0);
        assert!(b.push(r(3, 3.0)));
        assert_eq!(b.len(), 3);
        assert_eq!(b.evicted(), 1);
        assert_eq!(b.oldest().unwrap().value, 1.0);
        assert_eq!(b.newest().unwrap().value, 3.0);
        assert_eq!(
            b.to_vec().iter().map(|x| x.value).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn ring_buffer_rejects_out_of_order_and_nan() {
        let mut b = RingBuffer::new(4);
        assert!(b.push(r(10, 1.0)));
        assert!(!b.push(r(5, 2.0)), "older timestamp must be rejected");
        assert!(b.push(r(10, 3.0)), "equal timestamp is allowed");
        assert!(!b.push(r(11, f64::NAN)));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn ring_buffer_range_binary_search() {
        let mut b = RingBuffer::new(8);
        for t in 0..8 {
            b.push(r(t * 10, t as f64));
        }
        let mut out = Vec::new();
        b.range_into(
            Timestamp::from_millis(20),
            Timestamp::from_millis(50),
            &mut out,
        );
        assert_eq!(
            out.iter().map(|x| x.value).collect::<Vec<_>>(),
            vec![2.0, 3.0, 4.0]
        );

        // Range across the wrap point.
        for t in 8..12 {
            b.push(r(t * 10, t as f64));
        }
        out.clear();
        b.range_into(Timestamp::from_millis(0), Timestamp::MAX, &mut out);
        assert_eq!(out.len(), 8);
        assert_eq!(out[0].value, 4.0);
        assert_eq!(out[7].value, 11.0);
    }

    #[test]
    fn ring_buffer_empty_and_inverted_ranges() {
        let b = RingBuffer::new(4);
        let mut out = Vec::new();
        b.range_into(Timestamp::ZERO, Timestamp::MAX, &mut out);
        assert!(out.is_empty());

        let mut b = RingBuffer::new(4);
        b.push(r(0, 1.0));
        b.range_into(
            Timestamp::from_millis(5),
            Timestamp::from_millis(5),
            &mut out,
        );
        assert!(out.is_empty());
        b.range_into(
            Timestamp::from_millis(9),
            Timestamp::from_millis(3),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn ring_buffer_last_n() {
        let mut b = RingBuffer::new(4);
        for t in 0..6 {
            b.push(r(t, t as f64));
        }
        assert_eq!(
            b.last_n(2).iter().map(|x| x.value).collect::<Vec<_>>(),
            vec![4.0, 5.0]
        );
        assert_eq!(b.last_n(10).len(), 4);
    }

    /// Every timestamp in `ts`, one before and one after each, and the
    /// ends of the axis.
    fn probe_keys(ts: impl Iterator<Item = u64>) -> Vec<Timestamp> {
        let mut keys: Vec<u64> = ts.flat_map(|t| [t - 1, t, t + 1]).collect();
        keys.extend([0, u64::MAX]);
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(Timestamp::from_millis).collect()
    }

    /// The most probes any bound of `b` costs, over every timestamp it
    /// holds and every point between two of them.
    fn max_ring_probes(b: &RingBuffer) -> usize {
        let keys = probe_keys(b.to_vec().iter().map(|r| r.ts.as_millis()));
        probes::take();
        keys.into_iter()
            .map(|t| {
                b.range_slices(t, Timestamp::MAX);
                probes::take()
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn search_stays_within_its_probe_budget() {
        // Regularly sampled, full and wrapped: the interpolation guess is
        // exact or one off.
        let mut regular = RingBuffer::new(4_096);
        for i in 0..4_096 + 1_234u64 {
            regular.push(r(1_000 * i, 0.0));
        }
        let probes = max_ring_probes(&regular);
        assert!(probes <= 5, "regular ring: {probes} probes per bound");

        // Geometric spacing sends the guess far off; the gallop bounds the
        // damage at 2⌈log₂ n⌉ + 2.
        let mut geometric = RingBuffer::new(4_096);
        for i in 0..4_096 {
            geometric.push(r(1.01f64.powi(i) as u64, 0.0));
        }
        let probes = max_ring_probes(&geometric);
        assert!(
            probes <= 2 * 12 + 2,
            "geometric ring: {probes} probes per bound"
        );

        // A gap-free tier: the bucket arithmetic guess is exact.
        let mut tier = RollupTier::new(RollupTierSpec {
            bucket_ms: 10_000,
            capacity: 1_024,
        });
        for i in 0..3_000u64 {
            tier.observe(r(5_000 + 10_000 * i, 0.0));
        }
        probes::take();
        for i in 0..1_100u64 {
            tier.range_slices(Timestamp::from_millis(i * 9_999), Timestamp::MAX);
            let probes = probes::take();
            assert!(probes <= 5, "tier: {probes} probes for one bound");
        }
    }

    #[test]
    fn store_basic_insert_query() {
        let store = TimeSeriesStore::with_capacity(16);
        let a = SensorId(0);
        let b = SensorId(17); // lands in shard 1 with 16 shards
        for t in 0..10u64 {
            assert!(store.insert(a, r(t * 100, t as f64)));
            assert!(store.insert(b, r(t * 100, -(t as f64))));
        }
        assert_eq!(store.series_len(a), 10);
        assert_eq!(store.latest(b).unwrap().value, -9.0);
        let ra = store.range(a, Timestamp::from_millis(200), Timestamp::from_millis(500));
        assert_eq!(ra.len(), 3);
        assert_eq!(store.total_len(), 20);
    }

    #[test]
    fn store_batch_insert_counts_accepted() {
        let store = TimeSeriesStore::with_capacity(16);
        let s = SensorId(3);
        let batch = vec![
            r(0, 1.0),
            r(10, 2.0),
            r(5, 3.0),
            r(20, f64::NAN),
            r(30, 4.0),
        ];
        // r(5,..) is out of order, NaN is rejected.
        assert_eq!(store.insert_batch(s, &batch), 3);
        assert_eq!(store.series_len(s), 3);
    }

    #[test]
    fn store_unknown_sensor_is_empty() {
        let store = TimeSeriesStore::with_capacity(4);
        assert!(store.latest(SensorId(99)).is_none());
        assert!(store
            .range(SensorId(99), Timestamp::ZERO, Timestamp::MAX)
            .is_empty());
        assert_eq!(store.series_len(SensorId(99)), 0);
    }

    #[test]
    fn store_single_shard_still_works() {
        let store =
            TimeSeriesStore::with_rollups(8, 1, MetricsRegistry::new(), RollupConfig::default());
        for i in 0..5u32 {
            store.insert(SensorId(i), r(0, i as f64));
        }
        for i in 0..5u32 {
            assert_eq!(store.latest(SensorId(i)).unwrap().value, i as f64);
        }
    }

    #[test]
    fn ring_buffer_counts_rejections_and_gaps() {
        let mut b = RingBuffer::new(4);
        assert!(b.push(r(1_000, 1.0)));
        assert!(b.push(r(3_500, 2.0)));
        assert!(!b.push(r(100, 3.0)));
        assert!(!b.push(r(4_000, f64::INFINITY)));
        assert!(b.push(r(4_000, 4.0)));
        assert_eq!(b.rejected_out_of_order(), 1);
        assert_eq!(b.rejected_non_finite(), 1);
        assert_eq!(b.max_gap_ms(), 2_500);
    }

    #[test]
    fn health_report_rolls_up_per_sensor_state() {
        let store = TimeSeriesStore::with_capacity(4);
        let a = SensorId(0);
        let b = SensorId(17);
        for t in 0..6u64 {
            store.insert(a, r(t * 1_000, t as f64));
        }
        store.insert(b, r(500, 1.0));
        store.insert(b, r(400, 2.0)); // out of order
        store.insert(b, r(600, f64::NAN));
        let rep = store.health_report();
        assert_eq!(rep.sensor_count(), 2);
        let ha = rep.sensor(a).unwrap();
        assert_eq!(ha.len, 4);
        assert_eq!(ha.evicted, 2);
        assert_eq!(ha.last_seen, Some(Timestamp::from_millis(5_000)));
        assert_eq!(ha.max_gap_ms, 1_000);
        let hb = rep.sensor(b).unwrap();
        assert_eq!(hb.rejected_out_of_order, 1);
        assert_eq!(hb.rejected_non_finite, 1);
        assert_eq!(rep.total_rejected(), 2);
        assert_eq!(rep.total_evicted(), 2);
        assert_eq!(store.sensor_health(a).unwrap(), *ha);
        assert!(store.sensor_health(SensorId(99)).is_none());
    }

    #[test]
    fn store_write_path_records_per_shard_metrics() {
        let m = MetricsRegistry::new();
        let store = TimeSeriesStore::with_rollups(2, 1, m.clone(), RollupConfig::default());
        let s = SensorId(0);
        store.insert(s, r(0, 1.0));
        store.insert(s, r(10, 2.0));
        store.insert(s, r(5, 3.0)); // out of order → rejected
        store.insert(s, r(20, f64::NAN)); // non-finite → rejected
        store.insert(s, r(20, 4.0)); // accepted, evicts the oldest
        let snap = m.snapshot();
        assert_eq!(snap.counter("store_append_total{shard=\"0\"}"), Some(3));
        assert_eq!(
            snap.counter("store_reject_out_of_order_total{shard=\"0\"}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("store_reject_non_finite_total{shard=\"0\"}"),
            Some(1)
        );
        assert_eq!(snap.counter("store_evict_total{shard=\"0\"}"), Some(1));
        let hold = snap.histogram("store_lock_hold_ns{shard=\"0\"}").unwrap();
        assert_eq!(hold.count, 5, "one lock-hold sample per insert");
    }

    #[test]
    fn store_with_disabled_metrics_records_nothing() {
        let store = TimeSeriesStore::with_rollups(
            4,
            2,
            MetricsRegistry::disabled(),
            RollupConfig::default(),
        );
        store.insert(SensorId(0), r(0, 1.0));
        assert!(!store.metrics().is_enabled());
        assert!(store.metrics().snapshot().counters.is_empty());
        assert_eq!(store.series_len(SensorId(0)), 1);
    }

    #[test]
    // 8 threads x 1000 inserts is a thread-stress test, not a memory-model
    // probe: under Miri's interpreter it runs for minutes. The TSan lane
    // covers the same interleavings at native speed.
    #[cfg_attr(miri, ignore)]
    fn store_concurrent_writers_disjoint_sensors() {
        use std::sync::Arc;
        let store = Arc::new(TimeSeriesStore::with_capacity(1024));
        let mut handles = Vec::new();
        for w in 0..8u32 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let s = SensorId(w);
                for t in 0..1000u64 {
                    store.insert(s, r(t, t as f64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for w in 0..8u32 {
            assert_eq!(store.series_len(SensorId(w)), 1000);
        }
    }

    #[test]
    fn rollup_tier_folds_and_wraps() {
        let mut t = RollupTier::new(RollupTierSpec {
            bucket_ms: 1_000,
            capacity: 2,
        });
        t.observe(r(100, 1.0));
        t.observe(r(900, 3.0));
        assert_eq!(t.len(), 1);
        let mut out = Vec::new();
        t.range_into(Timestamp::ZERO, Timestamp::MAX, &mut out);
        let b = out[0];
        assert_eq!(b.start, Timestamp::ZERO);
        assert_eq!(b.count, 2);
        assert_eq!(b.sum, 4.0);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 3.0);
        assert_eq!(b.first, 1.0);
        assert_eq!(b.last, 3.0);
        assert_eq!(b.first_ts, Timestamp::from_millis(100));
        assert_eq!(b.last_ts, Timestamp::from_millis(900));
        // Third bucket evicts the first (capacity 2).
        t.observe(r(1_500, 5.0));
        t.observe(r(2_500, 7.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.evicted(), 1);
        assert_eq!(t.oldest_start(), Some(Timestamp::from_millis(1_000)));
    }

    #[test]
    fn rejected_readings_do_not_pollute_rollups() {
        let store = TimeSeriesStore::with_rollups(
            16,
            1,
            MetricsRegistry::disabled(),
            RollupConfig {
                tiers: vec![RollupTierSpec {
                    bucket_ms: 1_000,
                    capacity: 8,
                }],
            },
        );
        let s = SensorId(0);
        store.insert(s, r(100, 1.0));
        store.insert(s, r(200, f64::NAN)); // rejected: non-finite
        store.insert(s, r(300, 2.0));
        store.insert(s, r(50, 99.0)); // rejected: out of order
        let (_, core, _, _) = tiered(
            &store,
            s,
            Timestamp::ZERO,
            Timestamp::from_millis(1_000),
            None,
        )
        .expect("expected a tier hit");
        assert_eq!(core.len(), 1);
        assert_eq!(core[0].count, 2, "rejected readings must not be folded");
        assert_eq!(core[0].sum, 3.0);
    }

    #[test]
    fn tier_view_decomposes_into_head_core_tail() {
        let store = TimeSeriesStore::with_rollups(
            64,
            1,
            MetricsRegistry::disabled(),
            RollupConfig {
                tiers: vec![RollupTierSpec {
                    bucket_ms: 1_000,
                    capacity: 64,
                }],
            },
        );
        let s = SensorId(0);
        for t in 0..40u64 {
            store.insert(s, r(t * 100, t as f64)); // 10 readings per bucket
        }
        // [250, 3_250): head = [250,1_000), core = [1_000,3_000), tail = [3_000,3_250)
        let (head, core, tail, readings_avoided) = tiered(
            &store,
            s,
            Timestamp::from_millis(250),
            Timestamp::from_millis(3_250),
            None,
        )
        .expect("expected a tier hit");
        assert_eq!(
            head.iter().map(|x| x.value).collect::<Vec<_>>(),
            vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        );
        assert_eq!(core.len(), 2);
        assert_eq!(core[0].start, Timestamp::from_millis(1_000));
        assert_eq!(core[0].count, 10);
        assert_eq!(core[1].start, Timestamp::from_millis(2_000));
        assert_eq!(
            tail.iter().map(|x| x.value).collect::<Vec<_>>(),
            vec![30.0, 31.0, 32.0]
        );
        assert_eq!(readings_avoided, 18);
    }

    #[test]
    fn tier_view_honours_alignment_divisibility() {
        let store = TimeSeriesStore::with_rollups(
            64,
            1,
            MetricsRegistry::disabled(),
            RollupConfig {
                tiers: vec![RollupTierSpec {
                    bucket_ms: 1_000,
                    capacity: 64,
                }],
            },
        );
        let s = SensorId(0);
        for t in 0..30u64 {
            store.insert(s, r(t * 100, t as f64));
        }
        // 2_000 is a multiple of the 1_000 ms tier → eligible.
        let end = Timestamp::from_millis(3_000);
        assert!(tiered(&store, s, Timestamp::ZERO, end, Some(2_000)).is_some());
        // 1_500 is not → must miss.
        assert!(tiered(&store, s, Timestamp::ZERO, end, Some(1_500)).is_none());
    }

    #[test]
    fn tier_view_respects_raw_eviction_horizon() {
        // Raw retains only the last 12 readings; tiers remember everything.
        let store = TimeSeriesStore::with_rollups(
            12,
            1,
            MetricsRegistry::disabled(),
            RollupConfig {
                tiers: vec![RollupTierSpec {
                    bucket_ms: 1_000,
                    capacity: 64,
                }],
            },
        );
        let s = SensorId(0);
        for t in 0..40u64 {
            store.insert(s, r(t * 100, t as f64));
        }
        // Raw now holds ts 2_800..=3_900; bucket 3_000 is the only one whose
        // readings are all still retained.
        let oldest = store.range(s, Timestamp::ZERO, Timestamp::MAX)[0].ts;
        assert_eq!(oldest, Timestamp::from_millis(2_800));
        let (head, core, tail, _) = tiered(
            &store,
            s,
            Timestamp::ZERO,
            Timestamp::from_millis(4_000),
            None,
        )
        .expect("expected a hit for the fully-retained trailing bucket");
        for b in &core {
            assert!(
                b.start > oldest,
                "core bucket at {:?} reaches behind the raw eviction horizon",
                b.start
            );
        }
        assert_eq!(core.len(), 1);
        assert_eq!(core[0].start, Timestamp::from_millis(3_000));
        // Everything served must re-compose to exactly the raw scan.
        let raw = store.range(s, Timestamp::ZERO, Timestamp::from_millis(4_000));
        let served =
            head.len() as u64 + core.iter().map(|b| b.count).sum::<u64>() + tail.len() as u64;
        assert_eq!(served, raw.len() as u64);
        assert_eq!(
            head.iter().map(|x| x.value).collect::<Vec<_>>(),
            vec![28.0, 29.0]
        );

        // A range whose only complete buckets reach behind the horizon must
        // miss rather than answer from summarised-but-evicted data.
        assert!(tiered(
            &store,
            s,
            Timestamp::ZERO,
            Timestamp::from_millis(2_000),
            None
        )
        .is_none());
    }

    #[test]
    fn raw_window_without_tiers_or_savings() {
        let store =
            TimeSeriesStore::with_rollups(16, 1, MetricsRegistry::disabled(), RollupConfig::none());
        let s = SensorId(0);
        store.insert(s, r(0, 1.0));
        assert!(tiered(&store, s, Timestamp::ZERO, Timestamp::MAX, None).is_none());

        // One reading per bucket → zero savings → miss.
        let sparse = TimeSeriesStore::with_rollups(
            16,
            1,
            MetricsRegistry::disabled(),
            RollupConfig {
                tiers: vec![RollupTierSpec {
                    bucket_ms: 1_000,
                    capacity: 8,
                }],
            },
        );
        sparse.insert(s, r(500, 1.0));
        sparse.insert(s, r(1_500, 2.0));
        let end = Timestamp::from_millis(2_000);
        assert!(tiered(&sparse, s, Timestamp::ZERO, end, None).is_none());
        // The raw window it lends instead holds both readings.
        let raw = sparse.read_window(s, Timestamp::ZERO, end, None, |w| match w {
            Window::Raw((older, newer)) => older.len() + newer.len(),
            Window::Tiered(_) => 0,
        });
        assert_eq!(raw, 2);
    }

    #[test]
    fn health_report_surfaces_tier_occupancy() {
        let store = TimeSeriesStore::with_rollups(
            64,
            2,
            MetricsRegistry::disabled(),
            RollupConfig {
                tiers: vec![
                    RollupTierSpec {
                        bucket_ms: 1_000,
                        capacity: 2,
                    },
                    RollupTierSpec {
                        bucket_ms: 10_000,
                        capacity: 8,
                    },
                ],
            },
        );
        for sensor in 0..2u32 {
            for t in 0..40u64 {
                store.insert(SensorId(sensor), r(t * 100, t as f64)); // 4 buckets @1s
            }
        }
        let rep = store.health_report();
        assert_eq!(rep.rollups.len(), 2);
        assert_eq!(rep.rollups[0].bucket_ms, 1_000);
        assert_eq!(rep.rollups[0].capacity, 2);
        assert_eq!(rep.rollups[0].buckets, 4, "2 sensors × 2 retained buckets");
        assert_eq!(rep.rollups[0].evicted, 4, "2 sensors × 2 evicted buckets");
        assert_eq!(rep.rollups[1].buckets, 2, "2 sensors × 1 wide bucket");
        assert_eq!(rep.rollups[1].evicted, 0);
    }

    #[test]
    #[should_panic(expected = "strictly widen")]
    fn rollup_config_rejects_non_widening_tiers() {
        let _ = TimeSeriesStore::with_rollups(
            4,
            1,
            MetricsRegistry::disabled(),
            RollupConfig {
                tiers: vec![
                    RollupTierSpec {
                        bucket_ms: 1_000,
                        capacity: 4,
                    },
                    RollupTierSpec {
                        bucket_ms: 1_000,
                        capacity: 4,
                    },
                ],
            },
        );
    }
}
