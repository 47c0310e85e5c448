//! Self-telemetry: runtime metrics for the ODA stack itself.
//!
//! The paper's position (and the DCDB Wintermute / LRZ production
//! experience it draws on) is that an ODA system must be able to describe
//! and diagnose *itself* — per-plugin overhead and ingest-latency
//! accounting were prerequisites for running ODA on a live machine. This
//! module is that layer: lock-free counters, gauges and log-linear latency
//! histograms behind a [`MetricsRegistry`], exposed both as
//! Prometheus-style text and as a JSON-able snapshot.
//!
//! There is no process-wide registry: a component records into the one its
//! owner hands it at construction, or into a fresh one of its own, so two
//! sites in one process never see each other's counters.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost** — recording is a relaxed atomic add (plus one
//!    branch for the bucket index). Instrument *handles* are cheap clones
//!    of `Arc`s created once at component construction; no string hashing
//!    happens on the data path.
//! 2. **No-op mode** — a registry built with [`MetricsRegistry::disabled`]
//!    hands out instruments whose recording methods are a single `None`
//!    check.
//! 3. **Determinism** — histogram bucket boundaries are a fixed log-linear
//!    layout (4 linear sub-buckets per power of two), so two runs that
//!    record the same values produce bit-identical snapshots, and
//!    count-valued metrics of a seeded simulation replay exactly.
//!
//! Naming follows the Prometheus convention: `snake_case` with a
//! `_total` suffix for counters and a `_ns` suffix for nanosecond
//! histograms; labels distinguish instances (`{subscriber="alerts"}`,
//! `{shard="3"}`).

use parking_lot::RwLock;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of linear sub-buckets per power of two (must be a power of two).
const SUB: u64 = 4;
/// log2 of [`SUB`].
const SUB_BITS: u32 = 2;
/// Total number of histogram buckets in the fixed layout.
pub const HISTOGRAM_BUCKETS: usize = (SUB as usize) + (64 - SUB_BITS as usize) * SUB as usize;

/// Bucket index of a value in the fixed log-linear layout.
///
/// Values `0..4` get exact buckets; beyond that each power-of-two octave is
/// split into 4 linear sub-buckets, giving a worst-case relative width of
/// 25% across the full `u64` range.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    SUB as usize + ((exp - SUB_BITS) as usize) * SUB as usize + sub as usize
}

/// Inclusive lower bound of bucket `idx`.
#[inline]
pub fn bucket_lower(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let block = (idx - SUB as usize) / SUB as usize;
    let sub = ((idx - SUB as usize) % SUB as usize) as u64;
    let exp = block as u32 + SUB_BITS;
    (1u64 << exp) + (sub << (exp - SUB_BITS))
}

/// Exclusive upper bound of bucket `idx` (`u64::MAX` for the last bucket).
#[inline]
pub fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(idx + 1)
    }
}

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell; a counter from a disabled registry
/// ignores all increments.
#[derive(Clone)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A counter that records nothing (for disabled registries).
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for no-op counters).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Clone)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A gauge that records nothing.
    pub fn noop() -> Self {
        Gauge { cell: None }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for no-op gauges).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

struct HistogramCell {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }
}

/// An in-flight latency measurement started by [`Histogram::start_timer`].
///
/// Carries `None` when the histogram is a no-op, so disabled registries
/// skip the clock read entirely.
#[must_use = "pass the timer back to Histogram::observe_timer"]
pub struct Timer(Option<Instant>);

/// A fixed-layout log-linear histogram of `u64` values (by convention,
/// nanoseconds for instruments named `*_ns`).
#[derive(Clone)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// A histogram that records nothing.
    pub fn noop() -> Self {
        Histogram { cell: None }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.record(v);
        }
    }

    /// Starts a wall-clock timer; a disabled histogram skips the clock read.
    #[inline]
    pub fn start_timer(&self) -> Timer {
        // odalint: allow(wall-clock) -- self-observability timer; excluded from output digests
        Timer(self.cell.as_ref().map(|_| Instant::now()))
    }

    /// Records the elapsed nanoseconds of `timer`.
    #[inline]
    pub fn observe_timer(&self, timer: Timer) {
        if let (Some(cell), Some(start)) = (&self.cell, timer.0) {
            cell.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Deterministic percentile estimate for `q` in `0..=1`.
    ///
    /// Returns the midpoint of the bucket holding the `q`-th value, capped
    /// at the exact recorded maximum — a relative error of at most 12.5%
    /// for values ≥ 4, and exact below that. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let cell = self.cell.as_ref()?;
        let total = cell.count.load(Ordering::Relaxed);
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).max(1);
        let max = cell.max.load(Ordering::Relaxed);
        let mut cum = 0u64;
        for (idx, b) in cell.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                let lo = bucket_lower(idx);
                let hi = bucket_upper(idx);
                let mid = lo + (hi.saturating_sub(lo)) / 2;
                return Some(mid.min(max));
            }
        }
        Some(max)
    }

    /// Maximum recorded value (exact).
    pub fn max(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.max.load(Ordering::Relaxed))
    }

    /// Sum of recorded values (exact).
    pub fn sum(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CounterSnapshot {
    /// Full instrument identity, `name` or `name{label="v",...}`.
    pub id: String,
    /// Counter value.
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeSnapshot {
    /// Full instrument identity.
    pub id: String,
    /// Gauge value.
    pub value: f64,
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Full instrument identity.
    pub id: String,
    /// Values recorded.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Median estimate (fixed-bucket deterministic).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// A consistent-enough point-in-time view of every instrument in a
/// registry, ordered by instrument identity (deterministic).
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by id.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by id.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by id.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Every *count-valued* metric: counters plus histogram counts.
    ///
    /// These are exactly the values that must replay identically for two
    /// seeded runs (histogram timings are wall-clock and excluded).
    pub fn count_values(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|c| (c.id.clone(), c.value))
            .collect();
        out.extend(
            self.histograms
                .iter()
                .map(|h| (format!("{}_count", h.id), h.count)),
        );
        out
    }

    /// Value of the counter with the exact id, if present.
    pub fn counter(&self, id: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.id == id).map(|c| c.value)
    }

    /// Histogram snapshot with the exact id, if present.
    pub fn histogram(&self, id: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.id == id)
    }
}

type InstrumentKey = (String, String); // (name, rendered label list)

struct RegistryInner {
    counters: RwLock<BTreeMap<InstrumentKey, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<InstrumentKey, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<InstrumentKey, Arc<HistogramCell>>>,
}

/// Registry of named, labeled instruments.
///
/// Cheap to clone (clones share state). Instrument creation is idempotent:
/// asking twice for the same `(name, labels)` returns handles onto the same
/// cell. A disabled registry ([`MetricsRegistry::disabled`]) interns
/// nothing and hands out no-op instruments.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Escapes one label *value* per the Prometheus text exposition format:
/// backslash first (so later escapes aren't double-escaped), then
/// double-quote, then newline — the three characters the spec requires
/// escaping inside a quoted label value. Adversarial sensor names (a
/// subscriber named `a"b\n{}`) would otherwise break line-oriented
/// scrapers or inject fake series.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Counts instrument lookups ([`MetricsRegistry::counter`], `gauge`,
/// `histogram`) on the calling thread, for the tests that hold a hot path
/// to none.
#[cfg(test)]
pub(crate) mod lookups {
    use std::cell::Cell;

    thread_local!(static LOOKUPS: Cell<usize> = const { Cell::new(0) });

    pub(super) fn count() {
        LOOKUPS.with(|l| l.set(l.get() + 1));
    }

    /// Lookups made since the last call on this thread.
    pub(crate) fn take() -> usize {
        LOOKUPS.with(|l| l.replace(0))
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    pairs.sort();
    pairs.join(",")
}

fn instrument_id(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_owned()
    } else {
        format!("{name}{{{labels}}}")
    }
}

fn check_name(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "metric names must be non-empty [a-zA-Z0-9_:]+, got {name:?}"
    );
}

impl MetricsRegistry {
    /// Creates an enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner {
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
            })),
        }
    }

    /// Creates a registry whose instruments are all no-ops — the "no-op
    /// recorder" the ingest bench compares against.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// `false` for no-op registries.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Counter handle for `(name, labels)` (created on first use).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        #[cfg(test)]
        lookups::count();
        check_name(name);
        let Some(inner) = &self.inner else {
            return Counter::noop();
        };
        let key = (name.to_owned(), render_labels(labels));
        let cell = Arc::clone(
            inner
                .counters
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        );
        Counter { cell: Some(cell) }
    }

    /// Gauge handle for `(name, labels)` (created on first use).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        #[cfg(test)]
        lookups::count();
        check_name(name);
        let Some(inner) = &self.inner else {
            return Gauge::noop();
        };
        let key = (name.to_owned(), render_labels(labels));
        let cell = Arc::clone(
            inner
                .gauges
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
        );
        Gauge { cell: Some(cell) }
    }

    /// Histogram handle for `(name, labels)` (created on first use).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        #[cfg(test)]
        lookups::count();
        check_name(name);
        let Some(inner) = &self.inner else {
            return Histogram::noop();
        };
        let key = (name.to_owned(), render_labels(labels));
        let cell = Arc::clone(
            inner
                .histograms
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(HistogramCell::new())),
        );
        Histogram { cell: Some(cell) }
    }

    /// Number of registered instruments.
    pub fn instrument_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| {
            i.counters.read().len() + i.gauges.read().len() + i.histograms.read().len()
        })
    }

    /// Point-in-time snapshot of every instrument, deterministically
    /// ordered by instrument identity.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .read()
            .iter()
            .map(|((name, labels), cell)| CounterSnapshot {
                id: instrument_id(name, labels),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = inner
            .gauges
            .read()
            .iter()
            .map(|((name, labels), cell)| GaugeSnapshot {
                id: instrument_id(name, labels),
                value: f64::from_bits(cell.load(Ordering::Relaxed)),
            })
            .collect();
        let histograms = inner
            .histograms
            .read()
            .iter()
            .map(|((name, labels), cell)| {
                let h = Histogram {
                    cell: Some(Arc::clone(cell)),
                };
                HistogramSnapshot {
                    id: instrument_id(name, labels),
                    count: h.count(),
                    sum: h.sum(),
                    max: h.max(),
                    p50: h.percentile(0.50).unwrap_or(0),
                    p95: h.percentile(0.95).unwrap_or(0),
                    p99: h.percentile(0.99).unwrap_or(0),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Prometheus-style text exposition of every instrument.
    ///
    /// Counters and gauges render as single samples; histograms render as
    /// `_count`/`_sum`/`_max` samples plus `quantile`-labeled summary rows.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let snap = self.snapshot();
        let mut out = String::new();
        for c in &snap.counters {
            let _ = writeln!(out, "{} {}", c.id, c.value);
        }
        for g in &snap.gauges {
            let _ = writeln!(out, "{} {}", g.id, g.value);
        }
        let requantile = |id: &str, q: &str| -> String {
            match id.split_once('{') {
                Some((name, rest)) => format!("{name}{{quantile=\"{q}\",{rest}"),
                None => format!("{id}{{quantile=\"{q}\"}}"),
            }
        };
        let resuffix = |id: &str, suffix: &str| -> String {
            match id.split_once('{') {
                Some((name, rest)) => format!("{name}{suffix}{{{rest}"),
                None => format!("{id}{suffix}"),
            }
        };
        for h in &snap.histograms {
            let _ = writeln!(out, "{} {}", resuffix(&h.id, "_count"), h.count);
            let _ = writeln!(out, "{} {}", resuffix(&h.id, "_sum"), h.sum);
            let _ = writeln!(out, "{} {}", resuffix(&h.id, "_max"), h.max);
            let _ = writeln!(out, "{} {}", requantile(&h.id, "0.5"), h.p50);
            let _ = writeln!(out, "{} {}", requantile(&h.id, "0.95"), h.p95);
            let _ = writeln!(out, "{} {}", requantile(&h.id, "0.99"), h.p99);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every bucket's upper bound is the next bucket's lower bound, and
        // every value maps into the bucket that brackets it.
        for idx in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_upper(idx), bucket_lower(idx + 1), "idx {idx}");
        }
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            1_000_000,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(bucket_lower(idx) <= v, "v={v} idx={idx}");
            assert!(
                v <= bucket_upper(idx).saturating_sub(1).max(bucket_lower(idx))
                    || bucket_upper(idx) == u64::MAX,
                "v={v} idx={idx}"
            );
        }
        // Small values are exact buckets.
        for v in 0..4u64 {
            assert_eq!(bucket_lower(bucket_index(v)), v);
        }
        // Sub-bucket relative width ≤ 25%.
        for v in [64u64, 1_000, 123_456, 1 << 40] {
            let idx = bucket_index(v);
            let width = bucket_upper(idx) - bucket_lower(idx);
            assert!(
                (width as f64) <= bucket_lower(idx) as f64 / 4.0 + 1.0,
                "v={v}"
            );
        }
    }

    #[test]
    fn histogram_percentiles_are_bucket_accurate() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency_ns", &[]);
        for v in 1..=100u64 {
            h.record(v * 10); // 10, 20, ..., 1000
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 1_000);
        assert_eq!(h.sum(), (1..=100u64).map(|v| v * 10).sum::<u64>());
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        // True p50 = 500, p99 = 990; buckets guarantee ≤ 12.5% error.
        assert!((p50 as f64 - 500.0).abs() / 500.0 <= 0.125, "p50={p50}");
        assert!((p99 as f64 - 990.0).abs() / 990.0 <= 0.125, "p99={p99}");
        // Percentiles never exceed the exact max.
        assert!(h.percentile(1.0).unwrap() <= 1_000);
        // Single-value histograms report that value exactly at small sizes.
        let h2 = reg.histogram("one_ns", &[]);
        h2.record(3);
        assert_eq!(h2.percentile(0.5), Some(3));
    }

    #[test]
    fn percentiles_are_deterministic_across_identical_runs() {
        let record = || {
            let reg = MetricsRegistry::new();
            let h = reg.histogram("x_ns", &[]);
            for v in [9u64, 100, 17, 40_000, 3, 900, 900, 123_456_789] {
                h.record(v);
            }
            let s = reg.snapshot();
            s.histogram("x_ns").unwrap().clone()
        };
        assert_eq!(record(), record());
    }

    #[test]
    fn labels_distinguish_instruments_and_are_order_insensitive() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("delivered_total", &[("subscriber", "alerts")]);
        let b = reg.counter("delivered_total", &[("subscriber", "dash")]);
        let a2 = reg.counter("delivered_total", &[("subscriber", "alerts")]);
        a.inc();
        a.inc();
        b.inc();
        a2.inc();
        assert_eq!(a.get(), 3, "same (name, labels) shares one cell");
        assert_eq!(b.get(), 1);
        // Label order does not create a new instrument.
        let c1 = reg.counter("x_total", &[("a", "1"), ("b", "2")]);
        let c2 = reg.counter("x_total", &[("b", "2"), ("a", "1")]);
        c1.inc();
        assert_eq!(c2.get(), 1);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("delivered_total{subscriber=\"alerts\"}"),
            Some(3)
        );
        assert_eq!(
            snap.counter("delivered_total{subscriber=\"dash\"}"),
            Some(1)
        );
        assert_eq!(snap.counter("x_total{a=\"1\",b=\"2\"}"), Some(1));
    }

    #[test]
    #[should_panic(expected = "metric names")]
    fn bad_metric_names_are_rejected() {
        MetricsRegistry::new().counter("bad name", &[]);
    }

    #[test]
    fn disabled_registry_is_a_noop() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("c_total", &[]);
        let g = reg.gauge("g", &[]);
        let h = reg.histogram("h_ns", &[]);
        c.add(5);
        g.set(1.5);
        h.record(100);
        let t = h.start_timer();
        h.observe_timer(t);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(reg.instrument_count(), 0);
        assert!(reg.snapshot().counters.is_empty());
        assert!(reg.render_prometheus().is_empty());
    }

    #[test]
    fn gauge_holds_last_value() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("water_temp_c", &[("loop", "primary")]);
        g.set(17.25);
        g.set(18.5);
        assert_eq!(g.get(), 18.5);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.gauges[0].value, 18.5);
    }

    #[test]
    fn timer_records_elapsed_time() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("sleep_ns", &[]);
        let t = h.start_timer();
        std::thread::sleep(std::time::Duration::from_millis(2));
        h.observe_timer(t);
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000_000, "slept ≥ 1ms, got {} ns", h.max());
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let reg = MetricsRegistry::new();
        reg.counter("pub_total", &[]).add(7);
        reg.counter("shed_total", &[("subscriber", "x")]).add(2);
        reg.histogram("lat_ns", &[("shard", "0")]).record(100);
        let text = reg.render_prometheus();
        assert!(text.contains("pub_total 7\n"), "{text}");
        assert!(text.contains("shed_total{subscriber=\"x\"} 2\n"), "{text}");
        assert!(text.contains("lat_ns_count{shard=\"0\"} 1\n"), "{text}");
        assert!(
            text.contains("lat_ns{quantile=\"0.5\",shard=\"0\"}"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_label_values_escape_adversarial_sensor_names() {
        // Exposition-format spec: label values must escape backslash,
        // double-quote and newline. An adversarial sensor/subscriber name
        // containing all three must render as one parseable line.
        let reg = MetricsRegistry::new();
        let hostile = "a\"b\\c\nd";
        reg.counter("bus_shed_total", &[("subscriber", hostile)])
            .add(1);
        let text = reg.render_prometheus();
        assert!(
            text.contains("bus_shed_total{subscriber=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "{text}"
        );
        // No raw newline may survive inside any rendered line: every line
        // must be `name{labels} value` with exactly two unescaped quotes.
        for line in text.lines() {
            let unescaped = line.matches('"').count() - line.matches("\\\"").count();
            assert_eq!(unescaped, 2, "unbalanced quotes in {line:?}");
        }
    }

    #[test]
    fn snapshot_count_values_cover_counters_and_histogram_counts() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", &[]).add(3);
        reg.histogram("b_ns", &[]).record(10);
        let cv = reg.snapshot().count_values();
        assert!(cv.contains(&("a_total".to_owned(), 3)));
        assert!(cv.contains(&("b_ns_count".to_owned(), 1)));
    }

    #[test]
    // Thread-stress (8 x 1000 increments): prohibitively slow under Miri's
    // interpreter; the nightly TSan lane exercises these interleavings.
    #[cfg_attr(miri, ignore)]
    fn concurrent_recording_loses_nothing() {
        let reg = MetricsRegistry::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("threads_total", &[]);
                let h = reg.histogram("work_ns", &[]);
                for i in 0..1_000u64 {
                    c.inc();
                    h.record(i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("threads_total", &[]).get(), 8_000);
        assert_eq!(reg.histogram("work_ns", &[]).count(), 8_000);
    }
}
