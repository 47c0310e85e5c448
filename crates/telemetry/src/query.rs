//! Analytical read path over the time-series store.
//!
//! The read API is one fluent builder: [`Query`] names *what* to read (by
//! sensor ids or by pattern), *when* (a [`TimeRange`]), and *what shape* the
//! answer takes — raw readings, fixed-width [`Bucket`]s, per-sensor scalars,
//! or a timestamp-aligned matrix (the multi-dimensional input the paper's
//! diagnostic techniques ingest). All of it composes into a single planned
//! scan executed by [`Query::run`] against a [`QueryEngine`]:
//!
//! ```
//! use oda_telemetry::prelude::*;
//! # let store = TimeSeriesStore::with_capacity(16);
//! # let s = SensorId(0);
//! # store.insert(s, Reading::new(Timestamp::ZERO, 1.0));
//! let engine = QueryEngine::new(&store);
//! let mean = Query::sensors(s)
//!     .range(TimeRange::all())
//!     .aggregate(Aggregation::Mean)
//!     .run(&engine)
//!     .scalar();
//! assert_eq!(mean, Some(1.0));
//! ```
//!
//! A query of any width is one loop over its sensors on the calling thread
//! — fetch (tier scan or raw range), tally, shape — so a read creates no
//! thread and holds one sensor's readings at a time. Measured, not assumed:
//! at the 128-sensor width the ODA passes read a 128-node site at, the
//! thread fan-out this loop replaced (a scope per query from 64 sensors up,
//! and an `available_parallelism()` lookup per query at every width) made
//! a 16-cell, 669-query pass 31.6 ms where this loop makes it 8.5 ms
//! (EXPERIMENTS.md, *Closed ablations*). Every executed query
//! records `query_total`, `query_scan_ns` and
//! `query_readings_scanned_total` into the store's metrics registry.
//!
//! ## Rollup-tier planning
//!
//! For the decomposable aggregations (`Mean`/`Min`/`Max`/`Sum`/`Count`/
//! `First`/`Last`) the planner consults the store's rollup tiers
//! (`TimeSeriesStore::read_window`) instead of rescanning raw readings:
//!
//! * [`Query::aggregate`] — any tier may serve the aligned core of the range;
//! * [`Query::downsample`] / [`Query::align`] — only tiers whose bucket
//!   width **divides** the requested width are eligible (both bucket from
//!   epoch zero, so each request bucket is a whole number of tier buckets);
//! * the **coarsest** eligible tier wins; unaligned range edges are scanned
//!   raw and merged, so answers are identical to a full raw scan.
//!
//! Rate queries ([`Query::rate`]), non-decomposable aggregations
//! (`StdDev`/`Quantile`/`TimeWeightedMean`) and [`Query::raw_scan`] always
//! scan raw. These and the raw-readings shape copy each sensor's window out
//! once; every tier-planned shape folds the window where the store lends
//! it, under the shard's read lock — a scalar straight from the borrowed
//! runs, a bucketed shape copying a raw piece into the scan's one scratch
//! buffer only when the ring's wrap point splits it. Planner outcomes are
//! recorded as `query_tier_hit_total` / `query_tier_miss_total` /
//! `query_readings_avoided_total` / `query_rollup_buckets_scanned_total`.
//!
//! The former method-per-shape API (`range`/`aggregate`/`downsample`/...)
//! has been removed; the builder is the only query surface. `odalint`'s
//! `deprecated-api` rule keeps the removed names from coming back.

use crate::hash::fnv1a64;
use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::pattern::SensorPattern;
use crate::reading::{Reading, Timestamp};
use crate::sensor::{SensorId, SensorRegistry};
use crate::store::{nth, sub, RollupBucket, Slices, TierView, TimeSeriesStore, Window};
use serde::{Serialize, Value};

/// Half-open query interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TimeRange {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl TimeRange {
    /// The full axis.
    pub fn all() -> Self {
        TimeRange {
            start: Timestamp::ZERO,
            end: Timestamp::MAX,
        }
    }

    /// `[start, end)`; callers must ensure `start <= end` (an inverted range
    /// is simply empty).
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        TimeRange { start, end }
    }

    /// The trailing window of `window_ms` ending at `now` (exclusive of
    /// `now` itself plus one, i.e. `[now - window, now]` behaves as expected
    /// for sampled data).
    pub fn trailing(now: Timestamp, window_ms: u64) -> Self {
        TimeRange {
            start: now - window_ms,
            end: now + 1,
        }
    }
}

/// Scalar aggregation functions over a range of readings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Aggregation {
    /// Arithmetic mean of values.
    Mean,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Sum of values.
    Sum,
    /// Number of readings, as f64.
    Count,
    /// Population standard deviation.
    StdDev,
    /// Last value in the range.
    Last,
    /// First value in the range.
    First,
    /// Exact quantile `q` in `0..=1` (sorts the window; fine for the window
    /// sizes dashboards use — streaming quantiles live in `oda-analytics`).
    Quantile(f64),
    /// Time-weighted mean: each value weighted by the duration until the next
    /// sample; the final sample (which has no successor) is weighted by the
    /// median inter-sample gap. The natural aggregate for
    /// irregularly-sampled power/temp data.
    TimeWeightedMean,
}

/// One downsampled bucket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Bucket {
    /// Bucket start (aligned to the bucket width).
    pub start: Timestamp,
    /// Aggregated value of the readings falling in the bucket.
    pub value: f64,
    /// Number of raw readings aggregated.
    pub count: usize,
}

/// What a [`Query`] selects: explicit sensor ids or a name pattern resolved
/// against a registry at execution time.
#[derive(Debug, Clone)]
pub enum SensorSelector {
    /// Explicit ids, scanned in the given order.
    Ids(Vec<SensorId>),
    /// All sensors whose name matches, in ascending id order (deterministic).
    /// Requires an engine built with [`QueryEngine::with_registry`].
    Pattern(SensorPattern),
}

impl SensorSelector {
    /// Resolves to the concrete ordered sensor list every query plane
    /// scans: explicit ids as given; patterns matched against `registry`
    /// in ascending id order.
    ///
    /// # Panics
    /// Panics if the selector is a pattern and `registry` is `None`.
    pub(crate) fn resolve(self, registry: Option<&SensorRegistry>) -> Vec<SensorId> {
        match self {
            SensorSelector::Ids(ids) => ids,
            SensorSelector::Pattern(pattern) => {
                let registry = registry.unwrap_or_else(|| {
                    panic!(
                        "pattern query {:?} needs a registry; build the engine with \
                         QueryEngine::new(store).with_registry(registry)",
                        pattern.as_str()
                    )
                });
                registry.matching(&pattern)
            }
        }
    }
}

impl From<SensorId> for SensorSelector {
    fn from(id: SensorId) -> Self {
        SensorSelector::Ids(vec![id])
    }
}

impl From<Vec<SensorId>> for SensorSelector {
    fn from(ids: Vec<SensorId>) -> Self {
        SensorSelector::Ids(ids)
    }
}

impl From<&Vec<SensorId>> for SensorSelector {
    fn from(ids: &Vec<SensorId>) -> Self {
        SensorSelector::Ids(ids.clone())
    }
}

impl From<&[SensorId]> for SensorSelector {
    fn from(ids: &[SensorId]) -> Self {
        SensorSelector::Ids(ids.to_vec())
    }
}

impl<const N: usize> From<[SensorId; N]> for SensorSelector {
    fn from(ids: [SensorId; N]) -> Self {
        SensorSelector::Ids(ids.to_vec())
    }
}

impl<const N: usize> From<&[SensorId; N]> for SensorSelector {
    fn from(ids: &[SensorId; N]) -> Self {
        SensorSelector::Ids(ids.to_vec())
    }
}

impl From<SensorPattern> for SensorSelector {
    fn from(pattern: SensorPattern) -> Self {
        SensorSelector::Pattern(pattern)
    }
}

impl From<&SensorPattern> for SensorSelector {
    fn from(pattern: &SensorPattern) -> Self {
        SensorSelector::Pattern(pattern.clone())
    }
}

impl From<&str> for SensorSelector {
    fn from(pattern: &str) -> Self {
        SensorSelector::Pattern(SensorPattern::new(pattern))
    }
}

/// Output shape a query has been composed into.
///
/// Crate-visible so the cluster coordinator can split a query into
/// per-shard sub-queries of the same shape and reassemble the partials
/// (see [`crate::cluster`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Shape {
    Readings,
    Buckets { bucket_ms: u64, agg: Aggregation },
    Scalars(Aggregation),
    Aligned { bucket_ms: u64 },
}

/// A composable read over the store: selector + range + optional rate
/// derivation + output shape, planned as one scan.
///
/// Build with [`Query::sensors`], refine with the chainable methods, execute
/// with [`Query::run`]. At most one shaping method
/// ([`downsample`](Self::downsample) / [`aggregate`](Self::aggregate) /
/// [`align`](Self::align)) may be applied; composing two panics, since the
/// second would silently discard the first.
#[derive(Debug, Clone)]
#[must_use = "a Query does nothing until .run(&engine)"]
pub struct Query {
    pub(crate) selector: SensorSelector,
    pub(crate) range: TimeRange,
    pub(crate) rate: bool,
    pub(crate) raw_only: bool,
    pub(crate) shape: Shape,
}

impl Query {
    /// Starts a query over `sensors`: a [`SensorId`], a slice/`Vec` of ids,
    /// a [`SensorPattern`], or a pattern string like `"/hw/*/power"`.
    pub fn sensors(sensors: impl Into<SensorSelector>) -> Self {
        Query {
            selector: sensors.into(),
            range: TimeRange::all(),
            rate: false,
            raw_only: false,
            shape: Shape::Readings,
        }
    }

    /// Restricts the scan to `range` (default: the full axis).
    pub fn range(mut self, range: TimeRange) -> Self {
        self.range = range;
        self
    }

    /// Derives a rate series from cumulative counters before shaping: each
    /// reading becomes `(vᵢ₊₁ - vᵢ) / Δt_seconds` stamped at the later
    /// timestamp; counter resets (negative deltas) emit a rate of `0` at
    /// the reset point, see [`rate_readings`].
    pub fn rate(mut self) -> Self {
        self.rate = true;
        self
    }

    /// Forces a raw-readings scan even where a rollup tier could serve the
    /// requested shape exactly — the ablation baseline for measuring what
    /// the tiers save, also useful when debugging the planner itself.
    pub fn raw_scan(mut self) -> Self {
        self.raw_only = true;
        self
    }

    fn set_shape(mut self, shape: Shape) -> Self {
        assert!(
            matches!(self.shape, Shape::Readings),
            "query is already shaped ({:?}); use at most one of downsample/aggregate/align",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Downsamples each sensor into fixed `bucket_ms`-wide [`Bucket`]s,
    /// aggregating each bucket with `agg`. Empty buckets are omitted.
    ///
    /// # Panics
    /// Panics if `bucket_ms == 0` or the query is already shaped.
    pub fn downsample(self, bucket_ms: u64, agg: Aggregation) -> Self {
        assert!(bucket_ms > 0, "bucket width must be positive");
        self.set_shape(Shape::Buckets { bucket_ms, agg })
    }

    /// Reduces each sensor's readings to one scalar with `agg` (`None` for
    /// sensors with no readings in range).
    ///
    /// # Panics
    /// Panics if the query is already shaped.
    pub fn aggregate(self, agg: Aggregation) -> Self {
        self.set_shape(Shape::Scalars(agg))
    }

    /// Aligns all selected sensors onto a common `bucket_ms` grid of
    /// per-bucket means — the standard preprocessing step for multivariate
    /// diagnostics.
    ///
    /// # NaN semantics
    /// A cell where a sensor has no sample in that bucket is `f64::NAN`,
    /// meaning **"no data"**, never zero. `NaN` is deliberately not
    /// interpolated here: consumers decide how to treat gaps. Every
    /// estimator in `oda-analytics` skips non-finite cells (pairwise for
    /// correlation); any new consumer of [`QueryResult::aligned`] must
    /// either filter with `f64::is_finite` or use those NaN-aware
    /// estimators, or a single ragged sensor will poison its output.
    ///
    /// # Panics
    /// Panics if `bucket_ms == 0` or the query is already shaped.
    pub fn align(self, bucket_ms: u64) -> Self {
        assert!(bucket_ms > 0, "bucket width must be positive");
        self.set_shape(Shape::Aligned { bucket_ms })
    }

    /// Pins the selector to `sensors`, the ids a plane has already
    /// resolved it to ([`QueryPlane::resolve`](crate::plane::QueryPlane::resolve)),
    /// so executing the query matches no names again and its result lists
    /// exactly `sensors`.
    pub fn pinned(mut self, sensors: Vec<SensorId>) -> Self {
        self.selector = SensorSelector::Ids(sensors);
        self
    }

    /// Executes the query as one planned scan.
    ///
    /// # Panics
    /// Panics if the selector is a pattern and `engine` has no registry
    /// attached (see [`QueryEngine::with_registry`]).
    pub fn run(self, engine: &QueryEngine<'_>) -> QueryResult {
        engine.execute(self)
    }

    /// Renders the query as its **canonical wire representation** — the one
    /// JSON form shared by the HTTP frontend (`oda-serve`) and the
    /// result-cache key normalization. Every field is emitted, in a fixed
    /// order, so two semantically identical queries render byte-identically:
    ///
    /// ```json
    /// {"selector":{"ids":[0,3]},
    ///  "range":{"start_ms":0,"end_ms":18446744073709551615},
    ///  "rate":false,"raw_scan":false,
    ///  "shape":{"kind":"scalars","agg":"mean"}}
    /// ```
    ///
    /// Selectors are `{"ids":[u32...]}` or `{"pattern":"/hw/*/power"}`;
    /// shapes are `{"kind":"readings"}`, `{"kind":"buckets","bucket_ms":w,
    /// "agg":A}`, `{"kind":"scalars","agg":A}` or `{"kind":"aligned",
    /// "bucket_ms":w}`; aggregations are lower-snake-case strings
    /// (`"mean"`, `"time_weighted_mean"`, ...) except `{"quantile":q}`.
    ///
    /// [`Query::from_json`] inverts this exactly, and
    /// `from_json(s)?.to_json()` is the canonical normalization of any
    /// accepted input `s` (key order, omitted defaults, number formatting).
    pub fn to_json(&self) -> String {
        let selector = match &self.selector {
            SensorSelector::Ids(ids) => Value::Object(vec![(
                "ids".to_string(),
                Value::Array(ids.iter().map(|s| Value::U64(s.0 as u64)).collect()),
            )]),
            SensorSelector::Pattern(p) => Value::Object(vec![(
                "pattern".to_string(),
                Value::Str(p.as_str().to_string()),
            )]),
        };
        let range = Value::Object(vec![
            ("start_ms".to_string(), Value::U64(self.range.start.0)),
            ("end_ms".to_string(), Value::U64(self.range.end.0)),
        ]);
        let shape = match self.shape {
            Shape::Readings => Value::Object(vec![kind("readings")]),
            Shape::Buckets { bucket_ms, agg } => Value::Object(vec![
                kind("buckets"),
                ("bucket_ms".to_string(), Value::U64(bucket_ms)),
                ("agg".to_string(), agg_to_wire(agg)),
            ]),
            Shape::Scalars(agg) => {
                Value::Object(vec![kind("scalars"), ("agg".to_string(), agg_to_wire(agg))])
            }
            Shape::Aligned { bucket_ms } => Value::Object(vec![
                kind("aligned"),
                ("bucket_ms".to_string(), Value::U64(bucket_ms)),
            ]),
        };
        let doc = Value::Object(vec![
            ("selector".to_string(), selector),
            ("range".to_string(), range),
            ("rate".to_string(), Value::Bool(self.rate)),
            ("raw_scan".to_string(), Value::Bool(self.raw_only)),
            ("shape".to_string(), shape),
        ]);
        serde_json::to_string(&doc).unwrap_or_default()
    }

    /// Parses the wire representation produced by [`Query::to_json`].
    ///
    /// `selector` is required; `range` defaults to [`TimeRange::all`],
    /// `rate` and `raw_scan` to `false`, and `shape` to raw readings.
    /// Unknown top-level or shape keys are rejected (a typo like
    /// `"agregation"` must not silently fall back to defaults), as are
    /// out-of-range numbers and a zero `bucket_ms`.
    pub fn from_json(s: &str) -> Result<Query, QueryParseError> {
        let doc = serde_json::from_str(s).map_err(|e| QueryParseError(e.to_string()))?;
        let entries = match &doc {
            Value::Object(entries) => entries,
            _ => return Err(QueryParseError("query must be a JSON object".into())),
        };
        for (k, _) in entries {
            if !matches!(
                k.as_str(),
                "selector" | "range" | "rate" | "raw_scan" | "shape"
            ) {
                return Err(QueryParseError(format!("unknown query field {k:?}")));
            }
        }
        let selector = doc
            .get("selector")
            .ok_or_else(|| QueryParseError("missing required field \"selector\"".into()))?;
        let selector = selector_from_wire(selector)?;
        let range = match doc.get("range") {
            Some(r) => range_from_wire(r)?,
            None => TimeRange::all(),
        };
        let rate = match doc.get("rate") {
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(QueryParseError("\"rate\" must be a boolean".into())),
            None => false,
        };
        let raw_only = match doc.get("raw_scan") {
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(QueryParseError("\"raw_scan\" must be a boolean".into())),
            None => false,
        };
        let shape = match doc.get("shape") {
            Some(s) => shape_from_wire(s)?,
            None => Shape::Readings,
        };
        Ok(Query {
            selector,
            range,
            rate,
            raw_only,
            shape,
        })
    }
}

/// Error from [`Query::from_json`]: what made the document unacceptable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError(String);

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid query: {}", self.0)
    }
}

impl std::error::Error for QueryParseError {}

fn kind(k: &str) -> (String, Value) {
    ("kind".to_string(), Value::Str(k.to_string()))
}

fn agg_to_wire(agg: Aggregation) -> Value {
    let name = match agg {
        Aggregation::Mean => "mean",
        Aggregation::Min => "min",
        Aggregation::Max => "max",
        Aggregation::Sum => "sum",
        Aggregation::Count => "count",
        Aggregation::StdDev => "std_dev",
        Aggregation::Last => "last",
        Aggregation::First => "first",
        Aggregation::TimeWeightedMean => "time_weighted_mean",
        Aggregation::Quantile(q) => {
            return Value::Object(vec![("quantile".to_string(), Value::F64(q))])
        }
    };
    Value::Str(name.to_string())
}

fn agg_from_wire(v: &Value) -> Result<Aggregation, QueryParseError> {
    match v {
        Value::Str(s) => match s.as_str() {
            "mean" => Ok(Aggregation::Mean),
            "min" => Ok(Aggregation::Min),
            "max" => Ok(Aggregation::Max),
            "sum" => Ok(Aggregation::Sum),
            "count" => Ok(Aggregation::Count),
            "std_dev" => Ok(Aggregation::StdDev),
            "last" => Ok(Aggregation::Last),
            "first" => Ok(Aggregation::First),
            "time_weighted_mean" => Ok(Aggregation::TimeWeightedMean),
            other => Err(QueryParseError(format!("unknown aggregation {other:?}"))),
        },
        Value::Object(entries) => match entries.as_slice() {
            [(k, q)] if k == "quantile" => {
                let q = wire_f64(q)
                    .ok_or_else(|| QueryParseError("\"quantile\" must be a number".into()))?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(QueryParseError(format!("quantile {q} outside 0..=1")));
                }
                Ok(Aggregation::Quantile(q))
            }
            _ => Err(QueryParseError(
                "aggregation object must be exactly {\"quantile\": q}".into(),
            )),
        },
        _ => Err(QueryParseError(
            "aggregation must be a string or {\"quantile\": q}".into(),
        )),
    }
}

fn selector_from_wire(v: &Value) -> Result<SensorSelector, QueryParseError> {
    let entries = match v {
        Value::Object(entries) => entries,
        _ => return Err(QueryParseError("\"selector\" must be an object".into())),
    };
    match entries.as_slice() {
        [(k, Value::Array(ids))] if k == "ids" => {
            let ids = ids
                .iter()
                .map(|id| match wire_u64(id) {
                    Some(n) if n <= u32::MAX as u64 => Ok(SensorId(n as u32)),
                    _ => Err(QueryParseError("sensor ids must be u32 integers".into())),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SensorSelector::Ids(ids))
        }
        [(k, Value::Str(p))] if k == "pattern" => {
            Ok(SensorSelector::Pattern(SensorPattern::new(p)))
        }
        _ => Err(QueryParseError(
            "selector must be exactly {\"ids\":[...]} or {\"pattern\":\"...\"}".into(),
        )),
    }
}

fn range_from_wire(v: &Value) -> Result<TimeRange, QueryParseError> {
    let entries = match v {
        Value::Object(entries) => entries,
        _ => return Err(QueryParseError("\"range\" must be an object".into())),
    };
    for (k, _) in entries {
        if !matches!(k.as_str(), "start_ms" | "end_ms") {
            return Err(QueryParseError(format!("unknown range field {k:?}")));
        }
    }
    let field = |name: &str, default: u64| -> Result<u64, QueryParseError> {
        match v.get(name) {
            Some(n) => wire_u64(n)
                .ok_or_else(|| QueryParseError(format!("{name:?} must be a u64 integer"))),
            None => Ok(default),
        }
    };
    let start = field("start_ms", 0)?;
    let end = field("end_ms", u64::MAX)?;
    if start > end {
        return Err(QueryParseError(format!(
            "range start {start} exceeds end {end}"
        )));
    }
    Ok(TimeRange::new(Timestamp(start), Timestamp(end)))
}

fn shape_from_wire(v: &Value) -> Result<Shape, QueryParseError> {
    let entries = match v {
        Value::Object(entries) => entries,
        _ => return Err(QueryParseError("\"shape\" must be an object".into())),
    };
    for (k, _) in entries {
        if !matches!(k.as_str(), "kind" | "bucket_ms" | "agg") {
            return Err(QueryParseError(format!("unknown shape field {k:?}")));
        }
    }
    let kind = match v.get("kind") {
        Some(Value::Str(k)) => k.as_str(),
        _ => return Err(QueryParseError("shape needs a string \"kind\"".into())),
    };
    let bucket_ms = || -> Result<u64, QueryParseError> {
        match v.get("bucket_ms").and_then(wire_u64) {
            Some(w) if w > 0 => Ok(w),
            _ => Err(QueryParseError(
                "shape needs a positive integer \"bucket_ms\"".into(),
            )),
        }
    };
    let agg = || -> Result<Aggregation, QueryParseError> {
        match v.get("agg") {
            Some(a) => agg_from_wire(a),
            None => Err(QueryParseError("shape needs an \"agg\"".into())),
        }
    };
    let reject = |field: &str| -> Result<(), QueryParseError> {
        if v.get(field).is_some() {
            Err(QueryParseError(format!(
                "shape kind {kind:?} does not take {field:?}"
            )))
        } else {
            Ok(())
        }
    };
    match kind {
        "readings" => {
            reject("bucket_ms")?;
            reject("agg")?;
            Ok(Shape::Readings)
        }
        "buckets" => Ok(Shape::Buckets {
            bucket_ms: bucket_ms()?,
            agg: agg()?,
        }),
        "scalars" => {
            reject("bucket_ms")?;
            Ok(Shape::Scalars(agg()?))
        }
        "aligned" => {
            reject("agg")?;
            Ok(Shape::Aligned {
                bucket_ms: bucket_ms()?,
            })
        }
        other => Err(QueryParseError(format!("unknown shape kind {other:?}"))),
    }
}

fn wire_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn wire_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Materialised result of a [`Query`], in the resolved sensor order.
///
/// The typed accessors panic with a descriptive message when called on a
/// result of a different shape — shape is decided at build time, so a
/// mismatch is a programming error, not a data condition.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub(crate) sensors: Vec<SensorId>,
    pub(crate) shape: ResultData,
}

/// Crate-visible so the cluster coordinator can reassemble gathered
/// per-shard partial results into one result bit-identical to unsharded
/// execution (see [`crate::cluster`]).
#[derive(Debug, Clone)]
pub(crate) enum ResultData {
    Series(Vec<Vec<Reading>>),
    Buckets(Vec<Vec<Bucket>>),
    Scalars(Vec<Option<f64>>),
    Aligned {
        grid: Vec<Timestamp>,
        matrix: Vec<Vec<f64>>,
    },
}

impl QueryResult {
    /// The resolved sensors, in result order.
    pub fn sensors(&self) -> &[SensorId] {
        &self.sensors
    }

    /// Number of sensors the query resolved to.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// Raw readings of an unshaped single-sensor query.
    ///
    /// # Panics
    /// Panics if the query was shaped or resolved to more than one sensor
    /// (use [`Self::series`] for multi-sensor reads).
    pub fn readings(self) -> Vec<Reading> {
        let mut series = self.series();
        assert!(
            series.len() <= 1,
            "readings() on a {}-sensor result; use series()",
            series.len()
        );
        series.pop().unwrap_or_default()
    }

    /// Per-sensor raw readings of an unshaped query.
    ///
    /// # Panics
    /// Panics if the query was shaped.
    pub fn series(self) -> Vec<Vec<Reading>> {
        match self.shape {
            ResultData::Series(s) => s,
            other => panic!("series() on a {} result", shape_name(&other)),
        }
    }

    /// Buckets of a single-sensor [`Query::downsample`] query.
    ///
    /// # Panics
    /// Panics if the query was not downsampled or resolved to more than one
    /// sensor (use [`Self::bucket_series`]).
    pub fn buckets(self) -> Vec<Bucket> {
        let mut series = self.bucket_series();
        assert!(
            series.len() <= 1,
            "buckets() on a {}-sensor result; use bucket_series()",
            series.len()
        );
        series.pop().unwrap_or_default()
    }

    /// Per-sensor buckets of a [`Query::downsample`] query.
    ///
    /// # Panics
    /// Panics if the query was not downsampled.
    pub fn bucket_series(self) -> Vec<Vec<Bucket>> {
        match self.shape {
            ResultData::Buckets(b) => b,
            other => panic!("bucket_series() on a {} result", shape_name(&other)),
        }
    }

    /// Scalar of a single-sensor [`Query::aggregate`] query (`None` when the
    /// range held no readings).
    ///
    /// # Panics
    /// Panics if the query was not aggregated or resolved to more than one
    /// sensor (use [`Self::scalars`]).
    pub fn scalar(self) -> Option<f64> {
        let mut scalars = self.scalars();
        assert!(
            scalars.len() <= 1,
            "scalar() on a {}-sensor result; use scalars()",
            scalars.len()
        );
        scalars.pop().flatten()
    }

    /// Per-sensor scalars of a [`Query::aggregate`] query, in sensor order.
    ///
    /// # Panics
    /// Panics if the query was not aggregated.
    pub fn scalars(self) -> Vec<Option<f64>> {
        match self.shape {
            ResultData::Scalars(s) => s,
            other => panic!("scalars() on a {} result", shape_name(&other)),
        }
    }

    /// `(bucket_starts, matrix)` of a [`Query::align`] query, where
    /// `matrix[s][b]` is the mean of sensor `s` in bucket `b`, or `NaN`
    /// when that sensor has no sample there ("no data", not zero — see
    /// [`Query::align`] for the full NaN contract).
    ///
    /// # Panics
    /// Panics if the query was not aligned.
    pub fn aligned(self) -> (Vec<Timestamp>, Vec<Vec<f64>>) {
        match self.shape {
            ResultData::Aligned { grid, matrix } => (grid, matrix),
            other => panic!("aligned() on a {} result", shape_name(&other)),
        }
    }

    /// Renders the result as its canonical JSON body — the exact bytes the
    /// HTTP frontend returns and the serving layer's result cache stores,
    /// so "cache hit" and "fresh execution" are comparable byte-for-byte.
    /// The shape is tagged like the query's own wire form; `NaN` cells of
    /// an aligned matrix render as `null` ("no data", see [`Query::align`]).
    pub fn to_json(&self) -> String {
        let sensors = Value::Array(
            self.sensors
                .iter()
                .map(|s| Value::U64(s.0 as u64))
                .collect(),
        );
        let reading = |r: &Reading| {
            Value::Object(vec![
                ("ts_ms".to_string(), Value::U64(r.ts.0)),
                ("value".to_string(), Value::F64(r.value)),
            ])
        };
        let bucket = |b: &Bucket| {
            Value::Object(vec![
                ("start_ms".to_string(), Value::U64(b.start.0)),
                ("value".to_string(), Value::F64(b.value)),
                ("count".to_string(), Value::U64(b.count as u64)),
            ])
        };
        let (kind_name, data_key, data) = match &self.shape {
            ResultData::Series(series) => (
                "readings",
                "series",
                Value::Array(
                    series
                        .iter()
                        .map(|rs| Value::Array(rs.iter().map(reading).collect()))
                        .collect(),
                ),
            ),
            ResultData::Buckets(series) => (
                "buckets",
                "series",
                Value::Array(
                    series
                        .iter()
                        .map(|bs| Value::Array(bs.iter().map(bucket).collect()))
                        .collect(),
                ),
            ),
            ResultData::Scalars(values) => (
                "scalars",
                "values",
                Value::Array(
                    values
                        .iter()
                        .map(|v| match v {
                            Some(x) => Value::F64(*x),
                            None => Value::Null,
                        })
                        .collect(),
                ),
            ),
            ResultData::Aligned { grid, matrix } => {
                let grid = Value::Array(grid.iter().map(|t| Value::U64(t.0)).collect());
                let matrix = Value::Array(
                    matrix
                        .iter()
                        .map(|row| Value::Array(row.iter().map(|x| Value::F64(*x)).collect()))
                        .collect(),
                );
                let doc = Value::Object(vec![
                    kind("aligned"),
                    ("sensors".to_string(), sensors),
                    ("grid_ms".to_string(), grid),
                    ("matrix".to_string(), matrix),
                ]);
                return serde_json::to_string(&doc).unwrap_or_default();
            }
        };
        let doc = Value::Object(vec![
            kind(kind_name),
            ("sensors".to_string(), sensors),
            (data_key.to_string(), data),
        ]);
        serde_json::to_string(&doc).unwrap_or_default()
    }

    /// FNV-1a digest over the result's full bit-level content: shape
    /// discriminant, resolved sensor ids, and the IEEE-754 bits of every
    /// value (so `NaN` patterns and signed zeros are distinguished, which
    /// JSON text is not able to do). Two results digest equal iff they are
    /// bit-identical — the equality the serving cache's contract is stated
    /// in, asserted by tests.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for s in &self.sensors {
            bytes.extend_from_slice(&s.0.to_le_bytes());
        }
        match &self.shape {
            ResultData::Series(series) => {
                bytes.push(0);
                for rs in series {
                    bytes.extend_from_slice(&(rs.len() as u64).to_le_bytes());
                    for r in rs {
                        bytes.extend_from_slice(&r.ts.0.to_le_bytes());
                        bytes.extend_from_slice(&r.value.to_bits().to_le_bytes());
                    }
                }
            }
            ResultData::Buckets(series) => {
                bytes.push(1);
                for bs in series {
                    bytes.extend_from_slice(&(bs.len() as u64).to_le_bytes());
                    for b in bs {
                        bytes.extend_from_slice(&b.start.0.to_le_bytes());
                        bytes.extend_from_slice(&b.value.to_bits().to_le_bytes());
                        bytes.extend_from_slice(&(b.count as u64).to_le_bytes());
                    }
                }
            }
            ResultData::Scalars(values) => {
                bytes.push(2);
                for v in values {
                    match v {
                        Some(x) => {
                            bytes.push(1);
                            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                        }
                        None => bytes.push(0),
                    }
                }
            }
            ResultData::Aligned { grid, matrix } => {
                bytes.push(3);
                bytes.extend_from_slice(&(grid.len() as u64).to_le_bytes());
                for t in grid {
                    bytes.extend_from_slice(&t.0.to_le_bytes());
                }
                for row in matrix {
                    for x in row {
                        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
            }
        }
        fnv1a64(&bytes)
    }
}

fn shape_name(d: &ResultData) -> &'static str {
    match d {
        ResultData::Series(_) => "readings",
        ResultData::Buckets(_) => "buckets",
        ResultData::Scalars(_) => "scalars",
        ResultData::Aligned { .. } => "aligned",
    }
}

/// Read-side engine over a [`TimeSeriesStore`].
///
/// Records `query_total` / `query_scan_ns` / `query_readings_scanned_total`
/// into the store's metrics registry for every executed [`Query`], plus the
/// rollup-planner outcome counters `query_tier_hit_total` /
/// `query_tier_miss_total` (one per sensor scan where the planner consulted
/// tiers), `query_readings_avoided_total` (raw readings the tiers saved) and
/// `query_rollup_buckets_scanned_total`.
pub struct QueryEngine<'a> {
    store: &'a TimeSeriesStore,
    registry: Option<SensorRegistry>,
    m: &'a QueryInstruments,
}

/// The read-path instruments of one store, looked up in its registry by
/// the first [`QueryEngine`] built over it and shared by every later one.
pub(crate) struct QueryInstruments {
    query_total: Counter,
    readings_scanned: Counter,
    scan_ns: Histogram,
    tier_hit: Counter,
    tier_miss: Counter,
    readings_avoided: Counter,
    rollup_buckets_scanned: Counter,
}

impl QueryInstruments {
    pub(crate) fn new(m: &MetricsRegistry) -> Self {
        QueryInstruments {
            query_total: m.counter("query_total", &[]),
            readings_scanned: m.counter("query_readings_scanned_total", &[]),
            scan_ns: m.histogram("query_scan_ns", &[]),
            tier_hit: m.counter("query_tier_hit_total", &[]),
            tier_miss: m.counter("query_tier_miss_total", &[]),
            readings_avoided: m.counter("query_readings_avoided_total", &[]),
            rollup_buckets_scanned: m.counter("query_rollup_buckets_scanned_total", &[]),
        }
    }
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine borrowing `store`. Pattern selectors additionally
    /// need [`Self::with_registry`].
    pub fn new(store: &'a TimeSeriesStore) -> Self {
        QueryEngine {
            store,
            registry: None,
            m: store.query_instruments(),
        }
    }

    /// Attaches a sensor registry so queries can select by name pattern.
    pub fn with_registry(mut self, registry: SensorRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Resolves `query`'s selector to the concrete sensor list
    /// [`Query::run`] would scan, without executing anything. The serving
    /// layer snapshots per-sensor store versions
    /// ([`TimeSeriesStore::sensor_version`]) for this list *before*
    /// executing a query it intends to cache: if a write lands mid-
    /// execution the recorded versions are already stale, so the entry can
    /// only miss — never serve a result computed from different state.
    ///
    /// # Panics
    /// Panics if the selector is a pattern and the engine has no registry
    /// attached, exactly as [`Query::run`] would.
    pub fn resolve_sensors(&self, query: &Query) -> Vec<SensorId> {
        query.selector.clone().resolve(self.registry.as_ref())
    }

    fn execute(&self, query: Query) -> QueryResult {
        let timer = self.m.scan_ns.start_timer();
        let sensors = query.selector.resolve(self.registry.as_ref());
        // Which store alignment (if any) lets rollup tiers serve this shape
        // exactly: `Some(None)` = any tier width, `Some(Some(w))` = only
        // tiers dividing `w`, `None` = the shape must scan raw.
        let tier_align: Option<Option<u64>> = if query.rate || query.raw_only {
            None
        } else {
            match query.shape {
                Shape::Scalars(agg) if tier_serves(agg) => Some(None),
                Shape::Buckets { bucket_ms, agg } if tier_serves(agg) => Some(Some(bucket_ms)),
                Shape::Aligned { bucket_ms } => Some(Some(bucket_ms)),
                _ => None,
            }
        };
        let mut scan = Scan {
            store: self.store,
            range: query.range,
            rate: query.rate,
            tier_align,
            scanned: 0,
            hits: 0,
            misses: 0,
            avoided: 0,
            tier_buckets: 0,
            scratch: Vec::new(),
        };
        // One pass over `sensors`, on the caller: each sensor is fetched,
        // tallied and shaped into its result cell before the next is
        // fetched, so only one sensor's readings are live at a time.
        let shape = match query.shape {
            Shape::Readings => ResultData::Series(sensors.iter().map(|&s| scan.raw(s)).collect()),
            Shape::Buckets { bucket_ms, agg } => ResultData::Buckets(
                sensors
                    .iter()
                    .map(|&s| scan.buckets(s, bucket_ms, agg))
                    .collect(),
            ),
            Shape::Scalars(agg) => {
                ResultData::Scalars(sensors.iter().map(|&s| scan.scalar(s, agg)).collect())
            }
            Shape::Aligned { bucket_ms } => {
                let buckets: Vec<Vec<Bucket>> = sensors
                    .iter()
                    .map(|&s| scan.buckets(s, bucket_ms, Aggregation::Mean))
                    .collect();
                let (grid, matrix) = align_buckets(&buckets);
                ResultData::Aligned { grid, matrix }
            }
        };
        self.m.readings_scanned.add(scan.scanned);
        if tier_align.is_some() {
            self.m.tier_hit.add(scan.hits);
            self.m.tier_miss.add(scan.misses);
            self.m.readings_avoided.add(scan.avoided);
            self.m.rollup_buckets_scanned.add(scan.tier_buckets);
        }
        self.m.query_total.inc();
        self.m.scan_ns.observe_timer(timer);
        QueryResult { sensors, shape }
    }
}

/// The per-sensor fetch of one executing query, plus the running totals
/// its metrics are recorded from.
struct Scan<'a> {
    store: &'a TimeSeriesStore,
    range: TimeRange,
    rate: bool,
    tier_align: Option<Option<u64>>,
    /// Raw readings materialised (pre-rate-derivation).
    scanned: u64,
    hits: u64,
    misses: u64,
    avoided: u64,
    tier_buckets: u64,
    /// Where a raw piece the ring's wrap point splits is made contiguous.
    scratch: Vec<Reading>,
}

impl Scan<'_> {
    /// One sensor's raw range, copied out, rate-derived when the query asks
    /// for it.
    fn raw(&mut self, s: SensorId) -> Vec<Reading> {
        let readings = self.store.range(s, self.range.start, self.range.end);
        self.scanned += readings.len() as u64;
        self.misses += 1;
        if self.rate {
            rate_readings(&readings)
        } else {
            readings
        }
    }

    /// Lends one sensor's window, tier-served where a tier serves it, to
    /// `fold` together with the scan's scratch buffer, tallying what it
    /// lends. Runs under the store's read lock: `fold` only folds.
    fn window<R>(
        &mut self,
        s: SensorId,
        align_ms: Option<u64>,
        fold: impl FnOnce(Window<'_>, &mut Vec<Reading>) -> R,
    ) -> R {
        let Scan {
            store,
            range,
            scanned,
            hits,
            misses,
            avoided,
            tier_buckets,
            scratch,
            ..
        } = self;
        store.read_window(s, range.start, range.end, align_ms, |window| {
            match window {
                Window::Raw(raw) => {
                    *scanned += runs_len(raw) as u64;
                    *misses += 1;
                }
                Window::Tiered(t) => {
                    *scanned += (runs_len(t.head) + runs_len(t.tail)) as u64;
                    *hits += 1;
                    *avoided += t.readings_avoided;
                    *tier_buckets += runs_len(t.core) as u64;
                }
            }
            fold(window, scratch)
        })
    }

    /// One sensor bucketed at `bucket_ms`. Head, core and tail occupy
    /// disjoint bucket ranges (core boundaries are `bucket_ms`-aligned), so
    /// the three pieces concatenate into one sorted bucket list.
    fn buckets(&mut self, s: SensorId, bucket_ms: u64, agg: Aggregation) -> Vec<Bucket> {
        let Some(align_ms) = self.tier_align else {
            return bucket_readings(&self.raw(s), bucket_ms, agg);
        };
        let mut out = Vec::new();
        self.window(s, align_ms, |window, scratch| match window {
            Window::Raw(raw) => {
                bucket_readings_into(contiguous(raw, scratch), bucket_ms, agg, &mut out);
            }
            Window::Tiered(t) => {
                bucket_readings_into(contiguous(t.head, scratch), bucket_ms, agg, &mut out);
                bucket_rollups(t.core, bucket_ms, agg, &mut out);
                bucket_readings_into(contiguous(t.tail, scratch), bucket_ms, agg, &mut out);
            }
        });
        out
    }

    /// One sensor aggregated to a scalar.
    fn scalar(&mut self, s: SensorId, agg: Aggregation) -> Option<f64> {
        let Some(align_ms) = self.tier_align else {
            return aggregate_readings(&self.raw(s), agg);
        };
        self.window(s, align_ms, |window, scratch| match window {
            Window::Raw(raw) => aggregate_readings(contiguous(raw, scratch), agg),
            Window::Tiered(t) => combine_tier_scalar(&t, agg),
        })
    }
}

/// Elements in both runs.
fn runs_len<T>((older, newer): Slices<'_, T>) -> usize {
    older.len() + newer.len()
}

/// `runs` as one slice: borrowed when the ring's wrap point does not split
/// them, copied into `scratch` when it does.
fn contiguous<'s>(
    (older, newer): Slices<'s, Reading>,
    scratch: &'s mut Vec<Reading>,
) -> &'s [Reading] {
    if newer.is_empty() {
        return older;
    }
    if older.is_empty() {
        return newer;
    }
    scratch.clear();
    scratch.extend_from_slice(older);
    scratch.extend_from_slice(newer);
    scratch
}

/// Whether rollup tiers can answer `agg` exactly from
/// `count/sum/min/max/first/last` summaries.
fn tier_serves(agg: Aggregation) -> bool {
    matches!(
        agg,
        Aggregation::Mean
            | Aggregation::Min
            | Aggregation::Max
            | Aggregation::Sum
            | Aggregation::Count
            | Aggregation::First
            | Aggregation::Last
    )
}

/// Re-buckets tier summary buckets into `bucket_ms`-wide output buckets.
/// The planner guarantees the tier width divides `bucket_ms`, so every
/// summary bucket falls wholly inside one output bucket. Each group is
/// folded left to right across the tier's two runs.
fn bucket_rollups(
    core: Slices<'_, RollupBucket>,
    bucket_ms: u64,
    agg: Aggregation,
    out: &mut Vec<Bucket>,
) {
    let n = runs_len(core);
    let mut i = 0usize;
    while i < n {
        let bstart = nth(core, i).start.bucket(bucket_ms);
        let mut j = i + 1;
        while j < n && nth(core, j).start.bucket(bucket_ms) == bstart {
            j += 1;
        }
        let (older, newer) = sub(core, i, j);
        let group = || older.iter().chain(newer);
        let count: u64 = group().map(|b| b.count).sum();
        let value = match agg {
            Aggregation::Mean => group().map(|b| b.sum).sum::<f64>() / count as f64,
            Aggregation::Min => group().map(|b| b.min).fold(f64::INFINITY, f64::min),
            Aggregation::Max => group().map(|b| b.max).fold(f64::NEG_INFINITY, f64::max),
            Aggregation::Sum => group().map(|b| b.sum).sum(),
            Aggregation::Count => count as f64,
            Aggregation::First => nth(core, i).first,
            Aggregation::Last => nth(core, j - 1).last,
            _ => unreachable!("non-decomposable aggregation on the tier path"),
        };
        out.push(Bucket {
            start: bstart,
            value,
            count: count as usize,
        });
        i = j;
    }
}

/// Merges raw edges and summary core into one scalar, folding head, core
/// and tail in that order, each left to right across its two runs. Head
/// precedes the core in time and the tail follows it, which settles
/// `First`/`Last`.
fn combine_tier_scalar<'a>(t: &TierView<'a>, agg: Aggregation) -> Option<f64> {
    let values = |(older, newer): Slices<'a, Reading>| older.iter().chain(newer).map(|r| r.value);
    let (older, newer) = t.core;
    let core = || older.iter().chain(newer);
    let count =
        runs_len(t.head) as u64 + core().map(|b| b.count).sum::<u64>() + runs_len(t.tail) as u64;
    if count == 0 {
        return None;
    }
    let sum = || {
        values(t.head).sum::<f64>()
            + core().map(|b| b.sum).sum::<f64>()
            + values(t.tail).sum::<f64>()
    };
    Some(match agg {
        Aggregation::Mean => sum() / count as f64,
        Aggregation::Sum => sum(),
        Aggregation::Min => values(t.head)
            .chain(core().map(|b| b.min))
            .chain(values(t.tail))
            .fold(f64::INFINITY, f64::min),
        Aggregation::Max => values(t.head)
            .chain(core().map(|b| b.max))
            .chain(values(t.tail))
            .fold(f64::NEG_INFINITY, f64::max),
        Aggregation::Count => count as f64,
        Aggregation::First => values(t.head)
            .next()
            .or_else(|| core().next().map(|b| b.first))
            .or_else(|| values(t.tail).next())
            // odalint: allow(panic-unwrap) -- caller checked count > 0 before taking this arm
            .expect("count > 0 implies a first element"),
        Aggregation::Last => values(t.tail)
            .next_back()
            .or_else(|| core().next_back().map(|b| b.last))
            .or_else(|| values(t.head).next_back())
            // odalint: allow(panic-unwrap) -- caller checked count > 0 before taking this arm
            .expect("count > 0 implies a last element"),
        _ => unreachable!("non-decomposable aggregation on the tier path"),
    })
}

/// Downsamples an already-materialised chronological slice into fixed
/// `bucket_ms`-wide buckets, omitting empty ones.
///
/// # Panics
/// Panics if `bucket_ms == 0`.
pub fn bucket_readings(readings: &[Reading], bucket_ms: u64, agg: Aggregation) -> Vec<Bucket> {
    assert!(bucket_ms > 0, "bucket width must be positive");
    let mut out = Vec::new();
    bucket_readings_into(readings, bucket_ms, agg, &mut out);
    out
}

/// As [`bucket_readings`], appending to `out`.
fn bucket_readings_into(
    readings: &[Reading],
    bucket_ms: u64,
    agg: Aggregation,
    out: &mut Vec<Bucket>,
) {
    let mut i = 0usize;
    while i < readings.len() {
        let bstart = readings[i].ts.bucket(bucket_ms);
        let bend = bstart + bucket_ms;
        let mut j = i;
        while j < readings.len() && readings[j].ts < bend {
            j += 1;
        }
        let slice = &readings[i..j];
        if let Some(value) = aggregate_readings(slice, agg) {
            out.push(Bucket {
                start: bstart,
                value,
                count: slice.len(),
            });
        }
        i = j;
    }
}

/// Derives a rate series from a cumulative-counter slice: each output
/// reading is `(vᵢ₊₁ - vᵢ) / Δt_seconds` stamped at the later timestamp.
///
/// A negative delta means the counter reset (collector restart, RAPL
/// wrap): the true rate over that window is unknowable, so the sample is
/// emitted with rate `0` rather than dropped — dropping it would leave a
/// silent gap that downstream gap detectors misread as a dead sensor.
/// Only zero-`Δt` pairs (duplicate timestamps) yield no sample.
pub fn rate_readings(readings: &[Reading]) -> Vec<Reading> {
    readings
        .windows(2)
        .filter_map(|w| {
            let dt = w[1].ts.millis_since(w[0].ts) as f64 / 1_000.0;
            if dt <= 0.0 {
                return None;
            }
            let dv = w[1].value - w[0].value;
            let rate = if dv < 0.0 { 0.0 } else { dv / dt };
            Some(Reading::new(w[1].ts, rate))
        })
        .collect()
}

/// Merges per-sensor bucket lists onto the union grid of their starts.
///
/// Cells where a sensor has no bucket are `f64::NAN` ("no data", not zero);
/// see [`Query::align`] for the consumer contract.
pub(crate) fn align_buckets(per_sensor: &[Vec<Bucket>]) -> (Vec<Timestamp>, Vec<Vec<f64>>) {
    let mut grid: Vec<Timestamp> = per_sensor
        .iter()
        .flat_map(|bs| bs.iter().map(|b| b.start))
        .collect();
    grid.sort_unstable();
    grid.dedup();
    let matrix = per_sensor
        .iter()
        .map(|buckets| {
            let mut row = vec![f64::NAN; grid.len()];
            for b in buckets {
                if let Ok(idx) = grid.binary_search(&b.start) {
                    row[idx] = b.value;
                }
            }
            row
        })
        .collect();
    (grid, matrix)
}

/// Applies `agg` to an already-materialised chronological slice.
///
/// Exposed so analytics code can aggregate windows it has already fetched.
pub fn aggregate_readings(readings: &[Reading], agg: Aggregation) -> Option<f64> {
    if readings.is_empty() {
        return None;
    }
    let n = readings.len() as f64;
    Some(match agg {
        Aggregation::Mean => readings.iter().map(|r| r.value).sum::<f64>() / n,
        Aggregation::Min => readings
            .iter()
            .map(|r| r.value)
            .fold(f64::INFINITY, f64::min),
        Aggregation::Max => readings
            .iter()
            .map(|r| r.value)
            .fold(f64::NEG_INFINITY, f64::max),
        Aggregation::Sum => readings.iter().map(|r| r.value).sum(),
        Aggregation::Count => n,
        Aggregation::StdDev => {
            let mean = readings.iter().map(|r| r.value).sum::<f64>() / n;
            (readings
                .iter()
                .map(|r| (r.value - mean).powi(2))
                .sum::<f64>()
                / n)
                .sqrt()
        }
        // odalint: allow(panic-unwrap) -- aggregate_readings rejects empty input at entry
        Aggregation::Last => readings.last().unwrap().value,
        // odalint: allow(panic-unwrap) -- aggregate_readings rejects empty input at entry
        Aggregation::First => readings.first().unwrap().value,
        Aggregation::Quantile(q) => {
            let q = q.clamp(0.0, 1.0);
            let mut vals: Vec<f64> = readings.iter().map(|r| r.value).collect();
            vals.sort_unstable_by(|a, b| a.total_cmp(b));
            // Linear interpolation between closest ranks.
            let pos = q * (vals.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                vals[lo]
            } else {
                vals[lo] + (pos - lo as f64) * (vals[hi] - vals[lo])
            }
        }
        Aggregation::TimeWeightedMean => {
            if readings.len() == 1 {
                readings[0].value
            } else {
                let mut weighted = 0.0;
                let mut total_w = 0.0;
                for w in readings.windows(2) {
                    let dt = w[1].ts.millis_since(w[0].ts) as f64;
                    weighted += w[0].value * dt;
                    total_w += dt;
                }
                // The last sample has no successor to bound its holding
                // time. Giving it zero weight biases any window that ends
                // on a level shift, so extrapolate: assume it holds for
                // the median inter-sample gap (robust to one long outage
                // mid-window).
                let mut gaps: Vec<u64> = readings
                    .windows(2)
                    .map(|w| w[1].ts.millis_since(w[0].ts))
                    .collect();
                gaps.sort_unstable();
                let mid = gaps.len() / 2;
                let median_gap = if gaps.len().is_multiple_of(2) {
                    (gaps[mid - 1] + gaps[mid]) as f64 / 2.0
                } else {
                    gaps[mid] as f64
                };
                // odalint: allow(panic-unwrap) -- aggregate_readings rejects empty input at entry
                weighted += readings.last().unwrap().value * median_gap;
                total_w += median_gap;
                // odalint: allow(float-eq) -- exact zero iff every gap weight was zero; sentinel, not arithmetic
                if total_w == 0.0 {
                    readings.iter().map(|r| r.value).sum::<f64>() / n
                } else {
                    weighted / total_w
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::store::RollupConfig;

    fn store_with(series: &[(u64, f64)]) -> (TimeSeriesStore, SensorId) {
        let store = TimeSeriesStore::with_capacity(1024);
        let s = SensorId(0);
        for &(t, v) in series {
            store.insert(s, Reading::new(Timestamp::from_millis(t), v));
        }
        (store, s)
    }

    fn agg(q: &QueryEngine<'_>, s: SensorId, range: TimeRange, a: Aggregation) -> Option<f64> {
        Query::sensors(s).range(range).aggregate(a).run(q).scalar()
    }

    #[test]
    fn scalar_aggregations() {
        let (store, s) = store_with(&[(0, 1.0), (10, 2.0), (20, 3.0), (30, 4.0)]);
        let q = QueryEngine::new(&store);
        let all = TimeRange::all();
        assert_eq!(agg(&q, s, all, Aggregation::Mean), Some(2.5));
        assert_eq!(agg(&q, s, all, Aggregation::Min), Some(1.0));
        assert_eq!(agg(&q, s, all, Aggregation::Max), Some(4.0));
        assert_eq!(agg(&q, s, all, Aggregation::Sum), Some(10.0));
        assert_eq!(agg(&q, s, all, Aggregation::Count), Some(4.0));
        assert_eq!(agg(&q, s, all, Aggregation::First), Some(1.0));
        assert_eq!(agg(&q, s, all, Aggregation::Last), Some(4.0));
        let sd = agg(&q, s, all, Aggregation::StdDev).unwrap();
        assert!((sd - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_range_aggregates_to_none() {
        let (store, s) = store_with(&[(0, 1.0)]);
        let q = QueryEngine::new(&store);
        let r = TimeRange::new(Timestamp::from_millis(100), Timestamp::from_millis(200));
        assert_eq!(agg(&q, s, r, Aggregation::Mean), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let (store, s) = store_with(&[(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)]);
        let q = QueryEngine::new(&store);
        let all = TimeRange::all();
        assert_eq!(agg(&q, s, all, Aggregation::Quantile(0.0)), Some(10.0));
        assert_eq!(agg(&q, s, all, Aggregation::Quantile(1.0)), Some(40.0));
        assert_eq!(agg(&q, s, all, Aggregation::Quantile(0.5)), Some(25.0));
        // Out-of-range q is clamped.
        assert_eq!(agg(&q, s, all, Aggregation::Quantile(2.0)), Some(40.0));
    }

    /// Regression: a NaN reading used to panic the quantile path through
    /// `partial_cmp().unwrap()`. The store rejects non-finite values, but
    /// `aggregate_readings` is public and rollup/window paths hand it raw
    /// in-flight slices (injected-fault bursts produce NaN). With
    /// `total_cmp` the sort is total — NaN sorts after every number — and
    /// low quantiles still answer from the finite readings.
    #[test]
    fn quantile_tolerates_nan_readings() {
        let readings = [
            Reading::new(Timestamp::from_millis(0), 1.0),
            Reading::new(Timestamp::from_millis(1), f64::NAN),
            Reading::new(Timestamp::from_millis(2), 3.0),
        ];
        let low = aggregate_readings(&readings, Aggregation::Quantile(0.0));
        assert_eq!(low, Some(1.0));
        // q=1.0 lands on the NaN slot; it must not panic.
        let top = aggregate_readings(&readings, Aggregation::Quantile(1.0)).unwrap();
        assert!(top.is_nan());
    }

    #[test]
    fn time_weighted_mean_weights_by_holding_time() {
        // Value 0 held for 90ms, value 10 held for 10ms; the final sample
        // extrapolates for the median gap ((10+90)/2 = 50ms):
        // (0*90 + 10*10 + 10*50) / (90+10+50) = 4.
        let (store, s) = store_with(&[(0, 0.0), (90, 10.0), (100, 10.0)]);
        let q = QueryEngine::new(&store);
        let twm = agg(&q, s, TimeRange::all(), Aggregation::TimeWeightedMean).unwrap();
        assert!((twm - 4.0).abs() < 1e-12, "got {twm}");
    }

    #[test]
    fn time_weighted_mean_counts_a_trailing_level_shift() {
        // Regularly-sampled flat zero, then a jump on the very last sample.
        // Pre-fix the last reading carried zero weight and the TWM was 0 —
        // a trailing level shift was invisible.
        let (store, s) = store_with(&[(0, 0.0), (1_000, 0.0), (2_000, 100.0)]);
        let q = QueryEngine::new(&store);
        let twm = agg(&q, s, TimeRange::all(), Aggregation::TimeWeightedMean).unwrap();
        // Median gap 1000ms: (0*1000 + 0*1000 + 100*1000) / 3000.
        assert!((twm - 100.0 / 3.0).abs() < 1e-12, "got {twm}");
    }

    #[test]
    fn downsample_means_per_bucket_and_skips_gaps() {
        let (store, s) = store_with(&[(0, 1.0), (500, 3.0), (1_000, 5.0), (3_000, 7.0)]);
        let q = QueryEngine::new(&store);
        let buckets = Query::sensors(s)
            .downsample(1_000, Aggregation::Mean)
            .run(&q)
            .buckets();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].start, Timestamp::ZERO);
        assert_eq!(buckets[0].value, 2.0);
        assert_eq!(buckets[0].count, 2);
        assert_eq!(buckets[1].value, 5.0);
        assert_eq!(buckets[2].start, Timestamp::from_millis(3_000));
    }

    #[test]
    fn rate_derives_watts_from_joules() {
        // 100 J at t=0s, 300 J at t=2s → 100 W; counter reset at t=3s → 0 W.
        let (store, s) = store_with(&[(0, 100.0), (2_000, 300.0), (3_000, 0.0), (4_000, 50.0)]);
        let q = QueryEngine::new(&store);
        let rates = Query::sensors(s).rate().run(&q).readings();
        assert_eq!(rates.len(), 3);
        assert!((rates[0].value - 100.0).abs() < 1e-12);
        assert_eq!(
            rates[1].value, 0.0,
            "counter reset must emit rate 0, not a gap"
        );
        assert_eq!(rates[1].ts, Timestamp::from_millis(3_000));
        assert!((rates[2].value - 50.0).abs() < 1e-12);
    }

    #[test]
    fn rate_reset_leaves_no_gap_mid_series() {
        // A mid-series reset must keep the rate series contiguous: every
        // consecutive input pair with Δt > 0 yields exactly one sample.
        let series: &[(u64, f64)] = &[
            (0, 10.0),
            (1_000, 20.0),
            (2_000, 5.0),
            (3_000, 15.0),
            (4_000, 25.0),
        ];
        let (store, s) = store_with(series);
        let q = QueryEngine::new(&store);
        let rates = Query::sensors(s).rate().run(&q).readings();
        assert_eq!(rates.len(), series.len() - 1);
        let ts: Vec<u64> = rates.iter().map(|r| r.ts.as_millis()).collect();
        assert_eq!(ts, vec![1_000, 2_000, 3_000, 4_000]);
        assert_eq!(rates[1].value, 0.0);
        assert!((rates[2].value - 10.0).abs() < 1e-12);
    }

    #[test]
    fn align_produces_common_grid_with_nans() {
        let store = TimeSeriesStore::with_capacity(64);
        let a = SensorId(0);
        let b = SensorId(1);
        store.insert(a, Reading::new(Timestamp::from_millis(0), 1.0));
        store.insert(a, Reading::new(Timestamp::from_millis(1_000), 2.0));
        store.insert(b, Reading::new(Timestamp::from_millis(1_000), 10.0));
        store.insert(b, Reading::new(Timestamp::from_millis(2_000), 20.0));
        let q = QueryEngine::new(&store);
        let (grid, m) = Query::sensors([a, b]).align(1_000).run(&q).aligned();
        assert_eq!(grid.len(), 3);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0][0], 1.0);
        assert_eq!(m[0][1], 2.0);
        assert!(m[0][2].is_nan());
        assert!(m[1][0].is_nan());
        assert_eq!(m[1][1], 10.0);
        assert_eq!(m[1][2], 20.0);
    }

    #[test]
    fn aggregate_many_preserves_order() {
        let store = TimeSeriesStore::with_capacity(8);
        for i in 0..4u32 {
            store.insert(SensorId(i), Reading::new(Timestamp::ZERO, i as f64));
        }
        let q = QueryEngine::new(&store);
        let sensors: Vec<SensorId> = (0..4).map(SensorId).collect();
        let out = Query::sensors(&sensors)
            .aggregate(Aggregation::Last)
            .run(&q)
            .scalars();
        assert_eq!(out, vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0)]);
    }

    #[test]
    fn trailing_range_includes_now() {
        let (store, s) = store_with(&[(900, 1.0), (1_000, 2.0)]);
        let q = QueryEngine::new(&store);
        let r = TimeRange::trailing(Timestamp::from_millis(1_000), 50);
        assert_eq!(agg(&q, s, r, Aggregation::Count), Some(1.0));
    }

    #[test]
    fn pattern_selector_resolves_via_registry_in_id_order() {
        use crate::sensor::{SensorKind, SensorRegistry, Unit};
        let reg = SensorRegistry::new();
        let p0 = reg.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
        let t0 = reg.register("/hw/node0/temp", SensorKind::Temperature, Unit::Celsius);
        let p1 = reg.register("/hw/node1/power", SensorKind::Power, Unit::Watts);
        let store = TimeSeriesStore::with_capacity(8);
        for (i, s) in [p0, t0, p1].iter().enumerate() {
            store.insert(*s, Reading::new(Timestamp::ZERO, i as f64));
        }
        let q = QueryEngine::new(&store).with_registry(reg);
        let res = Query::sensors("/hw/*/power")
            .aggregate(Aggregation::Last)
            .run(&q);
        assert_eq!(res.sensors(), &[p0, p1]);
        assert_eq!(res.scalars(), vec![Some(0.0), Some(2.0)]);
    }

    #[test]
    #[should_panic(expected = "needs a registry")]
    fn pattern_selector_without_registry_panics() {
        let store = TimeSeriesStore::with_capacity(8);
        let q = QueryEngine::new(&store);
        let _ = Query::sensors("/hw/**").run(&q);
    }

    #[test]
    #[should_panic(expected = "already shaped")]
    fn double_shaping_panics() {
        let _ = Query::sensors(SensorId(0))
            .aggregate(Aggregation::Mean)
            .downsample(10, Aggregation::Mean);
    }

    #[test]
    #[should_panic(expected = "use scalars()")]
    fn scalar_on_multi_sensor_result_panics() {
        let store = TimeSeriesStore::with_capacity(8);
        let q = QueryEngine::new(&store);
        store.insert(SensorId(0), Reading::new(Timestamp::ZERO, 1.0));
        store.insert(SensorId(1), Reading::new(Timestamp::ZERO, 2.0));
        let _ = Query::sensors([SensorId(0), SensorId(1)])
            .aggregate(Aggregation::Mean)
            .run(&q)
            .scalar();
    }

    #[test]
    #[should_panic(expected = "on a scalars result")]
    fn shape_mismatch_accessor_panics() {
        let store = TimeSeriesStore::with_capacity(8);
        let q = QueryEngine::new(&store);
        let _ = Query::sensors(SensorId(0))
            .aggregate(Aggregation::Mean)
            .run(&q)
            .readings();
    }

    #[test]
    fn rate_composes_with_downsample() {
        // Cumulative joules sampled every second; rate → 100 W flat, then
        // bucketed into 2s means.
        let (store, s) = store_with(&[(0, 0.0), (1_000, 100.0), (2_000, 200.0), (3_000, 300.0)]);
        let q = QueryEngine::new(&store);
        let buckets = Query::sensors(s)
            .rate()
            .downsample(2_000, Aggregation::Mean)
            .run(&q)
            .buckets();
        assert!(!buckets.is_empty());
        for b in &buckets {
            assert!((b.value - 100.0).abs() < 1e-9, "got {}", b.value);
        }
    }

    #[test]
    fn queries_record_read_path_metrics() {
        let m = MetricsRegistry::new();
        let store = TimeSeriesStore::with_rollups(16, 1, m.clone(), RollupConfig::default());
        let s = SensorId(0);
        for t in 0..10u64 {
            store.insert(s, Reading::new(Timestamp::from_millis(t), t as f64));
        }
        let q = QueryEngine::new(&store);
        // Mean is tier-servable: all 10 readings sit in one rollup bucket,
        // so the planner scans 0 raw readings and avoids 9.
        let _ = Query::sensors(s)
            .aggregate(Aggregation::Mean)
            .run(&q)
            .scalar();
        // A raw-readings query still scans all 10.
        let _ = Query::sensors(s).run(&q).readings();
        let snap = m.snapshot();
        assert_eq!(snap.counter("query_total"), Some(2));
        assert_eq!(snap.counter("query_readings_scanned_total"), Some(10));
        assert_eq!(snap.counter("query_tier_hit_total"), Some(1));
        assert_eq!(snap.counter("query_tier_miss_total"), Some(0));
        assert_eq!(snap.counter("query_readings_avoided_total"), Some(9));
        assert_eq!(snap.counter("query_rollup_buckets_scanned_total"), Some(1));
        assert_eq!(snap.histogram("query_scan_ns").unwrap().count, 2);
    }

    #[test]
    fn raw_scan_bypasses_tiers() {
        let m = MetricsRegistry::new();
        let store = TimeSeriesStore::with_rollups(16, 1, m.clone(), RollupConfig::default());
        let s = SensorId(0);
        for t in 0..10u64 {
            store.insert(s, Reading::new(Timestamp::from_millis(t), t as f64));
        }
        let q = QueryEngine::new(&store);
        let planned = Query::sensors(s)
            .aggregate(Aggregation::Mean)
            .run(&q)
            .scalar();
        let raw = Query::sensors(s)
            .raw_scan()
            .aggregate(Aggregation::Mean)
            .run(&q)
            .scalar();
        assert_eq!(planned, raw, "tier answer must equal the raw rescan");
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("query_tier_hit_total"),
            Some(1),
            "only the planned query hits"
        );
        assert_eq!(
            snap.counter("query_readings_scanned_total"),
            Some(10),
            "raw_scan pays full price"
        );
    }

    #[test]
    fn planner_answers_match_raw_for_all_decomposable_aggregations() {
        use crate::store::RollupTierSpec;
        let store = TimeSeriesStore::with_rollups(
            1024,
            1,
            MetricsRegistry::disabled(),
            RollupConfig {
                tiers: vec![
                    RollupTierSpec {
                        bucket_ms: 1_000,
                        capacity: 256,
                    },
                    RollupTierSpec {
                        bucket_ms: 5_000,
                        capacity: 256,
                    },
                ],
            },
        );
        let s = SensorId(0);
        // Dyadic values → tier partial sums are bit-exact vs a flat fold.
        for t in 0..200u64 {
            store.insert(
                s,
                Reading::new(Timestamp::from_millis(t * 137), (t as f64) * 0.25 - 12.0),
            );
        }
        let q = QueryEngine::new(&store);
        // Range with deliberately unaligned edges.
        let range = TimeRange::new(Timestamp::from_millis(777), Timestamp::from_millis(24_321));
        for agg in [
            Aggregation::Mean,
            Aggregation::Min,
            Aggregation::Max,
            Aggregation::Sum,
            Aggregation::Count,
            Aggregation::First,
            Aggregation::Last,
        ] {
            let planned = Query::sensors(s)
                .range(range)
                .aggregate(agg)
                .run(&q)
                .scalar();
            let raw = Query::sensors(s)
                .range(range)
                .raw_scan()
                .aggregate(agg)
                .run(&q)
                .scalar();
            assert_eq!(planned, raw, "scalar {agg:?} diverged");
            let planned_b = Query::sensors(s)
                .range(range)
                .downsample(5_000, agg)
                .run(&q)
                .buckets();
            let raw_b = Query::sensors(s)
                .range(range)
                .raw_scan()
                .downsample(5_000, agg)
                .run(&q)
                .buckets();
            assert_eq!(planned_b, raw_b, "downsample {agg:?} diverged");
        }
        let planned_a = Query::sensors(s)
            .range(range)
            .align(5_000)
            .run(&q)
            .aligned();
        let raw_a = Query::sensors(s)
            .range(range)
            .raw_scan()
            .align(5_000)
            .run(&q)
            .aligned();
        assert_eq!(planned_a, raw_a, "aligned matrix diverged");
    }

    #[test]
    fn non_decomposable_aggregations_never_use_tiers() {
        let m = MetricsRegistry::new();
        let store = TimeSeriesStore::with_rollups(64, 1, m.clone(), RollupConfig::default());
        let s = SensorId(0);
        for t in 0..20u64 {
            store.insert(s, Reading::new(Timestamp::from_millis(t), t as f64));
        }
        let q = QueryEngine::new(&store);
        for agg in [
            Aggregation::StdDev,
            Aggregation::Quantile(0.9),
            Aggregation::TimeWeightedMean,
        ] {
            let _ = Query::sensors(s).aggregate(agg).run(&q).scalar();
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter("query_tier_hit_total"), Some(0));
        assert_eq!(
            snap.counter("query_tier_miss_total"),
            Some(0),
            "planner not even consulted"
        );
        assert_eq!(snap.counter("query_readings_scanned_total"), Some(60));
    }

    // ----- canonical wire representation ----------------------------------

    /// `to_json` → `from_json` → `to_json` must be a fixed point for every
    /// selector / range / flag / shape combination — one wire form.
    #[test]
    fn wire_round_trip_is_canonical() {
        let queries = vec![
            Query::sensors(SensorId(3)),
            Query::sensors(vec![SensorId(1), SensorId(0)])
                .range(TimeRange::new(
                    Timestamp::from_millis(500),
                    Timestamp::from_millis(90_000),
                ))
                .rate()
                .downsample(1_000, Aggregation::Max),
            Query::sensors("/hw/*/power")
                .raw_scan()
                .aggregate(Aggregation::Quantile(0.99)),
            Query::sensors(SensorId(7)).aggregate(Aggregation::TimeWeightedMean),
            Query::sensors("/facility/**").align(10_000),
        ];
        for q in queries {
            let wire = q.to_json();
            let parsed = Query::from_json(&wire).expect("canonical form must parse");
            assert_eq!(parsed.to_json(), wire, "not a fixed point: {wire}");
        }
    }

    /// Sparse input (omitted defaults, reordered keys) normalizes to the
    /// same canonical string as the builder-constructed query.
    #[test]
    fn wire_normalizes_sparse_and_reordered_input() {
        let canonical = Query::sensors(SensorId(2)).to_json();
        for input in [
            r#"{"selector":{"ids":[2]}}"#,
            r#"{"shape":{"kind":"readings"},"selector":{"ids":[2]},"rate":false}"#,
            "{\n  \"selector\": { \"ids\": [ 2 ] },\n  \"raw_scan\": false\n}",
        ] {
            let parsed = Query::from_json(input).expect("sparse form must parse");
            assert_eq!(parsed.to_json(), canonical, "input {input}");
        }
        // A shaped sparse form too.
        let canonical = Query::sensors("/hw/*/t")
            .aggregate(Aggregation::Mean)
            .to_json();
        let parsed = Query::from_json(
            r#"{"shape":{"agg":"mean","kind":"scalars"},"selector":{"pattern":"/hw/*/t"}}"#,
        )
        .expect("must parse");
        assert_eq!(parsed.to_json(), canonical);
    }

    #[test]
    fn wire_rejects_malformed_queries() {
        for (input, why) in [
            ("{}", "missing selector"),
            ("[]", "not an object"),
            ("{\"selector\":{\"ids\":[2]},\"agregation\":1}", "typo field"),
            (
                "{\"selector\":{\"ids\":[2],\"pattern\":\"x\"}}",
                "both selector kinds",
            ),
            ("{\"selector\":{\"ids\":[-1]}}", "negative id"),
            ("{\"selector\":{\"ids\":[4294967296]}}", "id overflows u32"),
            (
                "{\"selector\":{\"ids\":[0]},\"range\":{\"start_ms\":5,\"end_ms\":1}}",
                "inverted range",
            ),
            (
                "{\"selector\":{\"ids\":[0]},\"shape\":{\"kind\":\"buckets\",\"bucket_ms\":0,\"agg\":\"mean\"}}",
                "zero bucket width",
            ),
            (
                "{\"selector\":{\"ids\":[0]},\"shape\":{\"kind\":\"scalars\",\"agg\":{\"quantile\":1.5}}}",
                "quantile out of range",
            ),
            (
                "{\"selector\":{\"ids\":[0]},\"shape\":{\"kind\":\"readings\",\"agg\":\"mean\"}}",
                "agg on readings shape",
            ),
            (
                "{\"selector\":{\"ids\":[0]},\"shape\":{\"kind\":\"scalars\",\"agg\":\"median\"}}",
                "unknown aggregation",
            ),
            ("{\"selector\":{\"ids\":[0]}", "truncated JSON"),
        ] {
            assert!(
                Query::from_json(input).is_err(),
                "accepted malformed query ({why}): {input}"
            );
        }
    }

    /// The digest distinguishes bit-level differences JSON text collapses
    /// (NaN payloads aside, the cases that matter: value bits, sensor
    /// order, shape) and is stable across identical executions.
    #[test]
    fn result_digest_and_json_are_stable_across_reruns() {
        let (store, s) = store_with(&[(0, 1.0), (10, 2.0), (20, 3.0)]);
        let q = QueryEngine::new(&store);
        let run = |raw: bool| {
            let query = Query::sensors(s).aggregate(Aggregation::Mean);
            let query = if raw { query.raw_scan() } else { query };
            query.run(&q)
        };
        let a = run(false);
        let b = run(false);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.to_json(), b.to_json());
        // Planned and raw executions agree bit-for-bit (tier contract).
        let r = run(true);
        assert_eq!(a.digest(), r.digest());
        assert_eq!(a.to_json(), r.to_json());
        // A different value is a different digest.
        store.insert(s, Reading::new(Timestamp::from_millis(30), 4.0));
        assert_ne!(run(false).digest(), a.digest());
    }

    #[test]
    fn sensor_versions_advance_only_on_accepted_writes() {
        let store = TimeSeriesStore::with_capacity(8);
        let s = SensorId(0);
        assert_eq!(store.sensor_version(s), 0, "untouched sensor");
        store.insert(s, Reading::new(Timestamp::from_millis(10), 1.0));
        assert_eq!(store.sensor_version(s), 1);
        // Rejected writes (out-of-order, non-finite) must not bump.
        store.insert(s, Reading::new(Timestamp::from_millis(5), 2.0));
        store.insert(s, Reading::new(Timestamp::from_millis(20), f64::NAN));
        assert_eq!(store.sensor_version(s), 1);
        store.insert(s, Reading::new(Timestamp::from_millis(20), 2.0));
        assert_eq!(store.sensor_version(s), 2);
        assert_eq!(store.sensor_version(SensorId(99)), 0);
    }
}
