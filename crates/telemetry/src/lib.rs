#![warn(missing_docs)]

//! # oda-telemetry — monitoring substrate for HPC Operational Data Analytics
//!
//! This crate provides the data-collection layer that every ODA capability in
//! the framework consumes: the paper (Netti et al., CLUSTER 2021) defines ODA
//! as *"continuous monitoring, archiving, and analysis of near real-time
//! performance data"*, and this crate is the monitoring-and-archiving half of
//! that definition. It plays the role that production stacks such as DCDB,
//! LDMS or Examon play at real HPC sites.
//!
//! The crate is organised as a pipeline:
//!
//! 1. [`sensor`] — sensors are registered under hierarchical slash-separated
//!    names (e.g. `/facility/chiller0/power`) and referred to everywhere else
//!    by a cheap interned [`sensor::SensorId`].
//! 2. [`bus`] — producers publish [`reading::Reading`]s onto the
//!    [`bus::TelemetryBus`]; consumers subscribe by name pattern.
//! 3. [`store`] — the [`store::TimeSeriesStore`] archives readings in
//!    per-sensor ring buffers behind sharded locks, each maintaining
//!    multi-resolution [`store::RollupConfig`] summary tiers online.
//! 4. [`query`] — the [`query::QueryEngine`] evaluates range queries,
//!    aggregations, downsampling and series alignment over the store,
//!    optionally fanning out across sensors in parallel and serving
//!    decomposable aggregations from rollup tiers instead of raw scans.
//! 5. [`alert`] — threshold alert rules provide the "automated alerts upon
//!    exceeding human-defined thresholds" that the paper lists as part of
//!    descriptive ODA.
//! 6. [`storage`] — the durable tier: a [`storage::StorageBackend`] trait
//!    over the in-memory store and a WAL + compressed-segment persistent
//!    engine, so the archive can survive process restarts with
//!    bit-identical recovery.
//! 7. [`cluster`] — the distribution layer: N collector shards each own a
//!    consistent-hash slice of the sensor space behind a message-passing
//!    boundary, with a [`cluster::ClusterCoordinator`] doing placement-
//!    routed ingest, deterministic scatter-gather queries (bit-identical
//!    digests at any shard count) and failure-driven rebalance that
//!    replays the durable tier so no accepted reading is lost.
//!    [`plane::QueryPlane`] is the one read-side interface over either
//!    shape: a site picks its plane (the local store or the coordinator)
//!    once, and consumers such as the serving layer never branch on it.
//! 8. [`metrics`] — the stack's *self*-telemetry: every bus publish, store
//!    write, and query scan records into a [`metrics::MetricsRegistry`]
//!    (counters, gauges, deterministic log-linear latency histograms) with
//!    Prometheus-text and JSON exposition, so the ODA system can describe
//!    and diagnose itself the way it describes the machine it watches.
//!
//! ## Quick example
//!
//! ```
//! use oda_telemetry::prelude::*;
//!
//! let registry = SensorRegistry::new();
//! let temp = registry.register("/hw/node0/cpu_temp", SensorKind::Temperature, Unit::Celsius);
//! let store = TimeSeriesStore::with_capacity(1024);
//! for t in 0..10 {
//!     store.insert(temp, Reading::new(Timestamp::from_secs(t), 40.0 + t as f64));
//! }
//! let engine = QueryEngine::new(&store);
//! let avg = Query::sensors(temp)
//!     .range(TimeRange::all())
//!     .aggregate(Aggregation::Mean)
//!     .run(&engine)
//!     .scalar()
//!     .unwrap();
//! assert!((avg - 44.5).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod alert;
pub mod bus;
pub mod cluster;
pub mod export;
pub mod hash;
pub mod health;
pub mod metrics;
pub mod pattern;
pub mod plane;
pub mod query;
pub mod reading;
pub mod sensor;
pub mod storage;
pub mod store;

/// Convenient re-exports of the types used by nearly every consumer.
pub mod prelude {
    pub use crate::alert::{AlertEngine, AlertEvent, AlertRule, AlertSeverity, Condition};
    pub use crate::bus::{Subscription, SubscriptionBuilder, TelemetryBus};
    pub use crate::cluster::{
        ClusterConfig, ClusterCoordinator, PlacementMap, ShardHealth, ShardId, ShardOccupancy,
    };
    pub use crate::health::{HealthReport, SensorHealth, TierOccupancy};
    pub use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Timer};
    pub use crate::pattern::SensorPattern;
    pub use crate::plane::{LocalPlane, QueryPlane, ShardStats};
    pub use crate::query::{
        Aggregation, Query, QueryEngine, QueryParseError, QueryResult, SensorSelector, TimeRange,
    };
    pub use crate::reading::{Reading, Timestamp};
    pub use crate::sensor::{SensorId, SensorKind, SensorMeta, SensorRegistry, Unit};
    pub use crate::storage::{
        open_backend, BackendKind, DurableBackend, EngineConfig, FsError, InMemoryBackend,
        PersistentEngine, RealFs, RecoveryReport, SimFs, StorageBackend, StorageConfig, StorageFs,
    };
    pub use crate::store::{RollupConfig, RollupTierSpec, TimeSeriesStore};
}
