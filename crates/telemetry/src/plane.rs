//! The query plane: the one read-side interface the serving layer talks
//! to, whether the site archives into a single store or a collector
//! cluster.
//!
//! A site picks its plane once, at construction: [`LocalPlane`] over the
//! site store when unsharded, the
//! [`ClusterCoordinator`](crate::cluster::ClusterCoordinator) when
//! sharded. Consumers hold an `Arc<dyn QueryPlane>` and never ask which
//! it is. Both planes answer any query with bit-identical
//! [`QueryResult::digest`]s (see [`crate::cluster`] for the argument), and
//! both keep the result-cache contract: a sensor's entry in
//! [`QueryPlane::sensor_versions`] changes exactly when a reading for that
//! sensor is accepted.

use crate::cluster::ShardOccupancy;
use crate::query::{Query, QueryEngine, QueryResult};
use crate::sensor::{SensorId, SensorRegistry};
use crate::store::TimeSeriesStore;
use std::sync::Arc;

/// Cluster membership and per-shard occupancy, surfaced through
/// `/api/v1/stats` by planes that have shards.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Configured shard count (alive or not).
    pub count: usize,
    /// Shards currently alive.
    pub alive: usize,
    /// Membership epoch (bumps on every failure or restart).
    pub epoch: u64,
    /// Slice handoffs to surviving shards performed so far.
    pub rebalances: u64,
    /// Pieces of failed shards' history those handoffs could not move.
    pub handoff_errors: u64,
    /// One entry per configured shard, ascending shard id.
    pub occupancy: Vec<ShardOccupancy>,
}

/// Read-side interface over a site's archive.
pub trait QueryPlane: Send + Sync {
    /// The registry selectors resolve against.
    fn registry(&self) -> &SensorRegistry;

    /// Resolves `query`'s selector to the concrete ordered sensor list
    /// [`Self::query`] would scan, without executing anything. A caller
    /// that goes on to execute the query passes
    /// [`query.pinned(sensors)`](Query::pinned), so a request resolves
    /// its names once, whichever plane serves it.
    fn resolve(&self, query: &Query) -> Vec<SensorId> {
        query.selector.clone().resolve(Some(self.registry()))
    }

    /// Per-sensor write versions, in the given sensor order. Callers that
    /// cache a result snapshot these *before* executing the query: a write
    /// landing mid-execution then leaves the recorded versions stale, so
    /// the entry can only miss — never serve a result computed from
    /// different state.
    fn sensor_versions(&self, sensors: &[SensorId]) -> Vec<u64>;

    /// Executes `query`.
    fn query(&self, query: Query) -> QueryResult;

    /// Shard membership and occupancy; `None` on a plane without shards.
    fn shard_stats(&self) -> Option<ShardStats>;
}

/// The unsharded plane: queries run directly against one store.
pub struct LocalPlane {
    /// The store queries scan.
    pub store: Arc<TimeSeriesStore>,
    /// The registry pattern selectors resolve against.
    pub registry: SensorRegistry,
}

impl QueryPlane for LocalPlane {
    fn registry(&self) -> &SensorRegistry {
        &self.registry
    }

    fn sensor_versions(&self, sensors: &[SensorId]) -> Vec<u64> {
        sensors
            .iter()
            .map(|&s| self.store.sensor_version(s))
            .collect()
    }

    fn query(&self, query: Query) -> QueryResult {
        query.run(&QueryEngine::new(&self.store).with_registry(self.registry.clone()))
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        None
    }
}
