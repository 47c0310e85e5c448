//! Sharded collector hierarchy: distributed ingest and scatter-gather
//! queries over N collector shards.
//!
//! Production ODA stacks (DCDB, LDMS, Examon) scale by pushing collection
//! into a hierarchy of per-node collectors feeding aggregation layers;
//! this module reproduces that shape inside one process while preserving
//! the framework's bit-identical determinism contract:
//!
//! * [`PlacementMap`] — a consistent-hash ring assigns every sensor to
//!   exactly one shard; failing a shard remaps only its slice.
//! * `shard` (internal) — each shard owns a private `TimeSeriesStore`
//!   (with its rollup tiers) fronted by a durable archive backend, behind
//!   a command channel; no shared locks across shards.
//! * [`ClusterCoordinator`] — routes ingest by placement, executes
//!   queries via scatter-gather with a shard-id-sorted deterministic
//!   merge (digests bit-identical at any shard count, including
//!   `shards = 1`), and rebalances ownership on node failure by
//!   replaying the failed shard's durable tier into the new owners.
//!
//! Consumers read gathered results through [`ClusterCoordinator::query`];
//! nothing runs on a shard's thread but the shard's own commands.

mod coordinator;
pub mod placement;
mod shard;

pub use coordinator::{ClusterCoordinator, ShardOccupancy};
pub use placement::{PlacementMap, ShardId};
pub use shard::ShardHealth;

use crate::storage::StorageConfig;
use crate::store::RollupConfig;

/// Configuration of a collector-shard cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of collector shards (must be ≥ 1).
    pub shards: usize,
    /// Virtual nodes per shard on the placement ring; more vnodes give a
    /// more even sensor spread at slightly higher ring-rebuild cost.
    pub vnodes_per_shard: usize,
    /// Ring-buffer capacity per sensor in each shard's hot store.
    pub per_sensor_capacity: usize,
    /// Rollup tiers each shard maintains online.
    pub rollups: RollupConfig,
    /// Storage backend per shard. Rebalance-on-failure replays the failed
    /// shard's durable tier, so recovery without data loss requires a
    /// durable backend ([`crate::storage::BackendKind::Hybrid`] or
    /// [`crate::storage::BackendKind::Persistent`]); with an in-memory
    /// backend a failed shard's slice restarts empty.
    pub storage: StorageConfig,
    /// Command-queue depth per shard (ingest backpressure threshold).
    pub queue_depth: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            vnodes_per_shard: 64,
            per_sensor_capacity: 1024,
            rollups: RollupConfig::default(),
            storage: StorageConfig::hybrid(),
            queue_depth: 1024,
        }
    }
}

impl ClusterConfig {
    /// A config with `shards` shards and defaults for everything else.
    pub fn with_shards(shards: usize) -> Self {
        ClusterConfig {
            shards,
            ..Self::default()
        }
    }
}
