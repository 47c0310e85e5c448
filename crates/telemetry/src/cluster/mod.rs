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
//!   (with its rollup tiers) fronted by a persistent archive backend,
//!   behind a command channel bounded at `SHARD_QUEUE_DEPTH` (1 024
//!   commands); no shared locks across shards.
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

use crate::storage::EngineConfig;
use crate::store::RollupConfig;

/// Virtual nodes per shard on the placement ring: enough for an even
/// sensor spread at a ring rebuild that stays cheap.
pub(crate) const VNODES_PER_SHARD: usize = 64;

/// Command-queue depth per shard. A full queue blocks the sender (ingest
/// backpressure) until the shard's worker takes the next command.
pub(crate) const SHARD_QUEUE_DEPTH: usize = 1024;

/// Configuration of a collector-shard cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of collector shards (must be ≥ 1).
    pub shards: usize,
    /// Ring-buffer capacity per sensor in each shard's hot store.
    pub per_sensor_capacity: usize,
    /// Rollup tiers each shard maintains online.
    pub rollups: RollupConfig,
    /// Engine tuning of every shard's persistent archive. Each shard
    /// archives through a [`crate::storage::DurableBackend`] over its own
    /// filesystem, so rebalance-on-failure replays the failed shard's
    /// durable tier without losing an accepted reading.
    pub engine: EngineConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            per_sensor_capacity: 1024,
            rollups: RollupConfig::default(),
            engine: EngineConfig::default(),
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
