//! The coordinator: ingest routing, scatter-gather queries, and
//! failure-driven rebalance over a set of collector shards.
//!
//! # Determinism argument
//!
//! Unsharded query execution is per-sensor for everything except the
//! final alignment step: [`crate::query`] fetches, buckets and
//! aggregates each resolved sensor independently, then (for aligned
//! queries only) merges the per-sensor bucket lists onto a union grid.
//! The coordinator exploits exactly that structure:
//!
//! 1. the selector is resolved once, centrally, into the same ordered
//!    sensor list the unsharded engine would produce;
//! 2. each shard executes a sub-query over only the sensors it owns —
//!    per-sensor work identical to the unsharded scan, including the
//!    rollup-tier planner (aligned queries are rewritten to per-shard
//!    mean-bucket queries, the exact per-sensor computation the
//!    unsharded aligned path runs);
//! 3. partial results are gathered in ascending-shard-id order and each
//!    per-sensor partial is slotted back into the sensor's position in
//!    the resolved order — a deterministic fold whose result does not
//!    depend on shard count or reply timing;
//! 4. for aligned queries the coordinator runs the same
//!    [`align_buckets`] merge the unsharded engine runs, over per-sensor
//!    inputs that are bit-identical to the unsharded ones.
//!
//! Every step is either per-sensor-identical or a deterministic
//! reassembly, so [`QueryResult::digest`] is bit-identical at any shard
//! count, including `shards = 1` — the property `tests/cluster.rs`
//! asserts.
//!
//! # Rebalance protocol
//!
//! A node-failure fault against a shard runs fail-stop handoff:
//! drain-stop the shard (its queue empties and its WAL syncs), remove
//! its virtual nodes from the placement ring (only its sensors remap),
//! reopen its durable tier ([`PersistentEngine::open`]) from the
//! surviving filesystem, and replay each moved sensor's readings into
//! its new owner in acceptance order. Because shards acknowledge an
//! ingest only after the WAL sync (see [`super::shard`]), no accepted
//! reading is lost while that tier reads back whole. History it cannot
//! read back — the tier fails to open, a segment fails verification, a
//! sensor's read fails — is counted in
//! [`ClusterCoordinator::handoff_errors`] rather than dropped unseen. The
//! last alive shard cannot be removed; failing it restarts it in place
//! from its own durable tier instead.

use crate::cluster::placement::{PlacementMap, ShardId};
use crate::cluster::shard::{ShardCmd, ShardHandle, ShardHealth};
use crate::cluster::{ClusterConfig, VNODES_PER_SHARD};
use crate::metrics::MetricsRegistry;
use crate::plane::{QueryPlane, ShardStats};
use crate::query::{
    align_buckets, Aggregation, Query, QueryResult, ResultData, SensorSelector, Shape,
};
use crate::reading::{Reading, ReadingBatch, Timestamp};
use crate::sensor::{SensorId, SensorRegistry};
use crate::storage::engine::PersistentEngine;
use crate::storage::{FsError, SimFs, StorageFs};
use crossbeam_channel::{bounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-shard occupancy snapshot surfaced through `/api/v1/stats`.
#[derive(Debug, Clone)]
pub struct ShardOccupancy {
    /// Which shard.
    pub shard: ShardId,
    /// Whether the shard is alive (failed shards report zeros).
    pub alive: bool,
    /// Sensors the placement ring currently assigns to this shard.
    pub sensors_owned: u64,
    /// Readings resident in the shard's hot store.
    pub readings: u64,
    /// Readings evicted from the shard's ring buffers.
    pub evicted: u64,
    /// Readings durably stored by the shard's archive tier.
    pub durable_len: u64,
    /// Batches the shard has published since spawn.
    pub published: u64,
}

struct State {
    placement: PlacementMap,
    /// Indexed by shard id; `None` marks a failed (removed) shard.
    shards: Vec<Option<ShardHandle>>,
    rebalances: u64,
    handoff_errors: u64,
}

/// Routes ingest by sensor placement and executes queries via
/// scatter-gather over the shard set (see the module docs for the
/// determinism and rebalance contracts).
///
/// The lock guards *membership only* (the shard table and placement
/// ring); the data plane is entirely message-passing — readers of the
/// lock send commands into shard queues and shards never take the lock,
/// so there are no shared locks across shards and no lock-ordering
/// hazards between ingest, query and rebalance.
pub struct ClusterCoordinator {
    cfg: ClusterConfig,
    registry: SensorRegistry,
    state: RwLock<State>,
}

impl ClusterCoordinator {
    /// Spawns `cfg.shards` collector shards, each over its own private
    /// simulated filesystem, and builds the placement ring.
    ///
    /// # Panics
    /// Panics if `cfg.shards == 0` (a cluster needs at least one shard).
    pub fn new(cfg: ClusterConfig, registry: SensorRegistry) -> Result<Self, FsError> {
        let placement = PlacementMap::new(cfg.shards, VNODES_PER_SHARD);
        let mut shards = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let fs: Arc<dyn StorageFs> = Arc::new(SimFs::new());
            shards.push(Some(ShardHandle::spawn(ShardId(s as u32), &cfg, fs)?));
        }
        Ok(ClusterCoordinator {
            cfg,
            registry,
            state: RwLock::new(State {
                placement,
                shards,
                rebalances: 0,
                handoff_errors: 0,
            }),
        })
    }

    /// Configured shard count (alive or not).
    pub fn shard_count(&self) -> usize {
        self.state.read().placement.shard_count()
    }

    /// Alive shard ids, ascending.
    pub fn alive_shards(&self) -> Vec<ShardId> {
        self.state.read().placement.alive()
    }

    /// Membership epoch (bumps on every failure or restart).
    pub fn epoch(&self) -> u64 {
        self.state.read().placement.epoch()
    }

    /// Rebalances (slice handoffs to surviving shards) performed so far.
    /// A last-shard restart-in-place moves no data and is *not* counted
    /// here; it is visible as an [`Self::epoch`] bump instead.
    pub fn rebalances(&self) -> u64 {
        self.state.read().rebalances
    }

    /// Pieces of a failed shard's history its rebalance could not move: one
    /// per failed open of its durable tier, per segment that open dropped
    /// for failing verification, and per sensor whose read failed.
    pub fn handoff_errors(&self) -> u64 {
        self.state.read().handoff_errors
    }

    /// The registry shared by every shard's query engine.
    pub fn registry(&self) -> &SensorRegistry {
        &self.registry
    }

    /// The shard currently owning `sensor`.
    pub fn owner(&self, sensor: SensorId) -> ShardId {
        self.state.read().placement.owner(sensor)
    }

    /// Routes one batch to the shard owning its sensor: a one-element
    /// [`ingest_many`](Self::ingest_many).
    pub fn ingest(&self, batch: ReadingBatch) -> bool {
        self.ingest_many([batch])
    }

    /// Routes a group of batches — one sampling tick's readings — to the
    /// shards owning their sensors: partitioned under one placement read
    /// guard, each shard receives its slice, in group order, as a single
    /// command. Returns `false` if any owner's queue is disconnected (only
    /// possible mid-shutdown).
    pub fn ingest_many(&self, batches: impl IntoIterator<Item = ReadingBatch>) -> bool {
        route(&self.state.read(), batches)
    }

    /// Barrier: returns once every alive shard has drained all commands
    /// enqueued before the call (each queue is FIFO, so a fence reply
    /// proves every earlier ingest on that shard is applied and durable).
    pub fn fence(&self) {
        let state = self.state.read();
        // The guard *must* span the barrier: a concurrent `fail_shard`
        // between scatter and gather could stop a fenced shard and leave
        // its reply forever pending. Shards never take this lock, so the
        // wait cannot deadlock (see the struct docs).
        // odalint: allow(guard-across-blocking) -- fence is a barrier by design; shards never take state, so no deadlock
        fence_alive(&state);
    }

    /// Resolves `query`'s selector to the concrete ordered sensor list —
    /// the same list the unsharded engine would scan (explicit ids as
    /// given; patterns matched against the registry in ascending id
    /// order).
    pub fn resolve(&self, query: &Query) -> Vec<SensorId> {
        query.selector.clone().resolve(Some(&self.registry))
    }

    /// Snapshots per-sensor store versions from the owning shards, in
    /// the given sensor order — the cluster analogue of
    /// [`crate::store::TimeSeriesStore::sensor_version`], used by the
    /// serving layer's result cache.
    pub fn sensor_versions(&self, sensors: &[SensorId]) -> Vec<u64> {
        let state = self.state.read();
        let parts = partition(&state.placement, sensors);
        let pending = scatter(&state, &parts, |sensors, reply| ShardCmd::Versions {
            sensors,
            reply,
        });
        // Gather outside the lock: a slow shard must not stall placement
        // writers. Replies are routed by `reply` channel, not identity,
        // so a concurrent failover cannot misdirect them.
        drop(state);
        gather(sensors.len(), pending, |versions| versions)
    }

    /// Executes `query` by scatter-gather: resolve centrally, send each
    /// shard a sub-query over the sensors it owns, gather partials in
    /// ascending-shard-id order, and slot each per-sensor partial back
    /// into the sensor's resolved position. Bit-identical to unsharded
    /// execution at any shard count (see the module docs).
    pub fn query(&self, query: Query) -> QueryResult {
        let Query {
            selector,
            range,
            rate,
            raw_only,
            shape,
        } = query;
        let sensors = selector.resolve(Some(&self.registry));
        // Aligned queries cannot be executed per-shard directly (the
        // union grid spans all sensors), but their per-sensor core —
        // mean-bucketing at the requested width — is exactly a bucket
        // query, so scatter that and run the final alignment centrally.
        let sub_shape = match shape {
            Shape::Aligned { bucket_ms } => Shape::Buckets {
                bucket_ms,
                agg: Aggregation::Mean,
            },
            other => other,
        };
        let state = self.state.read();
        let parts = partition(&state.placement, &sensors);
        let pending = scatter(&state, &parts, |ids, reply| ShardCmd::Query {
            query: Query {
                selector: SensorSelector::Ids(ids),
                range,
                rate,
                raw_only,
                shape: sub_shape,
            },
            reply,
        });
        // The guard drops before the gather — shard-local query execution
        // must not block placement writers.
        drop(state);
        let n = sensors.len();
        let shape = match shape {
            Shape::Readings => ResultData::Series(gather(n, pending, QueryResult::series)),
            Shape::Buckets { .. } => {
                ResultData::Buckets(gather(n, pending, QueryResult::bucket_series))
            }
            Shape::Scalars(_) => ResultData::Scalars(gather(n, pending, QueryResult::scalars)),
            Shape::Aligned { .. } => {
                let (grid, matrix) = align_buckets(&gather(n, pending, QueryResult::bucket_series));
                ResultData::Aligned { grid, matrix }
            }
        };
        QueryResult { sensors, shape }
    }

    /// Health reports from every alive shard, in ascending shard order.
    pub fn health(&self) -> Vec<ShardHealth> {
        let pending = ask_alive(&self.state.read(), |reply| ShardCmd::Health { reply });
        // Gathered with the lock released; see `query`.
        pending
            .into_iter()
            .filter_map(|(_, rx)| rx.recv().ok())
            .collect()
    }

    /// Per-shard occupancy for `/api/v1/stats`: one entry per configured
    /// shard (failed shards report `alive: false` and zeros).
    pub fn occupancy(&self) -> Vec<ShardOccupancy> {
        let health = self.health();
        let state = self.state.read();
        let mut owned = vec![0u64; state.placement.shard_count()];
        for meta in self.registry.all() {
            let owner = state.placement.owner(meta.id);
            if let Some(slot) = owned.get_mut(owner.index()) {
                *slot += 1;
            }
        }
        (0..state.placement.shard_count())
            .map(|i| {
                let shard = ShardId(i as u32);
                let alive = state.placement.is_alive(shard);
                let h = health.iter().find(|h| h.shard == shard);
                ShardOccupancy {
                    shard,
                    alive,
                    sensors_owned: if alive {
                        owned.get(i).copied().unwrap_or(0)
                    } else {
                        0
                    },
                    readings: h.map(|h| h.report.total_len() as u64).unwrap_or(0),
                    evicted: h.map(|h| h.report.total_evicted()).unwrap_or(0),
                    durable_len: h.map(|h| h.durable_len).unwrap_or(0),
                    published: h.map(|h| h.published).unwrap_or(0),
                }
            })
            .collect()
    }

    /// Fails `shard` and rebalances its slice: drain-stop the shard,
    /// remove its ring points, reopen its durable tier from the
    /// surviving filesystem and replay every moved sensor into its new
    /// owner in acceptance order (no accepted reading is lost — see the
    /// module docs). Failing the last alive shard restarts it in place
    /// from its own durable tier instead of removing it.
    ///
    /// Returns `false` if `shard` is unknown or already failed.
    pub fn fail_shard(&self, shard: ShardId) -> bool {
        let mut state = self.state.write();
        if !state.placement.is_alive(shard) {
            return false;
        }
        let Some(handle) = state.shards.get_mut(shard.index()).and_then(Option::take) else {
            return false;
        };
        // Drain-stop: the queue empties and the WAL syncs, so the
        // filesystem below holds every reading the shard ever accepted.
        // The write guard intentionally spans the whole failover — no
        // ingest/query may observe a half-failed cluster. The stopped
        // shard drains independently of this lock (shards never take it).
        // odalint: allow(guard-across-blocking) -- failover is exclusive by design; the drained shard never takes state
        let fs = handle.stop();
        if !state.placement.fail(shard) {
            // Last alive shard: restart in place. The backend replays the
            // durable tier into a fresh hot store on open, recovering ring
            // and rollup state bit-identically.
            match ShardHandle::spawn(shard, &self.cfg, fs) {
                Ok(h) => {
                    if let Some(slot) = state.shards.get_mut(shard.index()) {
                        *slot = Some(h);
                    }
                    // No data moved owners: an epoch bump records the
                    // membership event, the rebalance counter does not.
                    state.placement.note_restart();
                    return true;
                }
                Err(_) => return false,
            }
        }
        // Handoff: moved sensors are exactly the failed shard's slice
        // (consistent hashing moves nothing else). Placement was captured
        // per-sensor *before* the ring rebuild via ownership of the old
        // map — recompute from the new map's perspective instead: a
        // sensor moved iff its new owner differs from `shard`, and the
        // failed shard's durable tier holds only its own sensors, so
        // replaying every sensor it stored is precisely the moved set.
        let report = MetricsRegistry::new();
        match PersistentEngine::open(Arc::clone(&fs), self.cfg.engine.clone(), &report) {
            Ok((engine, recovery)) => {
                state.handoff_errors += recovery.segments_dropped as u64;
                for meta in self.registry.all() {
                    let mut readings: Vec<Reading> = Vec::new();
                    let read =
                        engine.range_into(meta.id, Timestamp::ZERO, Timestamp::MAX, &mut readings);
                    if read.is_err() {
                        state.handoff_errors += 1;
                        continue;
                    }
                    if readings.is_empty() {
                        continue;
                    }
                    // One command per sensor: a sensor's whole history is
                    // already a large group, and the queue bounds how many wait.
                    let sensor = meta.id;
                    route(&state, [ReadingBatch { sensor, readings }]);
                }
            }
            Err(_) => state.handoff_errors += 1,
        }
        // Fence the survivors so the handoff is fully applied (and
        // durable on the new owners) before the failure "completes".
        // odalint: allow(guard-across-blocking) -- failover barrier by design; survivors never take state, so no deadlock
        fence_alive(&state);
        state.rebalances += 1;
        true
    }

    /// Maps a chaos-harness node failure onto the shard hierarchy: node
    /// `node_index` is served by collector shard `node_index % shards`;
    /// if that shard already failed, the fault cascades to the next
    /// alive shard clockwise. Returns the shard actually failed (or
    /// restarted in place), or `None` if the cluster has no alive shard
    /// to fail.
    pub fn apply_node_failure(&self, node_index: usize) -> Option<ShardId> {
        let (count, alive) = {
            let state = self.state.read();
            (state.placement.shard_count(), state.placement.alive())
        };
        if count == 0 || alive.is_empty() {
            return None;
        }
        let start = node_index % count;
        for off in 0..count {
            let id = ShardId(((start + off) % count) as u32);
            if alive.contains(&id) && self.fail_shard(id) {
                return Some(id);
            }
        }
        None
    }
}

impl Drop for ClusterCoordinator {
    fn drop(&mut self) {
        let state = self.state.get_mut();
        for slot in state.shards.iter_mut() {
            if let Some(h) = slot.take() {
                let _ = h.stop();
            }
        }
    }
}

impl QueryPlane for ClusterCoordinator {
    fn registry(&self) -> &SensorRegistry {
        &self.registry
    }

    fn sensor_versions(&self, sensors: &[SensorId]) -> Vec<u64> {
        ClusterCoordinator::sensor_versions(self, sensors)
    }

    fn query(&self, query: Query) -> QueryResult {
        ClusterCoordinator::query(self, query)
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        Some(ShardStats {
            count: self.shard_count(),
            alive: self.alive_shards().len(),
            epoch: self.epoch(),
            rebalances: self.rebalances(),
            handoff_errors: self.handoff_errors(),
            occupancy: self.occupancy(),
        })
    }
}

/// Partitions `batches` by owning shard, keeping their order, and sends
/// each owner its slice as one ingest command, in ascending shard order.
/// `false` if an owner is gone or its queue disconnected.
fn route(state: &State, batches: impl IntoIterator<Item = ReadingBatch>) -> bool {
    let mut slices: Vec<Vec<ReadingBatch>> = Vec::new();
    slices.resize_with(state.shards.len(), Vec::new);
    let mut all_routed = true;
    for batch in batches {
        match slices.get_mut(state.placement.owner(batch.sensor).index()) {
            Some(slice) => slice.push(batch),
            None => all_routed = false,
        }
    }
    for (handle, slice) in state.shards.iter().zip(slices) {
        if slice.is_empty() {
            continue;
        }
        all_routed &= match handle {
            Some(h) => h.tx.send(ShardCmd::Ingest(slice)).is_ok(),
            None => false,
        };
    }
    all_routed
}

/// Sends every alive shard the command `make` builds around a fresh
/// reply channel; returns the pending replies in ascending shard order.
fn ask_alive<R>(
    state: &State,
    make: impl Fn(Sender<R>) -> ShardCmd,
) -> Vec<(ShardId, Receiver<R>)> {
    let mut pending = Vec::new();
    for id in state.placement.alive() {
        let Some(Some(h)) = state.shards.get(id.index()) else {
            continue;
        };
        let (reply, rx) = bounded(1);
        if h.tx.send(make(reply)).is_ok() {
            pending.push((id, rx));
        }
    }
    pending
}

/// Sends a fence to every alive shard and waits for all replies.
fn fence_alive(state: &State) {
    for (_, rx) in ask_alive(state, |reply| ShardCmd::Fence { reply }) {
        let _ = rx.recv();
    }
}

/// `sensors` grouped by owning shard, each tagged with its position in
/// the input order. `BTreeMap` iteration is what makes scatter and gather
/// run in ascending shard-id order.
type Parts = BTreeMap<ShardId, Vec<(usize, SensorId)>>;

fn partition(placement: &PlacementMap, sensors: &[SensorId]) -> Parts {
    let mut parts = Parts::new();
    for (pos, &s) in sensors.iter().enumerate() {
        parts.entry(placement.owner(s)).or_default().push((pos, s));
    }
    parts
}

/// One shard's slice of a scatter, paired with its pending reply.
type Pending<'p, R> = Vec<(&'p [(usize, SensorId)], Receiver<R>)>;

/// Sends each owning shard the command `make` builds for its slice of
/// sensors; a failed shard's slice is skipped (its slots stay empty).
fn scatter<'p, R>(
    state: &State,
    parts: &'p Parts,
    make: impl Fn(Vec<SensorId>, Sender<R>) -> ShardCmd,
) -> Pending<'p, R> {
    let mut pending = Vec::new();
    for (shard, slice) in parts {
        let Some(Some(h)) = state.shards.get(shard.index()) else {
            continue;
        };
        let (reply, rx) = bounded(1);
        let ids = slice.iter().map(|&(_, s)| s).collect();
        if h.tx.send(make(ids, reply)).is_ok() {
            pending.push((slice.as_slice(), rx));
        }
    }
    pending
}

/// Receives each shard's reply in scatter order, `unpack`s it into
/// per-sensor partials (in the order the sub-command listed the sensors)
/// and writes each into its sensor's position among `len` slots — a
/// shard-id-sorted fold independent of reply timing.
fn gather<R, T: Clone + Default>(
    len: usize,
    pending: Pending<'_, R>,
    unpack: impl Fn(R) -> Vec<T>,
) -> Vec<T> {
    let mut slots = vec![T::default(); len];
    for (slice, rx) in pending {
        let Ok(reply) = rx.recv() else { continue };
        for (&(pos, _), partial) in slice.iter().zip(unpack(reply)) {
            if let Some(slot) = slots.get_mut(pos) {
                *slot = partial;
            }
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::{SensorKind, Unit};
    use crate::storage::{segment, EngineConfig};

    /// A rebalance that cannot read part of the failed shard's history
    /// says so: a bit flipped in a sealed block makes the reopen drop that
    /// segment, and the lost piece shows beside `rebalances`.
    #[test]
    fn a_handoff_that_cannot_read_history_counts_it() {
        let registry = SensorRegistry::new();
        let sensors: Vec<SensorId> = (0..16)
            .map(|i| registry.register(&format!("/h/s{i:02}"), SensorKind::Power, Unit::Watts))
            .collect();
        let cluster = ClusterCoordinator::new(
            ClusterConfig {
                engine: EngineConfig {
                    segment_max_readings: 8,
                    wal_sync_every: 1,
                    ..EngineConfig::default()
                },
                ..ClusterConfig::with_shards(2)
            },
            registry,
        )
        .unwrap();
        let mine: Vec<SensorId> = sensors
            .into_iter()
            .filter(|&s| cluster.owner(s) == ShardId(0))
            .collect();
        assert!(!mine.is_empty());
        for t in 0..8u64 {
            cluster.ingest_many(mine.iter().map(|&s| {
                ReadingBatch::single(s, Reading::new(Timestamp::from_secs(t), t as f64))
            }));
        }
        cluster.fence();

        let fs = {
            let state = cluster.state.read();
            let shard = state.shards[0].as_ref().expect("shard 0 is alive");
            Arc::clone(&shard.fs)
        };
        let name = fs
            .list()
            .unwrap()
            .into_iter()
            .find(|n| segment::parse_file_name(n).is_some())
            .expect("shard 0 sealed a segment");
        let mut bytes = fs.read(&name).unwrap();
        let (_, dir) = segment::decode_indexed(&bytes).unwrap();
        let hit = *dir.iter().next().expect("the segment has a block");
        bytes[(hit.offset + hit.len / 2) as usize] ^= 0x01;
        fs.write_atomic(&name, &bytes).unwrap();

        assert!(cluster.fail_shard(ShardId(0)));
        assert_eq!(cluster.rebalances(), 1);
        assert_eq!(cluster.handoff_errors(), 1);
        let stats = cluster.shard_stats().expect("a cluster has shard stats");
        assert_eq!((stats.rebalances, stats.handoff_errors), (1, 1));
    }
}
