//! Consistent-hash sensor placement for the collector hierarchy.
//!
//! Every shard owns `vnodes` pseudo-random points on a `u64`
//! hash ring; a sensor is owned by the shard whose virtual node is the
//! first at or clockwise-after the sensor's own hash point. Both point
//! sets come from the same seeded FNV-1a construction, so placement is a
//! pure function of `(shard count, vnode count, sensor id)` — two
//! coordinators built from the same [`super::ClusterConfig`] agree on
//! every owner without exchanging any state. The coordinator builds its
//! ring with `VNODES_PER_SHARD` (64) points per shard.
//!
//! Failing a shard removes only that shard's virtual nodes: sensors it
//! owned remap to the next surviving point clockwise, while every other
//! sensor keeps its owner — the minimal-movement property that keeps a
//! rebalance proportional to the failed shard's slice instead of the
//! whole sensor space.

use crate::hash::{avalanche, fnv1a_fold, FNV_OFFSET};
use crate::sensor::SensorId;

/// Identifier of one collector shard: its index in the coordinator's
/// shard table, stable across failures (a failed shard's id is never
/// reused for a different shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard's table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// FNV-1a over little-endian `u64`s, finished with [`avalanche`] — plain
/// FNV-1a is affine over small sequential shard, vnode and sensor
/// indices, which collapses nearly all sensors onto one owner.
/// Deterministic across platforms and independent of any process-global
/// hasher state.
fn fnv64(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        fnv1a_fold(&mut h, &w.to_le_bytes());
    }
    avalanche(h)
}

/// Ring point for `(shard, vnode)`. Both inputs pass through `u32` —
/// the wire width of [`ShardId`] — and widen losslessly with
/// `u64::from`, so `usize` never reaches the hash and the digest is
/// bit-identical on 32-bit edge collectors and 64-bit CI. (The `+ 1`
/// happens *after* widening: `u32::MAX + 1` must not wrap.)
fn ring_point(shard: u32, vnode: u32) -> u64 {
    fnv64(&[u64::from(shard) + 1, u64::from(vnode) + 1])
}

/// The ownership map: which shard owns which slice of the sensor space.
///
/// `epoch` increments on every membership change (failure or
/// restart-in-place), so consumers can detect that cached owner lookups
/// are stale.
#[derive(Debug, Clone)]
pub struct PlacementMap {
    /// Ring points, sorted ascending by hash point. Rebuilt on failure.
    ring: Vec<(u64, ShardId)>,
    /// Liveness per shard id.
    alive: Vec<bool>,
    /// Virtual nodes per shard.
    vnodes: usize,
    epoch: u64,
}

impl PlacementMap {
    /// Builds the ring for `shards` shards with `vnodes` virtual nodes
    /// each.
    ///
    /// # Panics
    /// Panics if `shards == 0`, `vnodes == 0`, or either
    /// exceeds `u32::MAX` (shard ids and vnode indexes are `u32` on the
    /// ring so placement digests are identical across `usize` widths).
    pub fn new(shards: usize, vnodes: usize) -> Self {
        assert!(shards > 0, "placement needs at least one shard");
        assert!(vnodes > 0, "placement needs at least one vnode");
        assert!(shards <= u32::MAX as usize, "shard count exceeds u32");
        assert!(vnodes <= u32::MAX as usize, "vnode count exceeds u32");
        let mut map = PlacementMap {
            ring: Vec::new(),
            alive: vec![true; shards],
            vnodes,
            epoch: 0,
        };
        map.rebuild_ring();
        map
    }

    fn rebuild_ring(&mut self) {
        self.ring.clear();
        for (s, alive) in self.alive.iter().enumerate() {
            if !alive {
                continue;
            }
            // `as u32` is lossless here: `new()` rejects counts above
            // `u32::MAX`, and `s`/`v` index those counts.
            for v in 0..self.vnodes {
                self.ring
                    .push((ring_point(s as u32, v as u32), ShardId(s as u32)));
            }
        }
        self.ring.sort_unstable();
    }

    /// The shard currently owning `sensor`.
    ///
    /// # Panics
    /// Panics if every shard has failed (an empty ring has no owners; the
    /// coordinator restarts the last shard in place instead of removing it).
    pub fn owner(&self, sensor: SensorId) -> ShardId {
        let point = fnv64(&[u64::from(sensor.0)]);
        let idx = self.ring.partition_point(|&(p, _)| p < point);
        self.ring
            .get(idx)
            .or_else(|| self.ring.first())
            .map(|&(_, s)| s)
            // odalint: allow(panic-unwrap) -- fail() refuses to remove the last alive shard, so the ring is never empty
            .expect("placement ring is empty: every shard has failed")
    }

    /// Marks `shard` failed and removes its virtual nodes, remapping only
    /// the sensors it owned. Returns `false` (and changes nothing) if the
    /// shard is unknown, already failed, or the last one alive.
    pub fn fail(&mut self, shard: ShardId) -> bool {
        let alive_count = self.alive.iter().filter(|a| **a).count();
        let Some(alive) = self.alive.get_mut(shard.index()) else {
            return false;
        };
        if !*alive || alive_count <= 1 {
            return false;
        }
        *alive = false;
        self.epoch += 1;
        self.rebuild_ring();
        true
    }

    /// Records a restart-in-place (same shard id, recovered from its own
    /// durable tier): ownership is unchanged but the epoch advances so
    /// observers see a membership event.
    pub fn note_restart(&mut self) {
        self.epoch += 1;
    }

    /// Whether `shard` is alive.
    pub fn is_alive(&self, shard: ShardId) -> bool {
        self.alive.get(shard.index()).copied().unwrap_or(false)
    }

    /// Alive shard ids, ascending.
    pub fn alive(&self) -> Vec<ShardId> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(s, _)| ShardId(s as u32))
            .collect()
    }

    /// Configured shard count (alive or not).
    pub fn shard_count(&self) -> usize {
        self.alive.len()
    }

    /// Membership epoch: bumps on every failure or restart.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_total() {
        let a = PlacementMap::new(4, 64);
        let b = PlacementMap::new(4, 64);
        for i in 0..500u32 {
            let s = SensorId(i);
            assert_eq!(a.owner(s), b.owner(s));
            assert!(a.owner(s).index() < 4);
        }
    }

    #[test]
    fn every_shard_owns_a_slice() {
        let map = PlacementMap::new(8, 64);
        let mut counts = [0usize; 8];
        for i in 0..2_000u32 {
            counts[map.owner(SensorId(i)).index()] += 1;
        }
        // Fair share is 250; require at least a quarter of it so the
        // affine-hash clustering regression (one shard owning nearly
        // everything) can never come back.
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 62, "shard {s} owns only {c} of 2000 sensors");
        }
    }

    #[test]
    fn failure_moves_only_the_failed_slice() {
        let mut map = PlacementMap::new(4, 64);
        let before: Vec<ShardId> = (0..1_000u32).map(|i| map.owner(SensorId(i))).collect();
        assert!(map.fail(ShardId(2)));
        assert_eq!(map.epoch(), 1);
        for (i, &old) in before.iter().enumerate() {
            let new = map.owner(SensorId(i as u32));
            if old == ShardId(2) {
                assert_ne!(new, ShardId(2), "sensor {i} still on the failed shard");
            } else {
                assert_eq!(new, old, "sensor {i} moved although its owner survived");
            }
        }
    }

    /// 32-bit portability pin: every value feeding the ring hash is a
    /// `u32` widened losslessly, so these digests must be identical on
    /// every platform — a 32-bit edge collector has to agree with 64-bit
    /// CI on every owner. The constants were computed once on x86-64;
    /// the `u32::MAX` inputs sit exactly on the boundary where a stray
    /// `usize`-width cast or a pre-widening `+ 1` would wrap on 32-bit
    /// and change the digest.
    #[test]
    fn hash_points_are_width_independent_at_u32_boundaries() {
        assert_eq!(ring_point(0, 0), 0xd6fb_bdd4_a170_35e7);
        assert_eq!(ring_point(1, 1), 0xb0cf_5f45_7c66_a13e);
        assert_eq!(ring_point(u32::MAX, 1), 0x0f28_93c9_d666_2b8b);
        assert_eq!(ring_point(1, u32::MAX), 0xb8ad_325a_c8e1_0b8b);
        assert_eq!(ring_point(u32::MAX, u32::MAX), 0x61e2_a99f_4f2a_6395);
        assert_eq!(fnv64(&[u64::from(u32::MAX)]), 0x1073_d272_73ad_8deb);
        // And a derived whole-map digest: the owner sequence of a real
        // placement, folded through the same hash.
        let map = PlacementMap::new(3, 8);
        let owners: Vec<u64> = (0..100u32)
            .map(|i| u64::from(map.owner(SensorId(i)).0))
            .collect();
        assert_eq!(fnv64(&owners), 0x645a_3b84_caac_196e);
    }

    #[test]
    fn last_shard_cannot_be_failed() {
        let mut map = PlacementMap::new(2, 16);
        assert!(map.fail(ShardId(0)));
        assert!(!map.fail(ShardId(1)), "last alive shard must stay");
        assert!(!map.fail(ShardId(0)), "double-failure is a no-op");
        assert_eq!(map.alive(), vec![ShardId(1)]);
    }
}
