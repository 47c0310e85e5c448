//! Rack grouping and rack-local thermal environment.
//!
//! Racks matter to the framework for two reasons: cooling-aware scheduling
//! (the §IV-C prescriptive system-software use case) needs *thermally
//! heterogeneous* placement targets, and network contention is diagnosed at
//! rack-uplink granularity. Each rack therefore carries an inlet-temperature
//! offset describing its position in the room's airflow/loop layout: racks
//! at the end of a row (or far along the water loop) run a few degrees
//! warmer, so placing heat there is more expensive.

use super::node::NodeId;
use serde::Serialize;

/// Identifier of a rack (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct RackId(pub u32);

impl RackId {
    /// Dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A rack: a set of nodes plus its local cooling penalty.
#[derive(Debug, Clone)]
pub struct Rack {
    /// This rack's id.
    pub id: RackId,
    /// Nodes housed in the rack, in id order.
    pub nodes: Vec<NodeId>,
    /// Additional inlet temperature seen by this rack's nodes relative to
    /// the loop setpoint, °C. Deterministic per layout.
    pub inlet_offset_c: f64,
}

impl Rack {
    /// Computes the inlet offset for rack `i` of `n` in the default layout:
    /// offsets grow linearly along the loop from 0 to `max_offset_c`.
    pub fn layout_offset(i: usize, n: usize, max_offset_c: f64) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        max_offset_c * i as f64 / (n - 1) as f64
    }
}

/// Builds `racks` racks of `nodes_per_rack` nodes with the default linear
/// thermal layout, assigning dense node ids rack-major.
pub fn build_racks(racks: usize, nodes_per_rack: usize, max_offset_c: f64) -> Vec<Rack> {
    (0..racks)
        .map(|r| Rack {
            id: RackId(r as u32),
            nodes: (0..nodes_per_rack)
                .map(|i| NodeId((r * nodes_per_rack + i) as u32))
                .collect(),
            inlet_offset_c: Rack::layout_offset(r, racks, max_offset_c),
        })
        .collect()
}

/// Maps a node to its rack under rack-major dense numbering.
#[inline]
pub fn rack_of(node: NodeId, nodes_per_rack: usize) -> RackId {
    RackId((node.index() / nodes_per_rack) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_racks_assigns_dense_rack_major_ids() {
        let racks = build_racks(3, 4, 3.0);
        assert_eq!(racks.len(), 3);
        assert_eq!(
            racks[0].nodes,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(racks[2].nodes[0], NodeId(8));
    }

    #[test]
    fn thermal_offsets_grow_along_the_loop() {
        let racks = build_racks(4, 2, 3.0);
        assert_eq!(racks[0].inlet_offset_c, 0.0);
        assert_eq!(racks[3].inlet_offset_c, 3.0);
        assert!(racks[1].inlet_offset_c < racks[2].inlet_offset_c);
    }

    #[test]
    fn single_rack_has_zero_offset() {
        let racks = build_racks(1, 8, 3.0);
        assert_eq!(racks[0].inlet_offset_c, 0.0);
    }

    #[test]
    fn rack_of_inverts_numbering() {
        assert_eq!(rack_of(NodeId(0), 4), RackId(0));
        assert_eq!(rack_of(NodeId(3), 4), RackId(0));
        assert_eq!(rack_of(NodeId(4), 4), RackId(1));
        assert_eq!(rack_of(NodeId(11), 4), RackId(2));
    }
}
