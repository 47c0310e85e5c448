//! Interconnect model: a two-level tree (node → rack switch → core switch)
//! with contention on the rack uplinks.
//!
//! The model is deliberately at the granularity the surveyed diagnostic works
//! operate on (Grant et al.'s OVIS/overtime, Jha et al.'s link-level
//! analysis): per-link offered load vs capacity. Jobs register per-tick
//! traffic demands; demands of a job that spans racks traverse the uplinks of
//! every rack it touches. When an uplink is oversubscribed every flow
//! through it is scaled by the same factor — the *contention factor* — which
//! feeds back into I/O-bound job progress and is observable as the gap
//! between offered and delivered throughput.

use super::rack::RackId;
use std::collections::HashMap;

/// Static network parameters.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Capacity of each rack uplink, GB/s.
    pub uplink_capacity_gbps: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            uplink_capacity_gbps: 25.0,
        }
    }
}

/// One tick's traffic accounting for a rack uplink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkState {
    /// Sum of demands offered to the link, GB/s.
    pub offered_gbps: f64,
    /// Traffic actually delivered (≤ capacity), GB/s.
    pub delivered_gbps: f64,
    /// `delivered / offered` (1.0 when uncongested or idle).
    pub contention_factor: f64,
}

/// The interconnect. Stateless between ticks except for the last-computed
/// link states (kept for telemetry).
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    racks: usize,
    links: Vec<LinkState>,
    demands: HashMap<u64, (Vec<RackId>, f64)>,
}

impl Network {
    /// Creates the network for `racks` racks.
    pub fn new(config: NetworkConfig, racks: usize) -> Self {
        Network {
            config,
            racks,
            links: vec![
                LinkState {
                    offered_gbps: 0.0,
                    delivered_gbps: 0.0,
                    contention_factor: 1.0,
                };
                racks
            ],
            demands: HashMap::new(),
        }
    }

    /// Registers flow `flow_id` (usually a job id) demanding
    /// `demand_gbps` of inter-rack bandwidth across `racks` this tick.
    /// Flows confined to a single rack do not traverse an uplink and should
    /// not be registered.
    pub fn offer(&mut self, flow_id: u64, racks: Vec<RackId>, demand_gbps: f64) {
        if demand_gbps > 0.0 && !racks.is_empty() {
            self.demands.insert(flow_id, (racks, demand_gbps));
        }
    }

    /// Resolves all offered demands, computing per-link contention, and
    /// returns for each flow the factor (≤ 1) by which its traffic was
    /// scaled — the minimum contention factor over the links it crossed.
    /// Clears the demand set for the next tick.
    pub fn resolve(&mut self) -> HashMap<u64, f64> {
        let mut offered = vec![0.0f64; self.racks];
        for (racks, demand) in self.demands.values() {
            for r in racks {
                offered[r.index()] += demand;
            }
        }
        for (i, link) in self.links.iter_mut().enumerate() {
            let cap = self.config.uplink_capacity_gbps;
            let off = offered[i];
            // odalint: allow(float-eq) -- exact-zero offered load guards the 0/0 division below
            let factor = if off <= cap || off == 0.0 {
                1.0
            } else {
                cap / off
            };
            *link = LinkState {
                offered_gbps: off,
                delivered_gbps: off.min(cap).min(off * factor),
                contention_factor: factor,
            };
        }
        let out = self
            .demands
            .iter()
            .map(|(&id, (racks, _))| {
                let factor = racks
                    .iter()
                    .map(|r| self.links[r.index()].contention_factor)
                    .fold(1.0f64, f64::min);
                (id, factor)
            })
            .collect();
        self.demands.clear();
        out
    }

    /// Last-resolved state of rack `r`'s uplink.
    pub fn link(&self, r: RackId) -> LinkState {
        self.links[r.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(racks: usize) -> Network {
        Network::new(NetworkConfig::default(), racks) // 25 GB/s uplinks
    }

    #[test]
    fn uncongested_flows_run_at_full_rate() {
        let mut n = net(2);
        n.offer(1, vec![RackId(0), RackId(1)], 10.0);
        let factors = n.resolve();
        assert_eq!(factors[&1], 1.0);
        assert_eq!(n.link(RackId(0)).offered_gbps, 10.0);
        assert_eq!(n.link(RackId(0)).delivered_gbps, 10.0);
    }

    #[test]
    fn oversubscribed_link_scales_all_flows_equally() {
        let mut n = net(2);
        n.offer(1, vec![RackId(0)], 20.0);
        n.offer(2, vec![RackId(0)], 30.0);
        let factors = n.resolve();
        assert!((factors[&1] - 0.5).abs() < 1e-12);
        assert!((factors[&2] - 0.5).abs() < 1e-12);
        let l = n.link(RackId(0));
        assert_eq!(l.offered_gbps, 50.0);
        assert!((l.delivered_gbps - 25.0).abs() < 1e-12);
    }

    #[test]
    fn multi_rack_flow_limited_by_worst_link() {
        let mut n = net(3);
        n.offer(1, vec![RackId(0), RackId(1)], 10.0);
        n.offer(2, vec![RackId(1)], 40.0); // congests rack 1's uplink
        let factors = n.resolve();
        assert!(factors[&1] < 1.0, "flow 1 must feel rack 1 congestion");
        assert_eq!(n.link(RackId(0)).contention_factor, 1.0);
        assert!(n.link(RackId(1)).contention_factor < 1.0);
    }

    #[test]
    fn demands_clear_between_ticks() {
        let mut n = net(1);
        n.offer(1, vec![RackId(0)], 50.0);
        n.resolve();
        let factors = n.resolve();
        assert!(factors.is_empty());
        assert_eq!(n.link(RackId(0)).offered_gbps, 0.0);
        assert_eq!(n.link(RackId(0)).contention_factor, 1.0);
    }

    #[test]
    fn zero_demand_flows_are_ignored() {
        let mut n = net(1);
        n.offer(1, vec![RackId(0)], 0.0);
        assert!(n.resolve().is_empty());
    }
}
