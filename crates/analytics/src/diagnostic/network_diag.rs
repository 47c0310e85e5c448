//! Network-contention diagnosis from link-level counters.
//!
//! After Grant et al.'s *overtime* tool and Jha et al.'s link-level traffic
//! characterisation: given per-link offered vs delivered throughput and the
//! set of jobs routed over each link, identify congested links and rank the
//! jobs most likely responsible (aggressors) versus most affected
//! (victims).
//!
//! The attribution heuristic is the one operators actually use: on a
//! congested link, the flow offering the largest share of the traffic is
//! the aggressor; flows offering little but crossing the congested link are
//! victims.

use serde::Serialize;

/// One link's counters for a diagnosis window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkSample {
    /// Link identifier (e.g. rack uplink index).
    pub link: usize,
    /// Offered load, GB/s.
    pub offered_gbps: f64,
    /// Delivered throughput, GB/s.
    pub delivered_gbps: f64,
    /// `(flow id, offered share of this link in GB/s)` for flows routed
    /// over the link.
    pub flows: Vec<(u64, f64)>,
}

/// Diagnosis of one congested link.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Congestion {
    /// The congested link.
    pub link: usize,
    /// `delivered / offered` (< 1 under congestion).
    pub delivery_ratio: f64,
    /// Flows sorted by offered load, descending — the head is the prime
    /// aggressor. `(flow id, offered GB/s, share of link traffic)`.
    pub aggressors: Vec<(u64, f64, f64)>,
    /// Flows that offered less than `victim_share` of the link's traffic
    /// yet suffered the congestion.
    pub victims: Vec<u64>,
}

/// Diagnoses all links, returning one [`Congestion`] per link whose
/// delivery ratio falls below `congestion_threshold` (e.g. 0.95).
/// Flows offering under `victim_share` (fraction of the link's total) are
/// classified as victims rather than aggressors.
pub fn diagnose(
    links: &[LinkSample],
    congestion_threshold: f64,
    victim_share: f64,
) -> Vec<Congestion> {
    let mut out = Vec::new();
    for l in links {
        if l.offered_gbps <= 0.0 {
            continue;
        }
        let ratio = l.delivered_gbps / l.offered_gbps;
        if ratio >= congestion_threshold {
            continue;
        }
        let total: f64 = l.flows.iter().map(|(_, g)| g).sum();
        let mut flows: Vec<(u64, f64, f64)> = l
            .flows
            .iter()
            .map(|&(id, g)| (id, g, if total > 0.0 { g / total } else { 0.0 }))
            .collect();
        flows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let victims = flows
            .iter()
            .filter(|&&(_, _, share)| share < victim_share)
            .map(|&(id, _, _)| id)
            .collect();
        let aggressors = flows
            .into_iter()
            .filter(|&(_, _, share)| share >= victim_share)
            .collect();
        out.push(Congestion {
            link: l.link,
            delivery_ratio: ratio,
            aggressors,
            victims,
        });
    }
    // Worst congestion first.
    out.sort_by(|a, b| a.delivery_ratio.total_cmp(&b.delivery_ratio));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(link: usize, offered: f64, delivered: f64, flows: Vec<(u64, f64)>) -> LinkSample {
        LinkSample {
            link,
            offered_gbps: offered,
            delivered_gbps: delivered,
            flows,
        }
    }

    #[test]
    fn healthy_links_produce_no_findings() {
        let links = vec![
            sample(0, 10.0, 10.0, vec![(1, 10.0)]),
            sample(1, 0.0, 0.0, vec![]),
        ];
        assert!(diagnose(&links, 0.95, 0.2).is_empty());
    }

    #[test]
    fn aggressor_and_victims_are_separated() {
        // Flow 7 hogs 40 of 50 GB/s; flows 1 and 2 offer 5 each.
        let links = vec![sample(0, 50.0, 25.0, vec![(1, 5.0), (7, 40.0), (2, 5.0)])];
        let d = diagnose(&links, 0.95, 0.2);
        assert_eq!(d.len(), 1);
        let c = &d[0];
        assert!((c.delivery_ratio - 0.5).abs() < 1e-12);
        assert_eq!(c.aggressors[0].0, 7);
        assert!((c.aggressors[0].2 - 0.8).abs() < 1e-12);
        assert_eq!(c.victims, vec![1, 2]);
    }

    #[test]
    fn worst_link_sorts_first() {
        let links = vec![
            sample(0, 10.0, 9.0, vec![(1, 10.0)]),
            sample(1, 10.0, 2.0, vec![(2, 10.0)]),
        ];
        let d = diagnose(&links, 0.95, 0.2);
        assert_eq!(d[0].link, 1);
        assert_eq!(d[1].link, 0);
    }

    #[test]
    fn equal_flows_are_all_aggressors() {
        let links = vec![sample(0, 40.0, 20.0, vec![(1, 20.0), (2, 20.0)])];
        let d = diagnose(&links, 0.95, 0.2);
        assert_eq!(d[0].aggressors.len(), 2);
        assert!(d[0].victims.is_empty());
    }
}
