//! Operational key performance indicators.
//!
//! The descriptive row of the paper's Table I is anchored on site-level
//! indicators: PUE (Yuventi & Mehdizadeh), ITUE (Patterson et al.,
//! ISC'13), the job slowdown (Feitelson, JSSPP'01) and the System
//! Information Entropy (Hui et al., FTXS'18). All are simple, but getting
//! the denominators and edge cases right is exactly the kind of thing a
//! shared library should own.

use crate::descriptive::stats::Histogram;

/// Power Usage Effectiveness: total facility power over IT power.
///
/// Returns `None` when IT power is non-positive (an undefined PUE, not an
/// infinite one — idle sites should not report ∞ on dashboards).
pub fn pue(total_facility_kw: f64, it_kw: f64) -> Option<f64> {
    (it_kw > 0.0).then(|| total_facility_kw / it_kw)
}

/// IT Power Usage Effectiveness: total IT power over "useful" compute power
/// (power that reaches CPUs/memory rather than node fans, PSUs, etc.).
///
/// Same convention as [`pue`]: `None` for a non-positive denominator.
pub fn itue(total_it_kw: f64, compute_kw: f64) -> Option<f64> {
    (compute_kw > 0.0).then(|| total_it_kw / compute_kw)
}

/// Bounded slowdown of one job (Feitelson): `max(1, (wait+run)/max(run, τ))`.
pub fn bounded_slowdown(wait_s: f64, run_s: f64, bound_s: f64) -> f64 {
    ((wait_s + run_s) / run_s.max(bound_s)).max(1.0)
}

/// Mean bounded slowdown over a set of `(wait, run)` pairs.
pub fn mean_bounded_slowdown(jobs: &[(f64, f64)], bound_s: f64) -> Option<f64> {
    if jobs.is_empty() {
        return None;
    }
    Some(
        jobs.iter()
            .map(|&(w, r)| bounded_slowdown(w, r, bound_s))
            .sum::<f64>()
            / jobs.len() as f64,
    )
}

/// System Information Entropy (after Hui et al.'s LogSCAN metric): the
/// Shannon entropy of the distribution of observed system states, tracked
/// over a stream of state observations.
///
/// A system sitting in one state has zero entropy; erratic transitions push
/// the entropy towards `log2(states)`. Operators use the trend as a cheap
/// one-number summary of "how unsettled is the machine".
#[derive(Debug, Clone)]
pub struct SystemInformationEntropy {
    hist: Histogram,
}

impl SystemInformationEntropy {
    /// Creates the tracker for state indices `0..states`.
    pub fn new(states: usize) -> Self {
        SystemInformationEntropy {
            hist: Histogram::new(0.0, states as f64, states.max(1)),
        }
    }

    /// Records one observation of `state`.
    pub fn observe(&mut self, state: usize) {
        self.hist.push(state as f64 + 0.5);
    }

    /// Current entropy, bits.
    pub fn entropy_bits(&self) -> f64 {
        self.hist.entropy_bits()
    }

    /// Entropy normalised to `[0, 1]` by the maximum possible for the state
    /// count.
    pub fn normalized(&self) -> f64 {
        let max = (self.hist.counts().len() as f64).log2();
        if max <= 0.0 {
            0.0
        } else {
            self.entropy_bits() / max
        }
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.hist.total()
    }
}

/// Discretises a node's telemetry into a coarse state index for SIE
/// tracking: 3 utilization bands × 2 thermal bands = 6 states.
pub fn node_state(util: f64, temp_c: f64, hot_threshold_c: f64) -> usize {
    let u = if util < 0.1 {
        0
    } else if util < 0.7 {
        1
    } else {
        2
    };
    let t = usize::from(temp_c >= hot_threshold_c);
    u * 2 + t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pue_conventions() {
        assert_eq!(pue(150.0, 100.0), Some(1.5));
        assert_eq!(pue(150.0, 0.0), None);
        assert_eq!(pue(150.0, -1.0), None);
    }

    #[test]
    fn itue_conventions() {
        assert!((itue(100.0, 80.0).unwrap() - 100.0 / 80.0).abs() < 1e-12);
        assert_eq!(itue(100.0, 0.0), None);
    }

    #[test]
    fn slowdown_floors_at_one_and_bounds_tiny_jobs() {
        assert_eq!(bounded_slowdown(0.0, 100.0, 10.0), 1.0);
        // 1-second job that waited 100 s: unbounded slowdown would be 101;
        // bounded with τ=10 gives 10.1.
        assert!((bounded_slowdown(100.0, 1.0, 10.0) - 10.1).abs() < 1e-12);
        assert_eq!(mean_bounded_slowdown(&[], 10.0), None);
        let m = mean_bounded_slowdown(&[(0.0, 100.0), (100.0, 100.0)], 10.0).unwrap();
        assert!((m - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sie_zero_for_stable_system() {
        let mut sie = SystemInformationEntropy::new(6);
        for _ in 0..100 {
            sie.observe(2);
        }
        assert_eq!(sie.entropy_bits(), 0.0);
        assert_eq!(sie.normalized(), 0.0);
    }

    #[test]
    fn sie_max_for_uniform_states() {
        let mut sie = SystemInformationEntropy::new(4);
        for i in 0..400 {
            sie.observe(i % 4);
        }
        assert!((sie.entropy_bits() - 2.0).abs() < 1e-9);
        assert!((sie.normalized() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn node_state_bands() {
        assert_eq!(node_state(0.0, 40.0, 80.0), 0);
        assert_eq!(node_state(0.0, 85.0, 80.0), 1);
        assert_eq!(node_state(0.5, 40.0, 80.0), 2);
        assert_eq!(node_state(0.95, 85.0, 80.0), 5);
    }
}
