//! Sample bookkeeping: durations in, medians / percentiles / rates out.

use std::time::Duration;

/// A bag of duration samples, kept in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.ns.iter().sum())
    }

    /// Mean in nanoseconds (`0.0` when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64
        }
    }

    /// Percentile `p` in `0..=1`, nanoseconds, nearest rank over the sorted
    /// samples (`0.0` when empty).
    pub fn percentile_ns(&self, p: f64) -> f64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, p)
    }

    pub fn median_ns(&self) -> f64 {
        self.percentile_ns(0.5)
    }

    pub fn max_ns(&self) -> f64 {
        self.ns.iter().copied().max().unwrap_or(0) as f64
    }
}

/// Nearest-rank percentile over an already sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Median of plain values (`0.0` when empty); the mean of the middle two
/// for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or `0.0` when the denominator is zero (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = Samples::default();
        for ms in [5u64, 1, 3, 2, 4] {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.median_ns(), 3e6);
        assert_eq!(s.percentile_ns(1.0), 5e6);
        assert_eq!(s.max_ns(), 5e6);
        assert_eq!(s.total(), Duration::from_millis(15));
        assert_eq!(Samples::default().median_ns(), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
