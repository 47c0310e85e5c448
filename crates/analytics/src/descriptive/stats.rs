//! Batch statistics: correlation and line-fit helpers for multivariate
//! diagnostics, and a fixed-bin histogram.

/// Pearson correlation coefficient of two equal-length slices.
///
/// Returns `None` when lengths differ, fewer than 2 points, or either series
/// is constant. NaN pairs are skipped (aligned telemetry uses NaN for
/// missing buckets).
pub fn correlation(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() {
        return None;
    }
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .collect();
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx <= 1e-300 || syy <= 1e-300 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Spearman rank correlation: Pearson on ranks (mean rank for ties).
///
/// NaN pairs are skipped, like [`correlation`] — and they must be dropped
/// *before* ranking: a non-finite cell has no meaningful rank, and letting
/// it sort arbitrarily would shift every other rank and silently corrupt ρ
/// (aligned telemetry uses NaN for missing buckets).
pub fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() {
        return None;
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .unzip();
    if xs.len() < 2 {
        return None;
    }
    correlation(&ranks(&xs), &ranks(&ys))
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&i, &j| {
        xs[i]
            .partial_cmp(&xs[j])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut r = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = mean_rank;
        }
        i = j + 1;
    }
    r
}

/// Simple linear regression `y = a + b·x` over paired slices.
/// Returns `(intercept, slope)`, or None for degenerate input.
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|v| (v - mx).powi(2)).sum();
    if sxx <= 1e-300 {
        return None;
    }
    let sxy: f64 = x.iter().zip(y).map(|(&a, &b)| (a - mx) * (b - my)).sum();
    let slope = sxy / sxx;
    Some((my - slope * mx, slope))
}

/// Fixed-bin histogram over a closed range; out-of-range samples clamp into
/// the edge bins (dashboards want totals to add up).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && lo < hi, "invalid histogram shape");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = ((t * bins as f64) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalised bin probabilities (empty histogram → all zeros).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Shannon entropy of the bin distribution, in bits.
    pub fn entropy_bits(&self) -> f64 {
        self.probabilities()
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.log2())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert!((correlation(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_handles_nan_and_constants() {
        let a = [1.0, f64::NAN, 3.0, 4.0, 5.0];
        let b = [2.0, 100.0, 6.0, 8.0, 10.0];
        assert!((correlation(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let flat = [3.0, 3.0, 3.0];
        assert!(correlation(&flat, &[1.0, 2.0, 3.0]).is_none());
        assert!(correlation(&[1.0], &[1.0]).is_none());
        assert!(correlation(&[1.0, 2.0], &[1.0]).is_none());
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but non-linear: Pearson < 1, Spearman = 1.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert!(correlation(&a, &b).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_skips_nan_pairs_before_ranking() {
        // A NaN gap cell (ragged alignment) must not shift the other ranks:
        // without the gap pair, the series are perfectly monotone.
        let a = [1.0, f64::NAN, 3.0, 4.0, 5.0];
        let b = [10.0, 999.0, 30.0, 40.0, 50.0];
        assert!((spearman(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        // Symmetric: the gap on the other side is dropped too.
        let c = [10.0, 20.0, f64::NAN, 40.0, 50.0];
        assert!((spearman(&a, &c).unwrap() - 1.0).abs() < 1e-12);
        // Too few finite pairs → no coefficient rather than a fabricated one.
        assert!(spearman(&[1.0, f64::NAN, f64::NAN], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        let (a, b) = linear_fit(&x, &y).unwrap();
        assert!((a - 1.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
    }

    #[test]
    fn histogram_bins_and_entropy() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert!(h.counts().iter().all(|&c| c == 1));
        assert!((h.entropy_bits() - 10f64.log2()).abs() < 1e-9);
        // Out-of-range clamps.
        h.push(-5.0);
        h.push(50.0);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 2);
        assert_eq!(h.total(), 12);
    }
}
