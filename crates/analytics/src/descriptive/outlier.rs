//! Outlier removal — part of the paper's definition of descriptive
//! analytics ("normalization, aggregation, outlier removal").
//!
//! Two robust rules: Tukey's IQR fences and the MAD (median absolute
//! deviation) z-score. Both are resistant to the outliers they remove, unlike
//! a naive z-score trim, which matters on monitoring data where a stuck
//! sensor can emit values that dominate mean and variance.

/// Median of a slice (interpolated for even lengths). `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Interpolated quantile of a slice (`q ∈ [0,1]`). `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(if lo == hi {
        v[lo]
    } else {
        v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
    })
}

/// Tukey fences: values outside `[Q1 − k·IQR, Q3 + k·IQR]` are outliers
/// (`k = 1.5` is the classic choice).
#[derive(Debug, Clone, Copy)]
pub struct IqrFences {
    /// Lower fence.
    pub lo: f64,
    /// Upper fence.
    pub hi: f64,
}

impl IqrFences {
    /// Computes fences from data. `None` when the data is empty.
    pub fn fit(xs: &[f64], k: f64) -> Option<Self> {
        let q1 = quantile(xs, 0.25)?;
        let q3 = quantile(xs, 0.75)?;
        let iqr = q3 - q1;
        Some(IqrFences {
            lo: q1 - k * iqr,
            hi: q3 + k * iqr,
        })
    }

    /// Whether `x` is an outlier.
    pub fn is_outlier(&self, x: f64) -> bool {
        !x.is_finite() || x < self.lo || x > self.hi
    }
}

/// MAD-based robust z-score: `0.6745 · (x − median) / MAD`.
/// Returns `None` when MAD is zero (constant data).
pub fn mad_z_scores(xs: &[f64]) -> Option<Vec<f64>> {
    let med = median(xs)?;
    let deviations: Vec<f64> = xs.iter().map(|&x| (x - med).abs()).collect();
    let mad = median(&deviations)?;
    if mad <= 1e-300 {
        return None;
    }
    Some(xs.iter().map(|&x| 0.6745 * (x - med) / mad).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(40.0));
        assert_eq!(quantile(&xs, 0.5), Some(25.0));
    }

    #[test]
    fn mad_z_flags_single_outlier() {
        let mut xs = vec![10.0; 20];
        for (i, x) in xs.iter_mut().enumerate() {
            *x += (i % 5) as f64 * 0.1;
        }
        xs.push(100.0);
        let zs = mad_z_scores(&xs).unwrap();
        assert!(zs.last().unwrap().abs() > 10.0);
    }

    #[test]
    fn mad_constant_data_is_untouched() {
        let xs = vec![7.0; 10];
        assert!(mad_z_scores(&xs).is_none());
    }

    #[test]
    fn non_finite_values_are_outliers() {
        let f = IqrFences::fit(&[1.0, 2.0, 3.0, 4.0], 1.5).unwrap();
        assert!(f.is_outlier(f64::NAN));
        assert!(f.is_outlier(f64::INFINITY));
        assert!(!f.is_outlier(2.5));
    }
}
