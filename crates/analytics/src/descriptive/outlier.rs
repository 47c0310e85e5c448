//! Outlier removal — part of the paper's definition of descriptive
//! analytics ("normalization, aggregation, outlier removal").
//!
//! One robust rule: the MAD (median absolute deviation) z-score. It is
//! resistant to the outliers it flags, unlike a naive z-score trim, which
//! matters on monitoring data where a stuck sensor can emit values that
//! dominate mean and variance.

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
}
