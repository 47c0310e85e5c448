//! Periodic-interference detection — the "identifying sources of OS noise"
//! diagnostic cell (Ferreira et al., SC'08).
//!
//! OS and kernel noise manifests as *periodic* slowdowns in an otherwise
//! flat fine-grained timing series (fixed-work-quantum benchmarks). The
//! classic analysis detrends the series and looks for strong peaks in its
//! autocorrelation: the lag of the first strong peak is the interference
//! period, and the excess of the affected samples estimates its cost.

use serde::Serialize;

/// A detected periodic interference source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Interference {
    /// Period of the interference, in samples.
    pub period: usize,
    /// Autocorrelation strength at that lag, `0..=1`.
    pub strength: f64,
    /// Mean relative excess of affected samples over the series median
    /// (e.g. 0.2 = interfering samples run 20% over baseline).
    pub mean_excess: f64,
}

/// Normalised autocorrelation of `xs` at `lag` (biased estimator).
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    let n = xs.len();
    if lag == 0 {
        return 1.0;
    }
    if lag >= n || n < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var: f64 = xs.iter().map(|&x| (x - mean).powi(2)).sum();
    if var <= 1e-300 {
        return 0.0;
    }
    let cov: f64 = (0..n - lag)
        .map(|i| (xs[i] - mean) * (xs[i + lag] - mean))
        .sum();
    cov / var
}

/// Scans lags in `min_period..=max_period` for the strongest
/// autocorrelation peak. Returns `None` if no lag reaches
/// `strength_threshold` (typical: 0.3) — i.e. the timing series is clean.
pub fn detect_interference(
    timings: &[f64],
    min_period: usize,
    max_period: usize,
    strength_threshold: f64,
) -> Option<Interference> {
    if timings.len() < min_period.max(4) * 3 {
        return None;
    }
    let max_period = max_period.min(timings.len() / 3);
    let mut peaks: Vec<(usize, f64)> = Vec::new();
    for lag in min_period.max(2)..=max_period {
        let r = autocorrelation(timings, lag);
        if r >= strength_threshold {
            peaks.push((lag, r));
        }
    }
    // Prefer the *smallest* lag among peaks within 10% of the strongest:
    // multiples of the true period correlate almost as strongly, and
    // reporting a harmonic would misattribute the interference source.
    let max_r = peaks
        .iter()
        .map(|&(_, r)| r)
        .fold(f64::NEG_INFINITY, f64::max);
    let (period, strength) = peaks.into_iter().find(|&(_, r)| r >= 0.9 * max_r)?;
    // Estimate cost: samples more than 2 robust sigmas above median.
    let med = crate::descriptive::outlier::median(timings)?;
    let dev: Vec<f64> = timings.iter().map(|&x| (x - med).abs()).collect();
    let mad = crate::descriptive::outlier::median(&dev)?;
    let scale = (mad / 0.6745).max(med.abs() * 1e-6).max(1e-12);
    let noisy: Vec<f64> = timings
        .iter()
        .copied()
        .filter(|&x| (x - med) / scale > 2.0)
        .collect();
    let mean_excess = if noisy.is_empty() || med.abs() < 1e-12 {
        0.0
    } else {
        (noisy.iter().sum::<f64>() / noisy.len() as f64 - med) / med
    };
    Some(Interference {
        period,
        strength,
        mean_excess,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic aperiodic pseudo-noise in `[0, 1)` (shader-style hash;
    /// no short period, unlike a multiplicative congruence mod a small
    /// prime).
    fn aperiodic_noise(i: usize) -> f64 {
        ((i as f64 * 12.9898).sin() * 43_758.545_3).fract().abs()
    }

    /// Flat 1.0ms timings with a +30% spike every `period` samples plus
    /// deterministic micro-jitter.
    fn noisy_timings(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let jitter = aperiodic_noise(i) * 1e-5;
                if i % period == 0 {
                    1.3 + jitter
                } else {
                    1.0 + jitter
                }
            })
            .collect()
    }

    #[test]
    fn detects_period_and_cost() {
        let xs = noisy_timings(1_000, 25);
        let hit = detect_interference(&xs, 5, 100, 0.3).expect("should detect");
        assert_eq!(hit.period, 25);
        assert!(hit.strength > 0.5);
        assert!(
            (hit.mean_excess - 0.3).abs() < 0.05,
            "excess {}",
            hit.mean_excess
        );
    }

    #[test]
    fn clean_series_reports_nothing() {
        let xs: Vec<f64> = (0..1_000)
            .map(|i| 1.0 + aperiodic_noise(i) * 1e-5)
            .collect();
        assert!(detect_interference(&xs, 5, 100, 0.3).is_none());
    }

    #[test]
    fn too_short_series_reports_nothing() {
        let xs = noisy_timings(10, 5);
        assert!(detect_interference(&xs, 5, 100, 0.3).is_none());
    }

    #[test]
    fn autocorrelation_basics() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert_eq!(autocorrelation(&xs, 0), 1.0);
        assert!(autocorrelation(&xs, 2) > 0.9);
        assert!(autocorrelation(&xs, 1) < -0.9);
        assert_eq!(autocorrelation(&[1.0, 1.0, 1.0], 1), 0.0); // constant
        assert_eq!(autocorrelation(&xs, 1_000), 0.0); // lag out of range
    }

    #[test]
    fn period_survives_moderate_jitter_in_phase() {
        // Spikes at period 30 but with ±1 sample phase wobble.
        let xs: Vec<f64> = (0..1_500)
            .map(|i| {
                let wobble = ((i / 30) * 7) % 3;
                if (i + wobble) % 30 == 0 {
                    1.25
                } else {
                    1.0
                }
            })
            .collect();
        let hit = detect_interference(&xs, 5, 100, 0.2).expect("should detect");
        // The wobble itself repeats every 3 blocks, so the true fundamental
        // of the combined pattern is 90; either the base period or that
        // fundamental is an acceptable answer.
        let p = hit.period as i64;
        assert!(
            (p - 30).abs() <= 1 || (p - 90).abs() <= 1,
            "period {p} is neither ~30 nor ~90"
        );
    }
}
