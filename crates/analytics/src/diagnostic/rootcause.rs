//! Root-cause ranking: which sensor deviated first, and which deviated
//! most?
//!
//! The paper's diagnostic row extends anomaly *detection* with root cause
//! *analysis* (AutoDiagn, Demirbaga et al.). The canonical lightweight
//! approach ranks candidate sensors by combining two pieces of evidence
//! over the anomaly window:
//!
//! * **onset** — sensors that left their baseline *earlier* are more likely
//!   causes than followers (causes precede symptoms);
//! * **magnitude** — sensors that deviated *more* (in robust z units) carry
//!   more evidence than marginal deviations.
//!
//! Scores combine both, normalised into `[0, 1]`.

use crate::descriptive::outlier::{mad_z_scores, median};
use serde::Serialize;

/// Evidence for one candidate sensor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CauseScore {
    /// Index of the sensor in the input layout.
    pub sensor: usize,
    /// Combined score in `[0, 1]`; higher = more likely root cause.
    pub score: f64,
    /// Index into the anomaly window where the sensor first deviated
    /// (`None` if it never left its baseline).
    pub onset: Option<usize>,
    /// Peak robust |z| over the anomaly window.
    pub peak_z: f64,
}

/// Ranks sensors as root-cause candidates.
///
/// `baseline[s]` is the pre-anomaly history of sensor `s`; `window[s]` is
/// the same sensor during the anomaly. A sensor "deviates" at the first
/// window index whose robust z-score against its own baseline exceeds
/// `z_threshold`. Returns candidates sorted by descending score; sensors
/// that never deviate score 0 and sort last (stable by index).
pub fn rank_causes(
    baseline: &[Vec<f64>],
    window: &[Vec<f64>],
    z_threshold: f64,
) -> Vec<CauseScore> {
    assert_eq!(
        baseline.len(),
        window.len(),
        "baseline/window sensor counts differ"
    );
    let n = baseline.len();
    let mut out = Vec::with_capacity(n);
    for s in 0..n {
        let (onset, peak_z) = deviation_profile(&baseline[s], &window[s], z_threshold);
        out.push(CauseScore {
            sensor: s,
            score: 0.0,
            onset,
            peak_z,
        });
    }
    // Normalisers.
    let max_z = out
        .iter()
        .map(|c| c.peak_z)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let window_len = window.first().map(|w| w.len()).unwrap_or(0).max(1);
    for c in &mut out {
        let onset_score = match c.onset {
            // Earlier onset → closer to 1.
            Some(t) => 1.0 - t as f64 / window_len as f64,
            None => 0.0,
        };
        let magnitude_score = if c.onset.is_some() {
            c.peak_z / max_z
        } else {
            0.0
        };
        c.score = 0.5 * onset_score + 0.5 * magnitude_score;
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.sensor.cmp(&b.sensor)));
    out
}

/// First deviation index and peak robust |z| of `window` against
/// `baseline`.
fn deviation_profile(baseline: &[f64], window: &[f64], z_threshold: f64) -> (Option<usize>, f64) {
    let Some(med) = median(baseline) else {
        return (None, 0.0);
    };
    // Robust scale of the baseline.
    let deviations: Vec<f64> = baseline.iter().map(|&x| (x - med).abs()).collect();
    let mad = median(&deviations).unwrap_or(0.0);
    // Fallback scale for near-constant baselines: a small fraction of the
    // median magnitude, floored.
    let scale = if mad > 1e-9 {
        mad / 0.6745
    } else {
        med.abs().max(1.0) * 0.01
    };
    let mut onset = None;
    let mut peak: f64 = 0.0;
    for (t, &x) in window.iter().enumerate() {
        let z = ((x - med) / scale).abs();
        peak = peak.max(z);
        if onset.is_none() && z > z_threshold {
            onset = Some(t);
        }
    }
    (onset, peak)
}

/// Convenience: robust z-scores of a window against a baseline (used by
/// reports that show the full deviation trace). Returns `None` when the
/// baseline is degenerate.
pub fn robust_z_trace(baseline: &[f64], window: &[f64]) -> Option<Vec<f64>> {
    let joined: Vec<f64> = baseline.to_vec();
    let _ = mad_z_scores(&joined)?; // validates baseline non-degenerate
    let med = median(baseline)?;
    let deviations: Vec<f64> = baseline.iter().map(|&x| (x - med).abs()).collect();
    let mad = median(&deviations)?;
    if mad <= 1e-12 {
        return None;
    }
    Some(window.iter().map(|&x| 0.6745 * (x - med) / mad).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Baseline: flat-ish noise. Cause sensor deviates at t=2, follower at
    /// t=10 with smaller magnitude, bystander never deviates.
    fn scenario() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let baseline: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                (0..50)
                    .map(|i| 10.0 * (s + 1) as f64 + ((i * 7) % 5) as f64 * 0.1)
                    .collect()
            })
            .collect();
        let mut window: Vec<Vec<f64>> = baseline.iter().map(|b| b[..30].to_vec()).collect();
        for v in &mut window[0][2..30] {
            *v = 10.0 + 8.0; // cause: early, large
        }
        for v in &mut window[1][10..30] {
            *v = 20.0 + 3.0; // follower: later, smaller
        }
        (baseline, window)
    }

    #[test]
    fn cause_ranks_above_follower_and_bystander() {
        let (baseline, window) = scenario();
        let ranked = rank_causes(&baseline, &window, 4.0);
        assert_eq!(ranked[0].sensor, 0, "cause first: {ranked:?}");
        assert_eq!(ranked[1].sensor, 1);
        assert_eq!(ranked[2].sensor, 2);
        assert_eq!(ranked[2].score, 0.0);
        assert_eq!(ranked[0].onset, Some(2));
        assert_eq!(ranked[1].onset, Some(10));
    }

    #[test]
    fn scores_are_normalised() {
        let (baseline, window) = scenario();
        for c in rank_causes(&baseline, &window, 4.0) {
            assert!((0.0..=1.0).contains(&c.score), "{c:?}");
        }
    }

    #[test]
    fn no_deviation_means_all_zero() {
        let baseline: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..50).map(|i| (i % 5) as f64).collect())
            .collect();
        let window: Vec<Vec<f64>> = baseline.iter().map(|b| b[..10].to_vec()).collect();
        let ranked = rank_causes(&baseline, &window, 6.0);
        assert!(ranked.iter().all(|c| c.score == 0.0 && c.onset.is_none()));
    }

    #[test]
    fn constant_baseline_uses_fallback_scale() {
        let baseline = vec![vec![100.0; 20]];
        let mut window = vec![vec![100.0; 10]];
        window[0][5] = 150.0; // 50% jump against a 1% fallback scale
        let ranked = rank_causes(&baseline, &window, 4.0);
        assert_eq!(ranked[0].onset, Some(5));
        assert!(ranked[0].peak_z > 4.0);
    }

    #[test]
    fn robust_z_trace_matches_manual() {
        let baseline: Vec<f64> = (0..20).map(|i| (i % 4) as f64).collect(); // median 1.5, MAD 1
        let trace = robust_z_trace(&baseline, &[1.5, 3.5]).unwrap();
        assert!((trace[0]).abs() < 1e-12);
        assert!(trace[1] > 0.0);
        assert!(robust_z_trace(&[5.0; 10], &[5.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "sensor counts")]
    fn mismatched_layouts_panic() {
        rank_causes(&[vec![1.0]], &[], 3.0);
    }
}
