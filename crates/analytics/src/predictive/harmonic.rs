//! Harmonic regression: least-squares Fourier fitting at a *known*
//! fundamental period.
//!
//! A pure-FFT extrapolator (top-k bins of [`crate::predictive::fft`]) needs
//! a power-of-two window, which almost never holds an integer number of the
//! physical period (a day of 15-minute samples is 96 buckets — not a power
//! of two), so spectral leakage smears narrow periodic features. When the
//! fundamental is known — and operational patterns are daily/weekly, which
//! operators know — the right Fourier tool is a least-squares fit of
//! sine/cosine pairs at exact harmonics of that fundamental:
//!
//! ```text
//! x(t) ≈ c + s·t + Σ_{k=1..H} aₖ·cos(2πkt/P) + bₖ·sin(2πkt/P)
//! ```
//!
//! Narrow pulses (a 45-minute backup window) need many harmonics; `H` up
//! to `P/2` is legal, and the ridge-regularised normal equations stay
//! small (`2H+2` unknowns).
//!
//! ```
//! use oda_analytics::predictive::harmonic::HarmonicModel;
//!
//! // A daily pattern sampled 96×/day, with trend.
//! let series: Vec<f64> = (0..480)
//!     .map(|t| 100.0 + 0.1 * t as f64
//!         + 20.0 * (2.0 * std::f64::consts::PI * t as f64 / 96.0).sin())
//!     .collect();
//! let model = HarmonicModel::fit(&series, 96.0, 4).unwrap();
//! let tomorrow = model.forecast(96);
//! assert_eq!(tomorrow.len(), 96);
//! assert!((model.slope - 0.1).abs() < 1e-6);
//! ```

use crate::util::linalg::{solve, Matrix};
use std::f64::consts::PI;

/// A fitted harmonic model.
#[derive(Debug, Clone)]
pub struct HarmonicModel {
    period: f64,
    /// Intercept.
    pub intercept: f64,
    /// Linear trend per sample.
    pub slope: f64,
    /// `(a_k, b_k)` for harmonics `k = 1..=H`.
    pub coefficients: Vec<(f64, f64)>,
    /// In-sample root-mean-square error.
    pub rmse: f64,
    /// Number of samples fitted (forecasts index from here).
    pub fitted_len: usize,
}

impl HarmonicModel {
    /// Fits `harmonics` harmonics of `period` (in samples) to `series`.
    ///
    /// Returns `None` when the series is shorter than one period, shorter
    /// than the parameter count, or the (ridge-regularised) system is
    /// singular.
    ///
    /// # Panics
    /// Panics if `period < 2.0` or `harmonics == 0`.
    pub fn fit(series: &[f64], period: f64, harmonics: usize) -> Option<Self> {
        assert!(period >= 2.0, "period must be at least 2 samples");
        assert!(harmonics >= 1, "need at least one harmonic");
        let h = harmonics.min((period / 2.0) as usize).max(1);
        let n = series.len();
        let cols = 2 + 2 * h;
        if (n as f64) < period || n < cols + 2 {
            return None;
        }
        // Design row for sample t.
        let row = |t: f64| {
            let mut r = Vec::with_capacity(cols);
            r.push(1.0);
            r.push(t);
            for k in 1..=h {
                let ang = 2.0 * PI * k as f64 * t / period;
                r.push(ang.cos());
                r.push(ang.sin());
            }
            r
        };
        // Normal equations with light ridge for stability.
        let mut xtx = Matrix::zeros(cols, cols);
        let mut xty = vec![0.0; cols];
        for (t, &y) in series.iter().enumerate() {
            let r = row(t as f64);
            for i in 0..cols {
                xty[i] += r[i] * y;
                for j in 0..cols {
                    xtx[(i, j)] += r[i] * r[j];
                }
            }
        }
        xtx.add_diagonal(1e-8 * n as f64);
        let beta = solve(&xtx, &xty)?;
        let coefficients = (0..h).map(|k| (beta[2 + 2 * k], beta[3 + 2 * k])).collect();
        let mut model = HarmonicModel {
            period,
            intercept: beta[0],
            slope: beta[1],
            coefficients,
            rmse: 0.0,
            fitted_len: n,
        };
        let ss: f64 = series
            .iter()
            .enumerate()
            .map(|(t, &y)| (y - model.value_at(t as f64)).powi(2))
            .sum();
        model.rmse = (ss / n as f64).sqrt();
        Some(model)
    }

    /// Number of harmonics retained.
    pub fn harmonics(&self) -> usize {
        self.coefficients.len()
    }

    /// Model value at (possibly fractional, possibly future) sample `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        let mut v = self.intercept + self.slope * t;
        for (k, &(a, b)) in self.coefficients.iter().enumerate() {
            let ang = 2.0 * PI * (k + 1) as f64 * t / self.period;
            v += a * ang.cos() + b * ang.sin();
        }
        v
    }

    /// Forecast `horizon` samples past the fitted series.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        (0..horizon)
            .map(|i| self.value_at((self.fitted_len + i) as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Daily pattern with a narrow pulse, 96 samples per day.
    fn pulse_series(days: usize) -> Vec<f64> {
        (0..96 * days)
            .map(|i| {
                let in_day = i % 96;
                let base = 100.0 + 10.0 * (2.0 * PI * in_day as f64 / 96.0).sin();
                if (8..11).contains(&in_day) {
                    base + 50.0
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn reconstructs_narrow_pulse_with_enough_harmonics() {
        let series = pulse_series(6);
        let m = HarmonicModel::fit(&series, 96.0, 40).unwrap();
        let fc = m.forecast(96);
        // The pulse must survive extrapolation: bucket 8..11 of the next
        // day clearly above its neighbours.
        let pulse_mean = (fc[8] + fc[9] + fc[10]) / 3.0;
        let ambient = (fc[4] + fc[5] + fc[20] + fc[21]) / 4.0;
        assert!(
            pulse_mean > ambient + 25.0,
            "pulse {pulse_mean:.1} vs ambient {ambient:.1}"
        );
    }

    #[test]
    fn too_few_harmonics_blur_the_pulse() {
        let series = pulse_series(6);
        let coarse = HarmonicModel::fit(&series, 96.0, 2).unwrap();
        let fine = HarmonicModel::fit(&series, 96.0, 40).unwrap();
        assert!(
            fine.rmse < coarse.rmse * 0.5,
            "{} vs {}",
            fine.rmse,
            coarse.rmse
        );
    }

    #[test]
    fn recovers_trend_and_single_tone() {
        let series: Vec<f64> = (0..480)
            .map(|i| 5.0 + 0.02 * i as f64 + 3.0 * (2.0 * PI * i as f64 / 96.0).cos())
            .collect();
        let m = HarmonicModel::fit(&series, 96.0, 3).unwrap();
        assert!((m.slope - 0.02).abs() < 1e-6, "slope {}", m.slope);
        assert!((m.coefficients[0].0 - 3.0).abs() < 1e-6);
        assert!(m.coefficients[0].1.abs() < 1e-6);
        assert!(m.rmse < 1e-6);
        // Extrapolation continues the trend.
        let fc = m.forecast(96);
        let truth = 5.0 + 0.02 * 480.0 + 3.0;
        assert!((fc[0] - truth).abs() < 1e-4);
    }

    #[test]
    fn short_series_fails_gracefully() {
        assert!(HarmonicModel::fit(&[1.0; 50], 96.0, 4).is_none());
    }

    #[test]
    fn harmonics_capped_at_nyquist() {
        let series = pulse_series(4);
        let m = HarmonicModel::fit(&series, 96.0, 500).unwrap();
        assert!(m.harmonics() <= 48);
    }
}
