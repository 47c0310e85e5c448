//! Component-failure prediction from degradation features.
//!
//! After Sîrbu & Babaoglu's data-driven proactive autonomics: hardware that
//! is about to fail drifts first — temperatures trend up, correctable-error
//! counters accelerate, fan speeds saturate. The predictor extracts trend
//! features from recent sensor windows and scores failure risk with the
//! workspace's logistic regression, yielding a calibrated-ish hazard in
//! `[0, 1]` plus a ranked watch-list across the fleet.

use crate::descriptive::stats::linear_fit;
use crate::predictive::regression::LogisticRegression;
use serde::Serialize;

/// Degradation features extracted from one component's recent telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DegradationFeatures {
    /// Slope of the temperature series, °C per sample.
    pub temp_slope: f64,
    /// Mean temperature over the window, °C.
    pub temp_mean: f64,
    /// Slope of the error-counter series, errors per sample.
    pub error_slope: f64,
    /// Fraction of the window the fan spent at ≥ 95% speed.
    pub fan_saturation: f64,
}

impl DegradationFeatures {
    /// Extracts features from aligned windows of temperature, error-count
    /// and fan-speed telemetry. Returns `None` for windows under 4 samples.
    pub fn extract(temp: &[f64], errors: &[f64], fan: &[f64]) -> Option<Self> {
        if temp.len() < 4 || errors.len() < 4 || fan.is_empty() {
            return None;
        }
        let idx: Vec<f64> = (0..temp.len()).map(|i| i as f64).collect();
        let (_, temp_slope) = linear_fit(&idx, temp)?;
        let idx_e: Vec<f64> = (0..errors.len()).map(|i| i as f64).collect();
        let (_, error_slope) = linear_fit(&idx_e, errors)?;
        Some(DegradationFeatures {
            temp_slope,
            temp_mean: temp.iter().sum::<f64>() / temp.len() as f64,
            error_slope,
            fan_saturation: fan.iter().filter(|&&s| s >= 0.95).count() as f64 / fan.len() as f64,
        })
    }

    fn to_vec(self) -> Vec<f64> {
        vec![
            self.temp_slope,
            self.temp_mean,
            self.error_slope,
            self.fan_saturation,
        ]
    }
}

/// Trained failure predictor.
pub struct FailurePredictor {
    model: LogisticRegression,
}

impl FailurePredictor {
    /// Trains on labelled examples: `(features, failed_within_horizon)`.
    ///
    /// Returns `None` for empty training data.
    pub fn fit(examples: &[(DegradationFeatures, bool)]) -> Option<Self> {
        if examples.is_empty() {
            return None;
        }
        let xs: Vec<Vec<f64>> = examples.iter().map(|(f, _)| f.to_vec()).collect();
        let ys: Vec<bool> = examples.iter().map(|&(_, y)| y).collect();
        LogisticRegression::fit(&xs, &ys, 0.5, 1e-4, 800).map(|model| FailurePredictor { model })
    }

    /// Hazard score in `[0, 1]` for one component.
    pub fn hazard(&self, f: DegradationFeatures) -> f64 {
        self.model.predict_proba(&f.to_vec())
    }

    /// Ranks a fleet by hazard, highest first; returns `(index, hazard)`.
    pub fn watch_list(&self, fleet: &[DegradationFeatures]) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> = fleet
            .iter()
            .enumerate()
            .map(|(i, &f)| (i, self.hazard(f)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> DegradationFeatures {
        DegradationFeatures {
            temp_slope: 0.001,
            temp_mean: 55.0,
            error_slope: 0.0,
            fan_saturation: 0.02,
        }
    }

    fn degrading() -> DegradationFeatures {
        DegradationFeatures {
            temp_slope: 0.2,
            temp_mean: 78.0,
            error_slope: 0.5,
            fan_saturation: 0.8,
        }
    }

    fn training() -> Vec<(DegradationFeatures, bool)> {
        let mut ex = Vec::new();
        for i in 0..40 {
            let eps = (i as f64 - 20.0) * 0.002;
            let mut h = healthy();
            h.temp_mean += eps * 10.0;
            h.temp_slope += eps * 0.01;
            ex.push((h, false));
            let mut d = degrading();
            d.temp_mean += eps * 10.0;
            d.error_slope += eps.abs();
            ex.push((d, true));
        }
        ex
    }

    #[test]
    fn hazard_separates_healthy_from_degrading() {
        let p = FailurePredictor::fit(&training()).unwrap();
        assert!(p.hazard(healthy()) < 0.2);
        assert!(p.hazard(degrading()) > 0.8);
    }

    #[test]
    fn watch_list_ranks_worst_first() {
        let p = FailurePredictor::fit(&training()).unwrap();
        let fleet = vec![healthy(), degrading(), healthy()];
        let wl = p.watch_list(&fleet);
        assert_eq!(wl[0].0, 1);
        assert!(wl[0].1 > wl[1].1);
        assert_eq!(wl.len(), 3);
    }

    #[test]
    fn feature_extraction_from_windows() {
        let temp: Vec<f64> = (0..20).map(|i| 60.0 + 0.5 * i as f64).collect();
        let errors: Vec<f64> = (0..20).map(|i| (i / 4) as f64).collect();
        let fan = vec![1.0; 10];
        let f = DegradationFeatures::extract(&temp, &errors, &fan).unwrap();
        assert!((f.temp_slope - 0.5).abs() < 1e-9);
        assert!(f.error_slope > 0.2);
        assert_eq!(f.fan_saturation, 1.0);
        assert!(DegradationFeatures::extract(&temp[..2], &errors, &fan).is_none());
    }

    #[test]
    fn empty_training_is_none() {
        assert!(FailurePredictor::fit(&[]).is_none());
    }
}
