//! Exponential-smoothing forecasters: EWMA (simple), Holt (trend) and
//! Holt–Winters (trend + additive seasonality).
//!
//! These are the workhorses for sensor forecasting (PRACTISE, Xue et al.;
//! Netti et al.) and cooling-demand prediction: cheap enough to run per
//! sensor at ingest rate, and Holt–Winters captures the dominant structure
//! of facility series — a daily season plus slow drift.

/// A streaming forecaster: feed observations, ask for h-step-ahead
/// forecasts.
pub trait Forecaster {
    /// Feeds the next observation.
    fn update(&mut self, x: f64);

    /// Forecast `h ≥ 1` steps ahead of the last observation. `None` until
    /// the model has enough history.
    fn forecast(&self, h: usize) -> Option<f64>;

    /// Number of observations consumed.
    fn observations(&self) -> usize;
}

/// Simple exponential smoothing: flat forecasts at the smoothed level.
#[derive(Debug, Clone)]
pub struct SimpleExp {
    alpha: f64,
    level: Option<f64>,
    n: usize,
}

impl SimpleExp {
    /// Creates the forecaster with smoothing `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        SimpleExp {
            alpha,
            level: None,
            n: 0,
        }
    }
}

impl Forecaster for SimpleExp {
    fn update(&mut self, x: f64) {
        self.n += 1;
        self.level = Some(match self.level {
            None => x,
            Some(l) => l + self.alpha * (x - l),
        });
    }

    fn forecast(&self, _h: usize) -> Option<f64> {
        self.level
    }

    fn observations(&self) -> usize {
        self.n
    }
}

/// Holt's linear method: level + trend.
#[derive(Debug, Clone)]
pub struct Holt {
    alpha: f64,
    beta: f64,
    level: f64,
    trend: f64,
    n: usize,
}

impl Holt {
    /// Creates the forecaster with level smoothing `alpha` and trend
    /// smoothing `beta`, both in `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta in (0,1]");
        Holt {
            alpha,
            beta,
            level: 0.0,
            trend: 0.0,
            n: 0,
        }
    }
}

impl Forecaster for Holt {
    fn update(&mut self, x: f64) {
        match self.n {
            0 => self.level = x,
            1 => {
                self.trend = x - self.level;
                self.level = x;
            }
            _ => {
                let prev_level = self.level;
                self.level = self.alpha * x + (1.0 - self.alpha) * (self.level + self.trend);
                self.trend = self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.trend;
            }
        }
        self.n += 1;
    }

    fn forecast(&self, h: usize) -> Option<f64> {
        (self.n >= 2).then_some(self.level + h as f64 * self.trend)
    }

    fn observations(&self) -> usize {
        self.n
    }
}

/// Holt–Winters additive seasonal method.
///
/// Initialisation: the first full season fixes the initial level (its mean)
/// and the initial seasonal offsets; the second season starts trend
/// updates. Forecasts require one complete season of history.
#[derive(Debug, Clone)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    gamma: f64,
    period: usize,
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    history: Vec<f64>,
    n: usize,
}

impl HoltWinters {
    /// Creates the forecaster with seasonal `period` (samples per season)
    /// and smoothing parameters in `(0, 1]`.
    ///
    /// # Panics
    /// Panics on out-of-range parameters or `period < 2`.
    pub fn new(alpha: f64, beta: f64, gamma: f64, period: usize) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta in (0,1]");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma in (0,1]");
        assert!(period >= 2, "seasonal period must be >= 2");
        HoltWinters {
            alpha,
            beta,
            gamma,
            period,
            level: 0.0,
            trend: 0.0,
            seasonal: vec![0.0; period],
            history: Vec::with_capacity(period),
            n: 0,
        }
    }

    /// The seasonal period.
    pub fn period(&self) -> usize {
        self.period
    }
}

impl Forecaster for HoltWinters {
    fn update(&mut self, x: f64) {
        if self.n < self.period {
            // Collect the first season.
            self.history.push(x);
            self.n += 1;
            if self.n == self.period {
                let mean = self.history.iter().sum::<f64>() / self.period as f64;
                self.level = mean;
                self.trend = 0.0;
                for (s, &v) in self.seasonal.iter_mut().zip(self.history.iter()) {
                    *s = v - mean;
                }
            }
            return;
        }
        let idx = self.n % self.period;
        let s_old = self.seasonal[idx];
        let prev_level = self.level;
        self.level = self.alpha * (x - s_old) + (1.0 - self.alpha) * (self.level + self.trend);
        self.trend = self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.trend;
        self.seasonal[idx] = self.gamma * (x - self.level) + (1.0 - self.gamma) * s_old;
        self.n += 1;
    }

    fn forecast(&self, h: usize) -> Option<f64> {
        if self.n < self.period || h == 0 {
            return (h == 0).then_some(self.level);
        }
        let idx = (self.n + h - 1) % self.period;
        Some(self.level + h as f64 * self.trend + self.seasonal[idx])
    }

    fn observations(&self) -> usize {
        self.n
    }
}

/// Gap tolerance for any [`Forecaster`]: interpolate across short sensor
/// dropouts, abstain when too much of the recent window is missing.
///
/// Telemetry arrives on a fixed cadence, so a missing or NaN sample is
/// represented by feeding `update(f64::NAN)` for that slot. The wrapper
/// then:
///
/// * **fills** gaps of up to `max_fill` consecutive missing samples by
///   linear interpolation between the surrounding good samples (the inner
///   model never sees the NaNs);
/// * **drops** longer gaps — the inner model simply resumes at the next
///   good sample rather than learning a fictitious ramp;
/// * **abstains** — [`forecast`](Forecaster::forecast) returns `None` —
///   while more than half of the last `window` slots were missing, because
///   a forecast from mostly-imputed data is noise dressed as signal.
#[derive(Debug, Clone)]
pub struct GapTolerant<F> {
    inner: F,
    max_fill: usize,
    last_good: Option<f64>,
    pending_gap: usize,
    /// Missing-flags for the most recent `window` slots.
    recent: std::collections::VecDeque<bool>,
    window: usize,
}

impl<F: Forecaster> GapTolerant<F> {
    /// Wraps `inner`, filling gaps of up to `max_fill` samples and judging
    /// abstention over the last `window` slots.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(inner: F, max_fill: usize, window: usize) -> Self {
        assert!(window > 0, "abstention window must be positive");
        GapTolerant {
            inner,
            max_fill,
            last_good: None,
            pending_gap: 0,
            recent: std::collections::VecDeque::with_capacity(window),
            window,
        }
    }

    /// Fraction of the recent window that was missing (0 when nothing has
    /// been fed).
    pub fn missing_fraction(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().filter(|&&m| m).count() as f64 / self.recent.len() as f64
    }

    /// The wrapped forecaster.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    fn record(&mut self, missing: bool) {
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(missing);
    }
}

impl<F: Forecaster> Forecaster for GapTolerant<F> {
    fn update(&mut self, x: f64) {
        if !x.is_finite() {
            self.record(true);
            self.pending_gap += 1;
            return;
        }
        self.record(false);
        if self.pending_gap > 0 {
            if self.pending_gap <= self.max_fill {
                if let Some(prev) = self.last_good {
                    let n = self.pending_gap as f64 + 1.0;
                    for k in 1..=self.pending_gap {
                        self.inner.update(prev + (x - prev) * k as f64 / n);
                    }
                }
            }
            // Longer gaps are dropped: the inner model resumes directly.
            self.pending_gap = 0;
        }
        self.inner.update(x);
        self.last_good = Some(x);
    }

    fn forecast(&self, h: usize) -> Option<f64> {
        if self.missing_fraction() > 0.5 {
            return None;
        }
        self.inner.forecast(h)
    }

    fn observations(&self) -> usize {
        self.inner.observations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_exp_flat_series() {
        let mut f = SimpleExp::new(0.5);
        assert!(f.forecast(1).is_none());
        for _ in 0..50 {
            f.update(7.0);
        }
        assert!((f.forecast(10).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn holt_extrapolates_linear_trend() {
        let mut f = Holt::new(0.8, 0.8);
        for i in 0..100 {
            f.update(3.0 + 2.0 * i as f64);
        }
        // Next value should be ≈ 3 + 2·100.
        let fc = f.forecast(1).unwrap();
        assert!((fc - 203.0).abs() < 0.5, "forecast {fc}");
        let fc5 = f.forecast(5).unwrap();
        assert!((fc5 - 211.0).abs() < 1.0, "forecast {fc5}");
    }

    #[test]
    fn holt_winters_learns_seasonality() {
        // Period-24 sinusoid plus slope.
        let period = 24;
        let series: Vec<f64> = (0..period * 20)
            .map(|i| {
                10.0 + 0.01 * i as f64
                    + 5.0 * (2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64).sin()
            })
            .collect();
        let mut f = HoltWinters::new(0.3, 0.05, 0.3, period);
        for &x in &series {
            f.update(x);
        }
        // Forecast one full season and compare shape.
        let n = series.len();
        for h in 1..=period {
            let truth = 10.0
                + 0.01 * (n + h - 1) as f64
                + 5.0
                    * (2.0 * std::f64::consts::PI * ((n + h - 1) % period) as f64 / period as f64)
                        .sin();
            let fc = f.forecast(h).unwrap();
            assert!(
                (fc - truth).abs() < 1.0,
                "h={h}: forecast {fc} vs truth {truth}"
            );
        }
    }

    #[test]
    fn holt_winters_needs_one_season() {
        let mut f = HoltWinters::new(0.3, 0.1, 0.3, 8);
        for i in 0..7 {
            f.update(i as f64);
            assert!(f.forecast(1).is_none());
        }
        f.update(7.0);
        assert!(f.forecast(1).is_some());
    }

    #[test]
    fn gap_tolerant_interpolates_short_gaps() {
        // A clean linear ramp with a 3-sample hole: the filled model should
        // keep tracking the trend as if the hole were not there.
        let mut f = GapTolerant::new(Holt::new(0.8, 0.8), 5, 20);
        for i in 0..30 {
            let x = 10.0 + 2.0 * i as f64;
            if (12..15).contains(&i) {
                f.update(f64::NAN);
            } else {
                f.update(x);
            }
        }
        let fc = f.forecast(1).unwrap();
        let truth = 10.0 + 2.0 * 30.0;
        assert!((fc - truth).abs() < 0.5, "forecast {fc} vs {truth}");
        // The interpolated slots were fed to the inner model.
        assert_eq!(f.observations(), 30);
    }

    #[test]
    fn gap_tolerant_abstains_when_mostly_missing() {
        let mut f = GapTolerant::new(SimpleExp::new(0.5), 2, 10);
        for _ in 0..10 {
            f.update(5.0);
        }
        assert!(f.forecast(1).is_some());
        // 6 of the last 10 slots missing → abstain.
        for _ in 0..6 {
            f.update(f64::NAN);
        }
        assert!(f.missing_fraction() > 0.5);
        assert!(f.forecast(1).is_none(), "must abstain, not guess");
        // Data returns → forecasts resume.
        for _ in 0..7 {
            f.update(5.0);
        }
        assert!(f.forecast(1).is_some());
        assert!((f.forecast(1).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gap_tolerant_drops_long_gaps_instead_of_ramping() {
        // A long outage across a level shift: interpolation would teach the
        // model a slow ramp; dropping the gap resumes at the new level.
        let mut f = GapTolerant::new(SimpleExp::new(0.9), 3, 100);
        for _ in 0..20 {
            f.update(100.0);
        }
        for _ in 0..10 {
            f.update(f64::NAN); // longer than max_fill=3
        }
        for _ in 0..20 {
            f.update(0.0);
        }
        // Only real samples reached the inner model: 40, not 50.
        assert_eq!(f.observations(), 40);
        assert!(f.forecast(1).unwrap() < 0.1);
    }
}
