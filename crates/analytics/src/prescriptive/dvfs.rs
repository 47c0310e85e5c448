//! DVFS governors: reactive and proactive CPU-frequency tuning.
//!
//! The prescriptive System-Hardware cell (GEOPM, Eastep et al.; EAR,
//! Corbalan & Brochard; SuperMUC energy-aware scheduling, Auweter et al.).
//! The governor maps utilization to a frequency: memory-bound or idle
//! phases run slower (large power win, small performance loss — the CV²f
//! cube), compute-bound phases run at full clock.
//!
//! Two modes, matching §V-A of the paper:
//!
//! * **Reactive** — decides from the *current* utilization sample. Always a
//!   step behind phase changes: it keeps the clock high for a while after a
//!   compute phase ends, and — worse for time-to-solution — keeps it *low*
//!   just after a compute phase starts.
//! * **Proactive** — feeds utilization into a forecaster and decides from
//!   the *predicted next* utilization, anticipating phase transitions. This
//!   is the "predictive + prescriptive beats prescriptive alone" claim the
//!   E5 experiment quantifies.

use crate::predictive::forecast::Forecaster;
use serde::Serialize;

/// Governor decision mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GovernorMode {
    /// Decide from the current sample.
    Reactive,
    /// Decide from the forecast of the next sample.
    Proactive,
}

/// Frequency policy: a piecewise-linear map from utilization to clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FreqPolicy {
    /// Frequency used at/below `low_util`, GHz.
    pub f_min_ghz: f64,
    /// Frequency used at/above `high_util`, GHz.
    pub f_max_ghz: f64,
    /// Utilization at/below which the minimum clock applies.
    pub low_util: f64,
    /// Utilization at/above which the maximum clock applies.
    pub high_util: f64,
}

impl FreqPolicy {
    /// A sensible default for the simulated nodes (1.2–3.0 GHz).
    pub fn default_for_range(f_min_ghz: f64, f_max_ghz: f64) -> Self {
        FreqPolicy {
            f_min_ghz,
            f_max_ghz,
            low_util: 0.2,
            high_util: 0.75,
        }
    }

    /// Frequency for a utilization level.
    pub fn frequency_for(&self, util: f64) -> f64 {
        let u = util.clamp(0.0, 1.0);
        if u <= self.low_util {
            self.f_min_ghz
        } else if u >= self.high_util {
            self.f_max_ghz
        } else {
            let t = (u - self.low_util) / (self.high_util - self.low_util);
            self.f_min_ghz + t * (self.f_max_ghz - self.f_min_ghz)
        }
    }
}

/// A per-node DVFS governor.
pub struct DvfsGovernor {
    policy: FreqPolicy,
    mode: GovernorMode,
    forecaster: Box<dyn Forecaster + Send>,
    last_decision_ghz: f64,
}

impl DvfsGovernor {
    /// Creates a governor; `forecaster` is only consulted in proactive
    /// mode but always kept warm so the mode can be switched live.
    pub fn new(
        policy: FreqPolicy,
        mode: GovernorMode,
        forecaster: Box<dyn Forecaster + Send>,
    ) -> Self {
        DvfsGovernor {
            last_decision_ghz: policy.f_max_ghz,
            policy,
            mode,
            forecaster,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> GovernorMode {
        self.mode
    }

    /// Switches mode (the forecaster has been learning all along).
    pub fn set_mode(&mut self, mode: GovernorMode) {
        self.mode = mode;
    }

    /// Feeds the latest utilization sample and returns the frequency to
    /// apply for the next interval, GHz.
    pub fn decide(&mut self, utilization: f64) -> f64 {
        self.forecaster.update(utilization);
        let basis = match self.mode {
            GovernorMode::Reactive => utilization,
            GovernorMode::Proactive => self
                .forecaster
                .forecast(1)
                .unwrap_or(utilization)
                .clamp(0.0, 1.0),
        };
        self.last_decision_ghz = self.policy.frequency_for(basis);
        self.last_decision_ghz
    }

    /// The most recent decision.
    pub fn last_decision_ghz(&self) -> f64 {
        self.last_decision_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictive::forecast::{Holt, SimpleExp};

    #[test]
    fn policy_maps_utilization_bands() {
        let p = FreqPolicy::default_for_range(1.2, 3.0);
        assert_eq!(p.frequency_for(0.0), 1.2);
        assert_eq!(p.frequency_for(0.2), 1.2);
        assert_eq!(p.frequency_for(0.75), 3.0);
        assert_eq!(p.frequency_for(1.0), 3.0);
        let mid = p.frequency_for(0.475); // halfway between 0.2 and 0.75
        assert!((mid - 2.1).abs() < 1e-9);
        // Clamped inputs.
        assert_eq!(p.frequency_for(-1.0), 1.2);
        assert_eq!(p.frequency_for(2.0), 3.0);
    }

    #[test]
    fn reactive_follows_current_sample() {
        let p = FreqPolicy::default_for_range(1.2, 3.0);
        let mut g = DvfsGovernor::new(p, GovernorMode::Reactive, Box::new(SimpleExp::new(0.5)));
        assert_eq!(g.decide(0.1), 1.2);
        assert_eq!(g.decide(0.9), 3.0);
        assert_eq!(g.last_decision_ghz(), 3.0);
    }

    #[test]
    fn proactive_anticipates_a_ramp() {
        let p = FreqPolicy::default_for_range(1.2, 3.0);
        let mut reactive =
            DvfsGovernor::new(p, GovernorMode::Reactive, Box::new(Holt::new(0.8, 0.8)));
        let mut proactive =
            DvfsGovernor::new(p, GovernorMode::Proactive, Box::new(Holt::new(0.8, 0.8)));
        // Utilization ramping up steadily: the proactive governor should be
        // at a higher clock than the reactive one mid-ramp.
        let ramp: Vec<f64> = (0..20).map(|i| 0.05 * i as f64).collect();
        let mut last_r = 0.0;
        let mut last_p = 0.0;
        for &u in &ramp {
            last_r = reactive.decide(u);
            last_p = proactive.decide(u);
        }
        assert!(
            last_p >= last_r,
            "proactive {last_p} should lead reactive {last_r}"
        );
        // Mid-ramp specifically (u=0.5 zone): compare at step 12.
        let mut r2 = DvfsGovernor::new(p, GovernorMode::Reactive, Box::new(Holt::new(0.8, 0.8)));
        let mut p2 = DvfsGovernor::new(p, GovernorMode::Proactive, Box::new(Holt::new(0.8, 0.8)));
        let (mut fr, mut fp) = (0.0, 0.0);
        for &u in &ramp[..13] {
            fr = r2.decide(u);
            fp = p2.decide(u);
        }
        assert!(fp > fr, "mid-ramp: proactive {fp} vs reactive {fr}");
    }

    #[test]
    fn mode_switch_is_live() {
        let p = FreqPolicy::default_for_range(1.2, 3.0);
        let mut g = DvfsGovernor::new(p, GovernorMode::Reactive, Box::new(Holt::new(0.5, 0.3)));
        for _ in 0..10 {
            g.decide(0.9);
        }
        g.set_mode(GovernorMode::Proactive);
        assert_eq!(g.mode(), GovernorMode::Proactive);
        // Forecaster was learning the whole time: steady 0.9 forecasts 0.9.
        assert_eq!(g.decide(0.9), 3.0);
    }

    #[test]
    fn proactive_clamps_wild_forecasts() {
        let p = FreqPolicy::default_for_range(1.2, 3.0);
        let mut g = DvfsGovernor::new(p, GovernorMode::Proactive, Box::new(Holt::new(1.0, 1.0)));
        // A forecaster with maximal gains can overshoot past 1.0; the
        // governor must still emit a legal frequency.
        for u in [0.0, 0.5, 1.0, 1.0, 1.0] {
            let f = g.decide(u);
            assert!((1.2..=3.0).contains(&f));
        }
    }
}
