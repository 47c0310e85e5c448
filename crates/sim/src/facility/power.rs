//! Power-distribution model: utility feed → UPS → PDUs → racks.
//!
//! Distribution is lossy at every stage; the losses are what separate total
//! facility power from IT power and therefore what the PUE measures (after
//! the cooling plant). UPS efficiency follows the usual load-dependent curve:
//! poor at low load, peaking in the 60–90% band — so oversized facilities
//! running empty show the inflated PUE operators know well.

use serde::Serialize;

/// Static parameters of the distribution chain.
#[derive(Debug, Clone)]
pub struct PowerConfig {
    /// UPS efficiency at (or above) its optimal load point.
    pub ups_peak_efficiency: f64,
    /// UPS efficiency as load fraction approaches zero.
    pub ups_min_efficiency: f64,
    /// Load fraction at which peak efficiency is reached.
    pub ups_knee_fraction: f64,
    /// Rated UPS capacity, kW.
    pub ups_capacity_kw: f64,
    /// PDU + cabling resistive loss as a fraction of delivered power.
    pub pdu_loss_fraction: f64,
    /// Constant facility overhead (lighting, offices, security), kW.
    pub fixed_overhead_kw: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            ups_peak_efficiency: 0.97,
            ups_min_efficiency: 0.80,
            ups_knee_fraction: 0.5,
            ups_capacity_kw: 2_000.0,
            pdu_loss_fraction: 0.02,
            fixed_overhead_kw: 20.0,
        }
    }
}

/// Per-tick distribution accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerOutput {
    /// Power drawn from the utility, kW (IT + cooling + losses + overhead).
    pub utility_kw: f64,
    /// Losses in UPS + PDU stages, kW.
    pub distribution_loss_kw: f64,
    /// UPS efficiency this tick.
    pub ups_efficiency: f64,
}

/// The distribution chain.
#[derive(Debug, Clone)]
pub struct PowerDistribution {
    config: PowerConfig,
}

impl PowerDistribution {
    /// Creates the chain.
    pub fn new(config: PowerConfig) -> Self {
        PowerDistribution { config }
    }

    /// UPS efficiency at a given load fraction (0..).
    pub fn ups_efficiency(&self, load_fraction: f64) -> f64 {
        let f = load_fraction.max(0.0);
        let c = &self.config;
        if f >= c.ups_knee_fraction {
            c.ups_peak_efficiency
        } else {
            // Linear ramp from min efficiency at zero load to peak at knee.
            let t = f / c.ups_knee_fraction;
            c.ups_min_efficiency + t * (c.ups_peak_efficiency - c.ups_min_efficiency)
        }
    }

    /// Computes utility draw given IT load and cooling-plant load (both kW).
    ///
    /// IT power passes through UPS + PDU; cooling and overhead are fed
    /// directly (the common topology — mechanical load is not on UPS).
    pub fn step(&self, it_kw: f64, cooling_kw: f64) -> PowerOutput {
        let it = it_kw.max(0.0);
        let pdu_in = it * (1.0 + self.config.pdu_loss_fraction);
        let load_fraction = pdu_in / self.config.ups_capacity_kw;
        let eff = self.ups_efficiency(load_fraction);
        let ups_in = pdu_in / eff;
        let utility = ups_in + cooling_kw.max(0.0) + self.config.fixed_overhead_kw;
        PowerOutput {
            utility_kw: utility,
            distribution_loss_kw: ups_in - it,
            ups_efficiency: eff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utility_exceeds_it_plus_cooling() {
        let p = PowerDistribution::new(PowerConfig::default());
        let out = p.step(1_000.0, 100.0);
        assert!(out.utility_kw > 1_100.0);
        assert!(out.distribution_loss_kw > 0.0);
    }

    #[test]
    fn ups_efficiency_curve_shape() {
        let p = PowerDistribution::new(PowerConfig::default());
        assert!(p.ups_efficiency(0.0) < p.ups_efficiency(0.25));
        assert!(p.ups_efficiency(0.25) < p.ups_efficiency(0.5));
        assert_eq!(p.ups_efficiency(0.5), 0.97);
        assert_eq!(p.ups_efficiency(0.9), 0.97);
    }

    #[test]
    fn low_load_is_relatively_less_efficient() {
        let p = PowerDistribution::new(PowerConfig::default());
        let low = p.step(50.0, 0.0);
        let high = p.step(1_500.0, 0.0);
        let low_overhead_ratio = low.utility_kw / 50.0;
        let high_overhead_ratio = high.utility_kw / 1_500.0;
        assert!(low_overhead_ratio > high_overhead_ratio);
    }

    #[test]
    fn zero_it_load_still_draws_overhead() {
        let p = PowerDistribution::new(PowerConfig::default());
        let out = p.step(0.0, 0.0);
        assert_eq!(out.utility_kw, 20.0);
        assert_eq!(out.distribution_loss_kw, 0.0);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let p = PowerDistribution::new(PowerConfig::default());
        let out = p.step(-5.0, -10.0);
        assert_eq!(out.utility_kw, 20.0);
    }
}
