//! Cooling-plant model: a warm-water loop served by either dry coolers
//! ("free cooling") or a mechanical chiller, with the **inlet water
//! temperature setpoint** and **cooling mode** as the prescriptive knobs.
//!
//! The economics implemented here reproduce the trade-offs the surveyed
//! infrastructure ODA works exploit (Conficoni et al. DATE'15, Jiang et al.
//! ISCA'19):
//!
//! * Free cooling consumes only pump + dry-cooler fan power, but can only
//!   reach an inlet temperature a few degrees above outside air; it is
//!   infeasible on hot days for low setpoints.
//! * The chiller can always reach the setpoint but pays compressor power
//!   with a COP that degrades as the lift (outside temperature minus water
//!   temperature) grows.
//! * Raising the inlet setpoint makes free cooling viable more often and
//!   improves chiller COP, but raises node temperatures, which increases
//!   leakage power and fan power on the IT side — giving the optimizer a
//!   genuine non-trivial optimum.

use serde::Serialize;

/// Which plant serves the loop this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CoolingMode {
    /// Dry coolers only (cheap; limited by outside temperature).
    FreeCooling,
    /// Mechanical chiller (always feasible; expensive).
    Chiller,
    /// Controller picks per tick: free cooling when feasible, else chiller.
    Auto,
}

/// Static parameters of the cooling plant.
#[derive(Debug, Clone)]
pub struct CoolingConfig {
    /// Minimum achievable approach of the dry coolers: inlet water cannot be
    /// cooled below `outside + approach` in free-cooling mode. °C.
    pub free_cooling_approach_c: f64,
    /// Pump power as a fraction of transported heat (per unit flow).
    pub pump_power_fraction: f64,
    /// Dry-cooler fan power as a fraction of rejected heat.
    pub dry_cooler_fan_fraction: f64,
    /// Carnot efficiency factor of the chiller (real COP = factor × Carnot).
    pub chiller_carnot_factor: f64,
    /// Upper bound on chiller COP (very small lifts).
    pub chiller_max_cop: f64,
    /// Allowed setpoint range for the inlet water temperature, °C.
    pub setpoint_range_c: (f64, f64),
}

impl Default for CoolingConfig {
    fn default() -> Self {
        CoolingConfig {
            free_cooling_approach_c: 4.0,
            pump_power_fraction: 0.015,
            dry_cooler_fan_fraction: 0.02,
            chiller_carnot_factor: 0.45,
            chiller_max_cop: 8.0,
            setpoint_range_c: (18.0, 45.0),
        }
    }
}

/// Per-tick cooling result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CoolingOutput {
    /// Electrical power drawn by the plant, kW.
    pub power_kw: f64,
    /// Water temperature actually delivered to the IT loop, °C.
    pub delivered_inlet_c: f64,
    /// Mode actually used this tick (resolves `Auto`).
    pub active_mode: CoolingMode,
    /// Chiller coefficient of performance this tick (0 in free cooling).
    pub chiller_cop: f64,
}

/// The cooling plant with its two knobs.
#[derive(Debug, Clone)]
pub struct CoolingPlant {
    config: CoolingConfig,
    /// Operator/ODA-set inlet water temperature target, °C.
    setpoint_c: f64,
    /// Operator/ODA-set mode.
    mode: CoolingMode,
    /// Degradation factor ≥ 1 multiplying plant power (fault injection:
    /// fouled heat exchangers, failing pumps).
    degradation: f64,
}

impl CoolingPlant {
    /// Creates the plant with a given initial setpoint, in `Auto` mode.
    pub fn new(config: CoolingConfig, setpoint_c: f64) -> Self {
        let sp = setpoint_c.clamp(config.setpoint_range_c.0, config.setpoint_range_c.1);
        CoolingPlant {
            config,
            setpoint_c: sp,
            mode: CoolingMode::Auto,
            degradation: 1.0,
        }
    }

    /// Current setpoint, °C.
    pub fn setpoint_c(&self) -> f64 {
        self.setpoint_c
    }

    /// Sets the inlet-temperature setpoint (clamped to the legal range).
    /// This is the knob prescriptive infrastructure ODA turns.
    pub fn set_setpoint_c(&mut self, sp: f64) {
        self.setpoint_c = sp.clamp(
            self.config.setpoint_range_c.0,
            self.config.setpoint_range_c.1,
        );
    }

    /// Current configured mode.
    pub fn mode(&self) -> CoolingMode {
        self.mode
    }

    /// Sets the cooling mode knob.
    pub fn set_mode(&mut self, mode: CoolingMode) {
        self.mode = mode;
    }

    /// Sets the fault-injection degradation factor (≥ 1).
    pub fn set_degradation(&mut self, factor: f64) {
        self.degradation = factor.max(1.0);
    }

    /// Current degradation factor.
    pub fn degradation(&self) -> f64 {
        self.degradation
    }

    /// Whether free cooling can reach the current setpoint at `outside_c`.
    pub fn free_cooling_feasible(&self, outside_c: f64) -> bool {
        outside_c + self.config.free_cooling_approach_c <= self.setpoint_c
    }

    /// Computes plant power to remove `it_heat_kw` of heat with outside air
    /// at `outside_c`.
    pub fn step(&self, it_heat_kw: f64, outside_c: f64) -> CoolingOutput {
        let heat = it_heat_kw.max(0.0);
        let pump_kw = heat * self.config.pump_power_fraction;
        let use_free = match self.mode {
            CoolingMode::FreeCooling => true,
            CoolingMode::Chiller => false,
            CoolingMode::Auto => self.free_cooling_feasible(outside_c),
        };
        if use_free {
            // Free cooling cannot deliver below outside + approach; in forced
            // FreeCooling mode on a hot day the loop simply runs warmer than
            // the setpoint (the realistic failure mode).
            let delivered = self
                .setpoint_c
                .max(outside_c + self.config.free_cooling_approach_c);
            let fan_kw = heat * self.config.dry_cooler_fan_fraction;
            CoolingOutput {
                power_kw: (pump_kw + fan_kw) * self.degradation,
                delivered_inlet_c: delivered,
                active_mode: CoolingMode::FreeCooling,
                chiller_cop: 0.0,
            }
        } else {
            // Chiller: COP from a Carnot bound on the lift between the
            // condenser (outside + approach) and the evaporator (setpoint).
            let t_cold_k = self.setpoint_c + 273.15;
            let lift = (outside_c + self.config.free_cooling_approach_c - self.setpoint_c).max(1.0);
            let cop = (self.config.chiller_carnot_factor * t_cold_k / lift)
                .min(self.config.chiller_max_cop);
            let compressor_kw = heat / cop;
            CoolingOutput {
                power_kw: (pump_kw + compressor_kw) * self.degradation,
                delivered_inlet_c: self.setpoint_c,
                active_mode: CoolingMode::Chiller,
                chiller_cop: cop,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant(sp: f64) -> CoolingPlant {
        CoolingPlant::new(CoolingConfig::default(), sp)
    }

    #[test]
    fn auto_uses_free_cooling_on_cold_days() {
        let p = plant(30.0);
        let out = p.step(500.0, 10.0);
        assert_eq!(out.active_mode, CoolingMode::FreeCooling);
        assert!(
            out.power_kw < 30.0,
            "free cooling should be cheap: {}",
            out.power_kw
        );
        assert_eq!(out.delivered_inlet_c, 30.0);
    }

    #[test]
    fn auto_falls_back_to_chiller_on_hot_days() {
        let p = plant(25.0);
        let out = p.step(500.0, 35.0);
        assert_eq!(out.active_mode, CoolingMode::Chiller);
        assert!(out.chiller_cop > 1.0);
        assert!(
            out.power_kw > 30.0,
            "chiller should cost more: {}",
            out.power_kw
        );
    }

    #[test]
    fn higher_setpoint_is_cheaper_on_chiller() {
        let mut p = plant(20.0);
        p.set_mode(CoolingMode::Chiller);
        let cold = p.step(500.0, 40.0);
        p.set_setpoint_c(35.0);
        let warm = p.step(500.0, 40.0);
        assert!(warm.power_kw < cold.power_kw);
        assert!(warm.chiller_cop > cold.chiller_cop);
    }

    #[test]
    fn forced_free_cooling_on_hot_day_runs_warm() {
        let mut p = plant(20.0);
        p.set_mode(CoolingMode::FreeCooling);
        let out = p.step(500.0, 35.0);
        assert_eq!(out.active_mode, CoolingMode::FreeCooling);
        assert!(out.delivered_inlet_c > 20.0, "loop must run above setpoint");
        assert!((out.delivered_inlet_c - 39.0).abs() < 1e-9);
    }

    #[test]
    fn setpoint_is_clamped_to_legal_range() {
        let mut p = plant(20.0);
        p.set_setpoint_c(100.0);
        assert_eq!(p.setpoint_c(), 45.0);
        p.set_setpoint_c(-10.0);
        assert_eq!(p.setpoint_c(), 18.0);
    }

    #[test]
    fn degradation_scales_power() {
        let mut p = plant(30.0);
        let base = p.step(500.0, 10.0).power_kw;
        p.set_degradation(1.5);
        let degraded = p.step(500.0, 10.0).power_kw;
        assert!((degraded - base * 1.5).abs() < 1e-9);
        // Degradation below 1 is not allowed.
        p.set_degradation(0.5);
        assert_eq!(p.degradation(), 1.0);
    }

    #[test]
    fn zero_heat_zero_power() {
        let p = plant(30.0);
        let out = p.step(0.0, 10.0);
        assert_eq!(out.power_kw, 0.0);
    }

    #[test]
    fn cop_capped_at_max() {
        let mut p = plant(45.0);
        p.set_mode(CoolingMode::Chiller);
        // Tiny lift → COP would explode without the cap.
        let out = p.step(100.0, 20.0);
        assert!(out.chiller_cop <= 8.0);
    }
}
