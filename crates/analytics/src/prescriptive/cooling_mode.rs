//! Cooling-mode switching economics — "switching between types of cooling"
//! (Jiang et al., ISCA'19), the prescriptive Building-Infrastructure cell.
//!
//! The switcher compares the projected cost of serving the current heat
//! load with free cooling versus the chiller, using the (forecast) outside
//! temperature, and recommends a mode. Switching is not free — compressors
//! dislike short cycles — so a minimum dwell time enforces commitment to a
//! decision.

use serde::Serialize;

/// Recommended plant mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ModeAdvice {
    /// Run the dry coolers.
    FreeCooling,
    /// Run the chiller.
    Chiller,
}

/// Plant economics parameters mirroring the simulated plant.
#[derive(Debug, Clone, Copy)]
pub struct PlantModel {
    /// Dry-cooler approach temperature, °C.
    pub approach_c: f64,
    /// Dry-cooler fan power fraction of rejected heat.
    pub fan_fraction: f64,
    /// Chiller Carnot factor.
    pub carnot_factor: f64,
    /// Chiller maximum COP.
    pub max_cop: f64,
}

impl Default for PlantModel {
    fn default() -> Self {
        PlantModel {
            approach_c: 4.0,
            fan_fraction: 0.02,
            carnot_factor: 0.45,
            max_cop: 8.0,
        }
    }
}

impl PlantModel {
    /// Whether free cooling can hold `setpoint_c` at `outside_c`.
    pub fn free_cooling_feasible(&self, setpoint_c: f64, outside_c: f64) -> bool {
        outside_c + self.approach_c <= setpoint_c
    }

    /// Projected plant power (kW) in free-cooling mode for `heat_kw`.
    pub fn free_cooling_power_kw(&self, heat_kw: f64) -> f64 {
        heat_kw.max(0.0) * self.fan_fraction
    }

    /// Projected plant power (kW) on the chiller.
    pub fn chiller_power_kw(&self, heat_kw: f64, setpoint_c: f64, outside_c: f64) -> f64 {
        let lift = (outside_c + self.approach_c - setpoint_c).max(1.0);
        let cop = (self.carnot_factor * (setpoint_c + 273.15) / lift).min(self.max_cop);
        heat_kw.max(0.0) / cop
    }
}

/// Stateful mode switcher with dwell-time hysteresis.
#[derive(Debug, Clone)]
pub struct CoolingModeSwitcher {
    model: PlantModel,
    /// Minimum ticks between mode changes.
    min_dwell: u64,
    current: ModeAdvice,
    ticks_in_mode: u64,
    switches: u64,
}

impl CoolingModeSwitcher {
    /// Creates a switcher starting in free-cooling mode.
    pub fn new(model: PlantModel, min_dwell: u64) -> Self {
        CoolingModeSwitcher {
            model,
            min_dwell,
            current: ModeAdvice::FreeCooling,
            ticks_in_mode: 0,
            switches: 0,
        }
    }

    /// Current recommendation.
    pub fn current(&self) -> ModeAdvice {
        self.current
    }

    /// Number of mode changes so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Advances one tick with the (possibly forecast) outside temperature
    /// and heat load; returns the mode to run.
    ///
    /// Feasibility dominates: if free cooling cannot hold the setpoint, the
    /// chiller is mandatory regardless of dwell. Otherwise the cheaper mode
    /// wins once the dwell time allows a switch.
    pub fn advise(&mut self, setpoint_c: f64, outside_c: f64, heat_kw: f64) -> ModeAdvice {
        self.ticks_in_mode += 1;
        let feasible = self.model.free_cooling_feasible(setpoint_c, outside_c);
        let desired = if !feasible {
            ModeAdvice::Chiller
        } else {
            let free = self.model.free_cooling_power_kw(heat_kw);
            let chill = self.model.chiller_power_kw(heat_kw, setpoint_c, outside_c);
            if free <= chill {
                ModeAdvice::FreeCooling
            } else {
                ModeAdvice::Chiller
            }
        };
        let must_switch = !feasible && self.current == ModeAdvice::FreeCooling;
        if desired != self.current && (must_switch || self.ticks_in_mode >= self.min_dwell) {
            self.current = desired;
            self.ticks_in_mode = 0;
            self.switches += 1;
        }
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_boundary() {
        let m = PlantModel::default();
        assert!(m.free_cooling_feasible(30.0, 26.0));
        assert!(m.free_cooling_feasible(30.0, 25.0));
        assert!(!m.free_cooling_feasible(30.0, 27.0));
    }

    #[test]
    fn free_cooling_is_cheaper_when_feasible() {
        let m = PlantModel::default();
        let free = m.free_cooling_power_kw(500.0);
        let chill = m.chiller_power_kw(500.0, 30.0, 20.0);
        assert!(free < chill, "{free} vs {chill}");
    }

    #[test]
    fn infeasible_forces_chiller_immediately() {
        let mut s = CoolingModeSwitcher::new(PlantModel::default(), 100);
        // Hot day, cold setpoint: mandatory chiller despite dwell.
        assert_eq!(s.advise(20.0, 35.0, 500.0), ModeAdvice::Chiller);
        assert_eq!(s.switches(), 1);
    }

    #[test]
    fn dwell_time_suppresses_flapping() {
        let mut s = CoolingModeSwitcher::new(PlantModel::default(), 10);
        // Start on free cooling; outside oscillating just around the
        // feasibility edge would otherwise flap every tick.
        let mut switches_seen = Vec::new();
        for tick in 0..40 {
            // Alternate between "chiller slightly cheaper" (infeasible is
            // not used here — keep both feasible, costs close) by modulating
            // outside temperature below the feasibility boundary.
            let outside = if tick % 2 == 0 { 10.0 } else { 25.0 };
            s.advise(30.0, outside, 500.0);
            switches_seen.push(s.switches());
        }
        // Both temps keep free cooling feasible and cheaper → no switches.
        assert_eq!(*switches_seen.last().unwrap(), 0);
    }

    #[test]
    fn returns_to_free_cooling_after_dwell() {
        let mut s = CoolingModeSwitcher::new(PlantModel::default(), 5);
        // Force chiller.
        s.advise(20.0, 35.0, 500.0);
        assert_eq!(s.current(), ModeAdvice::Chiller);
        // Cold night: free cooling feasible and cheaper, but dwell first.
        for i in 0..10 {
            let mode = s.advise(20.0, 5.0, 500.0);
            if i < 4 {
                assert_eq!(mode, ModeAdvice::Chiller, "tick {i} still dwelling");
            }
        }
        assert_eq!(s.current(), ModeAdvice::FreeCooling);
        assert_eq!(s.switches(), 2);
    }

    #[test]
    fn zero_heat_prefers_free_cooling() {
        let mut s = CoolingModeSwitcher::new(PlantModel::default(), 1);
        assert_eq!(s.advise(30.0, 10.0, 0.0), ModeAdvice::FreeCooling);
    }
}
