//! Compute-node power and thermal model.
//!
//! Each node models the quantities node-level ODA consumes and the knobs
//! node-level prescriptive ODA actuates:
//!
//! * **Power** `P = P_idle + P_dyn·u·(f/f_max)³ + leakage(T) + P_fan(s)` —
//!   the cubic frequency term is the classic CV²f DVFS model (voltage scales
//!   with frequency), which is what makes frequency tuning worthwhile;
//!   temperature-dependent leakage couples the hardware pillar to the
//!   cooling plant, which is what makes inlet-setpoint tuning non-trivial.
//! * **Temperature** follows a first-order RC response towards
//!   `T_inlet + P·R_th(s)`: thermal resistance falls as the fan spins up,
//!   fan power grows cubically with speed — the fan-speed trade-off tuned by
//!   the surveyed prescriptive hardware works.
//! * **Knobs**: DVFS frequency (GHz) and fan speed (fraction).
//! * **Fault hooks**: fan failure pins the fan at a trickle; thermal
//!   degradation (dust, failed TIM) scales `R_th` up.

use serde::Serialize;

/// Identifier of a node within the data center (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static per-node model parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Number of cores (scheduling capacity).
    pub cores: u32,
    /// Memory capacity, GiB.
    pub memory_gib: f64,
    /// Idle power, W.
    pub idle_power_w: f64,
    /// Maximum dynamic power at full utilization and `f_max`, W.
    pub dynamic_power_w: f64,
    /// Minimum DVFS frequency, GHz.
    pub f_min_ghz: f64,
    /// Maximum DVFS frequency, GHz.
    pub f_max_ghz: f64,
    /// Leakage power per °C above the leakage onset temperature, W/°C.
    pub leakage_w_per_c: f64,
    /// Temperature above which leakage starts growing, °C.
    pub leakage_onset_c: f64,
    /// Thermal resistance at full fan speed, °C/W.
    pub r_th_c_per_w: f64,
    /// Thermal time constant, seconds.
    pub tau_s: f64,
    /// Fan power at full speed, W.
    pub fan_max_w: f64,
    /// Temperature at which the node thermally throttles, °C.
    pub throttle_temp_c: f64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            cores: 48,
            memory_gib: 192.0,
            idle_power_w: 90.0,
            dynamic_power_w: 310.0,
            f_min_ghz: 1.2,
            f_max_ghz: 3.0,
            leakage_w_per_c: 1.2,
            leakage_onset_c: 45.0,
            r_th_c_per_w: 0.055,
            tau_s: 120.0,
            fan_max_w: 60.0,
            throttle_temp_c: 92.0,
        }
    }
}

/// Dynamic state of one node.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    config: NodeConfig,
    /// DVFS knob, GHz.
    freq_ghz: f64,
    /// Fan-speed knob, fraction `0.05..=1`.
    fan_speed: f64,
    /// Core utilization demanded by running work, `0..=1`.
    utilization: f64,
    /// Memory in use, GiB.
    memory_used_gib: f64,
    /// Current CPU temperature, °C.
    temp_c: f64,
    /// Current total power, W.
    power_w: f64,
    /// Fault: fan stuck broken.
    fan_failed: bool,
    /// Fault: thermal-resistance multiplier (≥ 1).
    thermal_degradation: f64,
    /// Whether the node throttled this tick (temp above limit).
    throttled: bool,
}

impl Node {
    /// Creates a node at thermal equilibrium with `inlet_c`, idle, fans at
    /// 30%, full frequency.
    pub fn new(id: NodeId, config: NodeConfig, inlet_c: f64) -> Self {
        let f_max = config.f_max_ghz;
        Node {
            id,
            temp_c: inlet_c + config.idle_power_w * config.r_th_c_per_w,
            freq_ghz: f_max,
            fan_speed: 0.3,
            utilization: 0.0,
            memory_used_gib: 0.0,
            power_w: config.idle_power_w,
            fan_failed: false,
            thermal_degradation: 1.0,
            throttled: false,
            config,
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Current DVFS frequency, GHz.
    pub fn freq_ghz(&self) -> f64 {
        self.freq_ghz
    }

    /// Sets the DVFS knob (clamped to `[f_min, f_max]`).
    pub fn set_freq_ghz(&mut self, f: f64) {
        self.freq_ghz = f.clamp(self.config.f_min_ghz, self.config.f_max_ghz);
    }

    /// Current fan-speed knob.
    pub fn fan_speed(&self) -> f64 {
        self.fan_speed
    }

    /// Sets the fan-speed knob (clamped to `[0.05, 1]`; ignored while the
    /// fan-failure fault is active).
    pub fn set_fan_speed(&mut self, s: f64) {
        if !self.fan_failed {
            self.fan_speed = s.clamp(0.05, 1.0);
        }
    }

    /// Injects/clears the fan-failure fault.
    pub fn set_fan_failed(&mut self, failed: bool) {
        self.fan_failed = failed;
        if failed {
            self.fan_speed = 0.05;
        }
    }

    /// `true` while the fan-failure fault is active.
    pub fn fan_failed(&self) -> bool {
        self.fan_failed
    }

    /// Sets the thermal-degradation multiplier (≥ 1).
    pub fn set_thermal_degradation(&mut self, factor: f64) {
        self.thermal_degradation = factor.max(1.0);
    }

    /// Sets the load placed on the node this tick.
    pub fn set_load(&mut self, utilization: f64, memory_used_gib: f64) {
        self.utilization = utilization.clamp(0.0, 1.0);
        self.memory_used_gib = memory_used_gib.clamp(0.0, self.config.memory_gib);
    }

    /// Core utilization currently demanded.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Memory in use, GiB.
    pub fn memory_used_gib(&self) -> f64 {
        self.memory_used_gib
    }

    /// Current temperature, °C.
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Current total power, W.
    pub fn power_w(&self) -> f64 {
        self.power_w
    }

    /// Whether the node hit its throttle limit on the last step.
    pub fn throttled(&self) -> bool {
        self.throttled
    }

    /// Relative compute speed of the node this tick: proportional to
    /// frequency, halved while throttling. Compute-bound job progress scales
    /// with this.
    pub fn compute_speed(&self) -> f64 {
        let base = self.freq_ghz / self.config.f_max_ghz;
        if self.throttled {
            base * 0.5
        } else {
            base
        }
    }

    /// Effective thermal resistance at the current fan speed, °C/W.
    fn r_th_effective(&self) -> f64 {
        // Fans at full speed give the nominal resistance; a trickle roughly
        // triples it.
        let fan_factor = 0.35 + 0.65 * self.fan_speed;
        self.config.r_th_c_per_w * self.thermal_degradation / fan_factor
    }

    /// Advances the power/thermal model by `dt_s` seconds with loop water at
    /// `inlet_c`. Returns the node power in watts after the step.
    pub fn step(&mut self, dt_s: f64, inlet_c: f64) -> f64 {
        let c = &self.config;
        let f_ratio = self.freq_ghz / c.f_max_ghz;
        let p_dyn = c.dynamic_power_w * self.utilization * f_ratio.powi(3);
        let leakage = c.leakage_w_per_c * (self.temp_c - c.leakage_onset_c).max(0.0);
        let p_fan = c.fan_max_w * self.fan_speed.powi(3);
        self.power_w = c.idle_power_w + p_dyn + leakage + p_fan;

        // First-order RC response towards the steady-state temperature.
        // Fan power dissipates outside the CPU package, so it does not heat
        // the die.
        let heat_w = self.power_w - p_fan;
        let t_steady = inlet_c + heat_w * self.r_th_effective();
        let alpha = (dt_s / c.tau_s).clamp(0.0, 1.0);
        self.temp_c += alpha * (t_steady - self.temp_c);
        self.throttled = self.temp_c >= c.throttle_temp_c;
        self.power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_node() -> Node {
        Node::new(NodeId(0), NodeConfig::default(), 30.0)
    }

    /// Steps until temperature change per step is negligible.
    fn settle(node: &mut Node, inlet_c: f64) {
        for _ in 0..10_000 {
            let before = node.temp_c();
            node.step(1.0, inlet_c);
            if (node.temp_c() - before).abs() < 1e-9 {
                break;
            }
        }
    }

    #[test]
    fn idle_power_is_baseline_plus_fan() {
        let mut n = idle_node();
        n.step(1.0, 30.0);
        // idle 90 + fan 60*0.3³ = 91.62, plus possible small leakage.
        assert!(
            n.power_w() >= 91.0 && n.power_w() < 110.0,
            "{}",
            n.power_w()
        );
    }

    #[test]
    fn load_increases_power_and_temperature() {
        let mut n = idle_node();
        settle(&mut n, 30.0);
        let idle_t = n.temp_c();
        let idle_p = n.power_w();
        n.set_load(1.0, 64.0);
        settle(&mut n, 30.0);
        assert!(
            n.power_w() > idle_p + 250.0,
            "{} vs {}",
            n.power_w(),
            idle_p
        );
        assert!(n.temp_c() > idle_t + 10.0);
    }

    #[test]
    fn dvfs_cubic_saves_power() {
        let mut hi = idle_node();
        hi.set_load(1.0, 0.0);
        settle(&mut hi, 30.0);
        let mut lo = idle_node();
        lo.set_load(1.0, 0.0);
        lo.set_freq_ghz(1.5); // half of f_max
        settle(&mut lo, 30.0);
        // Dynamic term should fall by ~8x; total power clearly lower.
        assert!(
            lo.power_w() < hi.power_w() - 200.0,
            "{} vs {}",
            lo.power_w(),
            hi.power_w()
        );
        assert!((lo.compute_speed() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn freq_clamped_to_range() {
        let mut n = idle_node();
        n.set_freq_ghz(10.0);
        assert_eq!(n.freq_ghz(), 3.0);
        n.set_freq_ghz(0.1);
        assert_eq!(n.freq_ghz(), 1.2);
    }

    #[test]
    fn hotter_inlet_means_hotter_node_and_more_leakage() {
        let mut cool = idle_node();
        cool.set_load(1.0, 0.0);
        settle(&mut cool, 25.0);
        let mut warm = idle_node();
        warm.set_load(1.0, 0.0);
        settle(&mut warm, 45.0);
        assert!(warm.temp_c() > cool.temp_c() + 15.0);
        assert!(warm.power_w() > cool.power_w(), "leakage should grow");
    }

    #[test]
    fn fan_failure_leads_to_throttling_under_load() {
        let mut n = idle_node();
        n.set_load(1.0, 0.0);
        n.set_fan_failed(true);
        settle(&mut n, 40.0);
        assert!(n.throttled(), "temp {}", n.temp_c());
        assert!(n.compute_speed() < 0.6);
        // Knob writes are ignored while failed.
        n.set_fan_speed(1.0);
        assert_eq!(n.fan_speed(), 0.05);
    }

    #[test]
    fn fan_speed_trade_off() {
        // Higher fan: cooler die but more fan power at equal load.
        let mut slow = idle_node();
        slow.set_load(0.8, 0.0);
        slow.set_fan_speed(0.2);
        settle(&mut slow, 30.0);
        let mut fast = idle_node();
        fast.set_load(0.8, 0.0);
        fast.set_fan_speed(1.0);
        settle(&mut fast, 30.0);
        assert!(fast.temp_c() < slow.temp_c() - 5.0);
        // The fan itself costs up to 60 W.
        let fan_cost = 60.0 * (1.0f64.powi(3) - 0.2f64.powi(3));
        // Fast node pays fan power but saves some leakage; the difference
        // must be smaller than the raw fan cost yet positive for this load.
        let dp = fast.power_w() - slow.power_w();
        assert!(dp > 0.0 && dp < fan_cost + 1.0, "dp = {dp}");
    }

    #[test]
    fn memory_clamped_to_capacity() {
        let mut n = idle_node();
        n.set_load(0.5, 1e9);
        assert_eq!(n.memory_used_gib(), 192.0);
    }

    #[test]
    fn equilibrium_is_stable_under_large_dt() {
        // dt larger than tau must not oscillate or diverge (alpha clamp).
        let mut n = idle_node();
        n.set_load(1.0, 0.0);
        for _ in 0..50 {
            n.step(1_000.0, 30.0);
            assert!(n.temp_c().is_finite());
            assert!(n.temp_c() < 150.0);
        }
    }
}
