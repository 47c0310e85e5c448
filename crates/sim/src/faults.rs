//! Fault and anomaly injection — the ground truth for diagnostic ODA.
//!
//! Every diagnostic experiment needs labelled anomalies: the timeline
//! activates a fault at its start time, the simulation's models express its
//! symptoms in ordinary telemetry (a fan failure shows up as rising
//! temperature and throttling, never as a "fault bit"), and the detector
//! under test is scored against the schedule.
//!
//! One [`FaultTimeline`] per site schedules two families of fault, told
//! apart by their [`FaultKind`] alone:
//!
//! * **Plant faults** perturb the site and show up as honest symptoms in
//!   honest telemetry. They cover all four pillars, matching the anomaly
//!   families in the surveyed diagnostic works (Tuncer et al.'s performance
//!   variations, Borghesi et al.'s node anomalies, NREL's AI-ops
//!   infrastructure faults).
//! * **Monitoring-path faults** never change the plant: collectors die,
//!   sensors latch, ADCs glitch, node clocks drift. They change what the
//!   analytics layer *sees* — the degradation an ODA pipeline must
//!   tolerate.
//!
//! Only plant faults label a node faulty ([`FaultKind::node`]), so a
//! detector is scored against physical faults while monitoring-path faults
//! decide how much evidence it gets to work with. The site's seed drives
//! every probabilistic corruption decision.

use crate::engine::SimRng;
use crate::hardware::node::NodeId;
use crate::hardware::rack::RackId;
use oda_telemetry::pattern::SensorPattern;
use oda_telemetry::reading::{Reading, Timestamp};
use oda_telemetry::sensor::{SensorId, SensorRegistry};
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// What goes wrong: a plant fault or a monitoring-path fault.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FaultKind {
    /// A node's fan fails: thermal resistance spikes, node heats and
    /// throttles under load. (System Hardware)
    FanFailure {
        /// Affected node.
        node: NodeId,
    },
    /// Gradual thermal degradation (dust, degraded TIM): `factor` ≥ 1
    /// multiplies the node's thermal resistance. (System Hardware)
    ThermalDegradation {
        /// Affected node.
        node: NodeId,
        /// Thermal-resistance multiplier, ≥ 1.
        factor: f64,
    },
    /// A memory leak on a node: memory use grows linearly until it saturates
    /// the node, degrading job progress (swap thrash). (System Software)
    MemoryLeak {
        /// Affected node.
        node: NodeId,
        /// Leak rate, GiB per minute.
        gib_per_min: f64,
    },
    /// An orphaned/rogue process steals CPU: the victim node loses
    /// `severity` of its compute speed and shows inflated utilization.
    /// (System Software)
    CpuContention {
        /// Affected node.
        node: NodeId,
        /// Fraction of compute stolen, 0..=1.
        severity: f64,
    },
    /// External traffic floods a rack uplink. (System Hardware / network)
    NetworkHog {
        /// Rack whose uplink is flooded.
        rack: RackId,
        /// Injected demand, GB/s.
        demand_gbps: f64,
    },
    /// Cooling-plant degradation (fouled heat exchanger, failing pump):
    /// plant power multiplied by `factor`. (Building Infrastructure)
    CoolingDegradation {
        /// Plant power multiplier, ≥ 1.
        factor: f64,
    },
    /// Monitoring path: sensors matching `pattern` publish nothing (dead
    /// collector, unplugged IPMI cable): readings are silently discarded.
    SensorDropout {
        /// Glob over sensor names, e.g. `/hw/*/temp_c`.
        pattern: String,
    },
    /// Monitoring path: sensors matching `pattern` latch at the last value
    /// seen before the fault (stuck ADC register): timestamps advance,
    /// values freeze.
    StuckAt {
        /// Glob over sensor names.
        pattern: String,
    },
    /// Monitoring path: each reading from a matching sensor is replaced by
    /// NaN with probability `p` (flaky wire, conversion errors).
    NanBurst {
        /// Glob over sensor names.
        pattern: String,
        /// Per-reading corruption probability, 0..=1.
        p: f64,
    },
    /// Monitoring path: each reading from a matching sensor is displaced by
    /// `magnitude` (randomly signed) with probability `p` — electrical
    /// spikes.
    Spike {
        /// Glob over sensor names.
        pattern: String,
        /// Absolute displacement added or subtracted.
        magnitude: f64,
        /// Per-reading corruption probability, 0..=1.
        p: f64,
    },
    /// Monitoring path: timestamps of matching sensors are skewed by a
    /// uniform offset in `[-max_skew_ms, +max_skew_ms]` (unsynchronised
    /// node clocks). Backward skews produce out-of-order readings the store
    /// rejects.
    ClockJitter {
        /// Glob over sensor names.
        pattern: String,
        /// Maximum absolute skew, milliseconds.
        max_skew_ms: u64,
    },
    /// Monitoring path: every sensor under `/hw/node{i}` and `/sw/node{i}`
    /// goes dark — the monitoring view of a crashed or unreachable node. On
    /// a sharded site the collector shard hosted on that node fails too.
    /// The node itself keeps running, so it is not labelled faulty.
    NodeFailure {
        /// The node whose telemetry disappears.
        node: NodeId,
    },
    /// Monitoring path: a burst of operator stress jobs (`jobs` single-node
    /// jobs of `duration_s` seconds) is submitted at activation: load the
    /// pipeline must absorb while possibly also degraded.
    BurstLoad {
        /// Number of single-node jobs submitted.
        jobs: u32,
        /// Per-job duration, seconds.
        duration_s: f64,
    },
}

impl FaultKind {
    /// Short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::FanFailure { .. } => "fan-failure",
            FaultKind::ThermalDegradation { .. } => "thermal-degradation",
            FaultKind::MemoryLeak { .. } => "memory-leak",
            FaultKind::CpuContention { .. } => "cpu-contention",
            FaultKind::NetworkHog { .. } => "network-hog",
            FaultKind::CoolingDegradation { .. } => "cooling-degradation",
            FaultKind::SensorDropout { .. } => "sensor-dropout",
            FaultKind::StuckAt { .. } => "stuck-at",
            FaultKind::NanBurst { .. } => "nan-burst",
            FaultKind::Spike { .. } => "spike",
            FaultKind::ClockJitter { .. } => "clock-jitter",
            FaultKind::NodeFailure { .. } => "node-failure",
            FaultKind::BurstLoad { .. } => "burst-load",
        }
    }

    /// The node a node-scoped plant fault affects. Monitoring-path faults
    /// return `None`: they hide telemetry, they do not fault the node.
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            FaultKind::FanFailure { node }
            | FaultKind::ThermalDegradation { node, .. }
            | FaultKind::MemoryLeak { node, .. }
            | FaultKind::CpuContention { node, .. } => Some(node),
            _ => None,
        }
    }

    /// The sensor-name patterns a monitoring-path fault corrupts (empty
    /// for plant faults and pure load faults).
    fn patterns(&self) -> Vec<String> {
        match self {
            FaultKind::SensorDropout { pattern }
            | FaultKind::StuckAt { pattern }
            | FaultKind::NanBurst { pattern, .. }
            | FaultKind::Spike { pattern, .. }
            | FaultKind::ClockJitter { pattern, .. } => vec![pattern.clone()],
            FaultKind::NodeFailure { node } => vec![format!("/*/node{}/**", node.index())],
            _ => Vec::new(),
        }
    }
}

/// A scheduled fault: active during `[start, end)`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fault {
    /// What happens.
    pub kind: FaultKind,
    /// Activation time.
    pub start: Timestamp,
    /// Deactivation time (exclusive).
    pub end: Timestamp,
}

impl Fault {
    /// Creates a fault active during `[start, end)`.
    pub fn new(kind: FaultKind, start: Timestamp, end: Timestamp) -> Self {
        Fault { kind, start, end }
    }

    /// Whether the fault is active at `t`.
    #[inline]
    pub fn active_at(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }
}

/// Generates a randomized-but-deterministic schedule of monitoring-path
/// faults: `count` faults of rotating kinds with start times uniform in
/// `[0, 0.8 × horizon)` and durations between 5% and 20% of the horizon.
/// The same `(seed, horizon, nodes, count)` always yields the same
/// schedule.
pub fn randomized(seed: u64, horizon: Timestamp, nodes: usize, count: usize) -> Vec<Fault> {
    let mut rng = SimRng::new(seed ^ 0x7e1e_6e57_0dab_cafe);
    let horizon_ms = horizon.as_millis().max(1);
    (0..count)
        .map(|i| {
            let start = rng.uniform(0.0, horizon_ms as f64 * 0.8) as u64;
            let dur = rng.uniform(horizon_ms as f64 * 0.05, horizon_ms as f64 * 0.2) as u64;
            let node = NodeId(rng.uniform_usize(0, nodes.max(1)) as u32);
            let kind = match i % 7 {
                0 => FaultKind::SensorDropout {
                    pattern: format!("/hw/node{}/temp_c", node.index()),
                },
                1 => FaultKind::NanBurst {
                    pattern: "/hw/*/power_w".to_owned(),
                    p: rng.uniform(0.1, 0.5),
                },
                2 => FaultKind::StuckAt {
                    pattern: format!("/hw/node{}/util", node.index()),
                },
                3 => FaultKind::Spike {
                    pattern: "/facility/power/it_kw".to_owned(),
                    magnitude: rng.uniform(50.0, 500.0),
                    p: rng.uniform(0.05, 0.3),
                },
                4 => FaultKind::ClockJitter {
                    pattern: format!("/hw/node{}/*", node.index()),
                    max_skew_ms: rng.uniform(5_000.0, 30_000.0) as u64,
                },
                5 => FaultKind::NodeFailure { node },
                _ => FaultKind::BurstLoad {
                    jobs: rng.uniform_usize(2, 8) as u32,
                    duration_s: rng.uniform(300.0, 1_800.0),
                },
            };
            Fault::new(
                kind,
                Timestamp::from_millis(start),
                Timestamp::from_millis(start.saturating_add(dur)),
            )
        })
        .collect()
}

/// A site's fault schedule and its runtime state: activation tracking,
/// resolved sensor targets, per-fault stuck values, the deterministic
/// corruption RNG and the suppression/corruption counters.
///
/// Driven by the tick loop: [`step`](Self::step) reports transitions,
/// [`corrupt`](Self::corrupt) filters every outgoing reading. Patterns are
/// resolved when a fault is injected — the simulator registers every
/// sensor at construction, so late registration is not a concern here.
#[derive(Debug)]
pub struct FaultTimeline {
    /// The scheduled faults, in insertion order (also corruption order
    /// when several faults hit the same sensor).
    schedule: Vec<Fault>,
    /// Per-fault resolved target set (empty for plant and load faults).
    targets: Vec<HashSet<SensorId>>,
    active: Vec<bool>,
    /// Whether any fault with sensor targets is active.
    corrupting: bool,
    /// Last clean value seen per (fault, sensor), for `StuckAt`.
    stuck: HashMap<(usize, SensorId), f64>,
    rng: SimRng,
    /// Readings suppressed (dropout / node failure).
    suppressed: u64,
    /// Readings whose value or timestamp was corrupted in place.
    corrupted: u64,
}

impl FaultTimeline {
    /// An empty timeline whose corruption decisions derive from `seed`
    /// (the site's seed).
    pub fn new(seed: u64) -> Self {
        FaultTimeline {
            schedule: Vec::new(),
            targets: Vec::new(),
            active: Vec::new(),
            corrupting: false,
            stuck: HashMap::new(),
            rng: SimRng::new(seed ^ 0xc0_ffee),
            suppressed: 0,
            corrupted: 0,
        }
    }

    /// Adds `fault` to the schedule, resolving its sensor patterns against
    /// `registry`.
    pub fn inject(&mut self, fault: Fault, registry: &SensorRegistry) {
        self.targets.push(
            fault
                .kind
                .patterns()
                .iter()
                .flat_map(|p| registry.matching(&SensorPattern::new(p)))
                .collect(),
        );
        self.schedule.push(fault);
        self.active.push(false);
    }

    /// The full schedule (ground truth for scoring detectors and
    /// degradation).
    pub fn schedule(&self) -> &[Fault] {
        &self.schedule
    }

    /// Faults active at `t`.
    pub fn active_at(&self, t: Timestamp) -> Vec<&Fault> {
        self.schedule.iter().filter(|f| f.active_at(t)).collect()
    }

    /// Whether any plant fault affecting `node` is active at `t`
    /// (ground-truth label used when scoring node-level detectors).
    pub fn node_is_faulty(&self, node: NodeId, t: Timestamp) -> bool {
        self.schedule
            .iter()
            .any(|f| f.active_at(t) && f.kind.node() == Some(node))
    }

    /// Readings suppressed so far (dropout and node-failure windows).
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Readings whose value or timestamp was altered so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Advances to `t`; returns `(newly_activated, newly_deactivated)`.
    /// Deactivation clears stuck-value latches so a later window re-latches
    /// fresh.
    pub fn step(&mut self, t: Timestamp) -> (Vec<Fault>, Vec<Fault>) {
        let mut on = Vec::new();
        let mut off = Vec::new();
        self.corrupting = false;
        for (i, f) in self.schedule.iter().enumerate() {
            let now_active = f.active_at(t);
            if now_active && !self.active[i] {
                on.push(f.clone());
            } else if !now_active && self.active[i] {
                off.push(f.clone());
                self.stuck.retain(|&(fi, _), _| fi != i);
            }
            self.active[i] = now_active;
            self.corrupting |= now_active && !self.targets[i].is_empty();
        }
        (on, off)
    }

    /// Applies every active monitoring-path fault to one outgoing reading.
    ///
    /// Returns `None` when the reading is suppressed entirely, otherwise the
    /// (possibly corrupted) reading. Faults apply in schedule order, so a
    /// spike can land on a stuck value but nothing survives a dropout.
    pub fn corrupt(&mut self, sensor: SensorId, mut reading: Reading) -> Option<Reading> {
        if !self.corrupting {
            return Some(reading);
        }
        for i in 0..self.schedule.len() {
            if !self.active[i] || !self.targets[i].contains(&sensor) {
                continue;
            }
            match self.schedule[i].kind {
                FaultKind::SensorDropout { .. } | FaultKind::NodeFailure { .. } => {
                    self.suppressed += 1;
                    return None;
                }
                FaultKind::StuckAt { .. } => {
                    let latch = *self.stuck.entry((i, sensor)).or_insert(reading.value);
                    if latch != reading.value {
                        reading.value = latch;
                        self.corrupted += 1;
                    }
                }
                FaultKind::NanBurst { p, .. } => {
                    if self.rng.chance(p) {
                        reading.value = f64::NAN;
                        self.corrupted += 1;
                    }
                }
                FaultKind::Spike { magnitude, p, .. } => {
                    if self.rng.chance(p) {
                        let sign = if self.rng.chance(0.5) { 1.0 } else { -1.0 };
                        reading.value += sign * magnitude;
                        self.corrupted += 1;
                    }
                }
                FaultKind::ClockJitter { max_skew_ms, .. } => {
                    let skew = self.rng.uniform(-(max_skew_ms as f64), max_skew_ms as f64) as i64;
                    let ms = reading.ts.as_millis();
                    reading.ts = Timestamp::from_millis(ms.saturating_add_signed(skew));
                    self.corrupted += 1;
                }
                FaultKind::BurstLoad { .. }
                | FaultKind::FanFailure { .. }
                | FaultKind::ThermalDegradation { .. }
                | FaultKind::MemoryLeak { .. }
                | FaultKind::CpuContention { .. }
                | FaultKind::NetworkHog { .. }
                | FaultKind::CoolingDegradation { .. } => {}
            }
        }
        Some(reading)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(start_s: u64, end_s: u64) -> Fault {
        Fault::new(
            FaultKind::FanFailure { node: NodeId(3) },
            Timestamp::from_secs(start_s),
            Timestamp::from_secs(end_s),
        )
    }

    #[test]
    fn active_window_is_half_open() {
        let f = fault(10, 20);
        assert!(!f.active_at(Timestamp::from_secs(9)));
        assert!(f.active_at(Timestamp::from_secs(10)));
        assert!(f.active_at(Timestamp::from_secs(19)));
        assert!(!f.active_at(Timestamp::from_secs(20)));
    }

    #[test]
    fn step_reports_transitions_once() {
        let mut inj = FaultTimeline::new(1);
        inj.inject(fault(10, 20), &SensorRegistry::new());
        let (on, off) = inj.step(Timestamp::from_secs(5));
        assert!(on.is_empty() && off.is_empty());
        let (on, off) = inj.step(Timestamp::from_secs(10));
        assert_eq!(on.len(), 1);
        assert!(off.is_empty());
        let (on, off) = inj.step(Timestamp::from_secs(15));
        assert!(on.is_empty() && off.is_empty());
        let (on, off) = inj.step(Timestamp::from_secs(25));
        assert!(on.is_empty());
        assert_eq!(off.len(), 1);
    }

    #[test]
    fn node_fault_labels() {
        let mut inj = FaultTimeline::new(1);
        inj.inject(fault(0, 100), &SensorRegistry::new());
        assert!(inj.node_is_faulty(NodeId(3), Timestamp::from_secs(50)));
        assert!(!inj.node_is_faulty(NodeId(4), Timestamp::from_secs(50)));
        assert!(!inj.node_is_faulty(NodeId(3), Timestamp::from_secs(150)));
    }

    #[test]
    fn kind_metadata() {
        let k = FaultKind::CoolingDegradation { factor: 1.4 };
        assert_eq!(k.label(), "cooling-degradation");
        assert_eq!(k.node(), None);
        let k = FaultKind::MemoryLeak {
            node: NodeId(1),
            gib_per_min: 2.0,
        };
        assert_eq!(k.node(), Some(NodeId(1)));
    }

    // ----- monitoring-path faults -----------------------------------------

    use oda_telemetry::sensor::{SensorKind, Unit};

    fn registry() -> SensorRegistry {
        let reg = SensorRegistry::new();
        for i in 0..2 {
            reg.register(
                &format!("/hw/node{i}/temp_c"),
                SensorKind::Temperature,
                Unit::Celsius,
            );
            reg.register(
                &format!("/hw/node{i}/power_w"),
                SensorKind::Power,
                Unit::Watts,
            );
            reg.register(
                &format!("/sw/node{i}/sys_mem_gib"),
                SensorKind::Count,
                Unit::Dimensionless,
            );
        }
        reg
    }

    fn rd(s: u64, v: f64) -> Reading {
        Reading::new(Timestamp::from_secs(s), v)
    }

    fn timeline(
        seed: u64,
        kind: FaultKind,
        start: Timestamp,
        end: Timestamp,
        reg: &SensorRegistry,
    ) -> FaultTimeline {
        let mut st = FaultTimeline::new(seed);
        st.inject(Fault::new(kind, start, end), reg);
        st
    }

    #[test]
    fn dropout_suppresses_only_matching_sensors() {
        let reg = registry();
        let temp0 = reg.lookup("/hw/node0/temp_c").unwrap();
        let temp1 = reg.lookup("/hw/node1/temp_c").unwrap();
        let mut st = timeline(
            1,
            FaultKind::SensorDropout {
                pattern: "/hw/node0/temp_c".into(),
            },
            Timestamp::from_secs(10),
            Timestamp::from_secs(20),
            &reg,
        );
        st.step(Timestamp::from_secs(5));
        assert!(
            st.corrupt(temp0, rd(5, 40.0)).is_some(),
            "inactive window passes"
        );
        st.step(Timestamp::from_secs(10));
        assert!(st.corrupt(temp0, rd(10, 40.0)).is_none());
        assert!(
            st.corrupt(temp1, rd(10, 40.0)).is_some(),
            "other sensors unaffected"
        );
        st.step(Timestamp::from_secs(20));
        assert!(
            st.corrupt(temp0, rd(20, 40.0)).is_some(),
            "window is half-open"
        );
        assert_eq!(st.suppressed(), 1);
    }

    #[test]
    fn stuck_at_latches_first_value_and_releases() {
        let reg = registry();
        let s = reg.lookup("/hw/node0/power_w").unwrap();
        let mut st = timeline(
            1,
            FaultKind::StuckAt {
                pattern: "/hw/node0/power_w".into(),
            },
            Timestamp::from_secs(0),
            Timestamp::from_secs(10),
            &reg,
        );
        st.step(Timestamp::ZERO);
        assert_eq!(st.corrupt(s, rd(0, 100.0)).unwrap().value, 100.0);
        assert_eq!(st.corrupt(s, rd(1, 150.0)).unwrap().value, 100.0);
        assert_eq!(st.corrupt(s, rd(2, 90.0)).unwrap().value, 100.0);
        st.step(Timestamp::from_secs(10));
        assert_eq!(st.corrupt(s, rd(10, 90.0)).unwrap().value, 90.0);
    }

    #[test]
    fn node_failure_blacks_out_all_node_streams() {
        let reg = registry();
        let mut st = timeline(
            1,
            FaultKind::NodeFailure { node: NodeId(1) },
            Timestamp::ZERO,
            Timestamp::from_secs(100),
            &reg,
        );
        st.step(Timestamp::ZERO);
        for name in [
            "/hw/node1/temp_c",
            "/hw/node1/power_w",
            "/sw/node1/sys_mem_gib",
        ] {
            let s = reg.lookup(name).unwrap();
            assert!(st.corrupt(s, rd(1, 1.0)).is_none(), "{name} should be dark");
        }
        let s0 = reg.lookup("/hw/node0/temp_c").unwrap();
        assert!(st.corrupt(s0, rd(1, 1.0)).is_some());
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let reg = registry();
        let s = reg.lookup("/hw/node0/power_w").unwrap();
        let run = |seed: u64| {
            let mut st = timeline(
                seed,
                FaultKind::NanBurst {
                    pattern: "/hw/*/power_w".into(),
                    p: 0.5,
                },
                Timestamp::ZERO,
                Timestamp::from_secs(1_000),
                &reg,
            );
            st.step(Timestamp::ZERO);
            (0..200)
                .map(|t| st.corrupt(s, rd(t, 5.0)).unwrap().value.is_nan())
                .collect::<Vec<bool>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same corruption stream");
        assert_ne!(a, run(8), "different seed diverges");
        let nans = a.iter().filter(|&&x| x).count();
        assert!(
            nans > 50 && nans < 150,
            "p=0.5 should corrupt about half: {nans}"
        );
    }

    #[test]
    fn clock_jitter_skews_timestamps_both_ways() {
        let reg = registry();
        let s = reg.lookup("/hw/node0/temp_c").unwrap();
        let mut st = timeline(
            3,
            FaultKind::ClockJitter {
                pattern: "/hw/node0/*".into(),
                max_skew_ms: 5_000,
            },
            Timestamp::ZERO,
            Timestamp::from_secs(1_000),
            &reg,
        );
        st.step(Timestamp::ZERO);
        let mut ahead = 0;
        let mut behind = 0;
        for t in 0..100u64 {
            let nominal = Timestamp::from_secs(100 + t);
            let got = st.corrupt(s, Reading::new(nominal, 1.0)).unwrap().ts;
            let skew = got.as_millis() as i64 - nominal.as_millis() as i64;
            assert!(skew.abs() <= 5_000, "skew {skew} out of range");
            if skew > 0 {
                ahead += 1;
            } else if skew < 0 {
                behind += 1;
            }
        }
        assert!(
            ahead > 10 && behind > 10,
            "skew should go both ways: +{ahead} -{behind}"
        );
    }

    #[test]
    fn randomized_schedule_is_reproducible() {
        let a = randomized(42, Timestamp::from_hours(4), 8, 12);
        let b = randomized(42, Timestamp::from_hours(4), 8, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        let c = randomized(43, Timestamp::from_hours(4), 8, 12);
        assert_ne!(a, c);
        // All seven kinds are represented across 12 rotating entries.
        let labels: HashSet<&str> = a.iter().map(|f| f.kind.label()).collect();
        assert_eq!(labels.len(), 7);
    }
}
