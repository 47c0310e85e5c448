//! Threshold alerting.
//!
//! The paper places "automated alerts upon exceeding human-defined thresholds
//! of monitored sensors" inside *descriptive* analytics: no knowledge
//! extraction, just visibility. The alert engine evaluates level conditions
//! against incoming readings with hysteresis (an alert fires once when a
//! sensor enters the bad region and clears once when it leaves), so flapping
//! sensors do not spam operators.

use crate::reading::Reading;
use crate::sensor::SensorId;
use serde::Serialize;
use std::collections::BTreeMap;

/// Operator severity of an alert rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum AlertSeverity {
    /// Informational — shown on dashboards.
    Info,
    /// Needs operator attention soon.
    Warning,
    /// Needs immediate operator attention.
    Critical,
}

/// Level condition on a sensor value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Condition {
    /// Fires while `value > threshold`.
    Above(f64),
    /// Fires while `value < threshold`.
    Below(f64),
    /// Fires while `value` is outside `[lo, hi]`.
    Outside {
        /// Lower acceptable bound.
        lo: f64,
        /// Upper acceptable bound.
        hi: f64,
    },
}

impl Condition {
    /// Whether `value` violates the condition.
    pub fn violated_by(&self, value: f64) -> bool {
        match *self {
            Condition::Above(t) => value > t,
            Condition::Below(t) => value < t,
            Condition::Outside { lo, hi } => value < lo || value > hi,
        }
    }
}

/// A configured alert rule on one sensor.
#[derive(Debug, Clone, Serialize)]
pub struct AlertRule {
    /// Sensor the rule watches.
    pub sensor: SensorId,
    /// The level condition.
    pub condition: Condition,
    /// Severity attached to fired events.
    pub severity: AlertSeverity,
    /// Human-readable rule name shown in events.
    pub name: String,
    /// Number of consecutive violating readings required before firing
    /// (debounce). `1` fires immediately.
    pub debounce: u32,
    /// Number of consecutive *non-violating* readings required before an
    /// active alert clears (clear-side hysteresis). `1` clears immediately.
    /// Raising this stops a sensor flapping around the threshold from
    /// emitting a raise/clear pair per oscillation.
    pub clear_debounce: u32,
    /// Minimum time after a clear before the rule may fire again,
    /// milliseconds. `0` disables the cooldown.
    pub cooldown_ms: u64,
}

impl AlertRule {
    /// Convenience constructor with `debounce = 1`.
    pub fn new(
        name: impl Into<String>,
        sensor: SensorId,
        condition: Condition,
        severity: AlertSeverity,
    ) -> Self {
        AlertRule {
            sensor,
            condition,
            severity,
            name: name.into(),
            debounce: 1,
            clear_debounce: 1,
            cooldown_ms: 0,
        }
    }

    /// Builder-style debounce setter.
    pub fn with_debounce(mut self, n: u32) -> Self {
        self.debounce = n.max(1);
        self
    }

    /// Builder-style clear-debounce setter.
    pub fn with_clear_debounce(mut self, n: u32) -> Self {
        self.clear_debounce = n.max(1);
        self
    }

    /// Builder-style re-fire cooldown setter.
    pub fn with_cooldown_ms(mut self, ms: u64) -> Self {
        self.cooldown_ms = ms;
        self
    }
}

/// Raised/cleared alert notification.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AlertEvent {
    /// Name of the rule that produced the event.
    pub rule: String,
    /// Sensor the event concerns.
    pub sensor: SensorId,
    /// Severity copied from the rule.
    pub severity: AlertSeverity,
    /// The reading that triggered the transition.
    pub reading: Reading,
    /// `true` when the alert fires, `false` when it clears.
    pub active: bool,
}

#[derive(Debug, Default, Clone, Copy)]
struct RuleState {
    active: bool,
    consecutive_violations: u32,
    consecutive_good: u32,
    last_cleared: Option<crate::reading::Timestamp>,
}

/// Stateful evaluator of a set of alert rules.
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    state: Vec<RuleState>,
    by_sensor: BTreeMap<SensorId, Vec<usize>>,
    fired_total: u64,
}

impl AlertEngine {
    /// Creates an engine over `rules`.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let mut by_sensor: BTreeMap<SensorId, Vec<usize>> = BTreeMap::new();
        for (i, r) in rules.iter().enumerate() {
            by_sensor.entry(r.sensor).or_default().push(i);
        }
        let state = vec![RuleState::default(); rules.len()];
        AlertEngine {
            rules,
            state,
            by_sensor,
            fired_total: 0,
        }
    }

    /// Total fire events (not clears) since creation.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Rules currently in the active (firing) state.
    pub fn active_rules(&self) -> Vec<&AlertRule> {
        self.rules
            .iter()
            .zip(&self.state)
            .filter_map(|(r, s)| s.active.then_some(r))
            .collect()
    }

    /// Feeds one reading; returns any raise/clear transitions it caused.
    ///
    /// Non-finite readings are ignored outright: a NaN carries no evidence
    /// about the condition, so it neither advances the violation count nor
    /// resets it — corrupted telemetry can never raise or clear an alert.
    pub fn observe(&mut self, sensor: SensorId, reading: Reading) -> Vec<AlertEvent> {
        let mut events = Vec::new();
        if !reading.value.is_finite() {
            return events;
        }
        let Some(rule_idxs) = self.by_sensor.get(&sensor) else {
            return events;
        };
        for &i in rule_idxs {
            let rule = &self.rules[i];
            let st = &mut self.state[i];
            if rule.condition.violated_by(reading.value) {
                st.consecutive_violations = st.consecutive_violations.saturating_add(1);
                st.consecutive_good = 0;
                let cooled_down = match st.last_cleared {
                    Some(cleared) if rule.cooldown_ms > 0 => {
                        reading.ts.millis_since(cleared) >= rule.cooldown_ms
                    }
                    _ => true,
                };
                if !st.active && st.consecutive_violations >= rule.debounce && cooled_down {
                    st.active = true;
                    self.fired_total += 1;
                    events.push(AlertEvent {
                        rule: rule.name.clone(),
                        sensor,
                        severity: rule.severity,
                        reading,
                        active: true,
                    });
                }
            } else {
                st.consecutive_violations = 0;
                st.consecutive_good = st.consecutive_good.saturating_add(1);
                if st.active && st.consecutive_good >= rule.clear_debounce {
                    st.active = false;
                    st.last_cleared = Some(reading.ts);
                    events.push(AlertEvent {
                        rule: rule.name.clone(),
                        sensor,
                        severity: rule.severity,
                        reading,
                        active: false,
                    });
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::Timestamp;

    fn rd(v: f64) -> Reading {
        Reading::new(Timestamp::ZERO, v)
    }

    #[test]
    fn above_fires_once_and_clears_once() {
        let s = SensorId(0);
        let mut eng = AlertEngine::new(vec![AlertRule::new(
            "hot",
            s,
            Condition::Above(80.0),
            AlertSeverity::Critical,
        )]);
        assert!(eng.observe(s, rd(70.0)).is_empty());
        let ev = eng.observe(s, rd(85.0));
        assert_eq!(ev.len(), 1);
        assert!(ev[0].active);
        // Still violating: no duplicate event.
        assert!(eng.observe(s, rd(90.0)).is_empty());
        let ev = eng.observe(s, rd(75.0));
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].active);
        assert_eq!(eng.fired_total(), 1);
    }

    #[test]
    fn debounce_requires_consecutive_violations() {
        let s = SensorId(0);
        let mut eng = AlertEngine::new(vec![AlertRule::new(
            "flappy",
            s,
            Condition::Above(10.0),
            AlertSeverity::Warning,
        )
        .with_debounce(3)]);
        assert!(eng.observe(s, rd(11.0)).is_empty());
        assert!(eng.observe(s, rd(11.0)).is_empty());
        // A good reading resets the count.
        assert!(eng.observe(s, rd(5.0)).is_empty());
        assert!(eng.observe(s, rd(11.0)).is_empty());
        assert!(eng.observe(s, rd(11.0)).is_empty());
        let ev = eng.observe(s, rd(11.0));
        assert_eq!(ev.len(), 1);
        assert!(ev[0].active);
    }

    #[test]
    fn below_and_outside_conditions() {
        assert!(Condition::Below(1.0).violated_by(0.5));
        assert!(!Condition::Below(1.0).violated_by(1.0));
        let c = Condition::Outside { lo: 10.0, hi: 20.0 };
        assert!(c.violated_by(9.9));
        assert!(c.violated_by(20.1));
        assert!(!c.violated_by(15.0));
        assert!(!c.violated_by(10.0));
        assert!(!c.violated_by(20.0));
    }

    #[test]
    fn non_finite_readings_never_raise_or_clear() {
        let s = SensorId(0);
        let mut eng = AlertEngine::new(vec![AlertRule::new(
            "hot",
            s,
            Condition::Above(80.0),
            AlertSeverity::Critical,
        )
        .with_debounce(2)]);
        assert!(eng.observe(s, rd(90.0)).is_empty());
        // NaN between two violations must not reset the debounce counter...
        assert!(eng.observe(s, rd(f64::NAN)).is_empty());
        let ev = eng.observe(s, rd(91.0));
        assert_eq!(ev.len(), 1, "second real violation fires");
        // ...and NaN while active must not clear.
        assert!(eng.observe(s, rd(f64::NAN)).is_empty());
        assert!(eng.observe(s, rd(f64::INFINITY)).is_empty());
        assert_eq!(eng.active_rules().len(), 1);
        assert_eq!(eng.fired_total(), 1);
    }

    #[test]
    fn clear_debounce_suppresses_flapping() {
        let s = SensorId(0);
        let mut eng = AlertEngine::new(vec![AlertRule::new(
            "flap",
            s,
            Condition::Above(10.0),
            AlertSeverity::Warning,
        )
        .with_clear_debounce(3)]);
        assert_eq!(eng.observe(s, rd(11.0)).len(), 1);
        // Oscillation around the threshold: single good readings do not
        // clear, so the re-entering violations do not re-fire either.
        for _ in 0..5 {
            assert!(eng.observe(s, rd(9.0)).is_empty());
            assert!(eng.observe(s, rd(11.0)).is_empty());
        }
        assert_eq!(eng.fired_total(), 1, "one fire despite 5 oscillations");
        // Three consecutive good readings finally clear.
        assert!(eng.observe(s, rd(9.0)).is_empty());
        assert!(eng.observe(s, rd(9.0)).is_empty());
        let ev = eng.observe(s, rd(9.0));
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].active);
    }

    #[test]
    fn cooldown_blocks_immediate_refire() {
        let s = SensorId(0);
        let mut eng = AlertEngine::new(vec![AlertRule::new(
            "cool",
            s,
            Condition::Above(10.0),
            AlertSeverity::Warning,
        )
        .with_cooldown_ms(60_000)]);
        let at = |t_s: u64, v: f64| Reading::new(Timestamp::from_secs(t_s), v);
        assert_eq!(eng.observe(s, at(0, 11.0)).len(), 1);
        assert_eq!(eng.observe(s, at(10, 9.0)).len(), 1); // clears at t=10s
                                                          // Violations inside the cooldown window are swallowed.
        assert!(eng.observe(s, at(20, 11.0)).is_empty());
        assert!(eng.observe(s, at(40, 11.0)).is_empty());
        // Past the cooldown the rule fires again.
        let ev = eng.observe(s, at(71, 11.0));
        assert_eq!(ev.len(), 1);
        assert!(ev[0].active);
        assert_eq!(eng.fired_total(), 2);
    }

    #[test]
    fn unrelated_sensors_are_ignored() {
        let mut eng = AlertEngine::new(vec![AlertRule::new(
            "r",
            SensorId(0),
            Condition::Above(0.0),
            AlertSeverity::Info,
        )]);
        assert!(eng.observe(SensorId(1), rd(100.0)).is_empty());
    }

    #[test]
    fn multiple_rules_on_one_sensor() {
        let s = SensorId(0);
        let mut eng = AlertEngine::new(vec![
            AlertRule::new("warn", s, Condition::Above(50.0), AlertSeverity::Warning),
            AlertRule::new("crit", s, Condition::Above(80.0), AlertSeverity::Critical),
        ]);
        let ev = eng.observe(s, rd(60.0));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].severity, AlertSeverity::Warning);
        let ev = eng.observe(s, rd(90.0));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].severity, AlertSeverity::Critical);
        assert_eq!(eng.active_rules().len(), 2);
    }
}
