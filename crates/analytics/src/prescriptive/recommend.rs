//! Rule-based operator recommendations.
//!
//! The paper notes that prescriptive output can be applied "either in an
//! automated way, or by human inspection". This module is the
//! human-inspection path: it maps diagnoses (anomaly kinds with evidence)
//! to ranked, explained actions — the "response to anomalies" and "code
//! improvement recommendation" cells (Bodik et al.'s fingerprint-driven
//! responses, Zhang et al.'s usage recommendations).

use serde::Serialize;

/// A diagnosis fed into the engine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnosis {
    /// Stable kind label (e.g. `"fan-failure"`, `"memory-leak"`).
    pub kind: String,
    /// Affected entity (node name, rack, job id) for message templating.
    pub subject: String,
    /// Detector confidence/severity in `[0, 1]`.
    pub severity: f64,
}

/// One recommended action.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Recommendation {
    /// What to do, templated with the subject.
    pub action: String,
    /// Why — the diagnosis that produced it.
    pub rationale: String,
    /// Priority score (severity × rule weight); list is sorted by this.
    pub priority: f64,
    /// Whether the action can safely be automated without operator review.
    pub automatable: bool,
}

/// A rule: matches a diagnosis kind, emits an action template.
struct Rule {
    kind: &'static str,
    weight: f64,
    automatable: bool,
    template: fn(&Diagnosis) -> String,
}

/// The built-in rulebook covering the simulator's fault vocabulary.
const RULES: &[Rule] = &[
    Rule {
        kind: "fan-failure",
        weight: 1.0,
        automatable: true,
        template: |d| {
            format!(
                "Drain {} and schedule fan replacement; raise neighbouring fan speeds meanwhile",
                d.subject
            )
        },
    },
    Rule {
        kind: "thermal-degradation",
        weight: 0.7,
        automatable: false,
        template: |d| {
            format!(
                "Schedule thermal service (repaste/dust) for {} at next maintenance window",
                d.subject
            )
        },
    },
    Rule {
        kind: "memory-leak",
        weight: 0.8,
        automatable: true,
        template: |d| {
            format!(
                "Notify owner of workload on {}; enable OOM guard and cordon after current job",
                d.subject
            )
        },
    },
    Rule {
        kind: "cpu-contention",
        weight: 0.8,
        automatable: true,
        template: |d| {
            format!(
                "Kill orphaned processes on {} and audit prolog/epilog scripts",
                d.subject
            )
        },
    },
    Rule {
        kind: "network-hog",
        weight: 0.9,
        automatable: false,
        template: |d| {
            format!("Rate-limit external traffic on {} uplink; review I/O scheduling of co-located jobs", d.subject)
        },
    },
    Rule {
        kind: "cooling-degradation",
        weight: 1.0,
        automatable: false,
        template: |d| {
            format!("Inspect {} (heat exchanger fouling / pump wear); consider raising inlet setpoint until serviced", d.subject)
        },
    },
    Rule {
        kind: "cryptominer",
        weight: 1.0,
        automatable: true,
        template: |d| {
            format!(
                "Suspend job {} pending review: utilization signature matches cryptomining",
                d.subject
            )
        },
    },
    Rule {
        kind: "inefficient-code",
        weight: 0.3,
        automatable: false,
        template: |d| {
            format!("Recommend profiling session to owner of {}: memory-bound phases dominate at max clock", d.subject)
        },
    },
];

/// Produces ranked recommendations for a batch of diagnoses. Unknown kinds
/// yield a generic investigation action with low priority, so nothing a
/// detector reports is silently dropped.
pub fn recommend(diagnoses: &[Diagnosis]) -> Vec<Recommendation> {
    let mut out: Vec<Recommendation> = diagnoses
        .iter()
        .map(|d| {
            let sev = d.severity.clamp(0.0, 1.0);
            match RULES.iter().find(|r| r.kind == d.kind) {
                Some(rule) => Recommendation {
                    action: (rule.template)(d),
                    rationale: format!("{} on {} (severity {:.2})", d.kind, d.subject, sev),
                    priority: sev * rule.weight,
                    automatable: rule.automatable,
                },
                None => Recommendation {
                    action: format!("Investigate unclassified anomaly on {}", d.subject),
                    rationale: format!("unknown kind {:?} (severity {:.2})", d.kind, sev),
                    priority: sev * 0.1,
                    automatable: false,
                },
            }
        })
        .collect();
    out.sort_by(|a, b| b.priority.total_cmp(&a.priority));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(kind: &str, subject: &str, sev: f64) -> Diagnosis {
        Diagnosis {
            kind: kind.into(),
            subject: subject.into(),
            severity: sev,
        }
    }

    #[test]
    fn known_kinds_get_specific_actions() {
        let recs = recommend(&[diag("fan-failure", "node7", 0.9)]);
        assert_eq!(recs.len(), 1);
        assert!(recs[0].action.contains("node7"));
        assert!(recs[0].action.contains("fan"));
        assert!(recs[0].automatable);
        assert!((recs[0].priority - 0.9).abs() < 1e-12);
    }

    #[test]
    fn ranking_is_by_priority() {
        let recs = recommend(&[
            diag("inefficient-code", "job42", 0.9),       // 0.27
            diag("cooling-degradation", "chiller0", 0.8), // 0.8
            diag("memory-leak", "node3", 0.5),            // 0.4
        ]);
        assert!(recs[0].action.contains("chiller0"));
        assert!(recs[1].action.contains("node3"));
        assert!(recs[2].rationale.contains("inefficient-code"));
    }

    #[test]
    fn unknown_kind_is_not_dropped() {
        let recs = recommend(&[diag("quantum-flux", "node1", 1.0)]);
        assert_eq!(recs.len(), 1);
        assert!(recs[0].action.contains("Investigate"));
        assert!(!recs[0].automatable);
        assert!(recs[0].priority < 0.2);
    }

    #[test]
    fn severity_is_clamped() {
        let recs = recommend(&[diag("fan-failure", "n", 5.0)]);
        assert!(recs[0].priority <= 1.0);
        let recs = recommend(&[diag("fan-failure", "n", -1.0)]);
        assert_eq!(recs[0].priority, 0.0);
    }

    #[test]
    fn every_simulator_fault_kind_has_a_rule() {
        for kind in [
            "fan-failure",
            "thermal-degradation",
            "memory-leak",
            "cpu-contention",
            "network-hog",
            "cooling-degradation",
        ] {
            let recs = recommend(&[diag(kind, "x", 1.0)]);
            assert!(
                !recs[0].action.contains("Investigate unclassified"),
                "missing rule for {kind}"
            );
        }
    }
}
