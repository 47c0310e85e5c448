//! The four types of data analytics (Gartner's staged model; Lepenioti
//! et al. 2020) — the rows of the ODA framework and Fig. 2 of the paper.

use serde::Serialize;
use std::fmt;

/// A stage of analytics sophistication.
///
/// The derived `Ord` follows the staircase of Fig. 2: descriptive <
/// diagnostic < predictive < prescriptive — increasing *value and
/// difficulty*, moving from hindsight through insight to foresight. No type
/// is "better": they answer different operational questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum AnalyticsType {
    /// *"What happened?"* — visualization, dashboards, KPIs, alerts;
    /// aggregation and normalization but no complex knowledge extraction.
    Descriptive,
    /// *"Why did it happen?"* — systematic extraction of non-obvious
    /// insight from multi-dimensional data: anomaly detection, root cause
    /// analysis, fingerprinting.
    Diagnostic,
    /// *"What will happen?"* — forecasting a system's near-future state;
    /// foresight enabling proactive rather than reactive ODA.
    Predictive,
    /// *"What should we do?"* — converting state (and forecasts) into knob
    /// settings or recommended actions towards an efficiency goal.
    Prescriptive,
}

impl AnalyticsType {
    /// All types, in the staged order (bottom row of the paper's Table I
    /// upward).
    pub const ALL: [AnalyticsType; 4] = [
        AnalyticsType::Descriptive,
        AnalyticsType::Diagnostic,
        AnalyticsType::Predictive,
        AnalyticsType::Prescriptive,
    ];

    /// Dense index `0..4` in staged order.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            AnalyticsType::Descriptive => 0,
            AnalyticsType::Diagnostic => 1,
            AnalyticsType::Predictive => 2,
            AnalyticsType::Prescriptive => 3,
        }
    }

    /// Type from a dense index.
    ///
    /// # Panics
    /// Panics if `i >= 4`.
    pub const fn from_index(i: usize) -> AnalyticsType {
        Self::ALL[i]
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            AnalyticsType::Descriptive => "Descriptive",
            AnalyticsType::Diagnostic => "Diagnostic",
            AnalyticsType::Predictive => "Predictive",
            AnalyticsType::Prescriptive => "Prescriptive",
        }
    }

    /// The operational question the type answers (§III-B).
    pub const fn question(self) -> &'static str {
        match self {
            AnalyticsType::Descriptive => "What happened?",
            AnalyticsType::Diagnostic => "Why did it happen?",
            AnalyticsType::Predictive => "What will happen?",
            AnalyticsType::Prescriptive => "What is the best way to manage my resources?",
        }
    }

    /// Whether the type looks at the past (*hindsight*: descriptive,
    /// diagnostic) or the future (*foresight*: predictive, and
    /// prescriptive acting on it).
    pub const fn is_foresight(self) -> bool {
        matches!(
            self,
            AnalyticsType::Predictive | AnalyticsType::Prescriptive
        )
    }
}

impl fmt::Display for AnalyticsType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_ordering_matches_figure_2() {
        assert!(AnalyticsType::Descriptive < AnalyticsType::Diagnostic);
        assert!(AnalyticsType::Diagnostic < AnalyticsType::Predictive);
        assert!(AnalyticsType::Predictive < AnalyticsType::Prescriptive);
    }

    #[test]
    fn indices_round_trip() {
        for (i, t) in AnalyticsType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(AnalyticsType::from_index(i), *t);
        }
    }

    #[test]
    fn hindsight_vs_foresight_split() {
        assert!(!AnalyticsType::Descriptive.is_foresight());
        assert!(!AnalyticsType::Diagnostic.is_foresight());
        assert!(AnalyticsType::Predictive.is_foresight());
        assert!(AnalyticsType::Prescriptive.is_foresight());
    }

    #[test]
    fn questions_are_the_papers() {
        assert_eq!(AnalyticsType::Descriptive.question(), "What happened?");
        assert_eq!(AnalyticsType::Diagnostic.question(), "Why did it happen?");
    }
}
