//! The Table I survey corpus, encoded.
//!
//! Section IV of the paper demonstrates the framework by classifying ~50
//! surveyed use cases into the sixteen cells; Table I is the result. This
//! module encodes every entry of that table — use-case description,
//! citation numbers, cell — and regenerates the table and the statistics
//! the Discussion section draws from it (single- vs multi-pillar systems,
//! per-type and per-pillar density, similarity between systems).
//!
//! Citation numbers are the paper's own reference indices, so the encoded
//! corpus can be checked against the published table entry by entry.
//!
//! ```
//! // Which cells does the survey populate most densely?
//! let counts = oda_core::survey::cell_counts();
//! let total: usize = counts.iter().map(|(_, &n)| n).sum();
//! assert_eq!(total, oda_core::survey::corpus().len());
//!
//! // §V-B: single-pillar systems dominate the surveyed landscape.
//! let stats = oda_core::survey::pillar_stats();
//! assert!(stats.single_pillar > stats.multi_pillar);
//! ```

use crate::analytics_type::AnalyticsType;
use crate::grid::{CapabilityGrid, GridCell, GridFootprint};
use crate::pillar::Pillar;
use serde::Serialize;
use std::collections::BTreeMap;

/// One use-case entry of Table I.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SurveyEntry {
    /// The use-case description, as printed in the table.
    pub use_case: &'static str,
    /// Citation numbers in the paper's reference list.
    pub citations: &'static [u16],
    /// The cell the entry is placed in.
    pub cell: GridCell,
}

macro_rules! entry {
    ($desc:literal, [$($c:literal),+], $a:ident, $p:ident) => {
        SurveyEntry {
            use_case: $desc,
            citations: &[$($c),+],
            cell: GridCell::new(AnalyticsType::$a, Pillar::$p),
        }
    };
}

/// The full Table I corpus, row by row (prescriptive → descriptive, as
/// printed).
pub fn corpus() -> Vec<SurveyEntry> {
    vec![
        // Prescriptive row.
        entry!(
            "Switching between types of cooling",
            [12],
            Prescriptive,
            BuildingInfrastructure
        ),
        entry!(
            "Tuning of cooling machinery",
            [18, 37],
            Prescriptive,
            BuildingInfrastructure
        ),
        entry!(
            "Responding to anomalies",
            [38, 39],
            Prescriptive,
            BuildingInfrastructure
        ),
        entry!(
            "Cooling optimization at system level",
            [12],
            Prescriptive,
            SystemHardware
        ),
        entry!(
            "CPU frequency tuning",
            [11, 24, 40],
            Prescriptive,
            SystemHardware
        ),
        entry!(
            "Tuning of hardware knobs",
            [20, 25, 41],
            Prescriptive,
            SystemHardware
        ),
        entry!(
            "Intelligent placement of tasks and threads",
            [42],
            Prescriptive,
            SystemSoftware
        ),
        entry!("Plan-based scheduling", [43], Prescriptive, SystemSoftware),
        entry!(
            "Power and KPI-aware scheduling",
            [21, 22, 23],
            Prescriptive,
            SystemSoftware
        ),
        entry!(
            "Auto-tuning of HPC applications",
            [28, 29, 41],
            Prescriptive,
            Applications
        ),
        entry!(
            "Code improvement recommendations",
            [44],
            Prescriptive,
            Applications
        ),
        // Predictive row.
        entry!(
            "Predicting data center KPIs",
            [45],
            Predictive,
            BuildingInfrastructure
        ),
        entry!(
            "Predicting cooling demand",
            [37],
            Predictive,
            BuildingInfrastructure
        ),
        entry!(
            "Modelling cooling performance",
            [18, 46],
            Predictive,
            BuildingInfrastructure
        ),
        entry!(
            "Forecasting hardware sensors",
            [32, 47],
            Predictive,
            SystemHardware
        ),
        entry!(
            "Component failure prediction",
            [48],
            Predictive,
            SystemHardware
        ),
        entry!(
            "Predicting CPU instruction mixes",
            [11],
            Predictive,
            SystemHardware
        ),
        entry!(
            "Simulating HPC systems and schedulers",
            [49, 50, 51],
            Predictive,
            SystemSoftware
        ),
        entry!("Predicting HPC workloads", [23], Predictive, SystemSoftware),
        entry!(
            "Predicting job durations",
            [30, 34, 35],
            Predictive,
            Applications
        ),
        entry!(
            "Predicting job resource usage",
            [31, 52, 53],
            Predictive,
            Applications
        ),
        entry!(
            "Predicting performance profiles of code regions",
            [24],
            Predictive,
            Applications
        ),
        // Diagnostic row.
        entry!(
            "Fingerprinting data center crises",
            [38],
            Diagnostic,
            BuildingInfrastructure
        ),
        entry!(
            "Infrastructure anomaly detection",
            [54],
            Diagnostic,
            BuildingInfrastructure
        ),
        entry!(
            "Infrastructure stress testing",
            [39],
            Diagnostic,
            BuildingInfrastructure
        ),
        entry!(
            "Node-level anomaly detection",
            [17, 26, 47],
            Diagnostic,
            SystemHardware
        ),
        entry!(
            "System-level root cause analysis",
            [9],
            Diagnostic,
            SystemHardware
        ),
        entry!(
            "Diagnosing network contention issues",
            [19, 55],
            Diagnostic,
            SystemHardware
        ),
        entry!(
            "Diagnosing data locality issues",
            [9],
            Diagnostic,
            SystemSoftware
        ),
        entry!(
            "Detection of software anomalies",
            [16, 56],
            Diagnostic,
            SystemSoftware
        ),
        entry!(
            "Identifying sources of OS noise",
            [57],
            Diagnostic,
            SystemSoftware
        ),
        entry!(
            "Application fingerprinting",
            [33, 36],
            Diagnostic,
            Applications
        ),
        entry!(
            "Identifying performance patterns",
            [20, 31, 44],
            Diagnostic,
            Applications
        ),
        entry!(
            "Diagnosing code-level issues",
            [15, 27],
            Diagnostic,
            Applications
        ),
        // Descriptive row.
        entry!("PUE calculation", [4], Descriptive, BuildingInfrastructure),
        entry!(
            "Facility data processing",
            [8, 58],
            Descriptive,
            BuildingInfrastructure
        ),
        entry!(
            "Facility-level dashboards",
            [1, 7],
            Descriptive,
            BuildingInfrastructure
        ),
        entry!("ITUE calculation", [59], Descriptive, SystemHardware),
        entry!(
            "System performance indicators",
            [14],
            Descriptive,
            SystemHardware
        ),
        entry!(
            "System-level dashboards",
            [7, 8],
            Descriptive,
            SystemHardware
        ),
        entry!("Slowdown calculation", [60], Descriptive, SystemSoftware),
        entry!(
            "Scheduler-level dashboards",
            [61, 62],
            Descriptive,
            SystemSoftware
        ),
        entry!("Job performance models", [63], Descriptive, Applications),
        entry!("Job data processing", [8], Descriptive, Applications),
        entry!(
            "Job-level dashboards",
            [5, 6, 10],
            Descriptive,
            Applications
        ),
    ]
}

/// Table I as a grid of entries.
pub fn table1() -> CapabilityGrid<Vec<SurveyEntry>> {
    let mut grid: CapabilityGrid<Vec<SurveyEntry>> = CapabilityGrid::new();
    for e in corpus() {
        grid.get_mut(e.cell).push(e);
    }
    grid
}

/// Renders Table I as Markdown, rows in the paper's order (prescriptive at
/// the top).
pub fn render_table1() -> String {
    let grid = table1();
    let mut out = String::new();
    out.push_str(
        "| | Building Infrastructure | System Hardware | System Software | Applications |\n",
    );
    out.push_str("|---|---|---|---|---|\n");
    for a in AnalyticsType::ALL.into_iter().rev() {
        out.push_str(&format!("| **{}** |", a.name()));
        for p in Pillar::ALL {
            let cell = grid.get(GridCell::new(a, p));
            let text = cell
                .iter()
                .map(|e| {
                    let refs = e
                        .citations
                        .iter()
                        .map(|c| format!("[{c}]"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!("{} {}", e.use_case, refs)
                })
                .collect::<Vec<_>>()
                .join("; ");
            out.push_str(&format!(" {text} |"));
        }
        out.push('\n');
    }
    out
}

/// Footprint of each cited work across the whole table: citations that
/// appear in several cells are the paper's "systems covering multiple
/// framework categories at the same time".
pub fn citation_footprints() -> BTreeMap<u16, GridFootprint> {
    let mut map: BTreeMap<u16, GridFootprint> = BTreeMap::new();
    for e in corpus() {
        for &c in e.citations {
            let f = map.entry(c).or_insert(GridFootprint::EMPTY);
            *f = f.with(e.cell);
        }
    }
    map
}

/// §V-B statistics: how many cited works stay within one pillar vs span
/// several.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PillarStats {
    /// Works confined to a single pillar.
    pub single_pillar: usize,
    /// Works spanning two or more pillars.
    pub multi_pillar: usize,
    /// Works combining two or more analytics types.
    pub multi_type: usize,
    /// Total distinct cited works.
    pub total: usize,
}

/// Computes the single- vs multi-pillar statistics over the corpus.
pub fn pillar_stats() -> PillarStats {
    let fps = citation_footprints();
    let total = fps.len();
    let multi_pillar = fps.values().filter(|f| f.is_multi_pillar()).count();
    let multi_type = fps.values().filter(|f| f.is_multi_type()).count();
    PillarStats {
        single_pillar: total - multi_pillar,
        multi_pillar,
        multi_type,
        total,
    }
}

/// Pairwise Jaccard similarity between two cited works' footprints —
/// the framework's "compare use cases in terms of similarity" operation.
pub fn citation_similarity(a: u16, b: u16) -> Option<f64> {
    let fps = citation_footprints();
    Some(fps.get(&a)?.jaccard(*fps.get(&b)?))
}

/// Per-cell entry counts (the density view: rich areas vs gaps).
pub fn cell_counts() -> CapabilityGrid<usize> {
    table1().map(|_, entries| entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_of_table1_is_populated() {
        let counts = cell_counts();
        for (cell, &n) in counts.iter() {
            assert!(n >= 2, "{cell} has only {n} entries");
        }
    }

    #[test]
    fn corpus_size_matches_paper_table() {
        // 45 printed use-case bullets in Table I.
        assert_eq!(corpus().len(), 45);
    }

    #[test]
    fn spot_check_placements_against_the_paper() {
        let grid = table1();
        // PUE calculation [4] sits in Descriptive × Building Infrastructure.
        let d_infra = grid.get(GridCell::new(
            AnalyticsType::Descriptive,
            Pillar::BuildingInfrastructure,
        ));
        assert!(d_infra
            .iter()
            .any(|e| e.use_case == "PUE calculation" && e.citations == [4]));
        // Plan-based scheduling [43] in Prescriptive × System Software.
        let r_sw = grid.get(GridCell::new(
            AnalyticsType::Prescriptive,
            Pillar::SystemSoftware,
        ));
        assert!(r_sw.iter().any(|e| e.use_case == "Plan-based scheduling"));
        // Application fingerprinting [33],[36] in Diagnostic × Applications.
        let g_app = grid.get(GridCell::new(
            AnalyticsType::Diagnostic,
            Pillar::Applications,
        ));
        assert!(g_app.iter().any(|e| e.citations == [33, 36]));
    }

    #[test]
    fn multi_cell_citations_exist_and_are_found() {
        let fps = citation_footprints();
        // [12] (Jiang et al.) appears in Prescriptive×Infra and
        // Prescriptive×HW — a multi-pillar system.
        assert!(fps[&12].is_multi_pillar());
        assert_eq!(fps[&12].count(), 2);
        // [11] (GEOPM) appears in Prescriptive×HW and Predictive×HW —
        // multi-type, single-pillar.
        assert!(fps[&11].is_multi_type());
        assert!(!fps[&11].is_multi_pillar());
        // [4] (PUE) is a single cell.
        assert_eq!(fps[&4].count(), 1);
    }

    #[test]
    fn single_pillar_systems_dominate_as_the_paper_observes() {
        let stats = pillar_stats();
        assert_eq!(stats.single_pillar + stats.multi_pillar, stats.total);
        assert!(
            stats.single_pillar > stats.multi_pillar * 3,
            "§V-B: most use cases are single-pillar ({stats:?})"
        );
        assert!(stats.total > 50, "distinct cited works: {}", stats.total);
    }

    #[test]
    fn similarity_queries() {
        // [12] vs itself.
        assert_eq!(citation_similarity(12, 12), Some(1.0));
        // [21], [22], [23] share the Prescriptive×SW cell; [23] also covers
        // Predictive×SW, so its similarity with [21] is 0.5.
        assert_eq!(citation_similarity(21, 22), Some(1.0));
        assert_eq!(citation_similarity(21, 23), Some(0.5));
        // Unknown citation.
        assert_eq!(citation_similarity(21, 999), None);
    }

    #[test]
    fn rendered_table_contains_all_rows_and_spot_entries() {
        let md = render_table1();
        assert!(md.contains("**Prescriptive**"));
        assert!(md.contains("**Descriptive**"));
        assert!(md.contains("PUE calculation [4]"));
        assert!(md.contains("Plan-based scheduling [43]"));
        assert!(md.contains("Job-level dashboards [5], [6], [10]"));
        assert_eq!(md.lines().count(), 6); // header + rule + 4 rows
    }
}
