//! Capability registry: index, coverage, and gap analysis.
//!
//! The paper argues the framework "shows areas that are rich, as well as
//! gaps in the ODA landscape that need to be explored". The registry makes
//! that query executable for a deployment: register capabilities, then ask
//! which cells are covered, where the gaps are, and which capabilities
//! serve a given pillar or analytics type.

use crate::analytics_type::AnalyticsType;
use crate::capability::Capability;
use crate::grid::{CapabilityGrid, GridCell, GridFootprint};
use crate::pillar::Pillar;

/// A registry of runnable capabilities.
#[derive(Default)]
pub struct CapabilityRegistry {
    capabilities: Vec<Box<dyn Capability>>,
}

/// Coverage summary over the sixteen cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    /// Number of capabilities touching each cell.
    pub per_cell: CapabilityGrid<usize>,
    /// Cells no capability covers — the gaps.
    pub gaps: Vec<GridCell>,
    /// Union footprint of all capabilities.
    pub union: GridFootprint,
}

impl CapabilityRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a capability.
    pub fn register(&mut self, capability: Box<dyn Capability>) {
        self.capabilities.push(capability);
    }

    /// Number of registered capabilities.
    pub fn len(&self) -> usize {
        self.capabilities.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.capabilities.is_empty()
    }

    /// Names of capabilities covering `cell`.
    pub fn in_cell(&self, cell: GridCell) -> Vec<&str> {
        self.capabilities
            .iter()
            .filter(|c| c.footprint().covers(cell))
            .map(|c| c.name())
            .collect()
    }

    /// Names of capabilities touching `pillar` (any type).
    pub fn in_pillar(&self, pillar: Pillar) -> Vec<&str> {
        self.capabilities
            .iter()
            .filter(|c| c.footprint().pillars().contains(&pillar))
            .map(|c| c.name())
            .collect()
    }

    /// Names of capabilities of a given analytics type (any pillar).
    pub fn of_type(&self, analytics: AnalyticsType) -> Vec<&str> {
        self.capabilities
            .iter()
            .filter(|c| c.footprint().types().contains(&analytics))
            .map(|c| c.name())
            .collect()
    }

    /// Computes the coverage/gap analysis.
    pub fn coverage(&self) -> Coverage {
        let mut per_cell: CapabilityGrid<usize> = CapabilityGrid::new();
        let mut union = GridFootprint::EMPTY;
        for c in &self.capabilities {
            let f = c.footprint();
            union = union.union(f);
            for cell in f.cells() {
                *per_cell.get_mut(cell) += 1;
            }
        }
        let gaps = GridCell::all().filter(|c| !union.covers(*c)).collect();
        Coverage {
            per_cell,
            gaps,
            union,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::{Artifact, CapabilityContext};

    struct Fixed {
        name: &'static str,
        footprint: GridFootprint,
    }

    impl Capability for Fixed {
        fn name(&self) -> &str {
            self.name
        }
        fn description(&self) -> &str {
            "fixture"
        }
        fn footprint(&self) -> GridFootprint {
            self.footprint
        }
        fn execute(&mut self, _ctx: &CapabilityContext) -> Vec<Artifact> {
            Vec::new()
        }
    }

    fn cell(a: AnalyticsType, p: Pillar) -> GridCell {
        GridCell::new(a, p)
    }

    fn registry() -> CapabilityRegistry {
        let mut r = CapabilityRegistry::new();
        r.register(Box::new(Fixed {
            name: "pue-dash",
            footprint: GridFootprint::single(cell(
                AnalyticsType::Descriptive,
                Pillar::BuildingInfrastructure,
            )),
        }));
        r.register(Box::new(Fixed {
            name: "node-anomaly",
            footprint: GridFootprint::single(cell(
                AnalyticsType::Diagnostic,
                Pillar::SystemHardware,
            )),
        }));
        r.register(Box::new(Fixed {
            name: "powerstack-like",
            footprint: GridFootprint::from_cells(&[
                cell(AnalyticsType::Predictive, Pillar::SystemHardware),
                cell(AnalyticsType::Prescriptive, Pillar::SystemSoftware),
            ]),
        }));
        r
    }

    #[test]
    fn lookup_by_cell_pillar_type() {
        let r = registry();
        assert_eq!(
            r.in_cell(cell(AnalyticsType::Diagnostic, Pillar::SystemHardware)),
            vec!["node-anomaly"]
        );
        assert_eq!(
            r.in_pillar(Pillar::SystemHardware),
            vec!["node-anomaly", "powerstack-like"]
        );
        assert_eq!(
            r.of_type(AnalyticsType::Prescriptive),
            vec!["powerstack-like"]
        );
        assert!(r
            .in_cell(cell(AnalyticsType::Prescriptive, Pillar::Applications))
            .is_empty());
    }

    #[test]
    fn coverage_counts_and_gaps() {
        let cov = registry().coverage();
        assert_eq!(cov.union.count(), 4);
        assert_eq!(cov.gaps.len(), 12);
        assert_eq!(
            *cov.per_cell.get(cell(
                AnalyticsType::Descriptive,
                Pillar::BuildingInfrastructure
            )),
            1
        );
        assert!(!cov
            .gaps
            .contains(&cell(AnalyticsType::Predictive, Pillar::SystemHardware)));
    }

    #[test]
    fn empty_registry_has_sixteen_gaps() {
        let cov = CapabilityRegistry::new().coverage();
        assert_eq!(cov.gaps.len(), 16);
        assert_eq!(cov.union, GridFootprint::EMPTY);
    }
}
