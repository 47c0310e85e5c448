//! The 4×4 grid: cells, dense per-cell containers, and footprints.
//!
//! A [`GridCell`] is one of the sixteen classes the framework admits; a
//! [`GridFootprint`] is the set of cells an ODA system covers (the shaded
//! regions of the paper's Fig. 3); a [`CapabilityGrid`] stores one `T` per
//! cell for table-shaped data (Table I itself is a
//! `CapabilityGrid<Vec<SurveyEntry>>`).

use crate::analytics_type::AnalyticsType;
use crate::pillar::Pillar;
use serde::Serialize;
use std::fmt;

/// One cell of the framework: an (analytics type, pillar) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct GridCell {
    /// The row: what kind of question the analytics answers.
    pub analytics: AnalyticsType,
    /// The column: which data-center domain it concerns.
    pub pillar: Pillar,
}

impl GridCell {
    /// Creates a cell.
    pub const fn new(analytics: AnalyticsType, pillar: Pillar) -> Self {
        GridCell { analytics, pillar }
    }

    /// All sixteen cells, row-major (analytics type outer, pillar inner).
    pub fn all() -> impl Iterator<Item = GridCell> {
        AnalyticsType::ALL
            .into_iter()
            .flat_map(|a| Pillar::ALL.into_iter().map(move |p| GridCell::new(a, p)))
    }

    /// Dense index `0..16`, row-major.
    #[inline]
    pub const fn index(self) -> usize {
        self.analytics.index() * 4 + self.pillar.index()
    }

    /// Cell from a dense index.
    ///
    /// # Panics
    /// Panics if `i >= 16`.
    pub const fn from_index(i: usize) -> GridCell {
        GridCell {
            analytics: AnalyticsType::from_index(i / 4),
            pillar: Pillar::from_index(i % 4),
        }
    }
}

impl fmt::Display for GridCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} × {}", self.analytics, self.pillar)
    }
}

/// The set of cells an ODA system covers, as a 16-bit set.
///
/// ```
/// use oda_core::analytics_type::AnalyticsType;
/// use oda_core::grid::{GridCell, GridFootprint};
/// use oda_core::pillar::Pillar;
///
/// // GEOPM-style power management: predicts and tunes, hardware pillar.
/// let geopm = GridFootprint::from_cells(&[
///     GridCell::new(AnalyticsType::Predictive, Pillar::SystemHardware),
///     GridCell::new(AnalyticsType::Prescriptive, Pillar::SystemHardware),
/// ]);
/// assert!(geopm.is_multi_type());
/// assert!(!geopm.is_multi_pillar());
///
/// // Compare with the paper's Powerstack footprint (§V-B, Fig. 3):
/// let powerstack = oda_core::systems::powerstack().footprint();
/// assert!(geopm.jaccard(powerstack) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, Serialize)]
pub struct GridFootprint(pub u16);

impl GridFootprint {
    /// The empty footprint.
    pub const EMPTY: GridFootprint = GridFootprint(0);
    /// The full grid.
    pub const FULL: GridFootprint = GridFootprint(0xFFFF);

    /// Footprint of a single cell.
    pub const fn single(cell: GridCell) -> Self {
        GridFootprint(1 << cell.index())
    }

    /// Footprint from a list of cells.
    pub fn from_cells(cells: &[GridCell]) -> Self {
        cells.iter().fold(Self::EMPTY, |f, &c| f.with(c))
    }

    /// This footprint plus one cell.
    #[must_use]
    pub const fn with(self, cell: GridCell) -> Self {
        GridFootprint(self.0 | (1 << cell.index()))
    }

    /// Whether the footprint covers `cell`.
    pub const fn covers(self, cell: GridCell) -> bool {
        self.0 & (1 << cell.index()) != 0
    }

    /// Number of covered cells.
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Union.
    #[must_use]
    pub const fn union(self, other: Self) -> Self {
        GridFootprint(self.0 | other.0)
    }

    /// Intersection.
    #[must_use]
    pub const fn intersection(self, other: Self) -> Self {
        GridFootprint(self.0 & other.0)
    }

    /// Covered cells, in row-major order.
    pub fn cells(self) -> Vec<GridCell> {
        (0..16)
            .filter(|&i| self.0 & (1 << i) != 0)
            .map(GridCell::from_index)
            .collect()
    }

    /// Pillars touched by the footprint.
    pub fn pillars(self) -> Vec<Pillar> {
        Pillar::ALL
            .into_iter()
            .filter(|p| {
                AnalyticsType::ALL
                    .iter()
                    .any(|&a| self.covers(GridCell::new(a, *p)))
            })
            .collect()
    }

    /// Analytics types used by the footprint.
    pub fn types(self) -> Vec<AnalyticsType> {
        AnalyticsType::ALL
            .into_iter()
            .filter(|a| {
                Pillar::ALL
                    .iter()
                    .any(|&p| self.covers(GridCell::new(*a, p)))
            })
            .collect()
    }

    /// Whether the system crosses pillar boundaries (§V-B's multi-pillar
    /// class).
    pub fn is_multi_pillar(self) -> bool {
        self.pillars().len() > 1
    }

    /// Whether the system combines several analytics types (§V-A).
    pub fn is_multi_type(self) -> bool {
        self.types().len() > 1
    }

    /// Jaccard similarity with another footprint — the "compare use cases
    /// by their relative grid locations" operation of §I. Two empty
    /// footprints are fully similar.
    pub fn jaccard(self, other: Self) -> f64 {
        let union = self.union(other).count();
        if union == 0 {
            return 1.0;
        }
        self.intersection(other).count() as f64 / union as f64
    }

    /// Renders the footprint as a 4×4 check-mark grid (rows prescriptive →
    /// descriptive, matching Table I's orientation).
    pub fn render(self) -> String {
        let mut out = String::new();
        out.push_str("              Infra  HW     SW     Apps\n");
        for a in AnalyticsType::ALL.into_iter().rev() {
            out.push_str(&format!("{:<13}", a.name()));
            for p in Pillar::ALL {
                out.push_str(if self.covers(GridCell::new(a, p)) {
                    " [x]  "
                } else {
                    " [ ]  "
                });
            }
            out.push('\n');
        }
        out
    }
}

/// Dense per-cell storage: one `T` for each of the sixteen cells.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CapabilityGrid<T> {
    cells: Vec<T>,
}

impl<T: Default> Default for CapabilityGrid<T> {
    fn default() -> Self {
        CapabilityGrid {
            cells: (0..16).map(|_| T::default()).collect(),
        }
    }
}

impl<T: Default> CapabilityGrid<T> {
    /// Creates a grid of defaults.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T> CapabilityGrid<T> {
    /// Immutable cell access.
    pub fn get(&self, cell: GridCell) -> &T {
        &self.cells[cell.index()]
    }

    /// Mutable cell access.
    pub fn get_mut(&mut self, cell: GridCell) -> &mut T {
        &mut self.cells[cell.index()]
    }

    /// Iterates `(cell, value)` row-major.
    pub fn iter(&self) -> impl Iterator<Item = (GridCell, &T)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, v)| (GridCell::from_index(i), v))
    }

    /// Maps every cell's value.
    pub fn map<U>(&self, mut f: impl FnMut(GridCell, &T) -> U) -> CapabilityGrid<U> {
        CapabilityGrid {
            cells: self
                .cells
                .iter()
                .enumerate()
                .map(|(i, v)| f(GridCell::from_index(i), v))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_cells_with_unique_indices() {
        let cells: Vec<GridCell> = GridCell::all().collect();
        assert_eq!(cells.len(), 16);
        let mut idx: Vec<usize> = cells.iter().map(|c| c.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..16).collect::<Vec<_>>());
        for c in cells {
            assert_eq!(GridCell::from_index(c.index()), c);
        }
    }

    #[test]
    fn footprint_set_operations() {
        let a = GridFootprint::from_cells(&[
            GridCell::new(AnalyticsType::Descriptive, Pillar::SystemHardware),
            GridCell::new(AnalyticsType::Diagnostic, Pillar::SystemHardware),
        ]);
        let b = GridFootprint::single(GridCell::new(
            AnalyticsType::Diagnostic,
            Pillar::SystemHardware,
        ));
        assert_eq!(a.count(), 2);
        assert!(a.covers(GridCell::new(
            AnalyticsType::Diagnostic,
            Pillar::SystemHardware
        )));
        assert_eq!(a.intersection(b), b);
        assert_eq!(a.union(b), a);
        assert_eq!(a.jaccard(b), 0.5);
        assert_eq!(GridFootprint::EMPTY.jaccard(GridFootprint::EMPTY), 1.0);
        assert_eq!(GridFootprint::FULL.count(), 16);
    }

    #[test]
    fn footprint_pillar_and_type_views() {
        let f = GridFootprint::from_cells(&[
            GridCell::new(AnalyticsType::Diagnostic, Pillar::BuildingInfrastructure),
            GridCell::new(AnalyticsType::Prescriptive, Pillar::BuildingInfrastructure),
        ]);
        assert_eq!(f.pillars(), vec![Pillar::BuildingInfrastructure]);
        assert_eq!(
            f.types(),
            vec![AnalyticsType::Diagnostic, AnalyticsType::Prescriptive]
        );
        assert!(!f.is_multi_pillar());
        assert!(f.is_multi_type());
    }

    #[test]
    fn footprint_render_shape() {
        let f = GridFootprint::single(GridCell::new(
            AnalyticsType::Prescriptive,
            Pillar::Applications,
        ));
        let r = f.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("Prescriptive"));
        assert!(lines[1].contains("[x]"));
        assert!(lines[4].starts_with("Descriptive"));
        assert!(!lines[4].contains("[x]"));
    }

    #[test]
    fn grid_storage_round_trip() {
        let mut g: CapabilityGrid<Vec<u32>> = CapabilityGrid::new();
        let cell = GridCell::new(AnalyticsType::Predictive, Pillar::SystemSoftware);
        g.get_mut(cell).push(7);
        assert_eq!(g.get(cell), &vec![7]);
        assert_eq!(g.iter().count(), 16);
        let counts = g.map(|_, v| v.len());
        assert_eq!(*counts.get(cell), 1);
        let empty_cell = GridCell::new(AnalyticsType::Descriptive, Pillar::Applications);
        assert_eq!(*counts.get(empty_cell), 0);
    }
}
