//! The complex ODA systems of Fig. 3, as grid-mapped compositions.
//!
//! §V of the paper discusses three real systems whose grid footprints span
//! several cells; Fig. 3 shades those footprints. This module encodes each
//! system's components and cells so the figure can be regenerated, and —
//! because this reproduction also *implements* every cell — each system
//! can be instantiated as capabilities registered on a runnable
//! [`crate::runtime::OdaRuntime`] (see `oda-bench`'s `figure3` binary and
//! the examples).

use crate::analytics_type::AnalyticsType;
use crate::grid::{GridCell, GridFootprint};
use crate::pillar::Pillar;
use serde::Serialize;

/// One component of a complex ODA system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SystemComponent {
    /// What the component does.
    pub description: &'static str,
    /// Where it sits on the grid.
    pub cell: GridCell,
}

/// A complex ODA system mapped on the framework.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ComplexSystem {
    /// System name as used in the paper.
    pub name: &'static str,
    /// Source discussion in the paper.
    pub paper_section: &'static str,
    /// Its components.
    pub components: Vec<SystemComponent>,
}

impl ComplexSystem {
    /// The union footprint (the shaded region of Fig. 3).
    pub fn footprint(&self) -> GridFootprint {
        GridFootprint::from_cells(&self.components.iter().map(|c| c.cell).collect::<Vec<_>>())
    }

    /// Renders the system's Fig. 3 panel.
    pub fn render(&self) -> String {
        format!(
            "{} ({})\n{}\nComponents:\n{}",
            self.name,
            self.paper_section,
            self.footprint().render(),
            self.components
                .iter()
                .map(|c| format!("  - [{}] {}", c.cell, c.description))
                .collect::<Vec<_>>()
                .join("\n")
        )
    }
}

/// The ENI/Bortot et al. anomaly response system (§V-A): diagnostic
/// anomaly identification aided by stress testing, plus prescriptive
/// cooling setpoint optimization — both within Building Infrastructure.
pub fn eni_anomaly_response() -> ComplexSystem {
    ComplexSystem {
        name: "ENI anomaly detection & response (Bortot et al.)",
        paper_section: "§V-A",
        components: vec![
            SystemComponent {
                description: "Anomaly identification in infrastructure components, aided by periodic stress testing",
                cell: GridCell::new(AnalyticsType::Diagnostic, Pillar::BuildingInfrastructure),
            },
            SystemComponent {
                description: "Optimal cooling setpoint temperatures and cost-effective settings to reach them",
                cell: GridCell::new(AnalyticsType::Prescriptive, Pillar::BuildingInfrastructure),
            },
        ],
    }
}

/// The Powerstack effort (§V-B): cross-pillar prescriptive power
/// management informed by predictive techniques.
pub fn powerstack() -> ComplexSystem {
    ComplexSystem {
        name: "Powerstack (Wu et al.)",
        paper_section: "§V-B",
        components: vec![
            SystemComponent {
                description: "Intelligent prediction informing power management decisions",
                cell: GridCell::new(AnalyticsType::Predictive, Pillar::SystemHardware),
            },
            SystemComponent {
                description: "Hardware power-knob control (frequency, power caps)",
                cell: GridCell::new(AnalyticsType::Prescriptive, Pillar::SystemHardware),
            },
            SystemComponent {
                description: "Power-aware scheduling decisions",
                cell: GridCell::new(AnalyticsType::Prescriptive, Pillar::SystemSoftware),
            },
            SystemComponent {
                description: "Application-level auto-tuning under power objectives",
                cell: GridCell::new(AnalyticsType::Prescriptive, Pillar::Applications),
            },
        ],
    }
}

/// The LLNL utility-notification forecaster (§V-C): Fourier analysis of
/// historical power data predicting ±750 kW swings within 15-minute
/// windows.
pub fn llnl_power_forecaster() -> ComplexSystem {
    ComplexSystem {
        name: "LLNL power-fluctuation forecasting (Abdulla et al.)",
        paper_section: "§V-C",
        components: vec![
            SystemComponent {
                description: "Processing of historical site power monitoring data",
                cell: GridCell::new(AnalyticsType::Descriptive, Pillar::BuildingInfrastructure),
            },
            SystemComponent {
                description: "Fourier identification of power spike patterns",
                cell: GridCell::new(AnalyticsType::Diagnostic, Pillar::BuildingInfrastructure),
            },
            SystemComponent {
                description: "Forecasting power consumption to anticipate ±750 kW / 15 min utility notifications",
                cell: GridCell::new(AnalyticsType::Predictive, Pillar::BuildingInfrastructure),
            },
        ],
    }
}

/// All Fig. 3 systems.
pub fn figure3_systems() -> Vec<ComplexSystem> {
    vec![
        eni_anomaly_response(),
        powerstack(),
        llnl_power_forecaster(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eni_is_single_pillar_multi_type() {
        let s = eni_anomaly_response();
        let f = s.footprint();
        assert!(!f.is_multi_pillar(), "ENI stays in Building Infrastructure");
        assert!(f.is_multi_type());
        assert_eq!(f.count(), 2);
        assert_eq!(f.pillars(), vec![Pillar::BuildingInfrastructure]);
    }

    #[test]
    fn powerstack_is_multi_pillar() {
        let s = powerstack();
        let f = s.footprint();
        assert!(f.is_multi_pillar());
        assert_eq!(f.pillars().len(), 3);
        assert!(f.types().contains(&AnalyticsType::Predictive));
        assert!(f.types().contains(&AnalyticsType::Prescriptive));
    }

    #[test]
    fn llnl_climbs_the_staircase_within_one_pillar() {
        let s = llnl_power_forecaster();
        let f = s.footprint();
        assert_eq!(f.pillars(), vec![Pillar::BuildingInfrastructure]);
        assert_eq!(
            f.types(),
            vec![
                AnalyticsType::Descriptive,
                AnalyticsType::Diagnostic,
                AnalyticsType::Predictive
            ]
        );
        // Notably *not* prescriptive: LLNL notifies, it does not actuate.
        assert!(!f.types().contains(&AnalyticsType::Prescriptive));
    }

    #[test]
    fn renders_contain_name_and_grid() {
        for s in figure3_systems() {
            let r = s.render();
            assert!(r.contains(s.name));
            assert!(r.contains("[x]"));
            assert!(r.contains("Components:"));
        }
    }

    #[test]
    fn footprints_are_distinct() {
        let systems = figure3_systems();
        for i in 0..systems.len() {
            for j in i + 1..systems.len() {
                assert_ne!(
                    systems[i].footprint(),
                    systems[j].footprint(),
                    "{} vs {}",
                    systems[i].name,
                    systems[j].name
                );
            }
        }
    }
}
