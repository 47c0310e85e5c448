//! The four pillars of energy-efficient HPC data centers (Wilde, Auweter &
//! Shoukourian, 2014) — the columns of the ODA framework and Fig. 1 of the
//! paper.

use serde::Serialize;
use std::fmt;

/// A data-center domain ("pillar").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Pillar {
    /// Every support infrastructure (cooling, power distribution) needed to
    /// run the HPC systems and the data center as a whole.
    BuildingInfrastructure,
    /// The hardware components of an HPC system: boards, CPUs/GPUs, memory,
    /// system-internal cooling, network equipment.
    SystemHardware,
    /// The system-level software stack: management software, resource
    /// manager and scheduler, node OS, tools and libraries.
    SystemSoftware,
    /// Individual workloads and the workload mix — the unit of work an HPC
    /// system exists to execute.
    Applications,
}

impl Pillar {
    /// All pillars, in the paper's column order.
    pub const ALL: [Pillar; 4] = [
        Pillar::BuildingInfrastructure,
        Pillar::SystemHardware,
        Pillar::SystemSoftware,
        Pillar::Applications,
    ];

    /// Dense index `0..4`, matching [`Self::ALL`] order.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Pillar::BuildingInfrastructure => 0,
            Pillar::SystemHardware => 1,
            Pillar::SystemSoftware => 2,
            Pillar::Applications => 3,
        }
    }

    /// Pillar from a dense index.
    ///
    /// # Panics
    /// Panics if `i >= 4`.
    pub const fn from_index(i: usize) -> Pillar {
        Self::ALL[i]
    }

    /// Short display name, as used in the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            Pillar::BuildingInfrastructure => "Building Infrastructure",
            Pillar::SystemHardware => "System Hardware",
            Pillar::SystemSoftware => "System Software",
            Pillar::Applications => "Applications",
        }
    }

    /// The telemetry domain prefix this pillar's sensors live under in the
    /// workspace convention (`/facility/...`, `/hw/...`, ...).
    pub const fn telemetry_domain(self) -> &'static str {
        match self {
            Pillar::BuildingInfrastructure => "facility",
            Pillar::SystemHardware => "hw",
            Pillar::SystemSoftware => "sw",
            Pillar::Applications => "app",
        }
    }

    /// One-sentence definition from §III-A of the paper.
    pub const fn definition(self) -> &'static str {
        match self {
            Pillar::BuildingInfrastructure => {
                "Support infrastructure (cooling, power distribution) needed to run the HPC systems and the data center as a whole."
            }
            Pillar::SystemHardware => {
                "Hardware components of an HPC system: motherboards and firmware, CPUs, GPUs, memory, system-internal cooling, network equipment."
            }
            Pillar::SystemSoftware => {
                "System-level software stack: management software, resource manager and scheduler, compute-node OS, tools and libraries."
            }
            Pillar::Applications => {
                "Individual workloads and the workload mix executed on a system — the unit of work delivering scientific insight."
            }
        }
    }

    /// Whether this pillar is primarily under the control of system
    /// administrators (`true`) or users (`false`) — §IV-D notes that the
    /// Applications pillar is the only one partly in users' hands.
    pub const fn admin_controlled(self) -> bool {
        !matches!(self, Pillar::Applications)
    }
}

impl fmt::Display for Pillar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for (i, p) in Pillar::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Pillar::from_index(i), *p);
        }
    }

    #[test]
    fn telemetry_domains_are_distinct() {
        let mut domains: Vec<&str> = Pillar::ALL.iter().map(|p| p.telemetry_domain()).collect();
        domains.sort_unstable();
        domains.dedup();
        assert_eq!(domains.len(), 4);
    }

    #[test]
    fn only_applications_is_user_controlled() {
        assert!(Pillar::BuildingInfrastructure.admin_controlled());
        assert!(Pillar::SystemHardware.admin_controlled());
        assert!(Pillar::SystemSoftware.admin_controlled());
        assert!(!Pillar::Applications.admin_controlled());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(
            Pillar::BuildingInfrastructure.to_string(),
            "Building Infrastructure"
        );
        assert_eq!(Pillar::Applications.to_string(), "Applications");
    }
}
