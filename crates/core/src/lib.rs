#![warn(missing_docs)]

//! # oda-core — the conceptual framework for HPC Operational Data
//! Analytics, made executable
//!
//! This crate implements the contribution of *"A Conceptual Framework for
//! HPC Operational Data Analytics"* (Netti, Shin, Ott, Wilde, Bates —
//! IEEE CLUSTER 2021): a two-dimensional classification of ODA obtained by
//! crossing
//!
//! * the **four pillars** of energy-efficient HPC data centers
//!   ([`pillar::Pillar`]) — Building Infrastructure, System Hardware,
//!   System Software, Applications — with
//! * the **four types** of data analytics
//!   ([`analytics_type::AnalyticsType`]) — Descriptive, Diagnostic,
//!   Predictive, Prescriptive,
//!
//! yielding the 4×4 grid of [`grid::GridCell`]s that the paper's Table I
//! populates with surveyed use cases.
//!
//! Where the paper *classifies* systems, this crate also *runs* them:
//!
//! * [`capability::Capability`] is the unit of ODA — a component with a
//!   grid footprint that consumes telemetry and produces typed artifacts
//!   (reports, KPIs, diagnoses, forecasts, prescriptions);
//! * [`grid::Coverage`] computes the coverage/gap analysis the paper
//!   performs on the ODA landscape, over any set of footprints;
//! * [`runtime::OdaRuntime`] owns the registered capabilities and runs
//!   them along the hindsight→foresight staircase of Fig. 2, so
//!   diagnostic stages see descriptive output, prescriptive stages see
//!   forecasts, and the reactive/proactive distinction of §V-A becomes
//!   executable; its passes apply the automatable prescriptions through a
//!   [`runtime::ControlPlane`];
//! * [`cells`] provides a working reference capability for **each of the
//!   sixteen cells**, built from `oda-analytics` algorithms over an
//!   `oda-sim` data center;
//! * [`survey`] encodes the paper's Table I corpus and regenerates the
//!   table, plus the single- vs multi-pillar statistics of §V-B;
//! * [`systems`] composes the complex multi-cell systems of Fig. 3
//!   (the ENI anomaly-response system, Powerstack, and the LLNL
//!   power-fluctuation forecaster).

#![forbid(unsafe_code)]

pub mod analytics_type;
pub mod capability;
pub mod cells;
pub mod grid;
pub mod pillar;
pub mod pipeline;
pub mod runtime;
pub mod survey;
pub mod systems;

/// Re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::analytics_type::AnalyticsType;
    pub use crate::capability::{Artifact, Capability, CapabilityContext};
    pub use crate::grid::{CapabilityGrid, Coverage, GridCell, GridFootprint};
    pub use crate::pillar::Pillar;
    pub use crate::runtime::{ControlPlane, OdaRuntime, RuntimeConfig, SimControlPlane};
}
