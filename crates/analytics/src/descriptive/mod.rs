//! Descriptive analytics — *"what happened?"*.
//!
//! The paper defines this type as normalization, aggregation, outlier
//! removal and dimensionality reduction feeding visualizations and alerts,
//! with *no complex knowledge extraction*. These modules are the building
//! blocks of the descriptive capabilities' dashboards and KPIs and of the
//! diagnostic detectors' robust statistics.

pub mod dashboard;
pub mod kpi;
pub mod outlier;
pub mod stats;
