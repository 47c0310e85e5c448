#![warn(missing_docs)]

//! # oda-sim — a simulated HPC data center
//!
//! The paper's framework assumes an operating HPC site: a building with
//! cooling and power distribution (*Building Infrastructure*), compute
//! hardware (*System Hardware*), a resource manager (*System Software*) and a
//! workload of user jobs (*Applications*). A reproduction cannot ship a
//! data center, so this crate provides a physics-flavoured discrete-time
//! simulation of one — the substitute substrate documented in `DESIGN.md`.
//!
//! The simulation is organised exactly along the paper's four pillars:
//!
//! * [`facility`] — outside weather, cooling loop (free cooling vs chiller),
//!   power distribution losses. Exposes the *inlet temperature* and
//!   *cooling mode* knobs that prescriptive infrastructure ODA tunes.
//! * [`hardware`] — racks of nodes with utilization→power→temperature
//!   models, per-node DVFS frequency and fan-speed knobs, and a two-level
//!   tree network with link contention.
//! * [`scheduler`] — FCFS + EASY-backfill job scheduler with pluggable
//!   placement policies (the prescriptive system-software knob).
//! * [`workload`] — synthetic job classes (compute-, memory-, I/O-bound,
//!   balanced, plus a cryptominer signature for fingerprinting experiments)
//!   and stochastic arrival processes.
//!
//! [`faults`] schedules anomalies on one seeded timeline per site: plant
//! faults in any pillar — the ground truth against which diagnostic ODA is
//! evaluated — and monitoring-path faults that degrade only what the
//! telemetry shows. [`datacenter::DataCenter`] ties the
//! pieces together and publishes every modelled quantity to an
//! [`oda_telemetry::bus::TelemetryBus`] each sampling tick, so analytics
//! code observes the simulated site exactly as it would observe a real one:
//! through sensor streams.
//!
//! Determinism: every stochastic element draws from one seeded PRNG, so a
//! `(config, seed)` pair fully determines a run — experiments are exactly
//! reproducible.
//!
//! ```
//! use oda_sim::prelude::*;
//!
//! let mut dc = DataCenter::builder(DataCenterConfig::small()).seed(42).build();
//! dc.run_for_hours(1.0);
//! let snap = dc.snapshot();
//! assert!(snap.total_power_kw > 0.0);
//! assert!(snap.pue >= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod datacenter;
pub mod engine;
pub mod facility;
pub mod faults;
pub mod hardware;
pub mod scheduler;
pub mod swf;
pub mod workload;

/// Re-exports of the types most consumers need.
pub mod prelude {
    pub use crate::datacenter::{DataCenter, DataCenterBuilder, DataCenterConfig, Snapshot};
    pub use crate::engine::SimClock;
    pub use crate::facility::cooling::CoolingMode;
    pub use crate::faults::{Fault, FaultKind, FaultTimeline};
    pub use crate::hardware::node::NodeId;
    pub use crate::scheduler::job::{Job, JobClass, JobId, JobState};
    pub use crate::scheduler::placement::PlacementPolicy;
    pub use crate::workload::WorkloadConfig;
}
