#![warn(missing_docs)]

//! # oda-analytics — the four types of data analytics, from scratch
//!
//! The paper's second axis (after the four HPC pillars) is the staged
//! "Four Types of Data Analytics" model. This crate holds the algorithms the
//! sixteen capabilities in `oda-core` and the experiments in `oda-bench`
//! call, grouped by type, and nothing else:
//!
//! * [`descriptive`] — *"what happened?"*: streaming and batch statistics,
//!   the MAD outlier rule, KPIs (PUE, ITUE, bounded slowdown, System
//!   Information Entropy) and text dashboards.
//! * [`diagnostic`] — *"why did it happen?"*: nearest-centroid application
//!   fingerprinting and correlation-wise-smoothing feature extraction.
//! * [`predictive`] — *"what will happen?"*: EWMA / Holt / Holt–Winters
//!   forecasters, AR(p) models, per-user / k-NN job-duration prediction,
//!   and the FFT and harmonic regression behind the LLNL power-fluctuation
//!   use case.
//! * [`prescriptive`] — *"what should we do?"*: golden-section setpoint
//!   search, reactive/proactive DVFS governors, a cooling-mode switcher,
//!   coordinate-descent auto-tuning and a rule-based recommendation engine.
//!
//! Everything is implemented with the standard library plus the workspace's
//! small approved dependency set — no external ML or linear-algebra crates —
//! so the algorithms double as readable reference implementations.
//!
//! The crate is deliberately independent of the simulator and of
//! `oda-telemetry`: every algorithm operates on plain slices or feature
//! vectors, so it can be applied to any telemetry source.

#![forbid(unsafe_code)]

pub mod descriptive;
pub mod diagnostic;
pub mod predictive;
pub mod prescriptive;
pub(crate) mod util;
