//! Diagnostic analytics — *"why did it happen?"*.
//!
//! The paper defines this type as systematic extraction of non-obvious
//! insight from multi-dimensional monitoring data: anomaly detection, root
//! cause analysis, fingerprinting. The detectors themselves are capabilities
//! in `oda-core` built on the robust statistics of
//! [`descriptive`](crate::descriptive); this module holds the two
//! techniques with state of their own: application fingerprinting and
//! correlation-wise smoothing (the E9 ablation).

pub mod fingerprint;
pub mod smoothing;
