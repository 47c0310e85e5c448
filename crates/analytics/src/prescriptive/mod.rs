//! Prescriptive analytics — *"what should we do?"*.
//!
//! Models that convert system state (and, in proactive mode, predictions)
//! into knob settings: a golden-section setpoint search, DVFS governors,
//! cooling-mode economics, application auto-tuning and an operator
//! recommendation engine.

pub mod autotune;
pub mod cooling_mode;
pub mod dvfs;
pub mod recommend;
pub mod setpoint;
