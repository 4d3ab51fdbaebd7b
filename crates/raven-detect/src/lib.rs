//! Dynamic model-based detection and mitigation — the primary contribution
//! of *"Targeted Attacks on Teleoperated Surgical Robots"* (DSN 2016, §IV).
//!
//! The defense runs the robot's dynamic model one control step ahead of the
//! physical system: every DAC command is vetted against the *predicted
//! consequence* of executing it, not against fixed thresholds on the command
//! value — the semantic gap the paper identifies in RAVEN's stock safety
//! checks (§IV.B).
//!
//! * [`features`] — the instant velocity/acceleration statistics per
//!   positioning axis, plus the predicted end-effector step;
//! * [`thresholds`] — percentile threshold learning over fault-free runs
//!   (99.8–99.9th percentile, §IV.C) and the three-way alarm fusion rule;
//! * [`detector`] — [`DynamicDetector`] (model tracking + assessment) and
//!   [`GuardInterceptor`] (the write-path guard), with the two mitigation
//!   policies of §IV.C: block-and-hold and E-STOP.
//!
//! The RAVEN *baseline* detector of Table IV is the stock software safety
//! layer in `raven-control::safety` plus the PLC watchdog in
//! `raven-hw::plc`; the experiment runners in `raven-core` score both
//! against the same ground truth.

#![forbid(unsafe_code)]

pub mod batch;
pub mod detector;
pub mod features;
pub mod mutants;
pub mod thresholds;

pub use batch::BatchDetector;
pub use detector::{
    shared, Assessment, DetectorConfig, DetectorMode, DynamicDetector, FusionRule,
    GuardInterceptor, Mitigation, NoFaultFreeSamples, SharedDetector,
};
pub use features::InstantFeatures;
pub use mutants::DetectorMutation;
pub use thresholds::{DetectionThresholds, ThresholdLearner};
