//! The sweep machinery every Monte-Carlo experiment runs on: the parallel
//! [`executor`] and its optional lifecycle [`trace`].

pub mod executor;
pub mod trace;

pub use executor::{
    run_sweep, run_sweep_observed, ExecutorConfig, RunError, SweepResult, SweepStats,
};
pub use trace::{RunLifecycle, SegmentUtilization, SweepSegment, SweepTraceCollector};
