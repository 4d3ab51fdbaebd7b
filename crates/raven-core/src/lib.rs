//! Facade of the raven-guard reproduction: the assembled full-system
//! simulation (paper Fig. 7(a)) and the experiment runners that regenerate
//! every table and figure of the DSN 2016 paper's evaluation.
//!
//! * [`sim`] — [`Simulation`]: console → ITP/UDP → control software →
//!   interceptor chain (malware + dynamic-model guard) → USB board →
//!   PLC/motors → plant → encoders, on a deterministic 1 ms virtual clock;
//! * [`scenario`] — [`AttackSetup`]: the attacks a run can install;
//! * [`training`] — the fault-free threshold-learning protocol (§IV.C);
//! * [`experiments`] — one module per paper artifact: Table I, Table II,
//!   Table IV, Figures 5, 6, 8, 9;
//! * [`forensics`] — the tamper-evident incident sink: seq-suffixed
//!   incident files pinned by a hash-chained ledger (`raven-ledger`).

#![forbid(unsafe_code)]

pub mod campaign;
pub mod dual;
pub mod experiments;
pub mod forensics;
pub mod scenario;
pub mod sim;
pub mod training;
pub mod viz;

pub use campaign::executor::{
    parse_workers, run_sweep, run_sweep_observed, ExecutorConfig, RunError, SweepResult,
    SweepStats, WORKERS_ENV,
};
pub use campaign::trace::{RunLifecycle, SegmentUtilization, SweepSegment, SweepTraceCollector};
pub use campaign::{run_campaign_with, CampaignResult, CampaignRun, CampaignSummary};
pub use dual::{Arm, DualArmSession, DualOutcome};
pub use forensics::{
    incident_file_name, manifest_candidates, AppendReceipt, IncidentSink, MANIFEST_REL_PATH,
};
pub use scenario::AttackSetup;
pub use sim::{DetectorSetup, IncidentReport, SessionOutcome, SimConfig, Simulation, Workload};
