//! Deterministic chaos testing for the raven-guard reproduction.
//!
//! The crates below `raven-verify` prove the *happy path*: the detector
//! catches the paper's attacks, the campaigns reproduce Table IV and
//! Fig. 9. This crate attacks the reproduction itself, three ways:
//!
//! * [`harness`] — runs full guarded sessions under a seed-driven
//!   [`simbus::ChaosSchedule`]: packet reorder/duplication/corruption and
//!   loss bursts on the console link, stuck and bit-flipped encoders,
//!   dropped USB frames and transient board silence at the hardware layer.
//!   Every fault is virtual-time-scheduled from the run's root seed, so a
//!   chaos run replays byte-identically.
//! * [`oracles`] — cross-cutting safety invariants asserted over a
//!   completed run: bounded end-effector motion while mitigation is
//!   active, E-STOP latched within the paper's one-cycle lookahead of an
//!   unsafe verdict, verdict/bookkeeping consistency, chaos-fault
//!   attribution, tamper-evident forensic export (`raven-ledger`
//!   chain verification plus four-way tamper diagnosis), and
//!   byte-identical replay.
//! * [`probes`] — white-box conformance checks that drive a
//!   [`raven_detect::DynamicDetector`] and [`raven_detect::GuardInterceptor`]
//!   directly with crafted thresholds, pinning down each decision the
//!   detector makes (fusion rule, end-effector limit, block path, hold
//!   semantics, alarm bookkeeping).
//!
//! The oracle suite's teeth are proven by the **mutation kill-suite**
//! (`tests/mutation_kill.rs`): `raven-detect` compiled with the
//! `mutant-hooks` feature can install any [`raven_detect::DetectorMutation`]
//! — a registry of deliberately-seeded defects — and every mutant must fail
//! at least one oracle or probe, while the unmutated build passes all of
//! them over the whole chaos matrix (`tests/chaos_matrix.rs`). Each
//! detector decision is written once, so the unmutated build runs the
//! production code itself, not a copy of it.

#![forbid(unsafe_code)]

pub mod harness;
pub mod oracles;
pub mod probes;

pub use harness::{
    run_chaos_session, run_mutated_chaos_session, suite_thresholds, ChaosRunReport, VerifySpec,
};
pub use oracles::{
    fleet_isolation, run_ledger, run_oracles, Expectations, OracleReport, OracleVerdict,
};
pub use probes::{all_probes, ProbeResult};
