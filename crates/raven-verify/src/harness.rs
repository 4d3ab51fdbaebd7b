//! Chaos-session harness: full guarded simulations under a seeded
//! [`ChaosConfig`], reported in a serializable, byte-comparable form.
//!
//! [`run_chaos_session`] assembles the same full-system loop the
//! campaigns use (console → ITP → controller → guard → board → PLC →
//! plant), arms the detector with pre-learned thresholds, installs an
//! optional attack and an optional chaos schedule, and captures
//! *everything* the oracles need: the session outcome, the whole event
//! log, the metrics registry, the incident report, and the full signal
//! trace. Two runs of the same spec must serialize byte-identically —
//! that is itself one of the oracles (`oracles::replay_determinism`).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use raven_core::training::{train_thresholds_with, TrainingConfig};
use raven_core::{
    AttackSetup, DetectorSetup, ExecutorConfig, IncidentReport, SessionOutcome, SimConfig,
    Simulation, Workload,
};
use raven_detect::{DetectionThresholds, DetectorConfig, DetectorMutation, Mitigation};
use serde::Serialize;
use simbus::obs::{Event, FieldValue, Metrics};
use simbus::trace::Sample;
use simbus::{ChaosConfig, SimTime};

/// The paper's standard "hot" torque injection (Scenario B, 30 000 DAC
/// counts on the shoulder channel) used by the kill scenarios.
fn hot_attack() -> AttackSetup {
    AttackSetup::ScenarioB {
        dac_delta: 30_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    }
}

/// One chaos-verification run specification.
#[derive(Debug, Clone, Serialize)]
pub struct VerifySpec {
    /// Scenario name (used in reports and artifact file names).
    pub name: &'static str,
    /// Root seed (drives the workload, the link, the attack *and* the
    /// chaos schedule, all through independent derived streams).
    pub seed: u64,
    /// Pedal-down teleoperation span (ms).
    pub session_ms: u64,
    /// Console workload.
    pub workload: Workload,
    /// Attack installed before boot.
    pub attack: AttackSetup,
    /// Detector mitigation policy.
    pub mitigation: Mitigation,
    /// Chaos fault-injection configuration (off ⇒ nothing is scheduled
    /// and no RNG stream is consumed).
    pub chaos: ChaosConfig,
}

impl VerifySpec {
    /// A clean guarded session: no attack, E-STOP mitigation, chaos off.
    pub fn clean(seed: u64) -> Self {
        VerifySpec {
            name: "clean",
            seed,
            session_ms: 4_000,
            workload: Workload::Circle,
            attack: AttackSetup::None,
            mitigation: Mitigation::EStop,
            chaos: ChaosConfig::off(),
        }
    }

    /// The hot Scenario-B injection under E-STOP mitigation.
    pub fn estop_attack(seed: u64) -> Self {
        VerifySpec { name: "estop-attack", attack: hot_attack(), ..VerifySpec::clean(seed) }
    }

    /// The hot Scenario-B injection under block-and-hold mitigation.
    pub fn hold_attack(seed: u64) -> Self {
        VerifySpec {
            name: "hold-attack",
            attack: hot_attack(),
            mitigation: Mitigation::BlockAndHold,
            ..VerifySpec::clean(seed)
        }
    }

    /// The hot Scenario-B injection in shadow (observe-only) mode.
    pub fn observe_attack(seed: u64) -> Self {
        VerifySpec {
            name: "observe-attack",
            attack: hot_attack(),
            mitigation: Mitigation::Observe,
            ..VerifySpec::clean(seed)
        }
    }

    /// Replaces the chaos configuration (builder style).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Replaces the session length (builder style).
    #[must_use]
    pub fn with_session_ms(mut self, session_ms: u64) -> Self {
        self.session_ms = session_ms;
        self
    }
}

/// Everything one chaos run produced — the oracles' evidence record.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRunReport {
    /// Spec name.
    pub name: String,
    /// Root seed.
    pub seed: u64,
    /// Mitigation policy the detector ran with.
    pub mitigation: Mitigation,
    /// Faults the chaos schedule planned (0 when chaos is off).
    pub chaos_scheduled: usize,
    /// Whether boot reached Pedal Up.
    pub booted: bool,
    /// Session ground truth.
    pub outcome: SessionOutcome,
    /// The full event ring at session end, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring (oracles require 0 to reason soundly).
    pub events_dropped: u64,
    /// The metrics registry at session end.
    pub metrics: Metrics,
    /// The flight recorder's dump, if it tripped.
    pub incident: Option<IncidentReport>,
    /// Every recorded trace signal over the whole run (1 ms samples).
    pub signals: BTreeMap<String, Vec<Sample>>,
}

impl ChaosRunReport {
    /// Serializes the whole report (the byte-compare replay artifact).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (all field types are serializable,
    /// so this indicates a bug).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Events of one kind, oldest first.
    pub fn events_of(&self, kind: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// The first event of one kind, if any.
    pub fn first_event(&self, kind: &str) -> Option<&Event> {
        self.events.iter().find(|e| e.kind == kind)
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }
}

/// Reads an event field as `u64`, if present.
pub fn field_u64(event: &Event, key: &str) -> Option<u64> {
    match event.field(key)? {
        FieldValue::U64(v) => Some(*v),
        FieldValue::I64(v) => u64::try_from(*v).ok(),
        _ => None,
    }
}

/// Reads an event field as `f64`, if present.
pub fn field_f64(event: &Event, key: &str) -> Option<f64> {
    match event.field(key)? {
        FieldValue::F64(v) => Some(*v),
        FieldValue::U64(v) => Some(*v as f64),
        FieldValue::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// Reads an event field as `bool`, if present.
pub fn field_bool(event: &Event, key: &str) -> Option<bool> {
    match event.field(key)? {
        FieldValue::Bool(v) => Some(*v),
        _ => None,
    }
}

/// Reads an event field as a string, if present.
pub fn field_str<'e>(event: &'e Event, key: &str) -> Option<&'e str> {
    match event.field(key)? {
        FieldValue::Str(v) => Some(v.as_str()),
        _ => None,
    }
}

/// Runs one guarded chaos session with the production detector.
pub fn run_chaos_session(spec: &VerifySpec, thresholds: DetectionThresholds) -> ChaosRunReport {
    run_mutated_chaos_session(spec, thresholds, None)
}

/// Runs one guarded chaos session with an optional kill-suite mutant
/// installed in the detector (`None` ⇒ production behavior, byte-identical
/// to [`run_chaos_session`]).
pub fn run_mutated_chaos_session(
    spec: &VerifySpec,
    thresholds: DetectionThresholds,
    mutation: Option<DetectorMutation>,
) -> ChaosRunReport {
    let config = SimConfig {
        seed: spec.seed,
        workload: spec.workload,
        session_ms: spec.session_ms,
        detector: Some(DetectorSetup {
            config: DetectorConfig { mitigation: spec.mitigation, ..DetectorConfig::default() },
            model_perturbation: 0.02,
            thresholds: Some(thresholds),
        }),
        record_cycles: true,
        // The counting oracles (verdict monotonicity, chaos attribution)
        // are only sound when nothing is evicted from the event ring, and
        // block-and-hold sessions emit one attack-injection event per
        // substituted cycle — far past the campaign default of 1024.
        event_capacity: 16_384,
        ..SimConfig::standard(spec.seed)
    };
    let mut sim = Simulation::new(config);
    if spec.attack.is_attack() {
        sim.install_attack(&spec.attack);
    }
    let chaos_scheduled = if spec.chaos.is_off() { 0 } else { sim.install_chaos(&spec.chaos) };
    if let Some(m) = mutation {
        if let Some(det) = sim.detector() {
            det.lock().set_mutation(Some(m));
        }
    }
    let booted = sim.boot_expecting_failure();
    let outcome = sim.run_session();
    let (events, events_dropped) = {
        let obs = sim.observer().lock();
        (obs.events.snapshot(), obs.events.dropped())
    };
    ChaosRunReport {
        name: spec.name.to_string(),
        seed: spec.seed,
        mitigation: spec.mitigation,
        chaos_scheduled,
        booted,
        outcome,
        events,
        events_dropped,
        metrics: sim.metrics(),
        incident: sim.incident().cloned(),
        signals: sim.trace().window_from(SimTime::ZERO),
    }
}

/// Thresholds shared by a whole verification suite, trained once per
/// process with the reduced fault-free protocol (fixed seed, so every
/// suite in every binary arms the detector identically).
///
/// The reduced protocol (8 runs instead of the paper's 60) leaves the
/// extreme percentiles noisy, so the learned thresholds get a 25 %
/// safety margin: enough to keep multi-second clean sessions silent,
/// while the hot-injection features the kill scenarios rely on sit
/// orders of magnitude above either value.
pub fn suite_thresholds() -> DetectionThresholds {
    static THRESHOLDS: OnceLock<DetectionThresholds> = OnceLock::new();
    *THRESHOLDS.get_or_init(|| {
        train_thresholds_with(
            &TrainingConfig { runs: 8, ..TrainingConfig::quick(7) },
            &ExecutorConfig::default(),
        )
        .thresholds
        .scaled(1.25)
    })
}
