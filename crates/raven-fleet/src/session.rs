//! Fleet session specifications and per-session artifacts.
//!
//! A [`SessionSpec`] is everything needed to reconstruct one
//! teleoperation session deterministically: the full
//! [`SimConfig`] plus the attack and chaos schedules installed before
//! boot. [`run_standalone`] executes a spec through the plain
//! `Simulation::run_session` loop — the scalar reference the fleet
//! engine's output is byte-compared against.

use std::sync::OnceLock;

use raven_core::training::{train_thresholds_with, TrainingConfig};
use raven_core::{
    AttackSetup, DetectorSetup, ExecutorConfig, IncidentReport, SessionOutcome, SimConfig,
    Simulation,
};
use raven_detect::{DetectionThresholds, DetectorConfig, Mitigation};
use serde::Serialize;
use simbus::obs::{Event, Metrics};
use simbus::ChaosConfig;

/// One admitted session: the complete deterministic recipe.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Scenario name (recorded in the artifact).
    pub name: String,
    /// Full session configuration (seed, workload, detector, horizon).
    pub config: SimConfig,
    /// Attack installed before boot (`None` for clean sessions).
    pub attack: AttackSetup,
    /// Chaos schedule installed before boot (off ⇒ nothing scheduled).
    pub chaos: ChaosConfig,
    /// Virtual time (ms) at which the fleet engine first wakes the
    /// session. Staggered admissions exercise the wake queue; the
    /// session's own artifact is independent of this value.
    pub start_ms: u64,
}

impl SessionSpec {
    /// A clean undefended session.
    pub fn clean(seed: u64) -> Self {
        SessionSpec {
            name: "clean".into(),
            config: SimConfig { session_ms: 1_200, ..SimConfig::standard(seed) },
            attack: AttackSetup::None,
            chaos: ChaosConfig::off(),
            start_ms: 0,
        }
    }

    /// A clean session guarded by the armed detector.
    pub fn guarded(seed: u64) -> Self {
        let mut spec = SessionSpec::clean(seed);
        spec.name = "guarded".into();
        spec.config.detector = Some(armed_setup(Mitigation::EStop));
        spec
    }

    /// The paper's hot Scenario-B injection on an undefended robot.
    pub fn attacked(seed: u64) -> Self {
        let mut spec = SessionSpec::clean(seed);
        spec.name = "attacked".into();
        spec.attack = hot_attack();
        spec.config.session_ms = 1_600;
        spec
    }

    /// The hot injection against the armed guard (E-STOP mitigation).
    pub fn defended(seed: u64) -> Self {
        let mut spec = SessionSpec::attacked(seed);
        spec.name = "defended".into();
        spec.config.detector = Some(armed_setup(Mitigation::EStop));
        spec
    }

    /// The hot injection against block-and-hold mitigation.
    pub fn held(seed: u64) -> Self {
        let mut spec = SessionSpec::attacked(seed);
        spec.name = "held".into();
        spec.config.detector = Some(armed_setup(Mitigation::BlockAndHold));
        spec
    }

    /// Replaces the teleoperation horizon (builder style).
    #[must_use]
    pub fn with_session_ms(mut self, session_ms: u64) -> Self {
        self.config.session_ms = session_ms;
        self
    }

    /// Replaces the admission time (builder style).
    #[must_use]
    pub fn with_start_ms(mut self, start_ms: u64) -> Self {
        self.start_ms = start_ms;
        self
    }

    /// Replaces the chaos schedule (builder style).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }
}

/// The paper's standard hot torque injection (Scenario B, 30 000 DAC
/// counts on the shoulder channel).
fn hot_attack() -> AttackSetup {
    AttackSetup::ScenarioB {
        dac_delta: 30_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    }
}

fn armed_setup(mitigation: Mitigation) -> DetectorSetup {
    DetectorSetup {
        config: DetectorConfig { mitigation, ..DetectorConfig::default() },
        model_perturbation: 0.02,
        thresholds: Some(fleet_thresholds()),
    }
}

/// Thresholds shared by every guarded fleet session, trained once per
/// process with the reduced fault-free protocol (fixed seed, 25 %
/// safety margin — the same recipe `raven-verify` arms its suites
/// with, so a fleet session and a verification session of the same
/// spec run the identical detector).
pub fn fleet_thresholds() -> DetectionThresholds {
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

/// A deterministic mixed-scenario fleet: clean, guarded, attacked,
/// defended, and block-and-hold sessions with distinct seeds and
/// staggered horizons/admissions. Used by the `raven-sim fleet` CLI
/// and the equivalence/soak suites.
pub fn standard_mix(n: usize, base_seed: u64) -> Vec<SessionSpec> {
    (0..n)
        .map(|i| {
            // Plain arithmetic seed spread (no RNG stream involved):
            // distinct, deterministic, admission-order independent.
            let seed = base_seed.wrapping_add(7919 * i as u64 + 1);
            let spec = match i % 5 {
                0 => SessionSpec::clean(seed),
                1 => SessionSpec::guarded(seed),
                2 => SessionSpec::attacked(seed),
                3 => SessionSpec::defended(seed),
                _ => SessionSpec::held(seed),
            };
            spec.with_session_ms(800 + 400 * (i % 3) as u64).with_start_ms(3 * (i % 7) as u64)
        })
        .collect()
}

/// Everything one fleet session produced — serializable so equivalence
/// is a byte comparison. Identical in content to running the spec
/// standalone through [`run_standalone`] with the same `id`.
#[derive(Debug, Clone, Serialize)]
pub struct SessionArtifact {
    /// Fleet session id (admission order).
    pub id: u64,
    /// Spec name.
    pub name: String,
    /// Root seed.
    pub seed: u64,
    /// Whether boot reached Pedal Up.
    pub booted: bool,
    /// Session ground truth (`ticks` counts teleoperation cycles).
    pub outcome: SessionOutcome,
    /// The session's event ring at end, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring.
    pub events_dropped: u64,
    /// The session's metrics registry at end.
    pub metrics: Metrics,
    /// The flight recorder's dump, if it tripped.
    pub incident: Option<IncidentReport>,
}

impl SessionArtifact {
    /// Snapshots a finished session. `outcome` is passed in (rather
    /// than derived here) because the engine and the standalone path
    /// produce it through different call sites that must agree.
    pub fn collect(
        id: u64,
        spec: &SessionSpec,
        booted: bool,
        outcome: SessionOutcome,
        sim: &Simulation,
    ) -> Self {
        let (events, events_dropped) = {
            let obs = sim.observer().lock();
            (obs.events.snapshot(), obs.events.dropped())
        };
        SessionArtifact {
            id,
            name: spec.name.clone(),
            seed: spec.config.seed,
            booted,
            outcome,
            events,
            events_dropped,
            metrics: sim.metrics(),
            incident: sim.incident().cloned(),
        }
    }

    /// Serializes the artifact (the byte-compare equivalence record).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (all field types are
    /// serializable, so this indicates a bug).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serializes")
    }
}

/// Builds a session from its spec: construct, install the attack and
/// the chaos schedule. Shared by the engine and the standalone path so
/// both run literally the same setup sequence.
pub(crate) fn build_session(spec: &SessionSpec) -> Simulation {
    let mut sim = Simulation::new(spec.config.clone());
    if spec.attack.is_attack() {
        sim.install_attack(&spec.attack);
    }
    if !spec.chaos.is_off() {
        sim.install_chaos(&spec.chaos);
    }
    sim
}

/// Runs one spec standalone through `Simulation::run_session` — the
/// scalar reference loop the fleet engine must reproduce bit for bit.
pub fn run_standalone(spec: &SessionSpec, id: u64) -> SessionArtifact {
    let mut sim = build_session(spec);
    let booted = sim.boot_expecting_failure();
    let outcome = sim.run_session();
    SessionArtifact::collect(id, spec, booted, outcome, &sim)
}
