//! `rig-fleet`: full `Simulation` sessions from `standard_mix` through a
//! one-worker `FleetEngine`.
//!
//! Each timed repeat runs the whole fleet. Every artifact of every repeat
//! must be byte-equal to `raven_fleet::run_standalone` of its spec (the
//! fleet-equivalence contract), checked after timing by SHA-256 digest.

use std::time::Instant;

use raven_core::Simulation;
use raven_fleet::{run_standalone, FleetConfig, FleetEngine, SessionArtifact, SessionSpec};
use simbus::obs::names;
use simbus::span::SpanHandle;

use crate::inputs;
use crate::measure::{self, Check, EndToEnd, Kernel, Work};

/// The calibration kernel: the plant-dominated pipeline is scalar code.
const KERNEL: Kernel = Kernel::Scalar;

/// The engine every repeat runs: one worker, so the figure is a per-core
/// cost that load on a sibling core does not move.
pub fn engine(specs: &[SessionSpec]) -> FleetEngine {
    let mut engine = FleetEngine::new(FleetConfig { workers: Some(1), ..FleetConfig::default() });
    for spec in specs {
        engine.admit(spec.clone());
    }
    engine
}

/// One artifact digest per session, tagged with its fleet id.
pub type Digests = Vec<(u64, [u8; 32])>;

/// Digests of a fleet's artifacts, in the report's order.
pub fn digests(artifacts: &[SessionArtifact]) -> Digests {
    artifacts.iter().map(|a| (a.id, measure::digest(a))).collect()
}

/// Checks one repeat's artifacts against the standalone references:
/// one output per spec, in id order, each byte-equal to its reference.
pub fn check_repeat(reference: &[Option<[u8; 32]>], got: &Digests) -> Check {
    let mut check = Check::default();
    for (id, want) in reference.iter().enumerate() {
        let produced = got.get(id).filter(|(got_id, _)| *got_id == id as u64);
        check.record(matches!((want, produced), (Some(w), Some((_, g))) if w == g));
    }
    check
}

/// A session driven through public `Simulation` calls with every
/// teleoperation step timed on its own.
pub struct Replay {
    /// The session's artifact digest (must equal `run_standalone`'s).
    pub digest: [u8; 32],
    /// Guard assessments the session delivered.
    pub assessments: u64,
    /// Boot cycles (idle, start press, homing).
    pub boot_cycles: u64,
    /// Teleoperation cycles after boot.
    pub session_cycles: u64,
    /// Wall ns of each teleoperation `Simulation::step` call.
    pub step_ns: Vec<u64>,
    /// The span recorder, when the replay was traced.
    pub spans: SpanHandle,
}

/// Replays `spec` the way `run_standalone` runs it, but one
/// `Simulation::step` at a time, optionally with the span recorder on.
pub fn replay(spec: &SessionSpec, id: u64, traced: bool) -> Replay {
    let mut sim = Simulation::new(spec.config.clone());
    if spec.attack.is_attack() {
        sim.install_attack(&spec.attack);
    }
    if !spec.chaos.is_off() {
        sim.install_chaos(&spec.chaos);
    }
    if traced {
        sim.enable_span_recorder();
    }
    let booted = sim.boot_expecting_failure();
    let boot_cycles = sim.run_session_outcome_only().ticks;
    let mut step_ns = Vec::with_capacity(spec.config.session_ms as usize);
    let mut ran = 0;
    while ran < spec.config.session_ms {
        let start = Instant::now();
        sim.step();
        step_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        ran += 1;
        if sim.halted() {
            break;
        }
    }
    let outcome = sim.session_outcome(ran);
    let artifact = SessionArtifact::collect(id, spec, booted, outcome, &sim);
    sim.spans().finish();
    Replay {
        digest: measure::digest(&artifact),
        assessments: artifact.metrics.counter(names::DETECTOR_ASSESSMENTS),
        boot_cycles,
        session_cycles: ran,
        step_ns,
        spans: sim.spans().clone(),
    }
}

/// Standalone reference digests, `None` where the reference panicked.
pub fn references(specs: &[SessionSpec]) -> Vec<Option<[u8; 32]>> {
    specs
        .iter()
        .enumerate()
        .map(|(id, spec)| measure::timed(|| measure::digest(&run_standalone(spec, id as u64))))
        .map(|r| r.map(|(_, d)| d))
        .collect()
}

/// The untraced rig-fleet run.
pub fn run(seed: u64, seconds: u64) -> EndToEnd {
    let (setup, specs) = measure::setup_repeated(|| {
        let specs = inputs::rig_specs(seed, inputs::deployment_thresholds());
        std::hint::black_box(engine(&specs));
        specs
    });

    let mut repeats = Vec::new();
    let mut outputs: Vec<Digests> = Vec::new();
    let mut lost = 0;
    measure::repeat_for(seconds, || {
        let mut fleet = engine(&specs);
        match measure::calibrated(KERNEL, || fleet.run()) {
            Some((timing, report)) => {
                repeats.push(timing);
                outputs.push(digests(&report.artifacts));
            }
            None => lost += 1,
        }
    });
    let peak_rss_kib = measure::peak_rss_kib();

    let reference = references(&specs);
    let mut check = Check::default();
    check.record_lost(lost * specs.len() as u64);
    for got in &outputs {
        check.merge(check_repeat(&reference, got));
    }
    // The per-step replay counts the cycles behind `ns_per_sim_ms`; its
    // artifacts must match the reference as well.
    let mut work = Work { sim_ms: 0, assessments: 0, runs: specs.len() as u64 };
    for (id, spec) in specs.iter().enumerate() {
        match measure::timed(|| replay(spec, id as u64, false)) {
            Some((_, r)) => {
                check.record(reference[id] == Some(r.digest));
                work.sim_ms += r.boot_cycles + r.session_cycles;
                work.assessments += r.assessments;
            }
            None => check.record_lost(1),
        }
    }
    EndToEnd { setup, repeats, work, check, peak_rss_kib, kernel: KERNEL }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_artifact_fails_the_check() {
        let thresholds = raven_fleet::fleet_thresholds();
        let specs: Vec<SessionSpec> = inputs::rig_specs(3, thresholds)
            .into_iter()
            .take(2)
            .map(|s| s.with_session_ms(30))
            .collect();
        let reference = references(&specs);
        let mut report = engine(&specs).run();
        assert_eq!(check_repeat(&reference, &digests(&report.artifacts)).failed, 0);

        report.artifacts[1].outcome.ticks += 1;
        let check = check_repeat(&reference, &digests(&report.artifacts));
        assert_eq!(check, Check { attempted: 2, failed: 1 });
        assert!(check.failed_frac() > 0.0);

        report.artifacts.pop();
        let check = check_repeat(&reference, &digests(&report.artifacts));
        assert_eq!(check, Check { attempted: 2, failed: 1 }, "a missing artifact fails");
    }

    #[test]
    fn the_step_replay_matches_run_standalone() {
        let spec =
            inputs::rig_specs(4, raven_fleet::fleet_thresholds())[1].clone().with_session_ms(30);
        let r = replay(&spec, 0, false);
        assert_eq!(Some(r.digest), references(std::slice::from_ref(&spec))[0]);
        assert_eq!(r.session_cycles, 30);
        assert_eq!(r.step_ns.len(), 30);
        let traced = replay(&spec, 0, true);
        assert_eq!(traced.digest, r.digest, "tracing must not perturb the artifact");
        assert!(!traced.spans.snapshot().is_empty());
    }
}
