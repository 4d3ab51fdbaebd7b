//! Workload inputs. Everything a workload feeds the program is derived
//! from the `--seed` argument, so one seed always gives the same inputs.

use raven_core::experiments::table4::Table4Config;
use raven_core::training::{train_thresholds_with, TrainingConfig};
use raven_core::{ExecutorConfig, SimConfig, Simulation};
use raven_detect::{DetectionThresholds, DetectorConfig};
use raven_fleet::{standard_mix, MonitorConfig, MonitorSession, SessionSpec};

/// Rig-plane sessions per fleet: nine turns of `standard_mix`'s five
/// scenarios, so every scenario meets each of the three horizons three
/// times. A seed changes which sessions halt and how much each one logs;
/// over 45 sessions that moves peak memory by about 3 % (interquartile
/// range over ten seeds), against about 11 % over 15.
pub const RIG_SESSIONS: usize = 45;

/// Monitor-plane population. One session in ten is duty-cycled, the rest
/// stay idle (Pedal-Up) for the whole run. One pass covers about 16 s of
/// monitor time, a fraction of a second of host time, so a run holds
/// dozens of passes.
pub const MONITOR_SESSIONS: usize = 3_000;
/// Detector lanes of the monitor's batch.
pub const MONITOR_WIDTH: usize = 64;
/// Active phases per duty-cycled monitor session.
pub const MONITOR_PHASES: u32 = 8;
/// Window (ms) over which duty-cycled sessions first activate. With the
/// phase lengths of [`monitor_population`] it keeps about 5–6 of the 64
/// lanes busy (about 9 % occupancy, near the 8.5 % of the existing
/// 1k-session monitor point).
pub const MONITOR_SPREAD_MS: u64 = 15_000;

/// The worker count the host offers; no workload runs more threads.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Trains the guard thresholds every armed fleet session deploys with:
/// the reduced fault-free protocol behind `raven_fleet::fleet_thresholds`
/// (8 runs, training seed 7, 25 % margin). It runs on one worker, so the
/// set-up time it dominates is a per-core cost that the scalar
/// calibration kernel tracks; a two-worker set-up did not speed up with
/// the host as one core did.
pub fn deployment_thresholds() -> DetectionThresholds {
    let training = TrainingConfig { runs: 8, ..TrainingConfig::quick(7) };
    train_thresholds_with(&training, &ExecutorConfig::serial()).thresholds.scaled(1.25)
}

/// The rig-fleet sessions: `standard_mix` armed with `thresholds`.
pub fn rig_specs(seed: u64, thresholds: DetectionThresholds) -> Vec<SessionSpec> {
    standard_mix(RIG_SESSIONS, seed)
        .into_iter()
        .map(|mut spec| {
            if let Some(detector) = &mut spec.config.detector {
                detector.thresholds = Some(thresholds);
            }
            spec
        })
        .collect()
}

/// SplitMix64: a seeded stream for the monitor's schedule draws.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The monitor-fleet population: 90 % idle sessions and 10 % on duty
/// cycles of 20–50 ms active and 40–130 ms idle. The seed picks each
/// session's seed (its estimator perturbation and trajectory phase) and
/// its first activation inside [`MONITOR_SPREAD_MS`]; the phase lengths
/// cycle through fixed values, so every seed asks for the same number of
/// assessments.
pub fn monitor_population(seed: u64) -> Vec<MonitorSession> {
    let mut rng = SplitMix64(seed);
    (0..MONITOR_SESSIONS)
        .map(|i| {
            let session_seed = rng.next();
            if i % 10 == 0 {
                let k = (i / 10) as u64;
                MonitorSession {
                    seed: session_seed,
                    start_ms: rng.next() % MONITOR_SPREAD_MS,
                    active_ms: 20 + 10 * (k % 4),
                    idle_ms: 40 + 15 * (k % 7),
                    phases: MONITOR_PHASES,
                }
            } else {
                MonitorSession::idle(session_seed)
            }
        })
        .collect()
}

/// The monitor's lanes, armed with `thresholds`.
pub fn monitor_config(thresholds: DetectionThresholds) -> MonitorConfig {
    MonitorConfig { width: MONITOR_WIDTH, detector: DetectorConfig::default(), thresholds }
}

/// The Table IV quick protocol for `seed`.
pub fn table4_config(seed: u64) -> Table4Config {
    Table4Config::quick(seed)
}

/// Control cycles a clean session spends booting (idle, start press,
/// homing) before Pedal Up.
pub fn boot_cycles(seed: u64) -> u64 {
    let mut sim = Simulation::new(SimConfig::standard(seed));
    sim.boot();
    sim.run_session_outcome_only().ticks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_a_function_of_the_seed() {
        let key = |s: &MonitorSession| (s.seed, s.start_ms, s.active_ms, s.idle_ms, s.phases);
        let a: Vec<_> = monitor_population(5).iter().map(key).collect();
        let b: Vec<_> = monitor_population(5).iter().map(key).collect();
        let c: Vec<_> = monitor_population(6).iter().map(key).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().filter(|s| s.4 > 0).count(), MONITOR_SESSIONS / 10);
    }
}
