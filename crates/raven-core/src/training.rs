//! The fault-free threshold-learning protocol of the paper's §IV.C:
//! "thresholds … are learned through measuring the maximum instant
//! velocities of each of the variables over 600 fault-free runs of the model
//! with two different trajectories containing sufficient variability".

use raven_detect::{DetectionThresholds, DetectorConfig, Mitigation, ThresholdLearner};
use serde::{Deserialize, Serialize};
use simbus::obs::streams;
use simbus::rng::derive_seed;

use crate::campaign::executor::{run_sweep, ExecutorConfig};
use crate::sim::{DetectorSetup, SimConfig, Simulation, Workload};

/// Configuration of a training campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Number of fault-free runs (the paper uses 600).
    pub runs: u32,
    /// Teleoperation length per run (milliseconds).
    pub session_ms: u64,
    /// Percentile band for the final thresholds.
    pub percentile_band: (f64, f64),
    /// Model perturbation used during training (must match deployment).
    pub model_perturbation: f64,
    /// Root seed.
    pub seed: u64,
}

impl TrainingConfig {
    /// The paper-scale protocol: 600 runs over two trajectories.
    pub fn paper_scale(seed: u64) -> Self {
        TrainingConfig {
            runs: 600,
            session_ms: 2_000,
            percentile_band: (99.8, 99.9),
            model_perturbation: 0.02,
            seed,
        }
    }

    /// A reduced protocol for unit tests and quick experiments.
    pub fn quick(seed: u64) -> Self {
        TrainingConfig { runs: 12, session_ms: 1_500, ..Self::paper_scale(seed) }
    }
}

/// Outcome of a training campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingReport {
    /// The learned thresholds.
    pub thresholds: DetectionThresholds,
    /// Fault-free cycles observed in total.
    pub samples: u64,
    /// Runs executed.
    pub runs: u32,
}

/// Runs the fault-free protocol on the given executor and learns
/// detection thresholds.
///
/// Runs alternate between the two training workloads (circle scan and
/// suturing loops), each with a distinct derived seed, with the detector in
/// learning mode observing every Pedal-Down command.
///
/// Each run owns its simulation and returns its run-local
/// [`ThresholdLearner`]; the master learner merges them **in run order**,
/// so the learned thresholds are bit-identical for any worker count.
///
/// # Panics
///
/// Panics if `config.runs` is zero or a clean training run faults (each
/// faulting run is reported with its index and seed).
pub fn train_thresholds_with(config: &TrainingConfig, exec: &ExecutorConfig) -> TrainingReport {
    assert!(config.runs > 0, "training needs at least one run");
    let learners = run_sweep(
        "training",
        config.runs as usize,
        exec,
        |run| derive_seed(config.seed, &format!("{}{run}", streams::TRAIN_PREFIX)),
        |run, seed| {
            let workload = Workload::training_pair()[run % 2];
            let sim_config = SimConfig {
                seed,
                workload,
                session_ms: config.session_ms,
                detector: Some(DetectorSetup {
                    config: DetectorConfig {
                        mitigation: Mitigation::Observe,
                        percentile_band: config.percentile_band,
                        ..DetectorConfig::default()
                    },
                    model_perturbation: config.model_perturbation,
                    thresholds: None, // learning mode
                }),
                ..SimConfig::standard(0)
            };
            let mut sim = Simulation::new(sim_config);
            sim.boot();
            let outcome = sim.run_session();
            assert!(
                outcome.controller_fault.is_none(),
                "fault-free training run {run} faulted: {outcome:?}"
            );
            let det = sim.detector().expect("training sim must have a detector");
            let mut det = det.lock();
            det.end_learning_run();
            det.learner().clone()
        },
    )
    .expect_all("threshold training");
    let mut master = ThresholdLearner::new();
    for learner in &learners {
        master.merge(learner);
    }
    let (lo, hi) = config.percentile_band;
    let thresholds = master.learn(lo, hi).expect("training produced no samples");
    TrainingReport { thresholds, samples: master.samples(), runs: config.runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_training_produces_sane_thresholds() {
        let report = train_thresholds_with(
            &TrainingConfig { runs: 4, ..TrainingConfig::quick(2) },
            &ExecutorConfig::default(),
        );
        assert_eq!(report.runs, 4);
        assert!(report.samples > 1_000, "too few samples: {}", report.samples);
        let t = report.thresholds;
        // Thresholds must be positive and in physically sane ranges.
        for i in 0..3 {
            assert!(t.motor_accel[i] > 0.0 && t.motor_accel[i].is_finite());
            assert!(t.motor_vel[i] > 0.0 && t.motor_vel[i] < 1_000.0);
            assert!(t.joint_vel[i] > 0.0 && t.joint_vel[i] < 20.0);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = TrainingConfig { runs: 2, session_ms: 1_500, ..TrainingConfig::quick(7) };
        let a = train_thresholds_with(&cfg, &ExecutorConfig::default());
        let b = train_thresholds_with(&cfg, &ExecutorConfig::default());
        assert_eq!(a.thresholds, b.thresholds);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        let _ = train_thresholds_with(
            &TrainingConfig { runs: 0, ..TrainingConfig::quick(1) },
            &ExecutorConfig::default(),
        );
    }
}
