//! Generic injection-campaign runner — the executable form of the paper's
//! "attack injection engine … programmed to … inject malicious
//! inputs/commands with different values and activation periods … at
//! different times during a running trajectory" (§IV.A.2).
//!
//! Table IV and Fig. 9 use specialized runners; this module executes any
//! [`CampaignConfig`] (from `raven-attack`) and returns per-run outcomes
//! plus an aggregate summary — the entry point for custom sweeps.

use raven_attack::{CampaignConfig, InjectionSpec};
use raven_detect::{DetectionThresholds, DetectorConfig, Mitigation};
use serde::{Deserialize, Serialize};
use simbus::rng::derive_seed;

use crate::scenario::AttackSetup;
use crate::sim::{DetectorSetup, SessionOutcome, SimConfig, Simulation, Workload};

pub mod executor;
pub mod trace;

pub use executor::{
    run_sweep, run_sweep_observed, ExecutorConfig, RunError, SweepResult, SweepStats,
};
pub use trace::{RunLifecycle, SegmentUtilization, SweepSegment, SweepTraceCollector};

/// One campaign run's record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignRun {
    /// The spec executed.
    pub spec: InjectionSpec,
    /// Repetition index.
    pub repetition: u32,
    /// The session outcome.
    pub outcome: SessionOutcome,
}

/// Aggregate campaign summary.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, Default)]
pub struct CampaignSummary {
    /// Total runs executed.
    pub runs: u32,
    /// Runs with adverse impact.
    pub adverse: u32,
    /// Runs detected by the dynamic model.
    pub model_detected: u32,
    /// Runs detected by the stock RAVEN mechanisms.
    pub raven_detected: u32,
}

/// Full campaign result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Every run's record.
    pub runs: Vec<CampaignRun>,
    /// The aggregate.
    pub summary: CampaignSummary,
    /// Sweep-level metrics, merged in run order from every run's
    /// simulation (detector counters, `detector.detection_latency_cycles`
    /// histogram, injection/E-STOP counts, …). Deterministic for any
    /// worker count.
    pub metrics: simbus::Metrics,
}

impl CampaignResult {
    /// Filters runs by a predicate on the spec.
    pub fn runs_where<'a>(
        &'a self,
        mut pred: impl FnMut(&InjectionSpec) -> bool + 'a,
    ) -> impl Iterator<Item = &'a CampaignRun> + 'a {
        self.runs.iter().filter(move |r| pred(&r.spec))
    }
}

/// Executes a campaign with the detector in shadow mode (thresholds
/// supplied by the caller, typically from
/// [`train_thresholds_with`](crate::training::train_thresholds_with)) on
/// the given executor. Output is bit-identical for any worker count: runs
/// are keyed by the deterministic [`raven_attack::CampaignPlan`] and
/// merged in plan order.
pub fn run_campaign_with(
    config: &CampaignConfig,
    thresholds: DetectionThresholds,
    session_ms: u64,
    exec: &ExecutorConfig,
) -> CampaignResult {
    let plan = config.plan();
    let sweep = run_sweep_observed(
        "campaign",
        plan.len(),
        exec,
        |i| derive_seed(config.seed, plan[i].stream()),
        |i, seed, metrics| {
            let descriptor = &plan[i];
            let mut sim = Simulation::new(SimConfig {
                workload: Workload::training_pair()[(descriptor.repetition % 2) as usize],
                session_ms,
                detector: Some(DetectorSetup {
                    config: DetectorConfig {
                        mitigation: Mitigation::Observe,
                        ..DetectorConfig::default()
                    },
                    model_perturbation: 0.02,
                    thresholds: Some(thresholds),
                }),
                ..SimConfig::standard(seed)
            });
            sim.install_attack(&AttackSetup::from_spec(&descriptor.spec));
            sim.boot();
            let outcome = sim.run_session();
            metrics.merge(&sim.metrics());
            outcome
        },
    );
    let metrics = sweep.stats.metrics.clone();
    let outcomes = sweep.expect_all("campaign");
    let mut summary = CampaignSummary::default();
    let mut runs = Vec::with_capacity(outcomes.len());
    for (descriptor, outcome) in plan.iter().zip(outcomes) {
        summary.runs += 1;
        if outcome.adverse {
            summary.adverse += 1;
        }
        if outcome.model_detected {
            summary.model_detected += 1;
        }
        if outcome.raven_detected {
            summary.raven_detected += 1;
        }
        runs.push(CampaignRun {
            spec: descriptor.spec,
            repetition: descriptor.repetition,
            outcome,
        });
    }
    CampaignResult { runs, summary, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_thresholds_with, TrainingConfig};

    #[test]
    fn campaign_runner_executes_every_cell() {
        let thresholds = train_thresholds_with(
            &TrainingConfig { runs: 6, ..TrainingConfig::quick(71) },
            &ExecutorConfig::default(),
        )
        .thresholds;
        let config = CampaignConfig {
            specs: vec![InjectionSpec::torque(30_000, 256), InjectionSpec::torque(2_000, 4)],
            repetitions: 2,
            seed: 71,
        };
        let result = run_campaign_with(&config, thresholds, 2_200, &ExecutorConfig::default());
        assert_eq!(result.summary.runs, 4);
        assert_eq!(result.runs.len(), 4);
        // The strong, long spec hurts; the weak, short one does not.
        let strong_adverse =
            result.runs_where(|s| s.duration_packets == 256).filter(|r| r.outcome.adverse).count();
        let weak_adverse =
            result.runs_where(|s| s.duration_packets == 4).filter(|r| r.outcome.adverse).count();
        assert!(strong_adverse > 0, "{result:?}");
        assert_eq!(weak_adverse, 0);
        // The model detects at least the adverse runs.
        assert!(result.summary.model_detected as usize >= strong_adverse);
        // Sweep-level metrics carry the aggregated detection-latency
        // histogram, with one observation per model-detected attack run.
        let latency = result
            .metrics
            .histogram("detector.detection_latency_cycles")
            .expect("campaign metrics must aggregate detection latency");
        assert_eq!(latency.count, u64::from(result.summary.model_detected));
    }
}
