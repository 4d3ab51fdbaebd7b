//! `sweep-table4`: the Table IV quick protocol through `run_table4_with`
//! on every available worker — threshold training with the detector
//! learning, then armed Scenario A and B evaluation with 30 % clean runs.
//!
//! Every repeat's `Table4Result` must be byte-equal to a one-worker run
//! of the same seed, made after timing.

use raven_core::experiments::{run_table4_with, Table4Config, Table4Result};
use raven_core::ExecutorConfig;
use simbus::obs::names;

use crate::inputs;
use crate::measure::{self, Check, EndToEnd, Kernel, Work};

/// The calibration kernel: the protocol runs the scalar plant on every
/// worker.
const KERNEL: Kernel = Kernel::ScalarEveryWorker;

/// The work one protocol pass completes. Campaign runs report no cycle
/// counts, so simulated time is the nominal horizon: every run's boot plus
/// its configured session length (runs that halt early count in full).
pub fn work(config: &Table4Config, result: &Table4Result, boot_cycles: u64) -> Work {
    let training = &config.training;
    let eval_runs = u64::from(config.scenario_a_runs + config.scenario_b_runs);
    Work {
        sim_ms: u64::from(training.runs) * (boot_cycles + training.session_ms)
            + eval_runs * (boot_cycles + config.session_ms),
        assessments: result.training_samples + result.metrics.counter(names::DETECTOR_ASSESSMENTS),
        runs: u64::from(training.runs) + eval_runs,
    }
}

/// Checks every repeat's result digest against the one-worker reference
/// (`None` when the reference run panicked).
pub fn check_outputs(reference: Option<[u8; 32]>, outputs: &[[u8; 32]]) -> Check {
    let mut check = Check::default();
    for got in outputs {
        check.record(reference == Some(*got));
    }
    check
}

/// The untraced sweep-table4 run.
pub fn run(seed: u64, seconds: u64) -> EndToEnd {
    let (setup, (config, exec, boot_cycles)) = measure::setup_repeated(|| {
        let config = inputs::table4_config(seed);
        let exec = ExecutorConfig::with_workers(inputs::available_workers());
        (config, exec, inputs::boot_cycles(seed))
    });

    let mut repeats = Vec::new();
    let mut outputs = Vec::new();
    let mut lost = 0;
    let mut last = None;
    measure::repeat_for(seconds, || {
        match measure::calibrated(KERNEL, || run_table4_with(&config, &exec)) {
            Some((timing, result)) => {
                repeats.push(timing);
                outputs.push(measure::digest(&result));
                last = Some(result);
            }
            None => lost += 1,
        }
    });
    let peak_rss_kib = measure::peak_rss_kib();

    let reference =
        measure::timed(|| measure::digest(&run_table4_with(&config, &ExecutorConfig::serial())))
            .map(|(_, d)| d);
    let mut check = check_outputs(reference, &outputs);
    check.record_lost(lost);
    let work = last.map_or(Work { sim_ms: 0, assessments: 0, runs: 0 }, |result| {
        work(&config, &result, boot_cycles)
    });
    EndToEnd { setup, repeats, work, check, peak_rss_kib, kernel: KERNEL }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_result_fails_the_check() {
        let mut config = inputs::table4_config(11);
        config.scenario_a_runs = 2;
        config.scenario_b_runs = 2;
        config.session_ms = 300;
        config.training.runs = 2;
        config.training.session_ms = 1_000;
        let parallel = run_table4_with(&config, &ExecutorConfig::with_workers(2));
        let reference = measure::digest(&run_table4_with(&config, &ExecutorConfig::serial()));
        let mut corrupted = parallel.clone();
        corrupted.training_samples += 1;
        let outputs = [measure::digest(&parallel), measure::digest(&corrupted)];
        let check = check_outputs(Some(reference), &outputs);
        assert_eq!(check, Check { attempted: 2, failed: 1 });
        assert!(check.failed_frac() > 0.0);
        assert_eq!(check_outputs(None, &outputs[..1]).failed, 1, "a lost reference fails");

        let w = work(&config, &parallel, inputs::boot_cycles(11));
        assert_eq!(w.runs, 6);
        assert!(w.assessments >= parallel.training_samples);
    }
}
