//! `monitor-fleet`: a duty-cycled, mostly idle population served by
//! `FleetMonitor` over one 64-lane `BatchDetector`.
//!
//! Only the batched estimator and detector do work here; there is no
//! plant. Each repeat is checked against the population's schedule: an
//! active session gets exactly `phases × active_ms` assessments over
//! `phases` completed phases, an idle one gets none, and every repeat
//! raises the same alarms as the first.

use raven_fleet::{FleetMonitor, MonitorSession, SessionTotals};

use crate::inputs;
use crate::measure::{self, Check, EndToEnd, Kernel, Work};

/// The calibration kernel: the batch detector steps structure-of-arrays lanes.
const KERNEL: Kernel = Kernel::Lanes;

/// Checks one repeat's per-session totals against the schedule, and its
/// alarms against the first repeat's.
pub fn check_repeat(
    sessions: &[MonitorSession],
    totals: &[SessionTotals],
    first: &[SessionTotals],
) -> Check {
    let mut check = Check::default();
    for (i, session) in sessions.iter().enumerate() {
        let (phases, assessments) = if session.active_ms > 0 {
            (session.phases, u64::from(session.phases) * session.active_ms)
        } else {
            (0, 0)
        };
        check.record(totals.get(i).is_some_and(|t| {
            t.phases_run == phases
                && t.assessments == assessments
                && first.get(i).is_some_and(|f| f.alarms == t.alarms)
        }));
    }
    check
}

/// The untraced monitor-fleet run.
pub fn run(seed: u64, seconds: u64) -> EndToEnd {
    let (setup, (config, sessions)) = measure::setup_repeated(|| {
        let config = inputs::monitor_config(inputs::deployment_thresholds());
        let sessions = inputs::monitor_population(seed);
        std::hint::black_box(FleetMonitor::new(config.clone(), sessions.clone()));
        (config, sessions)
    });

    let mut repeats = Vec::new();
    let mut check = Check::default();
    let mut first: Option<Vec<SessionTotals>> = None;
    let mut work = Work { sim_ms: 0, assessments: 0, runs: 0 };
    measure::repeat_for(seconds, || {
        let mut monitor = FleetMonitor::new(config.clone(), sessions.clone());
        let Some((timing, report)) = measure::calibrated(KERNEL, || monitor.run()) else {
            check.record_lost(sessions.len() as u64);
            return;
        };
        repeats.push(timing);
        let first = first.get_or_insert_with(|| report.totals.clone());
        check.merge(check_repeat(&sessions, &report.totals, first));
        work = Work {
            sim_ms: report.cycles,
            assessments: report.totals.iter().map(|t| t.assessments).sum(),
            runs: report.totals.iter().map(|t| u64::from(t.phases_run)).sum(),
        };
    });
    let peak_rss_kib = measure::peak_rss_kib();
    EndToEnd { setup, repeats, work, check, peak_rss_kib, kernel: KERNEL }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_detect::DetectionThresholds;
    use raven_kinematics::NUM_AXES;

    #[test]
    fn a_corrupted_total_fails_the_check() {
        let thresholds = DetectionThresholds {
            motor_accel: [200.0; NUM_AXES],
            motor_vel: [20.0; NUM_AXES],
            joint_vel: [2.0; NUM_AXES],
        };
        let sessions: Vec<MonitorSession> = inputs::monitor_population(9)
            .into_iter()
            .take(40)
            .map(|s| MonitorSession { start_ms: s.start_ms % 200, phases: s.phases.min(2), ..s })
            .collect();
        let report = FleetMonitor::new(inputs::monitor_config(thresholds), sessions.clone()).run();
        let clean = check_repeat(&sessions, &report.totals, &report.totals);
        assert_eq!(clean, Check { attempted: 40, failed: 0 });

        let mut corrupted = report.totals.clone();
        corrupted[0].assessments += 1; // session 0 is duty-cycled
        corrupted[1].assessments += 1; // session 1 is idle
        let check = check_repeat(&sessions, &corrupted, &report.totals);
        assert_eq!(check.failed, 2);
        assert!(check.failed_frac() > 0.0);
    }
}
