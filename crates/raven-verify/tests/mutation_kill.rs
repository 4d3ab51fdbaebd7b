//! The mutation kill-suite: proof the oracle/probe suite has teeth.
//!
//! `raven-detect` is compiled with the `mutant-hooks` feature, exposing
//! twelve deliberately-seeded defects ([`DetectorMutation`]). The suite
//! must *kill* every one of them — each mutant fails at least one
//! conformance probe or end-to-end oracle — while the unmutated build
//! passes everything. A surviving mutant means the oracles have a blind
//! spot exactly where that defect lives. The batch column re-runs the
//! nine lane-side mutants on one lane of a multi-lane [`BatchDetector`],
//! the path the fleet monitor runs.

use raven_detect::{
    Assessment, BatchDetector, DetectionThresholds, DetectorConfig, DetectorMutation,
    InstantFeatures, Mitigation,
};
use raven_dynamics::{PlantParams, RtModel};
use raven_kinematics::{ArmConfig, JointState, NUM_AXES};
use raven_verify::{
    all_probes, run_mutated_chaos_session, run_oracles, suite_thresholds, Expectations, VerifySpec,
};

#[test]
fn unmutated_build_passes_every_probe() {
    for p in all_probes(None) {
        assert!(p.result.is_ok(), "probe {} failed on production code: {:?}", p.probe, p.result);
    }
}

#[test]
fn every_mutant_is_killed_by_the_probe_suite() {
    let mut survivors = Vec::new();
    for mutant in DetectorMutation::ALL {
        let kills: Vec<&str> = all_probes(Some(mutant))
            .iter()
            .filter(|p| p.result.is_err())
            .map(|p| p.probe)
            .collect();
        if kills.is_empty() {
            survivors.push(mutant.slug());
        }
    }
    assert!(survivors.is_empty(), "mutants not killed by any probe: {survivors:?}");
}

/// Each probe kills exactly the mutants whose defect it pins down — the
/// kill matrix is diagonal, not accidental.
#[test]
fn kill_matrix_matches_the_seeded_defects() {
    let expected: [(DetectorMutation, &str); 12] = [
        (DetectorMutation::EeLimitTenfold, "ee-limit"),
        (DetectorMutation::EeCheckDisabled, "ee-limit"),
        (DetectorMutation::FusionDropsJointVel, "fusion-rule"),
        (DetectorMutation::SwappedVelAccel, "fusion-rule"),
        (DetectorMutation::ThresholdsIgnored, "fusion-rule"),
        (DetectorMutation::FusionBecomesAnyOne, "fusion-rule"),
        (DetectorMutation::BlockPathDisabled, "guard-block-path"),
        (DetectorMutation::EstopRequestDropped, "guard-block-path"),
        (DetectorMutation::CooldownIgnored, "hold-semantics"),
        (DetectorMutation::HoldSubstitutesLatest, "hold-semantics"),
        (DetectorMutation::FirstAlarmOffByOne, "alarm-bookkeeping"),
        (DetectorMutation::AlarmCounterStuck, "alarm-bookkeeping"),
    ];
    for (mutant, probe) in expected {
        let failed: Vec<String> = all_probes(Some(mutant))
            .iter()
            .filter(|p| p.result.is_err())
            .map(|p| p.probe.to_string())
            .collect();
        assert!(
            failed.contains(&probe.to_string()),
            "mutant {} must be killed by probe {probe}, but only {failed:?} failed",
            mutant.slug()
        );
    }
}

/// End-to-end kills: mitigation- and bookkeeping-path mutants must also
/// fail the black-box oracle suite over a full guarded attack session —
/// the oracles do not need white-box access to notice these defects.
#[test]
fn mitigation_mutants_are_killed_end_to_end() {
    let thresholds = suite_thresholds();
    let spec = VerifySpec::estop_attack(41);
    let exp = Expectations {
        must_boot: true,
        must_detect: true,
        must_estop: true,
        ..Expectations::default()
    };

    let control = run_oracles(&run_mutated_chaos_session(&spec, thresholds, None), &exp);
    assert!(
        control.passed(),
        "unmutated control arm must pass every oracle:\n{}",
        control.failure_summary()
    );

    for mutant in [
        DetectorMutation::BlockPathDisabled,
        DetectorMutation::EstopRequestDropped,
        DetectorMutation::FirstAlarmOffByOne,
        DetectorMutation::AlarmCounterStuck,
    ] {
        let report = run_oracles(&run_mutated_chaos_session(&spec, thresholds, Some(mutant)), &exp);
        assert!(!report.passed(), "mutant {} survived the end-to-end oracle suite", mutant.slug());
    }
}

/// The mutants whose hooks sit on the batch lane path (the other three
/// sabotage the guard's mitigation, which a batch lane does not run).
const LANE_MUTANTS: [DetectorMutation; 9] = [
    DetectorMutation::EeLimitTenfold,
    DetectorMutation::EeCheckDisabled,
    DetectorMutation::FusionDropsJointVel,
    DetectorMutation::SwappedVelAccel,
    DetectorMutation::ThresholdsIgnored,
    DetectorMutation::FusionBecomesAnyOne,
    DetectorMutation::EstopRequestDropped,
    DetectorMutation::FirstAlarmOffByOne,
    DetectorMutation::AlarmCounterStuck,
];

const VIOLENT: [i16; NUM_AXES] = [30_000, 20_000, -10_000];
const GENTLE: [i16; NUM_AXES] = [40, 30, -20];
/// The lane under test; lane 0 is a sibling assessing `GENTLE` throughout.
const PROBED: usize = 1;

/// A 2-lane batch over the unperturbed model, armed when `thresholds` is
/// `Some`, with both lanes synced at rest.
fn lane_batch(
    config: DetectorConfig,
    thresholds: Option<DetectionThresholds>,
    mutation: Option<DetectorMutation>,
) -> BatchDetector {
    let params = PlantParams::raven_ii();
    let arm = ArmConfig::builder().coupling(params.coupling()).build();
    let model = RtModel::new(params);
    let mut batch =
        BatchDetector::from_models(&[arm.clone(), arm], &[model.clone(), model], config);
    batch.set_mutation(mutation);
    let rest = params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
    for lane in 0..2 {
        if let Some(t) = thresholds {
            batch.arm_lane(lane, t);
        }
        batch.sync_lane(lane, rest);
    }
    batch
}

fn assess_probed(batch: &mut BatchDetector, dac: [i16; NUM_AXES]) -> Assessment {
    batch.assess_lanes(&[GENTLE, dac])[PROBED].expect("probed lane is synced")
}

fn scaled(f: &InstantFeatures, ka: f64, kv: f64, kj: f64) -> DetectionThresholds {
    let mul = |a: [f64; NUM_AXES], k: f64| [a[0] * k, a[1] * k, a[2] * k];
    DetectionThresholds {
        motor_accel: mul(f.motor_accel, ka),
        motor_vel: mul(f.motor_vel, kv),
        joint_vel: mul(f.joint_vel, kj),
    }
}

/// Truth-table checks of the fusion rule, the end-effector limit and the
/// alarm bookkeeping on the probed lane, with thresholds and limits
/// derived from the violent command's own features (see `probes.rs`).
fn lane_probe(mutation: Option<DetectorMutation>) -> Result<(), String> {
    let base = DetectorConfig { mitigation: Mitigation::EStop, ..DetectorConfig::default() };
    let threshold_only = DetectorConfig { ee_step_limit: 1.0e9, ..base };
    let f = assess_probed(&mut lane_batch(base, None, None), VIOLENT).features;

    let mut batch = lane_batch(threshold_only, Some(scaled(&f, 0.5, 0.5, 0.5)), mutation);
    if assess_probed(&mut batch, GENTLE).alarm() {
        return Err("gentle command alarmed".into());
    }
    if !assess_probed(&mut batch, VIOLENT).threshold_alarm {
        return Err("violent command exceeds all three thresholds but raised no alarm".into());
    }
    if batch.lane_alarms(PROBED) != 1 {
        return Err(format!("one alarm expected, counted {}", batch.lane_alarms(PROBED)));
    }
    if batch.lane_first_alarm_assessment(PROBED) != Some(2) {
        return Err(format!(
            "first alarm fired on assessment 2, recorded as {:?}",
            batch.lane_first_alarm_assessment(PROBED)
        ));
    }
    if !batch.lane_estop_requested(PROBED) {
        return Err("alarming lane did not request the E-STOP".into());
    }
    if batch.lane_alarms(0) != 0 || batch.lane_estop_requested(0) {
        return Err("the gentle sibling lane alarmed".into());
    }

    let mut batch = lane_batch(threshold_only, Some(scaled(&f, 0.5, 0.5, 10.0)), mutation);
    if assess_probed(&mut batch, VIOLENT).threshold_alarm {
        return Err("joint velocity is below threshold, yet the fusion alarmed".into());
    }

    let unreachable = Some(scaled(&f, 100.0, 100.0, 100.0));
    let tight = DetectorConfig { ee_step_limit: f.ee_step / 2.0, ..base };
    if !assess_probed(&mut lane_batch(tight, unreachable, mutation), VIOLENT).ee_alarm {
        return Err("ee step above the limit did not alarm".into());
    }
    let loose = DetectorConfig { ee_step_limit: f.ee_step * 2.0, ..base };
    if assess_probed(&mut lane_batch(loose, unreachable, mutation), VIOLENT).ee_alarm {
        return Err("ee step below the limit alarmed".into());
    }
    Ok(())
}

/// The batch column: every lane-side mutant installed through
/// `BatchDetector::set_mutation` is killed on the probed lane of a 2-lane
/// batch, the unmutated batch passes, and the three mitigation-only
/// mutants leave the lane path untouched.
#[test]
fn lane_mutants_are_killed_on_a_batch_lane() {
    assert_eq!(lane_probe(None), Ok(()), "unmutated batch must pass the lane probe");
    for mutant in DetectorMutation::ALL {
        let outcome = lane_probe(Some(mutant));
        assert_eq!(
            outcome.is_err(),
            LANE_MUTANTS.contains(&mutant),
            "mutant {}: lane probe returned {outcome:?}",
            mutant.slug()
        );
    }
}
