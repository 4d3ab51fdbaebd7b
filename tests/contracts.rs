//! The contracts that make batching and fleets safe, at tier-1 scale:
//! seconds-long debug-build instances of the proptest and fleet suites
//! in `crates/raven-detect/tests/batch_equiv.rs` and
//! `crates/raven-fleet/tests/fleet_equiv.rs`.
//!
//! * M=1 delegation — `DynamicDetector` (a one-lane batch) equals an
//!   independent `RtModel::predict`-based reference, verdicts and
//!   counters;
//! * lane isolation — a lane of a 3-lane batch under masking,
//!   `reset_session` and `retire_lane`/`admit_lane` equals a fresh
//!   1-lane batch, and so does a lane of a 4-lane batch whose per-call
//!   high-water mark (one past the highest engaged lane) moves;
//! * fleet equivalence — a `FleetEngine` is byte-equal to running each
//!   session standalone.

#[path = "../crates/raven-detect/tests/reference/mod.rs"]
mod reference;

use raven_detect::{
    BatchDetector, DetectionThresholds, DetectorConfig, DynamicDetector, FusionRule,
};
use raven_dynamics::{PlantParams, RtModel};
use raven_fleet::{run_standalone, standard_mix, FleetConfig, FleetEngine};
use raven_kinematics::{ArmConfig, JointState, MotorState, NUM_AXES};
use reference::{reference_assess, Reference};

fn session(seed: u64) -> (ArmConfig, RtModel) {
    let params = PlantParams::raven_ii();
    let arm = ArmConfig::builder().coupling(params.coupling()).build();
    (arm, RtModel::new(params.perturbed(seed, 0.02)))
}

/// Mid-band thresholds: the ramping commands below cross them part-way
/// through the trajectory, so both alarm outcomes occur.
fn thresholds() -> DetectionThresholds {
    DetectionThresholds {
        motor_accel: [150.0; NUM_AXES],
        motor_vel: [20.0; NUM_AXES],
        joint_vel: [0.15; NUM_AXES],
    }
}

/// Cycle `k` of a short wandering trajectory, offset per lane.
fn measurement(k: usize, lane: usize) -> MotorState {
    let t = k as f64 * 1e-3;
    let j = JointState::new(
        0.1 * (2.0 * t).sin() + 0.01 * lane as f64,
        1.4 + 0.05 * (3.0 * t).cos(),
        0.25 + 0.002 * lane as f64,
    );
    PlantParams::raven_ii().coupling().joints_to_motors(&j)
}

/// A command that ramps from gentle to violent over the trajectory.
fn command(k: usize, lane: usize) -> [i16; NUM_AXES] {
    let ramp = (k * 1_200 + lane * 300) as i16;
    [ramp, -ramp / 2, ramp / 4]
}

#[test]
fn dynamic_detector_is_the_one_lane_case_of_the_reference() {
    for lookahead_steps in [1, 2] {
        let cfg = DetectorConfig { lookahead_steps, ..DetectorConfig::default() };
        let (arm, model) = session(3);
        let mut det = DynamicDetector::new(arm.clone(), model.clone(), cfg);
        let mut reference = Reference::new(arm, model, cfg, Some(thresholds()));
        det.arm_with(thresholds());
        for k in 0..24 {
            if k == 16 {
                det.reset_session();
                reference.reset();
            }
            det.sync_measurement(measurement(k, 0));
            reference.sync(measurement(k, 0));
            let got = det.assess(&command(k, 0));
            assert_eq!(got, reference_assess(&mut reference, &command(k, 0)), "cycle {k}");
            assert_eq!(det.last_assessment(), got.as_ref());
        }
        assert!(reference.alarms > 0, "the ramp must alarm at lookahead {lookahead_steps}");
        assert!(reference.alarms < reference.assessments, "the gentle start must pass");
        assert_eq!(det.assessments(), reference.assessments);
        assert_eq!(det.alarms(), reference.alarms);
        assert_eq!(det.first_alarm_assessment(), reference.first_alarm_assessment);
        assert_eq!(det.estop_requested(), reference.estop_requested);
    }
}

#[test]
fn a_batch_lane_is_isolated_from_its_siblings() {
    let cfg = DetectorConfig::default();
    let sessions: Vec<_> = (1..4).map(session).collect();
    let arms: Vec<_> = sessions.iter().map(|(a, _)| a.clone()).collect();
    let models: Vec<_> = sessions.iter().map(|(_, m)| m.clone()).collect();
    let solo = |(arm, model): &(ArmConfig, RtModel)| {
        let mut b =
            BatchDetector::from_models(std::slice::from_ref(arm), std::slice::from_ref(model), cfg);
        b.arm_lane(0, thresholds());
        b
    };
    let mut batch = BatchDetector::from_models(&arms, &models, cfg);
    let mut solos: Vec<_> = sessions.iter().map(solo).collect();
    for lane in 0..3 {
        batch.arm_lane(lane, thresholds());
    }
    let recycled = session(9);
    for k in 0..30 {
        if k == 10 {
            batch.reset_session(1);
            solos[1].reset_session(0);
        }
        if k == 20 {
            batch.retire_lane(1);
            batch.admit_lane(1, recycled.0.clone(), &recycled.1, Some(thresholds()));
            solos[1] = solo(&recycled);
        }
        // Lane 2 is parked two cycles in three.
        let slots: Vec<Option<[i16; NUM_AXES]>> =
            (0..3).map(|l| (l != 2 || k % 3 == 0).then(|| command(k, l))).collect();
        for (l, slot) in slots.iter().enumerate() {
            if slot.is_some() {
                batch.sync_lane(l, measurement(k, l));
                solos[l].sync_lane(0, measurement(k, l));
            }
        }
        let got = batch.assess_lanes_masked(&slots).to_vec();
        for (l, slot) in slots.iter().enumerate() {
            let want = slot.and_then(|dac| solos[l].assess_lanes(&[dac])[0]);
            assert_eq!(got[l], want, "lane {l} cycle {k}");
        }
    }
    for (l, s) in solos.iter().enumerate() {
        assert!(batch.lane_alarms(l) > 0, "lane {l} never alarmed");
        assert_eq!(batch.lane_assessments(l), s.lane_assessments(0), "lane {l}");
        assert_eq!(batch.lane_alarms(l), s.lane_alarms(0), "lane {l}");
        assert_eq!(batch.lane_first_alarm_assessment(l), s.lane_first_alarm_assessment(0));
        assert_eq!(batch.lane_estop_requested(l), s.lane_estop_requested(0), "lane {l}");
    }
}

#[test]
fn the_high_water_mark_never_changes_a_verdict() {
    // Which lanes hold a command at cycle `k`: the mark rises, falls and
    // hits 0, with holes below it throughout.
    fn engaged(k: usize) -> [bool; 4] {
        match k {
            0..=5 => [false, false, false, true], // only the top lane
            6..=11 => [true; 4],
            12..=17 => [true, false, false, false], // mark 4 → 1
            18..=21 => [true, true, false, true],   // and back to 4
            22..=23 => [false; 4],                  // all parked: mark 0
            24..=29 => [false, true, true, true],
            30..=32 => [true, true, true, false], // top lane retired
            _ => [true; 4],
        }
    }
    let mut alarms = 0;
    for lookahead_steps in [2, 4] {
        for fusion in [FusionRule::AllThree, FusionRule::AnyOne] {
            let cfg = DetectorConfig { lookahead_steps, fusion, ..DetectorConfig::default() };
            let sessions: Vec<_> = (1..5).map(session).collect();
            let arms: Vec<_> = sessions.iter().map(|(a, _)| a.clone()).collect();
            let models: Vec<_> = sessions.iter().map(|(_, m)| m.clone()).collect();
            let solo = |(arm, model): &(ArmConfig, RtModel)| {
                let mut b = BatchDetector::from_models(
                    std::slice::from_ref(arm),
                    std::slice::from_ref(model),
                    cfg,
                );
                b.arm_lane(0, thresholds());
                b
            };
            let mut batch = BatchDetector::from_models(&arms, &models, cfg);
            let mut solos: Vec<_> = sessions.iter().map(solo).collect();
            for lane in 0..4 {
                batch.arm_lane(lane, thresholds());
            }
            let recycled = session(9);
            for k in 0..40 {
                if k == 30 {
                    batch.retire_lane(3);
                }
                if k == 33 {
                    batch.admit_lane(3, recycled.0.clone(), &recycled.1, Some(thresholds()));
                    solos[3] = solo(&recycled);
                }
                let slots: Vec<Option<[i16; NUM_AXES]>> =
                    (0..4).map(|l| engaged(k)[l].then(|| command(k, l))).collect();
                for (l, slot) in slots.iter().enumerate() {
                    // The freshly admitted top lane holds a command before
                    // its first measurement: unsynced, so not engaged.
                    if slot.is_some() && !(k == 33 && l == 3) {
                        batch.sync_lane(l, measurement(k, l));
                        solos[l].sync_lane(0, measurement(k, l));
                    }
                }
                let got = batch.assess_lanes_masked(&slots).to_vec();
                for (l, slot) in slots.iter().enumerate() {
                    let want = slot.and_then(|dac| solos[l].assess_lanes(&[dac])[0]);
                    assert_eq!(
                        got[l], want,
                        "lookahead {lookahead_steps} {fusion:?} lane {l} cycle {k}"
                    );
                }
            }
            for (l, s) in solos.iter().enumerate() {
                assert_eq!(batch.lane_assessments(l), s.lane_assessments(0), "lane {l}");
                assert_eq!(batch.lane_alarms(l), s.lane_alarms(0), "lane {l}");
                assert_eq!(batch.lane_first_alarm_assessment(l), s.lane_first_alarm_assessment(0));
                assert_eq!(batch.lane_estop_requested(l), s.lane_estop_requested(0), "lane {l}");
                alarms += batch.lane_alarms(l);
            }
        }
    }
    assert!(alarms > 0, "no lane ever alarmed");
}

#[test]
fn a_fleet_is_byte_equal_to_standalone_sessions() {
    // A 1.2 s horizon is about the shortest in which the pedal goes down
    // and the guard assesses commands.
    let specs: Vec<_> = standard_mix(3, 2024)
        .into_iter()
        .map(|mut spec| {
            spec.config.session_ms = 1_200;
            spec
        })
        .collect();
    let standalone: Vec<_> =
        specs.iter().enumerate().map(|(id, spec)| run_standalone(spec, id as u64)).collect();
    // standard_mix puts a guarded session second: the guard must have run.
    assert!(standalone[1].metrics.counter("detector.assessments") > 0);
    let reference: Vec<String> = standalone.iter().map(|a| a.to_json()).collect();
    for shard_width in [1, 2] {
        let mut fleet =
            FleetEngine::new(FleetConfig { shard_width, workers: Some(1), burst_ms: 64 });
        for spec in &specs {
            fleet.admit(spec.clone());
        }
        let got: Vec<String> = fleet.run().artifacts.iter().map(|a| a.to_json()).collect();
        assert_eq!(got, reference, "shard width {shard_width}");
    }
}
