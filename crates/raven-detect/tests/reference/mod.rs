//! An independent reference for one detector session.
//!
//! The paper's decision (§IV.C) written out from the public building
//! blocks — [`RtModel::predict`], [`InstantFeatures::compute_with_current_ee`]
//! and [`DetectionThresholds::fused_alarm`]/[`DetectionThresholds::any_alarm`]
//! — without touching the batch lane code the detectors run. Included
//! by `tests/batch_equiv.rs` and by the workspace contract suite
//! (`tests/contracts.rs` at the repository root).

use raven_detect::{
    Assessment, DetectionThresholds, DetectorConfig, FusionRule, InstantFeatures, Mitigation,
};
use raven_dynamics::{PlantState, RtModel};
use raven_kinematics::{ArmConfig, MotorState, NUM_AXES};

/// One session's reference state: the tracked measurement and the
/// armed-mode counters.
pub struct Reference {
    arm: ArmConfig,
    model: RtModel,
    config: DetectorConfig,
    thresholds: Option<DetectionThresholds>,
    last: Option<(MotorState, [f64; NUM_AXES])>,
    tracked: Option<PlantState>,
    pub assessments: u64,
    pub alarms: u64,
    pub first_alarm_assessment: Option<u64>,
    pub estop_requested: bool,
}

impl Reference {
    /// A fresh session, armed when `thresholds` is `Some`.
    pub fn new(
        arm: ArmConfig,
        model: RtModel,
        config: DetectorConfig,
        thresholds: Option<DetectionThresholds>,
    ) -> Self {
        Reference {
            arm,
            model,
            config,
            thresholds,
            last: None,
            tracked: None,
            assessments: 0,
            alarms: 0,
            first_alarm_assessment: None,
            estop_requested: false,
        }
    }

    /// Clears the tracked measurement and the counters.
    pub fn reset(&mut self) {
        *self = Reference::new(self.arm.clone(), self.model.clone(), self.config, self.thresholds);
    }

    /// Tracks one encoder measurement: joint positions through the
    /// coupling, velocities by differencing against the previous sample.
    pub fn sync(&mut self, mpos: MotorState) {
        let dt = self.config.dt;
        let jpos = self.arm.motors_to_joints(&mpos);
        let j = jpos.to_array();
        let mut state = PlantState::default();
        state.set_motor_pos(mpos);
        state.set_joint_pos(jpos);
        if let Some((m0, j0)) = self.last {
            let dm = mpos.delta(m0);
            for i in 0..NUM_AXES {
                state.x[3 + i] = dm.angles[i] / dt;
                state.x[9 + i] = (j[i] - j0[i]) / dt;
            }
        }
        self.last = Some((mpos, j));
        self.tracked = Some(state);
    }
}

/// Assesses one command: chained one-step predictions over the horizon,
/// the instant features, the fused thresholds, the end-effector limit and
/// the counters. `None` before the first measurement.
pub fn reference_assess(r: &mut Reference, dac: &[i16; NUM_AXES]) -> Option<Assessment> {
    let current = r.tracked?;
    let cfg = r.config;
    let predicted = r.model.predict(&current, dac);
    let ee_now = r.arm.forward(&current.joint_pos()).position;
    let mut features =
        InstantFeatures::compute_with_current_ee(&r.arm, &current, &predicted, cfg.dt, ee_now);
    if cfg.lookahead_steps > 1 {
        let mut rolled = predicted;
        for _ in 1..cfg.lookahead_steps {
            rolled = r.model.predict(&rolled, dac);
        }
        let end = r.arm.forward(&rolled.joint_pos()).position;
        features.ee_step = features.ee_step.max(ee_now.distance(end));
    }
    let Some(t) = r.thresholds else {
        return Some(Assessment { features, threshold_alarm: false, ee_alarm: false });
    };
    let threshold_alarm = match cfg.fusion {
        FusionRule::AllThree => t.fused_alarm(&features),
        FusionRule::AnyOne => t.any_alarm(&features),
    };
    let ee_alarm = features.ee_step > cfg.ee_step_limit;
    r.assessments += 1;
    if threshold_alarm || ee_alarm {
        r.alarms += 1;
        r.first_alarm_assessment.get_or_insert(r.assessments);
        if cfg.mitigation == Mitigation::EStop {
            r.estop_requested = true;
        }
    }
    Some(Assessment { features, threshold_alarm, ee_alarm })
}
