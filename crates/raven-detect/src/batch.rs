//! The detector's one assessment path: M detector sessions assessed per
//! call over one structure-of-arrays estimator batch.
//!
//! The paper's detection budget is per control cycle per robot; a
//! teleoperation fleet multiplies it by the number of concurrent
//! sessions. [`BatchDetector`] amortizes that product: one
//! [`BatchModel`] steps every session's estimator lane together, and
//! each lane then computes its instant features, the lookahead
//! end-effector step, the fused threshold checks, the 1 mm limit and
//! its alarm bookkeeping.
//!
//! This is the *only* place those decisions are written down. The
//! scalar [`DynamicDetector`] is a one-lane batch plus the parts that
//! are scalar by design — threshold *learning* and the mitigation
//! actuation on the write path — so the guard, the fleet monitor and
//! the mutation kill-suite all run the same code. Each lane carries its
//! own mode (learning/armed thresholds), measurement tracker and alarm
//! counters; lanes are arithmetically independent, so a lane of an
//! M-lane batch equals a one-lane batch fed the same inputs (pinned by
//! the proptest suite in `tests/batch_equiv.rs` against an independent
//! `RtModel::predict` reference).
//!
//! [`DynamicDetector`]: crate::detector::DynamicDetector

use raven_dynamics::batch::BatchModel;
use raven_dynamics::{PlantState, RtModel};
use raven_kinematics::{ArmConfig, MotorState, NUM_AXES};
use raven_math::Vec3;

use crate::detector::{Assessment, DetectorConfig, DetectorMode, FusionRule, Mitigation};
use crate::features::InstantFeatures;
use crate::mutants::DetectorMutation;
use crate::thresholds::DetectionThresholds;

/// A lane's mode: armed *means* having thresholds, so the armed
/// assessment path is infallible by construction (no `Option` to
/// unwrap inside the control cycle — lint rule R3).
#[derive(Debug, Clone, Copy)]
enum ModeState {
    Learning,
    Armed(DetectionThresholds),
}

/// Reconstructs the tracked plant state from one encoder measurement:
/// joint positions through the coupling, velocities by differencing
/// against the previous sample.
fn measured_state(
    arm: &ArmConfig,
    dt: f64,
    last_mpos: &mut Option<MotorState>,
    last_jpos: &mut Option<[f64; NUM_AXES]>,
    mpos: MotorState,
) -> PlantState {
    let jpos = arm.motors_to_joints(&mpos);
    let ja = jpos.to_array();
    let mvel = match *last_mpos {
        Some(last) => {
            let d = mpos.delta(last);
            [d.angles[0] / dt, d.angles[1] / dt, d.angles[2] / dt]
        }
        None => [0.0; NUM_AXES],
    };
    let jvel = match *last_jpos {
        Some(last) => [(ja[0] - last[0]) / dt, (ja[1] - last[1]) / dt, (ja[2] - last[2]) / dt],
        None => [0.0; NUM_AXES],
    };
    *last_mpos = Some(mpos);
    *last_jpos = Some(ja);
    let mut state = PlantState::default();
    state.set_motor_pos(mpos);
    state.set_joint_pos(jpos);
    state.x[3] = mvel[0];
    state.x[4] = mvel[1];
    state.x[5] = mvel[2];
    state.x[9] = jvel[0];
    state.x[10] = jvel[1];
    state.x[11] = jvel[2];
    state
}

/// Per-session state carried alongside the shared SoA storage.
#[derive(Debug)]
struct SessionLane {
    arm: ArmConfig,
    mode: ModeState,
    tracked: Option<PlantState>,
    last_mpos: Option<MotorState>,
    last_jpos: Option<[f64; NUM_AXES]>,
    assessments: u64,
    alarms: u64,
    first_alarm_assessment: Option<u64>,
    estop_requested: bool,
}

/// M detector sessions over one SoA estimator batch.
///
/// # Example
///
/// ```
/// use raven_detect::{BatchDetector, DetectorConfig, DynamicDetector};
/// use raven_dynamics::{PlantParams, RtModel};
/// use raven_kinematics::{ArmConfig, JointState};
///
/// let params = PlantParams::raven_ii();
/// let arm = ArmConfig::builder().coupling(params.coupling()).build();
/// let model = RtModel::new(params.perturbed(1, 0.02));
/// let config = DetectorConfig::default();
///
/// let mut batch =
///     BatchDetector::from_models(&[arm.clone(), arm.clone()], &[model.clone(), model], config);
/// let mpos = params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
/// batch.sync_lane(0, mpos);
/// batch.sync_lane(1, mpos);
/// let verdicts = batch.assess_lanes(&[[200, 0, 0], [150, 0, 0]]);
/// assert!(verdicts.iter().all(|v| v.is_some()));
/// ```
#[derive(Debug)]
pub struct BatchDetector {
    config: DetectorConfig,
    model: BatchModel,
    lanes: Vec<SessionLane>,
    /// Current end-effector position per lane, stashed by the one-step
    /// pass so the lookahead pass reuses it (FK is pure, so sharing the
    /// evaluation is bit-identical to recomputing it).
    ee_now: Vec<Vec3>,
    /// Reused per-call verdict storage, one slot per lane.
    verdicts: Vec<Option<Assessment>>,
    /// Reused per-call engagement mask: lanes with a command *and* a
    /// synced measurement this cycle.
    engaged: Vec<bool>,
    /// Installed kill-suite mutant, if any (`None` ⇒ production
    /// behavior). Only the `mutant-hooks` setter writes it.
    mutation: Option<DetectorMutation>,
}

impl BatchDetector {
    /// Builds one lane per (arm, model) pair, every lane in learning
    /// mode. All models must share one integrator configuration (the
    /// batch dispatches the step once for every lane).
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or of different lengths, or if
    /// the model configurations disagree.
    pub fn from_models(arms: &[ArmConfig], models: &[RtModel], config: DetectorConfig) -> Self {
        assert!(!models.is_empty(), "batch detector needs at least one session");
        assert_eq!(arms.len(), models.len(), "one arm config per model");
        let shared = models[0].config();
        for m in models {
            assert_eq!(m.config(), shared, "all lanes must share one integrator configuration");
        }
        let params: Vec<raven_dynamics::PlantParams> = models.iter().map(|m| *m.params()).collect();
        let m = models.len();
        BatchDetector {
            config,
            model: BatchModel::with_params(&params, shared),
            lanes: arms
                .iter()
                .map(|arm| SessionLane {
                    arm: arm.clone(),
                    mode: ModeState::Learning,
                    tracked: None,
                    last_mpos: None,
                    last_jpos: None,
                    assessments: 0,
                    alarms: 0,
                    first_alarm_assessment: None,
                    estop_requested: false,
                })
                .collect(),
            ee_now: vec![Vec3::default(); m],
            verdicts: vec![None; m],
            engaged: vec![false; m],
            mutation: None,
        }
    }

    /// Installs (or clears) a kill-suite mutant on every lane. Test-only:
    /// exists solely for the `raven-verify` mutation kill-suite.
    #[cfg(feature = "mutant-hooks")]
    pub fn set_mutation(&mut self, mutation: Option<DetectorMutation>) {
        self.mutation = mutation;
    }

    /// The installed kill-suite mutant, if any.
    #[cfg(feature = "mutant-hooks")]
    pub fn mutation(&self) -> Option<DetectorMutation> {
        self.mutation
    }

    /// `true` when kill-suite mutant `m` is installed. Without the
    /// `mutant-hooks` feature this is the constant `false`, so every
    /// decision that asks compiles to its production expression.
    pub(crate) fn mutated(&self, m: DetectorMutation) -> bool {
        cfg!(feature = "mutant-hooks") && self.mutation == Some(m)
    }

    /// Number of sessions in the batch.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The shared detector configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// One lane's operating mode.
    pub fn lane_mode(&self, lane: usize) -> DetectorMode {
        match self.lanes[lane].mode {
            ModeState::Learning => DetectorMode::Learning,
            ModeState::Armed(_) => DetectorMode::Armed,
        }
    }

    /// One lane's learned thresholds, once armed.
    pub(crate) fn lane_thresholds(&self, lane: usize) -> Option<&DetectionThresholds> {
        match &self.lanes[lane].mode {
            ModeState::Learning => None,
            ModeState::Armed(t) => Some(t),
        }
    }

    /// Arms one lane with learned thresholds (typically from a scalar
    /// training campaign — the batch itself never learns).
    pub fn arm_lane(&mut self, lane: usize, thresholds: DetectionThresholds) {
        self.lanes[lane].mode = ModeState::Armed(thresholds);
    }

    /// Feeds one lane's measured motor positions for this cycle. The lane
    /// reconstructs velocities by differencing and joint states through
    /// the coupling — the same information the real detector extracts
    /// from the USB read path.
    pub fn sync_lane(&mut self, lane: usize, mpos: MotorState) {
        let l = &mut self.lanes[lane];
        l.tracked =
            Some(measured_state(&l.arm, self.config.dt, &mut l.last_mpos, &mut l.last_jpos, mpos));
    }

    /// Clears one lane's per-session state (counters, tracked
    /// measurement) while keeping its thresholds, scoped to a single
    /// lane so the rest of the fleet is untouched.
    pub fn reset_session(&mut self, lane: usize) {
        let l = &mut self.lanes[lane];
        l.tracked = None;
        l.last_mpos = None;
        l.last_jpos = None;
        l.assessments = 0;
        l.alarms = 0;
        l.first_alarm_assessment = None;
        l.estop_requested = false;
    }

    /// Recycles one lane for a newly admitted session: rebinds the
    /// estimator lane to the session's model parameters, installs its
    /// arm config, clears all per-session state, and arms it with the
    /// session's thresholds (or leaves it learning when `None`). The
    /// other lanes' SoA columns are untouched, so sibling trajectories
    /// stay bitwise identical — the dynamic arrive/retire counterpart
    /// of constructing a fresh batch.
    ///
    /// # Panics
    ///
    /// Panics if the model's integrator configuration differs from the
    /// batch's shared configuration.
    pub fn admit_lane(
        &mut self,
        lane: usize,
        arm: ArmConfig,
        model: &RtModel,
        thresholds: Option<DetectionThresholds>,
    ) {
        assert_eq!(
            model.config(),
            self.model.config(),
            "admitted lanes must share the batch integrator configuration"
        );
        self.model.set_lane_params(lane, *model.params());
        self.model.load_state(lane, &PlantState::default());
        self.model.set_torque(lane, &[0.0; NUM_AXES]);
        let l = &mut self.lanes[lane];
        l.arm = arm;
        l.mode = match thresholds {
            Some(t) => ModeState::Armed(t),
            None => ModeState::Learning,
        };
        self.reset_session(lane);
    }

    /// Retires one lane: clears its per-session state, disarms it, and
    /// parks the estimator lane at the benign rest state with zero
    /// torque, ready for [`admit_lane`](Self::admit_lane) to recycle.
    pub fn retire_lane(&mut self, lane: usize) {
        self.lanes[lane].mode = ModeState::Learning;
        self.reset_session(lane);
        self.model.load_state(lane, &PlantState::default());
        self.model.set_torque(lane, &[0.0; NUM_AXES]);
    }

    /// Assesses one candidate DAC command per lane, stepping every
    /// session's estimator together. Returns one verdict slot per lane;
    /// `None` where the lane has no synced measurement yet. Lanes in
    /// learning mode return non-alarming assessments and move no
    /// counters (observation happens on the scalar trainer).
    ///
    /// Allocation-free after construction: the integrator scratch and
    /// the verdict storage are reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `dacs` does not supply exactly one command per lane.
    pub fn assess_lanes(&mut self, dacs: &[[i16; NUM_AXES]]) -> &[Option<Assessment>] {
        let m = self.lanes.len();
        assert_eq!(dacs.len(), m, "one DAC command per lane");
        self.assess_impl(&|l| Some(dacs[l]))
    }

    /// [`assess_lanes`](Self::assess_lanes) with per-lane participation:
    /// `None` slots are *parked* this cycle — no assessment, no counter
    /// movement, verdict `None` — which is how the fleet multiplexer
    /// runs a batch where only a subset of sessions is active. Parked
    /// (and unsynced) lanes are still stepped with the batch, but are
    /// re-loaded with the benign rest state and zero torque on every
    /// call, so an idle lane can never drift toward non-finite values
    /// over a long soak and never influences an engaged sibling (lanes
    /// are arithmetically independent).
    ///
    /// # Panics
    ///
    /// Panics if `dacs` does not supply exactly one slot per lane.
    pub fn assess_lanes_masked(
        &mut self,
        dacs: &[Option<[i16; NUM_AXES]>],
    ) -> &[Option<Assessment>] {
        let m = self.lanes.len();
        assert_eq!(dacs.len(), m, "one DAC slot per lane");
        self.assess_impl(&|l| dacs[l])
    }

    /// Shared body of the two assessment entry points. `dyn Fn` keeps a
    /// single monomorphization, so the masked path runs the *same*
    /// machine code as the plain path — engaged lanes are bit-identical
    /// between the two by construction.
    fn assess_impl(
        &mut self,
        dac_of: &dyn Fn(usize) -> Option<[i16; NUM_AXES]>,
    ) -> &[Option<Assessment>] {
        let m = self.lanes.len();
        for l in 0..m {
            self.engaged[l] = match (dac_of(l), self.lanes[l].tracked) {
                (Some(dac), Some(current)) => {
                    self.model.load_state(l, &current);
                    self.model.set_dac(l, &dac);
                    true
                }
                _ => {
                    // Parked or unsynced: reload rest state + zero torque
                    // each call so the still-stepped lane stays finite.
                    self.model.load_state(l, &PlantState::default());
                    self.model.set_torque(l, &[0.0; NUM_AXES]);
                    false
                }
            };
        }
        self.model.step_lanes();
        // One-step features per lane; ee_step may still grow below.
        for (l, lane) in self.lanes.iter().enumerate() {
            let current = match lane.tracked {
                Some(current) if self.engaged[l] => current,
                _ => {
                    self.verdicts[l] = None;
                    continue;
                }
            };
            let predicted = self.model.state(l);
            let ee_now = lane.arm.forward(&current.joint_pos()).position;
            self.ee_now[l] = ee_now;
            let features = InstantFeatures::compute_with_current_ee(
                &lane.arm,
                &current,
                &predicted,
                self.config.dt,
                ee_now,
            );
            self.verdicts[l] =
                Some(Assessment { features, threshold_alarm: false, ee_alarm: false });
        }
        // Lookahead rollout: the whole batch re-steps under the latched
        // torques, then each lane checks its cumulative EE displacement.
        if self.config.lookahead_steps > 1 {
            for _ in 1..self.config.lookahead_steps {
                self.model.step_lanes();
            }
            for (l, lane) in self.lanes.iter().enumerate() {
                let Some(assessment) = &mut self.verdicts[l] else { continue };
                let rolled = self.model.state(l);
                let end = lane.arm.forward(&rolled.joint_pos()).position;
                assessment.features.ee_step =
                    assessment.features.ee_step.max(self.ee_now[l].distance(end));
            }
        }
        // Fusion, the end-effector limit and per-lane alarm accounting.
        for l in 0..m {
            let Some(mut assessment) = self.verdicts[l] else { continue };
            let ModeState::Armed(thresholds) = self.lanes[l].mode else { continue };
            assessment.threshold_alarm =
                self.threshold_alarm_for(&thresholds, &assessment.features);
            assessment.ee_alarm = self.ee_alarm_for(&assessment.features);
            self.verdicts[l] = Some(assessment);
            self.lanes[l].assessments += 1;
            if assessment.alarm() {
                if !self.mutated(DetectorMutation::AlarmCounterStuck) {
                    self.lanes[l].alarms += 1;
                }
                let first = if self.mutated(DetectorMutation::FirstAlarmOffByOne) {
                    self.lanes[l].assessments + 1
                } else {
                    self.lanes[l].assessments
                };
                self.lanes[l].first_alarm_assessment.get_or_insert(first);
                if self.config.mitigation == Mitigation::EStop
                    && !self.mutated(DetectorMutation::EstopRequestDropped)
                {
                    self.lanes[l].estop_requested = true;
                }
            }
        }
        &self.verdicts
    }

    /// Commands assessed while armed, per lane.
    pub fn lane_assessments(&self, lane: usize) -> u64 {
        self.lanes[lane].assessments
    }

    /// Alarms raised while armed, per lane.
    pub fn lane_alarms(&self, lane: usize) -> u64 {
        self.lanes[lane].alarms
    }

    /// Assessment index (1-based) of the lane's first alarm, if any.
    pub fn lane_first_alarm_assessment(&self, lane: usize) -> Option<u64> {
        self.lanes[lane].first_alarm_assessment
    }

    /// `true` when the lane's E-STOP mitigation has been requested.
    pub fn lane_estop_requested(&self, lane: usize) -> bool {
        self.lanes[lane].estop_requested
    }

    /// Fused threshold-exceedance decision for one assessment.
    fn threshold_alarm_for(
        &self,
        thresholds: &DetectionThresholds,
        features: &InstantFeatures,
    ) -> bool {
        if self.mutated(DetectorMutation::ThresholdsIgnored) {
            return false;
        }
        if self.mutated(DetectorMutation::FusionBecomesAnyOne) {
            return thresholds.any_alarm(features);
        }
        if self.mutated(DetectorMutation::FusionDropsJointVel) {
            return (0..NUM_AXES).any(|i| {
                features.motor_accel[i] > thresholds.motor_accel[i]
                    && features.motor_vel[i] > thresholds.motor_vel[i]
            });
        }
        let swapped;
        let features = if self.mutated(DetectorMutation::SwappedVelAccel) {
            let mut f = *features;
            std::mem::swap(&mut f.motor_accel, &mut f.motor_vel);
            swapped = f;
            &swapped
        } else {
            features
        };
        match self.config.fusion {
            FusionRule::AllThree => thresholds.fused_alarm(features),
            FusionRule::AnyOne => thresholds.any_alarm(features),
        }
    }

    /// Hard end-effector step-limit decision for one assessment.
    fn ee_alarm_for(&self, features: &InstantFeatures) -> bool {
        if self.mutated(DetectorMutation::EeCheckDisabled) {
            return false;
        }
        if self.mutated(DetectorMutation::EeLimitTenfold) {
            return features.ee_step > 10.0 * self.config.ee_step_limit;
        }
        features.ee_step > self.config.ee_step_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DynamicDetector;
    use raven_dynamics::PlantParams;
    use raven_kinematics::JointState;

    fn session(seed: u64) -> (ArmConfig, RtModel, PlantParams) {
        let params = PlantParams::raven_ii();
        let arm = ArmConfig::builder().coupling(params.coupling()).build();
        let model = RtModel::new(params.perturbed(seed, 0.02));
        (arm, model, params)
    }

    fn trained_thresholds(
        arm: &ArmConfig,
        model: &RtModel,
        params: &PlantParams,
    ) -> DetectionThresholds {
        let mut det = DynamicDetector::new(arm.clone(), model.clone(), DetectorConfig::default());
        let coupling = params.coupling();
        for k in 0..1500u64 {
            let t = k as f64 * 1e-3;
            let j = JointState::new(
                0.1 * (2.0 * t).sin(),
                1.4 + 0.08 * (1.5 * t).cos(),
                0.25 + 0.01 * t.sin(),
            );
            det.sync_measurement(coupling.joints_to_motors(&j));
            det.assess(&[200, 150, -100]);
        }
        det.end_learning_run();
        det.arm().expect("fault-free samples observed");
        *det.thresholds().expect("armed")
    }

    #[test]
    fn batched_lanes_match_independent_scalar_detectors() {
        let config = DetectorConfig::default();
        let sessions: Vec<_> = (1..4).map(session).collect();
        let thresholds: Vec<_> =
            sessions.iter().map(|(a, m, p)| trained_thresholds(a, m, p)).collect();

        let arms: Vec<_> = sessions.iter().map(|(a, _, _)| a.clone()).collect();
        let models: Vec<_> = sessions.iter().map(|(_, m, _)| m.clone()).collect();
        let mut batch = BatchDetector::from_models(&arms, &models, config);
        let mut scalars: Vec<_> = sessions
            .iter()
            .map(|(a, m, _)| DynamicDetector::new(a.clone(), m.clone(), config))
            .collect();
        for (l, t) in thresholds.iter().enumerate() {
            batch.arm_lane(l, *t);
            scalars[l].arm_with(*t);
            assert_eq!(batch.lane_mode(l), DetectorMode::Armed);
        }

        let coupling = sessions[0].2.coupling();
        for k in 0..40u64 {
            let t = k as f64 * 1e-3;
            for (l, scalar) in scalars.iter_mut().enumerate() {
                let j = JointState::new(
                    0.1 * (2.0 * t).sin() + 0.01 * l as f64,
                    1.4 + 0.05 * (3.0 * t).cos(),
                    0.25,
                );
                let mpos = coupling.joints_to_motors(&j);
                scalar.sync_measurement(mpos);
                batch.sync_lane(l, mpos);
            }
            let dacs: Vec<[i16; NUM_AXES]> =
                (0..scalars.len()).map(|l| [400 + 100 * l as i16, -200, 150]).collect();
            let verdicts = batch.assess_lanes(&dacs).to_vec();
            for (l, scalar) in scalars.iter_mut().enumerate() {
                let expected = scalar.assess(&dacs[l]).expect("synced");
                let got = verdicts[l].expect("synced lane");
                assert_eq!(got, expected, "lane {l} diverged from scalar at cycle {k}");
            }
        }
        for (l, scalar) in scalars.iter().enumerate() {
            assert_eq!(batch.lane_assessments(l), scalar.assessments());
            assert_eq!(batch.lane_alarms(l), scalar.alarms());
        }
    }

    #[test]
    fn unsynced_lane_yields_none_and_does_not_count() {
        let (arm, model, params) = session(1);
        let config = DetectorConfig::default();
        let mut batch =
            BatchDetector::from_models(&[arm.clone(), arm], &[model.clone(), model], config);
        let mpos = params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        batch.sync_lane(0, mpos);
        let verdicts = batch.assess_lanes(&[[100, 0, 0], [100, 0, 0]]);
        assert!(verdicts[0].is_some());
        assert!(verdicts[1].is_none());
        assert_eq!(batch.lane_assessments(1), 0);
    }

    #[test]
    fn masked_assessment_parks_lanes_without_perturbing_siblings() {
        // An engaged lane in a masked batch is bit-identical to the same
        // lane in a fully-engaged batch, regardless of what its siblings
        // do; parked lanes don't assess, don't count, and resume cleanly.
        let (arm, model, params) = session(3);
        let thresholds = trained_thresholds(&arm, &model, &params);
        let config = DetectorConfig::default();
        let mut masked = BatchDetector::from_models(
            &[arm.clone(), arm.clone()],
            &[model.clone(), model.clone()],
            config,
        );
        let mut solo = BatchDetector::from_models(
            std::slice::from_ref(&arm),
            std::slice::from_ref(&model),
            config,
        );
        masked.arm_lane(0, thresholds);
        masked.arm_lane(1, thresholds);
        solo.arm_lane(0, thresholds);

        let coupling = params.coupling();
        for k in 0..30u64 {
            let t = k as f64 * 1e-3;
            let j = JointState::new(0.1 * (2.0 * t).sin(), 1.4 + 0.05 * (3.0 * t).cos(), 0.25);
            let mpos = coupling.joints_to_motors(&j);
            masked.sync_lane(0, mpos);
            solo.sync_lane(0, mpos);
            let dac = [400, -200, 150];
            // Lane 1 alternates active/parked; lane 0 never parks.
            let lane1 = if k % 3 == 0 {
                masked.sync_lane(1, mpos);
                Some(dac)
            } else {
                None
            };
            let got = masked.assess_lanes_masked(&[Some(dac), lane1]).to_vec();
            let expected = solo.assess_lanes(&[dac])[0];
            assert_eq!(got[0], expected, "engaged lane diverged at cycle {k}");
            assert_eq!(got[1].is_some(), lane1.is_some());
        }
        assert_eq!(masked.lane_assessments(0), solo.lane_assessments(0));
        assert_eq!(masked.lane_assessments(1), 10);
    }

    #[test]
    fn admit_retire_recycles_a_lane_onto_a_new_session() {
        let (arm_a, model_a, params) = session(4);
        let (arm_b, model_b, _) = session(5);
        let thresholds = trained_thresholds(&arm_a, &model_a, &params);
        let config = DetectorConfig::default();
        let mut batch = BatchDetector::from_models(
            &[arm_a.clone(), arm_a.clone()],
            &[model_a.clone(), model_a.clone()],
            config,
        );
        batch.arm_lane(0, thresholds);
        batch.arm_lane(1, thresholds);
        let mut fresh = BatchDetector::from_models(
            std::slice::from_ref(&arm_b),
            std::slice::from_ref(&model_b),
            config,
        );
        fresh.arm_lane(0, thresholds);

        let coupling = params.coupling();
        let mpos = coupling.joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        batch.sync_lane(0, mpos);
        batch.sync_lane(1, mpos);
        batch.assess_lanes(&[[300, 0, 0], [300, 0, 0]]);
        assert_eq!(batch.lane_assessments(1), 1);

        // Session on lane 1 leaves; a new session (different model) takes
        // the lane. The recycled lane must match a from-scratch batch of
        // the new session bit-for-bit.
        batch.retire_lane(1);
        assert_eq!(batch.lane_mode(1), DetectorMode::Learning);
        assert_eq!(batch.lane_assessments(1), 0);
        batch.admit_lane(1, arm_b, &model_b, Some(thresholds));
        assert_eq!(batch.lane_mode(1), DetectorMode::Armed);

        for k in 0..20u64 {
            let t = k as f64 * 1e-3;
            let j = JointState::new(0.08 * (2.5 * t).sin(), 1.42, 0.24);
            let m = coupling.joints_to_motors(&j);
            batch.sync_lane(0, mpos);
            batch.sync_lane(1, m);
            fresh.sync_lane(0, m);
            let got = batch.assess_lanes(&[[200, 0, 0], [500, -100, 50]]).to_vec();
            let expected = fresh.assess_lanes(&[[500, -100, 50]])[0];
            assert_eq!(got[1], expected, "recycled lane diverged at cycle {k}");
        }
        assert_eq!(batch.lane_assessments(1), fresh.lane_assessments(0));
    }

    #[test]
    #[should_panic(expected = "integrator configuration")]
    fn admitting_a_mismatched_model_config_panics() {
        let (arm, model, _) = session(6);
        let mut batch = BatchDetector::from_models(
            std::slice::from_ref(&arm),
            std::slice::from_ref(&model),
            DetectorConfig::default(),
        );
        let other = RtModel::with_config(
            *model.params(),
            raven_dynamics::RtModelConfig { step_size: 5e-4, ..model.config() },
        );
        batch.admit_lane(0, arm, &other, None);
    }

    #[test]
    fn estop_flag_is_per_lane() {
        let (arm, model, params) = session(2);
        let thresholds = trained_thresholds(&arm, &model, &params);
        let config = DetectorConfig::default();
        let mut batch =
            BatchDetector::from_models(&[arm.clone(), arm], &[model.clone(), model], config);
        batch.arm_lane(0, thresholds);
        batch.arm_lane(1, thresholds);
        let coupling = params.coupling();
        let calm = coupling.joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        batch.sync_lane(0, calm);
        batch.sync_lane(1, calm);
        batch.assess_lanes(&[[150, 0, 0], [150, 0, 0]]);
        // Lane 1 sees a runaway measurement + saturating command.
        let mut hot = calm;
        hot.angles[0] += 0.05;
        batch.sync_lane(0, calm);
        batch.sync_lane(1, hot);
        let verdicts = batch.assess_lanes(&[[150, 0, 0], [32_000, 0, 0]]);
        assert!(!verdicts[0].expect("lane 0").alarm());
        assert!(verdicts[1].expect("lane 1").alarm());
        assert!(!batch.lane_estop_requested(0));
        assert!(batch.lane_estop_requested(1));
        assert_eq!(batch.lane_first_alarm_assessment(1), Some(2));
    }
}
