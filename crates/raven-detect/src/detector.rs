//! The dynamic model-based anomaly detector and its mitigation policies —
//! the paper's §IV.C, implemented as a guard on the USB write path.
//!
//! Placement matters: the paper argues the detector belongs "at lower layers
//! of control structure and just before the commands are going to be
//! executed on the physical robot" (§IV.C), downstream of any compromised
//! software. [`GuardInterceptor`] therefore installs as the *last* write
//! interceptor: it sees exactly the bytes the board would execute —
//! including any malware mutations — and vets them against the model's
//! one-step prediction *before* they reach the motors.

use std::sync::Arc;

use parking_lot::Mutex;
use raven_dynamics::RtModel;
use raven_hw::channel::{WriteAction, WriteContext, WriteInterceptor};
use raven_hw::{RobotState, UsbCommandPacket};
use raven_kinematics::{ArmConfig, MotorState, NUM_AXES};
use serde::{Deserialize, Serialize};
use simbus::obs::{names, spans, Event, EventKind, Severity, SharedObserver};
use simbus::{SpanGuard, SpanHandle};

use crate::batch::BatchDetector;
use crate::features::InstantFeatures;
use crate::mutants::DetectorMutation;
use crate::thresholds::{DetectionThresholds, ThresholdLearner};

/// What to do when a command is judged unsafe (paper §IV.C: "either
/// correcting the malicious control command by forcing the robot to stay in
/// a previously safe state or stopping the commands from execution and put
/// the control software into a safe state (E-STOP)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Mitigation {
    /// Record alarms but forward every command unchanged (shadow mode) —
    /// used by the evaluation campaigns to measure detection probability
    /// without altering the physical outcome (Table IV, Fig. 9).
    Observe,
    /// Replace the command with a zero-torque hold and keep holding for a
    /// cooldown window (availability-preserving: the brakes stay off and
    /// teleoperation resumes once commands look safe again).
    BlockAndHold,
    /// Suppress the command and demand an emergency stop
    /// (safety-maximizing).
    #[default]
    EStop,
}

/// How per-variable threshold exceedances combine into an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FusionRule {
    /// The paper's rule: alarm only when motor acceleration, motor velocity
    /// AND joint velocity all exceed on some axis ("raises an alert only
    /// when all three variables indicate an abnormality", §IV.C).
    #[default]
    AllThree,
    /// Ablation: any single exceedance alarms (more sensitive, more false
    /// alarms — the case the paper's fusion is designed to avoid).
    AnyOne,
}

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Percentile band for threshold learning (paper: 99.8–99.9).
    pub percentile_band: (f64, f64),
    /// Alarm fusion rule.
    pub fusion: FusionRule,
    /// Prediction horizon in control steps. 1 reproduces the paper's
    /// detector; 2 matches its "1 mm jump within 1–2 milliseconds" phrasing
    /// exactly; larger horizons model the §IV.C future-work "custom trusted
    /// hardware module" with budget for deeper rollouts: the candidate
    /// command is *held* for `lookahead_steps` model steps and the
    /// cumulative end-effector displacement is checked against the limit.
    pub lookahead_steps: u32,
    /// Hard cap on the predicted end-effector step per control period
    /// (paper: 1 mm per 1–2 ms, from expert surgeons).
    pub ee_step_limit: f64,
    /// Mitigation policy on alarm.
    pub mitigation: Mitigation,
    /// Cycles to keep substituting after an alarm in
    /// [`Mitigation::BlockAndHold`] — prevents an attacker from ratcheting
    /// velocity up between isolated alarms.
    pub hold_cooldown_cycles: u32,
    /// Control period (seconds).
    pub dt: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            percentile_band: (99.8, 99.9),
            fusion: FusionRule::AllThree,
            lookahead_steps: 2,
            ee_step_limit: 1.0e-3,
            mitigation: Mitigation::EStop,
            hold_cooldown_cycles: 50,
            dt: 1e-3,
        }
    }
}

/// One command assessment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Assessment {
    /// The computed instant features.
    pub features: InstantFeatures,
    /// Fused threshold exceedance (motor accel ∧ motor vel ∧ joint vel on
    /// some axis).
    pub threshold_alarm: bool,
    /// Predicted end-effector step above the hard 1 mm limit.
    pub ee_alarm: bool,
}

impl Assessment {
    /// Overall alarm decision.
    pub fn alarm(&self) -> bool {
        self.threshold_alarm || self.ee_alarm
    }
}

/// Operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorMode {
    /// Accumulating fault-free statistics; never alarms.
    Learning,
    /// Armed with thresholds; assessing every Pedal-Down command.
    Armed,
}

/// Attempted to arm a detector that never saw a fault-free sample — there
/// is nothing to learn thresholds from (the paper's protocol trains on 600
/// fault-free runs first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoFaultFreeSamples;

impl std::fmt::Display for NoFaultFreeSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cannot arm: no fault-free samples observed")
    }
}

impl std::error::Error for NoFaultFreeSamples {}

/// The detector core: real-time model + measurement tracking + thresholds.
///
/// The assessment itself — model step, instant features, lookahead,
/// fusion, the end-effector limit and the alarm counters — is lane 0 of
/// a one-lane [`BatchDetector`], the same code the fleet monitor runs.
/// What stays here is scalar by design: threshold learning, and the
/// mitigation state the [`GuardInterceptor`] drives (safe-command
/// history, hold cooldown, the mitigation-window span).
///
/// Share it between the harness (which feeds encoder measurements each
/// cycle via [`DynamicDetector::sync_measurement`]) and the
/// [`GuardInterceptor`] on the write path via [`shared`].
#[derive(Debug)]
pub struct DynamicDetector {
    model: RtModel,
    /// The assessment path: one lane, built from `model`.
    batch: BatchDetector,
    learner: ThresholdLearner,
    /// Ring buffer of recent non-alarming commands; substitution uses the
    /// *oldest* entry (~128 ms back), guaranteed to predate any attack the
    /// detector catches within its latency.
    safe_history: std::collections::VecDeque<[i16; raven_hw::DAC_CHANNELS]>,
    hold_cooldown: u32,
    last_assessment: Option<Assessment>,
    spans: SpanHandle,
    /// Open `span.mitigation.window` guard: opened on the first alarm,
    /// closed when the hold cooldown drains (or at session reset/teardown).
    mitigation_span: Option<SpanGuard>,
}

impl DynamicDetector {
    /// Creates a detector in learning mode.
    ///
    /// `model` is the real-time model — typically built from a *perturbed*
    /// parameter set, reflecting that the paper's hand-tuned model does not
    /// match the robot exactly (Fig. 8).
    pub fn new(arm: ArmConfig, model: RtModel, config: DetectorConfig) -> Self {
        let batch = BatchDetector::from_models(&[arm], std::slice::from_ref(&model), config);
        DynamicDetector {
            model,
            batch,
            learner: ThresholdLearner::new(),
            safe_history: std::collections::VecDeque::new(),
            hold_cooldown: 0,
            last_assessment: None,
            spans: SpanHandle::default(),
            mitigation_span: None,
        }
    }

    /// Installs a span handle so every assessment runs under a
    /// `span.detector.verdict` span and alarms open the
    /// `span.mitigation.window` span. Disabled handles cost nothing.
    pub fn set_span_handle(&mut self, handle: SpanHandle) {
        self.spans = handle;
    }

    /// Closes the mitigation-window span, if one is open.
    pub fn close_mitigation_window(&mut self) {
        self.mitigation_span = None;
    }

    /// Installs (or clears) a kill-suite mutant. Test-only: exists solely
    /// for the `raven-verify` mutation kill-suite.
    #[cfg(feature = "mutant-hooks")]
    pub fn set_mutation(&mut self, mutation: Option<DetectorMutation>) {
        self.batch.set_mutation(mutation);
    }

    /// The installed kill-suite mutant, if any.
    #[cfg(feature = "mutant-hooks")]
    pub fn mutation(&self) -> Option<DetectorMutation> {
        self.batch.mutation()
    }

    /// Current mode.
    pub fn mode(&self) -> DetectorMode {
        self.batch.lane_mode(0)
    }

    /// The configuration.
    pub fn config(&self) -> DetectorConfig {
        self.batch.config()
    }

    /// Learned thresholds, once armed.
    pub fn thresholds(&self) -> Option<&DetectionThresholds> {
        self.batch.lane_thresholds(0)
    }

    /// The threshold learner (for inspection and the 600-run protocol).
    pub fn learner(&self) -> &ThresholdLearner {
        &self.learner
    }

    /// The real-time model the assessment lane was built from; the lane
    /// steps bit-identically to [`RtModel::predict`] (the batch module's
    /// equivalence contract).
    pub fn model(&self) -> &RtModel {
        &self.model
    }

    /// Commands assessed while armed.
    pub fn assessments(&self) -> u64 {
        self.batch.lane_assessments(0)
    }

    /// Alarms raised while armed.
    pub fn alarms(&self) -> u64 {
        self.batch.lane_alarms(0)
    }

    /// `true` once any alarm has fired in this session.
    pub fn alarmed(&self) -> bool {
        self.alarms() > 0
    }

    /// Assessment index (1-based) of the first alarm, if any — the basis of
    /// detection-latency measurements.
    pub fn first_alarm_assessment(&self) -> Option<u64> {
        self.batch.lane_first_alarm_assessment(0)
    }

    /// `true` when the E-STOP mitigation has been requested.
    pub fn estop_requested(&self) -> bool {
        self.batch.lane_estop_requested(0)
    }

    /// The most recent assessment.
    pub fn last_assessment(&self) -> Option<&Assessment> {
        self.last_assessment.as_ref()
    }

    /// Feeds the measured motor positions for this cycle (from the encoder
    /// feedback). The detector reconstructs velocities by differencing and
    /// joint states through the coupling — the same information the real
    /// detector extracts from the USB read path.
    pub fn sync_measurement(&mut self, mpos: MotorState) {
        self.batch.sync_lane(0, mpos);
    }

    /// Assesses a candidate DAC command against the model's prediction.
    /// Returns `None` when no measurement has been synced yet.
    ///
    /// The instant features come from the one-step prediction (the paper's
    /// detector); with `lookahead_steps > 1` the command is additionally
    /// rolled out over the horizon and the *cumulative* end-effector
    /// displacement is checked against the limit. While learning, the
    /// features feed the threshold learner and never alarm.
    pub fn assess(&mut self, dac: &[i16; NUM_AXES]) -> Option<Assessment> {
        let _verdict = self.spans.begin(spans::DETECTOR_VERDICT);
        let assessment = self.batch.assess_lanes(std::slice::from_ref(dac))[0]?;
        if self.mode() == DetectorMode::Learning {
            self.learner.observe(&assessment.features);
            return Some(assessment);
        }
        if assessment.alarm() && self.spans.is_enabled() && self.mitigation_span.is_none() {
            self.mitigation_span = Some(self.spans.begin_floating(spans::MITIGATION_WINDOW));
        }
        self.last_assessment = Some(assessment);
        Some(assessment)
    }

    /// Marks the end of one fault-free learning run.
    pub fn end_learning_run(&mut self) {
        self.learner.end_run();
    }

    /// Finalizes learning: computes thresholds at the configured percentile
    /// band and arms the detector.
    ///
    /// # Errors
    ///
    /// Returns [`NoFaultFreeSamples`] when no fault-free samples were
    /// observed — there is nothing to learn from.
    pub fn arm(&mut self) -> Result<(), NoFaultFreeSamples> {
        let (lo, hi) = self.config().percentile_band;
        let thresholds = self.learner.learn(lo, hi).ok_or(NoFaultFreeSamples)?;
        self.arm_with(thresholds);
        Ok(())
    }

    /// Arms with externally supplied thresholds (e.g. deserialized from a
    /// previous training campaign).
    pub fn arm_with(&mut self, thresholds: DetectionThresholds) {
        self.batch.arm_lane(0, thresholds);
    }

    /// Clears per-session alarm state (between campaign runs).
    pub fn reset_session(&mut self) {
        self.batch.reset_session(0);
        self.last_assessment = None;
        self.safe_history.clear();
        self.hold_cooldown = 0;
        self.mitigation_span = None;
    }

    /// Depth of the safe-command history (cycles).
    const SAFE_HISTORY_DEPTH: usize = 128;

    fn remember_safe(&mut self, dac: [i16; raven_hw::DAC_CHANNELS]) {
        if self.safe_history.len() == Self::SAFE_HISTORY_DEPTH {
            self.safe_history.pop_front();
        }
        self.safe_history.push_back(dac);
    }
}

/// A shareable handle to a detector.
pub type SharedDetector = Arc<Mutex<DynamicDetector>>;

/// Wraps a detector for sharing between the guard and the harness.
pub fn shared(detector: DynamicDetector) -> SharedDetector {
    Arc::new(Mutex::new(detector))
}

/// The write-path guard: assesses every Pedal-Down command packet before it
/// reaches the USB board, and mitigates on alarm.
#[derive(Debug)]
pub struct GuardInterceptor {
    detector: SharedDetector,
    observer: Option<SharedObserver>,
}

impl GuardInterceptor {
    /// Interceptor name.
    pub const NAME: &'static str = "dynamic-model-guard";

    /// Creates a guard over a shared detector.
    pub fn new(detector: SharedDetector) -> Self {
        GuardInterceptor { detector, observer: None }
    }

    /// Creates a guard that also reports assessments, verdicts, and blocked
    /// commands into an observer (events stamped with the write's virtual
    /// time from [`WriteContext`]).
    pub fn with_observer(detector: SharedDetector, observer: SharedObserver) -> Self {
        GuardInterceptor { detector, observer: Some(observer) }
    }
}

impl WriteInterceptor for GuardInterceptor {
    fn on_write(&mut self, buf: &mut Vec<u8>, ctx: &WriteContext) -> WriteAction {
        let Ok(pkt) = UsbCommandPacket::decode_unchecked(buf) else {
            // Undecodable buffers cannot be executed by the board anyway.
            return WriteAction::Forward;
        };
        // Outside Pedal Down the brakes hold the robot; commands are inert.
        if pkt.state != RobotState::PedalDown {
            return WriteAction::Forward;
        }
        let mut det = self.detector.lock();
        let dac3 = [pkt.dac[0], pkt.dac[1], pkt.dac[2]];
        let Some(assessment) = det.assess(&dac3) else {
            return WriteAction::Forward;
        };
        if det.mode() == DetectorMode::Armed {
            if let Some(obs) = &self.observer {
                obs.lock().metrics.inc(names::DETECTOR_ASSESSMENTS);
            }
        }
        let holding = det.hold_cooldown > 0;
        if !assessment.alarm() && !holding {
            det.remember_safe(pkt.dac);
            return WriteAction::Forward;
        }
        // "blocked" = the board does not receive the command verbatim
        // (dropped outright, or substituted with a safe hold).
        let (action, blocked) = if det.batch.mutated(DetectorMutation::BlockPathDisabled) {
            (WriteAction::Forward, false)
        } else {
            match det.config().mitigation {
                Mitigation::Observe => (WriteAction::Forward, false),
                Mitigation::EStop => (WriteAction::Drop, true),
                Mitigation::BlockAndHold => {
                    // Substitute a zero-torque hold, keeping the incoming
                    // state byte (the watchdog must keep toggling or the
                    // PLC will independently E-STOP), and keep substituting
                    // through the cooldown window. Substituting the *last
                    // seen* command would be unsafe: the first packets of
                    // an injection pass before velocity builds and would be
                    // replayed forever.
                    if assessment.alarm() {
                        let ignored = det.batch.mutated(DetectorMutation::CooldownIgnored);
                        det.hold_cooldown =
                            if ignored { 0 } else { det.config().hold_cooldown_cycles };
                    } else {
                        det.hold_cooldown = det.hold_cooldown.saturating_sub(1);
                        if det.hold_cooldown == 0 {
                            det.close_mitigation_window();
                        }
                    }
                    let held = if det.batch.mutated(DetectorMutation::HoldSubstitutesLatest) {
                        det.safe_history.back()
                    } else {
                        det.safe_history.front()
                    };
                    match held.copied() {
                        None => (WriteAction::Drop, true),
                        Some(mut dac) => {
                            // Wrist channels are positional set-points, not
                            // torques — hold them at their freshly
                            // commanded values.
                            dac[3..].copy_from_slice(&pkt.dac[3..]);
                            let replacement =
                                UsbCommandPacket { state: pkt.state, watchdog: pkt.watchdog, dac };
                            *buf = replacement.encode().to_vec();
                            (WriteAction::Forward, true)
                        }
                    }
                }
            }
        };
        if let Some(obs) = &self.observer {
            let mut obs = obs.lock();
            if blocked {
                obs.metrics.inc(names::DETECTOR_BLOCKED_COMMANDS);
            }
            if assessment.alarm() {
                obs.metrics.inc(names::DETECTOR_ALARMS);
                let action_label = match action {
                    WriteAction::Drop => "drop",
                    WriteAction::Forward if blocked => "hold",
                    WriteAction::Forward => "observe",
                };
                obs.event(
                    Event::new(ctx.time, "detector", Severity::Warn, EventKind::DetectorVerdict)
                        .with("assessment", det.assessments())
                        .with("seq", ctx.seq)
                        .with("threshold_alarm", assessment.threshold_alarm)
                        .with("ee_alarm", assessment.ee_alarm)
                        .with("ee_step_mm", assessment.features.ee_step * 1e3)
                        .with("action", action_label),
                );
            }
        }
        action
    }

    fn name(&self) -> &str {
        Self::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_dynamics::PlantParams;
    use raven_kinematics::JointState;
    use simbus::SimTime;

    fn setup(mitigation: Mitigation) -> (SharedDetector, PlantParams) {
        let params = PlantParams::raven_ii();
        let arm = ArmConfig::builder().coupling(params.coupling()).build();
        let model = RtModel::new(params.perturbed(1, 0.02));
        let config = DetectorConfig { mitigation, ..DetectorConfig::default() };
        let det = DynamicDetector::new(arm, model, config);
        (shared(det), params)
    }

    /// Trains on gentle synthetic motion and arms.
    fn train_and_arm(det: &SharedDetector, params: &PlantParams) {
        let mut d = det.lock();
        let coupling = params.coupling();
        for k in 0..2000u64 {
            let t = k as f64 * 1e-3;
            // Gentle sinusoidal joint motion, ~0.1 rad amplitude.
            let j = JointState::new(
                0.1 * (2.0 * t).sin(),
                1.4 + 0.08 * (1.5 * t).cos(),
                0.25 + 0.01 * (1.0 * t).sin(),
            );
            d.sync_measurement(coupling.joints_to_motors(&j));
            d.assess(&[200, 150, -100]);
        }
        d.end_learning_run();
        d.arm().expect("training fed fault-free samples");
    }

    /// Feeds a measurement showing the shoulder motor running away
    /// (~50 rad/s over one cycle), as seen mid-injection.
    fn runaway_measurement(det: &SharedDetector, params: &PlantParams) {
        let mut m = params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        m.angles[0] += 0.05;
        det.lock().sync_measurement(m);
    }

    fn pedal_down_packet(dac0: i16) -> Vec<u8> {
        UsbCommandPacket {
            state: RobotState::PedalDown,
            watchdog: true,
            dac: [dac0, 0, 0, 0, 0, 0, 0, 0],
        }
        .encode()
        .to_vec()
    }

    fn ctx() -> WriteContext {
        WriteContext {
            time: SimTime::ZERO,
            seq: 0,
            process: raven_hw::UsbChannel::PROCESS,
            fd: raven_hw::UsbChannel::BOARD_FD,
        }
    }

    #[test]
    fn learning_mode_never_alarms() {
        let (det, params) = setup(Mitigation::EStop);
        let mut d = det.lock();
        d.sync_measurement(params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
        let a = d.assess(&[30_000, 0, 0]).unwrap();
        assert!(!a.alarm());
        assert_eq!(d.alarms(), 0);
        assert_eq!(d.mode(), DetectorMode::Learning);
    }

    #[test]
    fn armed_detector_flags_violent_command_and_passes_gentle() {
        let (det, params) = setup(Mitigation::EStop);
        train_and_arm(&det, &params);
        let mut d = det.lock();
        d.reset_session(); // fresh session: no stale differenced velocity
        d.sync_measurement(params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
        let gentle = d.assess(&[150, 100, -50]).unwrap();
        assert!(!gentle.alarm(), "gentle command must pass: {gentle:?}");
        // Mid-attack: the measured motors are already running away (as they
        // are a couple of milliseconds into a torque injection), and the
        // malicious command would keep accelerating them.
        let mut m = params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25));
        m.angles[0] += 0.05; // 50 rad/s measured over one cycle
        d.sync_measurement(m);
        let violent = d.assess(&[32_000, 0, 0]).unwrap();
        assert!(violent.alarm(), "runaway + saturating command must alarm: {violent:?}");
        assert!(d.alarmed());
        assert!(d.estop_requested());
    }

    #[test]
    fn guard_drops_alarming_packet_in_estop_mode() {
        let (det, params) = setup(Mitigation::EStop);
        train_and_arm(&det, &params);
        {
            let mut d = det.lock();
            d.reset_session();
            d.sync_measurement(
                params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)),
            );
        }
        let mut guard = GuardInterceptor::new(Arc::clone(&det));
        let mut safe = pedal_down_packet(150);
        assert_eq!(guard.on_write(&mut safe, &ctx()), WriteAction::Forward);
        runaway_measurement(&det, &params);
        let mut hot = pedal_down_packet(32_000);
        assert_eq!(guard.on_write(&mut hot, &ctx()), WriteAction::Drop);
        assert!(det.lock().estop_requested());
    }

    #[test]
    fn guard_substitutes_last_safe_in_hold_mode() {
        let (det, params) = setup(Mitigation::BlockAndHold);
        train_and_arm(&det, &params);
        {
            let mut d = det.lock();
            d.reset_session();
            d.sync_measurement(
                params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)),
            );
        }
        let mut guard = GuardInterceptor::new(Arc::clone(&det));
        let mut safe = pedal_down_packet(150);
        guard.on_write(&mut safe, &ctx());
        runaway_measurement(&det, &params);
        let mut hot = pedal_down_packet(32_000);
        assert_eq!(guard.on_write(&mut hot, &ctx()), WriteAction::Forward);
        let substituted = UsbCommandPacket::decode_unchecked(&hot).unwrap();
        assert_eq!(substituted.dac[0], 150, "last-safe DAC substituted");
        assert!(!det.lock().estop_requested(), "hold mode must not demand E-STOP");
    }

    #[test]
    fn guard_ignores_non_pedal_down_states() {
        let (det, params) = setup(Mitigation::EStop);
        train_and_arm(&det, &params);
        det.lock()
            .sync_measurement(params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
        let mut guard = GuardInterceptor::new(Arc::clone(&det));
        let mut pkt =
            UsbCommandPacket { state: RobotState::PedalUp, watchdog: true, dac: [32_000; 8] }
                .encode()
                .to_vec();
        assert_eq!(guard.on_write(&mut pkt, &ctx()), WriteAction::Forward);
        assert_eq!(det.lock().assessments(), 0);
    }

    #[test]
    fn guard_forwards_without_measurement() {
        let (det, params) = setup(Mitigation::EStop);
        train_and_arm(&det, &params);
        det.lock().reset_session(); // clears the tracked state
        let mut guard = GuardInterceptor::new(det);
        let mut pkt = pedal_down_packet(32_000);
        assert_eq!(guard.on_write(&mut pkt, &ctx()), WriteAction::Forward);
        let _ = params;
    }

    #[test]
    fn reset_session_clears_counters_but_keeps_thresholds() {
        let (det, params) = setup(Mitigation::EStop);
        train_and_arm(&det, &params);
        let mut d = det.lock();
        d.sync_measurement(params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)));
        d.assess(&[32_000, 0, 0]);
        assert!(d.alarmed());
        d.reset_session();
        assert!(!d.alarmed());
        assert!(!d.estop_requested());
        assert_eq!(d.mode(), DetectorMode::Armed);
        assert!(d.thresholds().is_some());
    }

    #[test]
    fn arming_without_samples_errors() {
        let (det, _) = setup(Mitigation::EStop);
        assert_eq!(det.lock().arm(), Err(NoFaultFreeSamples));
        assert_eq!(det.lock().mode(), DetectorMode::Learning);
    }

    #[test]
    fn observed_guard_reports_assessments_verdicts_and_blocks() {
        let (det, params) = setup(Mitigation::EStop);
        train_and_arm(&det, &params);
        {
            let mut d = det.lock();
            d.reset_session();
            d.sync_measurement(
                params.coupling().joints_to_motors(&JointState::new(0.0, 1.4, 0.25)),
            );
        }
        let obs = simbus::obs::shared_observer(64);
        let mut guard = GuardInterceptor::with_observer(Arc::clone(&det), Arc::clone(&obs));
        let mut safe = pedal_down_packet(150);
        guard.on_write(&mut safe, &ctx());
        runaway_measurement(&det, &params);
        let mut hot = pedal_down_packet(32_000);
        assert_eq!(guard.on_write(&mut hot, &ctx()), WriteAction::Drop);
        let o = obs.lock();
        assert_eq!(o.metrics.counter("detector.assessments"), 2);
        assert_eq!(o.metrics.counter("detector.alarms"), 1);
        assert_eq!(o.metrics.counter("detector.blocked_commands"), 1);
        assert_eq!(o.events.count_kind("detector.verdict"), 1);
        let verdict = o.events.last().unwrap();
        assert_eq!(verdict.field("action"), Some(&simbus::obs::FieldValue::Str("drop".into())));
    }
}
