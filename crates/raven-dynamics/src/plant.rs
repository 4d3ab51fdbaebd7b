//! The ground-truth physical plant.
//!
//! [`RavenPlant`] stands in for the physical RAVEN II: it receives motor
//! torques (decoded from DAC words by the motor controllers), integrates the
//! coupled motor/cable/link ODEs with RK4 at sub-millisecond substeps, and
//! exposes quantized encoder readings — the feedback path of Fig. 1(b) in
//! the paper. Fail-safe brakes (engaged by the PLC in every state except
//! "Pedal Down") clamp the motor shafts, which is why the paper notes that
//! attacking outside Pedal Down "may not have the desired malicious effect"
//! (§III.B.3).

use raven_kinematics::{JointState, MotorState, NUM_AXES, WRIST_AXES};
use raven_math::ode::Method;
use serde::{Deserialize, Serialize};

use crate::params::PlantParams;
use crate::state::{PlantState, ODE_DIM};

/// Derivative of the 12-dimensional plant state under shaft torques `tau_m`.
///
/// Shared by the plant and the real-time estimator so both integrate the
/// same physics (with their own parameter sets).
pub fn derivative(
    params: &PlantParams,
    x: &[f64; ODE_DIM],
    tau_m: &[f64; NUM_AXES],
) -> [f64; ODE_DIM] {
    let mpos = [x[0], x[1], x[2]];
    let mvel = [x[3], x[4], x[5]];
    let jpos = [x[6], x[7], x[8]];
    let jvel = [x[9], x[10], x[11]];

    // Cable stretch in cable space: stretch = N⁻¹·mpos − K·jpos, where K is
    // the unit-lower-triangular routing matrix. The elastic energy
    // U = ½ Σ kᵢ·stretchᵢ² yields joint torques Kᵀ·f and motor reactions
    // fᵢ/nᵢ with f = k∘stretch + b∘stretch_rate — energy-consistent by
    // construction.
    let (k21, k31, k32) = params.routing;
    let kq = [jpos[0], k21 * jpos[0] + jpos[1], k31 * jpos[0] + k32 * jpos[1] + jpos[2]];
    let kqd = [jvel[0], k21 * jvel[0] + jvel[1], k31 * jvel[0] + k32 * jvel[1] + jvel[2]];

    let mut f = [0.0; NUM_AXES]; // cable-space forces
    let mut mdot = [0.0; NUM_AXES];
    for i in 0..NUM_AXES {
        let cable = &params.cables[i];
        let stretch = mpos[i] / cable.ratio - kq[i];
        let stretch_rate = mvel[i] / cable.ratio - kqd[i];
        f[i] = cable.stiffness * stretch + cable.damping * stretch_rate;
        let reaction = f[i] / cable.ratio;
        let friction = params.motors[i].friction(mvel[i]);
        mdot[i] = (tau_m[i] - friction - reaction) / params.motors[i].rotor_inertia;
    }
    // Joint torques: Kᵀ · f.
    let tau_cable = [f[0] + k21 * f[1] + k31 * f[2], f[1] + k32 * f[2], f[2]];

    let jdot = params.links.acceleration(&jpos, &jvel, &tau_cable);

    [
        mvel[0], mvel[1], mvel[2], // d mpos
        mdot[0], mdot[1], mdot[2], // d mvel
        jvel[0], jvel[1], jvel[2], // d jpos
        jdot[0], jdot[1], jdot[2], // d jvel
    ]
}

/// Quantized encoder snapshot of the three positioning motors plus the wrist
/// servo channels — what the USB read path reports back to the control
/// software each millisecond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EncoderReading {
    /// Encoder counts per positioning motor.
    pub counts: [i32; NUM_AXES],
    /// Wrist channel positions in millidegree-scale integer units.
    pub wrist_counts: [i32; WRIST_AXES],
}

/// The simulated physical robot.
///
/// # Example
///
/// ```
/// use raven_dynamics::{PlantParams, RavenPlant};
///
/// let mut plant = RavenPlant::new(PlantParams::raven_ii());
/// plant.release_brakes();
/// plant.step_control_period(&[0.02, 0.0, 0.0]);
/// assert!(plant.state().is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct RavenPlant {
    params: PlantParams,
    state: PlantState,
    brakes_engaged: bool,
    substeps: u32,
    time: f64,
    wrist_target: [f64; WRIST_AXES],
}

impl RavenPlant {
    /// Default number of RK4 substeps per 1 ms control period.
    pub const DEFAULT_SUBSTEPS: u32 = 10;

    /// Creates a plant at the mid-workspace rest configuration with brakes
    /// engaged (the robot powers up in E-STOP; paper Fig. 1(c)).
    pub fn new(params: PlantParams) -> Self {
        let home = raven_kinematics::JointLimits::raven_ii().center();
        Self::with_state(params, params.rest_state(home))
    }

    /// Creates a plant in an explicit initial state.
    pub fn with_state(params: PlantParams, state: PlantState) -> Self {
        RavenPlant {
            params,
            state,
            brakes_engaged: true,
            substeps: Self::DEFAULT_SUBSTEPS,
            time: 0.0,
            wrist_target: state.wrist,
        }
    }

    /// Overrides the number of RK4 substeps per control period.
    ///
    /// # Panics
    ///
    /// Panics if `substeps` is zero.
    pub fn set_substeps(&mut self, substeps: u32) {
        assert!(substeps > 0, "substeps must be positive");
        self.substeps = substeps;
    }

    /// Current plant state.
    pub fn state(&self) -> &PlantState {
        &self.state
    }

    /// Plant parameters.
    pub fn params(&self) -> &PlantParams {
        &self.params
    }

    /// Simulated physical time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Engages the fail-safe power-off brakes (PLC action in Pedal Up,
    /// Init, and E-STOP states).
    pub fn engage_brakes(&mut self) {
        self.brakes_engaged = true;
        // Power-off brakes stop the shafts; cable stretch relaxes quickly,
        // so joint velocity collapses too.
        for i in 3..6 {
            self.state.x[i] = 0.0;
        }
    }

    /// Releases the brakes (PLC action on entering Pedal Down).
    pub fn release_brakes(&mut self) {
        self.brakes_engaged = false;
    }

    /// `true` while the fail-safe brakes hold the motors.
    pub fn brakes_engaged(&self) -> bool {
        self.brakes_engaged
    }

    /// Sets the wrist servo targets (kinematic channels 3–6).
    pub fn set_wrist_targets(&mut self, targets: [f64; WRIST_AXES]) {
        self.wrist_target = targets;
    }

    /// Advances the plant by one 1 ms control period under constant shaft
    /// torques (zero-order hold, as the motor controllers apply between
    /// USB packets).
    pub fn step_control_period(&mut self, tau_m: &[f64; NUM_AXES]) {
        self.step(tau_m, 1e-3);
    }

    /// Advances the plant by `dt` seconds under constant shaft torques.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn step(&mut self, tau_m: &[f64; NUM_AXES], dt: f64) {
        assert!(dt.is_finite() && dt > 0.0, "invalid plant step dt = {dt}");
        let h = dt / f64::from(self.substeps);
        let torques = if self.brakes_engaged { [0.0; NUM_AXES] } else { *tau_m };
        for _ in 0..self.substeps {
            if self.brakes_engaged {
                // Brakes clamp the motor shafts: hold mpos/mvel, let the
                // joint side settle against the taut cable.
                let frozen = self.state.x;
                let deriv = |x: &[f64; ODE_DIM], _t: f64| {
                    let mut x_clamped = *x;
                    for i in 0..3 {
                        x_clamped[i] = frozen[i]; // mpos held
                        x_clamped[3 + i] = 0.0; // mvel zero
                    }
                    let mut d = derivative(&self.params, &x_clamped, &torques);
                    d[..6].fill(0.0);
                    d
                };
                self.state.x = Method::Rk4.step(&self.state.x, self.time, h, &deriv);
                self.state.x[..3].copy_from_slice(&frozen[..3]);
                self.state.x[3..6].fill(0.0);
            } else {
                let deriv = |x: &[f64; ODE_DIM], _t: f64| derivative(&self.params, x, &torques);
                self.state.x = Method::Rk4.step(&self.state.x, self.time, h, &deriv);
            }
            self.time += h;
        }
        // Wrist servos: exact first-order lag toward their targets.
        let lag = (-dt / self.params.wrist_time_constant).exp();
        for i in 0..WRIST_AXES {
            if !self.brakes_engaged {
                self.state.wrist[i] =
                    self.wrist_target[i] + (self.state.wrist[i] - self.wrist_target[i]) * lag;
            }
        }
    }

    /// Quantized encoder snapshot (what the USB boards report back).
    pub fn read_encoders(&self) -> EncoderReading {
        let m = self.state.motor_pos();
        let mut counts = [0i32; NUM_AXES];
        for (c, a) in counts.iter_mut().zip(m.angles.iter()) {
            *c = (a * self.params.encoder_counts_per_rad).round() as i32;
        }
        let mut wrist_counts = [0i32; WRIST_AXES];
        for (c, w) in wrist_counts.iter_mut().zip(self.state.wrist.iter()) {
            *c = (w * 1000.0).round() as i32;
        }
        EncoderReading { counts, wrist_counts }
    }

    /// Reconstructs motor positions from an encoder reading (the control
    /// software's view of `mpos`).
    pub fn decode_encoders(&self, reading: &EncoderReading) -> MotorState {
        let mut angles = [0.0; NUM_AXES];
        for (a, c) in angles.iter_mut().zip(reading.counts.iter()) {
            *a = f64::from(*c) / self.params.encoder_counts_per_rad;
        }
        MotorState::new(angles)
    }

    /// Ground-truth joint state (not available to the controller; used by
    /// experiments to label adverse impact).
    pub fn true_joints(&self) -> JointState {
        self.state.joint_pos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resting_plant() -> RavenPlant {
        let mut p = RavenPlant::new(PlantParams::raven_ii());
        p.release_brakes();
        p
    }

    #[test]
    fn rest_state_stays_near_rest_without_torque() {
        // Gravity at the mid-workspace configuration is small but nonzero;
        // the plant should sag slowly, not fly away.
        let mut plant = resting_plant();
        let j0 = plant.true_joints();
        for _ in 0..200 {
            plant.step_control_period(&[0.0; 3]);
        }
        let j1 = plant.true_joints();
        assert!(plant.state().is_finite());
        assert!(j1.delta(j0).max_abs() < 0.2, "drifted too far: {:?}", j1.delta(j0));
    }

    #[test]
    fn torque_accelerates_the_commanded_axis() {
        let mut plant = resting_plant();
        let j0 = plant.true_joints();
        for _ in 0..100 {
            plant.step_control_period(&[0.05, 0.0, 0.0]);
        }
        let j1 = plant.true_joints();
        assert!(j1.shoulder > j0.shoulder + 1e-4, "shoulder did not move");
        // Negative torque moves it back.
        let mut plant = resting_plant();
        for _ in 0..100 {
            plant.step_control_period(&[-0.05, 0.0, 0.0]);
        }
        assert!(plant.true_joints().shoulder < j0.shoulder - 1e-4);
    }

    #[test]
    fn brakes_hold_the_motors() {
        let mut plant = RavenPlant::new(PlantParams::raven_ii());
        assert!(plant.brakes_engaged());
        let m0 = plant.state().motor_pos();
        for _ in 0..100 {
            plant.step_control_period(&[0.18, 0.18, 0.07]); // full torque
        }
        let m1 = plant.state().motor_pos();
        assert_eq!(m0, m1, "brakes must clamp the shafts");
    }

    #[test]
    fn release_then_engage_stops_motion() {
        let mut plant = resting_plant();
        for _ in 0..50 {
            plant.step_control_period(&[0.08, 0.0, 0.0]);
        }
        assert!(plant.state().motor_vel()[0].abs() > 0.0);
        plant.engage_brakes();
        let m_frozen = plant.state().motor_pos();
        for _ in 0..50 {
            plant.step_control_period(&[0.08, 0.0, 0.0]);
        }
        assert_eq!(plant.state().motor_pos(), m_frozen);
        assert_eq!(plant.state().motor_vel(), [0.0; 3]);
    }

    #[test]
    fn encoder_roundtrip_quantizes() {
        let plant = RavenPlant::new(PlantParams::raven_ii());
        let reading = plant.read_encoders();
        let decoded = plant.decode_encoders(&reading);
        let truth = plant.state().motor_pos();
        for i in 0..3 {
            let err = (decoded.angles[i] - truth.angles[i]).abs();
            assert!(err <= 0.5 / plant.params().encoder_counts_per_rad + 1e-12);
        }
    }

    #[test]
    fn wrist_servos_track_targets() {
        let mut plant = resting_plant();
        plant.set_wrist_targets([0.5, -0.2, 0.1, 0.0]);
        for _ in 0..300 {
            plant.step_control_period(&[0.0; 3]);
        }
        let w = plant.state().wrist;
        assert!((w[0] - 0.5).abs() < 1e-3);
        assert!((w[1] + 0.2).abs() < 1e-3);
    }

    #[test]
    fn substeps_refine_but_do_not_change_physics() {
        let params = PlantParams::raven_ii();
        let run = |substeps: u32| {
            let mut p = RavenPlant::new(params);
            p.release_brakes();
            p.set_substeps(substeps);
            for _ in 0..100 {
                p.step_control_period(&[0.03, -0.02, 0.01]);
            }
            p.true_joints()
        };
        let coarse = run(5);
        let fine = run(40);
        assert!(coarse.delta(fine).max_abs() < 1e-4, "integration not converged");
    }

    #[test]
    fn time_advances() {
        let mut plant = resting_plant();
        for _ in 0..10 {
            plant.step_control_period(&[0.0; 3]);
        }
        assert!((plant.time() - 0.010).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid plant step")]
    fn bad_dt_panics() {
        let mut plant = resting_plant();
        plant.step(&[0.0; 3], -1.0);
    }

    #[test]
    #[should_panic(expected = "substeps")]
    fn zero_substeps_panics() {
        let mut plant = resting_plant();
        plant.set_substeps(0);
    }
}
