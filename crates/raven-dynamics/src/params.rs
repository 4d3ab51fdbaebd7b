//! Combined plant parameter set.

use raven_kinematics::NUM_AXES;
use serde::{Deserialize, Serialize};

use crate::cable::CableParams;
use crate::link::LinkParams;
use crate::motor::MotorParams;

/// Mapping from DAC counts to amplifier current.
///
/// The RAVEN control software emits signed 16-bit DAC words per motor
/// channel (the `DAC_value` of the paper's Fig. 2); the amplifier converts
/// counts to current linearly up to its limit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DacScale {
    /// Amperes per DAC count.
    pub amps_per_count: f64,
}

impl DacScale {
    /// Full scale (±32767 counts) maps to ±3 A.
    pub fn raven_ii() -> Self {
        DacScale { amps_per_count: 3.0 / 32767.0 }
    }

    /// Commanded current for a DAC word.
    pub fn current(&self, dac: i16) -> f64 {
        f64::from(dac) * self.amps_per_count
    }

    /// DAC word for a commanded current, saturating at the i16 range.
    pub fn to_dac(&self, current: f64) -> i16 {
        let counts = current / self.amps_per_count;
        counts.round().clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
    }
}

impl Default for DacScale {
    fn default() -> Self {
        DacScale::raven_ii()
    }
}

/// Everything that defines the physical plant's dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlantParams {
    /// The three positioning motors (RE40, RE40, RE30).
    pub motors: [MotorParams; NUM_AXES],
    /// The three cable transmissions.
    pub cables: [CableParams; NUM_AXES],
    /// Manipulator link parameters.
    pub links: LinkParams,
    /// DAC-to-current scaling.
    pub dac: DacScale,
    /// Encoder resolution (counts per motor radian).
    pub encoder_counts_per_rad: f64,
    /// Time constant of the kinematic wrist servos (seconds).
    pub wrist_time_constant: f64,
    /// Cable-routing coefficients `(k21, k31, k32)` of the unit-lower-
    /// triangular routing matrix `K` (see
    /// `raven_kinematics::CouplingMatrix`): each cable's path length also
    /// depends on the proximal joints it is routed over, so at rest
    /// `mpos = N · K · jpos`.
    pub routing: (f64, f64, f64),
}

/// The relative model/robot parameter mismatch every detector model is
/// built with: the `fraction` passed to [`PlantParams::perturbed`] (the
/// residual error of the paper's hand-tuned model, Fig. 8).
pub const MODEL_MISMATCH: f64 = 0.02;

impl PlantParams {
    /// The nominal RAVEN II parameter set.
    pub fn raven_ii() -> Self {
        PlantParams {
            motors: [
                MotorParams::maxon_re40(),
                MotorParams::maxon_re40(),
                MotorParams::maxon_re30(),
            ],
            cables: [
                CableParams::new(75.94, 320.0, 7.0),
                CableParams::new(75.94, 280.0, 6.0),
                CableParams::new(167.8, 2.0e4, 110.0),
            ],
            links: LinkParams::raven_ii(),
            dac: DacScale::raven_ii(),
            encoder_counts_per_rad: 2546.5, // 4000-line encoder, 4x quadrature
            wrist_time_constant: 0.030,
            routing: (0.0, 0.08, 0.14),
        }
    }

    /// The joint↔motor coupling implied by these transmission parameters.
    /// `raven-core` builds the controller's `ArmConfig` from this, so the
    /// software's kinematic view and the plant's physics always agree.
    pub fn coupling(&self) -> raven_kinematics::CouplingMatrix {
        raven_kinematics::CouplingMatrix::new(self.ratios(), self.routing)
    }

    /// A plant state at rest (no cable stretch, zero velocity) at the given
    /// joint configuration.
    pub fn rest_state(&self, joints: raven_kinematics::JointState) -> crate::state::PlantState {
        let motors = self.coupling().joints_to_motors(&joints);
        let mut state = crate::state::PlantState::default();
        state.set_joint_pos(joints);
        state.set_motor_pos(motors);
        state
    }

    /// A copy with the *physical* constants (inertias, stiffnesses,
    /// frictions, masses) multiplied by `1 + ε`, `ε ~ U(−fraction, +fraction)`,
    /// deterministically from `seed`.
    ///
    /// The paper tunes its model coefficients manually against the real
    /// robot and still observes residual error (Fig. 8); giving the
    /// estimator a perturbed copy of the plant parameters reproduces that
    /// model/robot mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 0.5]`.
    pub fn perturbed(&self, seed: u64, fraction: f64) -> PlantParams {
        assert!((0.0..=0.5).contains(&fraction), "perturbation fraction out of [0, 0.5]");
        let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut jitter = move || {
            // SplitMix64 step, mapped to U(−fraction, fraction).
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut v = z;
            v = (v ^ (v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            v = (v ^ (v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            v ^= v >> 31;
            let u = (v >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            1.0 + (2.0 * u - 1.0) * fraction
        };
        let mut out = *self;
        for m in &mut out.motors {
            m.rotor_inertia *= jitter();
            m.viscous_friction *= jitter();
            m.coulomb_friction *= jitter();
        }
        for c in &mut out.cables {
            out.links.gravity *= 1.0; // keep gravity exact; it is known
            let s = jitter();
            let d = jitter();
            *c = CableParams::new(c.ratio, c.stiffness * s, c.damping * d);
        }
        out.links.shoulder_inertia *= jitter();
        out.links.elbow_inertia *= jitter();
        out.links.tool_mass *= jitter();
        for v in &mut out.links.viscous {
            *v *= jitter();
        }
        for c in &mut out.links.coulomb {
            *c *= jitter();
        }
        out
    }

    /// Transmission ratios as an array (motor rad per joint unit).
    pub fn ratios(&self) -> [f64; NUM_AXES] {
        [self.cables[0].ratio, self.cables[1].ratio, self.cables[2].ratio]
    }

    /// Shaft torques for a triple of DAC words.
    pub fn dac_to_torque(&self, dac: &[i16; NUM_AXES]) -> [f64; NUM_AXES] {
        let mut tau = [0.0; NUM_AXES];
        for i in 0..NUM_AXES {
            tau[i] = self.motors[i].torque_from_current(self.dac.current(dac[i]));
        }
        tau
    }
}

impl Default for PlantParams {
    fn default() -> Self {
        PlantParams::raven_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac_roundtrip_within_scale() {
        let d = DacScale::raven_ii();
        for amps in [-2.5, -1.0, 0.0, 0.5, 2.9] {
            let dac = d.to_dac(amps);
            assert!((d.current(dac) - amps).abs() < 1e-4);
        }
    }

    #[test]
    fn dac_saturates_at_i16() {
        let d = DacScale::raven_ii();
        assert_eq!(d.to_dac(100.0), i16::MAX);
        assert_eq!(d.to_dac(-100.0), i16::MIN);
    }

    #[test]
    fn dac_to_torque_signs() {
        let p = PlantParams::raven_ii();
        let tau = p.dac_to_torque(&[1000, -1000, 0]);
        assert!(tau[0] > 0.0 && tau[1] < 0.0 && tau[2] == 0.0);
        // RE40 on axis 0 is stronger than RE30 on axis 2 per count.
        let t2 = p.dac_to_torque(&[1000, 0, 1000]);
        assert!(t2[0] > t2[2]);
    }

    #[test]
    fn perturbed_is_deterministic_and_bounded() {
        let p = PlantParams::raven_ii();
        let a = p.perturbed(7, 0.05);
        let b = p.perturbed(7, 0.05);
        assert_eq!(a, b);
        let c = p.perturbed(8, 0.05);
        assert_ne!(a, c);
        // Within ±5%.
        let rel = (a.links.tool_mass - p.links.tool_mass).abs() / p.links.tool_mass;
        assert!(rel <= 0.05 + 1e-12);
        // Ratios (geometry) are untouched.
        assert_eq!(a.ratios(), p.ratios());
        // Zero fraction is the identity.
        assert_eq!(p.perturbed(3, 0.0), p);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn excessive_perturbation_panics() {
        let _ = PlantParams::raven_ii().perturbed(1, 0.9);
    }
}
