//! Structure-of-arrays batch kernel for the real-time estimator.
//!
//! The paper's detection budget is per control cycle *per robot*
//! (§IV.A.1: 0.011 ms/step Euler, 0.032 ms/step RK4), so a fleet of M
//! teleoperation sessions pays the estimator inner loop M times per
//! millisecond. [`BatchModel`] steps M sessions per call over
//! cache-dense parallel arrays: the 12-dim ODE state, shaft torques,
//! and the per-axis transmission constants are all stored dim-major
//! (`x[dim * lanes + lane]`), so the cable-coupling and motor updates
//! sweep contiguous lanes while the trig-heavy link dynamics are
//! evaluated per lane through the *same* [`LinkParams::acceleration`]
//! the scalar path uses.
//!
//! # Bit-identity contract
//!
//! Every lane of a batched step computes *exactly* the scalar
//! expressions of [`crate::plant::derivative`] and
//! [`raven_math::ode::Method::step`], in the same order, on the same
//! values. IEEE-754 arithmetic is deterministic, so a batch of M lanes
//! is bitwise-equal to M independent [`RtModel::predict`](crate::RtModel::predict) calls — the
//! property the scalar detector relies on when it delegates its own
//! stepping to a 1-lane batch, and the one `tests/batch_equiv.rs` pins
//! under proptest across perturbed parameter sets and both
//! integrators. All scratch (RK4 stages, cable-force rows) is
//! allocated once at construction; stepping never allocates.

use raven_kinematics::{NUM_AXES, WRIST_AXES};
use raven_math::ode::BatchScratch;

use crate::estimator::RtModelConfig;
use crate::link::LinkParams;
use crate::params::PlantParams;
use crate::state::{PlantState, ODE_DIM};

/// Per-axis transmission/motor constants, flattened dim-major
/// (`row[axis * lanes + lane]`) so the derivative's lane-inner loops
/// read every operand at stride 1.
#[derive(Debug, Clone)]
struct SoaParams {
    lanes: usize,
    /// Cable transmission ratio, stiffness, damping (`NUM_AXES * lanes`).
    ratio: Vec<f64>,
    stiffness: Vec<f64>,
    damping: Vec<f64>,
    /// Motor viscous/Coulomb friction and rotor inertia (`NUM_AXES * lanes`).
    viscous: Vec<f64>,
    coulomb: Vec<f64>,
    rotor_inertia: Vec<f64>,
    /// Cable-routing coefficients (`lanes` each).
    k21: Vec<f64>,
    k31: Vec<f64>,
    k32: Vec<f64>,
    /// Link dynamics, evaluated per lane (trig-heavy, shared with the
    /// scalar path for bit-identity).
    links: Vec<LinkParams>,
}

impl SoaParams {
    fn from_params(params: &[PlantParams]) -> Self {
        let m = params.len();
        let mut soa = SoaParams {
            lanes: m,
            ratio: vec![0.0; NUM_AXES * m],
            stiffness: vec![0.0; NUM_AXES * m],
            damping: vec![0.0; NUM_AXES * m],
            viscous: vec![0.0; NUM_AXES * m],
            coulomb: vec![0.0; NUM_AXES * m],
            rotor_inertia: vec![0.0; NUM_AXES * m],
            k21: vec![0.0; m],
            k31: vec![0.0; m],
            k32: vec![0.0; m],
            links: params.iter().map(|p| p.links).collect(),
        };
        for (l, p) in params.iter().enumerate() {
            for i in 0..NUM_AXES {
                soa.ratio[i * m + l] = p.cables[i].ratio;
                soa.stiffness[i * m + l] = p.cables[i].stiffness;
                soa.damping[i * m + l] = p.cables[i].damping;
                soa.viscous[i * m + l] = p.motors[i].viscous_friction;
                soa.coulomb[i * m + l] = p.motors[i].coulomb_friction;
                soa.rotor_inertia[i * m + l] = p.motors[i].rotor_inertia;
            }
            let (k21, k31, k32) = p.routing;
            soa.k21[l] = k21;
            soa.k31[l] = k31;
            soa.k32[l] = k32;
        }
        soa
    }
}

/// Flattened batch derivative: per-lane it is *exactly*
/// [`crate::plant::derivative`] (same expressions, same evaluation
/// order), restructured so the cable/motor arithmetic runs lane-inner
/// over contiguous rows. `phys` is `3 * NUM_AXES * lanes` scratch for
/// the `kq` / `kqd` / cable-force rows.
fn derivative_lanes(soa: &SoaParams, x: &[f64], tau: &[f64], phys: &mut [f64], out: &mut [f64]) {
    let m = soa.lanes;
    debug_assert_eq!(x.len(), ODE_DIM * m);
    debug_assert_eq!(out.len(), ODE_DIM * m);
    debug_assert_eq!(tau.len(), NUM_AXES * m);
    debug_assert_eq!(phys.len(), 3 * NUM_AXES * m);

    // d mpos = mvel, d jpos = jvel: whole-row copies.
    out[..NUM_AXES * m].copy_from_slice(&x[NUM_AXES * m..2 * NUM_AXES * m]);
    out[2 * NUM_AXES * m..3 * NUM_AXES * m].copy_from_slice(&x[3 * NUM_AXES * m..ODE_DIM * m]);

    let (kq, rest) = phys.split_at_mut(NUM_AXES * m);
    let (kqd, f) = rest.split_at_mut(NUM_AXES * m);

    // Routing rows: kq = K·jpos, kqd = K·jvel (unit-lower-triangular K),
    // matching the scalar `kq` / `kqd` arrays element for element.
    let (jp, jv) = (2 * NUM_AXES * m, 3 * NUM_AXES * m);
    kq[..m].copy_from_slice(&x[jp..jp + m]);
    kqd[..m].copy_from_slice(&x[jv..jv + m]);
    for l in 0..m {
        kq[m + l] = soa.k21[l] * x[jp + l] + x[jp + m + l];
        kqd[m + l] = soa.k21[l] * x[jv + l] + x[jv + m + l];
        kq[2 * m + l] = soa.k31[l] * x[jp + l] + soa.k32[l] * x[jp + m + l] + x[jp + 2 * m + l];
        kqd[2 * m + l] = soa.k31[l] * x[jv + l] + soa.k32[l] * x[jv + m + l] + x[jv + 2 * m + l];
    }

    // Cable forces and motor accelerations, lane-inner per axis.
    for i in 0..NUM_AXES {
        let row = i * m;
        for l in 0..m {
            let ratio = soa.ratio[row + l];
            let stretch = x[row + l] / ratio - kq[row + l];
            let stretch_rate = x[NUM_AXES * m + row + l] / ratio - kqd[row + l];
            let fv = soa.stiffness[row + l] * stretch + soa.damping[row + l] * stretch_rate;
            f[row + l] = fv;
            let reaction = fv / ratio;
            let omega = x[NUM_AXES * m + row + l];
            let friction =
                soa.viscous[row + l] * omega + soa.coulomb[row + l] * (omega / 2.0).tanh();
            out[NUM_AXES * m + row + l] =
                (tau[row + l] - friction - reaction) / soa.rotor_inertia[row + l];
        }
    }

    // Joint torques Kᵀ·f and link accelerations, per lane (trig-heavy;
    // shares the scalar `LinkParams::acceleration` for bit-identity).
    for l in 0..m {
        let tau_cable = [
            f[l] + soa.k21[l] * f[m + l] + soa.k31[l] * f[2 * m + l],
            f[m + l] + soa.k32[l] * f[2 * m + l],
            f[2 * m + l],
        ];
        let jpos = [x[jp + l], x[jp + m + l], x[jp + 2 * m + l]];
        let jvel = [x[jv + l], x[jv + m + l], x[jv + 2 * m + l]];
        let jdot = soa.links[l].acceleration(&jpos, &jvel, &tau_cable);
        out[jv + l] = jdot[0];
        out[jv + m + l] = jdot[1];
        out[jv + 2 * m + l] = jdot[2];
    }
}

/// M estimator sessions stepped together over structure-of-arrays
/// storage.
///
/// # Example
///
/// ```
/// use raven_dynamics::{BatchModel, PlantParams, RtModel};
/// use raven_kinematics::JointState;
///
/// let params = PlantParams::raven_ii();
/// let state = params.rest_state(JointState::new(0.0, 1.4, 0.25));
/// let scalar = RtModel::new(params);
///
/// let mut batch = BatchModel::with_params(&[params, params.perturbed(7, 0.02)], scalar.config());
/// batch.load_state(0, &state);
/// batch.load_state(1, &state);
/// batch.set_dac(0, &[500, 0, 0]);
/// batch.set_dac(1, &[500, 0, 0]);
/// batch.step_lanes();
///
/// // Lane 0 (exact parameters) is bit-identical to the scalar model.
/// assert_eq!(batch.state(0), scalar.predict(&state, &[500, 0, 0]));
/// ```
#[derive(Debug, Clone)]
pub struct BatchModel {
    config: RtModelConfig,
    params: Vec<PlantParams>,
    soa: SoaParams,
    /// ODE states, dim-major: `x[dim * lanes + lane]`.
    x: Vec<f64>,
    /// Wrist servo positions, carried outside the ODE (`WRIST_AXES * lanes`).
    wrist: Vec<f64>,
    /// Latched shaft torques (`NUM_AXES * lanes`).
    tau: Vec<f64>,
    /// Step output, swapped with `x` after each step.
    next: Vec<f64>,
    /// Integrator scratch: k1..k4 + stage (`5 * ODE_DIM * lanes`).
    k: Vec<f64>,
    /// Derivative scratch: kq/kqd/cable-force rows (`9 * lanes`).
    phys: Vec<f64>,
}

impl BatchModel {
    /// Creates a batch with one lane per parameter set, every lane at
    /// the all-zero state with zero latched torque. All lanes share one
    /// integrator configuration (a fleet mixing integrators would break
    /// the single-dispatch step loop).
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty or the step size is not positive and
    /// finite (same contract as [`RtModel::with_config`](crate::RtModel::with_config)).
    pub fn with_params(params: &[PlantParams], config: RtModelConfig) -> Self {
        assert!(!params.is_empty(), "batch model needs at least one lane");
        assert!(
            config.step_size.is_finite() && config.step_size > 0.0,
            "invalid model step size {}",
            config.step_size
        );
        let m = params.len();
        BatchModel {
            config,
            params: params.to_vec(),
            soa: SoaParams::from_params(params),
            x: vec![0.0; ODE_DIM * m],
            wrist: vec![0.0; WRIST_AXES * m],
            tau: vec![0.0; NUM_AXES * m],
            next: vec![0.0; ODE_DIM * m],
            k: vec![0.0; 5 * ODE_DIM * m],
            phys: vec![0.0; 3 * NUM_AXES * m],
        }
    }

    /// Number of sessions stepped per call.
    pub fn lanes(&self) -> usize {
        self.soa.lanes
    }

    /// The shared integrator configuration.
    pub fn config(&self) -> RtModelConfig {
        self.config
    }

    /// Rebinds one lane to a new parameter set — the lane-recycling
    /// primitive the fleet engine uses when a retired session's lane is
    /// re-admitted to a different rig. Updates the lane's SoA columns in
    /// place; the other lanes' columns are untouched, so (per the
    /// bit-identity contract) sibling trajectories are bitwise
    /// unaffected. State and latched torque are *not* reset — callers
    /// re-admitting a lane load fresh state explicitly.
    pub fn set_lane_params(&mut self, lane: usize, params: PlantParams) {
        let m = self.soa.lanes;
        assert!(lane < m, "lane {lane} out of {m}");
        self.params[lane] = params;
        for i in 0..NUM_AXES {
            self.soa.ratio[i * m + lane] = params.cables[i].ratio;
            self.soa.stiffness[i * m + lane] = params.cables[i].stiffness;
            self.soa.damping[i * m + lane] = params.cables[i].damping;
            self.soa.viscous[i * m + lane] = params.motors[i].viscous_friction;
            self.soa.coulomb[i * m + lane] = params.motors[i].coulomb_friction;
            self.soa.rotor_inertia[i * m + lane] = params.motors[i].rotor_inertia;
        }
        let (k21, k31, k32) = params.routing;
        self.soa.k21[lane] = k21;
        self.soa.k31[lane] = k31;
        self.soa.k32[lane] = k32;
        self.soa.links[lane] = params.links;
    }

    /// Scatters a session state into the lane's SoA columns.
    pub fn load_state(&mut self, lane: usize, state: &PlantState) {
        let m = self.soa.lanes;
        assert!(lane < m, "lane {lane} out of {m}");
        for d in 0..ODE_DIM {
            self.x[d * m + lane] = state.x[d];
        }
        for w in 0..WRIST_AXES {
            self.wrist[w * m + lane] = state.wrist[w];
        }
    }

    /// Gathers one lane back into a session state.
    pub fn state(&self, lane: usize) -> PlantState {
        let m = self.soa.lanes;
        assert!(lane < m, "lane {lane} out of {m}");
        let mut out = PlantState::default();
        for d in 0..ODE_DIM {
            out.x[d] = self.x[d * m + lane];
        }
        for w in 0..WRIST_AXES {
            out.wrist[w] = self.wrist[w * m + lane];
        }
        out
    }

    /// Latches a lane's shaft torques from a DAC command (the same
    /// [`PlantParams::dac_to_torque`] conversion as the scalar path,
    /// done once per command instead of once per integration step).
    pub fn set_dac(&mut self, lane: usize, dac: &[i16; NUM_AXES]) {
        let tau = self.params[lane].dac_to_torque(dac);
        self.set_torque(lane, &tau);
    }

    /// Latches a lane's shaft torques directly.
    pub fn set_torque(&mut self, lane: usize, tau: &[f64; NUM_AXES]) {
        let m = self.soa.lanes;
        assert!(lane < m, "lane {lane} out of {m}");
        for (i, &t) in tau.iter().enumerate() {
            self.tau[i * m + lane] = t;
        }
    }

    /// Advances every lane by one integration step under its latched
    /// torques. Allocation-free: all stage storage was reserved at
    /// construction.
    pub fn step_lanes(&mut self) {
        let BatchModel { config, soa, x, tau, next, k, phys, .. } = self;
        let n = x.len();
        let (k1, rest) = k.split_at_mut(n);
        let (k2, rest) = rest.split_at_mut(n);
        let (k3, rest) = rest.split_at_mut(n);
        let (k4, stage) = rest.split_at_mut(n);
        let mut scratch = BatchScratch { k1, k2, k3, k4, stage };
        let soa: &SoaParams = soa;
        let tau: &[f64] = tau;
        let phys: &mut [f64] = phys;
        let mut deriv =
            |xs: &[f64], _t: f64, dxs: &mut [f64]| derivative_lanes(soa, xs, tau, phys, dxs);
        config.method.step_batch(x, 0.0, config.step_size, &mut deriv, &mut scratch, next);
        std::mem::swap(x, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::RtModel;
    use raven_kinematics::JointState;
    use raven_math::ode::Method;

    fn rest(params: &PlantParams) -> PlantState {
        params.rest_state(JointState::new(0.1, 1.3, 0.22))
    }

    #[test]
    fn single_lane_matches_scalar_model_bitwise() {
        for method in Method::all() {
            let params = PlantParams::raven_ii();
            let config = RtModelConfig { method, step_size: 1e-3 };
            let scalar = RtModel::with_config(params, config);
            let mut batch = BatchModel::with_params(&[params], config);
            let mut state = rest(&params);
            state.wrist = [0.1, -0.2, 0.3, 0.05];
            let dac = [1200, -700, 350];
            for _ in 0..50 {
                let expected = scalar.predict(&state, &dac);
                batch.load_state(0, &state);
                batch.set_dac(0, &dac);
                batch.step_lanes();
                let got = batch.state(0);
                assert_eq!(got, expected, "{method} single-lane step diverged");
                state = expected;
            }
        }
    }

    #[test]
    fn lanes_match_independent_scalar_models_bitwise() {
        for method in Method::all() {
            let base = PlantParams::raven_ii();
            let params: Vec<PlantParams> =
                (0..6).map(|l| base.perturbed(l as u64 + 1, 0.03)).collect();
            let config = RtModelConfig { method, step_size: 1e-3 };
            let scalars: Vec<RtModel> =
                params.iter().map(|p| RtModel::with_config(*p, config)).collect();
            let mut batch = BatchModel::with_params(&params, config);
            let mut states: Vec<PlantState> = params.iter().map(rest).collect();
            for step in 0..30 {
                for (l, s) in states.iter().enumerate() {
                    batch.load_state(l, s);
                    let dac = [(step * 100) as i16, -(l as i16) * 300, 250];
                    batch.set_dac(l, &dac);
                }
                batch.step_lanes();
                for (l, s) in states.iter_mut().enumerate() {
                    let dac = [(step * 100) as i16, -(l as i16) * 300, 250];
                    let expected = scalars[l].predict(s, &dac);
                    assert_eq!(batch.state(l), expected, "{method} lane {l} diverged at {step}");
                    *s = expected;
                }
            }
        }
    }

    #[test]
    fn latched_torque_steps_match_repeated_predicts() {
        // Stepping twice under one latched torque must equal two scalar
        // predicts with the same DAC — the lookahead-rollout pattern.
        let params = PlantParams::raven_ii();
        let config = RtModelConfig::default();
        let scalar = RtModel::with_config(params, config);
        let mut batch = BatchModel::with_params(&[params], config);
        let state = rest(&params);
        let dac = [900, 500, -400];
        batch.load_state(0, &state);
        batch.set_dac(0, &dac);
        batch.step_lanes();
        batch.step_lanes();
        let expected = scalar.predict(&scalar.predict(&state, &dac), &dac);
        assert_eq!(batch.state(0), expected);
    }

    #[test]
    fn wrist_channels_pass_through_untouched() {
        let params = PlantParams::raven_ii();
        let mut batch = BatchModel::with_params(&[params, params], RtModelConfig::default());
        let mut s = rest(&params);
        s.wrist = [0.4, -0.1, 0.2, 0.9];
        batch.load_state(1, &s);
        batch.step_lanes();
        assert_eq!(batch.state(1).wrist, s.wrist);
        assert_eq!(batch.state(0).wrist, [0.0; WRIST_AXES]);
    }

    #[test]
    fn lane_param_swap_rebinds_one_lane_and_leaves_siblings_bitwise() {
        // Recycling a lane onto new parameters mid-run: the recycled
        // lane tracks a scalar model of the *new* parameters, and the
        // sibling's trajectory is bitwise-identical to a run where the
        // swap never happened.
        let base = PlantParams::raven_ii();
        let old = base.perturbed(3, 0.03);
        let new = base.perturbed(9, 0.03);
        let config = RtModelConfig::default();
        let dac = [800, -300, 450];

        let mut batch = BatchModel::with_params(&[base, old], config);
        let mut solo = BatchModel::with_params(&[base], config);
        let mut sib = rest(&base);
        for step in 0..40 {
            if step == 20 {
                batch.set_lane_params(1, new);
                batch.load_state(1, &rest(&new));
            }
            batch.load_state(0, &sib);
            batch.set_dac(0, &dac);
            batch.set_dac(1, &dac);
            batch.step_lanes();
            solo.load_state(0, &sib);
            solo.set_dac(0, &dac);
            solo.step_lanes();
            sib = solo.state(0);
            assert_eq!(batch.state(0), sib, "sibling perturbed at step {step}");
        }
        // And the recycled lane matches a scalar model of the new params
        // stepped the same 20 post-swap cycles.
        let scalar = RtModel::with_config(new, config);
        let mut expect = rest(&new);
        for _ in 20..40 {
            expect = scalar.predict(&expect, &dac);
        }
        assert_eq!(batch.state(1), expect);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_batch_panics() {
        let _ = BatchModel::with_params(&[], RtModelConfig::default());
    }

    #[test]
    #[should_panic(expected = "step size")]
    fn invalid_step_size_panics() {
        let _ = BatchModel::with_params(
            &[PlantParams::raven_ii()],
            RtModelConfig { method: Method::Euler, step_size: f64::NAN },
        );
    }
}
