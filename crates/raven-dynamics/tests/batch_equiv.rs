//! Property-based equivalence: the SoA batch kernel vs independent scalar
//! models.
//!
//! The batch module's contract is *bitwise* equality — stepping M sessions
//! through one [`BatchModel`] must produce exactly the f64 bit patterns of
//! M independent [`RtModel::predict`] chains, for both integrators, under
//! per-lane perturbed parameters, over multi-step rollouts. Everything
//! downstream (the detector's M=1 delegation, the golden `results/*.json`)
//! leans on this property.

use proptest::prelude::*;
use raven_dynamics::batch::BatchModel;
use raven_dynamics::{PlantParams, RtModel, RtModelConfig};
use raven_kinematics::JointState;
use raven_math::ode::Method;

fn workspace_joints() -> impl Strategy<Value = JointState> {
    (-1.2..1.2f64, 0.4..2.4f64, 0.10..0.42f64).prop_map(|(s, e, i)| JointState::new(s, e, i))
}

fn small_dac() -> impl Strategy<Value = [i16; 3]> {
    prop::array::uniform3(-3000i16..3000)
}

fn method() -> impl Strategy<Value = Method> {
    prop_oneof![Just(Method::Euler), Just(Method::Rk4)]
}

/// One lane's session inputs: a model-mismatch seed, a start pose, and a
/// latched DAC command.
fn lane() -> impl Strategy<Value = (u64, JointState, [i16; 3])> {
    (0..64u64, workspace_joints(), small_dac())
}

fn bits(state: &raven_dynamics::PlantState) -> Vec<u64> {
    state.x.iter().chain(&state.wrist).map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// M perturbed lanes stepped together == M scalar chains, bit for bit,
    /// for both integrators and multi-step rollouts.
    #[test]
    fn batch_lanes_match_scalar_chains_bitwise(
        lanes in prop::collection::vec(lane(), 1..7),
        method in method(),
        steps in 1..12u32,
    ) {
        let base = PlantParams::raven_ii();
        let config = RtModelConfig { method, step_size: 1e-3 };
        let params: Vec<PlantParams> =
            lanes.iter().map(|(seed, _, _)| base.perturbed(*seed, 0.03)).collect();
        let models: Vec<RtModel> =
            params.iter().map(|p| RtModel::with_config(*p, config)).collect();

        let mut batch = BatchModel::with_params(&params, config);
        let mut scalar_states: Vec<_> = Vec::new();
        for (l, (_, j, _)) in lanes.iter().enumerate() {
            let rest = params[l].rest_state(*j);
            batch.load_state(l, &rest);
            batch.set_dac(l, &lanes[l].2);
            scalar_states.push(rest);
        }
        for _ in 0..steps {
            batch.step_lanes(batch.lanes());
            for (l, model) in models.iter().enumerate() {
                scalar_states[l] = model.predict(&scalar_states[l], &lanes[l].2);
            }
        }
        for (l, expected) in scalar_states.iter().enumerate() {
            let got = bits(&batch.state(l));
            let want = bits(expected);
            prop_assert!(
                got == want,
                "lane {l} diverged from its scalar chain ({method:?}, {steps} steps)"
            );
        }
    }

    /// Reloading one lane mid-flight must not disturb any other lane — the
    /// lanes share storage but no state.
    #[test]
    fn lane_reload_is_isolated(
        lanes in prop::collection::vec(lane(), 2..6),
        method in method(),
        reload in workspace_joints(),
    ) {
        let base = PlantParams::raven_ii();
        let config = RtModelConfig { method, step_size: 1e-3 };
        let params: Vec<PlantParams> =
            lanes.iter().map(|(seed, _, _)| base.perturbed(*seed, 0.03)).collect();
        let mut batch = BatchModel::with_params(&params, config);
        let mut reference = BatchModel::with_params(&params, config);
        for (l, (_, j, dac)) in lanes.iter().enumerate() {
            let rest = params[l].rest_state(*j);
            batch.load_state(l, &rest);
            batch.set_dac(l, dac);
            reference.load_state(l, &rest);
            reference.set_dac(l, dac);
        }
        batch.step_lanes(batch.lanes());
        reference.step_lanes(reference.lanes());
        // Lane 0 resets to a fresh pose mid-batch; the reference applies the
        // identical reload, so every *other* lane must agree bitwise.
        let fresh = params[0].rest_state(reload);
        batch.load_state(0, &fresh);
        reference.load_state(0, &fresh);
        batch.step_lanes(batch.lanes());
        reference.step_lanes(reference.lanes());
        for l in 0..lanes.len() {
            let got = bits(&batch.state(l));
            let want = bits(&reference.state(l));
            prop_assert!(got == want, "lane {l} disturbed by the reload");
        }
    }
}
