//! The defense in action: the same torque-injection attack as
//! `attack_demo`, but with the dynamic model-based guard armed (paper §IV.C)
//! — first in E-STOP mitigation mode, then in block-and-hold mode.
//!
//! ```sh
//! cargo run --release --example guarded_teleop
//! ```

use raven_core::training::{train_thresholds_with, TrainingConfig};
use raven_core::{AttackSetup, DetectorSetup, ExecutorConfig, SimConfig, Simulation, Workload};
use raven_detect::{DetectorConfig, Mitigation};

fn attacked_session(mitigation: Mitigation, thresholds: raven_detect::DetectionThresholds) {
    let mut sim = Simulation::new(SimConfig {
        workload: Workload::Circle,
        session_ms: 4_000,
        detector: Some(DetectorSetup {
            config: DetectorConfig { mitigation, ..DetectorConfig::default() },
            thresholds: Some(thresholds),
        }),
        ..SimConfig::standard(8)
    });
    sim.install_attack(&AttackSetup::ScenarioB {
        dac_delta: 30_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    });
    sim.boot();
    let outcome = sim.run_session();
    println!("\nmitigation = {mitigation:?}:");
    println!("  model detected      : {}", outcome.model_detected);
    println!("  adverse impact      : {}", outcome.adverse);
    println!("  max EE step (2 ms)  : {:.3} mm", outcome.max_ee_step_2ms * 1e3);
    println!("  final state         : {}", outcome.final_state);
    println!("  E-STOP              : {:?}", outcome.estop);
    assert!(outcome.model_detected, "the guard must see the attack");
    assert!(!outcome.adverse, "mitigation must keep the arm below the 1 mm jump limit");
}

fn main() {
    println!("training detection thresholds over fault-free runs (§IV.C) …");
    let report = train_thresholds_with(
        &TrainingConfig { runs: 20, ..TrainingConfig::quick(3) },
        &ExecutorConfig::default(),
    );
    println!(
        "learned from {} runs / {} cycles; e.g. motor-vel thresholds = {:.2?} rad/s",
        report.runs, report.samples, report.thresholds.motor_vel
    );

    // Safety-maximizing mitigation: drop the command and E-STOP.
    attacked_session(Mitigation::EStop, report.thresholds);
    // Availability-preserving mitigation: substitute the last safe command.
    attacked_session(Mitigation::BlockAndHold, report.thresholds);

    println!(
        "\nboth policies stopped the jump before it manifested in the physical system; \
         E-STOP sacrifices availability, block-and-hold keeps the session alive."
    );
}
