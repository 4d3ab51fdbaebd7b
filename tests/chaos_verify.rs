//! Tier-1 chaos-harness invariants: seed-driven fault injection must be
//! replay-deterministic (same spec ⇒ byte-identical reports, regardless
//! of how many campaign workers run the jobs), and a disabled chaos
//! schedule must consume no randomness at all. Two guarded sessions with
//! hardware chaos are pinned byte for byte, because that is where the
//! guard's place in the USB write chain shows.

use raven_core::{run_sweep, ExecutorConfig, SimConfig, Simulation};
use raven_ledger::sha256_hex;
use raven_verify::{run_chaos_session, run_oracles, suite_thresholds, Expectations, VerifySpec};
use simbus::obs::FieldValue;
use simbus::ChaosConfig;

/// The short verification specs the worker-count sweep replays (sized
/// for debug-mode tier-1 runtime).
fn sweep_specs() -> Vec<VerifySpec> {
    vec![
        VerifySpec::clean(11).with_chaos(ChaosConfig::standard()).with_session_ms(1_500),
        VerifySpec::estop_attack(12).with_chaos(ChaosConfig::link_only()).with_session_ms(1_500),
        VerifySpec::observe_attack(13).with_chaos(ChaosConfig::standard()).with_session_ms(1_500),
        VerifySpec::clean(14).with_chaos(ChaosConfig::link_only()).with_session_ms(1_500),
    ]
}

/// Runs every sweep spec through the campaign executor and returns the
/// concatenated serialized reports, in spec order.
fn sweep_reports(workers: usize) -> String {
    let specs = sweep_specs();
    let thresholds = suite_thresholds();
    let config =
        if workers == 1 { ExecutorConfig::serial() } else { ExecutorConfig::with_workers(workers) };
    let sweep = run_sweep(
        "chaos-verify",
        specs.len(),
        &config,
        |i| specs[i].seed,
        |i, _seed| run_chaos_session(&specs[i], thresholds).to_json(),
    );
    let mut joined = String::new();
    for outcome in sweep.outcomes {
        joined.push_str(&outcome.expect("chaos job must not panic"));
        joined.push('\n');
    }
    joined
}

/// Same (scenario, chaos seed) ⇒ byte-identical reports for any worker
/// count: the chaos schedule is derived from the root seed, never from
/// scheduling order.
#[test]
fn chaos_replay_is_byte_identical_across_worker_counts() {
    let serial = sweep_reports(1);
    for workers in [2, 4] {
        let parallel = sweep_reports(workers);
        assert_eq!(
            serial, parallel,
            "chaos reports must not depend on the worker count (workers={workers})"
        );
    }
}

/// The attacked spec in the sweep must still boot, detect, and E-STOP
/// under link chaos — a light oracle pass wired into tier-1.
#[test]
fn short_estop_spec_passes_light_oracles() {
    let spec =
        VerifySpec::estop_attack(12).with_chaos(ChaosConfig::link_only()).with_session_ms(1_500);
    let report = run_chaos_session(&spec, suite_thresholds());
    let oracles = run_oracles(
        &report,
        &Expectations {
            must_boot: true,
            must_detect: true,
            must_estop: true,
            ..Expectations::default()
        },
    );
    assert!(oracles.passed(), "oracle failures:\n{}", oracles.failure_summary());
}

/// A disabled chaos schedule consumes zero RNG: installing
/// `ChaosConfig::off()` leaves the run byte-identical to never calling
/// `install_chaos` at all.
#[test]
fn chaos_off_consumes_no_rng() {
    let run = |install_off: bool| {
        let mut sim = Simulation::new(SimConfig { session_ms: 1_200, ..SimConfig::standard(77) });
        if install_off {
            let scheduled = sim.install_chaos(&ChaosConfig::off());
            assert_eq!(scheduled, 0, "ChaosConfig::off() must schedule nothing");
        }
        sim.boot();
        let outcome = sim.run_session();
        let metrics = sim.metrics();
        format!(
            "{}\n{}",
            serde_json::to_string_pretty(&outcome).expect("outcome serializes"),
            serde_json::to_string_pretty(&metrics).expect("metrics serialize"),
        )
    };
    assert_eq!(run(false), run(true), "ChaosConfig::off() must not perturb the run");
}

/// A guarded session under standard chaos is pinned by the SHA-256 of its
/// report. Each pinned run drops or silences USB frames during the attack,
/// so the write chain runs the malware, then the guard, then the chaos
/// frame drop: moving the guard relative to either changes the report.
#[test]
fn guarded_sessions_with_hardware_chaos_match_pinned_reports() {
    let pinned = [
        (
            VerifySpec::estop_attack(6),
            "a96ed309a5d7edbcecfc8790e19bb76dbdd36ea458d5abb5254d3d19b92adb31",
        ),
        (
            VerifySpec::hold_attack(84),
            "df2717fda70a1007baa44779aef020f3c4c6aeb855948162b95363feededaa49",
        ),
    ];
    for (spec, hash) in pinned {
        let spec = spec.with_chaos(ChaosConfig::standard());
        let report = run_chaos_session(&spec, suite_thresholds());
        let usb_faults = report
            .events_of("chaos.injected")
            .into_iter()
            .filter(|e| {
                matches!(e.field("fault"), Some(FieldValue::Str(f))
                    if f == "hw.usb_frame_drop" || f == "hw.board_silence")
            })
            .count();
        assert!(usb_faults > 0, "{} (seed {}) injected no USB write fault", spec.name, spec.seed);
        assert_eq!(
            sha256_hex(report.to_json().as_bytes()),
            hash,
            "{} (seed {}) report changed",
            spec.name,
            spec.seed
        );
    }
}
