//! Golden-artifact guard: reduced-scale Table IV and Fig. 9 runs must
//! serialize byte-identically to the checked-in fixtures under
//! `tests/fixtures/`. Any change to the simulation, the detector, the
//! training protocol, or the campaign merge order shows up here as a
//! fixture diff — reviewed deliberately, never silently.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! RAVEN_UPDATE_GOLDEN=1 cargo test --test golden_artifacts
//! ```
//!
//! The network study is also pinned, against its committed full-scale
//! record `results/study_network.json` (written by
//! `cargo bench -p bench --bench ablation_suite`).

use raven_core::experiments::{
    run_fig9_with, run_network_study, run_table4_with, Fig9Config, Table4Config,
};
use raven_core::training::TrainingConfig;
use raven_core::ExecutorConfig;
use std::path::PathBuf;

/// Reduced Table IV protocol: small enough for tier-1, real enough to
/// exercise training, both scenarios, and the metric merge.
fn golden_table4() -> Table4Config {
    Table4Config {
        scenario_a_runs: 6,
        scenario_b_runs: 6,
        session_ms: 1_500,
        training: TrainingConfig { runs: 4, ..TrainingConfig::quick(5) },
        ..Table4Config::quick(5)
    }
}

/// Reduced Fig. 9 sweep: one hot value, two durations.
fn golden_fig9() -> Fig9Config {
    Fig9Config {
        values: vec![30_000],
        durations_ms: vec![4, 128],
        repetitions: 2,
        session_ms: 1_500,
        training: TrainingConfig { runs: 4, ..TrainingConfig::quick(5) },
        seed: 5,
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Compares `actual` against the named fixture, or rewrites the fixture
/// when `RAVEN_UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("RAVEN_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with RAVEN_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the checked-in golden fixture; if the change is \
         intentional, regenerate with RAVEN_UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn table4_matches_golden_fixture() {
    let result = run_table4_with(&golden_table4(), &ExecutorConfig::serial());
    let json = serde_json::to_string_pretty(&result).expect("serialize table4");
    assert_golden("golden_table4.json", &json);

    // The same protocol on two workers must reproduce the fixture too:
    // the guard also pins worker-count independence at golden scale.
    let parallel = run_table4_with(&golden_table4(), &ExecutorConfig::with_workers(2));
    let parallel_json = serde_json::to_string_pretty(&parallel).expect("serialize table4");
    assert_eq!(json, parallel_json, "table4 golden run diverged at workers=2");
}

#[test]
fn fig9_matches_golden_fixture() {
    let result = run_fig9_with(&golden_fig9(), &ExecutorConfig::serial());
    let json = serde_json::to_string_pretty(&result).expect("serialize fig9");
    assert_golden("golden_fig9.json", &json);

    let parallel = run_fig9_with(&golden_fig9(), &ExecutorConfig::with_workers(2));
    let parallel_json = serde_json::to_string_pretty(&parallel).expect("serialize fig9");
    assert_eq!(json, parallel_json, "fig9 golden run diverged at workers=2");
}

/// The network study's RMS column is read from the recorded trace signals,
/// so this pins the signal derivation end to end.
#[test]
fn network_study_matches_pinned_result() {
    let json = serde_json::to_string_pretty(&run_network_study(53)).expect("serialize study");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/study_network.json");
    let expected = std::fs::read_to_string(&path).expect("read results/study_network.json");
    assert_eq!(json, expected, "run_network_study(53) drifted from {}", path.display());
}
