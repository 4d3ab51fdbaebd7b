//! `raven-sim` front-end contracts: a bad flag is a one-line error and
//! exit status 2, never a silently corrected run; the `RAVEN_LOG=debug`
//! stage table is served by the span layer and never touches an artifact.

use std::process::Command;

#[test]
fn zero_workers_is_rejected_not_clamped() {
    for command in ["table4", "fleet"] {
        let out = Command::new(env!("CARGO_BIN_EXE_raven-sim"))
            .args([command, "--workers", "0"])
            .env_remove("RAVEN_WORKERS")
            .output()
            .expect("spawn raven-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(stderr.contains("at least 1"), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command} must not run");
    }
}

#[test]
fn debug_stage_table_comes_from_spans_and_leaves_metrics_unchanged() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-debug-table");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let run = |level: &str| {
        let metrics = dir.join(format!("{level}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_raven-sim"))
            .args(["session", "7", "--metrics-json"])
            .arg(&metrics)
            .env("RAVEN_LOG", level)
            .output()
            .expect("spawn raven-sim");
        assert!(
            out.status.success(),
            "RAVEN_LOG={level}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read(&metrics).expect("read metrics");
        (String::from_utf8_lossy(&out.stderr).into_owned(), json)
    };
    let (debug_stderr, debug_metrics) = run("debug");
    let (_, warn_metrics) = run("warn");
    assert!(debug_stderr.contains("span.stage.plant"), "debug table: {debug_stderr}");
    assert_eq!(debug_metrics, warn_metrics, "the debug table must not touch the metrics artifact");
}
