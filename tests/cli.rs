//! `raven-sim` argument validation: a bad flag is a one-line error and
//! exit status 2, never a silently corrected run.

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
