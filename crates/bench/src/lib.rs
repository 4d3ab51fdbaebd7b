//! Shared plumbing for the table/figure regeneration harnesses.
//!
//! Each `benches/*.rs` target reruns one experiment of the paper at paper
//! scale, prints the reproduced rows/series, and persists a JSON record
//! under `results/` at the workspace root (consumed by EXPERIMENTS.md).

#![forbid(unsafe_code)]

use std::path::PathBuf;

/// Directory where experiment records are persisted.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.push("results");
    dir
}

/// Persists one experiment's JSON record.
///
/// # Panics
///
/// Panics if the results directory cannot be created or the file cannot be
/// written — a bench run that silently loses its record is worse than one
/// that fails loudly.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment record");
    std::fs::write(&path, json).expect("write experiment record");
    println!("\n[saved {}]", path.display());
}

/// Persists any `Vec<StageStats>`-shaped timing report as a
/// **non-deterministic sidecar** at `results/profile_<name>.json` — the
/// one profile schema shared by the span layer (`SpanHandle::stage_stats`)
/// and the sweep-trace collector (`SweepTraceCollector::stage_stats`), so
/// every producer and the `raven-sim --profile-json` flag write
/// interchangeable files.
///
/// Wall-clock timings vary run to run, so these files are gitignored and
/// must never be byte-compared or folded into the deterministic experiment
/// records written by [`save_json`].
///
/// # Panics
///
/// Panics if the results directory cannot be created or the file cannot be
/// written.
pub fn save_profile_stats(name: &str, stats: &[simbus::obs::StageStats]) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("profile_{name}.json"));
    let json = serde_json::to_string_pretty(&stats).expect("serialize stage profile");
    std::fs::write(&path, json).expect("write stage profile");
    println!("[profile sidecar {}]", path.display());
}

/// Paper-scale toggle: set `RAVEN_BENCH_QUICK=1` to run reduced sizes (used
/// by CI smoke runs); default is paper scale.
pub fn quick_mode() -> bool {
    std::env::var("RAVEN_BENCH_QUICK").map(|v| v == "1").unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn save_profile_writes_sidecar() {
        let stats = [simbus::StageStats {
            name: "stage_a".into(),
            count: 2,
            mean_us: 2.0,
            min_us: 1.0,
            max_us: 3.0,
            p99_us: 3.0,
        }];
        save_profile_stats("_selftest", &stats);
        let path = results_dir().join("profile__selftest.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("stage_a"));
        assert!(text.contains("mean_us"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn save_json_roundtrip() {
        save_json("_selftest", &serde_json::json!({"ok": true}));
        let path = results_dir().join("_selftest.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("ok"));
        std::fs::remove_file(path).unwrap();
    }
}
