//! Where a result came from: code, compiler, host parallelism and seed.

use std::path::{Path, PathBuf};
use std::process::Command;

use raven_ledger::Sha256;
use serde_json::Value;

/// Source trees whose contents identify the measured code, relative to
/// the checkout root.
const SOURCE_ROOTS: [&str; 6] =
    ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench/src"];

/// The provenance block of every record.
pub struct Provenance {
    /// `git rev-parse HEAD`, when the checkout is a git repository.
    pub git_commit: Option<String>,
    /// SHA-256 over the measured sources (path and contents of every file
    /// under [`SOURCE_ROOTS`], in path order) — identifies the code when
    /// the checkout carries no git metadata.
    pub source_sha256: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// The workload seed.
    pub seed: u64,
}

impl Provenance {
    /// The block as JSON.
    pub fn to_json(&self) -> Value {
        Value::Map(vec![
            ("git_commit".to_string(), self.git_commit.clone().map_or(Value::Null, Value::Str)),
            ("source_sha256".to_string(), Value::Str(self.source_sha256.clone())),
            ("available_parallelism".to_string(), Value::U64(self.available_parallelism as u64)),
            ("rustc".to_string(), Value::Str(self.rustc.to_string())),
            ("seed".to_string(), Value::U64(self.seed)),
        ])
    }
}

/// Collects the provenance of a run from the current directory (the
/// checkout root).
pub fn collect(seed: u64) -> Provenance {
    Provenance {
        git_commit: git_commit(),
        source_sha256: source_digest(),
        available_parallelism: crate::inputs::available_workers(),
        rustc: env!("PERFBENCH_RUSTC_VERSION"),
        seed,
    }
}

fn git_commit() -> Option<String> {
    // The ceiling keeps git from taking a parent directory's repository
    // for this checkout's.
    let cwd = std::env::current_dir().ok()?;
    let ceiling = cwd.parent().map_or_else(PathBuf::new, Path::to_path_buf);
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()?;
    let commit = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !commit.is_empty()).then_some(commit)
}

fn source_digest() -> String {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hasher = Sha256::new();
    for path in &files {
        if let Ok(bytes) = std::fs::read(path) {
            hasher.update(path.to_string_lossy().as_bytes());
            hasher.update(&[0]);
            hasher.update(&(bytes.len() as u64).to_le_bytes());
            hasher.update(&bytes);
        }
    }
    hasher.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}
