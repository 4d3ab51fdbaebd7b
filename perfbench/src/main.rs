//! The raven-guard benchmark: three closed-loop workloads measured end to
//! end with tracing off, and a separate traced run for the per-layer
//! ledger. See `perfbench/README.md` for the metrics and their meaning.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rig-fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! A full record (provenance, raw samples of every repeat) is written to
//! `perfbench/out/<workload>-seed<seed>-trace<0|1>.json`.

mod inputs;
mod layers;
mod measure;
mod monitor;
mod provenance;
mod rig;
mod stats;
mod sweep;

use std::process::ExitCode;

use serde_json::Value;

use crate::measure::{Check, EndToEnd, Metric, Timing};
use crate::stats::{median, quartiles};

/// The workloads; `BENCHMARK.json` and README.md give the reason for each.
const WORKLOADS: [&str; 3] = ["rig-fleet", "monitor-fleet", "sweep-table4"];

/// Where full records go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds must be 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The end-to-end metrics of an untraced run. Every repeat completes the
/// same work; the timed metrics divide it by the median repeat time,
/// scaled to the reference host speed by the calibration kernel run around
/// each repeat (see README.md).
fn end_to_end_metrics(e2e: &EndToEnd) -> Vec<Metric> {
    let calibrated = |timings: &[Timing]| -> f64 {
        median(&timings.iter().map(Timing::calibrated_ns).collect::<Vec<_>>())
    };
    let wall = calibrated(&e2e.repeats);
    let work = e2e.work;
    [
        ("setup_s", "s", calibrated(&e2e.setup) / 1e9),
        ("ns_per_sim_ms", "ns", wall / work.sim_ms as f64),
        ("ns_per_assessment", "ns", wall / work.assessments as f64),
        ("runs_per_s", "1/s", work.runs as f64 / (wall / 1e9)),
        ("peak_rss_mib", "MiB", e2e.peak_rss_kib as f64 / 1024.0),
    ]
    .into_iter()
    .map(|(name, unit, value)| Metric { name, unit, value })
    .collect()
}

/// One line of raw and calibrated quartiles over a run's timings, in ms.
fn timing_summary(what: &str, timings: &[Timing]) -> String {
    let raw: Vec<f64> = timings.iter().map(|t| t.wall_ns as f64 / 1e6).collect();
    let cal: Vec<f64> = timings.iter().map(|t| t.calibrated_ns() / 1e6).collect();
    let kernel: Vec<f64> = timings.iter().map(|t| t.calibration_ns as f64 / 1e6).collect();
    let q = |v: &[f64]| {
        let (q1, q2, q3) = quartiles(v);
        format!("{q1:.3}/{q2:.3}/{q3:.3}")
    };
    format!(
        "{} {what}, q1/median/q3 ms: raw {}, calibrated {}, calibration kernel {}",
        timings.len(),
        q(&raw),
        q(&cal),
        q(&kernel)
    )
}

fn timings_json(timings: &[Timing]) -> Value {
    Value::Seq(
        timings
            .iter()
            .map(|t| {
                Value::Map(vec![
                    ("wall_ns".to_string(), Value::U64(t.wall_ns)),
                    ("calibration_ns".to_string(), Value::U64(t.calibration_ns)),
                ])
            })
            .collect(),
    )
}

fn print_metric(m: &Metric) {
    println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn samples_json(samples: &[(&str, Vec<f64>)]) -> Value {
    Value::Map(
        samples
            .iter()
            .map(|(name, values)| {
                (name.to_string(), Value::Seq(values.iter().map(|&v| Value::F64(v)).collect()))
            })
            .collect(),
    )
}

fn write_record(args: &Args, record: &Value) {
    let path =
        format!("{OUT_DIR}/{}-seed{}-trace{}.json", args.workload, args.seed, u8::from(args.trace));
    let text = serde_json::to_string_pretty(record).expect("serialize record");
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("record: {path}"),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <rig-fleet|monitor-fleet|sweep-table4> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let provenance = provenance::collect(args.seed);
    println!(
        "perfbench {} seed={} seconds={} trace={} | {} worker(s), {}, commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        provenance.available_parallelism,
        provenance.rustc,
        provenance.git_commit.as_deref().unwrap_or("unknown (not a git checkout)")
    );

    let (metrics, check, samples, notes) = if args.trace {
        let ledger = layers::run(args.seed, args.seconds);
        (ledger.metrics, ledger.check, samples_json(&ledger.samples), ledger.notes)
    } else {
        let e2e = match args.workload.as_str() {
            "rig-fleet" => rig::run(args.seed, args.seconds),
            "monitor-fleet" => monitor::run(args.seed, args.seconds),
            _ => sweep::run(args.seed, args.seconds),
        };
        if e2e.repeats.len() < 2 {
            eprintln!("perfbench: fewer than two timed repeats completed; nothing to report");
            return ExitCode::FAILURE;
        }
        let notes = vec![
            timing_summary("set-ups", &e2e.setup),
            timing_summary("timed repeats", &e2e.repeats),
        ];
        let samples = Value::Map(vec![
            ("setup".to_string(), timings_json(&e2e.setup)),
            ("repeats".to_string(), timings_json(&e2e.repeats)),
            ("work_per_repeat".to_string(), serde::Serialize::to_content(&e2e.work)),
            ("peak_rss_kib".to_string(), Value::U64(e2e.peak_rss_kib)),
            ("calibration_kernel".to_string(), Value::Str(e2e.kernel.name().to_string())),
            ("calibration_ref_ns".to_string(), Value::F64(measure::CALIBRATION_REF_NS)),
        ]);
        (end_to_end_metrics(&e2e), e2e.check, samples, notes)
    };

    for m in &metrics {
        print_metric(m);
    }
    println!(
        "  {:<30} {:>16.6} {:<6} ({} of {} outputs failed their check)",
        "failed_frac",
        check.failed_frac(),
        "ratio",
        check.failed,
        check.attempted
    );
    for note in &notes {
        println!("  {note}");
    }

    if check.attempted == 0 {
        eprintln!("perfbench: no output was checked; nothing to report");
        return ExitCode::FAILURE;
    }
    let correct = is_correct(&check, &metrics);
    let record = Value::Map(vec![
        ("provenance".to_string(), provenance.to_json()),
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(check.attempted)),
        ("failed".to_string(), Value::U64(check.failed)),
        ("failed_frac".to_string(), Value::F64(check.failed_frac())),
        ("metrics".to_string(), metrics_json(&metrics)),
        ("samples".to_string(), samples),
        ("notes".to_string(), Value::Seq(notes.iter().map(|n| Value::Str(n.clone())).collect())),
    ]);
    write_record(&args, &record);

    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(check.attempted)),
        ("failed".to_string(), Value::U64(check.failed)),
        ("metrics".to_string(), metrics_json(&metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serialize result"));
    ExitCode::SUCCESS
}

/// A run is correct when every output passed its check and every metric
/// came out finite.
fn is_correct(check: &Check, metrics: &[Metric]) -> bool {
    check.attempted > 0 && check.failed == 0 && metrics.iter().all(|m| m.value.is_finite())
}
