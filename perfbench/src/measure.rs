//! What every workload measures: set-up samples, timed repeats, the work
//! one repeat completes, and the output check.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use serde::Serialize;

/// Fewest timed repeats a run makes, however long each one takes.
pub const MIN_REPEATS: usize = 5;

/// Set-ups per run; the reported `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Output checks attempted and failed. A panic counts as a failure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that did not match their reference.
    pub failed: u64,
}

impl Check {
    /// Records one checked output.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records `n` outputs that were never produced (their operation
    /// panicked).
    pub fn record_lost(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Folds another check in.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed outputs over attempted outputs.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// The work one timed repeat completes. The program is deterministic, so
/// every repeat of a run completes the same work.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Work {
    /// Simulated 1 ms control cycles.
    pub sim_ms: u64,
    /// Detector assessments delivered.
    pub assessments: u64,
    /// Sessions, phases or campaign runs completed.
    pub runs: u64,
}

/// Everything a workload's untraced run measured.
#[derive(Debug)]
pub struct EndToEnd {
    /// One timing per set-up repetition.
    pub setup: Vec<Timing>,
    /// One timing per timed repeat.
    pub repeats: Vec<Timing>,
    /// Work per repeat.
    pub work: Work,
    /// Output checks over every repeat.
    pub check: Check,
    /// Peak resident memory (VmHWM) in KiB, read when timing ends.
    pub peak_rss_kib: u64,
    /// The kernel the timed repeats are calibrated with.
    pub kernel: Kernel,
}

/// Calibration kernel time, in ns, that defines the reference host speed:
/// a timed value is reported as if the kernel around it had taken this
/// long. It only sets the scale; on a 2-vCPU Xeon container the kernels
/// took 5–17 ms as other tenants came and went.
pub const CALIBRATION_REF_NS: f64 = 10_000_000.0;

/// A calibration kernel: a fixed RK4 integration of damped, coupled
/// oscillators using the same `sin`/`cos`/`tanh` arithmetic as the plant
/// and model right-hand sides, but written here, so no change to the
/// program can move it. Its time tracks how fast the host runs that kind
/// of code at the moment. Each workload is bracketed by the kernel whose
/// shape matches its hot loop.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// One oscillator, scalar code: the shape of the session pipeline,
    /// whose time is mostly the scalar plant.
    Scalar,
    /// 256 oscillators in structure-of-arrays lanes (a 72 KiB working
    /// set): the shape of the batch detector.
    Lanes,
    /// [`Kernel::Scalar`] on every available worker at once: the shape of
    /// the parallel campaign sweep, which runs the scalar plant on all of
    /// them.
    ScalarEveryWorker,
}

impl Kernel {
    /// Runs the kernel once; returns its wall ns.
    pub fn run(self) -> u64 {
        let elapsed_ns = |kernel: fn()| {
            let start = Instant::now();
            kernel();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        };
        let scalar = || rk4_oscillators::<1>(40_000);
        match self {
            Kernel::Scalar => elapsed_ns(scalar),
            Kernel::Lanes => elapsed_ns(|| rk4_oscillators::<256>(120)),
            Kernel::ScalarEveryWorker => {
                let times: Vec<u64> = std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..crate::inputs::available_workers())
                        .map(|_| scope.spawn(|| elapsed_ns(scalar)))
                        .collect();
                    workers.into_iter().map(|w| w.join().expect("calibration worker")).collect()
                });
                // The workers share a sweep's runs, so their speeds add:
                // report the time one core of the combined speed would take
                // (the harmonic mean).
                let speed: f64 = times.iter().map(|&t| 1.0 / t as f64).sum();
                (times.len() as f64 / speed) as u64
            }
        }
    }

    /// The kernel's name in records.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Lanes => "lanes",
            Kernel::ScalarEveryWorker => "scalar-every-worker",
        }
    }
}

/// `N` oscillators as 6 state rows of `N` lanes.
type Lanes<const N: usize> = [[f64; N]; 6];

fn oscillator_rhs<const N: usize>(x: &Lanes<N>, out: &mut Lanes<N>) {
    for l in 0..N {
        out[0][l] = x[3][l];
        out[1][l] = x[4][l];
        out[2][l] = x[5][l];
        out[3][l] =
            -9.8 * x[0][l].sin() - 0.3 * (50.0 * x[3][l]).tanh() + 0.1 * (x[1][l] - x[0][l]).cos();
        out[4][l] =
            -9.8 * x[1][l].sin() - 0.3 * (50.0 * x[4][l]).tanh() + 0.1 * (x[2][l] - x[1][l]).cos();
        out[5][l] = -4.0 * x[2][l] - 0.2 * (50.0 * x[5][l]).tanh();
    }
}

fn rk4_oscillators<const N: usize>(steps: usize) {
    let h = std::hint::black_box(1e-4);
    let mut x: Lanes<N> = [[0.0; N]; 6];
    for (l, angle) in x[0].iter_mut().enumerate() {
        *angle = 0.3 + 1e-3 * l as f64;
    }
    x[1] = [-0.2; N];
    x[2] = [0.1; N];
    let mut x = std::hint::black_box(x);
    let mut k = [[[0.0; N]; 6]; 4];
    let mut y: Lanes<N> = [[0.0; N]; 6];
    for _ in 0..steps {
        oscillator_rhs(&x, &mut k[0]);
        for (stage, c) in [(1, 0.5), (2, 0.5), (3, 1.0)] {
            for d in 0..6 {
                for l in 0..N {
                    y[d][l] = x[d][l] + c * h * k[stage - 1][d][l];
                }
            }
            oscillator_rhs(&y, &mut k[stage]);
        }
        for d in 0..6 {
            for l in 0..N {
                x[d][l] +=
                    h / 6.0 * (k[0][d][l] + 2.0 * k[1][d][l] + 2.0 * k[2][d][l] + k[3][d][l]);
            }
        }
    }
    std::hint::black_box(x);
}

/// One timed repeat with the host's speed measured around it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall ns of the repeat.
    pub wall_ns: u64,
    /// Mean calibration-kernel ns of the runs just before and just after.
    pub calibration_ns: u64,
}

impl Timing {
    /// The repeat's wall ns scaled to the reference host speed.
    pub fn calibrated_ns(&self) -> f64 {
        self.wall_ns as f64 * CALIBRATION_REF_NS / self.calibration_ns as f64
    }
}

/// Runs `op` as one timed repeat: returns its wall time and output, or
/// `None` if it panicked.
pub fn timed<T>(op: impl FnOnce() -> T) -> Option<(u64, T)> {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(op)).ok()?;
    let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Some((wall, out))
}

/// [`timed`], with the calibration kernel run just before and just after.
pub fn calibrated<T>(kernel: Kernel, op: impl FnOnce() -> T) -> Option<(Timing, T)> {
    let before = kernel.run();
    let timed = timed(op);
    let after = kernel.run();
    timed.map(|(wall_ns, out)| (Timing { wall_ns, calibration_ns: (before + after) / 2 }, out))
}

/// Repeats `repeat` until `seconds` have passed and at least
/// [`MIN_REPEATS`] repeats were made.
pub fn repeat_for(seconds: u64, mut repeat: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut done = 0;
    while done < MIN_REPEATS || Instant::now() < deadline {
        repeat();
        done += 1;
    }
}

/// Repeats a set-up [`SETUP_REPEATS`] times; returns each repetition's
/// timing and the last repetition's output. Every set-up is plant work
/// (threshold training or a boot), so it is calibrated with the scalar
/// kernel.
///
/// # Panics
///
/// Panics if the set-up panics: without inputs there is nothing to run.
pub fn setup_repeated<T>(mut setup: impl FnMut() -> T) -> (Vec<Timing>, T) {
    let mut timings = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (timing, out) = calibrated(Kernel::Scalar, &mut setup).expect("workload set-up");
        timings.push(timing);
        last = Some(out);
    }
    (timings, last.expect("set-up ran at least once"))
}

/// This process's peak resident set size in KiB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` has no readable `VmHWM` line (the
/// benchmark needs Linux procfs).
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// SHA-256 of a value's JSON form: outputs are compared by digest so a
/// run need not hold every repeat's output in memory.
pub fn digest<T: Serialize + ?Sized>(value: &T) -> [u8; 32] {
    raven_ledger::sha256(serde_json::to_string(value).expect("serialize output").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_repeat_is_reported_not_propagated() {
        assert!(timed(|| panic!("boom")).is_none());
        assert_eq!(timed(|| 7).map(|(_, v)| v), Some(7));
    }

    #[test]
    fn failed_fraction_counts_lost_outputs() {
        let mut check = Check::default();
        check.record(true);
        check.record_lost(3);
        assert_eq!(check, Check { attempted: 4, failed: 3 });
        assert_eq!(check.failed_frac(), 0.75);
    }
}
