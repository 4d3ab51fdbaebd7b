//! The traced run: every per-layer metric, measured from outside the
//! program by timing calls into each layer's public functions, plus the
//! program's own opt-in span recorder on the session pipeline.
//!
//! Samples stay in memory and are written out once, at the end. The run
//! covers every layer whatever the workload, from inputs made by the
//! same generators (and seed) as the untraced workloads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use raven_attack::{ActivationWindow, Corruption, InjectionWrapper};
use raven_core::experiments::run_table4_with;
use raven_core::training::train_thresholds_with;
use raven_core::{ExecutorConfig, SimConfig, Simulation, SweepTraceCollector};
use raven_detect::{BatchDetector, DetectionThresholds, DetectorConfig, DynamicDetector};
use raven_dynamics::{PlantParams, PlantState, RavenPlant, RtModel, RtModelConfig};
use raven_fleet::{run_standalone, FleetMonitor, SessionSpec};
use raven_hw::{RobotState, UsbChannel, UsbCommandPacket};
use raven_kinematics::{ArmConfig, MotorState, NUM_AXES};
use raven_math::ode::Method;
use simbus::obs::{names, spans};
use simbus::SimTime;

use crate::inputs;
use crate::measure::{self, Check, Kernel, Metric};
use crate::monitor;
use crate::rig;
use crate::stats::{median, percentile};

/// The paper's per-step cost of the real-time model (§IV.A.1), in ns.
const PAPER_EULER_NS: f64 = 11_000.0;
const PAPER_RK4_NS: f64 = 32_000.0;
/// The control period every cycle must fit in, in ns.
const PERIOD_NS: f64 = 1_000_000.0;
/// Fewest timed batches per micro-probe.
const MIN_BATCHES: usize = 11;
/// FleetEngine/standalone wall-time pairs behind `fleet.rig.overhead_frac`.
const OVERHEAD_PAIRS: usize = 3;

/// The seven pipeline stages of `Simulation::step`, with their metric
/// names.
const STAGES: [(&str, &str); 7] = [
    (spans::STAGE_CONSOLE, "core.stage.console_ns"),
    (spans::STAGE_LINK, "core.stage.link_ns"),
    (spans::STAGE_FEEDBACK, "core.stage.feedback_ns"),
    (spans::STAGE_CONTROLLER, "core.stage.controller_ns"),
    (spans::STAGE_INTERCEPTORS, "core.stage.interceptors_ns"),
    (spans::STAGE_DETECTOR, "core.stage.detector_ns"),
    (spans::STAGE_PLANT, "core.stage.plant_ns"),
];

/// Everything the traced run measured.
#[derive(Default)]
pub struct Ledger {
    /// Per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Raw samples behind the timed metrics (one value per batch or call
    /// group), by metric name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Output checks made along the way.
    pub check: Check,
    /// Lines printed for information only (the paper budget row).
    pub notes: Vec<String>,
}

impl Ledger {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
    }
}

/// Runs every layer probe for `seed`; the micro-probes share `seconds`.
pub fn run(seed: u64, seconds: u64) -> Ledger {
    let mut ledger = Ledger::default();
    let kernels = [Kernel::Scalar, Kernel::Lanes];
    let before = kernels.map(Kernel::run);
    let thresholds = inputs::deployment_thresholds();
    let specs = inputs::rig_specs(seed, thresholds);
    let probe_budget = Duration::from_secs_f64((seconds as f64 / 16.0).max(0.2));

    rig_plane(&mut ledger, &specs);
    session_pipeline(&mut ledger, &specs);
    monitor_plane(&mut ledger, seed, thresholds);
    let capture = Capture::record(&specs);
    ledger.check.record(capture.states.len() > 100);
    layer_probes(&mut ledger, &capture, thresholds, seed, probe_budget);
    campaign(&mut ledger, seed);

    let after = kernels.map(Kernel::run);
    ledger.notes.push(format!(
        "per-layer figures are raw host time; calibration kernels (scalar, lanes) took \
         {:.3} / {:.3} ms before and {:.3} / {:.3} ms after the run (reference {:.3} ms)",
        before[0] as f64 / 1e6,
        before[1] as f64 / 1e6,
        after[0] as f64 / 1e6,
        after[1] as f64 / 1e6,
        measure::CALIBRATION_REF_NS / 1e6
    ));
    let euler = ledger.value("dynamics.predict_euler_ns");
    let rk4 = ledger.value("dynamics.predict_rk4_ns");
    ledger.notes.push(format!(
        "paper budget (§IV.A.1, information only): Euler predict {:.5} ms vs paper 0.011 ms \
         ({:.3} % of the 1 ms period; paper {:.1} %); RK4 predict {:.5} ms vs paper 0.032 ms \
         ({:.3} % of the period; paper {:.1} %)",
        euler / 1e6,
        100.0 * euler / PERIOD_NS,
        100.0 * PAPER_EULER_NS / PERIOD_NS,
        rk4 / 1e6,
        100.0 * rk4 / PERIOD_NS,
        100.0 * PAPER_RK4_NS / PERIOD_NS,
    ));
    ledger
}

/// FleetEngine on one worker against a standalone replay of the same
/// specs, alternated [`OVERHEAD_PAIRS`] times: scheduler counts and the
/// engine's overhead share of its wall time (medians of the pairs).
fn rig_plane(ledger: &mut Ledger, specs: &[SessionSpec]) {
    let mut fleet_ns = Vec::new();
    let mut standalone_ns = Vec::new();
    let mut counts = None;
    for _ in 0..OVERHEAD_PAIRS {
        let mut fleet = rig::engine(specs);
        let fleet_run = measure::timed(|| fleet.run());
        let standalone = measure::timed(|| {
            specs.iter().enumerate().map(|(id, s)| run_standalone(s, id as u64)).collect::<Vec<_>>()
        });
        let (Some((f_ns, report)), Some((s_ns, artifacts))) = (fleet_run, standalone) else {
            ledger.check.record_lost(specs.len() as u64);
            continue;
        };
        let reference: Vec<_> =
            rig::digests(&artifacts).into_iter().map(|(_, d)| Some(d)).collect();
        ledger.check.merge(rig::check_repeat(&reference, &rig::digests(&report.artifacts)));
        fleet_ns.push(f_ns as f64);
        standalone_ns.push(s_ns as f64);
        counts = Some((report.rounds, report.metrics.counter(names::FLEET_WAKEUPS)));
    }
    let Some((rounds, wakeups)) = counts else { return };
    ledger.put("fleet.rig.rounds", "count", rounds as f64);
    ledger.put("fleet.rig.wakeups", "count", wakeups as f64);
    let (fleet, standalone) = (median(&fleet_ns), median(&standalone_ns));
    ledger.put("fleet.rig.overhead_frac", "ratio", (fleet - standalone) / fleet);
    ledger.samples.push(("fleet.rig.engine_wall_ns", fleet_ns));
    ledger.samples.push(("fleet.rig.standalone_wall_ns", standalone_ns));
}

/// Per-step replays, untraced and traced: step-time percentiles, cycle
/// counts, per-stage time and the tracing overhead.
fn session_pipeline(ledger: &mut Ledger, specs: &[SessionSpec]) {
    let mut untraced: Vec<u64> = Vec::new();
    let mut traced_total = 0u64;
    let mut stage_ns: Vec<Vec<u64>> = vec![Vec::new(); STAGES.len()];
    let (mut boot, mut session) = (0u64, 0u64);
    for (id, spec) in specs.iter().enumerate() {
        let (Some((_, plain)), Some((_, traced))) = (
            measure::timed(|| rig::replay(spec, id as u64, false)),
            measure::timed(|| rig::replay(spec, id as u64, true)),
        ) else {
            ledger.check.record_lost(1);
            continue;
        };
        ledger.check.record(plain.digest == traced.digest);
        boot += plain.boot_cycles;
        session += plain.session_cycles;
        untraced.extend(&plain.step_ns);
        traced_total += traced.step_ns.iter().sum::<u64>();
        // Teleoperation cycles are the root spans (boot cycles nest under
        // the boot span); each stage is a direct child of its cycle and
        // its time includes the spans nested inside it.
        let recorded = traced.spans.snapshot();
        for span in &recorded {
            let Some(parent) = span.parent else { continue };
            let cycle = &recorded[parent];
            if cycle.name != spans::CYCLE || cycle.parent.is_some() {
                continue;
            }
            if let Some(i) = STAGES.iter().position(|(name, _)| *name == span.name) {
                stage_ns[i].push(span.wall_ns);
            }
        }
    }
    if untraced.is_empty() {
        return;
    }
    let untraced_total: u64 = untraced.iter().sum();
    ledger.put("core.step_ns.p50", "ns", percentile(&untraced, 0.50) as f64);
    ledger.put("core.step_ns.p99", "ns", percentile(&untraced, 0.99) as f64);
    ledger.put("core.boot_cycles", "count", boot as f64);
    ledger.put("core.session_cycles", "count", session as f64);
    let mut stage_sum = 0u64;
    for ((_, metric), samples) in STAGES.iter().zip(&stage_ns) {
        ledger.check.record(samples.len() as u64 == session);
        stage_sum += samples.iter().sum::<u64>();
        let p50 = if samples.is_empty() { f64::NAN } else { percentile(samples, 0.50) as f64 };
        ledger.put(metric, "ns", p50);
    }
    ledger.put("core.stage_coverage", "ratio", stage_sum as f64 / traced_total as f64);
    ledger.put(
        "core.trace_overhead_frac",
        "ratio",
        traced_total as f64 / untraced_total as f64 - 1.0,
    );
    ledger.samples.push((
        "core.step_ns.untraced",
        [0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0]
            .iter()
            .map(|&q| percentile(&untraced, q) as f64)
            .collect(),
    ));
}

/// One monitor-fleet pass: detector cycles, assessments, deferrals and
/// the useful-work ratio of the lanes.
fn monitor_plane(ledger: &mut Ledger, seed: u64, thresholds: DetectionThresholds) {
    let sessions = inputs::monitor_population(seed);
    let mut fleet = FleetMonitor::new(inputs::monitor_config(thresholds), sessions.clone());
    let Some((_, report)) = measure::timed(|| fleet.run()) else {
        ledger.check.record_lost(sessions.len() as u64);
        return;
    };
    ledger.check.merge(monitor::check_repeat(&sessions, &report.totals, &report.totals));
    let assessments: u64 = report.totals.iter().map(|t| t.assessments).sum();
    ledger.put("fleet.monitor.detector_cycles", "count", report.cycles as f64);
    ledger.put("fleet.monitor.assessments", "count", assessments as f64);
    ledger.put("fleet.monitor.deferrals", "count", report.deferrals as f64);
    ledger.put(
        "fleet.monitor.lane_occupancy",
        "ratio",
        assessments as f64 / (report.cycles as f64 * inputs::MONITOR_WIDTH as f64),
    );
}

/// States and commands captured from one armed rig-fleet session.
struct Capture {
    params: PlantParams,
    arm: ArmConfig,
    /// Plant state after each Pedal-Down cycle.
    states: Vec<PlantState>,
    /// DAC words latched in that cycle.
    dacs: Vec<[i16; NUM_AXES]>,
}

impl Capture {
    /// Records the longest guarded session of the fleet.
    fn record(specs: &[SessionSpec]) -> Capture {
        let spec = specs
            .iter()
            .filter(|s| s.config.detector.is_some() && !s.attack.is_attack())
            .max_by_key(|s| s.config.session_ms)
            .expect("the rig fleet holds a guarded session");
        let mut sim = Simulation::new(SimConfig { record_cycles: true, ..spec.config.clone() });
        sim.boot();
        sim.run_session();
        let engaged = sim.cycle_log().iter().filter(|r| r.engaged);
        let (states, dacs) = engaged.map(|r| (r.state, r.dac)).unzip();
        let params = *sim.rig_params();
        let arm = ArmConfig::builder().coupling(params.coupling()).build();
        Capture { params, arm, states, dacs }
    }

    /// Consecutive (state before, command) pairs.
    fn steps(&self) -> impl Iterator<Item = (&PlantState, &[i16; NUM_AXES])> {
        self.states.iter().zip(self.dacs.iter().skip(1))
    }
}

/// Times `batch` (which makes `calls` calls) until `budget` passes;
/// returns ns per call of each batch.
fn per_call_ns(budget: Duration, calls: usize, mut batch: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || start.elapsed() < budget {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    samples
}

/// Repeats `pass`, which times each of its calls into the sample vector,
/// until `budget` passes (at least `min_passes` times).
fn each_call_ns(
    budget: Duration,
    min_passes: usize,
    mut pass: impl FnMut(&mut Vec<u64>),
) -> Vec<u64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut passes = 0;
    while passes < min_passes || start.elapsed() < budget {
        pass(&mut samples);
        passes += 1;
    }
    samples
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Micro-probes of the dynamics, detector, kinematics and USB layers on
/// the captured states and commands.
fn layer_probes(
    ledger: &mut Ledger,
    capture: &Capture,
    thresholds: DetectionThresholds,
    seed: u64,
    budget: Duration,
) {
    let calls = capture.states.len() - 1;
    let params = capture.params;
    let arm = &capture.arm;

    // raven-dynamics: the ground-truth plant period and the model step.
    let torques: Vec<[f64; NUM_AXES]> =
        capture.dacs.iter().map(|d| params.dac_to_torque(d)).collect();
    let samples = per_call_ns(budget, calls, || {
        for (state, tau) in capture.states.iter().zip(torques.iter().skip(1)) {
            let mut plant = RavenPlant::with_state(params, *state);
            plant.release_brakes();
            plant.step_control_period(tau);
            std::hint::black_box(plant.state());
        }
    });
    timed_metric(ledger, "dynamics.plant_period_ns", samples);
    for (method, name) in
        [(Method::Euler, "dynamics.predict_euler_ns"), (Method::Rk4, "dynamics.predict_rk4_ns")]
    {
        let model = RtModel::with_config(params, RtModelConfig { method, step_size: 1e-3 });
        let mut finite = true;
        let samples = per_call_ns(budget, calls, || {
            for (state, dac) in capture.steps() {
                finite &= std::hint::black_box(model.predict(state, dac)).is_finite();
            }
        });
        ledger.check.record(finite);
        timed_metric(ledger, name, samples);
    }

    // raven-detect: armed verdicts (sync + assess, with lookahead) and
    // learning-mode assessments, each call timed on its own.
    let model = RtModel::new(params.perturbed(seed, 0.02));
    let measured: Vec<MotorState> = capture.states.iter().map(PlantState::motor_pos).collect();
    for (armed, p50_name) in [(true, "detect.verdict_ns.p50"), (false, "detect.learn_ns.p50")] {
        let mut det = DynamicDetector::new(arm.clone(), model.clone(), DetectorConfig::default());
        if armed {
            det.arm_with(thresholds);
        }
        let mut answered = true;
        let samples = each_call_ns(budget, 2, |out| {
            for (mpos, dac) in measured.iter().zip(capture.dacs.iter().skip(1)) {
                let t = Instant::now();
                det.sync_measurement(*mpos);
                answered &= std::hint::black_box(det.assess(dac)).is_some();
                out.push(elapsed_ns(t));
            }
        });
        ledger.check.record(answered);
        ledger.put(p50_name, "ns", percentile(&samples, 0.50) as f64);
        if armed {
            ledger.put("detect.verdict_ns.p99", "ns", percentile(&samples, 0.99) as f64);
        }
    }

    // The batch detector at the monitor's measured occupancy.
    let occupancy = ledger.value("fleet.monitor.lane_occupancy");
    let width = inputs::MONITOR_WIDTH;
    let engaged = ((occupancy * width as f64).round() as usize).clamp(1, width);
    let mut batch = BatchDetector::from_models(
        &vec![arm.clone(); width],
        &vec![model.clone(); width],
        DetectorConfig::default(),
    );
    for lane in 0..engaged {
        batch.admit_lane(lane, arm.clone(), &model, Some(thresholds));
    }
    let mut slots: Vec<Option<[i16; NUM_AXES]>> = vec![None; width];
    let n = measured.len();
    let samples = per_call_ns(budget, calls * engaged, || {
        for cycle in 0..calls {
            for (lane, slot) in slots.iter_mut().enumerate().take(engaged) {
                let k = (cycle + 17 * lane) % (n - 1);
                batch.sync_lane(lane, measured[k]);
                *slot = Some(capture.dacs[k + 1]);
            }
            std::hint::black_box(batch.assess_lanes_masked(&slots));
        }
    });
    ledger.check.record((0..engaged).all(|lane| batch.lane_assessments(lane) > 0));
    timed_metric(ledger, "detect.batch_ns_per_lane", samples);

    // raven-kinematics: forward and inverse kinematics.
    let joints: Vec<_> = capture.states.iter().map(PlantState::joint_pos).collect();
    let samples = per_call_ns(budget, joints.len(), || {
        for q in &joints {
            std::hint::black_box(arm.forward(q));
        }
    });
    timed_metric(ledger, "kinematics.fk_ns", samples);
    let targets: Vec<_> = joints.iter().map(|q| arm.forward(q).position).collect();
    for p in &targets {
        let back = arm.inverse(*p).map(|q| arm.forward(&q).position.distance(*p));
        ledger.check.record(back.is_ok_and(|d| d < 1e-9));
    }
    let samples = per_call_ns(budget, targets.len(), || {
        for p in &targets {
            let _ = std::hint::black_box(arm.inverse(*p));
        }
    });
    timed_metric(ledger, "kinematics.ik_ns", samples);

    // raven-hw and raven-attack: the USB write path, bare and with the
    // injection wrapper (the Table II analog).
    let packets: Vec<Vec<u8>> = capture
        .dacs
        .iter()
        .enumerate()
        .map(|(k, d)| {
            let mut dac = [0i16; 8];
            dac[..NUM_AXES].copy_from_slice(d);
            UsbCommandPacket { state: RobotState::PedalDown, watchdog: k % 2 == 0, dac }
                .encode()
                .to_vec()
        })
        .collect();
    for (injected, name) in [(false, "hw.write_ns.bare"), (true, "hw.write_ns.injected")] {
        let mut channel = UsbChannel::new();
        if injected {
            channel.install(Box::new(InjectionWrapper::pedal_down_trigger(
                Corruption::AddDacWord { channel: 0, delta: 50 },
                ActivationWindow::immediate_persistent(),
            )));
        }
        for buf in &packets {
            let out = channel.write(buf.clone(), SimTime::ZERO);
            ledger.check.record(out.mutated == injected && out.delivered.is_some());
        }
        let samples = per_call_ns(budget, packets.len(), || {
            for buf in &packets {
                std::hint::black_box(channel.write(buf.clone(), SimTime::ZERO));
            }
        });
        timed_metric(ledger, name, samples);
    }
}

/// Records the median of per-batch samples and keeps the samples.
fn timed_metric(ledger: &mut Ledger, name: &'static str, samples: Vec<f64>) {
    ledger.put(name, "ns", median(&samples));
    ledger.samples.push((name, samples));
}

/// The Table IV quick protocol with the executor traced: training time,
/// evaluation time, worker utilization and run count.
fn campaign(ledger: &mut Ledger, seed: u64) {
    let config = inputs::table4_config(seed);
    let exec = ExecutorConfig::with_workers(inputs::available_workers());
    let Some((train_ns, training)) =
        measure::timed(|| train_thresholds_with(&config.training, &exec))
    else {
        ledger.check.record_lost(1);
        return;
    };
    let collector = Arc::new(SweepTraceCollector::new());
    let traced = exec.traced(Arc::clone(&collector));
    let Some((total_ns, result)) = measure::timed(|| run_table4_with(&config, &traced)) else {
        ledger.check.record_lost(1);
        return;
    };
    ledger.check.record(result.thresholds == training.thresholds);
    let segments = collector.utilization();
    let train_segment_ns: u64 =
        segments.iter().filter(|s| s.label == "training").map(|s| s.wall_ns).sum();
    let busy: u64 = segments.iter().flat_map(|s| &s.per_worker).map(|w| w.busy_ns).sum();
    let capacity: u64 = segments.iter().map(|s| s.wall_ns * s.per_worker.len() as u64).sum();
    ledger.put("campaign.train_s", "s", train_ns as f64 / 1e9);
    ledger.put("campaign.eval_s", "s", total_ns.saturating_sub(train_segment_ns) as f64 / 1e9);
    ledger.put("campaign.worker_util", "ratio", busy as f64 / capacity as f64);
    ledger.put("campaign.runs", "count", segments.iter().map(|s| s.runs).sum::<usize>() as f64);
}
