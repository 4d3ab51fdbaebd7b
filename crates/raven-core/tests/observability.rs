//! Integration tests for the observability layer: deterministic event log
//! and metrics, and the flight recorder's incident capture on a scenario-A
//! attack (the ISSUE's acceptance protocol).

use raven_core::training::{train_thresholds_with, TrainingConfig};
use raven_core::{AttackSetup, DetectorSetup, ExecutorConfig, SimConfig, Simulation};
use raven_detect::{DetectorConfig, Mitigation};
use simbus::SimTime;

/// A guarded simulation with quick-trained thresholds, the given
/// mitigation policy, and trace recording on (the flight recorder needs
/// signal history to fill the incident window).
fn guarded_sim(seed: u64, mitigation: Mitigation, attack: &AttackSetup) -> Simulation {
    let thresholds = train_thresholds_with(
        &TrainingConfig { runs: 16, ..TrainingConfig::quick(19) },
        &ExecutorConfig::default(),
    )
    .thresholds;
    let mut sim = Simulation::new(SimConfig {
        session_ms: 4_000,
        record_cycles: true,
        detector: Some(DetectorSetup {
            config: DetectorConfig { mitigation, ..DetectorConfig::default() },
            thresholds: Some(thresholds),
        }),
        ..SimConfig::standard(seed)
    });
    sim.install_attack(attack);
    sim.boot();
    sim
}

#[test]
fn event_log_and_metrics_serialize_byte_identically_across_identical_runs() {
    let attack = AttackSetup::ScenarioB {
        dac_delta: 30_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    };
    let run = || {
        let mut sim = guarded_sim(23, Mitigation::EStop, &attack);
        let _ = sim.run_session();
        (
            serde_json::to_string(&sim.events()).expect("serialize events"),
            serde_json::to_string(&sim.metrics()).expect("serialize metrics"),
        )
    };
    let (events_a, metrics_a) = run();
    let (events_b, metrics_b) = run();
    assert!(events_a.len() > 2, "the guarded attack run must produce events");
    assert_eq!(events_a, events_b, "event log must be byte-identical across identical runs");
    assert_eq!(metrics_a, metrics_b, "metrics must be byte-identical across identical runs");
}

#[test]
fn scenario_a_attack_trips_the_flight_recorder_with_ordered_events() {
    let attack =
        AttackSetup::ScenarioA { magnitude: 4.0e-3, delay_packets: 300, duration_packets: 512 };
    let mut sim = guarded_sim(29, Mitigation::EStop, &attack);
    let out = sim.run_session();
    assert!(out.model_detected, "the guard must catch the scenario-A injection: {out:?}");

    let incident = sim.incident().expect("flight recorder must trip");
    assert!(incident.cause.starts_with("estop"), "E-STOP outranks the other causes: {incident:?}");
    assert_eq!(incident.seed, 29);

    // The dump is parseable JSON.
    let json = serde_json::to_string(incident).expect("incident serializes");
    assert!(json.contains("\"events\"") && json.contains("\"signals\""));

    // The ring holds the full story, in virtual-time order: state
    // transitions, the injection, the detector verdict, and the E-STOP.
    let kinds: Vec<&str> = incident.events.iter().map(|e| e.kind.as_str()).collect();
    for required in ["state.transition", "attack.injection", "detector.verdict", "estop.latched"] {
        assert!(kinds.contains(&required), "missing {required} in {kinds:?}");
    }
    assert!(
        incident.events.windows(2).all(|w| w[0].time <= w[1].time),
        "events must be in virtual-time order"
    );

    // The injection that tripped the recorder is inside the captured window.
    let injection = incident.events.iter().find(|e| e.kind == "attack.injection").unwrap();
    assert!(injection.time <= incident.time);

    // Signal history covers the window (record_cycles was on).
    assert!(!incident.signals.is_empty(), "incident must carry trace signals");
    let from = SimTime::from_nanos(
        incident.time.as_nanos().saturating_sub(incident.window_ms * 1_000_000),
    );
    for (name, samples) in &incident.signals {
        assert!(!samples.is_empty(), "{name} window empty");
        assert!(samples.iter().all(|s| s.time >= from && s.time <= incident.time), "{name}");
    }

    // The metrics registry recorded the alarm and its latency.
    let metrics = sim.metrics();
    assert!(metrics.counter("detector.alarms") >= 1);
    let latency = metrics
        .histogram("detector.detection_latency_cycles")
        .expect("detection latency histogram");
    assert_eq!(latency.count, 1);
}

#[test]
fn clean_session_trips_nothing_and_counts_transitions() {
    let mut sim = guarded_sim(31, Mitigation::EStop, &AttackSetup::None);
    let out = sim.run_session();
    assert!(!out.model_detected && out.estop.is_none(), "{out:?}");
    assert!(sim.incident().is_none(), "no fault, no alarm, no E-STOP => no incident");
    let metrics = sim.metrics();
    assert_eq!(metrics.counter("detector.alarms"), 0);
    assert_eq!(metrics.counter("attack.injections"), 0);
    // Boot walks E-STOP -> Init -> Pedal Up -> Pedal Down.
    assert!(metrics.counter("control.transitions") >= 3);
}

#[test]
fn drop_itp_mid_session_keeps_loss_accounting_cumulative() {
    // Regression: installing `DropItp` used to replace the live ITP link
    // with a fresh one, zeroing its counters (so `net.packets_dropped`
    // under-reported everything before the install) and vaporizing
    // packets already in flight. The fix degrades the link in place.
    let mut sim = Simulation::new(SimConfig {
        session_ms: 3_000,
        link: simbus::LinkConfig::lossy_wan(0.3),
        ..SimConfig::standard(7)
    });
    sim.boot();
    for _ in 0..500 {
        sim.step();
    }
    let before = sim.metrics().counter("net.packets_dropped");
    assert!(before > 0, "the lossy pre-attack phase must drop some packets");

    sim.install_attack(&AttackSetup::DropItp);
    for _ in 0..200 {
        sim.step();
    }
    // Every post-install send is lost (probability 1.0), and the loss
    // counter keeps the pre-attack history: one packet per step.
    let after = sim.metrics().counter("net.packets_dropped");
    assert_eq!(after, before + 200, "losses must accumulate across the attack install");
}
