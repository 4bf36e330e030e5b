//! Observability extensions end-to-end: the event journal, the thermal
//! model, the collector's rate view, and the `ppc-obs` tracing layer
//! (span/metrics fingerprints, flight recorder, exporters).

use ppc::cluster::spec::NodeGroup;
use ppc::cluster::{ClusterSim, ClusterSpec};
use ppc::core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
use ppc::faults::{FaultInjection, FaultRates, FaultSchedule};
use ppc::node::spec::NodeSpec;
use ppc::simkit::{RngFactory, Severity, SimDuration};
use ppc::telemetry::{Collector, NodeSample};
use std::collections::BTreeMap;

fn managed(mut spec: ClusterSpec, provision: f64) -> ClusterSim {
    spec.provision_fraction = provision;
    let sets = NodeSets::new(spec.node_ids(), []);
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let manager = PowerManager::new(config, sets).expect("valid");
    ClusterSim::new(spec).with_manager(manager)
}

#[test]
fn journal_records_job_lifecycle_and_state_flips() {
    let mut sim = managed(ClusterSpec::mini(6), 0.60);
    sim.run_for(SimDuration::from_mins(15));
    let journal = sim.journal();
    assert!(!journal.is_empty());
    let starts = journal
        .by_category("job")
        .filter(|e| e.message.contains("started"))
        .count();
    let finishes = journal
        .by_category("job")
        .filter(|e| e.message.contains("finished"))
        .count();
    assert!(starts > 10, "starts={starts}");
    assert!(finishes > 5, "finishes={finishes}");
    assert!(
        finishes <= starts,
        "cannot finish more jobs than started ({finishes} > {starts})"
    );
    // Under 60% provision the state must have flipped at least once, and
    // red entries are WARN severity.
    let flips = journal.by_category("state").count();
    assert!(flips >= 1);
    for e in journal.by_category("state") {
        if e.message.contains("red") {
            assert_eq!(e.severity, Severity::Warn);
        }
    }
    // Events are time-ordered.
    let times: Vec<_> = journal.iter().map(|e| e.at).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn thermal_cluster_tracks_temperature_and_failure_integral() {
    let spec = ClusterSpec {
        node_spec: NodeSpec::tianhe_1a_thermal(),
        ..ClusterSpec::mini(4)
    };
    let mut sim = ClusterSim::new(spec);
    sim.run_for(SimDuration::from_mins(30));
    let peak = sim.peak_temperature_c().expect("thermal enabled");
    assert!(
        (25.0..90.0).contains(&peak),
        "peak temperature {peak} outside the physical envelope"
    );
    let integral = sim.failure_rate_integral().expect("thermal enabled");
    let wall = sim.now().as_secs_f64();
    // Running warmer than ambient ⇒ mean failure rate above 1×; bounded by
    // the 2^((T_max−T_amb)/10) ceiling.
    assert!(integral > wall, "integral {integral} ≤ wall {wall}");
    assert!(integral < wall * 2f64.powf((peak - 25.0) / 10.0) + 1.0);
    // A plain cluster reports None.
    let mut plain = ClusterSim::new(ClusterSpec::mini(4));
    plain.run_for(SimDuration::from_secs(10));
    assert_eq!(plain.peak_temperature_c(), None);
    assert_eq!(plain.failure_rate_integral(), None);
}

#[test]
fn mixed_thermal_and_plain_partitions_account_only_thermal_nodes() {
    let spec = ClusterSpec {
        node_spec: NodeSpec::tianhe_1a(),
        extra_groups: vec![NodeGroup {
            spec: NodeSpec::tianhe_1a_thermal(),
            count: 2,
        }],
        ..ClusterSpec::mini(4)
    };
    let mut sim = ClusterSim::new(spec);
    sim.run_for(SimDuration::from_mins(10));
    // Thermal accounting is live because *some* nodes have the model.
    assert!(sim.peak_temperature_c().is_some());
    assert!(sim.failure_rate_integral().unwrap() > 0.0);
}

#[test]
fn power_rate_follows_the_last_interval_swing() {
    use ppc::node::{Level, NodeId, OperatingState};
    use ppc::simkit::SimTime;
    let mut c = Collector::new();
    // A sawtooth: alternating ±20% around a rising trend.
    let powers = [200.0, 245.0, 230.0, 280.0, 260.0, 320.0];
    for (t, &p) in powers.iter().enumerate() {
        c.ingest(NodeSample {
            node: NodeId(1),
            at: SimTime::from_secs(t as u64),
            state: OperatingState {
                cpu_util: 0.5,
                mem_used_bytes: 0,
                nic_bytes: 0,
            },
            level: Level::new(9),
            power_w: p,
        });
    }
    // The rate ΔP/P spans one interval only: it reads the last sawtooth
    // swing, not the rising trend underneath.
    let rate = c.power_rate_of(NodeId(1)).unwrap();
    assert!((rate - (320.0 - 260.0) / 260.0).abs() < 1e-9, "rate={rate}");
}

/// The determinism gate's scenario in miniature: managed, faulted, tight
/// provision.
fn faulted_managed() -> ClusterSim {
    const NODES: u32 = 8;
    const RUN_SECS: u64 = 400;
    let mut spec = ClusterSpec::mini(NODES);
    spec.provision_fraction = 0.60;
    let rates = FaultRates {
        crash_per_node_hour: 6.0,
        reboot_mean_secs: 45.0,
        hang_per_node_hour: 6.0,
        silence_per_node_hour: 8.0,
        partition_per_hour: 10.0,
        partition_width: 4,
        ..FaultRates::default()
    };
    let schedule = FaultSchedule::generate(
        &rates,
        NODES,
        SimDuration::from_secs(RUN_SECS),
        &RngFactory::new(spec.seed),
    );
    let sets = NodeSets::new(spec.node_ids(), []);
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let manager = PowerManager::new(config, sets).expect("valid manager");
    let mut sim = ClusterSim::new(spec)
        .with_manager(manager)
        .with_faults(FaultInjection::new(schedule));
    sim.run_for(SimDuration::from_secs(RUN_SECS));
    sim
}

#[test]
fn span_and_metrics_fingerprints_pin_across_same_seed_runs() {
    let first = faulted_managed();
    let second = faulted_managed();
    let (rn, rw) = (first.obs().report(), second.obs().report());
    assert!(rn.spans_closed > 0, "tracing must have recorded spans");
    assert!(!rn.metrics.is_empty(), "registry must hold instruments");
    assert_eq!(
        rn.span_fingerprint, rw.span_fingerprint,
        "span tree must be bit-identical across same-seed runs"
    );
    assert_eq!(
        rn.metrics_fingerprint, rw.metrics_fingerprint,
        "metrics registry must be bit-identical across same-seed runs"
    );
    // The full reports — every attribute, bucket count and flight
    // snapshot — must agree too, not just the hashes.
    assert_eq!(rn.metrics, rw.metrics);
    assert_eq!(rn.flight, rw.flight);
}

#[test]
fn flight_recorder_dumps_on_first_red_entry() {
    let mut sim = managed(ClusterSpec::mini(6), 0.55);
    sim.run_for(SimDuration::from_mins(15));
    let report = sim.obs().report();
    let red: Vec<_> = report
        .flight
        .iter()
        .filter(|s| s.reason == "red-entry")
        .collect();
    assert!(
        !red.is_empty(),
        "a 55%-provisioned cluster must enter Red and trip the recorder"
    );
    let snap = red[0];
    assert!(!snap.spans.is_empty(), "snapshot must carry recent spans");
    assert!(!snap.metrics.is_empty(), "snapshot must carry the registry");
    // The snapshot includes the cycle that flipped Red: its root span
    // closed before the trigger, so the tail must contain it.
    assert!(
        snap.spans.iter().any(|s| s.name == "cycle"),
        "snapshot tail must include the triggering control cycle"
    );
}

#[test]
fn exports_validate_and_cover_every_cycle_stage() {
    let sim = faulted_managed();
    let obs = sim.obs();

    // Every control cycle produced one root span and one span per stage.
    let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
    for s in obs.spans.iter() {
        *by_name.entry(s.name).or_insert(0) += 1;
    }
    let cycles = by_name.get("cycle").copied().unwrap_or(0);
    assert!(cycles > 100, "expected hundreds of control cycles");
    for stage in [
        "sample", "ingest", "observe", "classify", "capping", "actuate",
    ] {
        let n = by_name.get(stage).copied().unwrap_or(0);
        assert_eq!(n, cycles, "stage `{stage}`: {n} spans for {cycles} cycles");
    }

    // JSONL round-trips through the CI schema validator.
    let stream = ppc::obs::jsonl(&obs.spans, &obs.metrics);
    let summary = ppc::obs::validate_jsonl(&stream).expect("generated JSONL must validate");
    assert_eq!(summary.meta_lines, 1);
    assert_eq!(summary.span_lines, obs.spans.len());
    assert_eq!(summary.metric_lines, obs.metrics.len());

    // The Chrome trace is one JSON document with a complete ("ph":"X")
    // event per closed span, microsecond-ordered for Perfetto.
    let chrome = ppc::obs::chrome_trace(&obs.spans);
    let parsed: serde_json::Value =
        serde_json::from_str(&chrome).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    // One process_name metadata event plus one complete event per span.
    assert_eq!(events.len(), obs.spans.len() + 1);

    // Prometheus text: every instrument surfaced with HELP/TYPE headers.
    let prom = ppc::obs::prometheus(&obs.metrics);
    for m in &obs.metrics.dump() {
        assert!(prom.contains(m.name.as_str()), "missing {}", m.name);
    }
    assert_eq!(
        prom.matches("# TYPE").count(),
        obs.metrics.len(),
        "one TYPE header per instrument"
    );
}
