//! Observability extensions end-to-end: the event journal, the thermal
//! model, the collector's rate view, and the `ppc-obs` flight recorder.
//! The span/metrics replay and the exporters are pinned on the faulted
//! `gate8` row of `tests/fingerprints.rs`.

use ppc::cluster::spec::NodeGroup;
use ppc::cluster::{ClusterSim, ClusterSpec};
use ppc::core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
use ppc::node::spec::NodeSpec;
use ppc::simkit::{Severity, SimDuration};
use ppc::telemetry::{Collector, NodeSample};

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
    // The rate ΔP/P spans one interval only: the collector keeps the
    // last sawtooth swing, not the rising trend underneath.
    let latest = c.latest(NodeId(1)).unwrap().power_w;
    let prev = c.prev_power_of(NodeId(1)).unwrap();
    assert_eq!((prev, latest), (260.0, 320.0));
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
