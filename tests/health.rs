//! Fleet health plane end-to-end: hierarchical rollups, quantile
//! sketches and SLO alerting must be bit-identical across same-seed runs,
//! control-plane architectures and what-if branches, and the alert
//! journal must match the golden `ALERTS` fixture (see DESIGN §17).

use ppc::cluster::{ClusterSim, ClusterSpec};
use ppc::core::{HierarchicalManager, ManagerConfig, NodeSets, PolicyKind, PowerManager, Topology};
use ppc::faults::{FaultInjection, FaultRates, FaultSchedule};
use ppc::obs::{health_jsonl, prometheus_health, render_alerts, validate_health};
use ppc::simkit::{RngFactory, SimDuration};
use ppc::whatif::ClusterSnapshot;
use std::collections::BTreeSet;

const NODES: u32 = 8;
const RUN_SECS: u64 = 400;

/// The determinism gate's scenario: tight provision, aggressive faults.
fn gate_spec() -> (ClusterSpec, FaultSchedule, ManagerConfig) {
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
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    (spec, schedule, config)
}

fn flat() -> ClusterSim {
    let (spec, schedule, config) = gate_spec();
    let sets = NodeSets::new(spec.node_ids(), []);
    let manager = PowerManager::new(config, sets).expect("valid manager");
    ClusterSim::new(spec)
        .with_manager(manager)
        .with_faults(FaultInjection::new(schedule))
}

/// Hierarchical control plane over `topology` (multi-rack unless the
/// single-rack topology is passed), same spec and fault schedule.
fn hier(topology: Topology) -> ClusterSim {
    let (spec, schedule, config) = gate_spec();
    let h = HierarchicalManager::new(config, topology, &BTreeSet::new(), spec.node_weights_w())
        .expect("valid hierarchy");
    ClusterSim::new(spec)
        .with_hierarchy(h)
        .with_faults(FaultInjection::new(schedule))
}

/// 2 rows × 2 racks of 2 nodes: real delegation, real rollup tree.
fn three_level() -> Topology {
    Topology::new(NODES, 2, 2).expect("valid topology")
}

#[test]
fn health_fingerprints_pin_across_same_seed_runs() {
    let mut digests = Vec::new();
    for run in 0..2 {
        let mut sim = hier(three_level());
        sim.run_for(SimDuration::from_secs(RUN_SECS));
        let hp = sim.health();
        // Vacuity: the plane must have folded real cycles, per-rack
        // zones, and at least one fleet node-power sample.
        assert!(hp.rollup().facility().cycles > 100, "run {run}");
        assert_eq!(hp.rollup().racks().len(), 4);
        assert_eq!(hp.rollup().rows().len(), 2);
        assert!(hp.node_power().count() > 0, "run {run}");
        digests.push(sim.health_fingerprints());
    }
    assert_eq!(
        digests[0], digests[1],
        "health fingerprints diverged across same-seed runs"
    );
}

#[test]
fn multi_rack_exports_carry_every_zone() {
    let mut sim = hier(three_level());
    sim.run_for(SimDuration::from_secs(RUN_SECS));
    let hp = sim.health();
    let (racks, rows) = (hp.rollup().racks().len(), hp.rollup().rows().len());
    assert_eq!((racks, rows), (4, 2));
    let summary = validate_health(&health_jsonl(hp)).expect("valid health JSONL");
    assert_eq!(summary.zone_lines, racks + rows + 1);
    let text = prometheus_health(hp);
    for metric in ["ppc_rack_power_watts{", "ppc_rack_power_dist_watts_count{"] {
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with(metric)).collect();
        assert_eq!(lines.len(), racks, "{metric}: {lines:?}");
        for (r, line) in lines.iter().enumerate() {
            let row = hp.rollup().map().row_of(r);
            assert!(
                line.contains(&format!("{{rack=\"{r}\",row=\"{row}\"}}")),
                "{line}"
            );
        }
    }
}

#[test]
fn flat_and_single_rack_hierarchy_agree_on_health() {
    let mut a = flat();
    a.run_for(SimDuration::from_secs(RUN_SECS));
    let topo = Topology::single_rack(NODES).expect("valid topology");
    let mut b = hier(topo);
    b.run_for(SimDuration::from_secs(RUN_SECS));
    assert_eq!(
        a.health_fingerprints(),
        b.health_fingerprints(),
        "a single-rack hierarchy must observe the same health stream as the flat manager"
    );
    // Not just the hashes: the whole plane.
    assert_eq!(a.health(), b.health());
}

#[test]
fn whatif_branch_replays_health_bit_for_bit() {
    // Fresh full run vs snapshot-at-half + branch-to-end: the branch
    // carries the health plane and must land on identical fingerprints.
    let mut fresh = hier(three_level());
    fresh.run_for(SimDuration::from_secs(RUN_SECS));

    let half = RUN_SECS / 2;
    let mut sim = hier(three_level());
    sim.run_for(SimDuration::from_secs(half));
    let snapshot = ClusterSnapshot::capture(&sim);
    // Perturb the original past the capture point: a branch secretly
    // sharing health state with it would diverge.
    sim.run_for(SimDuration::from_secs(30));
    let mut branch = snapshot.branch();
    branch.run_for(SimDuration::from_secs(RUN_SECS - half));

    assert_eq!(fresh.health_fingerprints(), branch.health_fingerprints());
}

/// The golden-fixture scenario: an unfaulted 55%-provisioned mini
/// cluster dwells Red long enough to burn through the dual-window rule
/// and trip cap-overshoot — a deterministic, readable alert timeline.
fn fixture_sim() -> ClusterSim {
    let mut spec = ClusterSpec::mini(6);
    spec.provision_fraction = 0.55;
    let sets = NodeSets::new(spec.node_ids(), []);
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let manager = PowerManager::new(config, sets).expect("valid manager");
    let mut sim = ClusterSim::new(spec).with_manager(manager);
    sim.run_for(SimDuration::from_mins(15));
    sim
}

#[test]
fn alert_journal_matches_golden_fixture() {
    let sim = fixture_sim();
    let rendered = render_alerts(sim.health().alerts());
    assert!(
        !rendered.is_empty(),
        "the fixture scenario must produce alert edges"
    );
    // `PPC_REGEN_FIXTURES=1 cargo test --test health` rewrites the
    // golden file instead of comparing (then rerun without the env).
    if std::env::var_os("PPC_REGEN_FIXTURES").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ALERTS.txt"),
            &rendered,
        )
        .expect("fixture write");
        return;
    }
    let golden = include_str!("fixtures/ALERTS.txt");
    assert_eq!(
        rendered, golden,
        "alert timeline diverged from tests/fixtures/ALERTS.txt — if the \
         change is intentional, regenerate the fixture (see its header note \
         in DESIGN §17)"
    );
}

#[test]
fn slo_alert_firing_trips_the_flight_recorder() {
    let sim = fixture_sim();
    let opens = sim
        .health()
        .alerts()
        .iter()
        .filter(|e| e.edge == ppc::obs::AlertEdge::Open)
        .count();
    assert!(opens > 0, "fixture scenario must open alerts");
    let report = sim.obs().report();
    let slo_snaps: Vec<_> = report
        .flight
        .iter()
        .filter(|s| s.reason.starts_with("slo:"))
        .collect();
    assert!(
        !slo_snaps.is_empty(),
        "an opening SLO alert must trigger a flight-recorder snapshot"
    );
    // The snapshot names the rule that fired and carries context.
    assert!(slo_snaps.iter().any(|s| !s.spans.is_empty()));
}

#[test]
fn experiment_outcome_carries_health_report() {
    use ppc::cluster::experiment::{run_experiment, ExperimentConfig};
    let out = run_experiment(&ExperimentConfig::quick(Some(PolicyKind::Mpc), 8));
    assert!(out.health.cycles > 0);
    assert!(
        out.health.node_power.count > 0 || out.health.cycles < 64,
        "a run spanning a sampling period must populate the node sketch"
    );
}
