//! Snapshot/branch correctness: the tentpole contract of `ppc-whatif`.
//!
//! A branched run must be bit-identical to a fresh same-seed run driven
//! to the same point — proven by all four determinism fingerprints
//! (journal, power trace, spans, metrics) — through serde round-trips of
//! the recipe form, under an active fault schedule, and with the
//! journal's and the span recorder's ring evictions intact.

use ppc_cluster::ExperimentConfig;
use ppc_cluster::{ClusterSim, ClusterSpec};
use ppc_core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
use ppc_faults::{FaultInjection, FaultRates, FaultSchedule};
use ppc_obs::FlightSnapshot;
use ppc_simkit::{Event, RngFactory, SimDuration};
use ppc_whatif::{BaseScenario, ClusterSnapshot};
use ppc_workload::{Class, NpbApp};

const NODES: u32 = 8;
const RUN_SECS: u64 = 300;

/// All four determinism fingerprints plus the countable outcomes.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    journal: u64,
    trace: u64,
    spans: u64,
    metrics: u64,
    finished: usize,
    commands: u64,
}

/// The retained spans exactly as exported: the JSONL stream and the
/// Chrome trace.
fn exports(sim: &ClusterSim) -> (String, String) {
    let obs = sim.obs();
    (
        ppc_obs::jsonl(&obs.spans, &obs.metrics),
        ppc_obs::chrome_trace(&obs.spans),
    )
}

fn digest(sim: &ClusterSim) -> Digest {
    Digest {
        journal: sim.journal().fingerprint(),
        trace: sim.true_power().fingerprint(),
        spans: sim.span_fingerprint(),
        metrics: sim.metrics_fingerprint(),
        finished: sim.finished().len(),
        commands: sim.commands_applied(),
    }
}

/// A managed, faulted, tightly provisioned mini cluster — every subsystem
/// the snapshot must capture is active.
fn faulted_sim() -> ClusterSim {
    faulted_sim_provisioned(0.60)
}

/// [`faulted_sim`] at another provision fraction.
fn faulted_sim_provisioned(fraction: f64) -> ClusterSim {
    let mut spec = ClusterSpec::mini(NODES);
    spec.provision_fraction = fraction;
    let rates = FaultRates {
        crash_per_node_hour: 12.0,
        reboot_mean_secs: 30.0,
        silence_per_node_hour: 8.0,
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
    let manager = PowerManager::new(config, sets).expect("valid config");
    ClusterSim::new(spec)
        .with_manager(manager)
        .with_faults(FaultInjection::new(schedule))
}

/// Branch-vs-fresh: a snapshot taken halfway and driven to the end must
/// be bit-identical to the uninterrupted same-seed run — even after the
/// original is perturbed past the capture point.
#[test]
fn branch_matches_fresh_same_seed_run() {
    let mut fresh = faulted_sim();
    fresh.run_for(SimDuration::from_secs(RUN_SECS));
    let reference = digest(&fresh);

    let mut original = faulted_sim();
    original.run_for(SimDuration::from_secs(RUN_SECS / 2));
    let snapshot = ClusterSnapshot::capture(&original);
    // Drive the original past the capture point: a branch secretly
    // sharing state with it would diverge.
    original.run_for(SimDuration::from_secs(25));
    let mut branch = snapshot.branch();
    branch.run_for(SimDuration::from_secs(RUN_SECS / 2));
    assert_eq!(
        digest(&branch),
        reference,
        "branched run diverged from the fresh run"
    );

    // Drive both past a wrapped span ring: the retained records and their
    // attributes, not only the hashes, must match byte for byte.
    while fresh.obs().spans.closed() <= ppc_obs::hub::DEFAULT_SPAN_CAPACITY as u64 {
        fresh.step();
        branch.step();
    }
    assert!(
        branch.obs().spans.dropped() > 0,
        "the ring must have wrapped"
    );
    assert_eq!(digest(&branch), digest(&fresh));
    assert!(
        exports(&branch) == exports(&fresh),
        "exports of a wrapped ring diverged between branch and fresh run"
    );
}

/// Two sibling branches of one snapshot are independent: mutating one
/// (decommission, injection) leaves the other bit-identical to the
/// untouched continuation, and stepping them through a Red entry, flight
/// snapshots and a wrapping journal leaves the snapshot's retained
/// history — spans, journal, flight snapshots — exactly as captured,
/// though the branches share its sealed history chunks.
#[test]
fn sibling_branches_are_isolated_under_faults() {
    // At this provision and capture time the flight recorder still has
    // room, and a Red entry follows within the branches' minute; the
    // journal ring has wrapped before the capture and wraps on after it.
    let mut sim = faulted_sim_provisioned(0.65).with_journal_capacity(16);
    sim.run_for(SimDuration::from_secs(60));
    let snapshot = ClusterSnapshot::capture(&sim);
    let base = snapshot.base();
    let base_exports = exports(base);
    let journal_state = |sim: &ClusterSim| {
        let j = sim.journal();
        let events: Vec<Event> = j.iter().cloned().collect();
        (events, j.fingerprint(), j.dropped())
    };
    let flight_state = |sim: &ClusterSim| -> Vec<FlightSnapshot> {
        let flight = sim.obs().flight.snapshots();
        flight.iter().map(|s| FlightSnapshot::clone(s)).collect()
    };
    let base_journal = journal_state(base);
    let base_flight = flight_state(base);
    assert!(
        base.journal().iter().any(|e| e.category == "fault"),
        "capture point must sit inside an active fault schedule"
    );
    assert!(
        base.journal().dropped() > 0,
        "the journal must have wrapped"
    );
    assert!(base_flight.len() < ppc_obs::hub::DEFAULT_FLIGHT_SNAPSHOTS);

    let mut mutated = snapshot.branch();
    mutated.decommission_node(ppc_node::NodeId(NODES - 1));
    mutated.inject_job(NpbApp::Cg, Class::B, 8, ppc_workload::JobPriority::Normal);
    let mut clean = snapshot.branch();
    mutated.run_for(SimDuration::from_secs(60));
    clean.run_for(SimDuration::from_secs(60));
    assert!(
        journal_state(snapshot.base()) == base_journal,
        "stepping branches must leave the snapshot's journal unchanged"
    );
    assert_eq!(
        flight_state(snapshot.base()),
        base_flight,
        "stepping branches must leave the snapshot's flight snapshots unchanged"
    );
    assert!(
        exports(snapshot.base()) == base_exports,
        "stepping branches must leave the snapshot's spans and attributes unchanged"
    );

    sim.run_for(SimDuration::from_secs(60));
    assert_eq!(
        digest(&clean),
        digest(&sim),
        "clean branch must match the continued original"
    );
    assert_ne!(
        digest(&mutated).trace,
        digest(&sim).trace,
        "the mutation must actually change the mutated branch"
    );
    for branch in [&clean, &mutated] {
        assert!(
            branch.journal().dropped() > base_journal.2,
            "the branches' journals must wrap on"
        );
        assert!(branch.obs().flight.len() > base_flight.len());
    }
    assert!(
        clean
            .obs()
            .flight
            .snapshots()
            .iter()
            .any(|s| s.reason == "red-entry" && s.at_ms > snapshot.now().as_millis()),
        "the clean branch must enter Red after the capture"
    );
}

/// The recipe form: serde round-trip preserves equality, and two
/// materializations — one of them through JSON — are fingerprint-equal.
#[test]
fn base_scenario_round_trips_and_materializes_identically() {
    let mut config = ExperimentConfig::quick(Some(PolicyKind::Mpc), NODES);
    config.spec.provision_fraction = 0.65;
    let scenario = BaseScenario::new(config, 150);

    let json = serde_json::to_string(&scenario).expect("serialize scenario");
    let back: BaseScenario = serde_json::from_str(&json).expect("deserialize scenario");
    assert_eq!(back, scenario, "serde round trip must preserve the recipe");

    let a = scenario.materialize();
    let b = back.materialize();
    assert_eq!(a.tick(), 150);
    assert_eq!(
        digest(a.base()),
        digest(b.base()),
        "rehydrated snapshots must be fingerprint-equal"
    );
}

/// `Journal::dropped` travels with the snapshot: branch from a run whose
/// ring has already evicted events, and both the counter and the
/// continued journal stream replay exactly.
#[test]
fn journal_dropped_counter_survives_branching() {
    let build = || {
        let mut spec = ClusterSpec::mini(NODES);
        spec.provision_fraction = 0.60;
        let sets = NodeSets::new(spec.node_ids(), []);
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let manager = PowerManager::new(config, sets).expect("valid config");
        // A tiny ring: steady-state management overflows it quickly.
        ClusterSim::new(spec)
            .with_manager(manager)
            .with_journal_capacity(16)
    };
    let mut fresh = build();
    fresh.run_for(SimDuration::from_secs(RUN_SECS));
    let reference = digest(&fresh);

    let mut original = build();
    original.run_for(SimDuration::from_secs(RUN_SECS / 2));
    let dropped_at_capture = original.journal().dropped();
    assert!(
        dropped_at_capture > 0,
        "the ring must already have evicted events at the capture point"
    );
    let snapshot = ClusterSnapshot::capture(&original);
    assert_eq!(snapshot.base().journal().dropped(), dropped_at_capture);

    let mut branch = snapshot.branch();
    assert_eq!(branch.journal().dropped(), dropped_at_capture);
    branch.run_for(SimDuration::from_secs(RUN_SECS / 2));
    assert_eq!(
        digest(&branch),
        reference,
        "journal (dropped counter included) must replay bit-identically"
    );
    assert_eq!(branch.journal().dropped(), fresh.journal().dropped());
}
