//! Fleet health plane end-to-end: the alert journal must match the
//! golden `ALERTS` fixture (see DESIGN §17), an opening alert must trip
//! the flight recorder, and experiments carry the health report. Its
//! replay across same-seed runs, control planes and what-if branches is
//! pinned in `tests/fingerprints.rs`.

use ppc::cluster::{ClusterSim, ClusterSpec};
use ppc::core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
use ppc::obs::render_alerts;
use ppc::simkit::SimDuration;

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
