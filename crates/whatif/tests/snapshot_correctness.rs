//! Snapshot/branch correctness: the tentpole contract of `ppc-whatif`.
//!
//! A branched run must be bit-identical to a fresh same-seed run driven
//! to the same point — proven by all four determinism fingerprints
//! (journal, power trace, spans, metrics) — through serde round-trips of
//! the recipe form, under an active fault schedule, and with the
//! journal's ring-eviction counter intact. The what-if engine's batch
//! fan-out must answer identically at any pool width.

use ppc_cluster::ExperimentConfig;
use ppc_cluster::{ClusterSim, ClusterSpec};
use ppc_core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
use ppc_faults::{FaultInjection, FaultRates, FaultSchedule};
use ppc_simkit::{RngFactory, SimDuration, WorkerPool};
use ppc_whatif::{
    BaseScenario, ClusterSnapshot, JobSpec, WhatIfEngine, WhatIfQuery, WhatIfRequest,
};
use ppc_workload::{Class, NpbApp};
use std::sync::Arc;

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
    let mut spec = ClusterSpec::mini(NODES);
    spec.provision_fraction = 0.60;
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
}

/// Two sibling branches of one snapshot are independent: mutating one
/// (decommission, injection) leaves the other bit-identical to the
/// untouched continuation.
#[test]
fn sibling_branches_are_isolated_under_faults() {
    let mut sim = faulted_sim();
    sim.run_for(SimDuration::from_secs(RUN_SECS / 2));
    let snapshot = ClusterSnapshot::capture(&sim);
    assert!(
        snapshot
            .base()
            .journal()
            .iter()
            .any(|e| e.category == "fault"),
        "capture point must sit inside an active fault schedule"
    );

    let mut mutated = snapshot.branch();
    mutated.decommission_node(ppc_node::NodeId(NODES - 1));
    mutated.inject_job(NpbApp::Cg, Class::B, 8, ppc_workload::JobPriority::Normal);
    let mut clean = snapshot.branch();
    mutated.run_for(SimDuration::from_secs(60));
    clean.run_for(SimDuration::from_secs(60));

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

/// The engine's batched fan-out is width-invariant: answers and both
/// engine fingerprints are identical serving sequentially, on a width-1
/// pool, and on a width-8 pool.
#[test]
fn engine_batches_are_pool_width_invariant() {
    let mut sim = faulted_sim();
    sim.run_for(SimDuration::from_secs(RUN_SECS / 2));
    let snapshot = ClusterSnapshot::capture(&sim);
    let requests = vec![
        WhatIfRequest::new(WhatIfQuery::Baseline, 40),
        WhatIfRequest::new(
            WhatIfQuery::AdmitJobs {
                jobs: vec![JobSpec {
                    app: NpbApp::Lu,
                    class: Class::B,
                    nprocs: 16,
                    critical: false,
                }],
            },
            40,
        ),
        WhatIfRequest::new(
            WhatIfQuery::DropNodes {
                count: 2,
                rack: None,
            },
            40,
        ),
        WhatIfRequest::new(
            WhatIfQuery::SwapPolicy {
                policy: PolicyKind::Hri,
            },
            40,
        ),
        WhatIfRequest::new(
            WhatIfQuery::Compound {
                steps: vec![
                    WhatIfQuery::SetCap {
                        provision_w: snapshot.base().spec().provision_w() * 0.9,
                    },
                    WhatIfQuery::DropNodes {
                        count: 1,
                        rack: None,
                    },
                ],
            },
            40,
        ),
    ];

    let mut sequential = WhatIfEngine::new(snapshot.clone());
    let baseline = sequential.run_batch(&requests);
    for workers in [1usize, 8] {
        let pool = Arc::new(WorkerPool::new(workers).with_inline_threshold(0));
        let mut pooled = WhatIfEngine::new(snapshot.clone()).with_worker_pool(pool);
        let answers = pooled.run_batch(&requests);
        assert_eq!(answers, baseline, "answers diverged at width {workers}");
        assert_eq!(pooled.span_fingerprint(), sequential.span_fingerprint());
        assert_eq!(
            pooled.metrics_fingerprint(),
            sequential.metrics_fingerprint()
        );
    }
}
