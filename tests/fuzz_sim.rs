//! Property-based fuzzing of whole simulation configurations: random
//! cluster shapes, policies, provisions and workload knobs — with and
//! without random fault schedules — must never panic and must uphold the
//! global invariants (§9 of DESIGN.md): node levels on their ladders,
//! power inside the envelope, privileged nodes never commanded, dead
//! nodes out of `A_candidate` and never re-leveled while down. Random
//! rack/row trees under faults must also conserve every delegated budget,
//! never command a statically privileged node, floor every candidate of a
//! Red rack, and evaluate identically in the Full and Incremental regimes
//! on every tick.

use ppc::cluster::spec::NodeGroup;
use ppc::cluster::{ClusterSim, ClusterSpec, EvalMode};
use ppc::core::{
    conserves_budget, HierarchicalManager, ManagerConfig, NodeSets, PolicyKind, PowerManager,
    PowerState, Topology,
};
use ppc::faults::{FaultInjection, FaultRates, FaultSchedule};
use ppc::node::spec::NodeSpec;
use ppc::node::{Level, NodeId};
use ppc::simkit::{RngFactory, SimDuration};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
struct FuzzConfig {
    nodes: u32,
    x5650_nodes: u32,
    provision: f64,
    policy_idx: usize,
    think_secs: u64,
    queue_depth: usize,
    backfill: bool,
    critical_frac: f64,
    privileged_first: u32,
    seed: u64,
    thermal: bool,
}

fn arb_config() -> impl Strategy<Value = FuzzConfig> {
    (
        (
            2u32..8,
            0u32..4,
            0.45f64..0.95,
            0usize..PolicyKind::ALL.len(),
        ),
        (0u64..30, 1usize..4, any::<bool>(), 0.0f64..0.4),
        (0u32..2, any::<u64>(), any::<bool>()),
    )
        .prop_map(
            |(
                (nodes, x5650_nodes, provision, policy_idx),
                (think_secs, queue_depth, backfill, critical_frac),
                (privileged_first, seed, thermal),
            )| FuzzConfig {
                nodes,
                x5650_nodes,
                provision,
                policy_idx,
                think_secs,
                queue_depth,
                backfill,
                critical_frac,
                privileged_first,
                seed,
                thermal,
            },
        )
}

fn arb_rates() -> impl Strategy<Value = FaultRates> {
    (
        (0.0f64..8.0, 20.0f64..90.0),
        (0.0f64..8.0, 5.0f64..60.0),
        (0.0f64..10.0, 5.0f64..60.0),
        (0.0f64..6.0, 10.0f64..60.0, 2u32..5),
    )
        .prop_map(
            |(
                (crash_per_node_hour, reboot_mean_secs),
                (hang_per_node_hour, hang_mean_secs),
                (silence_per_node_hour, silence_mean_secs),
                (partition_per_hour, partition_mean_secs, partition_width),
            )| FaultRates {
                crash_per_node_hour,
                reboot_mean_secs,
                hang_per_node_hour,
                hang_mean_secs,
                silence_per_node_hour,
                silence_mean_secs,
                partition_per_hour,
                partition_mean_secs,
                partition_width,
            },
        )
}

fn run_one(cfg: FuzzConfig, rates: Option<FaultRates>) {
    let mut spec = ClusterSpec::mini(cfg.nodes);
    if cfg.thermal {
        spec.node_spec = NodeSpec::tianhe_1a_thermal();
    }
    if cfg.x5650_nodes > 0 {
        spec.extra_groups = vec![NodeGroup {
            spec: NodeSpec::tianhe_1a_x5650(),
            count: cfg.x5650_nodes,
        }];
    }
    spec.provision_fraction = cfg.provision;
    spec.think_time_mean = SimDuration::from_secs(cfg.think_secs);
    spec.queue_depth = cfg.queue_depth;
    spec.backfill = cfg.backfill;
    spec.critical_job_fraction = cfg.critical_frac;
    spec.privileged = (0..cfg.privileged_first.min(cfg.nodes))
        .map(NodeId)
        .collect();
    spec.seed = cfg.seed;

    let policy = PolicyKind::ALL[cfg.policy_idx];
    let sets = NodeSets::new(spec.node_ids(), spec.privileged.iter().copied());
    let config = ManagerConfig {
        training_cycles: 30,
        ..ManagerConfig::paper_defaults(spec.provision_w(), policy)
    };
    let manager = PowerManager::new(config, sets).expect("valid config");
    let mut sim = ClusterSim::new(spec.clone()).with_manager(manager);
    let faulted = rates.is_some();
    if let Some(rates) = rates {
        // The partition width must fit the smallest fuzzed cluster.
        let width = rates.partition_width.min(spec.total_nodes());
        let schedule = FaultSchedule::generate(
            &FaultRates {
                partition_width: width,
                ..rates
            },
            spec.total_nodes(),
            SimDuration::from_secs(240),
            &RngFactory::new(spec.seed),
        );
        sim = sim.with_faults(FaultInjection::new(schedule));
    }

    let total_nodes = spec.total_nodes();
    let envelope_hi = spec.theoretical_max_w() * 1.25; // thermal leakage headroom
    let mut prev: Option<(Vec<Level>, Vec<bool>)> = None;
    for _ in 0..240 {
        sim.step();
        // Global invariants, every tick.
        let levels = sim.node_levels();
        assert_eq!(levels.len(), total_nodes as usize);
        for (i, level) in levels.iter().enumerate() {
            let top = spec.spec_of(NodeId(i as u32)).ladder.highest();
            assert!(*level <= top, "node {i} above its ladder");
        }
        let p = *sim.true_power().values().last().unwrap();
        if faulted {
            // Crashes can legitimately take the whole machine dark.
            assert!(p >= 0.0 && p <= envelope_hi, "power {p} outside envelope");
        } else {
            assert!(p > 0.0 && p <= envelope_hi, "power {p} outside envelope");
        }
        assert!((0.0..=1.0).contains(&sim.utilization()));
        // Fault invariants: dead nodes leave A_candidate and are never
        // commanded while down (their level is frozen until reboot).
        let down: Vec<bool> = (0..total_nodes)
            .map(|i| sim.fault_engine().is_some_and(|e| e.is_down(NodeId(i))))
            .collect();
        // The sim's liveness is the engine's, and a down node draws
        // nothing in the power column.
        for (i, &d) in down.iter().enumerate() {
            assert_eq!(sim.is_node_down(NodeId(i as u32)), d, "node {i} liveness");
            if d {
                assert_eq!(sim.columns().power_w()[i], 0.0, "down node {i} draws power");
            }
        }
        if let Some(m) = sim.manager() {
            for c in m.sets().candidate_mask().iter() {
                assert!(!down[c.0 as usize], "down node {c:?} still a candidate");
            }
        }
        if let Some((pl, pd)) = &prev {
            for i in 0..total_nodes as usize {
                if down[i] && pd[i] {
                    assert_eq!(levels[i], pl[i], "down node {i} was commanded");
                }
            }
        }
        prev = Some((levels, down));
    }
    // Statically privileged nodes never moved.
    for p in &spec.privileged {
        assert_eq!(
            sim.node_levels()[p.0 as usize],
            spec.spec_of(*p).ladder.highest()
        );
    }
}

/// A random facility tree over a cluster large enough that racks straddle
/// the 64-node words of the fresh-candidate mask.
#[derive(Debug, Clone)]
struct TreeConfig {
    nodes: u32,
    nodes_per_rack: u32,
    racks_per_row: u32,
    provision: f64,
    policy_idx: usize,
    think_secs: u64,
    health: bool,
    seed: u64,
    /// Staleness limit, seconds: short enough for deadlines to fall
    /// inside the run.
    staleness_secs: u64,
    /// Statically privileged nodes (ids below the smallest fleet).
    privileged: Vec<u32>,
}

fn arb_tree() -> impl Strategy<Value = TreeConfig> {
    (
        (65u32..160, 3u32..70, 1u32..4),
        (0.45f64..0.9, 0usize..PolicyKind::ALL.len(), 0u64..20),
        (any::<bool>(), any::<u64>()),
        (1u64..9, prop::collection::vec(0u32..65, 0..4)),
    )
        .prop_map(
            |(
                (nodes, nodes_per_rack, racks_per_row),
                (provision, policy_idx, think_secs),
                (health, seed),
                (staleness_secs, privileged),
            )| TreeConfig {
                nodes,
                nodes_per_rack,
                racks_per_row,
                provision,
                policy_idx,
                think_secs,
                health,
                seed,
                staleness_secs,
                privileged,
            },
        )
}

const TREE_TICKS: u64 = 150;

fn tree_sim(cfg: &TreeConfig, rates: &FaultRates, mode: EvalMode) -> ClusterSim {
    let mut spec = ClusterSpec::mini(cfg.nodes);
    spec.provision_fraction = cfg.provision;
    spec.think_time_mean = SimDuration::from_secs(cfg.think_secs);
    spec.queue_depth = 3;
    spec.critical_job_fraction = 0.1;
    spec.seed = cfg.seed;
    let privileged: BTreeSet<NodeId> = cfg.privileged.iter().copied().map(NodeId).collect();
    spec.privileged = privileged.iter().copied().collect();
    let topology =
        Topology::new(cfg.nodes, cfg.nodes_per_rack, cfg.racks_per_row).expect("valid topology");
    let config = ManagerConfig {
        training_cycles: 20,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::ALL[cfg.policy_idx])
    };
    let hier = HierarchicalManager::new(config, topology, &privileged, spec.node_weights_w())
        .expect("valid hierarchy");
    let schedule = FaultSchedule::generate(
        rates,
        cfg.nodes,
        SimDuration::from_secs(TREE_TICKS),
        &RngFactory::new(cfg.seed),
    );
    let mut sim = ClusterSim::new(spec)
        .with_eval_mode(mode)
        .with_hierarchy(hier)
        .with_faults(FaultInjection {
            staleness_limit: SimDuration::from_secs(cfg.staleness_secs),
            ..FaultInjection::new(schedule)
        });
    sim.set_health_enabled(cfg.health);
    sim
}

/// Every level of the tree conserves its parent's budget, and no rack
/// (nor the facility) keeps a down node among its candidates. Statically
/// privileged nodes keep their top level. Once training is over, every
/// candidate of a rack classified Red sits at the lowest level after
/// actuation, unless its actuator is frozen (the command failed and
/// waits to retry).
fn assert_tree_invariants(sim: &ClusterSim) {
    let h = sim.hierarchy().expect("hierarchical sim");
    let levels = sim.node_levels();
    for &p in &sim.spec().privileged {
        let top = sim.spec().spec_of(p).ladder.highest();
        assert_eq!(levels[p.0 as usize], top, "privileged {p:?} was commanded");
    }
    let topology = *h.topology();
    assert!(
        conserves_budget(h.config().p_provision_w, h.row_budget_w()),
        "rows overspend the facility: {:?}",
        h.row_budget_w()
    );
    for row in 0..topology.rows() {
        let racks = topology.row_racks(row);
        assert!(
            conserves_budget(h.row_budget_w()[row], &h.rack_budget_w()[racks.clone()]),
            "row {row} racks overspend: {:?}",
            &h.rack_budget_w()[racks]
        );
    }
    let engine = sim.fault_engine().expect("faulted sim");
    let facility = h.sets().candidate_mask().iter();
    let racks = h
        .subs()
        .iter()
        .flat_map(|m| m.sets().candidate_mask().iter());
    for c in facility.chain(racks) {
        assert!(!engine.is_down(c), "down node {c:?} still a candidate");
    }
    if h.in_training() {
        return;
    }
    for (r, _) in h
        .last_rack_states()
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s == PowerState::Red)
    {
        for c in h.subs()[r].sets().candidate_mask().iter() {
            if !engine.is_hung(c) {
                assert_eq!(
                    levels[c.0 as usize],
                    Level::LOWEST,
                    "candidate {c:?} of Red rack {r} not floored"
                );
            }
        }
    }
}

/// What Full and Incremental evaluation must agree on after every tick:
/// node levels, the last true-power value, commands applied and the
/// fresh-candidate mask.
fn assert_same_tick(full: &ClusterSim, incremental: &ClusterSim, tick: u64) {
    assert_eq!(
        full.node_levels(),
        incremental.node_levels(),
        "levels diverged at tick {tick}"
    );
    let last_w = |sim: &ClusterSim| sim.true_power().values().last().map(|w| w.to_bits());
    assert_eq!(
        last_w(full),
        last_w(incremental),
        "true power diverged at tick {tick}"
    );
    assert_eq!(
        full.commands_applied(),
        incremental.commands_applied(),
        "commands applied diverged at tick {tick}"
    );
    assert_eq!(
        full.fresh_candidates(),
        incremental.fresh_candidates(),
        "fresh candidates diverged at tick {tick}"
    );
}

/// The seven determinism fingerprints plus the headline counters.
fn fingerprints(sim: &ClusterSim) -> [u64; 9] {
    let health = sim.health_fingerprints();
    [
        sim.journal().fingerprint(),
        sim.true_power().fingerprint(),
        sim.span_fingerprint(),
        sim.metrics_fingerprint(),
        health.rollup,
        health.sketch,
        health.alerts,
        sim.finished().len() as u64,
        sim.commands_applied(),
    ]
}

fn run_tree(cfg: TreeConfig, rates: FaultRates) {
    let rates = FaultRates {
        partition_width: rates.partition_width.min(cfg.nodes),
        ..rates
    };
    let mut full = tree_sim(&cfg, &rates, EvalMode::Full);
    let mut incremental = tree_sim(&cfg, &rates, EvalMode::Incremental);
    for tick in 1..=TREE_TICKS {
        full.step();
        incremental.step();
        assert_same_tick(&full, &incremental, tick);
        assert_tree_invariants(&full);
        assert_tree_invariants(&incremental);
    }
    assert_eq!(
        fingerprints(&full),
        fingerprints(&incremental),
        "Full and Incremental evaluation diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]
    #[test]
    fn random_configurations_uphold_invariants(cfg in arb_config()) {
        run_one(cfg, None);
    }

    #[test]
    fn random_fault_schedules_uphold_invariants(cfg in arb_config(), rates in arb_rates()) {
        run_one(cfg, Some(rates));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]
    #[test]
    fn random_trees_under_faults_conserve_budgets(cfg in arb_tree(), rates in arb_rates()) {
        run_tree(cfg, rates);
    }
}
