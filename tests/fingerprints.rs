//! Golden fingerprints: the seven determinism fingerprints (journal,
//! power trace, spans, metrics, health rollup, sketches, alerts) of a
//! small scenario matrix, pinned in `tests/fixtures/FINGERPRINTS.txt`.
//!
//! The determinism gate compares runs with each other (widths, eval
//! modes, branch vs fresh), so a change that moves behaviour the same way
//! everywhere passes it silently. This file compares against values
//! recorded from an earlier build: a refactor that leaves the fixture
//! untouched preserved behaviour bit for bit.
//!
//! `PPC_REGEN_FIXTURES=1 cargo test --test fingerprints` rewrites the
//! fixture instead of comparing (then rerun without the variable). A
//! regeneration is a behaviour change and must be justified.

use ppc::cluster::{ClusterSim, ClusterSpec};
use ppc::core::{
    HierarchicalManager, ManagerConfig, NodeSets, PolicyKind, PowerManager,
    ProportionalBudgetController, Thresholds, Topology,
};
use ppc::faults::{FaultInjection, FaultRates, FaultSchedule};
use ppc::simkit::{RngFactory, SimDuration, SimTime};
use ppc::workload::{JobGenerator, JobPriority, TraceEntry};
use std::collections::BTreeSet;
use std::fmt::Write as _;

const RUN_SECS: u64 = 600;

fn config(spec: &ClusterSpec) -> ManagerConfig {
    ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    }
}

/// 128 nodes under the paper's random workload, tight provision.
fn paper_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::mini(128);
    spec.provision_fraction = 0.65;
    spec
}

/// Poisson arrivals drawn by a [`JobGenerator`] (the job mix the built-in
/// workload would draw, a tenth of it critical), so the fleet stays busy
/// and jobs start and finish nearly every tick.
fn poisson_trace(spec: &ClusterSpec, rate_per_s: f64, horizon_secs: f64) -> Vec<TraceEntry> {
    let factory = RngFactory::new(spec.seed);
    let mut gaps = factory.stream("test.arrivals", 0);
    let mut draws = JobGenerator::new(factory, spec.class, spec.max_nprocs().min(256))
        .with_critical_fraction(spec.critical_job_fraction);
    let mut entries = Vec::new();
    let mut t = gaps.exponential(1.0 / rate_per_s);
    while t < horizon_secs {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
        let job = draws.next_job(at);
        entries.push(TraceEntry {
            at,
            app: job.app(),
            class: job.class(),
            nprocs: job.nprocs(),
            priority: job.priority(),
        });
        t += gaps.exponential(1.0 / rate_per_s);
    }
    entries
}

/// The busy trace-fed fleet: 4 racks of 32 nodes in 2 rows.
fn busy_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::mini(128);
    spec.provision_fraction = 0.65;
    spec.critical_job_fraction = 0.1;
    spec.job_trace = Some(poisson_trace(&spec, 1.5, RUN_SECS as f64));
    spec
}

fn hierarchy(spec: &ClusterSpec, topology: Topology) -> HierarchicalManager {
    HierarchicalManager::new(
        config(spec),
        topology,
        &BTreeSet::new(),
        spec.node_weights_w(),
    )
    .expect("valid hierarchy")
}

fn fault_schedule(nodes: u32, seed: u64) -> FaultSchedule {
    let rates = FaultRates {
        crash_per_node_hour: 2.0,
        reboot_mean_secs: 60.0,
        hang_per_node_hour: 3.0,
        silence_per_node_hour: 4.0,
        partition_per_hour: 8.0,
        partition_width: 8,
        ..FaultRates::default()
    };
    FaultSchedule::generate(
        &rates,
        nodes,
        SimDuration::from_secs(RUN_SECS),
        &RngFactory::new(seed),
    )
}

/// A flat MPC manager over every node of `spec`.
fn flat_mpc(spec: ClusterSpec) -> ClusterSim {
    let manager = PowerManager::new(config(&spec), NodeSets::new(spec.node_ids(), []))
        .expect("valid manager");
    ClusterSim::new(spec).with_manager(manager)
}

fn flat128() -> ClusterSim {
    flat_mpc(paper_spec())
}

/// 128 nodes with the Tianhe-1A variant's 15 s mean think time: every
/// refill of the empty queue closes the arrival gate until a drawn gap
/// has passed. The provision is tight enough for the thinned-out load
/// to be capped.
fn think_spec() -> ClusterSpec {
    let mut spec = paper_spec();
    spec.provision_fraction = 0.55;
    spec.think_time_mean = SimDuration::from_secs(15);
    spec
}

fn think128() -> ClusterSim {
    flat_mpc(think_spec())
}

fn hier_1rack() -> ClusterSim {
    let spec = paper_spec();
    let h = hierarchy(&spec, Topology::single_rack(128).expect("valid topology"));
    ClusterSim::new(spec).with_hierarchy(h)
}

fn hier4_busy() -> ClusterSim {
    let spec = busy_spec();
    let h = hierarchy(&spec, Topology::new(128, 32, 2).expect("valid topology"));
    ClusterSim::new(spec).with_hierarchy(h)
}

fn hier4_faulted() -> ClusterSim {
    let spec = busy_spec();
    let schedule = fault_schedule(128, spec.seed);
    let h = hierarchy(&spec, Topology::new(128, 32, 2).expect("valid topology"));
    ClusterSim::new(spec)
        .with_hierarchy(h)
        .with_faults(FaultInjection::new(schedule))
}

/// The related-work proportional-budget baseline on 128 nodes, at the
/// thresholds `tests/budget_baseline.rs` caps with (P_L = 55 %, P_H = 64 %
/// of the theoretical maximum).
fn budget128() -> ClusterSim {
    let spec = ClusterSpec::mini(128);
    let thy = spec.theoretical_max_w();
    let thresholds = Thresholds::new(0.55 * thy, 0.64 * thy).expect("valid thresholds");
    ClusterSim::new(spec).with_budget_controller(ProportionalBudgetController::new(thresholds))
}

/// Health on with alerts firing: a 16-node 2×2×4 tree at a provision
/// tight enough to breach the dwell and overshoot objectives, under
/// faults that dent coverage.
fn health_alerts() -> ClusterSim {
    let mut spec = ClusterSpec::mini(16);
    spec.provision_fraction = 0.55;
    let schedule = fault_schedule(16, 11);
    let h = hierarchy(&spec, Topology::new(16, 4, 2).expect("valid topology"));
    let mut sim = ClusterSim::new(spec)
        .with_hierarchy(h)
        .with_faults(FaultInjection::new(schedule));
    sim.set_health_enabled(true);
    sim
}

fn line(name: &str, mut sim: ClusterSim) -> String {
    sim.run_for(SimDuration::from_secs(RUN_SECS));
    let health = sim.health_fingerprints();
    format!(
        "{name:14} journal={:016x} trace={:016x} spans={:016x} metrics={:016x} \
         rollup={:016x} sketch={:016x} alerts={:016x} finished={} commands={}\n",
        sim.journal().fingerprint(),
        sim.true_power().fingerprint(),
        sim.span_fingerprint(),
        sim.metrics_fingerprint(),
        health.rollup,
        health.sketch,
        health.alerts,
        sim.finished().len(),
        sim.commands_applied(),
    )
}

/// A scenario's fixture name and builder.
type Scenario = (&'static str, fn() -> ClusterSim);

#[test]
fn fingerprints_match_golden_fixture() {
    let mut rendered = String::new();
    let scenarios: [Scenario; 7] = [
        ("flat128", flat128),
        ("hier_1rack", hier_1rack),
        ("hier4_busy", hier4_busy),
        ("hier4_faulted", hier4_faulted),
        ("health_alerts", health_alerts),
        ("budget128", budget128),
        ("think128", think128),
    ];
    for (name, build) in scenarios {
        write!(rendered, "{}", line(name, build())).expect("write to string");
    }
    if std::env::var_os("PPC_REGEN_FIXTURES").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/FINGERPRINTS.txt"
            ),
            &rendered,
        )
        .expect("fixture write");
        return;
    }
    let golden = include_str!("fixtures/FINGERPRINTS.txt");
    assert_eq!(
        rendered, golden,
        "fingerprints diverged from tests/fixtures/FINGERPRINTS.txt — a \
         behaviour change; regenerate only if it is intended"
    );
}

/// Jobs the run has submitted so far: finished, running or queued.
fn submitted(sim: &ClusterSim) -> usize {
    sim.finished().len() + sim.running_jobs() + sim.queued_jobs()
}

/// The scenarios exercise what they claim: capping, a busy fleet with
/// critical jobs, faults, alert edges, an active budget baseline, and a
/// think-time gate that closes.
#[test]
fn fingerprint_scenarios_are_not_vacuous() {
    let mut busy = hier4_busy();
    let mut peak_running = 0;
    for _ in 0..RUN_SECS {
        busy.step();
        peak_running = peak_running.max(busy.running_jobs());
    }
    assert!(busy.finished().len() > 100, "{}", busy.finished().len());
    assert!(peak_running >= 8, "{peak_running}");
    assert!(
        busy.finished()
            .iter()
            .any(|r| r.priority == JobPriority::Critical),
        "the busy trace must run critical jobs"
    );
    assert!(busy.commands_applied() > 0);

    let mut faulted = hier4_faulted();
    faulted.run_for(SimDuration::from_secs(RUN_SECS));
    assert!(faulted.jobs_requeued() > 0);
    assert!(faulted.commands_failed() > 0);

    let mut health = health_alerts();
    health.run_for(SimDuration::from_secs(RUN_SECS));
    assert!(!health.health().alerts().is_empty());

    let mut budget = budget128();
    budget.run_for(SimDuration::from_secs(RUN_SECS));
    let stats = budget.budget_controller().expect("attached").stats();
    assert!(stats.active_cycles > 0, "the budget must bind");
    assert!(budget.commands_applied() > 0);

    // The same spec with zero think time never closes the gate.
    let mut open_spec = think_spec();
    open_spec.think_time_mean = SimDuration::ZERO;
    let mut open = flat_mpc(open_spec);
    open.run_for(SimDuration::from_secs(RUN_SECS));
    let mut gated = think128();
    gated.run_for(SimDuration::from_secs(RUN_SECS));
    assert!(
        submitted(&gated) < submitted(&open),
        "the think-time gate must hold submissions back: {} vs {}",
        submitted(&gated),
        submitted(&open)
    );
    assert!(gated.commands_applied() > 0);
}
