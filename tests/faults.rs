//! Node-lifecycle state machine under deterministic fault injection:
//! crash → evict → requeue → reboot → rejoin-at-lowest-level, the requeue
//! cap, frozen-actuator command failures, and the conservative
//! degraded-telemetry fallback.

use ppc::cluster::{ClusterSim, ClusterSpec};
use ppc::core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
use ppc::faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
use ppc::node::{Level, NodeId};
use ppc::simkit::{SimDuration, SimTime};

fn managed_t_g(
    nodes: u32,
    provision_fraction: f64,
    faults: FaultInjection,
    t_g_cycles: u64,
) -> ClusterSim {
    let mut spec = ClusterSpec::mini(nodes);
    spec.provision_fraction = provision_fraction;
    let sets = NodeSets::new(spec.node_ids(), []);
    let config = ManagerConfig {
        training_cycles: 0,
        t_g_cycles,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let manager = PowerManager::new(config, sets).unwrap();
    ClusterSim::new(spec)
        .with_manager(manager)
        .with_faults(faults)
}

fn managed(nodes: u32, provision_fraction: f64, faults: FaultInjection) -> ClusterSim {
    managed_t_g(nodes, provision_fraction, faults, 10)
}

fn crash(at: u64, node: u32, reboot: u64) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_secs(at),
        node: NodeId(node),
        kind: FaultKind::Crash {
            reboot: SimDuration::from_secs(reboot),
        },
    }
}

#[test]
fn crash_walks_the_full_lifecycle() {
    let schedule = FaultSchedule::new(vec![crash(60, 2, 40)]);
    // A huge T_g freezes green recovery so the rejoin level is observable
    // (with the default T_g the long green streak promotes the node one
    // level on the very next cycle).
    let mut sim = managed_t_g(4, 0.80, FaultInjection::new(schedule), 100_000);

    // Saturate, then crash: the hosted job is evicted and requeued, the
    // node leaves scheduling, telemetry, and the candidate set.
    sim.run_for(SimDuration::from_secs(70));
    let engine = sim.fault_engine().unwrap();
    assert!(engine.is_down(NodeId(2)));
    assert_eq!(
        sim.jobs_requeued(),
        1,
        "saturated cluster: node 2 hosted a job"
    );
    assert_eq!(sim.jobs_failed(), 0);
    let mgr = sim.manager().unwrap();
    assert!(!mgr.sets().is_candidate(NodeId(2)));

    // The tick after reboot: back in the candidate set, at the lowest
    // DVFS level, adopted as degraded for steady-green recovery.
    sim.run_for(SimDuration::from_secs(31));
    assert!(!sim.fault_engine().unwrap().is_down(NodeId(2)));
    let mgr = sim.manager().unwrap();
    assert!(mgr.sets().is_candidate(NodeId(2)));
    assert_eq!(
        sim.node_levels()[2],
        Level::LOWEST,
        "rejoins at lowest level"
    );
    assert!(mgr.capping_degraded().contains(NodeId(2)));

    // The requeued job restarts from scratch and the cluster keeps
    // finishing work after the outage.
    let finished_now = sim.finished().len();
    sim.run_for(SimDuration::from_secs(120));
    assert!(
        sim.finished().len() > finished_now,
        "work continues after reboot"
    );
    let report = sim.availability_report().unwrap();
    assert_eq!((report.crashes, report.jobs_requeued), (1, 1));
    assert!((report.mttr_secs - 40.0).abs() < 1.0);
}

#[test]
fn requeue_cap_zero_fails_the_evicted_job() {
    let schedule = FaultSchedule::new(vec![crash(60, 0, 30), crash(60, 1, 30)]);
    let injection = FaultInjection {
        requeue_cap: 0,
        ..FaultInjection::new(schedule)
    };
    let mut sim = managed(4, 0.80, injection);
    sim.run_for(SimDuration::from_secs(120));
    assert_eq!(sim.jobs_requeued(), 0, "cap 0 never requeues");
    assert!(sim.jobs_failed() >= 1, "evicted jobs are dropped as failed");
    assert_eq!(
        sim.availability_report().unwrap().jobs_failed,
        sim.jobs_failed()
    );
}

#[test]
fn frozen_actuator_fails_commands_until_it_thaws() {
    // Tight provisioning guarantees throttling commands; freezing every
    // actuator makes them fail and enter the retry path, and the control
    // loop reconciles once the hang ends.
    let events = (0..4)
        .map(|n| FaultEvent {
            at: SimTime::from_secs(15),
            node: NodeId(n),
            kind: FaultKind::Hang {
                duration: SimDuration::from_secs(90),
            },
        })
        .collect();
    let mut sim = managed(4, 0.55, FaultInjection::new(FaultSchedule::new(events)));
    sim.run_for(SimDuration::from_secs(240));
    assert!(
        sim.commands_failed() > 0,
        "commands against frozen actuators fail"
    );
    assert!(
        sim.commands_applied() > 0,
        "capping recovers after the thaw"
    );
    assert!(
        sim.node_levels().iter().any(|&l| l < Level::new(9)),
        "throttling eventually lands"
    );
}

#[test]
fn telemetry_silence_trips_the_conservative_fallback() {
    let schedule = FaultSchedule::new(vec![FaultEvent {
        at: SimTime::from_secs(20),
        node: NodeId(0),
        kind: FaultKind::SubtreePartition {
            width: 4,
            duration: SimDuration::from_secs(120),
        },
    }]);
    let mut sim = managed(4, 0.60, FaultInjection::new(schedule));
    sim.run_for(SimDuration::from_secs(200));
    let stats = sim.manager().unwrap().stats();
    assert!(
        stats.conservative_cycles > 0,
        "zero coverage must force conservative cycles"
    );
    let report = sim.availability_report().unwrap();
    assert_eq!(report.silences, 4, "the partition darkens all four nodes");
    assert!(report.conservative_fraction > 0.0);
    assert_eq!(report.crashes, 0);
}
