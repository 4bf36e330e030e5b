//! Tests of the tick loop: each phase, the equivalence of the evaluation
//! regimes, and the profiler's stage accounting.

use super::*;
use ppc_core::{ManagerConfig, NodeSets, PolicyKind};
use ppc_simkit::RngFactory;
use ppc_workload::TraceEntry;
use std::collections::BTreeSet;

fn managed_mini(nodes: u32, policy: PolicyKind, provision_fraction: f64) -> ClusterSim {
    let mut spec = ClusterSpec::mini(nodes);
    spec.provision_fraction = provision_fraction;
    let sets = NodeSets::new(spec.node_ids(), spec.privileged.iter().copied());
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), policy)
    };
    let manager = PowerManager::new(config, sets).unwrap();
    ClusterSim::new(spec).with_manager(manager)
}

#[test]
fn unmanaged_sim_runs_jobs_and_records_power() {
    let mut sim = ClusterSim::new(ClusterSpec::mini(4));
    sim.run_for(SimDuration::from_secs(300));
    assert_eq!(sim.true_power().len(), 300);
    assert!(sim.utilization() > 0.0, "jobs should be running");
    // All nodes stay at the top level without a manager.
    assert!(sim.node_levels().iter().all(|&l| l == Level::new(9)));
    let p = sim.true_power().max().unwrap();
    // 4 busy Tianhe nodes: somewhere between idle (4×145) and max (4×341).
    assert!(p > 580.0 && p < 1_370.0, "peak={p}");
}

#[test]
fn time_is_the_tick_count_times_tau() {
    let mut spec = ClusterSpec::mini(2);
    spec.tick = SimDuration::from_millis(1_500);
    let mut sim = ClusterSim::new(spec);
    assert_eq!(sim.now(), SimTime::ZERO);
    // 4 s is 2.67 ticks of 1.5 s: `run_for` rounds up to whole ticks.
    sim.run_for(SimDuration::from_secs(4));
    assert_eq!(sim.tick_index(), 3);
    assert_eq!(sim.now(), SimTime::from_millis(4_500));
    sim.run_for(SimDuration::ZERO);
    assert_eq!(sim.tick_index(), 3);
    // The trace stamps each tick's end instant.
    let want = [1_500, 3_000, 4_500].map(SimTime::from_millis);
    assert_eq!(sim.true_power().times(), want);
}

#[test]
fn staleness_deadlines_drain_in_tick_then_insertion_order() {
    let mut sim = ClusterSim::new(ClusterSpec::mini(4));
    for (seq, (at, node)) in [(5, 1), (3, 2), (5, 0), (7, 3)].into_iter().enumerate() {
        sim.stale_deadlines
            .push(Reverse((at, seq as u64, NodeId(node))));
    }
    // The suspects a tick boundary makes of the deadlines due by `tick`.
    let mut due_by = |tick: u64| {
        let t = Tick {
            tick,
            start: SimTime::ZERO,
            dt: 1.0,
            incremental: false,
            lazy: false,
        };
        sim.fault_phase(&t);
        std::mem::take(&mut sim.fresh_suspects)
    };
    assert_eq!(due_by(2), []);
    assert_eq!(due_by(6), [NodeId(2), NodeId(1), NodeId(0)]);
    assert_eq!(due_by(6), [], "a deadline is drained once");
    assert_eq!(due_by(7), [NodeId(3)]);
    assert!(sim.stale_deadlines.is_empty());
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = ClusterSim::new(ClusterSpec::mini(4));
        sim.run_for(SimDuration::from_secs(200));
        (
            sim.true_power().values().to_vec(),
            sim.finished().len(),
            sim.utilization(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "power traces must be bit-identical");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn tight_provision_forces_throttling() {
    // Provision at 55% of theoretical peak: the busy mini cluster
    // overshoots P_H quickly, forcing red/yellow cycles.
    let mut sim = managed_mini(4, PolicyKind::Mpc, 0.55);
    sim.run_for(SimDuration::from_secs(300));
    assert!(sim.commands_applied() > 0, "capping must engage");
    let stats = sim.manager().unwrap().stats();
    assert!(stats.yellow_cycles + stats.red_cycles > 0);
    // Some node must have been degraded at some point; after red
    // cycles at least the state log shows non-green.
    assert!(sim.state_log().iter().any(|(_, s)| *s != PowerState::Green));
}

/// `with_manager` attaches the flat manager as the one rack of a
/// single-rack hierarchy, whose rack state tracks every cycle.
#[test]
fn flat_manager_is_a_one_rack_hierarchy() {
    let mut sim = managed_mini(32, PolicyKind::Mpc, 0.5);
    let h = sim
        .hierarchy()
        .expect("flat manager attaches as a hierarchy");
    assert!(h.is_single_rack());
    assert!(std::ptr::eq(sim.manager().unwrap(), &h.subs()[0]));
    let mut red = 0;
    for _ in 0..600 {
        sim.step();
        let state = sim.state_log().last().unwrap().1;
        red += usize::from(state == PowerState::Red);
        assert_eq!(sim.hierarchy().unwrap().last_rack_states(), &[state]);
    }
    assert!(red > 0, "the tight provision must drive Red cycles");
    assert_eq!(sim.control_stats(), Some(sim.manager().unwrap().stats()));
}

#[test]
fn capping_caps_the_peak() {
    let run = |policy: Option<PolicyKind>| {
        let mut sim = match policy {
            Some(p) => managed_mini(4, p, 0.70),
            None => ClusterSim::new({
                let mut s = ClusterSpec::mini(4);
                s.provision_fraction = 0.70;
                s
            }),
        };
        sim.run_for(SimDuration::from_secs(600));
        sim.true_power().max().unwrap()
    };
    let uncapped = run(None);
    let capped = run(Some(PolicyKind::Mpc));
    assert!(
        capped < uncapped,
        "capped peak {capped} must be below uncapped {uncapped}"
    );
}

#[test]
fn training_period_never_throttles() {
    let mut spec = ClusterSpec::mini(4);
    spec.provision_fraction = 0.55; // would throttle immediately if active
    let sets = NodeSets::new(spec.node_ids(), []);
    let config = ManagerConfig {
        training_cycles: 200,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let manager = PowerManager::new(config, sets).unwrap();
    let mut sim = ClusterSim::new(spec).with_manager(manager);
    sim.run_for(SimDuration::from_secs(150));
    assert_eq!(sim.commands_applied(), 0, "training must not throttle");
    assert!(sim.manager().unwrap().learner().in_training());
    // Peak observation is happening.
    assert!(sim.manager().unwrap().learner().observed_peak_w() > 0.0);
}

#[test]
fn crash_evicts_requeues_and_rejoins_at_lowest_level() {
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    let schedule = FaultSchedule::new(vec![FaultEvent {
        at: SimTime::from_secs(60),
        node: NodeId(1),
        kind: FaultKind::Crash {
            reboot: SimDuration::from_secs(30),
        },
    }]);
    let mut sim = managed_mini(4, PolicyKind::Mpc, 0.70);
    sim = sim.with_faults(FaultInjection::new(schedule));
    sim.run_for(SimDuration::from_secs(70));
    // Mid-outage: the node is down, off the candidate set, powerless.
    assert!(sim.fault_engine().unwrap().is_down(NodeId(1)));
    assert!(!sim.manager().unwrap().sets().is_candidate(NodeId(1)));
    assert_eq!(
        sim.jobs_requeued() + sim.jobs_failed(),
        1,
        "mini cluster is saturated"
    );
    sim.run_for(SimDuration::from_secs(60));
    // Rebooted: back in the candidate set at the lowest DVFS level.
    assert!(!sim.fault_engine().unwrap().is_down(NodeId(1)));
    assert!(sim.manager().unwrap().sets().is_candidate(NodeId(1)));
    let report = sim.availability_report().unwrap();
    assert_eq!(report.crashes, 1);
    assert!((report.mttr_secs - 30.0).abs() < 1.0);
    assert!(report.availability < 1.0);
}

#[test]
fn down_node_draws_no_power() {
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    let schedule = FaultSchedule::new(vec![FaultEvent {
        at: SimTime::from_secs(50),
        node: NodeId(0),
        kind: FaultKind::Crash {
            reboot: SimDuration::from_secs(1_000),
        },
    }]);
    let healthy = {
        let mut sim = ClusterSim::new(ClusterSpec::mini(4));
        sim.run_for(SimDuration::from_secs(100));
        sim.true_power().values().to_vec()
    };
    let mut sim = ClusterSim::new(ClusterSpec::mini(4)).with_faults(FaultInjection::new(schedule));
    sim.run_for(SimDuration::from_secs(100));
    let faulted = sim.true_power().values().to_vec();
    // Identical until the crash, strictly lower afterwards.
    assert_eq!(healthy[..49], faulted[..49]);
    assert!(faulted[60] < healthy[60] * 0.9);
}

#[test]
fn hung_actuator_fails_commands_and_retries() {
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    // Freeze every node's actuator over a window in which the tightly
    // provisioned cluster is certain to issue commands.
    let events = (0..4)
        .map(|n| FaultEvent {
            at: SimTime::from_secs(20),
            node: NodeId(n),
            kind: FaultKind::Hang {
                duration: SimDuration::from_secs(120),
            },
        })
        .collect();
    let mut sim = managed_mini(4, PolicyKind::Mpc, 0.55)
        .with_faults(FaultInjection::new(FaultSchedule::new(events)));
    sim.run_for(SimDuration::from_secs(300));
    assert!(
        sim.commands_failed() > 0,
        "frozen actuators must fail commands"
    );
    assert!(
        sim.commands_applied() > 0,
        "commands succeed after the thaw"
    );
}

#[test]
fn silence_starves_telemetry_into_conservative_mode() {
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    // Darken the whole cluster's telemetry for a long window; coverage
    // hits 0 and every capping cycle in the window runs conservative.
    let schedule = FaultSchedule::new(vec![FaultEvent {
        at: SimTime::from_secs(30),
        node: NodeId(0),
        kind: FaultKind::SubtreePartition {
            width: 4,
            duration: SimDuration::from_secs(200),
        },
    }]);
    let mut sim = managed_mini(4, PolicyKind::Mpc, 0.55).with_faults(FaultInjection::new(schedule));
    sim.run_for(SimDuration::from_secs(300));
    let stats = sim.manager().unwrap().stats();
    assert!(stats.conservative_cycles > 0, "coverage floor must trip");
    let report = sim.availability_report().unwrap();
    assert_eq!(report.silences, 4);
    assert!(report.conservative_fraction > 0.0);
}

/// FNV-1a over the raw bit patterns of a float series.
fn fnv1a_bits(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// All determinism fingerprints (journal, trace, spans, metrics,
/// health rollup/sketches/alerts) plus the coarse outcome counters.
#[allow(clippy::type_complexity)]
fn digest(sim: &ClusterSim) -> (u64, u64, u64, u64, u64, u64, u64, usize, u64) {
    let hf = sim.health_fingerprints();
    (
        sim.journal().fingerprint(),
        fnv1a_bits(sim.true_power().values()),
        sim.span_fingerprint(),
        sim.metrics_fingerprint(),
        hf.rollup,
        hf.sketch,
        hf.alerts,
        sim.finished().len(),
        sim.commands_applied(),
    )
}

#[test]
fn incremental_matches_full_fingerprints_fault_free() {
    // The fault-free managed run is the regime where lazy cycle
    // skipping and quiescent resampling actually engage; every
    // fingerprint must still be bit-identical to the dense reference.
    let run = |mode: EvalMode| {
        let mut sim = managed_mini(8, PolicyKind::Mpc, 0.60).with_eval_mode(mode);
        sim.run_for(SimDuration::from_secs(400));
        digest(&sim)
    };
    assert_eq!(run(EvalMode::Full), run(EvalMode::Incremental));
}

#[test]
fn incremental_matches_full_with_critical_jobs() {
    // SLA protection moves nodes out of and back into the candidate
    // set mid-run: the lazy path must freeze a protected node's agent
    // baseline at the protection edge and take a gap-spanning sample
    // on rejoin, exactly like the dense reference that sampled it
    // every cycle until protection and re-sampled it on release.
    let run = |mode: EvalMode| {
        let mut spec = ClusterSpec::mini(8);
        spec.provision_fraction = 0.60;
        spec.critical_job_fraction = 0.4;
        let sets = NodeSets::new(spec.node_ids(), spec.privileged.iter().copied());
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let manager = PowerManager::new(config, sets).unwrap();
        let mut sim = ClusterSim::new(spec)
            .with_manager(manager)
            .with_eval_mode(mode);
        sim.run_for(SimDuration::from_secs(500));
        digest(&sim)
    };
    assert_eq!(run(EvalMode::Full), run(EvalMode::Incremental));
}

/// SLA release lands mid-tick, after the materialize pass took this
/// tick's lazy samples: a released member that is dirty this tick (a
/// phase edge or a command staged last tick) was no candidate then, so
/// the control cycle must sample it. Every such node is sampled at
/// control time, and every fingerprint matches the dense reference on
/// every tick.
#[test]
fn released_dirty_nodes_are_sampled_at_control_time() {
    let make = |mode: EvalMode| {
        let mut spec = ClusterSpec::mini(16);
        spec.provision_fraction = 0.60;
        spec.critical_job_fraction = 0.4;
        let sets = NodeSets::new(spec.node_ids(), spec.privileged.iter().copied());
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let manager = PowerManager::new(config, sets).unwrap();
        ClusterSim::new(spec)
            .with_manager(manager)
            .with_eval_mode(mode)
    };
    let mut full = make(EvalMode::Full);
    let mut inc = make(EvalMode::Incremental);
    assert!(inc.incremental_active());
    let mut released_dirty = 0;
    for tick in 1..=600 {
        let done = inc.finished().len();
        // Records keep no members: note every critical job's before the
        // step (no job starts and finishes in one tick).
        let critical: Vec<(JobId, Vec<NodeId>)> = inc
            .scheduler
            .running_jobs()
            .iter()
            .filter(|j| j.priority() == JobPriority::Critical)
            .map(|j| (j.id(), j.nodes().to_vec()))
            .collect();
        full.step();
        inc.step();
        assert_eq!(digest(&full), digest(&inc), "diverged at tick {tick}");
        let sets = inc.hierarchy.as_ref().unwrap().sets();
        for r in &inc.finished()[done..] {
            if r.priority != JobPriority::Critical {
                continue;
            }
            let (_, members) = critical.iter().find(|(id, _)| *id == r.id).unwrap();
            for &n in members {
                if inc.columns.dirty.contains(n) && sets.is_candidate(n) {
                    released_dirty += 1;
                    assert_eq!(
                        inc.last_sampled_tick[n.0 as usize], tick,
                        "released dirty node {n} unsampled at tick {tick}"
                    );
                }
            }
        }
    }
    assert!(released_dirty > 0, "no release met a dirty member");
}

/// Steps a Full and an Incremental sim built by `make` in lockstep for
/// `ticks`, handing both to `check` after every tick: their
/// fresh-candidate masks must agree on every tick and every
/// fingerprint at the end. Under faults the Incremental sim keeps the
/// lazy regime, so it must also take under three quarters of the real
/// samples the dense reference takes (these small clusters are
/// saturated, so most nodes change every few ticks).
fn assert_lockstep_under_faults(
    make: impl Fn(EvalMode) -> ClusterSim,
    ticks: u64,
    mut check: impl FnMut(u64, &ClusterSim),
) {
    let mut full = make(EvalMode::Full);
    let mut inc = make(EvalMode::Incremental);
    assert!(inc.incremental_active() && inc.faults.is_some());
    let (mut dense_samples, mut lazy_samples) = (0, 0);
    for tick in 1..=ticks {
        full.step();
        inc.step();
        assert_eq!(
            full.fresh_candidates(),
            inc.fresh_candidates(),
            "fresh candidates diverged at tick {tick}"
        );
        dense_samples += full.scratch_samples.len();
        lazy_samples += inc.scratch_samples.len();
        check(tick, &inc);
    }
    assert_eq!(digest(&full), digest(&inc));
    assert!(
        lazy_samples * 4 < dense_samples * 3,
        "lazy {lazy_samples} vs dense {dense_samples} samples"
    );
}

#[test]
fn incremental_matches_full_fingerprints_under_faults() {
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    // Faults keep the lazy regime: only dirty nodes and the nodes a
    // fault edge brings back are sampled.
    let make = |mode: EvalMode| {
        let schedule = FaultSchedule::new(vec![
            FaultEvent {
                at: SimTime::from_secs(40),
                node: NodeId(1),
                kind: FaultKind::Crash {
                    reboot: SimDuration::from_secs(30),
                },
            },
            FaultEvent {
                at: SimTime::from_secs(60),
                node: NodeId(2),
                kind: FaultKind::Hang {
                    duration: SimDuration::from_secs(50),
                },
            },
            FaultEvent {
                at: SimTime::from_secs(90),
                node: NodeId(3),
                kind: FaultKind::AgentSilence {
                    duration: SimDuration::from_secs(40),
                },
            },
        ]);
        managed_mini(8, PolicyKind::Mpc, 0.60)
            .with_eval_mode(mode)
            .with_faults(FaultInjection::new(schedule))
    };
    assert_lockstep_under_faults(make, 400, |_, _| {});
}

/// A hand-made schedule with one of every fault edge the lazy regime
/// must honour, on a saturated 8-node cluster running critical jobs
/// under a 3 s staleness limit.
#[test]
fn every_fault_edge_keeps_incremental_equal_to_full() {
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    let at = |secs, node, kind| FaultEvent {
        at: SimTime::from_secs(secs),
        node: NodeId(node),
        kind,
    };
    let silence = |secs| FaultKind::AgentSilence {
        duration: SimDuration::from_secs(secs),
    };
    let make = |mode: EvalMode| {
        let schedule = FaultSchedule::new(vec![
            // Longer than the staleness limit: node 3 drops out.
            at(50, 3, silence(40)),
            at(
                60,
                2,
                FaultKind::Hang {
                    duration: SimDuration::from_secs(50),
                },
            ),
            at(
                80,
                1,
                FaultKind::Crash {
                    reboot: SimDuration::from_secs(30),
                },
            ),
            at(
                120,
                4,
                FaultKind::SubtreePartition {
                    width: 4,
                    duration: SimDuration::from_secs(20),
                },
            ),
            // Shorter than the limit: node 6 never drops out.
            at(150, 6, silence(2)),
            // Long enough to span phase edges of the job on node 5.
            at(200, 5, silence(60)),
            // A crash while silent, then a silence struck on the
            // reboot tick.
            at(300, 7, silence(50)),
            at(
                320,
                7,
                FaultKind::Crash {
                    reboot: SimDuration::from_secs(20),
                },
            ),
            at(340, 7, silence(10)),
        ]);
        let mut spec = ClusterSpec::mini(8);
        spec.provision_fraction = 0.60;
        spec.critical_job_fraction = 0.4;
        let sets = NodeSets::new(spec.node_ids(), []);
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        ClusterSim::new(spec)
            .with_manager(PowerManager::new(config, sets).unwrap())
            .with_eval_mode(mode)
            .with_faults(FaultInjection {
                staleness_limit: SimDuration::from_secs(3),
                ..FaultInjection::new(schedule)
            })
    };
    let (mut dark_stale, mut dark_fresh, mut dark_edges) = (0, 0, 0);
    let mut released = false;
    assert_lockstep_under_faults(make, 500, |tick, sim| {
        let engine = sim.fault_engine().unwrap();
        let fresh = sim.fresh_candidates().unwrap();
        if engine.is_silent(NodeId(3)) {
            if fresh.contains(NodeId(3)) {
                dark_fresh += 1;
            } else {
                dark_stale += 1;
            }
        }
        if (151..=152).contains(&tick) {
            assert!(fresh.contains(NodeId(6)), "short silence went stale");
        }
        if engine.is_silent(NodeId(5)) && sim.columns().dirty.contains(NodeId(5)) {
            dark_edges += 1;
        }
        released |= sim
            .finished()
            .iter()
            .any(|r| r.priority == JobPriority::Critical);
    });
    // Fresh for the 3 s limit after the last sample, stale after.
    assert_eq!((dark_fresh, dark_stale), (3, 37));
    assert!(
        dark_edges > 0,
        "the silence on node 5 crossed no phase edge"
    );
    assert!(released, "no critical job released its nodes");
}

/// A capped candidate set admits another node whenever a candidate
/// leaves it (SLA protection, a crash); the lazy regime cannot see
/// that node join, so a capped run is evaluated densely whichever mode
/// it asks for.
#[test]
fn incremental_matches_full_with_a_capped_candidate_set() {
    use ppc_faults::{FaultInjection, FaultRates, FaultSchedule};
    let run = |mode: EvalMode| {
        let mut spec = ClusterSpec::mini(8);
        spec.provision_fraction = 0.60;
        spec.critical_job_fraction = 0.4;
        let sets = NodeSets::new(spec.node_ids(), []).with_candidate_cap(Some(4));
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let rates = FaultRates {
            crash_per_node_hour: 6.0,
            reboot_mean_secs: 40.0,
            ..FaultRates::default()
        };
        let schedule =
            FaultSchedule::generate(&rates, 8, SimDuration::from_secs(500), &RngFactory::new(5));
        let mut sim = ClusterSim::new(spec)
            .with_manager(PowerManager::new(config, sets).unwrap())
            .with_eval_mode(mode)
            .with_faults(FaultInjection::new(schedule));
        assert_eq!(sim.eval_mode(), EvalMode::Full);
        sim.run_for(SimDuration::from_secs(500));
        digest(&sim)
    };
    assert_eq!(run(EvalMode::Full), run(EvalMode::Incremental));
}

/// Regime selection: a run the lazy control cycle cannot represent — a
/// capped candidate set, a meter that drops readings — is evaluated
/// densely, while plain managed, tree and faulted runs stay incremental.
#[test]
fn regime_follows_what_the_lazy_cycle_can_represent() {
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    let capped = {
        let spec = ClusterSpec::mini(8);
        let sets = NodeSets::new(spec.node_ids(), []).with_candidate_cap(Some(4));
        let config = ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc);
        ClusterSim::new(spec).with_manager(PowerManager::new(config, sets).unwrap())
    };
    let dropout = {
        let mut spec = ClusterSpec::mini(8);
        spec.meter_noise.dropout_prob = 0.1;
        let sets = NodeSets::new(spec.node_ids(), []);
        let config = ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc);
        ClusterSim::new(spec).with_manager(PowerManager::new(config, sets).unwrap())
    };
    let faulted = managed_mini(8, PolicyKind::Mpc, 0.6).with_faults(FaultInjection::new(
        FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_secs(5),
            node: NodeId(2),
            kind: FaultKind::Crash {
                reboot: SimDuration::from_secs(10),
            },
        }]),
    ));
    for (label, sim, mode) in [
        ("capped candidates", capped, EvalMode::Full),
        ("meter dropout", dropout, EvalMode::Full),
        (
            "flat manager",
            managed_mini(8, PolicyKind::Mpc, 0.6),
            EvalMode::Incremental,
        ),
        ("4-rack tree", managed_hier(16, 4), EvalMode::Incremental),
        ("faulted", faulted, EvalMode::Incremental),
    ] {
        assert_eq!(sim.eval_mode(), mode, "{label}");
    }
}

#[test]
fn incremental_matches_full_unmanaged() {
    let run = |mode: EvalMode| {
        let mut sim = ClusterSim::new(ClusterSpec::mini(8)).with_eval_mode(mode);
        sim.run_for(SimDuration::from_secs(400));
        (
            fnv1a_bits(sim.true_power().values()),
            sim.journal().fingerprint(),
            sim.finished().len(),
        )
    };
    assert_eq!(run(EvalMode::Full), run(EvalMode::Incremental));
}

/// A busy trace-fed 128-node fleet: Poisson arrivals over
/// `horizon_secs` (a tenth of them critical) keep jobs starting and
/// finishing nearly every tick.
pub(super) fn busy_spec(horizon_secs: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::mini(128);
    spec.provision_fraction = 0.65;
    spec.critical_job_fraction = 0.1;
    let factory = RngFactory::new(spec.seed);
    let mut gaps = factory.stream("test.arrivals", 0);
    let mut draws = JobGenerator::new(factory, spec.class, spec.max_nprocs().min(256))
        .with_critical_fraction(spec.critical_job_fraction);
    let mut trace = Vec::new();
    let mut t = gaps.exponential(1.0 / 1.5);
    while t < horizon_secs as f64 {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
        let job = draws.next_job(at);
        trace.push(TraceEntry {
            at,
            app: job.app(),
            class: job.class(),
            nprocs: job.nprocs(),
            priority: job.priority(),
        });
        t += gaps.exponential(1.0 / 1.5);
    }
    spec.job_trace = Some(trace);
    spec
}

/// What [`assert_dirty_covers_power_changes`] saw the incremental run
/// do.
#[derive(Debug, Default)]
struct DirtyCoverage {
    /// Ticks on which at least one job started and one finished.
    churn_ticks: u64,
    /// Phase edges on jobs that a `swap_remove` moved down the run
    /// queue in the same advance.
    moved_edges: u64,
}

/// Steps a dense and an incremental sim in lockstep for `ticks`:
/// whenever any node's true power changes between consecutive ticks in
/// the dense run, that node must be in the incremental run's dirty set
/// for the tick — and the whole power column must stay bit-equal. The
/// members of a job whose phase moved after a `swap_remove` moved it
/// must be dirty the next tick.
fn assert_dirty_covers_power_changes(
    mut full: ClusterSim,
    mut inc: ClusterSim,
    ticks: u64,
) -> DirtyCoverage {
    let mut seen = DirtyCoverage::default();
    let mut prev = full.columns().power_w().to_vec();
    let mut pending: Vec<NodeId> = Vec::new();
    for tick in 0..ticks {
        let before: Vec<(JobId, usize)> = inc
            .scheduler
            .running_jobs()
            .iter()
            .map(|j| (j.id(), j.phase_index()))
            .collect();
        let finished = inc.finished().len();
        full.step();
        inc.step();
        let cur = full.columns().power_w();
        assert_eq!(
            cur,
            inc.columns().power_w(),
            "power columns diverged at tick {tick}"
        );
        for (i, (&p, &q)) in prev.iter().zip(cur.iter()).enumerate() {
            if p.to_bits() != q.to_bits() {
                assert!(
                    inc.columns().dirty.contains(NodeId(i as u32)),
                    "node {i} power changed at tick {tick} but was not dirty"
                );
            }
        }
        for &n in &pending {
            assert!(
                inc.columns().dirty.contains(n),
                "moved job's phase edge on {n} not dirty at tick {tick}"
            );
        }
        pending.clear();
        let done = inc.finished().len() - finished;
        let running = inc.scheduler.running_jobs();
        if done > 0 && running.len() + done > before.len() {
            seen.churn_ticks += 1;
        }
        for (slot, job) in running.iter().enumerate() {
            let was = before.iter().position(|&(id, _)| id == job.id());
            if let Some(old) = was.filter(|&old| old != slot) {
                if before[old].1 != job.phase_index() {
                    seen.moved_edges += 1;
                    pending.extend_from_slice(job.nodes());
                }
            }
        }
        prev = cur.to_vec();
    }
    seen
}

#[test]
fn dirty_set_covers_every_power_change() {
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    let make = |mode: EvalMode| {
        let schedule = FaultSchedule::new(vec![
            FaultEvent {
                at: SimTime::from_secs(30),
                node: NodeId(1),
                kind: FaultKind::Crash {
                    reboot: SimDuration::from_secs(20),
                },
            },
            FaultEvent {
                at: SimTime::from_secs(55),
                node: NodeId(4),
                kind: FaultKind::Hang {
                    duration: SimDuration::from_secs(40),
                },
            },
        ]);
        managed_mini(8, PolicyKind::Mpc, 0.60)
            .with_eval_mode(mode)
            .with_faults(FaultInjection::new(schedule))
    };
    assert_dirty_covers_power_changes(make(EvalMode::Full), make(EvalMode::Incremental), 300);

    // A busy 4-rack hierarchy: jobs start and finish on most ticks, so
    // completions `swap_remove` tail jobs into earlier run-queue slots
    // on the same advance that moves their phase.
    const TICKS: u64 = 400;
    let make = |mode: EvalMode| {
        let spec = busy_spec(TICKS);
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let topology = ppc_core::Topology::new(128, 32, 2).unwrap();
        let h = HierarchicalManager::new(config, topology, &BTreeSet::new(), spec.node_weights_w())
            .unwrap();
        ClusterSim::new(spec).with_hierarchy(h).with_eval_mode(mode)
    };
    let seen =
        assert_dirty_covers_power_changes(make(EvalMode::Full), make(EvalMode::Incremental), TICKS);
    assert!(seen.churn_ticks > TICKS / 4, "{seen:?}");
    assert!(seen.moved_edges > 0, "{seen:?}");
}

#[test]
fn privileged_nodes_keep_top_level_under_red_pressure() {
    let mut spec = ClusterSpec::mini(4);
    spec.provision_fraction = 0.55;
    spec.privileged = vec![NodeId(0)];
    let sets = NodeSets::new(spec.node_ids(), [NodeId(0)]);
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::MpcC)
    };
    let manager = PowerManager::new(config, sets).unwrap();
    let mut sim = ClusterSim::new(spec).with_manager(manager);
    sim.run_for(SimDuration::from_secs(300));
    assert!(sim.commands_applied() > 0);
    let levels = sim.node_levels();
    assert_eq!(levels[0], Level::new(9), "privileged node untouched");
    assert!(
        levels[1..].iter().any(|&l| l < Level::new(9)),
        "other nodes were throttled"
    );
}

/// The budget baseline samples exactly the nodes with an agent to sample,
/// every cycle: not the privileged ones (static or SLA-protected), not
/// the down ones, not the silent ones — but a hung node, whose agent
/// still reports.
#[test]
fn budget_cycle_samples_every_node_with_an_agent() {
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    let mut spec = ClusterSpec::mini(8);
    spec.privileged = vec![NodeId(0)];
    spec.critical_job_fraction = 0.5;
    let thy = spec.theoretical_max_w();
    let thresholds = ppc_core::Thresholds::new(0.55 * thy, 0.64 * thy).unwrap();
    let at = |secs, node, kind| FaultEvent {
        at: SimTime::from_secs(secs),
        node: NodeId(node),
        kind,
    };
    let schedule = FaultSchedule::new(vec![
        at(
            40,
            1,
            FaultKind::Crash {
                reboot: SimDuration::from_secs(30),
            },
        ),
        at(
            60,
            2,
            FaultKind::Hang {
                duration: SimDuration::from_secs(50),
            },
        ),
        at(
            90,
            3,
            FaultKind::AgentSilence {
                duration: SimDuration::from_secs(40),
            },
        ),
    ]);
    let mut sim = ClusterSim::new(spec)
        .with_budget_controller(ProportionalBudgetController::new(thresholds))
        .with_faults(FaultInjection::new(schedule));
    let (mut protected, mut down, mut silent, mut hung) = (0, 0, 0, 0);
    for _ in 0..300 {
        sim.step();
        let engine = &sim.faults.as_ref().unwrap().engine;
        let mut want = Vec::new();
        for node in &sim.nodes {
            let id = node.id();
            if node.is_privileged() {
                protected += u32::from(id != NodeId(0));
            } else if sim.scheduler.is_node_down(id) {
                down += 1;
            } else if engine.is_silent(id) {
                silent += 1;
            } else {
                hung += u32::from(engine.is_hung(id));
                want.push(id);
            }
        }
        let got: Vec<NodeId> = sim.scratch_samples.iter().map(|s| s.node).collect();
        assert_eq!(got, want, "tick {}", sim.tick_index);
    }
    assert!(protected > 0 && down > 0 && silent > 0 && hung > 0);
    let stats = sim.budget_controller().unwrap().stats();
    assert!(stats.active_cycles > 0, "the budget must bind");
}

fn managed_hier(nodes: u32, nodes_per_rack: u32) -> ClusterSim {
    let mut spec = ClusterSpec::mini(nodes);
    spec.provision_fraction = 0.6;
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let topology = ppc_core::Topology::new(nodes, nodes_per_rack, 2).unwrap();
    let h = HierarchicalManager::new(config, topology, &BTreeSet::new(), spec.node_weights_w())
        .unwrap();
    ClusterSim::new(spec).with_hierarchy(h)
}

/// Every control regime charges the same stages, each once per tick:
/// the flat manager and a 4-rack tree (lazy), a faulted lazy run, a capped
/// candidate set and the budget controller (both Full). Only a multi-rack
/// tick runs the delegation pass. The power manager's `control` stage is
/// split into its ingest, observe and select sub-stages, each charged
/// once per tick, which sum to it; the budget controller's is not split.
#[test]
fn every_step_stage_is_charged_once_per_managed_tick() {
    use ppc_core::{ProportionalBudgetController, Thresholds};
    use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
    const TICKS: u64 = 40;
    let at = |secs, node, kind| FaultEvent {
        at: SimTime::from_secs(secs),
        node: NodeId(node),
        kind,
    };
    let for_secs = SimDuration::from_secs;
    let faulted = managed_mini(16, PolicyKind::Mpc, 0.6).with_faults(FaultInjection::new(
        FaultSchedule::new(vec![
            at(
                5,
                3,
                FaultKind::Hang {
                    duration: for_secs(10),
                },
            ),
            at(
                10,
                1,
                FaultKind::Crash {
                    reboot: for_secs(10),
                },
            ),
            at(
                15,
                2,
                FaultKind::AgentSilence {
                    duration: for_secs(10),
                },
            ),
        ]),
    ));
    assert_eq!(faulted.eval_mode(), EvalMode::Incremental);
    let capped = {
        let mut spec = ClusterSpec::mini(16);
        spec.provision_fraction = 0.6;
        let sets = NodeSets::new(spec.node_ids(), []).with_candidate_cap(Some(8));
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        ClusterSim::new(spec).with_manager(PowerManager::new(config, sets).unwrap())
    };
    assert_eq!(capped.eval_mode(), EvalMode::Full);
    let budget = {
        let spec = ClusterSpec::mini(16);
        let thy = spec.theoretical_max_w();
        let thresholds = Thresholds::new(0.55 * thy, 0.64 * thy).unwrap();
        ClusterSim::new(spec).with_budget_controller(ProportionalBudgetController::new(thresholds))
    };
    assert_eq!(budget.eval_mode(), EvalMode::Full);
    for (label, mut sim, delegates, split) in [
        ("flat", managed_mini(16, PolicyKind::Mpc, 0.6), false, true),
        ("4-rack tree", managed_hier(16, 4), true, true),
        ("faulted lazy", faulted, false, true),
        ("capped candidates", capped, false, true),
        ("budget controller", budget, false, false),
    ] {
        sim.run_for(SimDuration::from_secs(TICKS));
        let report = sim.obs().profile.report();
        let mut stages = vec![
            "faults",
            "schedule",
            "materialize",
            "advance",
            "sample",
            "control",
            "actuate",
            "health",
        ];
        if delegates {
            stages.push("delegate");
        }
        let subs = ["control.ingest", "control.observe", "control.select"];
        if split {
            stages.extend(subs);
        }
        for &stage in &stages {
            let count = report.iter().find(|c| c.stage == stage).map(|c| c.count);
            assert_eq!(count, Some(TICKS), "{label}: stage {stage}");
        }
        assert_eq!(report.len(), stages.len(), "{label}: no other stage");
        if split {
            let secs = |stage| {
                let c = report.iter().find(|c| c.stage == stage).unwrap();
                c.mean_secs * c.count as f64
            };
            let parts: f64 = subs.iter().map(|&s| secs(s)).sum();
            let control = secs("control");
            assert!(
                (parts - control).abs() <= 1e-9 * control.max(1e-6),
                "{label}: sub-stages {parts} s against control {control} s"
            );
        }
    }
}

/// Wall seconds charged to every top-level `StageProfiler` stage so far
/// (a sub-stage such as `control.observe` is already inside its parent).
fn staged_secs(sim: &ClusterSim) -> f64 {
    let report = sim.obs().profile.report();
    let top = report.iter().filter(|c| !c.stage.contains('.'));
    top.map(|c| c.mean_secs * c.count as f64).sum()
}

/// The profiler's stages account for the tick: together they cover at
/// least 95% of `step`'s wall time, flat at 128 nodes and hierarchical
/// at 1 024 and 10 240 nodes, so a per-stage breakdown leaves nothing
/// material untimed. Each size is measured over at least 40 ticks and
/// at least a quarter second of stepping: a 128-node tick takes a few
/// microseconds, and over 40 of them one preemption of the test thread
/// inside an untimed gap between stages could move the share by more
/// than the 5-point margin.
#[test]
fn profiler_stages_cover_the_step() {
    const MIN_TICKS: u32 = 40;
    const MIN_SECS: f64 = 0.25;
    for (mut sim, label) in [
        (managed_mini(128, PolicyKind::Mpc, 0.6), "128 flat"),
        (managed_hier(1024, 128), "1 024 hierarchical"),
        (managed_hier(10240, 128), "10 240 hierarchical"),
    ] {
        // Warm up past the first tick, which materializes every node.
        sim.run_for(SimDuration::from_secs(10));
        let before = staged_secs(&sim);
        let mut wall = ppc_obs::StageProfiler::new();
        let mut step = 0.0;
        let mut ticks = 0;
        while ticks < MIN_TICKS || step < MIN_SECS {
            for _ in 0..MIN_TICKS {
                wall.start();
                sim.step();
                wall.lap("step");
            }
            ticks += MIN_TICKS;
            let cost = wall.report()[0];
            step = cost.mean_secs * cost.count as f64;
        }
        let staged = staged_secs(&sim) - before;
        assert!(
            staged >= 0.95 * step,
            "{label}: stages cover {:.1}% of the step over {ticks} ticks",
            100.0 * staged / step
        );
    }
}

#[test]
fn rack_fanout_reuses_its_buffers() {
    let mut sim = managed_hier(16, 4);
    sim.run_for(SimDuration::from_secs(5));
    let outcomes = (
        sim.fanout.outcomes.as_ptr() as usize,
        sim.fanout.outcomes.capacity(),
    );
    assert!(outcomes.1 >= 4);
    sim.run_for(SimDuration::from_secs(20));
    assert_eq!(
        (
            sim.fanout.outcomes.as_ptr() as usize,
            sim.fanout.outcomes.capacity()
        ),
        outcomes
    );
}

#[test]
fn multi_rack_node_sketch_sees_every_node() {
    // 10 nodes in racks of 4: the last rack is partial. Every
    // node-sample tick must observe each node once, whatever the
    // rack layout.
    const NODES: u64 = 10;
    let mut sim = managed_hier(NODES as u32, 4);
    assert_eq!(sim.hierarchy().unwrap().topology().racks(), 3);
    let ticks = 2 * ppc_obs::NODE_SKETCH_PERIOD + 1;
    sim.run_for(SimDuration::from_secs(ticks));
    let samples = (1..=ticks)
        .filter(|&t| sim.health().wants_node_sample(t))
        .count() as u64;
    assert_eq!(samples, 2);
    assert_eq!(sim.health().node_power().count(), NODES * samples);
}
