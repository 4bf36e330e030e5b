//! Trace replay end-to-end: a fixed submission trace drives the cluster
//! instead of the random generator.

use ppc::cluster::{ClusterSim, ClusterSpec};
use ppc::simkit::SimDuration;
use ppc::workload::{parse_trace, JobPriority};

const TRACE: &str = "\
# three-job regression scenario on 8 nodes (12 cores each)
0    EP  A  48
10   CG  A  24
20   LU  A  12  critical
";

fn spec_with_trace() -> ClusterSpec {
    let mut spec = ClusterSpec::mini(8);
    spec.job_trace = Some(parse_trace(TRACE).expect("valid trace"));
    spec
}

#[test]
fn replay_runs_exactly_the_trace() {
    let mut sim = ClusterSim::new(spec_with_trace());
    sim.run_for(SimDuration::from_mins(30));
    // All three jobs, and only those three, complete.
    assert_eq!(sim.finished().len(), 3);
    let mut apps: Vec<String> = sim.finished().iter().map(|r| r.app.to_string()).collect();
    apps.sort();
    assert_eq!(apps, vec!["CG", "EP", "LU"]);
    let lu = sim
        .finished()
        .iter()
        .find(|r| r.app.to_string() == "LU")
        .unwrap();
    assert_eq!(lu.priority, JobPriority::Critical);
    assert_eq!(lu.nprocs, 12);
    // Submission times honor the trace.
    let ep = sim
        .finished()
        .iter()
        .find(|r| r.app.to_string() == "EP")
        .unwrap();
    assert_eq!(ep.submitted_at.as_millis(), 0);
    let cg = sim
        .finished()
        .iter()
        .find(|r| r.app.to_string() == "CG")
        .unwrap();
    assert_eq!(cg.submitted_at.as_millis(), 10_000);
}

#[test]
fn replay_is_bit_reproducible() {
    let run = || {
        let mut sim = ClusterSim::new(spec_with_trace());
        sim.run_for(SimDuration::from_mins(30));
        (
            sim.true_power().values().to_vec(),
            sim.finished()
                .iter()
                .map(|r| (r.id, r.actual_secs.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

/// A trace replaces the generator together with its think-time gate: the
/// same traced spec journals the same run with no think time and with
/// 15 s of it, while the generator's run moves with it.
#[test]
fn trace_ignores_think_time() {
    let journal = |traced: bool, think_secs| {
        let mut spec = spec_with_trace();
        if !traced {
            spec.job_trace = None;
        }
        spec.think_time_mean = SimDuration::from_secs(think_secs);
        let mut sim = ClusterSim::new(spec);
        sim.run_for(SimDuration::from_mins(30));
        sim.journal().fingerprint()
    };
    assert_eq!(journal(true, 0), journal(true, 15));
    assert_ne!(journal(false, 0), journal(false, 15));
}

#[test]
fn exhausted_trace_leaves_cluster_idle() {
    let mut sim = ClusterSim::new(spec_with_trace());
    sim.run_for(SimDuration::from_mins(45));
    assert_eq!(sim.running_jobs(), 0);
    assert_eq!(sim.utilization(), 0.0);
    // Idle cluster still draws idle power.
    let last = *sim.true_power().values().last().unwrap();
    assert!(
        (8.0 * 140.0..8.0 * 180.0).contains(&last),
        "idle draw {last}"
    );
}
