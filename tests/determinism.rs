//! Reproducibility: identical seeds produce bit-identical experiments,
//! different seeds produce different ones — across the whole stack.

use ppc::cluster::experiment::{run_experiment, ExperimentConfig};
use ppc::cluster::{ClusterSim, ClusterSpec};
use ppc::core::PolicyKind;
use ppc::simkit::SimDuration;

#[test]
fn same_seed_same_everything() {
    let cfg = ExperimentConfig::quick(Some(PolicyKind::Mpc), 8);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.metrics.p_max_w.to_bits(), b.metrics.p_max_w.to_bits());
    assert_eq!(
        a.metrics.performance.to_bits(),
        b.metrics.performance.to_bits()
    );
    assert_eq!(a.metrics.overspend.to_bits(), b.metrics.overspend.to_bits());
    assert_eq!(a.metrics.cplj, b.metrics.cplj);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra, rb);
    }
    assert_eq!(a.manager_stats, b.manager_stats);
    assert_eq!(a.trace.values(), b.trace.values());
}

#[test]
fn different_seed_different_trace() {
    let cfg_a = ExperimentConfig::quick(None, 8);
    let mut cfg_b = cfg_a.clone();
    cfg_b.spec.seed = cfg_a.spec.seed + 1;
    let a = run_experiment(&cfg_a);
    let b = run_experiment(&cfg_b);
    assert_ne!(
        a.trace.values(),
        b.trace.values(),
        "different seeds must produce different workloads"
    );
}

#[test]
fn stepping_granularity_does_not_change_results() {
    // Running 600 single steps equals two 300-step batches.
    let spec = ClusterSpec::mini(6);
    let mut one = ClusterSim::new(spec.clone());
    for _ in 0..600 {
        one.step();
    }
    let mut batched = ClusterSim::new(spec);
    batched.run_for(SimDuration::from_secs(300));
    batched.run_for(SimDuration::from_secs(300));
    assert_eq!(one.now(), batched.now());
    assert_eq!(one.true_power().values(), batched.true_power().values());
    assert_eq!(one.finished().len(), batched.finished().len());
}

#[test]
fn noise_streams_are_independent_of_policy() {
    // The workload (arrivals, phases) must be identical across policies —
    // only node speeds differ. Compare job id → app/nprocs streams.
    let a = run_experiment(&ExperimentConfig::quick(Some(PolicyKind::Mpc), 8));
    let b = run_experiment(&ExperimentConfig::quick(Some(PolicyKind::Lpc), 8));
    let key = |r: &ppc::workload::JobRecord| (r.id, r.app, r.nprocs, r.baseline_secs.to_bits());
    let ids_a: Vec<_> = a.records.iter().map(key).collect();
    let ids_b: Vec<_> = b.records.iter().map(key).collect();
    // Completion order/timing may differ; compare the common prefix of
    // generated jobs by id.
    let n = ids_a.len().min(ids_b.len()).min(20);
    let mut sa = ids_a;
    let mut sb = ids_b;
    sa.sort();
    sb.sort();
    assert_eq!(&sa[..n], &sb[..n], "job stream must not depend on policy");
}
