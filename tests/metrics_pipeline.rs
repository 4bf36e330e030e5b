//! Cross-crate consistency of the metric pipeline: metrics computed by
//! the experiment runner must equal metrics recomputed from its raw
//! outputs, and basic accounting identities must hold.

use ppc::cluster::experiment::{run_experiment, ExperimentConfig};
use ppc::core::PolicyKind;
use ppc::metrics::{
    cplj::cplj, overspend::overspend_ratio, peak::peak_power_w, performance::performance,
    RunMetrics,
};
use ppc::workload::scaling::nodes_needed;

#[test]
fn runner_metrics_match_recomputation() {
    let mut cfg = ExperimentConfig::quick(Some(PolicyKind::Mpc), 8);
    cfg.spec.provision_fraction = 0.70;
    let out = run_experiment(&cfg);

    assert_eq!(out.metrics.p_max_w, peak_power_w(&out.trace));
    assert_eq!(
        out.metrics.overspend,
        overspend_ratio(&out.trace, out.provision_w)
    );
    assert_eq!(out.metrics.performance, performance(&out.records));
    assert_eq!(out.metrics.cplj, cplj(&out.records, cfg.lossless_tolerance));
    assert_eq!(out.metrics.jobs_finished, out.records.len());

    let recomputed = RunMetrics::compute(
        out.label.clone(),
        &out.trace,
        &out.records,
        out.provision_w,
        cfg.lossless_tolerance,
    );
    assert_eq!(recomputed, out.metrics);
}

#[test]
fn job_accounting_identities() {
    let cfg = ExperimentConfig::quick(Some(PolicyKind::Hri), 8);
    let out = run_experiment(&cfg);
    let cores = cfg.spec.node_spec.cores();
    for r in &out.records {
        assert!(r.actual_secs > 0.0);
        assert!(r.baseline_secs > 0.0);
        assert!(r.finished_at > r.started_at);
        assert!(r.started_at >= r.submitted_at);
        // Actual time can never beat the full-speed baseline by more than
        // the millisecond timestamp resolution.
        assert!(r.actual_secs >= r.baseline_secs - 0.002, "{:?}", r.id);
        // Throttled time is bounded by the job's wall time.
        assert!(r.throttled_secs <= r.actual_secs + 1.0);
        assert!((1..=8).contains(&nodes_needed(r.nprocs, cores)));
    }
}

#[test]
fn trace_accounting_identities() {
    let cfg = ExperimentConfig::quick(None, 8);
    let out = run_experiment(&cfg);
    let trace = &out.trace;
    assert!(trace.len() > 100);
    // One sample per tick over the measurement window.
    let span = trace.span().unwrap();
    assert_eq!(trace.len() as u64, span.as_millis() / 1000 + 1);
    // Power stays inside the hardware envelope: between all-idle-lowest
    // and the theoretical maximum.
    let floor = 8.0 * 140.0;
    let ceil = cfg.spec.theoretical_max_w();
    for (_, p) in trace.iter() {
        assert!(
            p >= floor && p <= ceil,
            "power {p} outside [{floor}, {ceil}]"
        );
    }
}

#[test]
fn normalization_against_self_is_unity() {
    let cfg = ExperimentConfig::quick(Some(PolicyKind::Bfp), 8);
    let out = run_experiment(&cfg);
    let n = out.metrics.normalize_against(&out.metrics);
    assert!((n.performance - 1.0).abs() < 1e-12);
    assert!((n.p_max - 1.0).abs() < 1e-12);
    assert!((n.energy - 1.0).abs() < 1e-12);
}
