//! `paper128_sweep`: the paper protocol (`ExperimentConfig::paper`, 128
//! nodes, 2 h training + 6 h measurement, refill-on-empty with a 15 s
//! think time), uncapped plus every policy of `PolicyKind::ALL`, over a
//! few seeds derived from the workload seed — the loop behind Figs. 6-7.
//!
//! Each experiment is stepped exactly as `run_experiment_full` steps it,
//! but tick by tick, so ticks can be timed and checked; its metrics are
//! computed the same way. Set-up builds and trains every run; the
//! measured operation is one run's measurement phase.

use crate::checks::{digest, red_violations, Digest};
use crate::host;
use crate::layers::{self, PROFILED_STAGES};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::speed::SpeedLog;
use crate::stats;
use ppc_cluster::{build_sim, ClusterSim, EvalMode, ExperimentConfig};
use ppc_core::PolicyKind;
use ppc_metrics::RunMetrics;
use ppc_simkit::{RngFactory, WorkerPool};
use ppc_telemetry::Collector;
use std::sync::Arc;
use std::time::Instant;

/// Seeds per sweep: one experiment lasts 0.05-0.3 s and varies ±50%, so
/// only a sweep of several seeds is long enough to be steady.
const SWEEP_SEEDS: u64 = 4;

/// Wall seconds of one pass on a 2-CPU host.
const PASS_SECONDS: f64 = 7.0;

/// A traced experiment probes one tick in this many.
const PROBE_EVERY: u64 = 1_000;

/// Ticks of each paired measurement in a traced run.
const PAIRED_TICKS: u64 = 20_000;

/// The sweep's runs: uncapped first, then each policy, per derived seed.
fn configs(seed: u64) -> Vec<ExperimentConfig> {
    let factory = RngFactory::new(seed);
    let policies = std::iter::once(None).chain(PolicyKind::ALL.into_iter().map(Some));
    (0..SWEEP_SEEDS)
        .flat_map(|i| {
            let run_seed = factory.child_seed("sweep", i);
            policies.clone().map(move |policy| {
                let mut cfg = ExperimentConfig::paper(policy);
                cfg.spec.seed = run_seed;
                cfg
            })
        })
        .collect()
}

/// One experiment's results.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    capped: bool,
    metrics: RunMetrics,
    provision_w: f64,
    red_cycle_frac: f64,
    yellow_cycle_frac: f64,
    issued: u64,
    applied: u64,
    digest: Digest,
}

/// Per-layer sums over a traced pass.
#[derive(Debug, Default)]
struct LayerSums {
    ticks: u64,
    step_s: f64,
    stage_s: [f64; 3],
    dirty: u64,
    util: f64,
    journal_events: u64,
    journal_dropped: u64,
    ingest_ns: Vec<f64>,
    health_us: Vec<f64>,
    compute_us: Vec<f64>,
}

/// One pass over every experiment. Times are reference time (see
/// `speed`).
struct Pass {
    setup_s: f64,
    /// Set-up wall time, s.
    wall_setup_s: f64,
    ticks_us: Vec<f64>,
    /// Median tick wall time, µs.
    wall_p50_us: f64,
    experiments_us: Vec<f64>,
    results: Vec<RunResult>,
    failed: u64,
}

/// Steps one trained experiment through its measurement phase.
fn measure(
    config: &ExperimentConfig,
    pool: &Arc<WorkerPool>,
    label: &str,
    mut sim: ClusterSim,
    ticks_us: &mut Vec<f64>,
    mut traced: Option<(&mut Tracer, &mut LayerSums, &mut Outcome)>,
) -> (RunResult, f64, bool) {
    let span = traced
        .as_mut()
        .and_then(|(t, ..)| t.open("experiment", None));
    if let Some((tracer, _, out)) = traced.as_mut() {
        let s = Instant::now();
        if paired_runs(config, pool, &sim, out) {
            tracer.record("paired", span, s, Instant::now());
        }
    }
    let provision_w = config.spec.provision_w();
    let measurement = config.measurement.div_duration(config.spec.tick);
    let stages0 = layers::stage_totals(&sim);
    let journal0 = (
        sim.journal().len() as u64 + sim.journal().dropped(),
        sim.journal().dropped(),
    );
    let mut collector = Collector::new();
    let mut busy_s = 0.0;
    let mut red_ok = true;
    let t0 = sim.now();
    let stats0 = sim.control_stats().unwrap_or_default();
    let finished0 = sim.finished().len();
    let applied0 = sim.commands_applied();
    for tick in 0..measurement {
        let s = Instant::now();
        sim.step();
        let step_s = s.elapsed().as_secs_f64();
        busy_s += step_s;
        ticks_us.push(step_s * 1e6);
        if red_violations(&sim, |_| false) > 0 {
            red_ok = false;
        }
        if let Some((_, sums, _)) = traced.as_mut() {
            sums.ticks += 1;
            sums.step_s += step_s;
            sums.dirty += sim.columns().dirty.indices().len() as u64;
            sums.util += sim.utilization();
            if tick % PROBE_EVERY == 0 {
                let power = sim.columns().power_w();
                let levels = sim.node_levels();
                sums.ingest_ns.push(layers::ingest_ns_per_node(
                    &mut collector,
                    sim.now(),
                    power,
                    &levels,
                ));
                let mut health = sim.health().clone();
                sums.health_us
                    .push(layers::health_node_power_us(&mut health, power));
            }
        }
    }
    let trace = sim.true_power().since(t0);
    let records = &sim.finished()[finished0..];
    let s = Instant::now();
    let metrics = RunMetrics::compute(
        label,
        &trace,
        records,
        provision_w,
        config.lossless_tolerance,
    );
    let compute_s = s.elapsed().as_secs_f64();
    let stats = sim.control_stats().unwrap_or_default();
    let cycles = (stats.cycles - stats0.cycles).max(1) as f64;
    let applied = sim.commands_applied() - applied0;
    let result = RunResult {
        capped: config.policy.is_some(),
        metrics,
        provision_w,
        red_cycle_frac: (stats.red_cycles - stats0.red_cycles) as f64 / cycles,
        yellow_cycle_frac: (stats.yellow_cycles - stats0.yellow_cycles) as f64 / cycles,
        issued: stats.commands_issued - stats0.commands_issued,
        applied,
        digest: digest(&sim),
    };
    if let Some((tracer, sums, _)) = traced.as_mut() {
        let stages1 = layers::stage_totals(&sim);
        for (i, (_, name)) in PROFILED_STAGES.iter().enumerate() {
            let d = stages1[i] - stages0[i];
            sums.stage_s[i] += d;
            tracer.record_derived(name, span, d);
        }
        sums.compute_us.push(compute_s * 1e6);
        sums.journal_events += sim.journal().len() as u64 + sim.journal().dropped() - journal0.0;
        sums.journal_dropped += sim.journal().dropped() - journal0.1;
        tracer.record(
            "metrics.compute",
            span,
            s,
            s + std::time::Duration::from_secs_f64(compute_s),
        );
        tracer.close(span);
    }
    (result, busy_s + compute_s, red_ok)
}

/// Paired copies of the first capped experiment as its measurement
/// starts: `Full` evaluation, health off and one worker, each against
/// the plain sim. Later experiments of the pass skip this; returns
/// whether it ran.
fn paired_runs(
    config: &ExperimentConfig,
    pool: &Arc<WorkerPool>,
    sim: &ClusterSim,
    out: &mut Outcome,
) -> bool {
    if sim.manager().is_none() || out.metrics.contains_key("cluster.incremental_speedup") {
        return false;
    }
    let mut dense = build_sim(config)
        .1
        .with_eval_mode(EvalMode::Full)
        .with_worker_pool(Arc::clone(pool));
    dense.run_for(config.training);
    let full = layers::paired(sim.clone(), dense, PAIRED_TICKS);
    let health_off = layers::paired(sim.clone(), layers::without_health(sim), PAIRED_TICKS);
    let serial = layers::paired(
        sim.clone(),
        sim.clone().with_worker_pool(layers::serial_pool()),
        PAIRED_TICKS,
    );
    if full.digests.0 != full.digests.1 || serial.digests.0 != serial.digests.1 {
        out.failed += 1;
    }
    out.attempted += 1;
    out.set("cluster.incremental_speedup", full.variant_s / full.base_s);
    out.set(
        "obs.health_overhead_frac",
        health_off.base_s / health_off.variant_s - 1.0,
    );
    out.set("simkit.pool_speedup", serial.variant_s / serial.base_s);
    true
}

fn run_pass(
    configs: &[ExperimentConfig],
    pool: &Arc<WorkerPool>,
    speed: &mut SpeedLog,
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Pass {
    // Set-up builds every run and drives it through its training phase
    // (the manager only observes and learns P_peak); the measured
    // operation is each run's measurement phase.
    let setup_mark = speed.mark();
    let setup_t = Instant::now();
    let sims: Vec<(String, ClusterSim)> = configs
        .iter()
        .map(|cfg| {
            let (label, sim) = build_sim(cfg);
            let mut sim = sim.with_worker_pool(Arc::clone(pool));
            sim.run_for(cfg.training);
            (label, sim)
        })
        .collect();
    let setup_s = setup_t.elapsed().as_secs_f64();

    let mut sums = LayerSums::default();
    let mut tracer = tracer;
    let mut ticks_us = Vec::new();
    let mut experiments_us = Vec::new();
    let mut results = Vec::new();
    let mut failed = 0;
    // Per experiment: its first tick's index and its speed mark.
    let mut starts = Vec::with_capacity(configs.len());
    for (cfg, (label, sim)) in configs.iter().zip(sims) {
        let traced = tracer.as_mut().map(|t| (&mut **t, &mut sums, &mut *out));
        starts.push((ticks_us.len(), speed.mark()));
        let (result, secs, red_ok) = measure(cfg, pool, &label, sim, &mut ticks_us, traced);
        failed += u64::from(!red_ok);
        experiments_us.push(secs * 1e6);
        results.push(result);
    }
    if tracer.is_some() {
        finish_traced_pass(&sums, &results, out);
    }
    // A reading after the last experiment gives it its neighbours.
    speed.read();
    let wall_p50_us = stats::median_of(&ticks_us);
    for (i, &(first, mark)) in starts.iter().enumerate() {
        let scale = speed.scale(mark);
        let end = starts.get(i + 1).map_or(ticks_us.len(), |next| next.0);
        ticks_us[first..end].iter_mut().for_each(|t| *t *= scale);
        experiments_us[i] *= scale;
    }
    Pass {
        setup_s: setup_s * speed.scale(setup_mark),
        wall_setup_s: setup_s,
        ticks_us,
        wall_p50_us,
        experiments_us,
        results,
        failed,
    }
}

fn finish_traced_pass(sums: &LayerSums, results: &[RunResult], out: &mut Outcome) {
    let ticks = sums.ticks as f64;
    out.set("cluster.step_us", sums.step_s / ticks * 1e6);
    out.set(
        "cluster.untimed_frac",
        1.0 - sums.stage_s.iter().sum::<f64>() / sums.step_s,
    );
    out.set("cluster.dirty_nodes_per_tick", sums.dirty as f64 / ticks);
    out.set("telemetry.sample_us", sums.stage_s[0] / ticks * 1e6);
    out.set("core.control_us", sums.stage_s[1] / ticks * 1e6);
    out.set("core.actuate_us", sums.stage_s[2] / ticks * 1e6);
    out.set("telemetry.ingest_ns_per_node", stats::mean(&sums.ingest_ns));
    out.set("obs.health_node_power_us", stats::mean(&sums.health_us));
    out.set("workload.utilization", sums.util / ticks);
    out.set("metrics.compute_us", stats::mean(&sums.compute_us));
    out.set(
        "simkit.journal_events_per_tick",
        sums.journal_events as f64 / ticks,
    );
    out.set("simkit.journal_dropped", sums.journal_dropped as f64);
    let capped: Vec<&RunResult> = results.iter().filter(|r| r.capped).collect();
    let issued: u64 = capped.iter().map(|r| r.issued).sum();
    let applied: u64 = capped.iter().map(|r| r.applied).sum();
    let jobs: usize = results.iter().map(|r| r.metrics.jobs_finished).sum();
    out.set("core.commands_issued", issued as f64);
    out.set("core.commands_applied", applied as f64);
    out.set("core.commands_per_tick", issued as f64 / ticks);
    out.set(
        "core.command_success_ratio",
        applied as f64 / issued.max(1) as f64,
    );
    let mean =
        |f: fn(&RunResult) -> f64| stats::mean(&capped.iter().map(|r| f(r)).collect::<Vec<_>>());
    out.set("core.yellow_cycle_frac", mean(|r| r.yellow_cycle_frac));
    out.set("core.red_cycle_frac", mean(|r| r.red_cycle_frac));
    out.set("metrics.overspend", mean(|r| r.metrics.overspend));
    out.set("workload.jobs_finished_per_tick", jobs as f64 / ticks);
}

/// Runs the workload: as many passes as take about `seconds` here.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let configs = configs(seed);
    let pool = host::pool();
    let mut speed = SpeedLog::new();
    let mut out = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_cpus = Vec::new();
    for i in 0..stats::passes_for(seconds, PASS_SECONDS, 2) {
        pass_cpus.push(host::pin_to_fastest_cpus());
        let traced = (tracer.enabled() && i == 1).then_some(&mut *tracer);
        passes.push(run_pass(&configs, &pool, &mut speed, traced, &mut out));
    }
    if tracer.enabled() {
        let s = Instant::now();
        let sim = build_sim(&configs[1]).1;
        out.set(
            "node.run_interval_ns",
            layers::run_interval_ns(&sim, 200_000),
        );
        tracer.record("node.run_interval", None, s, Instant::now());
    }

    let first = &passes[0];
    for p in &passes {
        out.attempted += p.results.len() as u64;
        out.failed += p.failed;
        out.failed += p
            .results
            .iter()
            .zip(&first.results)
            .filter(|(a, b)| a != b)
            .count() as u64;
    }
    for r in &first.results {
        out.expect(
            r.metrics.jobs_finished > 0,
            format!("{} finished no job", r.metrics.label),
        );
    }

    let capped: Vec<&RunResult> = first.results.iter().filter(|r| r.capped).collect();
    let mean =
        |f: fn(&RunResult) -> f64| stats::mean(&capped.iter().map(|r| f(r)).collect::<Vec<_>>());
    let job_perf = mean(|r| r.metrics.performance);
    let peak_power_frac = mean(|r| r.metrics.p_max_w / r.provision_w);

    let mut ticks = stats::per_op_min(passes.iter().map(|p| &p.ticks_us[..]));
    stats::sort(&mut ticks);
    let mut experiments = stats::per_op_min(passes.iter().map(|p| &p.experiments_us[..]));
    stats::sort(&mut experiments);
    let step_s: f64 = ticks.iter().sum::<f64>() * 1e-6;
    let nodes = f64::from(configs[0].spec.total_nodes());
    let tick_tail = stats::tail(&ticks, 99.0);
    let query_tail = stats::tail(&experiments, 99.0);
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    out.set("setup_s", stats::median_of(&setups));
    out.set("node_ticks_per_s", nodes * ticks.len() as f64 / step_s);
    out.set("tick_p50_us", stats::median(&ticks).value);
    out.set("tick_p99_us", tick_tail.value);
    // The sweep's unit operation is one experiment.
    out.set(
        "queries_per_s",
        experiments.len() as f64 / (experiments.iter().sum::<f64>() * 1e-6),
    );
    out.set("query_p50_us", stats::median(&experiments).value);
    out.set("query_p99_us", query_tail.value);
    out.set("job_perf", job_perf);
    out.set("peak_power_frac", peak_power_frac);

    let pass_p50_us: Vec<f64> = passes
        .iter()
        .map(|p| stats::median_of(&p.ticks_us))
        .collect();
    if tracer.enabled() {
        out.set(
            "trace.overhead_frac",
            stats::trace_overhead(&pass_p50_us, 1),
        );
    }
    let wall_setups: Vec<f64> = passes.iter().map(|p| p.wall_setup_s).collect();
    out.note(
        "wall",
        serde_json::json!({
            "setup_s": stats::median_of(&wall_setups),
            "pass_p50_us": passes.iter().map(|p| p.wall_p50_us).collect::<Vec<_>>(),
        }),
    );
    out.note("host_speed", speed.note());
    out.note(
        "samples",
        serde_json::json!({
            "passes": passes.len(),
            "pass_p50_us": pass_p50_us,
            "pass_cpus": pass_cpus,
            "ticks": ticks.len(),
            "tick_tail_pct": tick_tail.pct,
            "experiments": experiments.len(),
            "query_tail_pct": query_tail.pct,
            "setups": setups.len(),
        }),
    );
    out.note(
        "simulated",
        serde_json::json!({
            "job_perf": job_perf,
            "peak_power_frac": peak_power_frac,
            "overspend": mean(|r| r.metrics.overspend),
            "red_cycle_frac": mean(|r| r.red_cycle_frac),
            "capped_runs": capped.len(),
        }),
    );
    out
}
