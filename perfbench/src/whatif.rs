//! `whatif128`: the what-if service as a closed loop with one client.
//!
//! The bases are the paper's 128-node MPC-managed cluster under a few
//! derived seeds, each warmed and snapshotted; the client submits a
//! seeded mixed stream of baseline, admit, set-cap, drop-nodes and
//! swap-policy queries (30-tick horizon), each only after the previous
//! answer, taking the bases in turn. Each query is timed from
//! submission to answer. A sample of answers is replayed on a fresh
//! engine, and every pass re-serves the whole stream, which must
//! reproduce every answer and the engine's fingerprints.

use crate::host;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::speed::SpeedLog;
use crate::stats;
use ppc_cluster::{ClusterSim, ClusterSpec};
use ppc_core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
use ppc_simkit::{RngFactory, SimDuration, WorkerPool};
use ppc_whatif::{
    ClusterSnapshot, JobSpec, WhatIfAnswer, WhatIfEngine, WhatIfQuery, WhatIfRequest,
};
use ppc_workload::{Class, NpbApp};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Projection horizon of every query, ticks.
const HORIZON_TICKS: u64 = 30;

/// Base warm-up before the snapshot: half an hour of simulated time.
const WARMUP_TICKS: u64 = 1_800;

/// Bases per run, from seeds derived from the workload seed: query cost
/// depends on the snapshotted state, so one base would make the figures
/// swing with the seed.
const BASES: u64 = 8;

/// Queries per pass. Three 4 000-query streams put p99 anywhere from
/// 642 to 894 µs, so a run serves several passes of this.
const STREAM_LEN: usize = 6_000;

/// Wall seconds of one pass on a 2-CPU host.
const PASS_SECONDS: f64 = 3.4;

/// One answer in this many is replayed on a fresh engine.
const REPLAY_EVERY: usize = 50;

/// Snapshot captures timed per traced pass.
const CAPTURES: u32 = 50;

/// The query kinds in stream order of their draw.
const KINDS: [&str; 5] = [
    "baseline",
    "admit-jobs",
    "set-cap",
    "drop-nodes",
    "swap-policy",
];

/// The per-kind evaluate metric names, in [`KINDS`] order.
const EVALUATE_METRICS: [&str; 5] = [
    "whatif.evaluate_us.baseline",
    "whatif.evaluate_us.admit-jobs",
    "whatif.evaluate_us.set-cap",
    "whatif.evaluate_us.drop-nodes",
    "whatif.evaluate_us.swap-policy",
];

/// The base simulation the service snapshots.
fn base_sim(seed: u64, pool: &Arc<WorkerPool>) -> ClusterSim {
    let mut spec = ClusterSpec::tianhe_1a_variant();
    spec.seed = seed;
    // A saturated base (no think time, a short backlog) so every snapshot
    // holds a comparable load and query cost does not hinge on how many
    // jobs one seed happened to leave running.
    spec.think_time_mean = SimDuration::ZERO;
    spec.queue_depth = 4;
    let sets = NodeSets::new(spec.node_ids(), []);
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let manager = PowerManager::new(config, sets).expect("valid config");
    // Every query clones the base: a small journal ring keeps a branch
    // to column and RNG copies.
    ClusterSim::new(spec)
        .with_manager(manager)
        .with_journal_capacity(256)
        .with_worker_pool(Arc::clone(pool))
}

/// The seeded query stream.
pub fn query_stream(seed: u64, len: usize, provision_w: f64) -> Vec<WhatIfRequest> {
    let mut rng = RngFactory::new(seed).stream("bench.queries", 0);
    (0..len)
        .map(|_| {
            let query = match rng.below(KINDS.len() as u64) {
                0 => WhatIfQuery::Baseline,
                1 => WhatIfQuery::AdmitJobs {
                    jobs: vec![JobSpec {
                        app: *rng.choice(&NpbApp::ALL),
                        class: Class::C,
                        nprocs: *rng.choice(&[8, 16, 32, 64, 128]),
                        critical: rng.bernoulli(0.1),
                    }],
                },
                2 => WhatIfQuery::SetCap {
                    provision_w: provision_w * rng.range_f64(0.8, 1.1),
                },
                3 => WhatIfQuery::DropNodes {
                    count: 1 + rng.below(8) as u32,
                    rack: None,
                },
                _ => WhatIfQuery::SwapPolicy {
                    policy: *rng.choice(&PolicyKind::ALL),
                },
            };
            WhatIfRequest::new(query, HORIZON_TICKS)
        })
        .collect()
}

fn kind_index(req: &WhatIfRequest) -> usize {
    let kind = req.query.kind();
    KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("stream draws the five kinds")
}

/// What one pass served. Times are reference time (see `speed`).
struct Pass {
    setup_s: f64,
    /// Set-up wall time, s.
    wall_setup_s: f64,
    latencies_us: Vec<f64>,
    /// Median query wall time, µs.
    wall_p50_us: f64,
    answers: Vec<WhatIfAnswer>,
    fingerprints: Vec<(u64, u64)>,
    failed: u64,
}

/// Per-layer sums over a traced pass.
#[derive(Default)]
struct LayerSums {
    capture_us: f64,
    branch_us: Vec<f64>,
    evaluate_us: BTreeMap<usize, Vec<f64>>,
    latency_us: Vec<f64>,
}

/// Builds, warms and snapshots every base.
fn build_snapshots(seeds: &[u64], pool: &Arc<WorkerPool>) -> Vec<ClusterSnapshot> {
    seeds
        .iter()
        .map(|&seed| {
            let mut base = base_sim(seed, pool);
            for _ in 0..WARMUP_TICKS {
                base.step();
            }
            ClusterSnapshot::capture(&base)
        })
        .collect()
}

fn run_pass(
    base_seeds: &[u64],
    stream: &[WhatIfRequest],
    pool: &Arc<WorkerPool>,
    speed: &mut SpeedLog,
    mut tracer: Option<&mut Tracer>,
    sums: &mut LayerSums,
) -> Pass {
    let pass_span = tracer.as_mut().and_then(|t| t.open("pass", None));
    let setup_mark = speed.mark();
    let setup_t = Instant::now();
    let snapshots = build_snapshots(base_seeds, pool);
    let setup_s = setup_t.elapsed().as_secs_f64();
    if let Some(t) = tracer.as_mut() {
        t.record("setup", pass_span, setup_t, Instant::now());
        let base = snapshots[0].base();
        let s = Instant::now();
        for _ in 0..CAPTURES {
            std::hint::black_box(ClusterSnapshot::capture(base));
        }
        let e = Instant::now();
        t.record("whatif.capture", pass_span, s, e);
        sums.capture_us = (e - s).as_secs_f64() * 1e6 / f64::from(CAPTURES);
    }

    let mut engines: Vec<WhatIfEngine> = snapshots.iter().cloned().map(WhatIfEngine::new).collect();
    let mut latencies_us = Vec::with_capacity(stream.len());
    let mut marks = Vec::with_capacity(stream.len());
    let mut answers = Vec::with_capacity(stream.len());
    let mut failed = 0;
    for (i, req) in stream.iter().enumerate() {
        // Queries take turns over the bases.
        let base = i % engines.len();
        marks.push(speed.mark());
        let s = Instant::now();
        let mut answer = engines[base].run_batch(std::slice::from_ref(req));
        let e = Instant::now();
        latencies_us.push((e - s).as_secs_f64() * 1e6);
        let answer = answer.pop().expect("one answer per request");
        let snapshot = &snapshots[base];
        if i % REPLAY_EVERY == 0 {
            let replay = WhatIfEngine::new(snapshot.clone()).run_batch(std::slice::from_ref(req));
            failed += u64::from(replay.first() != Some(&answer));
        }
        if let Some(t) = tracer.as_mut() {
            t.record("query", pass_span, s, e);
            // The same query again, calling the layers directly.
            let b0 = Instant::now();
            let branch = snapshot.branch();
            let b1 = Instant::now();
            let direct = ppc_whatif::engine::evaluate(branch, req);
            let b2 = Instant::now();
            t.record("whatif.branch", pass_span, b0, b1);
            t.record("whatif.evaluate", pass_span, b1, b2);
            failed += u64::from(direct != answer);
            sums.latency_us.push((e - s).as_secs_f64() * 1e6);
            sums.branch_us.push((b1 - b0).as_secs_f64() * 1e6);
            sums.evaluate_us
                .entry(kind_index(req))
                .or_default()
                .push((b2 - b1).as_secs_f64() * 1e6);
        }
        answers.push(answer);
    }
    if let Some(t) = tracer.as_mut() {
        t.close(pass_span);
    }
    // A reading after the stream gives its last queries their neighbours.
    speed.read();
    let wall_p50_us = stats::median_of(&latencies_us);
    for (l, &mark) in latencies_us.iter_mut().zip(&marks) {
        *l *= speed.scale(mark);
    }
    Pass {
        setup_s: setup_s * speed.scale(setup_mark),
        wall_setup_s: setup_s,
        latencies_us,
        wall_p50_us,
        answers,
        fingerprints: engines
            .iter()
            .map(|e| (e.span_fingerprint(), e.metrics_fingerprint()))
            .collect(),
        failed,
    }
}

/// Runs the workload: as many passes as take about `seconds` here.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let pool = host::pool();
    let factory = RngFactory::new(seed);
    let base_seeds: Vec<u64> = (0..BASES)
        .map(|i| factory.child_seed("whatif.base", i))
        .collect();
    let provision_w = ClusterSpec::tianhe_1a_variant().provision_w();
    let stream = query_stream(
        factory.child_seed("whatif.stream", 0),
        STREAM_LEN,
        provision_w,
    );
    let mut speed = SpeedLog::new();
    let mut out = Outcome::default();
    let mut sums = LayerSums::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_cpus = Vec::new();
    for i in 0..stats::passes_for(seconds, PASS_SECONDS, 2) {
        pass_cpus.push(host::pin_to_fastest_cpus());
        let traced = (tracer.enabled() && i == 1).then_some(&mut *tracer);
        passes.push(run_pass(
            &base_seeds,
            &stream,
            &pool,
            &mut speed,
            traced,
            &mut sums,
        ));
    }

    let first = &passes[0];
    for p in &passes {
        out.attempted += p.answers.len() as u64;
        out.failed += p.failed;
        out.failed += p
            .answers
            .iter()
            .zip(&first.answers)
            .filter(|(a, b)| a != b)
            .count() as u64;
        if p.fingerprints != first.fingerprints {
            out.failed += p.answers.len() as u64;
        }
    }
    let admitted = first.answers.iter().filter(|a| a.admit).count();
    out.expect(admitted > 0, "no query was admitted".to_string());
    out.expect(
        admitted < first.answers.len(),
        "no query was denied".to_string(),
    );

    let mut latencies = stats::per_op_min(passes.iter().map(|p| &p.latencies_us[..]));
    stats::sort(&mut latencies);
    let serve_s: f64 = latencies.iter().sum::<f64>() * 1e-6;
    let per_tick: Vec<f64> = latencies.iter().map(|l| l / HORIZON_TICKS as f64).collect();
    let nodes = f64::from(ClusterSpec::tianhe_1a_variant().total_nodes());
    let query_tail = stats::tail(&latencies, 99.0);
    let tick_tail = stats::tail(&per_tick, 99.0);
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let n = first.answers.len() as f64;
    // Performance(cap) of every job that finished in some projection.
    let jobs: usize = first.answers.iter().map(|a| a.jobs_finished).sum();
    let job_perf = first
        .answers
        .iter()
        .map(|a| a.performance * a.jobs_finished as f64)
        .sum::<f64>()
        / jobs.max(1) as f64;
    let peak_power_frac = first
        .answers
        .iter()
        .map(|a| a.peak_power_w / a.provision_w)
        .sum::<f64>()
        / n;
    out.set("setup_s", stats::median_of(&setups));
    out.set(
        "node_ticks_per_s",
        nodes * HORIZON_TICKS as f64 * latencies.len() as f64 / serve_s,
    );
    // A projected tick: query latency spread over its horizon.
    out.set("tick_p50_us", stats::median(&per_tick).value);
    out.set("tick_p99_us", tick_tail.value);
    out.set("queries_per_s", latencies.len() as f64 / serve_s);
    out.set("query_p50_us", stats::median(&latencies).value);
    out.set("query_p99_us", query_tail.value);
    out.set("job_perf", job_perf);
    out.set("peak_power_frac", peak_power_frac);

    let pass_p50_us: Vec<f64> = passes
        .iter()
        .map(|p| stats::median_of(&p.latencies_us))
        .collect();
    if tracer.enabled() {
        out.set("whatif.capture_us", sums.capture_us);
        out.set("whatif.branch_us", stats::mean(&sums.branch_us));
        let mut evaluate_all = Vec::new();
        for (i, name) in EVALUATE_METRICS.iter().enumerate() {
            let v = sums.evaluate_us.get(&i).map_or(&[][..], Vec::as_slice);
            out.set(name, stats::mean(v));
            evaluate_all.extend_from_slice(v);
        }
        out.set(
            "whatif.engine_overhead_us",
            stats::mean(&sums.latency_us)
                - stats::mean(&sums.branch_us)
                - stats::mean(&evaluate_all),
        );
        out.set(
            "trace.overhead_frac",
            stats::trace_overhead(&pass_p50_us, 1),
        );
    }
    let overspend = first.answers.iter().map(|a| a.overspend_w_s).sum::<f64>() / n;
    let red = first.answers.iter().map(|a| a.red_secs).sum::<f64>() / (n * HORIZON_TICKS as f64);
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
            "bases": BASES,
            "queries": latencies.len(),
            "query_tail_pct": query_tail.pct,
            "tick_tail_pct": tick_tail.pct,
            "setups": setups.len(),
        }),
    );
    out.note(
        "simulated",
        serde_json::json!({
            "job_perf": job_perf,
            "jobs_finished": jobs,
            "peak_power_frac": peak_power_frac,
            "overspend_w_s": overspend,
            "red_cycle_frac": red,
            "admitted": admitted,
            "denied": first.answers.len() - admitted,
        }),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_a_byte_identical_query_stream() {
        let a = query_stream(9, 500, 40_000.0);
        let b = query_stream(9, 500, 40_000.0);
        assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
        assert_ne!(a, query_stream(10, 500, 40_000.0));
        // The mix draws every kind.
        for kind in KINDS {
            assert!(a.iter().any(|r| r.query.kind() == kind), "{kind} missing");
        }
    }
}
