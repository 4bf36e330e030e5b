//! The trace-fed fleets under the hierarchical control plane:
//! `fleet100k_busy` (102 400 nodes, lazy incremental regime) and
//! `faulted10k` (10 240 nodes with a fault mix, dense regime).
//!
//! A run repeats *passes*: each builds the sim from the same generated
//! inputs, warms it up, and steps a fixed measured window. Pass 1 gives
//! the simulated results; every later pass must reproduce its digest,
//! which is the run's determinism check (a run of one full pass adds a
//! short check pass for it). In a traced run the second pass
//! records spans and probes, and paired copies measure the `Full`
//! evaluator, the health plane and the pool width against it.

use crate::arrivals::arrival_trace;
use crate::checks::{budgets_conserve, digest, red_violations, Digest};
use crate::host;
use crate::layers::{self, PROFILED_STAGES};
use crate::report::Outcome;
use crate::spans::{SpanId, Tracer};
use crate::speed::SpeedLog;
use crate::stats;
use ppc_cluster::{ClusterSim, ClusterSpec, EvalMode};
use ppc_core::{HierarchicalManager, ManagerConfig, PolicyKind, Topology};
use ppc_faults::{FaultEngine, FaultInjection, FaultRates, FaultSchedule};
use ppc_metrics::RunMetrics;
use ppc_node::{Level, NodeId};
use ppc_simkit::{RngFactory, SimDuration, SimTime, WorkerPool};
use ppc_telemetry::Collector;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Rack and row shape of the hierarchy (the paper's 128-node rack).
const NODES_PER_RACK: u32 = 128;
const RACKS_PER_ROW: u32 = 16;

/// A traced pass keeps the inputs of one tick in this many for probes.
const PROBE_EVERY: u64 = 25;

/// Window ticks of the short pass that checks, in a run of one full
/// pass, that the seed reproduces.
const CHECK_TICKS: u64 = 50;

/// Ticks after a node's last fault during which a Red sweep may still
/// miss it: the 5 s staleness limit plus the 1-2-4 cycle retry backoff.
const FAULT_GRACE_TICKS: u64 = 12;

/// CPLJ tolerance the paper protocol uses (`ExperimentConfig::paper`).
const LOSSLESS_TOLERANCE: f64 = 0.01;

/// One trace-fed fleet workload.
pub struct FleetShape {
    /// Workload name.
    pub name: &'static str,
    /// Fleet size.
    pub nodes: u32,
    /// Poisson arrival rate, jobs per simulated second.
    pub rate_per_s: f64,
    /// Ticks stepped before measuring (part of set-up).
    pub warmup_ticks: u64,
    /// Ticks measured per pass: at least 1 000, so p99 of the per-tick
    /// minima has ten samples beyond it.
    pub measured_ticks: u64,
    /// Fault mix, if any.
    pub faults: Option<FaultRates>,
    /// Allowed mean utilization over the measured window.
    pub util_band: (f64, f64),
    /// Ticks of each paired measurement in a traced run.
    pub paired_ticks: u64,
    /// Wall seconds of one pass on a 2-CPU host (sets the pass
    /// count for `--seconds`).
    pub pass_seconds: f64,
    /// Fewest full passes: each tick's time is its minimum over them.
    /// With one, a short check pass repeats the set-up and the first
    /// [`CHECK_TICKS`] window ticks, which must reproduce.
    pub min_passes: usize,
}

/// 102 400 nodes, 800 racks in 50 rows, no faults. 40 jobs/s fills an
/// empty fleet to about half busy in 400 ticks and to about 60% by the
/// end of the window.
pub const FLEET100K_BUSY: FleetShape = FleetShape {
    name: "fleet100k_busy",
    nodes: 102_400,
    rate_per_s: 40.0,
    warmup_ticks: 400,
    measured_ticks: 1_000,
    faults: None,
    util_band: (0.5, 0.9),
    paired_ticks: 60,
    pass_seconds: 30.0,
    min_passes: 1,
};

/// 10 240 nodes, 80 racks, the same arrivals scaled to 4 jobs/s, and a
/// mix of crashes, hangs, agent silences and subtree partitions.
pub const FAULTED10K: FleetShape = FleetShape {
    name: "faulted10k",
    nodes: 10_240,
    rate_per_s: 4.0,
    warmup_ticks: 600,
    measured_ticks: 1_000,
    faults: Some(FaultRates {
        crash_per_node_hour: 0.05,
        reboot_mean_secs: 120.0,
        hang_per_node_hour: 0.2,
        hang_mean_secs: 120.0,
        silence_per_node_hour: 0.5,
        silence_mean_secs: 60.0,
        partition_per_hour: 20.0,
        partition_mean_secs: 60.0,
        partition_width: 16,
    }),
    util_band: (0.4, 0.9),
    paired_ticks: 200,
    pass_seconds: 3.7,
    min_passes: 4,
};

/// Inputs the benchmark generates for the program, once per run.
struct Inputs {
    spec: ClusterSpec,
    schedule: Option<FaultSchedule>,
}

impl FleetShape {
    fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(self.warmup_ticks + self.measured_ticks + 1)
    }

    fn inputs(&self, seed: u64) -> Inputs {
        let mut spec = ClusterSpec::tianhe_1a_variant();
        spec.node_count = self.nodes;
        spec.seed = seed;
        spec.job_trace = Some(arrival_trace(seed, &spec, self.rate_per_s, self.horizon()));
        let schedule = self.faults.as_ref().map(|rates| {
            FaultSchedule::generate(rates, self.nodes, self.horizon(), &RngFactory::new(seed))
        });
        Inputs { spec, schedule }
    }
}

/// Constructs the sim and attaches controller, faults and pool; returns it
/// with the construction time.
fn build(inputs: &Inputs, pool: &Arc<WorkerPool>) -> (ClusterSim, f64) {
    let spec = inputs.spec.clone();
    let t = Instant::now();
    let topology = Topology::new(spec.total_nodes(), NODES_PER_RACK, RACKS_PER_ROW)
        .expect("fleet size is a whole number of racks");
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let hierarchy =
        HierarchicalManager::new(config, topology, &BTreeSet::new(), spec.node_weights_w())
            .expect("valid hierarchy");
    let mut sim = ClusterSim::new(spec).with_hierarchy(hierarchy);
    if let Some(schedule) = &inputs.schedule {
        sim = sim.with_faults(FaultInjection::new(schedule.clone()));
    }
    let build_s = t.elapsed().as_secs_f64();
    (sim.with_worker_pool(Arc::clone(pool)), build_s)
}

/// The four simulated results over a measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimResults {
    job_perf: f64,
    peak_power_frac: f64,
    overspend: f64,
    red_cycle_frac: f64,
}

/// Counters read from the sim's public accessors at a tick boundary.
#[derive(Debug, Clone, Copy)]
struct Counters {
    cycles: u64,
    yellow: u64,
    red: u64,
    issued: u64,
    applied: u64,
    finished: usize,
    journal_events: u64,
    journal_dropped: u64,
}

impl Counters {
    fn read(sim: &ClusterSim) -> Self {
        let stats = sim.control_stats().unwrap_or_default();
        Counters {
            cycles: stats.cycles,
            yellow: stats.yellow_cycles,
            red: stats.red_cycles,
            issued: stats.commands_issued,
            applied: sim.commands_applied(),
            finished: sim.finished().len(),
            journal_events: sim.journal().len() as u64 + sim.journal().dropped(),
            journal_dropped: sim.journal().dropped(),
        }
    }
}

/// Per-layer sums over a traced window.
#[derive(Debug, Default)]
struct LayerSums {
    step_s: f64,
    stage_s: [f64; 3],
    dirty: u64,
    ingest_ns: Vec<f64>,
    delegate_us: Vec<f64>,
    health_us: Vec<f64>,
    advance_us: Vec<f64>,
}

/// One pass: set-up, measured window, digest.
struct Pass {
    /// Set-up in reference seconds (see `speed`).
    setup_s: f64,
    /// Set-up wall time, s.
    wall_setup_s: f64,
    build_s: f64,
    /// Each window tick in reference µs.
    ticks_us: Vec<f64>,
    /// Median window tick wall time, µs.
    wall_p50_us: f64,
    failed: u64,
    digest: Digest,
    /// The digest after the first [`CHECK_TICKS`] window ticks.
    check_digest: Option<Digest>,
    results: SimResults,
    util_mean: f64,
    requeued: u64,
    commands_failed: u64,
    start: Counters,
    end: Counters,
    metrics_compute_us: f64,
}

/// Which nodes the Red check must skip: those a fault touched recently.
struct FaultMemory {
    last_faulty_tick: Vec<u64>,
}

impl FaultMemory {
    fn observe(&mut self, engine: &FaultEngine, tick: u64) {
        for (i, last) in self.last_faulty_tick.iter_mut().enumerate() {
            let n = NodeId(i as u32);
            if engine.is_down(n) || engine.is_hung(n) || engine.is_silent(n) {
                *last = tick;
            }
        }
    }

    fn exempt(&self, n: NodeId, tick: u64) -> bool {
        let last = self.last_faulty_tick[n.0 as usize];
        last > 0 && tick - last <= FAULT_GRACE_TICKS
    }
}

/// Everything a traced pass adds.
struct TraceCtx<'a> {
    tracer: &'a mut Tracer,
    out: &'a mut Outcome,
}

fn run_pass(
    shape: &FleetShape,
    inputs: &Inputs,
    pool: &Arc<WorkerPool>,
    window_ticks: u64,
    speed: &mut SpeedLog,
    mut trace: Option<TraceCtx<'_>>,
) -> Pass {
    let pass_span = trace.as_mut().and_then(|t| t.tracer.open("pass", None));
    let setup_mark = speed.mark();
    let setup_t = Instant::now();
    let setup_span = trace
        .as_mut()
        .and_then(|t| t.tracer.open("setup", pass_span));
    let (mut sim, build_s) = build(inputs, pool);
    if let Some(t) = trace.as_mut() {
        t.tracer.record(
            "cluster.build",
            setup_span,
            setup_t,
            setup_t + std::time::Duration::from_secs_f64(build_s),
        );
    }
    let mut memory = inputs.schedule.as_ref().map(|_| FaultMemory {
        last_faulty_tick: vec![0; shape.nodes as usize],
    });
    for _ in 0..shape.warmup_ticks {
        sim.step();
        // Only faults in the grace period before the window matter.
        let tick = sim.tick_index();
        if let (Some(m), Some(engine)) = (memory.as_mut(), sim.fault_engine()) {
            if tick + FAULT_GRACE_TICKS >= shape.warmup_ticks {
                m.observe(engine, tick);
            }
        }
    }
    if let Some(t) = trace.as_mut() {
        t.tracer.close(setup_span);
    }
    let setup_s = setup_t.elapsed().as_secs_f64();

    // A traced pass keeps the window to timers and spans: it copies the
    // sim and a few ticks' power columns, and runs the paired copies and
    // the layer probes on them after the window.
    let window_start = trace.as_ref().map(|_| sim.clone());
    let window_span = trace
        .as_mut()
        .and_then(|t| t.tracer.open("window", pass_span));
    let t0 = sim.now();
    let start = Counters::read(&sim);
    let mut sums = LayerSums::default();
    let mut saved: Vec<SavedTick> = Vec::new();
    let mut ticks_us = Vec::with_capacity(window_ticks as usize);
    let mut marks = Vec::with_capacity(window_ticks as usize);
    let mut check_digest = None;
    let mut util_sum = 0.0;
    let mut failed = 0u64;
    for i in 0..window_ticks {
        marks.push(speed.mark());
        let stages0 = trace.as_ref().map(|_| layers::stage_totals(&sim));
        let s = Instant::now();
        sim.step();
        let e = Instant::now();
        let step_s = (e - s).as_secs_f64();
        ticks_us.push(step_s * 1e6);
        util_sum += sim.utilization();

        let tick = sim.tick_index();
        if let (Some(m), Some(engine)) = (memory.as_mut(), sim.fault_engine()) {
            m.observe(engine, tick);
        }
        let red_bad = red_violations(&sim, |n| memory.as_ref().is_some_and(|m| m.exempt(n, tick)));
        if !budgets_conserve(&sim) || red_bad > 0 {
            failed += 1;
        }
        if i + 1 == CHECK_TICKS {
            check_digest = Some(digest(&sim));
        }

        if let (Some(t), Some(stages0)) = (trace.as_mut(), stages0) {
            let tick_span = t.tracer.record("tick", window_span, s, e);
            let stages1 = layers::stage_totals(&sim);
            for (i, (_, span_name)) in PROFILED_STAGES.iter().enumerate() {
                let d = stages1[i] - stages0[i];
                sums.stage_s[i] += d;
                t.tracer.record_derived(span_name, tick_span, d);
            }
            sums.step_s += step_s;
            sums.dirty += sim.columns().dirty.indices().len() as u64;
            if tick % PROBE_EVERY == 0 {
                saved.push(SavedTick {
                    at: sim.now(),
                    power_w: sim.columns().power_w().to_vec(),
                    levels: sim.node_levels(),
                });
            }
        }
    }
    if let Some(t) = trace.as_mut() {
        t.tracer.close(window_span);
    }
    // A reading after the window gives its last ticks their neighbours.
    speed.read();
    let wall_p50_us = stats::median_of(&ticks_us);
    for (t, &mark) in ticks_us.iter_mut().zip(&marks) {
        *t *= speed.scale(mark);
    }
    let end = Counters::read(&sim);

    let provision_w = sim.spec().provision_w();
    let window = sim.true_power().since(t0);
    let records = &sim.finished()[start.finished..];
    let ms = Instant::now();
    let metrics = RunMetrics::compute(
        shape.name,
        &window,
        records,
        provision_w,
        LOSSLESS_TOLERANCE,
    );
    let me = Instant::now();
    let cycles = (end.cycles - start.cycles).max(1) as f64;
    let results = SimResults {
        job_perf: metrics.performance,
        peak_power_frac: metrics.p_max_w / provision_w,
        overspend: metrics.overspend,
        red_cycle_frac: (end.red - start.red) as f64 / cycles,
    };
    let pass = Pass {
        setup_s: setup_s * speed.scale(setup_mark),
        wall_setup_s: setup_s,
        build_s,
        ticks_us,
        wall_p50_us,
        failed,
        digest: digest(&sim),
        check_digest,
        results,
        util_mean: util_sum / window_ticks as f64,
        requeued: sim.jobs_requeued(),
        commands_failed: sim.commands_failed(),
        start,
        end,
        metrics_compute_us: (me - ms).as_secs_f64() * 1e6,
    };
    if let (Some(t), Some(window_start)) = (trace.as_mut(), window_start) {
        t.tracer.record("metrics.compute", pass_span, ms, me);
        probe_saved_ticks(&sim, &saved, &mut sums, t.tracer, pass_span);
        if let Some(schedule) = &inputs.schedule {
            sums.advance_us = shadow_advance(schedule, shape, t0, t.tracer, pass_span);
        }
        finish_traced_pass(shape, inputs, &sim, &pass, &sums, t);
        drop(sim);
        paired_runs(shape, inputs, pool, &window_start, t);
        t.tracer.close(pass_span);
    }
    pass
}

/// A traced tick's inputs, kept for the probes after the window.
struct SavedTick {
    at: SimTime,
    power_w: Vec<f64>,
    levels: Vec<Level>,
}

/// Feeds the saved ticks, in order, to a collector, to a copy of the
/// hierarchy's delegation, and to a copy of the health plane.
fn probe_saved_ticks(
    sim: &ClusterSim,
    saved: &[SavedTick],
    sums: &mut LayerSums,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) {
    let mut collector = Collector::new();
    let mut hierarchy = sim.hierarchy().filter(|h| !h.is_single_rack()).cloned();
    let mut health = sim.health().clone();
    for tick in saved {
        let s = Instant::now();
        sums.ingest_ns.push(layers::ingest_ns_per_node(
            &mut collector,
            tick.at,
            &tick.power_w,
            &tick.levels,
        ));
        tracer.record("telemetry.ingest_batch", parent, s, Instant::now());
        if let Some(h) = hierarchy.as_mut() {
            let s = Instant::now();
            sums.delegate_us.push(layers::delegate_us(h, &tick.power_w));
            tracer.record("core.delegate", parent, s, Instant::now());
        }
        let s = Instant::now();
        sums.health_us
            .push(layers::health_node_power_us(&mut health, &tick.power_w));
        tracer.record("obs.observe_node_power", parent, s, Instant::now());
    }
}

/// A shadow fault engine replaying the schedule from the window start,
/// advanced once per tick as the sim advances its own: µs per call.
fn shadow_advance(
    schedule: &FaultSchedule,
    shape: &FleetShape,
    t0: SimTime,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Vec<f64> {
    let mut engine = FaultEngine::new(schedule, shape.nodes);
    engine.advance(t0);
    (1..=shape.measured_ticks)
        .map(|i| {
            let now = t0 + SimDuration::from_secs(i);
            let s = Instant::now();
            std::hint::black_box(engine.advance(now));
            let e = Instant::now();
            tracer.record("faults.advance", parent, s, e);
            (e - s).as_secs_f64() * 1e6
        })
        .collect()
}

/// Paired copies from the start of the traced window, each against a
/// plain copy: a `Full`-evaluation sim, the health plane off, and a
/// one-worker pool.
fn paired_runs(
    shape: &FleetShape,
    inputs: &Inputs,
    pool: &Arc<WorkerPool>,
    sim: &ClusterSim,
    t: &mut TraceCtx<'_>,
) {
    let ticks = shape.paired_ticks;
    let s = Instant::now();
    // Switching a running sim to `Full` is not equivalent under faults:
    // the dense copy is built in that mode and warmed up like the sim.
    let mut dense = build(inputs, pool).0.with_eval_mode(EvalMode::Full);
    for _ in 0..shape.warmup_ticks {
        dense.step();
    }
    let full = layers::paired(sim.clone(), dense, ticks);
    t.tracer.record("paired.full", None, s, Instant::now());
    let s = Instant::now();
    let health_off = layers::paired(sim.clone(), layers::without_health(sim), ticks);
    t.tracer
        .record("paired.health_off", None, s, Instant::now());
    let s = Instant::now();
    let serial = layers::paired(
        sim.clone(),
        sim.clone().with_worker_pool(layers::serial_pool()),
        ticks,
    );
    t.tracer.record("paired.width1", None, s, Instant::now());

    let mismatches = u64::from(full.digests.0 != full.digests.1)
        + u64::from(serial.digests.0 != serial.digests.1);
    t.out.failed += mismatches * ticks;
    t.out.attempted += 2 * ticks;
    t.out
        .set("cluster.incremental_speedup", full.variant_s / full.base_s);
    t.out.set(
        "obs.health_overhead_frac",
        health_off.base_s / health_off.variant_s - 1.0,
    );
    t.out
        .set("simkit.pool_speedup", serial.variant_s / serial.base_s);
    t.out.note(
        "paired",
        serde_json::json!({
            "ticks": ticks,
            "full_s": full.variant_s, "incremental_s": full.base_s,
            "health_off_s": health_off.variant_s, "health_on_s": health_off.base_s,
            "width1_s": serial.variant_s, "width_n_s": serial.base_s,
            "full_matches_incremental": full.digests.0 == full.digests.1,
            "width1_matches_width_n": serial.digests.0 == serial.digests.1,
        }),
    );
}

/// Per-layer metrics of the traced pass.
fn finish_traced_pass(
    shape: &FleetShape,
    inputs: &Inputs,
    sim: &ClusterSim,
    pass: &Pass,
    sums: &LayerSums,
    t: &mut TraceCtx<'_>,
) {
    let ticks = shape.measured_ticks as f64;
    let (start, end) = (pass.start, pass.end);
    let out = &mut *t.out;
    out.set("cluster.step_us", sums.step_s / ticks * 1e6);
    out.set(
        "cluster.untimed_frac",
        1.0 - sums.stage_s.iter().sum::<f64>() / sums.step_s,
    );
    out.set("cluster.dirty_nodes_per_tick", sums.dirty as f64 / ticks);
    out.set("cluster.build_s", pass.build_s);
    out.set("telemetry.sample_us", sums.stage_s[0] / ticks * 1e6);
    out.set("core.control_us", sums.stage_s[1] / ticks * 1e6);
    out.set("core.actuate_us", sums.stage_s[2] / ticks * 1e6);
    out.set("telemetry.ingest_ns_per_node", stats::mean(&sums.ingest_ns));
    out.set("core.delegate_us", stats::mean(&sums.delegate_us));
    out.set("obs.health_node_power_us", stats::mean(&sums.health_us));
    out.set("faults.advance_us", stats::mean(&sums.advance_us));
    let issued = end.issued - start.issued;
    let applied = end.applied - start.applied;
    out.set("core.commands_per_tick", issued as f64 / ticks);
    out.set("core.commands_issued", issued as f64);
    out.set("core.commands_applied", applied as f64);
    out.set(
        "core.command_success_ratio",
        applied as f64 / issued.max(1) as f64,
    );
    let cycles = (end.cycles - start.cycles).max(1) as f64;
    out.set(
        "core.yellow_cycle_frac",
        (end.yellow - start.yellow) as f64 / cycles,
    );
    out.set("core.red_cycle_frac", pass.results.red_cycle_frac);
    out.set("workload.utilization", pass.util_mean);
    out.set(
        "workload.jobs_finished_per_tick",
        (end.finished - start.finished) as f64 / ticks,
    );
    let trace = inputs.spec.job_trace.as_deref().unwrap_or_default();
    let s = Instant::now();
    let due = layers::due_jobs_us_per_job(
        trace,
        inputs.spec.seed,
        inputs.spec.tick,
        shape.warmup_ticks + shape.measured_ticks,
    );
    t.tracer
        .record("workload.due_jobs", None, s, Instant::now());
    out.set("workload.due_jobs_us_per_job", due);
    let s = Instant::now();
    out.set(
        "node.run_interval_ns",
        layers::run_interval_ns(sim, 200_000),
    );
    t.tracer
        .record("node.run_interval", None, s, Instant::now());
    out.set("faults.jobs_requeued", pass.requeued as f64);
    out.set("faults.commands_failed", pass.commands_failed as f64);
    out.set(
        "simkit.journal_events_per_tick",
        (end.journal_events - start.journal_events) as f64 / ticks,
    );
    out.set(
        "simkit.journal_dropped",
        (end.journal_dropped - start.journal_dropped) as f64,
    );
    out.set("metrics.compute_us", pass.metrics_compute_us);
    out.set("metrics.overspend", pass.results.overspend);
    out.note(
        "command_bases",
        serde_json::json!({ "issued": issued, "applied": applied }),
    );
}

/// Runs the workload: as many passes as take about `seconds` here.
pub fn run(shape: &FleetShape, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let inputs = shape.inputs(seed);
    let pool = host::pool();
    let mut speed = SpeedLog::new();
    let mut out = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_cpus = Vec::new();
    // A traced run compares its traced pass with an untraced one.
    let full_passes = stats::passes_for(seconds, shape.pass_seconds, shape.min_passes)
        .max(if tracer.enabled() { 2 } else { 1 });
    for i in 0..full_passes {
        pass_cpus.push(host::pin_to_fastest_cpus());
        let traced = tracer.enabled() && i == 1;
        let ctx = traced.then_some(TraceCtx {
            tracer: &mut *tracer,
            out: &mut out,
        });
        let ticks = shape.measured_ticks;
        passes.push(run_pass(shape, &inputs, &pool, ticks, &mut speed, ctx));
    }
    let check = (full_passes == 1).then(|| {
        pass_cpus.push(host::pin_to_fastest_cpus());
        run_pass(shape, &inputs, &pool, CHECK_TICKS, &mut speed, None)
    });

    let first = &passes[0];
    for p in &passes {
        out.attempted += shape.measured_ticks;
        out.failed += p.failed;
        if p.digest != first.digest || p.results != first.results {
            out.failed += shape.measured_ticks;
        }
    }
    if let Some(c) = &check {
        out.attempted += CHECK_TICKS;
        out.failed += c.failed;
        if first.check_digest.as_ref() != Some(&c.digest) {
            out.failed += CHECK_TICKS;
        }
    }
    let (lo, hi) = shape.util_band;
    out.expect(
        (lo..=hi).contains(&first.util_mean),
        format!(
            "mean utilization {:.3} outside [{lo}, {hi}]",
            first.util_mean
        ),
    );
    if shape.faults.is_some() {
        out.expect(first.requeued >= 1, "no job was requeued".to_string());
        out.expect(first.commands_failed >= 1, "no command failed".to_string());
    }

    let mut ticks = stats::per_op_min(passes.iter().map(|p| &p.ticks_us[..]));
    stats::sort(&mut ticks);
    let step_s: f64 = ticks.iter().sum::<f64>() * 1e-6;
    let p50 = stats::median(&ticks);
    let tail = stats::tail(&ticks, 99.0);
    let setups: Vec<f64> = passes.iter().chain(&check).map(|p| p.setup_s).collect();
    out.set("setup_s", stats::median_of(&setups));
    out.set(
        "node_ticks_per_s",
        f64::from(shape.nodes) * ticks.len() as f64 / step_s,
    );
    out.set("tick_p50_us", p50.value);
    out.set("tick_p99_us", tail.value);
    // The fleet's unit operation is the tick.
    out.set("queries_per_s", ticks.len() as f64 / step_s);
    out.set("query_p50_us", p50.value);
    out.set("query_p99_us", tail.value);
    out.set("job_perf", first.results.job_perf);
    out.set("peak_power_frac", first.results.peak_power_frac);

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
    let wall_setups: Vec<f64> = passes
        .iter()
        .chain(&check)
        .map(|p| p.wall_setup_s)
        .collect();
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
            "check_pass_ticks": check.as_ref().map(|_| CHECK_TICKS),
            "pass_p50_us": pass_p50_us,
            "pass_cpus": pass_cpus,
            "ticks": ticks.len(),
            "tick_tail_pct": tail.pct,
            "setups": setups.len(),
        }),
    );
    out.note(
        "simulated",
        serde_json::json!({
            "job_perf": first.results.job_perf,
            "peak_power_frac": first.results.peak_power_frac,
            "overspend": first.results.overspend,
            "red_cycle_frac": first.results.red_cycle_frac,
            "utilization": first.util_mean,
            "jobs_requeued": first.requeued,
            "commands_failed": first.commands_failed,
        }),
    );
    out
}
