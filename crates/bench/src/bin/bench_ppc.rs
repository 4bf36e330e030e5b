//! BENCH_ppc.json emitter — the repo's wall-clock regression record.
//!
//! Runs one fixed macro workload (the paper-scale 128-node cluster,
//! 1 simulated hour, MPC-managed) plus the hot-path micro measurements
//! that the criterion suite tracks, plus a node-count scaling sweep, and
//! writes the results to `BENCH_ppc.json` in the current directory:
//!
//! ```text
//! cargo run --release -p ppc-bench --bin bench_ppc
//! git diff BENCH_ppc.json   # compare against the committed baseline
//! ```
//!
//! Flags:
//!
//! * `--nodes 128,1024,10240` — node counts for the scaling sweep;
//! * `--smoke` — CI mode: skip the hour macro and the sweep, run the
//!   headline micros with fewer batches, print JSON to stdout and do
//!   **not** overwrite `BENCH_ppc.json` (the CI perf guard compares the
//!   stdout medians against the committed baseline);
//! * `--faulted-only` — measure only the `scaling_faulted` row (the
//!   10 240-node, 80-rack tick under a fixed fault mix) and merge it into
//!   the existing `BENCH_ppc.json`, leaving every other section as it is.
//!   The row is reported, never guarded.
//!
//! Micro numbers are medians over repeated sample batches (robust to the
//! occasional scheduler hiccup); the macro number is a single wall-clock
//! run, which is what an experiment sweep actually pays.

use ppc_cluster::{ClusterSim, ClusterSpec};
use ppc_core::{HierarchicalManager, ManagerConfig, NodeSets, PolicyKind, PowerManager, Topology};
use ppc_faults::{FaultInjection, FaultRates, FaultSchedule};
use ppc_node::{Level, NodeId, OperatingState};
use ppc_obs::StageProfiler;
use ppc_simkit::{RngFactory, SimDuration, SimTime};
use ppc_telemetry::{Collector, NodeSample};
use std::collections::BTreeSet;
use std::time::Instant;

/// Hierarchical sweep shape: the paper-scale rack of 128 nodes, 16 racks
/// to a row — 1024 nodes = 8 racks, 102 400 nodes = 800 racks / 50 rows.
const HIER_NODES_PER_RACK: u32 = 128;
const HIER_RACKS_PER_ROW: u32 = 16;

/// Median of a sample set, in place.
fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median per-iteration microseconds over `batches` batches of `iters`
/// calls to `f`.
fn median_us(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / iters as f64 * 1e6);
    }
    median(&mut samples)
}

fn sim(managed: bool) -> ClusterSim {
    let spec = ClusterSpec::tianhe_1a_variant();
    if managed {
        let sets = NodeSets::new(spec.node_ids(), []);
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let manager = PowerManager::new(config, sets).expect("valid config");
        ClusterSim::new(spec).with_manager(manager)
    } else {
        ClusterSim::new(spec)
    }
}

/// A saturated cluster at `nodes` nodes: zero think time and a queue
/// depth that scales with the fleet, so the sweep measures busy ticks,
/// not an idle calendar.
fn scaling_sim(nodes: u32, managed: bool) -> ClusterSim {
    let mut spec = ClusterSpec::tianhe_1a_variant();
    spec.node_count = nodes;
    spec.think_time_mean = SimDuration::ZERO;
    spec.queue_depth = (nodes / 64).max(1) as usize;
    if managed {
        let sets = NodeSets::new(spec.node_ids(), []);
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let manager = PowerManager::new(config, sets).expect("valid config");
        ClusterSim::new(spec).with_manager(manager)
    } else {
        ClusterSim::new(spec)
    }
}

/// A saturated cluster under the *hierarchical* control plane at the
/// sweep shape above.
fn hier_scaling_sim(nodes: u32) -> ClusterSim {
    let mut spec = ClusterSpec::tianhe_1a_variant();
    spec.node_count = nodes;
    spec.think_time_mean = SimDuration::ZERO;
    spec.queue_depth = (nodes / 64).max(1) as usize;
    let topology =
        Topology::new(nodes, HIER_NODES_PER_RACK, HIER_RACKS_PER_ROW).expect("valid topology");
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let hier = HierarchicalManager::new(config, topology, &BTreeSet::new(), spec.node_weights_w())
        .expect("valid hierarchy");
    ClusterSim::new(spec).with_hierarchy(hier)
}

/// Mean microseconds per `StageProfiler` stage over the steps since the
/// profiler was last reset, by stage name.
fn stages_us(sim: &ClusterSim) -> serde_json::Value {
    serde_json::Value::Object(
        sim.obs()
            .profile
            .report()
            .iter()
            .map(|c| (c.stage.to_string(), serde_json::json!(c.mean_secs * 1e6)))
            .collect(),
    )
}

/// Warms `sim` up for `warm_secs` simulated seconds, then returns the
/// median per-step microseconds over `batches` × `iters` steps, the mean
/// cost of each stage over those steps, and the evaluation regime that
/// drove them.
fn measure_steps(
    sim: &mut ClusterSim,
    warm_secs: u64,
    batches: usize,
    iters: usize,
) -> (f64, serde_json::Value, String) {
    sim.run_for(SimDuration::from_secs(warm_secs));
    sim.obs_mut().profile = StageProfiler::new();
    let step_us = median_us(batches, iters, || sim.step());
    (step_us, stages_us(sim), format!("{:?}", sim.eval_mode()))
}

/// CPUs available to this process (the host context every scaling row
/// carries, so rows from different machines are never compared blind).
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The faulted scaling row: 10 240 nodes in 80 racks of 128 under a fixed
/// fault mix (crashes, hangs, silences and 16-node partitions, seed 7).
/// Faults keep the lazy control regime: sampling, ingest and observation
/// touch only the nodes that changed, and the fresh-candidate mask and
/// per-rack coverage counts follow fault edges. `stages_us` is the mean
/// cost of each `StageProfiler` stage over the measured steps, and
/// `eval_mode` the regime that drove them.
fn scaling_faulted() -> serde_json::Value {
    const NODES: u32 = 10_240;
    const WARM_SECS: u64 = 60;
    let rates = FaultRates {
        crash_per_node_hour: 0.05,
        reboot_mean_secs: 120.0,
        hang_per_node_hour: 0.2,
        hang_mean_secs: 120.0,
        silence_per_node_hour: 0.5,
        silence_mean_secs: 60.0,
        partition_per_hour: 20.0,
        partition_mean_secs: 60.0,
        partition_width: 16,
    };
    // The horizon covers the warmup and every measured tick.
    let horizon = SimDuration::from_secs(WARM_SECS + 300);
    let schedule = FaultSchedule::generate(&rates, NODES, horizon, &RngFactory::new(7));
    let mut sim = hier_scaling_sim(NODES).with_faults(FaultInjection::new(schedule));
    let (step_us, stages, eval_mode) = measure_steps(&mut sim, WARM_SECS, 5, 10);
    let racks = sim
        .hierarchy()
        .expect("hierarchical sim")
        .topology()
        .racks();
    eprintln!("scaling-faulted: nodes={NODES} racks={racks} mode={eval_mode} step={step_us:.2}us");
    serde_json::json!([{
        "nodes": NODES,
        "racks": racks,
        "nproc": nproc(),
        "eval_mode": eval_mode,
        "sim_step_faulted_us": step_us,
        "stages_us": stages,
    }])
}

fn samples(n: u32, at: u64) -> Vec<NodeSample> {
    (0..n)
        .map(|i| NodeSample {
            node: NodeId(i),
            at: SimTime::from_secs(at),
            state: OperatingState {
                cpu_util: 0.7,
                mem_used_bytes: 8 << 30,
                nic_bytes: 1_000_000,
            },
            level: Level::new(9),
            power_w: 250.0 + i as f64,
        })
        .collect()
}

fn parse_list(s: &str) -> Vec<u32> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.trim().parse().expect("numeric list entry"))
        .collect()
}

fn main() {
    let mut smoke = false;
    let mut faulted_only = false;
    let mut guard: Option<String> = None;
    let mut sweep_nodes: Vec<u32> = vec![128, 1024, 10_240];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--faulted-only" => faulted_only = true,
            "--guard" => guard = Some(args.next().expect("--guard <baseline.json>")),
            "--nodes" => sweep_nodes = parse_list(&args.next().expect("--nodes <csv>")),
            other => {
                panic!(
                    "unknown flag {other} (expected --smoke | --faulted-only | --guard | --nodes)"
                )
            }
        }
    }
    if faulted_only {
        let mut doc: serde_json::Value = std::fs::read_to_string("BENCH_ppc.json")
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .unwrap_or_else(|| serde_json::json!({}));
        let serde_json::Value::Object(entries) = &mut doc else {
            panic!("BENCH_ppc.json is not a JSON object");
        };
        entries.retain(|(k, _)| k != "scaling_faulted");
        entries.push(("scaling_faulted".to_string(), scaling_faulted()));
        let out = serde_json::to_string_pretty(&doc).expect("serializable");
        std::fs::write("BENCH_ppc.json", format!("{out}\n")).expect("write BENCH_ppc.json");
        eprintln!("updated BENCH_ppc.json (scaling_faulted section)");
        return;
    }
    let (batches, iters) = if smoke { (7, 10) } else { (25, 40) };

    // Macro: the paper's unit of work — one simulated hour, managed.
    // Skipped in smoke mode (CI measures only the guarded micros).
    let (managed_hour_secs, finished_jobs) = if smoke {
        (0.0, 0)
    } else {
        let mut hour = sim(true);
        let t = Instant::now();
        hour.run_for(SimDuration::from_mins(60));
        (t.elapsed().as_secs_f64(), hour.finished().len())
    };

    // Micro: per-tick cost on warmed (job-saturated) clusters.
    let mut managed = sim(true);
    managed.run_for(SimDuration::from_mins(10));
    let sim_step_managed_us = median_us(batches, iters, || managed.step());

    let mut unmanaged = sim(false);
    unmanaged.run_for(SimDuration::from_mins(10));
    let sim_step_unmanaged_us = median_us(batches, iters, || unmanaged.step());

    // Micro: collector ingest at the 1024-node scale the roadmap targets.
    let mut collector = Collector::new();
    let mut at = 0u64;
    let collector_ingest_batch_1024_us = median_us(batches, iters, || {
        at += 1;
        collector.ingest_batch(&samples(1024, at));
    });

    // Micro: per-tick cost of the hierarchical control plane at the
    // 1024-node scale (8 racks of 128) — the smallest rung of the Figure 5
    // extension, cheap enough to measure (and guard) even in smoke mode.
    let mut hier = hier_scaling_sim(1024);
    hier.run_for(SimDuration::from_secs(30));
    let sim_step_1024_hier_us = median_us(batches, iters, || hier.step());
    drop(hier);

    // Hierarchical scaling sweep — the Figure 5 extension: per-tick cost
    // at 1k/10k/100k nodes under the per-rack control plane. Sample
    // counts shrink with scale; a 100k-node tick is milliseconds, so even
    // a handful of batches is minutes-stable.
    let mut scaling_hier = Vec::new();
    if !smoke {
        let mut col = Vec::new();
        for &n in &[1024u32, 10_240, 102_400] {
            let (warm_secs, sb, si) = if n >= 100_000 {
                (20, 3, 3)
            } else if n > 4096 {
                (40, 5, 10)
            } else {
                (120, 9, 20)
            };
            let mut h = hier_scaling_sim(n);
            let (hier_us, stages, eval_mode) = measure_steps(&mut h, warm_secs, sb, si);
            let racks = h.hierarchy().expect("hierarchical sim").topology().racks();
            eprintln!("scaling-hier: nodes={n} racks={racks} step={hier_us:.2}us");
            scaling_hier.push(serde_json::json!({
                "nodes": n,
                "nproc": nproc(),
                "racks": racks,
                "eval_mode": eval_mode,
                "sim_step_hier_us": hier_us,
                "stages_us": stages,
            }));
            col.push((n, hier_us));
        }
        // The acceptance shape: each 10× node-count rung should cost well
        // under 10× per tick (the bar is ≤ ~3×).
        for pair in col.windows(2) {
            let (n0, us0) = pair[0];
            let (n1, us1) = pair[1];
            eprintln!(
                "scaling-hier: {n0}->{n1} nodes cost x{:.2} per tick",
                us1 / us0
            );
        }
    }

    // Scaling sweep: managed and unmanaged per-tick cost across node
    // counts. Warmup is shorter at the largest scales; the incremental
    // evaluator's cost tracks the dirty set, not the fleet, so busy
    // steady-state ticks are what matter.
    let mut scaling = Vec::new();
    if !smoke {
        for &n in &sweep_nodes {
            let (warm_secs, sb, si) = if n > 4096 { (60, 5, 10) } else { (120, 9, 20) };
            let mut m = scaling_sim(n, true);
            let (managed_us, stages, eval_mode) = measure_steps(&mut m, warm_secs, sb, si);
            let mut u = scaling_sim(n, false);
            u.run_for(SimDuration::from_secs(warm_secs));
            let unmanaged_us = median_us(sb, si, || u.step());
            eprintln!("scaling: nodes={n} managed={managed_us:.2}us unmanaged={unmanaged_us:.2}us");
            // `eval_mode` and `stages_us` describe the managed steps.
            scaling.push(serde_json::json!({
                "nodes": n,
                "nproc": nproc(),
                "eval_mode": eval_mode,
                "sim_step_managed_us": managed_us,
                "sim_step_unmanaged_us": unmanaged_us,
                "managed_over_unmanaged": managed_us / unmanaged_us,
                "stages_us": stages,
            }));
        }
    }

    let scaling_faulted = if smoke {
        serde_json::json!([])
    } else {
        scaling_faulted()
    };

    // Health-plane overhead on the managed hierarchical 10240-node tick.
    // The rollup is O(racks) per cycle and the fleet node-power sketch
    // samples every NODE_SKETCH_PERIOD ticks, so the honest figure is a
    // *mean* over a tick count spanning whole sampling periods — a
    // median would hide the amortized sample-tick cost entirely.
    // Overhead is a difference of two means, so noise hits it twice;
    // alternate on/off passes (so background phases touch both sims)
    // and keep the best (minimum) mean per config — interference
    // inflates a mean, it never deflates one.
    let health_ticks = 2 * ppc_obs::NODE_SKETCH_PERIOD;
    let mean_step_us = |sim: &mut ClusterSim, ticks: u64| {
        let t = Instant::now();
        for _ in 0..ticks {
            sim.step();
        }
        t.elapsed().as_secs_f64() * 1e6 / ticks as f64
    };
    let mut health_on = hier_scaling_sim(10_240);
    health_on.run_for(SimDuration::from_secs(20));
    let mut health_off = hier_scaling_sim(10_240);
    health_off.set_health_enabled(false);
    health_off.run_for(SimDuration::from_secs(20));
    let mut health_on_us = f64::INFINITY;
    let mut health_off_us = f64::INFINITY;
    for _ in 0..4 {
        health_on_us = health_on_us.min(mean_step_us(&mut health_on, health_ticks));
        health_off_us = health_off_us.min(mean_step_us(&mut health_off, health_ticks));
    }
    drop(health_on);
    drop(health_off);
    let health_overhead_frac = (health_on_us - health_off_us) / health_off_us;
    eprintln!(
        "health-overhead: nodes=10240 on={health_on_us:.2}us off={health_off_us:.2}us \
         overhead={:.2}%",
        health_overhead_frac * 100.0
    );

    let mut report = serde_json::json!({
        "workload": {
            "cluster": "tianhe_1a_variant",
            "nodes": 128,
            "simulated_secs": 3600,
            "policy": "mpc",
        },
        "managed_hour_wall_secs": managed_hour_secs,
        "managed_hour_finished_jobs": finished_jobs,
        "median_us": {
            "sim_step_128_managed": sim_step_managed_us,
            "sim_step_128_unmanaged": sim_step_unmanaged_us,
            "collector_ingest_batch_1024": collector_ingest_batch_1024_us,
            "sim_step_1024_hier": sim_step_1024_hier_us,
        },
        "scaling": scaling,
        "scaling_hier": scaling_hier,
        "scaling_faulted": scaling_faulted,
        "health_overhead": {
            "nodes": 10_240,
            "ticks": health_ticks,
            "mean_on_us": health_on_us,
            "mean_off_us": health_off_us,
            "overhead_frac": health_overhead_frac,
        },
    });
    // Carry the what-if service section (owned by `whatif_serve`) across
    // rewrites so the two emitters can share the one baseline file.
    if let Some(whatif) = std::fs::read_to_string("BENCH_ppc.json")
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .and_then(|doc| doc.get("whatif").cloned())
    {
        if let serde_json::Value::Object(entries) = &mut report {
            entries.push(("whatif".to_string(), whatif));
        }
    }
    let rendered = serde_json::to_string_pretty(&report).expect("serializable");
    println!("{rendered}");
    if !smoke {
        std::fs::write("BENCH_ppc.json", format!("{rendered}\n")).expect("write BENCH_ppc.json");
        eprintln!("wrote BENCH_ppc.json");
    }

    // Perf-regression guard (CI): the managed 128-node step must stay
    // within 25% of the committed baseline. Guards on the best of three
    // medians — a shared CI box is noisy, and the *minimum* median is the
    // least-interference estimate of the code's actual cost; a real
    // regression moves the floor, background load does not.
    if let Some(path) = guard {
        let committed: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
        )
        .expect("parse guard baseline");
        let baseline = committed["median_us"]["sim_step_128_managed"]
            .as_f64()
            .expect("baseline median_us.sim_step_128_managed");
        let best = sim_step_managed_us
            .min(median_us(batches, iters, || managed.step()))
            .min(median_us(batches, iters, || managed.step()));
        let limit = baseline * 1.25;
        eprintln!(
            "perf guard: sim_step_128_managed best-median {best:.2}us vs committed {baseline:.2}us \
             (limit {limit:.2}us)"
        );
        let mut guard_failed = best > limit;
        // Guard the hierarchical step the same way once the committed
        // baseline records it.
        if let Some(hier_baseline) = committed["median_us"]["sim_step_1024_hier"].as_f64() {
            let mut hier = hier_scaling_sim(1024);
            hier.run_for(SimDuration::from_secs(30));
            let hier_best = sim_step_1024_hier_us
                .min(median_us(batches, iters, || hier.step()))
                .min(median_us(batches, iters, || hier.step()));
            let hier_limit = hier_baseline * 1.25;
            eprintln!(
                "perf guard: sim_step_1024_hier best-median {hier_best:.2}us vs committed \
                 {hier_baseline:.2}us (limit {hier_limit:.2}us)"
            );
            if hier_best > hier_limit {
                guard_failed = true;
            }
        }
        // The health plane must stay within its ≤10% overhead budget on
        // the managed 10240-node hierarchical tick (absolute bound, not
        // baseline-relative: the budget is a design acceptance figure).
        eprintln!(
            "perf guard: health overhead {:.2}% on the 10240-node hier tick (limit 10%)",
            health_overhead_frac * 100.0
        );
        if health_overhead_frac > 0.10 {
            eprintln!("perf guard: health plane exceeded its 10% overhead budget");
            guard_failed = true;
        }
        if guard_failed {
            eprintln!("perf guard: FAILED — per-tick step regressed >25% vs {path}");
            std::process::exit(1);
        }
        eprintln!("perf guard: ok");
    }
}
