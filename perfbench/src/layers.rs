//! Per-layer probes: timed calls into one crate's public functions, made
//! by the benchmark on copies of the state a tick really used. None of
//! them feeds back into the simulation being measured.

use crate::checks::{digest, Digest};
use ppc_cluster::ClusterSim;
use ppc_core::HierarchicalManager;
use ppc_node::{Level, Node, NodeId, OperatingState};
use ppc_obs::HealthPlane;
use ppc_simkit::{RngFactory, SimDuration, SimTime, WorkerPool};
use ppc_telemetry::{Collector, NodeSample};
use ppc_workload::{TraceEntry, TraceSource};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The stages the program's own profiler times inside `ClusterSim::step`,
/// in pipeline order, with the span name each becomes in the trace.
pub const PROFILED_STAGES: [(&str, &str); 3] = [
    ("sample", "telemetry.sample"),
    ("control", "core.control"),
    ("actuate", "core.actuate"),
];

/// Cumulative seconds the profiler has charged to each of
/// [`PROFILED_STAGES`] so far.
pub fn stage_totals(sim: &ClusterSim) -> [f64; 3] {
    let mut out = [0.0; 3];
    for cost in sim.obs().profile.report() {
        if let Some(i) = PROFILED_STAGES.iter().position(|(s, _)| *s == cost.stage) {
            out[i] = cost.mean_secs * cost.count as f64;
        }
    }
    out
}

/// Host seconds of one call to `f`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Feeds `collector` one sample per node, built from a tick's power
/// column and levels, and returns the ingest time per node in ns.
pub fn ingest_ns_per_node(
    collector: &mut Collector,
    at: SimTime,
    power_w: &[f64],
    levels: &[Level],
) -> f64 {
    let samples: Vec<NodeSample> = power_w
        .iter()
        .zip(levels)
        .enumerate()
        .map(|(i, (&power_w, &level))| NodeSample {
            node: NodeId(i as u32),
            at,
            state: OperatingState::IDLE,
            level,
            power_w,
        })
        .collect();
    let ((), secs) = time(|| collector.ingest_batch(&samples));
    secs * 1e9 / samples.len().max(1) as f64
}

/// One facility → row → rack delegation pass of `hierarchy`, fed each
/// rack's summed power column, in µs.
pub fn delegate_us(hierarchy: &mut HierarchicalManager, power_w: &[f64]) -> f64 {
    let topo = hierarchy.topology();
    let demand: Vec<f64> = (0..topo.racks())
        .map(|r| {
            let nodes = topo.rack_nodes(r);
            power_w[nodes.start as usize..nodes.end as usize]
                .iter()
                .sum()
        })
        .collect();
    let (outcome, secs) = time(|| hierarchy.delegate(&demand));
    black_box(outcome);
    secs * 1e6
}

/// The health plane's node-power observation, fed a power column, in µs.
pub fn health_node_power_us(plane: &mut HealthPlane, power_w: &[f64]) -> f64 {
    let ((), secs) = time(|| plane.observe_node_power(power_w));
    secs * 1e6
}

/// `Node::run_interval` + `power_w` on a node built from the sim's base
/// node spec, ns per call pair, over `iters` busy intervals.
pub fn run_interval_ns(sim: &ClusterSim, iters: u32) -> f64 {
    let spec = &sim.spec().node_spec;
    let tau = sim.spec().tick.as_secs_f64();
    let mut node = Node::new(NodeId(0), Arc::new(spec.clone()), spec.power_model(tau));
    let busy = OperatingState {
        cpu_util: 0.85,
        mem_used_bytes: 8 << 30,
        nic_bytes: 50_000_000,
    };
    let mut total_w = 0.0;
    let ((), secs) = time(|| {
        for _ in 0..iters {
            node.run_interval(black_box(busy), tau);
            total_w += node.power_w();
        }
    });
    black_box(total_w);
    secs * 1e9 / f64::from(iters)
}

/// `TraceSource::due_jobs` over a copy of the trace, polled once per
/// tick of `ticks` ticks of length `tick`: µs per job released.
pub fn due_jobs_us_per_job(
    entries: &[TraceEntry],
    seed: u64,
    tick: SimDuration,
    ticks: u64,
) -> f64 {
    let mut source = TraceSource::new(entries.to_vec(), RngFactory::new(seed));
    let mut jobs = 0usize;
    let ((), secs) = time(|| {
        for t in 0..ticks {
            let now = SimTime::ZERO + SimDuration::from_millis(t * tick.as_millis());
            jobs += black_box(source.due_jobs(now)).len();
        }
    });
    secs * 1e6 / jobs.max(1) as f64
}

/// A paired measurement: `ticks` steps of `base` against the same steps
/// of `variant`, a sim at the same tick, interleaved tick by tick so
/// drift in the host hits both alike.
pub struct Paired {
    /// Host seconds of the plain copy.
    pub base_s: f64,
    /// Host seconds of the variant.
    pub variant_s: f64,
    /// Both copies' digests afterwards.
    pub digests: (Digest, Digest),
}

/// Runs a [`Paired`] measurement.
pub fn paired(mut base: ClusterSim, mut variant: ClusterSim, ticks: u64) -> Paired {
    let (mut base_s, mut variant_s) = (0.0, 0.0);
    for tick in 0..ticks {
        // Alternate which copy steps first.
        if tick % 2 == 0 {
            base_s += time(|| base.step()).1;
            variant_s += time(|| variant.step()).1;
        } else {
            variant_s += time(|| variant.step()).1;
            base_s += time(|| base.step()).1;
        }
    }
    Paired {
        base_s,
        variant_s,
        digests: (digest(&base), digest(&variant)),
    }
}

/// A copy of `sim` with the health plane off.
pub fn without_health(sim: &ClusterSim) -> ClusterSim {
    let mut copy = sim.clone();
    copy.set_health_enabled(false);
    copy
}

/// A single-worker pool (the `simkit.pool_speedup` baseline).
pub fn serial_pool() -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(1))
}
