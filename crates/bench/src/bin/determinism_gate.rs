//! CI's dynamic replay-determinism gate.
//!
//! The static side (`ppc-lint`) keeps nondeterminism *sources* out of the
//! tree; this binary checks the property those rules protect: a seeded
//! end-to-end simulation — manager, scheduler, telemetry, fault injection
//! — must be bit-identical run to run. It runs the same managed, faulted
//! experiment twice, then compares:
//!
//! * the journal fingerprint (job lifecycle, state flips, commands,
//!   faults — an order-sensitive FNV-1a over every recorded event);
//! * an FNV-1a over the raw bits of the true-power trace;
//! * the control-cycle span-tree fingerprint and the metrics-registry
//!   fingerprint (the observability layer must replay bit-identically
//!   too — a nondeterministic attribute or counter is a trace you
//!   cannot diff);
//! * the three fleet-health fingerprints — rollup tree, quantile
//!   sketches (node power + modeled stage latency), SLO alert journal —
//!   pinning the health plane's sketches and burn-rate evaluation across
//!   repeats, modes and branches;
//! * finished-job and applied-command counts.
//!
//! The same experiment also runs under both evaluation modes — the dense
//! full-evaluation path and the default dirty-set/event-driven path. The
//! incremental evaluator is an *optimization*, not a semantic variant:
//! every digest must match the dense reference bit for bit.
//!
//! A third family of legs checks the what-if snapshot contract: the run
//! is stopped halfway, captured with `ClusterSnapshot`, the *original* is
//! stepped onward (so any state the branch secretly shared with it would
//! diverge), and the branch is driven to the end. Every digest of the
//! branched run — taken mid-fault-schedule — must match the uninterrupted
//! reference bit for bit.
//!
//! The tick runs on one thread, so there is no pool width to vary.
//!
//! Any divergence prints the offending run and exits non-zero, failing
//! CI. Under a minute of wall clock; see `scripts/ci.sh`.

use ppc_cluster::{ClusterSim, ClusterSpec, EvalMode};
use ppc_core::{HierarchicalManager, ManagerConfig, NodeSets, PolicyKind, PowerManager, Topology};
use ppc_faults::{FaultInjection, FaultRates, FaultSchedule};
use ppc_simkit::{RngFactory, SimDuration};
use ppc_whatif::ClusterSnapshot;
use std::collections::BTreeSet;
use std::process::ExitCode;

const NODES: u32 = 8;
const RUN_SECS: u64 = 400;

/// Everything one run produces that must be invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunDigest {
    journal: u64,
    trace: u64,
    spans: u64,
    metrics: u64,
    rollup: u64,
    sketch: u64,
    alerts: u64,
    finished: usize,
    commands: u64,
    /// Control cycles the health plane folded (vacuity check only).
    health_cycles: u64,
}

fn digest(sim: &ClusterSim) -> RunDigest {
    let hf = sim.health_fingerprints();
    RunDigest {
        journal: sim.journal().fingerprint(),
        trace: sim.true_power().fingerprint(),
        spans: sim.span_fingerprint(),
        metrics: sim.metrics_fingerprint(),
        rollup: hf.rollup,
        sketch: hf.sketch,
        alerts: hf.alerts,
        finished: sim.finished().len(),
        commands: sim.commands_applied(),
        health_cycles: sim.health().rollup().facility().cycles,
    }
}

/// The gate's shared experiment: a tightly-provisioned mini cluster with
/// an aggressive fault schedule. Both the flat and the hierarchical legs
/// run exactly this.
fn gate_spec() -> (ClusterSpec, FaultSchedule, ManagerConfig) {
    let mut spec = ClusterSpec::mini(NODES);
    spec.provision_fraction = 0.60; // tight provision: capping engages
    let rates = FaultRates {
        crash_per_node_hour: 6.0,
        reboot_mean_secs: 45.0,
        hang_per_node_hour: 6.0,
        silence_per_node_hour: 8.0,
        partition_per_hour: 10.0,
        partition_width: 4,
        ..FaultRates::default()
    };
    let schedule = FaultSchedule::generate(
        &rates,
        NODES,
        SimDuration::from_secs(RUN_SECS),
        &RngFactory::new(spec.seed),
    );
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    (spec, schedule, config)
}

fn build(mode: EvalMode) -> Result<ClusterSim, String> {
    let (spec, schedule, config) = gate_spec();
    let sets = NodeSets::new(spec.node_ids(), []);
    let manager =
        PowerManager::new(config, sets).map_err(|e| format!("manager construction: {e}"))?;
    Ok(ClusterSim::new(spec)
        .with_manager(manager)
        .with_faults(FaultInjection::new(schedule))
        .with_eval_mode(mode))
}

/// The same experiment under the hierarchical control plane.
fn build_hier(mode: EvalMode, topology: Topology) -> Result<ClusterSim, String> {
    let (spec, schedule, config) = gate_spec();
    let hier = HierarchicalManager::new(config, topology, &BTreeSet::new(), spec.node_weights_w())
        .map_err(|e| format!("hierarchy construction: {e}"))?;
    Ok(ClusterSim::new(spec)
        .with_hierarchy(hier)
        .with_faults(FaultInjection::new(schedule))
        .with_eval_mode(mode))
}

fn run_once_hier(mode: EvalMode, topology: Topology) -> Result<RunDigest, String> {
    let mut sim = build_hier(mode, topology)?;
    sim.run_for(SimDuration::from_secs(RUN_SECS));
    Ok(digest(&sim))
}

fn run_once(mode: EvalMode) -> Result<RunDigest, String> {
    let mut sim = build(mode)?;
    sim.run_for(SimDuration::from_secs(RUN_SECS));
    Ok(digest(&sim))
}

/// The branch-and-replay leg: stop the run halfway — mid-fault-schedule,
/// jobs in flight, thresholds learned — capture a snapshot, keep stepping
/// the *original* (a branch that secretly shared state with it would
/// diverge here), then drive the branch to the end and digest it.
fn run_branched(mode: EvalMode) -> Result<RunDigest, String> {
    let half = RUN_SECS / 2;
    let mut sim = build(mode)?;
    sim.run_for(SimDuration::from_secs(half));
    let snapshot = ClusterSnapshot::capture(&sim);
    // Perturb the original past the capture point before the branch runs.
    sim.run_for(SimDuration::from_secs(30));
    let mut branch = snapshot.branch();
    branch.run_for(SimDuration::from_secs(RUN_SECS - half));
    Ok(digest(&branch))
}

fn main() -> ExitCode {
    // (label, mode, branched): the incremental run twice proves
    // same-seed repeatability, the dense (Full) run proves the
    // dirty-set/event-driven evaluator changes nothing any fingerprint
    // can see, and the branched leg proves a what-if snapshot forked
    // halfway replays the back half bit for bit.
    let runs = [
        ("incr", EvalMode::Incremental, false),
        ("incr rep", EvalMode::Incremental, false),
        ("dense", EvalMode::Full, false),
        ("branch", EvalMode::Incremental, true),
    ];
    let mut baseline: Option<RunDigest> = None;
    let mut failed = false;
    for (label, mode, branched) in runs {
        let run = if branched { run_branched } else { run_once };
        let digest = match run(mode) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("determinism gate: {label}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "determinism gate: {label:16} journal={:016x} trace={:016x} spans={:016x} \
             metrics={:016x} rollup={:016x} sketch={:016x} alerts={:016x} finished={} commands={}",
            digest.journal,
            digest.trace,
            digest.spans,
            digest.metrics,
            digest.rollup,
            digest.sketch,
            digest.alerts,
            digest.finished,
            digest.commands
        );
        if digest.spans == ppc_obs::SpanRecorder::new(1).fingerprint() {
            eprintln!("determinism gate: span fingerprint is the empty-recorder hash — no spans recorded, gate would be vacuous");
            failed = true;
        }
        match &baseline {
            None => {
                if digest.commands == 0 {
                    eprintln!("determinism gate: no commands applied — gate would be vacuous");
                    failed = true;
                }
                if digest.health_cycles == 0 {
                    eprintln!("determinism gate: health plane observed no cycles — health fingerprints would be vacuous");
                    failed = true;
                }
                baseline = Some(digest);
            }
            Some(b) if *b != digest => {
                eprintln!("determinism gate: {label} diverged from the first run");
                failed = true;
            }
            Some(_) => {}
        }
    }
    // Hierarchical legs. The flat baseline attaches its manager through
    // the adopting constructor (`HierarchicalManager::from_racks`); a
    // one-rack tree built by `HierarchicalManager::new` must match it bit
    // for bit. A 3-level topology (2 rows × 2 racks of 2 nodes) exercises
    // real delegation, per-rack sub-manager evaluation and rollup; it
    // forms its own digest family, pinned by a same-seed repeat.
    let single_rack = match Topology::single_rack(NODES) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("determinism gate: topology: {e}");
            return ExitCode::FAILURE;
        }
    };
    let three_level = match Topology::new(NODES, 2, 2) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("determinism gate: topology: {e}");
            return ExitCode::FAILURE;
        }
    };
    let hier_runs = [
        ("hier 1rack", single_rack, false),
        ("hier 3lvl", three_level, true),
        ("hier 3lvl rep", three_level, true),
    ];
    let mut hier_baseline: Option<RunDigest> = None;
    for (label, topology, own_family) in hier_runs {
        let digest = match run_once_hier(EvalMode::Incremental, topology) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("determinism gate: {label}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "determinism gate: {label:16} journal={:016x} trace={:016x} spans={:016x} \
             metrics={:016x} rollup={:016x} sketch={:016x} alerts={:016x} finished={} commands={}",
            digest.journal,
            digest.trace,
            digest.spans,
            digest.metrics,
            digest.rollup,
            digest.sketch,
            digest.alerts,
            digest.finished,
            digest.commands
        );
        if !own_family {
            // Flat-equivalence family: compare against the flat baseline.
            if baseline.as_ref() != Some(&digest) {
                eprintln!(
                    "determinism gate: {label} diverged from the flat manager — \
                     `new` and the adopting constructor disagree on one rack"
                );
                failed = true;
            }
            continue;
        }
        match &hier_baseline {
            None => {
                if digest.commands == 0 {
                    eprintln!("determinism gate: hierarchical run applied no commands — gate would be vacuous");
                    failed = true;
                }
                if digest.health_cycles == 0 {
                    eprintln!("determinism gate: hierarchical health plane observed no cycles — health fingerprints would be vacuous");
                    failed = true;
                }
                hier_baseline = Some(digest);
            }
            Some(b) if *b != digest => {
                eprintln!("determinism gate: {label} diverged from the first hierarchical run");
                failed = true;
            }
            Some(_) => {}
        }
    }
    if failed {
        eprintln!("determinism gate: FAILED — seeded replay is not bit-identical");
        ExitCode::FAILURE
    } else {
        println!(
            "determinism gate: ok — journal, trace, span, metrics and health hashes identical \
             across runs, evaluation modes, branches and control-plane architectures"
        );
        ExitCode::SUCCESS
    }
}
