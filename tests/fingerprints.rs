//! The behaviour pin: one scenario table, each row checked two ways.
//!
//! * Against a golden line in `tests/fixtures/FINGERPRINTS.txt`: the
//!   seven determinism fingerprints (journal, power trace, spans,
//!   metrics, health rollup, sketches, alerts) and the finished-job and
//!   applied-command counts, recorded from an earlier build. A refactor
//!   that leaves the fixture untouched preserved behaviour bit for bit.
//! * Against its own legs: other ways to produce the same run (a
//!   same-seed repeat, the dense evaluator, a what-if branch, the same
//!   run built another way). Each leg must match the row's run on every
//!   fingerprint and on the whole health plane, the full observability
//!   report (metrics and flight snapshots) and the availability report.
//!   This catches a change that moves two paths apart even when it
//!   happens to leave some golden row alone.
//!
//! Every row also asserts, on the run that produced its golden line,
//! that it exercises what it claims (capping, faults, alerts, ...).
//!
//! `PPC_REGEN_FIXTURES=1 cargo test --test fingerprints` rewrites the
//! fixture instead of comparing (then rerun without the variable). A
//! regeneration is a behaviour change and must be justified.

use ppc::cluster::{ClusterSim, ClusterSpec, EvalMode};
use ppc::core::{
    HierarchicalManager, ManagerConfig, NodeSets, PolicyKind, PowerManager,
    ProportionalBudgetController, Thresholds, Topology,
};
use ppc::faults::{FaultInjection, FaultRates, FaultSchedule};
use ppc::obs::{health_jsonl, prometheus_health, validate_health, SpanRecorder};
use ppc::simkit::{RngFactory, SimDuration, SimTime};
use ppc::whatif::ClusterSnapshot;
use ppc::workload::{JobGenerator, JobPriority, TraceEntry};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

const RUN_SECS: u64 = 600;
/// Nodes and run length of the 8-node faulted `gate8*` rows.
const GATE_NODES: u32 = 8;
const GATE_SECS: u64 = 400;

fn config(spec: &ClusterSpec) -> ManagerConfig {
    ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    }
}

/// 128 nodes under the paper's random workload, tight provision.
fn paper_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::mini(128);
    spec.provision_fraction = 0.65;
    spec
}

/// Poisson arrivals drawn by a [`JobGenerator`] (the job mix the built-in
/// workload would draw, a tenth of it critical), so the fleet stays busy
/// and jobs start and finish nearly every tick.
fn poisson_trace(spec: &ClusterSpec, rate_per_s: f64, horizon_secs: f64) -> Vec<TraceEntry> {
    let factory = RngFactory::new(spec.seed);
    let mut gaps = factory.stream("test.arrivals", 0);
    let mut draws = JobGenerator::new(factory, spec.class, spec.max_nprocs().min(256))
        .with_critical_fraction(spec.critical_job_fraction);
    let mut entries = Vec::new();
    let mut t = gaps.exponential(1.0 / rate_per_s);
    while t < horizon_secs {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
        let job = draws.next_job(at);
        entries.push(TraceEntry {
            at,
            app: job.app(),
            class: job.class(),
            nprocs: job.nprocs(),
            priority: job.priority(),
        });
        t += gaps.exponential(1.0 / rate_per_s);
    }
    entries
}

/// A busy trace-fed fleet of `racks` racks in 2 rows, under Poisson
/// arrivals at `rate_per_s`.
fn busy_tree(nodes: u32, racks: u32, rate_per_s: f64) -> ClusterSim {
    let mut spec = ClusterSpec::mini(nodes);
    spec.provision_fraction = 0.65;
    spec.critical_job_fraction = 0.1;
    spec.job_trace = Some(poisson_trace(&spec, rate_per_s, RUN_SECS as f64));
    let topology = Topology::new(nodes, nodes / racks, racks / 2).expect("valid topology");
    let h = hierarchy(&spec, topology);
    ClusterSim::new(spec).with_hierarchy(h)
}

fn hierarchy(spec: &ClusterSpec, topology: Topology) -> HierarchicalManager {
    HierarchicalManager::new(
        config(spec),
        topology,
        &BTreeSet::new(),
        spec.node_weights_w(),
    )
    .expect("valid hierarchy")
}

fn fault_schedule(nodes: u32, seed: u64) -> FaultSchedule {
    let rates = FaultRates {
        crash_per_node_hour: 2.0,
        reboot_mean_secs: 60.0,
        hang_per_node_hour: 3.0,
        silence_per_node_hour: 4.0,
        partition_per_hour: 8.0,
        partition_width: 8,
        ..FaultRates::default()
    };
    FaultSchedule::generate(
        &rates,
        nodes,
        SimDuration::from_secs(RUN_SECS),
        &RngFactory::new(seed),
    )
}

/// `sim` under [`fault_schedule`] for its own size and seed.
fn faulted(sim: ClusterSim) -> ClusterSim {
    let spec = sim.spec();
    let schedule = fault_schedule(spec.total_nodes(), spec.seed);
    sim.with_faults(FaultInjection::new(schedule))
}

/// A flat MPC manager over every node of `spec`.
fn flat_mpc(spec: ClusterSpec) -> ClusterSim {
    let manager = PowerManager::new(config(&spec), NodeSets::new(spec.node_ids(), []))
        .expect("valid manager");
    ClusterSim::new(spec).with_manager(manager)
}

fn flat128() -> ClusterSim {
    flat_mpc(paper_spec())
}

/// 128 nodes with the Tianhe-1A variant's 15 s mean think time: every
/// refill of the empty queue closes the arrival gate until a drawn gap
/// has passed. The provision is tight enough for the thinned-out load
/// to be capped.
fn think_spec() -> ClusterSpec {
    let mut spec = paper_spec();
    spec.provision_fraction = 0.55;
    spec.think_time_mean = SimDuration::from_secs(15);
    spec
}

fn think128() -> ClusterSim {
    flat_mpc(think_spec())
}

fn hier_1rack() -> ClusterSim {
    let spec = paper_spec();
    let h = hierarchy(&spec, Topology::single_rack(128).expect("valid topology"));
    ClusterSim::new(spec).with_hierarchy(h)
}

/// 4 racks of 32 nodes.
fn hier4_busy() -> ClusterSim {
    busy_tree(128, 4, 1.5)
}

fn hier4_faulted() -> ClusterSim {
    faulted(hier4_busy())
}

/// 1 024 nodes in 8 racks of 128, about 12 arrivals a second, faulted:
/// the size at which the lazy regime, the rack observation store and
/// fault handling all do work in one run. (A job trace bypasses the
/// think-time gate, so only `think128` and `gate8_think` close it.)
fn hier8_1024() -> ClusterSim {
    faulted(busy_tree(1024, 8, 12.0))
}

/// The related-work proportional-budget baseline on 128 nodes, at the
/// thresholds `tests/budget_baseline.rs` caps with (P_L = 55 %, P_H = 64 %
/// of the theoretical maximum).
fn budget128() -> ClusterSim {
    let spec = ClusterSpec::mini(128);
    let thy = spec.theoretical_max_w();
    let thresholds = Thresholds::new(0.55 * thy, 0.64 * thy).expect("valid thresholds");
    ClusterSim::new(spec).with_budget_controller(ProportionalBudgetController::new(thresholds))
}

/// `budget128`'s thresholds over a fleet with SLA jobs (a tenth of them
/// critical, so their nodes turn privileged while they run) under
/// [`fault_schedule`]: the budget cycle's node filter (privileged, down
/// and silent nodes are not sampled) decides what it splits `P_L` over.
fn budget_faulted() -> ClusterSim {
    let mut spec = ClusterSpec::mini(128);
    spec.critical_job_fraction = 0.1;
    let thy = spec.theoretical_max_w();
    let thresholds = Thresholds::new(0.55 * thy, 0.64 * thy).expect("valid thresholds");
    faulted(
        ClusterSim::new(spec).with_budget_controller(ProportionalBudgetController::new(thresholds)),
    )
}

/// Health on with alerts firing: a 16-node 2×2×4 tree at a provision
/// tight enough to breach the dwell and overshoot objectives, under
/// faults that dent coverage.
fn health_alerts() -> ClusterSim {
    let mut spec = ClusterSpec::mini(16);
    spec.provision_fraction = 0.55;
    let schedule = fault_schedule(16, 11);
    let h = hierarchy(&spec, Topology::new(16, 4, 2).expect("valid topology"));
    let mut sim = ClusterSim::new(spec)
        .with_hierarchy(h)
        .with_faults(FaultInjection::new(schedule));
    sim.set_health_enabled(true);
    sim
}

/// The 8-node faulted scenario of the `gate8*` rows: provision 0.60,
/// aggressive faults over [`GATE_SECS`], a mean think time of
/// `think_secs`, under a flat manager or a tree over `topology`.
fn gate(think_secs: u64, topology: Option<Topology>) -> ClusterSim {
    let mut spec = ClusterSpec::mini(GATE_NODES);
    spec.provision_fraction = 0.60;
    spec.think_time_mean = SimDuration::from_secs(think_secs);
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
        GATE_NODES,
        SimDuration::from_secs(GATE_SECS),
        &RngFactory::new(spec.seed),
    );
    let sim = match topology {
        None => flat_mpc(spec),
        Some(topology) => {
            let h = hierarchy(&spec, topology);
            ClusterSim::new(spec).with_hierarchy(h)
        }
    };
    sim.with_faults(FaultInjection::new(schedule))
}

fn gate8() -> ClusterSim {
    gate(0, None)
}

/// `gate8` through a one-rack `HierarchicalManager::new`; the flat row
/// attaches its manager through the adopting constructor.
fn gate8_1rack() -> ClusterSim {
    gate(
        0,
        Some(Topology::single_rack(GATE_NODES).expect("valid topology")),
    )
}

/// 2 rows × 2 racks of 2 nodes: real delegation, real rollup tree.
fn gate8_3lvl() -> ClusterSim {
    gate(
        0,
        Some(Topology::new(GATE_NODES, 2, 2).expect("valid topology")),
    )
}

/// `gate8` with the paper protocol's 15 s think time, so the arrival
/// gate closes after every refill.
fn gate8_think() -> ClusterSim {
    gate(15, None)
}

/// Runs `sim` for `secs` one-second ticks; returns it with the most jobs
/// it ran at once.
fn run(mut sim: ClusterSim, secs: u64) -> (ClusterSim, usize) {
    assert_eq!(sim.spec().tick, SimDuration::from_secs(1));
    let mut peak_running = 0;
    for _ in 0..secs {
        sim.step();
        peak_running = peak_running.max(sim.running_jobs());
    }
    (sim, peak_running)
}

fn digests(sim: &ClusterSim) -> String {
    let health = sim.health_fingerprints();
    format!(
        "journal={:016x} trace={:016x} spans={:016x} metrics={:016x} \
         rollup={:016x} sketch={:016x} alerts={:016x} finished={} commands={}",
        sim.journal().fingerprint(),
        sim.true_power().fingerprint(),
        sim.span_fingerprint(),
        sim.metrics_fingerprint(),
        health.rollup,
        health.sketch,
        health.alerts,
        sim.finished().len(),
        sim.commands_applied(),
    )
}

/// Another way to produce a scenario's run.
#[derive(Clone, Copy)]
enum Leg {
    /// A same-seed repeat.
    Repeat,
    /// The dense evaluator, [`EvalMode::Full`].
    Dense,
    /// Capture at half time, step the original 30 s on (a branch that
    /// shares state with it would diverge), then run the branch to the
    /// end.
    Branch,
    /// The same run built another way.
    Rebuilt(fn() -> ClusterSim),
}

/// One row of the pin: its fixture name and builder, how long it runs,
/// its legs, and the vacuity check on its run and peak running-job count.
struct Scenario {
    name: &'static str,
    build: fn() -> ClusterSim,
    secs: u64,
    legs: &'static [Leg],
    check: fn(&ClusterSim, usize),
}

impl Leg {
    fn run(self, s: &Scenario) -> (&'static str, ClusterSim) {
        match self {
            Leg::Repeat => ("repeat", run((s.build)(), s.secs).0),
            Leg::Dense => (
                "dense",
                run((s.build)().with_eval_mode(EvalMode::Full), s.secs).0,
            ),
            Leg::Branch => {
                let half = s.secs / 2;
                let (mut original, _) = run((s.build)(), half);
                let snapshot = ClusterSnapshot::capture(&original);
                original.run_for(SimDuration::from_secs(30));
                ("branch", run(snapshot.branch(), s.secs - half).0)
            }
            Leg::Rebuilt(build) => ("rebuilt", run(build(), s.secs).0),
        }
    }
}

/// A leg must match the row's run on every fingerprint and on the whole
/// health plane, observability report and availability report.
fn assert_same_run(what: &str, reference: &ClusterSim, leg: &ClusterSim) {
    assert_eq!(digests(leg), digests(reference), "{what}: fingerprints");
    assert!(leg.health() == reference.health(), "{what}: health plane");
    assert!(
        leg.obs().report() == reference.obs().report(),
        "{what}: metrics or flight snapshots"
    );
    assert_eq!(
        leg.availability_report(),
        reference.availability_report(),
        "{what}: availability"
    );
}

/// Jobs the run has submitted so far: finished, running or queued.
fn submitted(sim: &ClusterSim) -> usize {
    sim.finished().len() + sim.running_jobs() + sim.queued_jobs()
}

fn requeues_and_failed_commands(sim: &ClusterSim) {
    assert!(sim.jobs_requeued() > 0);
    assert!(sim.commands_failed() > 0);
}

#[test]
fn fingerprints_match_golden_fixture() {
    use Leg::{Branch, Dense, Rebuilt, Repeat};
    let scenarios = [
        Scenario {
            name: "flat128",
            build: flat128,
            secs: RUN_SECS,
            legs: &[],
            check: |_, _| {},
        },
        Scenario {
            name: "hier_1rack",
            build: hier_1rack,
            secs: RUN_SECS,
            legs: &[],
            check: |_, _| {},
        },
        Scenario {
            name: "hier4_busy",
            build: hier4_busy,
            secs: RUN_SECS,
            legs: &[],
            check: |sim, peak_running| {
                assert!(sim.finished().len() > 100, "{}", sim.finished().len());
                assert!(peak_running >= 8, "{peak_running}");
                assert!(
                    sim.finished()
                        .iter()
                        .any(|r| r.priority == JobPriority::Critical),
                    "the busy trace must run critical jobs"
                );
            },
        },
        Scenario {
            name: "hier4_faulted",
            build: hier4_faulted,
            secs: RUN_SECS,
            legs: &[],
            check: |sim, _| requeues_and_failed_commands(sim),
        },
        Scenario {
            name: "health_alerts",
            build: health_alerts,
            secs: RUN_SECS,
            legs: &[],
            check: |sim, _| assert!(!sim.health().alerts().is_empty()),
        },
        Scenario {
            name: "budget128",
            build: budget128,
            secs: RUN_SECS,
            legs: &[],
            check: |sim, _| {
                let stats = sim.budget_controller().expect("attached").stats();
                assert!(stats.active_cycles > 0, "the budget must bind");
            },
        },
        Scenario {
            name: "budget_faulted",
            build: budget_faulted,
            secs: RUN_SECS,
            // Dense is vacuous: the budget controller forces Full.
            legs: &[Repeat, Branch],
            check: |sim, _| {
                let stats = sim.budget_controller().expect("attached").stats();
                assert!(stats.active_cycles > 0, "the budget must bind");
                requeues_and_failed_commands(sim);
                assert!(
                    sim.finished()
                        .iter()
                        .any(|r| r.priority == JobPriority::Critical),
                    "a critical job must finish"
                );
            },
        },
        Scenario {
            name: "think128",
            build: think128,
            secs: RUN_SECS,
            legs: &[],
            check: |gated, _| {
                // The same spec with zero think time never closes the gate.
                let mut open_spec = think_spec();
                open_spec.think_time_mean = SimDuration::ZERO;
                let (open, _) = run(flat_mpc(open_spec), RUN_SECS);
                assert!(
                    submitted(gated) < submitted(&open),
                    "the think-time gate must hold submissions back: {} vs {}",
                    submitted(gated),
                    submitted(&open)
                );
            },
        },
        Scenario {
            name: "gate8",
            build: gate8,
            secs: GATE_SECS,
            legs: &[Repeat, Dense, Branch, Rebuilt(gate8_1rack)],
            check: |sim, _| {
                let crashes = sim.availability_report().expect("faults attached").crashes;
                assert!(crashes > 0, "the schedule must strike");
                assert!(!sim.obs().report().metrics.is_empty());
            },
        },
        Scenario {
            name: "gate8_3lvl",
            build: gate8_3lvl,
            secs: GATE_SECS,
            legs: &[Repeat, Branch],
            check: |sim, _| {
                // Real cycles, per-rack and per-row zones, and fleet
                // node-power samples.
                let hp = sim.health();
                assert!(hp.rollup().facility().cycles > 100);
                assert_eq!(hp.rollup().racks().len(), 4);
                assert_eq!(hp.rollup().rows().len(), 2);
                assert!(hp.node_power().count() > 0);
            },
        },
        Scenario {
            name: "gate8_think",
            build: gate8_think,
            secs: GATE_SECS,
            legs: &[Dense, Branch],
            check: |_, _| {},
        },
        Scenario {
            name: "hier8_1024",
            build: hier8_1024,
            secs: RUN_SECS,
            legs: &[Dense, Branch],
            check: |sim, _| {
                requeues_and_failed_commands(sim);
                assert_eq!(sim.eval_mode(), EvalMode::Incremental);
            },
        },
    ];
    let empty_spans = SpanRecorder::new(1).fingerprint();
    let mut rendered = String::new();
    let mut journals = BTreeMap::new();
    for s in &scenarios {
        let (sim, peak_running) = run((s.build)(), s.secs);
        writeln!(rendered, "{:14} {}", s.name, digests(&sim)).expect("write to string");
        // Every row records spans, applies commands and folds health
        // cycles; then its own claims.
        assert_ne!(sim.span_fingerprint(), empty_spans, "{}: no spans", s.name);
        assert!(sim.commands_applied() > 0, "{}: no commands", s.name);
        let cycles = sim.health().rollup().facility().cycles;
        assert!(cycles > 0, "{}: no health cycles", s.name);
        (s.check)(&sim, peak_running);
        for &leg in s.legs {
            let (label, other) = leg.run(s);
            assert_same_run(&format!("{} {label}", s.name), &sim, &other);
        }
        journals.insert(s.name, sim.journal().fingerprint());
    }
    assert_ne!(
        journals["gate8_think"], journals["gate8"],
        "gate8_think replays gate8's journal: the arrival gate never closed"
    );
    if std::env::var_os("PPC_REGEN_FIXTURES").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/FINGERPRINTS.txt"
            ),
            &rendered,
        )
        .expect("fixture write");
        return;
    }
    let golden = include_str!("fixtures/FINGERPRINTS.txt");
    assert_eq!(
        rendered, golden,
        "fingerprints diverged from tests/fixtures/FINGERPRINTS.txt — a \
         behaviour change; regenerate only if it is intended"
    );
}

#[test]
fn multi_rack_exports_carry_every_zone() {
    let (sim, _) = run(gate8_3lvl(), GATE_SECS);
    let hp = sim.health();
    let (racks, rows) = (hp.rollup().racks().len(), hp.rollup().rows().len());
    assert_eq!((racks, rows), (4, 2));
    let summary = validate_health(&health_jsonl(hp)).expect("valid health JSONL");
    assert_eq!(summary.zone_lines, racks + rows + 1);
    let text = prometheus_health(hp);
    for metric in ["ppc_rack_power_watts{", "ppc_rack_power_dist_watts_count{"] {
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with(metric)).collect();
        assert_eq!(lines.len(), racks, "{metric}: {lines:?}");
        for (r, line) in lines.iter().enumerate() {
            let row = hp.rollup().map().row_of(r);
            assert!(
                line.contains(&format!("{{rack=\"{r}\",row=\"{row}\"}}")),
                "{line}"
            );
        }
    }
}

#[test]
fn exports_validate_and_cover_every_cycle_stage() {
    let (sim, _) = run(gate8(), GATE_SECS);
    let obs = sim.obs();

    // Every control cycle produced one root span and one span per stage.
    let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
    for s in obs.spans.iter() {
        *by_name.entry(s.name).or_insert(0) += 1;
    }
    let cycles = by_name.get("cycle").copied().unwrap_or(0);
    assert!(cycles > 100, "expected hundreds of control cycles");
    for stage in [
        "sample", "ingest", "observe", "classify", "capping", "actuate",
    ] {
        let n = by_name.get(stage).copied().unwrap_or(0);
        assert_eq!(n, cycles, "stage `{stage}`: {n} spans for {cycles} cycles");
    }

    // JSONL round-trips through the CI schema validator.
    let stream = ppc::obs::jsonl(&obs.spans, &obs.metrics);
    let summary = ppc::obs::validate_jsonl(&stream).expect("generated JSONL must validate");
    assert_eq!(summary.meta_lines, 1);
    assert_eq!(summary.span_lines, obs.spans.len());
    assert_eq!(summary.metric_lines, obs.metrics.len());

    // The Chrome trace is one JSON document with a complete ("ph":"X")
    // event per closed span, microsecond-ordered for Perfetto.
    let chrome = ppc::obs::chrome_trace(&obs.spans);
    let parsed: serde_json::Value =
        serde_json::from_str(&chrome).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    // One process_name metadata event plus one complete event per span.
    assert_eq!(events.len(), obs.spans.len() + 1);

    // Prometheus text: every instrument surfaced with HELP/TYPE headers.
    let prom = ppc::obs::prometheus(&obs.metrics);
    for m in &obs.metrics.dump() {
        assert!(prom.contains(m.name.as_str()), "missing {}", m.name);
    }
    assert_eq!(
        prom.matches("# TYPE").count(),
        obs.metrics.len(),
        "one TYPE header per instrument"
    );
}
