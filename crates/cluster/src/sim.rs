//! The cluster simulation loop.
//!
//! One tick (= the sampling interval τ = one control cycle):
//!
//! 1. refill the job queue if empty (paper protocol) and start queued
//!    jobs on free nodes (first-fit, lowest indices);
//! 2. derive each node's operating state from the job phase it hosts and
//!    advance node states (device counters, `/proc`);
//! 3. advance every running job at the minimum rate over its member nodes
//!    (SPMD bottleneck semantics), collecting finished-job records;
//! 4. sum true node power, push it to the trace, and take a (noisy)
//!    facility-meter reading;
//! 5. run the profiling agents on candidate nodes, feed the collector,
//!    build job observations, and run the power manager's control cycle;
//! 6. apply the resulting throttling commands to the nodes — unless the
//!    manager is still in its training period, during which "all nodes are
//!    running at highest power state without any power management".
//!
//! ## Evaluation modes
//!
//! Step 2/4 run in one of two bit-identical regimes ([`EvalMode`]):
//!
//! * **Full** — the dense reference: every node's state advances every
//!   tick and every node's power is re-evaluated into the [`NodeColumns`]
//!   power column;
//! * **Incremental** (default) — only *dirty* nodes (a load, level, or
//!   up/down input changed) are re-evaluated, in ascending node id, each
//!   reading its load from the scheduler's per-node load column; clean
//!   nodes' counters are caught up in closed form when next needed
//!   ([`ppc_node::procfs::ProcCounters::advance_many`]) and their cached
//!   column entries stand. The fleet power sum is an index-order fold
//!   over the dense column either way, so the two modes produce
//!   bit-identical traces, journals, span trees, and metrics.
//!
//! The tick runs on one thread, like the paper's capping loop: meter,
//! classify, select, step DVFS, in that order, once per period.
//!
//! Discrete one-shot events — the think-time arrival gate and the
//! fixed-period control cycle — ride a hierarchical [`TimeWheel`] rather
//! than per-tick polling. Phase boundaries are *not* wheel-predicted:
//! they depend on member speeds, which throttling changes mid-flight, so
//! the advance pass detects them and stages the affected members dirty.

use crate::columns::NodeColumns;
use crate::spec::ClusterSpec;
use ppc_core::capping::LevelView;
use ppc_core::observe::JobObservation;
use ppc_core::{
    BudgetNodeView, CycleOutcome, HierarchicalManager, ManagerStats, NodeMask, NodeSets,
    PowerManager, PowerState, ProportionalBudgetController, Topology,
};
use ppc_faults::{FaultEngine, FaultInjection, FaultTransition};
use ppc_metrics::{AvailabilityInputs, AvailabilityReport};
use ppc_node::node::Node;
use ppc_node::{Level, NodeId, OperatingState, PowerModel};
use ppc_obs::{
    AttrValue, CounterHandle, CycleObservation, GaugeHandle, HealthFingerprints, HealthPlane,
    HistogramHandle, MetricsRegistry, ObsHub, SpanRecorder, StageWork, ZoneMap, ZoneState,
};
use ppc_simkit::journal::{Journal, Severity};
use ppc_simkit::par::WorkerPool;
use ppc_simkit::{RngFactory, SimDuration, SimTime, TickClock, TimeSeries, TimeWheel};
use ppc_telemetry::cost::CycleCostMeter;
use ppc_telemetry::{
    Collector, MeterReading, NodeSample, NoiseModel, ProfilingAgent, SystemPowerMeter,
};
use ppc_workload::{
    AdmissionPolicy, Class, JobGenerator, JobId, JobPriority, JobQueue, JobRecord, NpbApp,
    Scheduler, TraceSource,
};
use rack_obs::{Observer, RackObs};
use std::collections::BTreeSet;
use std::sync::Arc;

mod rack_obs;

/// How the tick loop evaluates node state and power (see the module docs;
/// both modes are bit-identical by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum EvalMode {
    /// Dense reference path: every node, every tick.
    Full,
    /// Dirty-set incremental path (default). Falls back to [`Full`]
    /// behaviour automatically when a feature it cannot represent is
    /// active (budget controller, thermal models, agent sampling noise).
    ///
    /// [`Full`]: EvalMode::Full
    #[default]
    Incremental,
}

/// One-shot discrete events scheduled on the simulation's timer wheel.
#[derive(Debug, Clone, Copy)]
enum WheelEvent {
    /// The think-time gate opens: job submission may resume.
    ArrivalGate,
    /// The fixed-period control cycle is due (re-armed every tick).
    ControlDue,
    /// A dark candidate's last sample reaches the staleness limit (lazy
    /// regime under faults): its freshness is re-derived this cycle.
    FreshnessDue(NodeId),
}

/// Give up on a frozen-actuator command after this many attempts (the
/// initial send plus backed-off retries at 1-, 2- and 4-cycle gaps).
const MAX_COMMAND_ATTEMPTS: u32 = 3;

/// A throttling command whose first send hit a frozen DVFS actuator,
/// waiting out its backoff before the next attempt.
#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    node: NodeId,
    level: Level,
    /// Sends performed so far (≥ 1: the failed original).
    attempts: u32,
    /// Control cycles to skip before the next attempt.
    cooldown: u32,
}

/// Runtime fault state: the schedule replay engine plus the robustness
/// bookkeeping the cluster layer accumulates around it.
#[derive(Clone)]
struct FaultState {
    engine: FaultEngine,
    requeue_cap: u32,
    staleness_limit: SimDuration,
    /// Jobs evicted from dead nodes and successfully requeued.
    jobs_requeued: u64,
    /// Jobs dropped after exhausting the requeue cap.
    jobs_failed: u64,
    /// DVFS commands whose first send failed (dead node or frozen
    /// actuator). Retries and give-ups do not recount.
    commands_failed: u64,
    /// Failed commands waiting out their retry backoff.
    retries: Vec<PendingRetry>,
    /// Candidates with fresh telemetry this cycle. The dense regimes
    /// refill it from collector timestamps every cycle; the lazy regime
    /// keeps it up to date from the edges that can change it
    /// ([`FaultState::track_freshness`]).
    fresh: NodeMask,
    /// Lazy regime: candidates whose agent is silent (dense sampling
    /// skips them).
    silent: NodeMask,
    /// Lazy regime: nodes whose freshness flipped this cycle; their jobs'
    /// observations are refreshed in full.
    flipped: Vec<NodeId>,
}

impl FaultState {
    /// Lazy regime: re-derives the freshness of every suspect (a node
    /// whose candidacy, silence or staleness deadline may have moved since
    /// the last cycle) at `tick`, before sampling. The dense regimes read
    /// freshness off collector timestamps: a candidate is fresh iff its
    /// latest sample is at most `staleness_limit` old. Dense sampling
    /// re-stamps every lit candidate each cycle, so that is the same as:
    /// a lit candidate is fresh (it holds a sample after this cycle's
    /// ingest), and a silent one is fresh iff it has a sample taken no
    /// more than the limit before now. Its last sample is at
    /// `last_sampled_tick`, which the lazy regime catches up to the dense
    /// one when the node goes dark ([`freeze_agent`]); the
    /// tick it turns stale is scheduled on the wheel. Down nodes are never
    /// candidates.
    #[allow(clippy::too_many_arguments)]
    fn track_freshness(
        &mut self,
        suspects: &mut Vec<NodeId>,
        sets: &NodeSets,
        collector: &Collector,
        last_sampled_tick: &[u64],
        tick: u64,
        tau: SimDuration,
        wheel: &mut TimeWheel<WheelEvent>,
    ) {
        let fresh_ticks = self.staleness_limit.as_millis() / tau.as_millis().max(1);
        self.flipped.clear();
        for n in suspects.drain(..) {
            let candidate = sets.is_candidate(n);
            let silent = candidate && self.engine.is_silent(n);
            let fresh = if silent {
                let stale_at = last_sampled_tick[n.0 as usize] + fresh_ticks + 1;
                let fresh = tick < stale_at && collector.latest(n).is_some();
                if fresh {
                    wheel.schedule(stale_at, WheelEvent::FreshnessDue(n));
                }
                fresh
            } else {
                candidate
            };
            set_member(&mut self.silent, n, silent);
            if set_member(&mut self.fresh, n, fresh) {
                self.flipped.push(n);
            }
        }
    }
}

/// Makes `node` a member of `mask` or not; true if that changed it.
fn set_member(mask: &mut NodeMask, node: NodeId, member: bool) -> bool {
    if member {
        mask.insert(node)
    } else {
        mask.remove(node)
    }
}

/// Handles to the deterministic instruments the cluster layer updates
/// (registered once in [`ClusterSim::new`], bumped on the hot path via
/// index access — no name lookups per tick).
#[derive(Clone, Copy)]
struct ObsInstruments {
    /// Control cycles executed (manager or budget controller).
    cycles: CounterHandle,
    /// Throttling commands applied to nodes (includes retried sends).
    commands_applied: CounterHandle,
    /// Commands whose send failed (dead node or frozen actuator).
    commands_failed: CounterHandle,
    /// Retry sends attempted against previously frozen actuators.
    actuation_retries: CounterHandle,
    /// Green/Yellow → Red transitions.
    red_entries: CounterHandle,
    /// Control cycles spent in the Red state (dwell time in cycles).
    red_dwell_cycles: CounterHandle,
    /// Per-cycle selection size |A_target| (commands issued).
    selection_size: HistogramHandle,
    /// Last metered facility power, W.
    metered_power_w: GaugeHandle,
    /// Journal events evicted by the bounded ring so far.
    journal_dropped: GaugeHandle,
    /// SLO alerts currently firing.
    health_alerts_open: GaugeHandle,
    /// SLO alert open/resolve edges emitted, cumulative.
    health_alert_edges: CounterHandle,
}

impl ObsInstruments {
    /// Bucket bounds for the selection-size histogram (commands/cycle).
    const SELECTION_BOUNDS: [f64; 8] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

    fn register(m: &mut MetricsRegistry) -> Self {
        ObsInstruments {
            cycles: m.counter("control_cycles_total"),
            commands_applied: m.counter("commands_applied_total"),
            commands_failed: m.counter("commands_failed_total"),
            actuation_retries: m.counter("actuation_retries_total"),
            red_entries: m.counter("red_entries_total"),
            red_dwell_cycles: m.counter("red_dwell_cycles_total"),
            selection_size: m.histogram("selection_size", &Self::SELECTION_BOUNDS),
            metered_power_w: m.gauge("metered_power_w"),
            journal_dropped: m.gauge("journal_events_dropped"),
            health_alerts_open: m.gauge("health_alerts_open"),
            health_alert_edges: m.counter("health_alert_edges_total"),
        }
    }
}

/// Handles to the hierarchy-specific instruments, registered only when a
/// *multi-rack* hierarchical manager is attached. A single-rack hierarchy
/// is the flat architecture and keeps the flat registry: the metrics
/// fingerprint walks instrument names, and the flat fingerprints are
/// pinned golden values.
#[derive(Clone)]
struct HierInstruments {
    /// Rack budgets moved by delegation passes, cumulative.
    redelegations: CounterHandle,
    /// Rack budgets drained to zero (all nodes offline), cumulative.
    budget_drains: CounterHandle,
    /// Racks classified Yellow on the last rolled-up cycle.
    racks_yellow: GaugeHandle,
    /// Racks classified Red on the last rolled-up cycle.
    racks_red: GaugeHandle,
    /// Delegated budget per rack, watts — first [`Self::MAX_RACK_GAUGES`]
    /// racks only (per-rack gauges at 100k-node scale would swamp the
    /// registry and its fingerprint walk).
    rack_budget: Vec<GaugeHandle>,
}

impl HierInstruments {
    /// Per-rack budget gauges are capped; beyond this, aggregates only.
    const MAX_RACK_GAUGES: usize = 16;

    fn register(m: &mut MetricsRegistry, racks: usize) -> Self {
        HierInstruments {
            redelegations: m.counter("hier_redelegations_total"),
            budget_drains: m.counter("hier_budget_drains_total"),
            racks_yellow: m.gauge("hier_racks_yellow"),
            racks_red: m.gauge("hier_racks_red"),
            rack_budget: (0..racks.min(Self::MAX_RACK_GAUGES))
                .map(|r| m.gauge(rack_gauge_name(r)))
                .collect(),
        }
    }
}

/// The registry holds `&'static str` names; the per-rack gauge names are
/// interned once per process (bounded by `MAX_RACK_GAUGES`), so repeated
/// sim construction never re-leaks.
fn rack_gauge_name(r: usize) -> &'static str {
    static NAMES: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    NAMES.get_or_init(|| {
        (0..HierInstruments::MAX_RACK_GAUGES)
            .map(|i| &*Box::leak(format!("hier_rack{i:02}_budget_w").into_boxed_str()))
            .collect()
    })[r]
}

/// Level lookup over the node array.
struct NodesView<'a>(&'a [Node]);

impl LevelView for NodesView<'_> {
    fn level_of(&self, node: NodeId) -> Level {
        self.0[node.0 as usize].level()
    }
    fn highest_of(&self, node: NodeId) -> Level {
        self.0[node.0 as usize].highest_level()
    }
}

/// The integrated cluster simulation.
///
/// `Clone` produces a deep, independent copy of every piece of mutable
/// state (RNG streams, columns, wheel, controller, journal, observability)
/// while sharing the immutable `Arc<PowerModel>`/`Arc<NodeSpec>` tables —
/// the substrate of the what-if snapshot/branch subsystem (`ppc-whatif`).
/// A branched clone stepped N ticks is bit-identical to the original
/// stepped N ticks, fingerprint for fingerprint.
#[derive(Clone)]
pub struct ClusterSim {
    spec: ClusterSpec,
    clock: TickClock,
    /// Per-node power model (group-shared Arcs).
    models: Vec<Arc<PowerModel>>,
    nodes: Vec<Node>,
    scheduler: Scheduler,
    queue: JobQueue,
    generator: JobGenerator,
    /// Fixed-trace replay source (replaces the generator when present).
    trace_source: Option<TraceSource>,
    agents: Vec<ProfilingAgent>,
    meter: SystemPowerMeter,
    collector: Collector,
    /// Alternative control architecture: the related-work proportional
    /// budget controller (mutually exclusive with `hierarchy`).
    budget_controller: Option<ProportionalBudgetController>,
    /// The paper's control plane: per-rack sub-managers under delegated
    /// budgets. The flat manager is its one-rack case.
    hierarchy: Option<HierarchicalManager>,
    /// Hierarchy instruments (`Some` only for multi-rack hierarchies).
    hier_i: Option<HierInstruments>,
    /// Per-rack job observations, kept in place across ticks (one rack
    /// under the single-rack hierarchy).
    rack_obs: RackObs,
    /// Per-rack true power snapshot taken at the top of the control
    /// cycle (multi-rack hierarchy only).
    scratch_rack_true: Vec<f64>,
    /// Reused buffers of the multi-rack control cycle.
    fanout: FanoutScratch,
    /// Per-rack Green/Yellow/Red states mapped into rollup zones
    /// (multi-rack hierarchy only).
    scratch_rack_zone: Vec<ZoneState>,
    /// Fleet health plane: hierarchical rollups, quantile sketches and
    /// SLO burn-rate alerting. Fingerprinted into the determinism gate.
    health: HealthPlane,
    true_power: TimeSeries,
    finished: Vec<JobRecord>,
    cost_meter: CycleCostMeter,
    commands_applied: u64,
    /// `(state, at)` log of control-cycle classifications.
    state_log: Vec<(SimTime, PowerState)>,
    /// Earliest instant the next job may be submitted (think time).
    next_submit_at: SimTime,
    arrival_rng: ppc_simkit::DetRng,
    /// Bounded audit trail of notable events.
    journal: Journal,
    /// Power state at the previous control cycle (for edge detection).
    last_state: Option<PowerState>,
    /// Peak die temperature seen so far, °C (thermal model only).
    peak_temp_c: f64,
    /// `∫ mean relative-failure-rate dt` (reference = ambient), in
    /// rate-seconds (thermal model only).
    failure_integral: f64,
    /// Fault injection (`None` = a perfectly healthy machine).
    faults: Option<FaultState>,
    /// Nodes removed permanently via [`ClusterSim::decommission_node`]:
    /// the fault schedule was generated before they left, so its pending
    /// edges for them (a reboot above all) must be ignored.
    decommissioned: BTreeSet<NodeId>,
    /// Observability: span tree, instruments, flight recorder, profiler.
    obs: ObsHub,
    /// Pre-registered instrument handles into `obs.metrics`.
    obs_i: ObsInstruments,
    /// Requested evaluation mode (`Incremental` may be forced to the
    /// dense path at runtime; see [`ClusterSim::incremental_active`]).
    eval_mode: EvalMode,
    /// Dense per-node columns (power, speed, down, stamps) + dirty set.
    columns: NodeColumns,
    /// Timer wheel carrying the arrival gate and the control-cycle period.
    wheel: TimeWheel<WheelEvent>,
    /// Completed ticks; the tick being computed inside `step()` is
    /// `tick_index + 1` and stamps `now1 = tick · τ`.
    tick_index: u64,
    /// Whether the think-time gate is open (wheel-driven mirror of
    /// `next_submit_at`).
    arrival_gate_open: bool,
    /// Last tick each node's agent produced (or had its baseline advanced
    /// to) a sample; 0 = never.
    last_sampled_tick: Vec<u64>,
    /// Last tick each node's operating state was (re)materialized — the
    /// moment its state may have changed — or its agent stopped being
    /// sampled (SLA protection, silence, crash). A candidate whose
    /// `last_sampled_tick` predates this was not being sampled when the
    /// change landed: its next sample must accumulate the whole gap for
    /// real instead of replaying identical intervals.
    state_epoch: Vec<u64>,
    /// Nodes real-sampled last cycle (lazy regime): their collector
    /// prev-power view settles this cycle (dense re-ingestion of the
    /// identical sample shifts `prev := latest`; `refresh` reproduces it).
    settle_pending: Vec<u32>,
    /// Nodes that must be real-sampled *this* cycle even if clean: SLA
    /// rejoiners (their baseline spans the protection window) and staged
    /// follow-ups from `resample_next`.
    resample_now: Vec<u32>,
    /// Nodes whose telemetry freshness may have changed since the last
    /// control cycle: fault edges, candidate-set toggles, due staleness
    /// deadlines (lazy regime under faults; emptied every tick).
    fresh_suspects: Vec<NodeId>,
    /// Forced re-samples staged for the next cycle: a sample whose delta
    /// did not span exactly one tick (first-ever sample, post-protection
    /// gap) produces a value the next dense sample would not repeat.
    resample_next: Vec<u32>,
    /// Memoized per-node saving predictions for observation building.
    obs_cache: ppc_core::NodeObsCache,
    /// Whether the previous tick's dirty set was non-empty (the
    /// collector's prev-power needs one extra cycle to stabilize).
    dirty_prev: bool,
    /// Per-tick scratch buffers, reused across ticks so the steady-state
    /// step path performs no per-tick allocation.
    scratch_loads: Vec<OperatingState>,
    scratch_samples: Vec<NodeSample>,
    scratch_views: Vec<BudgetNodeView>,
    scratch_transitions: Vec<FaultTransition>,
    scratch_down: Vec<bool>,
    scratch_dirty: Vec<u32>,
    scratch_edges: Vec<NodeId>,
    scratch_events: Vec<WheelEvent>,
    scratch_sampled: Vec<u32>,
    scratch_settle: Vec<u32>,
}

impl ClusterSim {
    /// Builds an unmanaged cluster (baseline runs, training substrate).
    pub fn new(spec: ClusterSpec) -> Self {
        spec.validate();
        let factory = RngFactory::new(spec.seed);
        let tau = spec.tick.as_secs_f64();
        // One (spec, model) pair per partition, shared by its nodes.
        let mut groups: Vec<(Arc<ppc_node::NodeSpec>, Arc<PowerModel>, u32)> = Vec::new();
        let base = Arc::new(spec.node_spec.clone());
        groups.push((Arc::clone(&base), base.power_model(tau), spec.node_count));
        for g in &spec.extra_groups {
            let gs = Arc::new(g.spec.clone());
            let gm = gs.power_model(tau);
            groups.push((gs, gm, g.count));
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(spec.total_nodes() as usize);
        let mut models: Vec<Arc<PowerModel>> = Vec::with_capacity(nodes.capacity());
        let mut next_id = 0u32;
        for (gspec, gmodel, count) in &groups {
            for _ in 0..*count {
                nodes.push(Node::new(
                    NodeId(next_id),
                    Arc::clone(gspec),
                    Arc::clone(gmodel),
                ));
                models.push(Arc::clone(gmodel));
                next_id += 1;
            }
        }
        for &p in &spec.privileged {
            nodes[p.0 as usize].set_privileged(true);
        }
        let admission = if spec.backfill {
            AdmissionPolicy::Backfill
        } else {
            AdmissionPolicy::FifoFirstFit
        };
        let scheduler = Scheduler::new(spec.node_ids(), base.cores()).with_admission(admission);
        let admissible_nprocs = spec.max_nprocs().min(256);
        let generator = JobGenerator::new(factory, spec.class, admissible_nprocs)
            .with_critical_fraction(spec.critical_job_fraction);
        let trace_source = spec
            .job_trace
            .as_ref()
            .map(|entries| TraceSource::new(entries.clone(), factory));
        let agents = spec
            .node_ids()
            .map(|id| ProfilingAgent::new(spec.agent_noise, factory.stream("agent", id.0 as u64)))
            .collect();
        let meter = SystemPowerMeter::new(spec.meter_noise, factory.stream("meter", 0));
        let mut obs = ObsHub::new();
        let obs_i = ObsInstruments::register(&mut obs.metrics);
        let n_total = nodes.len();
        let mut wheel = TimeWheel::new();
        // The control cycle is a fixed-period wheel event, re-armed each
        // tick; arm the first firing.
        wheel.schedule(1, WheelEvent::ControlDue);
        ClusterSim {
            clock: TickClock::new(spec.tick),
            models,
            nodes,
            scheduler,
            queue: JobQueue::new(),
            generator,
            trace_source,
            agents,
            meter,
            collector: Collector::new(),
            budget_controller: None,
            hierarchy: None,
            hier_i: None,
            rack_obs: RackObs::new(n_total.max(1) as u32, 1),
            scratch_rack_true: Vec::new(),
            fanout: FanoutScratch::default(),
            scratch_rack_zone: Vec::new(),
            health: HealthPlane::new(ZoneMap::single_rack()),
            true_power: TimeSeries::new(),
            finished: Vec::new(),
            cost_meter: CycleCostMeter::new(),
            commands_applied: 0,
            state_log: Vec::new(),
            next_submit_at: SimTime::ZERO,
            arrival_rng: factory.stream("arrivals", 0),
            journal: Journal::new(16_384).with_min_severity(Severity::Info),
            last_state: None,
            peak_temp_c: f64::NEG_INFINITY,
            failure_integral: 0.0,
            faults: None,
            decommissioned: BTreeSet::new(),
            obs,
            obs_i,
            eval_mode: EvalMode::default(),
            columns: NodeColumns::new(n_total),
            wheel,
            tick_index: 0,
            arrival_gate_open: true,
            last_sampled_tick: vec![0; n_total],
            state_epoch: vec![0; n_total],
            settle_pending: Vec::new(),
            resample_now: Vec::new(),
            fresh_suspects: Vec::new(),
            resample_next: Vec::new(),
            obs_cache: ppc_core::NodeObsCache::new(),
            dirty_prev: false,
            scratch_loads: Vec::new(),
            scratch_samples: Vec::new(),
            scratch_views: Vec::new(),
            scratch_transitions: Vec::new(),
            scratch_down: Vec::new(),
            scratch_dirty: Vec::new(),
            scratch_edges: Vec::new(),
            scratch_events: Vec::new(),
            scratch_sampled: Vec::new(),
            scratch_settle: Vec::new(),
            spec,
        }
    }

    /// Selects the evaluation strategy. `Incremental` (the default) and
    /// `Full` are bit-identical; `Full` exists as the dense reference the
    /// determinism gate and the differential tests compare against.
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        self
    }

    /// The regime that drives this run: [`EvalMode::Incremental`] unless
    /// it was not requested or a feature it cannot represent forces the
    /// dense path (see [`EvalMode::Incremental`]).
    pub fn eval_mode(&self) -> EvalMode {
        if self.incremental_active() {
            EvalMode::Incremental
        } else {
            EvalMode::Full
        }
    }

    /// True when the dirty-set incremental path drives this run. The
    /// dense path is forced for features incremental evaluation cannot
    /// represent: the budget controller samples every node every cycle,
    /// thermal models integrate every node every tick, and agent sampling
    /// noise draws per-sample RNG that a skipped sample would desync.
    fn incremental_active(&self) -> bool {
        self.eval_mode == EvalMode::Incremental
            && self.budget_controller.is_none()
            && !self.thermal_enabled()
            && self.spec.agent_noise == NoiseModel::NONE
    }

    /// True when the lazy control regime may sample only what changed and
    /// keep job observations across ticks. A meter that can drop readings
    /// skips cycles, widening the next sample's interval in a way a kept
    /// observation could not represent; a capped candidate set moves
    /// *other* nodes in and out when one node's flags toggle, so the
    /// regime could not tell which nodes joined.
    fn lazy_control_ok(&self) -> bool {
        self.spec.meter_noise.dropout_prob == 0.0
            && self
                .hierarchy
                .as_ref()
                .is_none_or(|h| h.sets().candidate_cap().is_none())
    }

    /// First tick whose start instant `(T−1)·τ` reaches `at` — when the
    /// think-time gate scheduled for `at` opens.
    fn gate_open_tick(at: SimTime, tau: SimDuration) -> u64 {
        let tau_ms = tau.as_millis().max(1);
        at.as_millis().div_ceil(tau_ms) + 1
    }

    /// The dense node columns (power/speed/down/stamps + dirty set).
    pub fn columns(&self) -> &NodeColumns {
        &self.columns
    }

    /// Applies a DVFS level to a node and keeps the derived columns
    /// coherent: the speed column updates immediately (job progress reads
    /// it next tick, exactly when a dense rebuild would see the new
    /// level), while the power change is staged dirty for the next tick
    /// (this tick's power was already summed before actuation).
    fn actuate_level(&mut self, node: NodeId, level: Level) {
        self.nodes[node.0 as usize]
            .set_level(level)
            // ppc-lint: allow(panic-path): candidates are never privileged and levels come from the node's own ladder
            .expect("commands are validated against the ladder");
        let speed = self.nodes[node.0 as usize].relative_speed();
        self.columns.set_speed(node, speed);
        self.columns.dirty.mark_next(node);
    }

    /// Attaches a fault-injection schedule. Node crashes evict and requeue
    /// the hosted job (up to the injection's requeue cap), remove the node
    /// from scheduling, telemetry, and the candidate set, and rejoin it at
    /// the lowest DVFS level on reboot. Hangs freeze the DVFS actuator
    /// (commands fail and retry with backoff); silences and partitions
    /// stop agent samples, driving the manager's staleness/coverage
    /// fallback.
    ///
    /// # Panics
    /// Panics if the schedule targets nodes outside the cluster.
    pub fn with_faults(mut self, injection: FaultInjection) -> Self {
        let engine = FaultEngine::new(&injection.schedule, self.spec.total_nodes());
        self.faults = Some(FaultState {
            engine,
            requeue_cap: injection.requeue_cap,
            staleness_limit: injection.staleness_limit,
            jobs_requeued: 0,
            jobs_failed: 0,
            commands_failed: 0,
            retries: Vec::new(),
            fresh: NodeMask::default(),
            silent: NodeMask::default(),
            flipped: Vec::new(),
        });
        // Every node's freshness is derived on the first cycle.
        self.fresh_suspects
            .extend((0..self.nodes.len() as u32).map(NodeId));
        self
    }

    /// Does nothing: the tick runs on one thread and takes no worker
    /// pool. Kept only because the repository benchmark still calls it;
    /// the next change to the benchmark drops those calls, and then this
    /// method.
    pub fn with_worker_pool(self, _pool: Arc<WorkerPool>) -> Self {
        self
    }

    /// Attaches the paper's flat power manager (built by the caller from
    /// a [`ppc_core::ManagerConfig`] and node classification). The manager
    /// is adopted unchanged as the one rack of a single-rack hierarchy
    /// ([`HierarchicalManager::from_racks`]) and attached through
    /// [`ClusterSim::with_hierarchy`]; [`ClusterSim::manager`] reads it back.
    ///
    /// # Panics
    /// Panics if another controller is attached or the manager's node
    /// sets do not cover the cluster exactly.
    pub fn with_manager(self, manager: PowerManager) -> Self {
        let one_rack = Topology::single_rack(self.spec.total_nodes())
            .and_then(|topology| {
                HierarchicalManager::from_racks(
                    *manager.config(),
                    topology,
                    vec![manager],
                    self.spec.node_weights_w(),
                )
            })
            // ppc-lint: allow(panic-path): documented builder contract, like with_hierarchy's asserts
            .unwrap_or_else(|e| panic!("the manager must cover the cluster: {e}"));
        self.with_hierarchy(one_rack)
    }

    /// Attaches the related-work proportional-budget controller instead of
    /// the paper's power manager (architecture baseline: monitors *every*
    /// node, splits the budget proportionally each cycle, job-blind).
    ///
    /// # Panics
    /// Panics if a power manager is already attached.
    pub fn with_budget_controller(mut self, controller: ProportionalBudgetController) -> Self {
        assert!(
            self.hierarchy.is_none(),
            "power manager and budget controller are mutually exclusive"
        );
        self.budget_controller = Some(controller);
        self
    }

    /// The attached budget controller, if any.
    pub fn budget_controller(&self) -> Option<&ProportionalBudgetController> {
        self.budget_controller.as_ref()
    }

    /// Attaches the hierarchical control plane (built by the caller from
    /// a facility [`ppc_core::ManagerConfig`] and [`ppc_core::Topology`]).
    /// Installs the topology's shard-contiguous layout on the node
    /// columns so per-rack fleet sums stay dense index-order folds.
    /// Hierarchy instruments register only on multi-rack topologies: a
    /// single-rack hierarchy is the flat architecture and must
    /// fingerprint like it.
    ///
    /// # Panics
    /// Panics if another controller is attached or the topology does not
    /// cover the cluster exactly.
    pub fn with_hierarchy(mut self, hierarchy: HierarchicalManager) -> Self {
        assert!(
            self.hierarchy.is_none() && self.budget_controller.is_none(),
            "power manager and budget controller are mutually exclusive"
        );
        assert_eq!(
            hierarchy.topology().node_count() as usize,
            self.nodes.len(),
            "topology must cover the cluster exactly"
        );
        let racks = hierarchy.topology().racks();
        let shards: Vec<(u32, u32)> = (0..racks)
            .map(|r| {
                let range = hierarchy.topology().rack_nodes(r);
                (range.start, range.end)
            })
            .collect();
        self.columns.set_shards(shards);
        if !hierarchy.is_single_rack() {
            self.hier_i = Some(HierInstruments::register(&mut self.obs.metrics, racks));
            // The health rollup mirrors the delegation topology. A
            // single-rack hierarchy (the flat architecture) keeps the
            // single-zone map.
            let topo = hierarchy.topology();
            let map = ZoneMap::new((0..racks).map(|r| topo.row_of_rack(r) as u32).collect());
            self.health = HealthPlane::new(map);
        }
        self.rack_obs = RackObs::new(hierarchy.topology().nodes_per_rack(), racks);
        self.hierarchy = Some(hierarchy);
        self
    }

    /// The attached hierarchical manager, if any.
    pub fn hierarchy(&self) -> Option<&HierarchicalManager> {
        self.hierarchy.as_ref()
    }

    /// Mutable access to the hierarchical manager (what-if mutations).
    pub fn hierarchy_mut(&mut self) -> Option<&mut HierarchicalManager> {
        self.hierarchy.as_mut()
    }

    /// Control statistics of the attached power manager (`None` for
    /// unmanaged and budget runs).
    pub fn control_stats(&self) -> Option<ManagerStats> {
        self.hierarchy.as_ref().map(|h| h.stats())
    }

    /// The provision capability currently in force in the attached power
    /// manager (`None` for unmanaged and budget runs).
    pub fn provision_in_force_w(&self) -> Option<f64> {
        self.hierarchy.as_ref().map(|h| h.config().p_provision_w)
    }

    /// The fleet health plane (rollups, sketches, SLO alert journal).
    pub fn health(&self) -> &HealthPlane {
        &self.health
    }

    /// Enables or disables health-plane observation (the bench harness
    /// measures rollup overhead by differencing the two).
    pub fn set_health_enabled(&mut self, enabled: bool) {
        self.health.set_enabled(enabled);
    }

    /// The health plane's three determinism-gate fingerprints
    /// (rollup tree / sketches / alert journal).
    pub fn health_fingerprints(&self) -> HealthFingerprints {
        self.health.fingerprints()
    }

    /// The cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The true (unmetered) power trace.
    pub fn true_power(&self) -> &TimeSeries {
        &self.true_power
    }

    /// The facility meter (noisy readings, history).
    pub fn meter(&self) -> &SystemPowerMeter {
        &self.meter
    }

    /// Finished-job records, in completion order.
    pub fn finished(&self) -> &[JobRecord] {
        &self.finished
    }

    /// The flat power manager: the one rack's sub-manager under a
    /// single-rack hierarchy (`None` for unmanaged, budget and multi-rack
    /// runs).
    pub fn manager(&self) -> Option<&PowerManager> {
        self.hierarchy
            .as_ref()
            .filter(|h| h.is_single_rack())
            .map(|h| &h.subs()[0])
    }

    /// Measured mean management cost per control cycle, seconds.
    pub fn mean_mgmt_cost_secs(&self) -> f64 {
        self.cost_meter.mean_cycle_secs()
    }

    /// Throttling commands actually applied to nodes.
    pub fn commands_applied(&self) -> u64 {
        self.commands_applied
    }

    /// The fault engine, if fault injection is attached.
    pub fn fault_engine(&self) -> Option<&FaultEngine> {
        self.faults.as_ref().map(|f| &f.engine)
    }

    /// The candidates whose telemetry was fresh at the last control cycle
    /// (`None` without fault injection): the set the manager selected
    /// from, whose share of the candidates is its coverage.
    pub fn fresh_candidates(&self) -> Option<&NodeMask> {
        self.faults.as_ref().map(|fs| &fs.fresh)
    }

    /// Jobs evicted from dead nodes and successfully requeued (0 without
    /// fault injection).
    pub fn jobs_requeued(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.jobs_requeued)
    }

    /// Jobs dropped after exhausting the requeue cap (0 without faults).
    pub fn jobs_failed(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.jobs_failed)
    }

    /// DVFS commands whose first send failed against a dead or frozen
    /// actuator (0 without faults).
    pub fn commands_failed(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.commands_failed)
    }

    /// The availability report for the run so far (`None` without fault
    /// injection). Open outages are charged up to the current instant.
    pub fn availability_report(&self) -> Option<AvailabilityReport> {
        let fs = self.faults.as_ref()?;
        let now = self.clock.now();
        let stats = fs.engine.stats_at(now);
        let (red_cycles, conservative_cycles, total_cycles) = match self.control_stats() {
            Some(s) => (s.red_cycles, s.conservative_cycles, s.cycles),
            None => {
                let red = self
                    .state_log
                    .iter()
                    .filter(|(_, s)| *s == PowerState::Red)
                    .count() as u64;
                (red, 0, self.state_log.len() as u64)
            }
        };
        Some(AvailabilityReport::compute(&AvailabilityInputs {
            crashes: stats.crashes,
            hangs: stats.hangs,
            silences: stats.silences,
            repairs: stats.repairs,
            node_seconds_lost: stats.node_seconds_lost,
            repair_secs_total: stats.repair_secs_total,
            jobs_requeued: fs.jobs_requeued,
            jobs_failed: fs.jobs_failed,
            commands_failed: fs.commands_failed,
            red_cycles,
            conservative_cycles,
            total_cycles,
            node_count: self.spec.total_nodes(),
            window_secs: now.as_secs_f64(),
        }))
    }

    /// The bounded event journal (job lifecycle, state flips, thresholds).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The observability hub: span tree, metrics registry, flight
    /// recorder, and self-profiler.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Mutable hub access (exporters drain the profiler; tests poke
    /// instruments).
    pub fn obs_mut(&mut self) -> &mut ObsHub {
        &mut self.obs
    }

    /// FNV-1a fingerprint of every closed control-cycle span, for the
    /// determinism gate (bit-identical across same-seed runs).
    pub fn span_fingerprint(&self) -> u64 {
        self.obs.spans.fingerprint()
    }

    /// FNV-1a fingerprint of the metrics registry, for the determinism
    /// gate.
    pub fn metrics_fingerprint(&self) -> u64 {
        self.obs.metrics.fingerprint()
    }

    /// Control-cycle state classifications (time, state).
    pub fn state_log(&self) -> &[(SimTime, PowerState)] {
        &self.state_log
    }

    /// Node power levels (index = node id), for assertions and reports.
    pub fn node_levels(&self) -> Vec<Level> {
        self.nodes.iter().map(Node::level).collect()
    }

    /// Fraction of nodes currently allocated to jobs.
    pub fn utilization(&self) -> f64 {
        self.scheduler.utilization()
    }

    /// Number of running jobs.
    pub fn running_jobs(&self) -> usize {
        self.scheduler.running_jobs().len()
    }

    /// Number of queued (not yet placed) jobs.
    pub fn queued_jobs(&self) -> usize {
        self.queue.len()
    }

    /// True while `id` sits in the pending queue (what-if admission
    /// checks: an injected job still queued at the horizon was denied a
    /// placement).
    pub fn job_is_queued(&self, id: JobId) -> bool {
        self.queue.iter().any(|j| j.id() == id)
    }

    /// Completed ticks since construction (`now() == tick_index · τ`).
    pub fn tick_index(&self) -> u64 {
        self.tick_index
    }

    /// Replaces the bounded journal ring with one of `capacity` events
    /// (builder; call before stepping — any prior contents are discarded).
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.journal = Journal::new(capacity).with_min_severity(Severity::Info);
        self
    }

    /// Submits a fully specified hypothetical job to the queue — the
    /// what-if "admit this job mix" mutation. The job is synthesized by
    /// the run's own generator (its phase jitter comes from the same
    /// id-keyed stream a generated job would use) and queued behind any
    /// existing backlog; the scheduler places it on the next tick.
    ///
    /// Call at a tick boundary (between [`ClusterSim::step`] calls).
    pub fn inject_job(
        &mut self,
        app: NpbApp,
        class: Class,
        nprocs: u32,
        priority: JobPriority,
    ) -> JobId {
        let now = self.clock.now();
        let job = self.generator.synthesize(app, class, nprocs, priority, now);
        let id = job.id();
        self.journal.record_with(now, Severity::Info, "whatif", || {
            format!("{id} injected: {app} class {class} x{nprocs} ({priority:?})")
        });
        self.queue.push(job);
        id
    }

    /// Permanently removes a node from the cluster — the what-if "drop N
    /// nodes" mutation. Mirrors the fault path's crash handling (the job
    /// hosted on the node is evicted and requeued, the node leaves the
    /// scheduler, telemetry, and the candidate set) except that no reboot
    /// ever rejoins it. Returns `false` if the node is already down.
    ///
    /// Call at a tick boundary (between [`ClusterSim::step`] calls): the
    /// dirty marks are staged for the next tick.
    ///
    /// # Panics
    /// Panics if `n` is outside the cluster.
    pub fn decommission_node(&mut self, n: NodeId) -> bool {
        assert!(
            (n.0 as usize) < self.nodes.len(),
            "node {} outside the cluster",
            n.0
        );
        if self.columns.is_down(n) {
            return false;
        }
        let now = self.clock.now();
        let tick = self.tick_index;
        let dt = self.clock.dt_secs();
        let incremental = self.incremental_active();
        if let Some(fs) = self.faults.as_mut() {
            // Whatever command we owed the node is moot.
            fs.retries.retain(|r| r.node != n);
        }
        if let Some(mut job) = self.scheduler.evict_job_on(n) {
            // Release dynamic SLA protection, mirroring the completion
            // path: the job is no longer running. A released node rejoins
            // the candidate set between ticks: the lazy regime must take a
            // real sample next cycle (its delta spans the whole protection
            // window).
            if job.priority() == JobPriority::Critical {
                let lazy = incremental && self.lazy_control_ok();
                self.release_sla(job.nodes(), |m| lazy && m != n);
            }
            // Co-members lose their load starting next tick.
            for &m in job.nodes() {
                self.columns.dirty.mark_next(m);
            }
            self.rack_obs.note_departure(job.nodes());
            let id = job.id();
            job.requeue();
            let attempt = job.requeues();
            self.queue.push_front(job);
            self.journal.record_with(now, Severity::Warn, "whatif", || {
                format!(
                    "{id} evicted: node {} decommissioned, requeued (attempt {attempt})",
                    n.0
                )
            });
        }
        self.scheduler.set_node_down(n);
        if incremental {
            // Freeze the node's counters at the boundary: catch up the
            // quiescent interval it sat clean (same state throughout, so
            // the closed form is exact) before zeroing its power entry.
            let behind = tick - self.columns.stamp_of(n);
            if behind > 0 {
                self.nodes[n.0 as usize].catch_up(dt, behind);
                self.columns.set_stamp(n, tick);
            }
        }
        self.columns.set_down(n);
        self.columns.dirty.mark_next(n);
        self.collector.forget(n);
        if let Some(h) = self.hierarchy.as_mut() {
            h.note_node_down(n);
        }
        self.fresh_suspects.push(n);
        // The fault schedule predates the decommission: mask its pending
        // edges for this node (a reboot must not resurrect it).
        self.decommissioned.insert(n);
        self.journal.record_with(now, Severity::Warn, "whatif", || {
            format!("node {} decommissioned", n.0)
        });
        true
    }

    /// Ends a critical job's dynamic SLA protection: every member that is
    /// not statically privileged in the cluster spec is un-privileged and
    /// handed back to the control plane; `resample(m)` says whether the
    /// lazy regime must take a real sample of released node `m`.
    fn release_sla(&mut self, members: &[NodeId], resample: impl Fn(NodeId) -> bool) {
        for &m in members {
            if self.spec.privileged.contains(&m) {
                continue;
            }
            self.nodes[m.0 as usize].set_privileged(false);
            if let Some(h) = self.hierarchy.as_mut() {
                h.set_privileged(m, false);
            }
            self.fresh_suspects.push(m);
            if resample(m) {
                self.resample_now.push(m.0);
            }
        }
    }

    /// Replays the fault schedule up to `now` and reacts to every edge:
    /// crashed nodes are evicted, de-scheduled, forgotten by telemetry and
    /// dropped from `A_candidate`; rebooted nodes rejoin at the lowest
    /// DVFS level and re-enter the candidate set as degraded (steady-green
    /// recovery promotes them back one level at a time).
    ///
    /// In the lazy regime a node going dark (crash, silence) has its agent
    /// frozen where dense sampling left it, and one coming back (reboot,
    /// telemetry restored) takes a real sample this very tick, as dense
    /// does. Every edge makes its node a freshness suspect.
    fn fault_tick(&mut self, now: SimTime, dt: f64, tick: u64, incremental: bool, lazy: bool) {
        let Some(mut fs) = self.faults.take() else {
            return;
        };
        self.scratch_transitions.clear();
        self.scratch_transitions
            .extend_from_slice(fs.engine.advance_traced(now, &mut self.obs.spans));
        for i in 0..self.scratch_transitions.len() {
            let edge = self.scratch_transitions[i];
            let (FaultTransition::NodeDown(n)
            | FaultTransition::NodeUp(n)
            | FaultTransition::HangStart(n)
            | FaultTransition::HangEnd(n)
            | FaultTransition::SilenceStart(n)
            | FaultTransition::SilenceEnd(n)) = edge;
            if self.decommissioned.contains(&n) {
                // Decommissioned nodes are gone for good: the schedule's
                // remaining edges for them are void.
                continue;
            }
            match edge {
                FaultTransition::NodeDown(n) | FaultTransition::SilenceStart(n) => {
                    self.fresh_suspects.push(n);
                    if lazy {
                        let i = n.0 as usize;
                        freeze_agent(
                            &mut self.agents[i],
                            &self.nodes[i],
                            &mut self.last_sampled_tick[i],
                            &mut self.state_epoch[i],
                            dt,
                            tick,
                        );
                    }
                }
                FaultTransition::NodeUp(n) | FaultTransition::SilenceEnd(n) => {
                    self.fresh_suspects.push(n);
                    if lazy {
                        self.resample_now.push(n.0);
                    }
                }
                FaultTransition::HangStart(_) | FaultTransition::HangEnd(_) => {}
            }
            match edge {
                FaultTransition::NodeDown(n) => {
                    // The node is dead: whatever command we owed it is moot.
                    fs.retries.retain(|r| r.node != n);
                    if let Some(mut job) = self.scheduler.evict_job_on(n) {
                        // Release dynamic SLA protection, mirroring the
                        // completion path: the job is no longer running.
                        // Released co-members rejoin the candidate set
                        // this tick: the lazy regime samples them for real.
                        if job.priority() == JobPriority::Critical {
                            self.release_sla(job.nodes(), |m| lazy && m != n);
                        }
                        // The dead node's co-members lose their load this
                        // very tick.
                        for &m in job.nodes() {
                            self.columns.dirty.mark(m);
                        }
                        self.rack_obs.note_departure(job.nodes());
                        let id = job.id();
                        if job.requeues() >= fs.requeue_cap {
                            fs.jobs_failed += 1;
                            let cap = fs.requeue_cap;
                            self.journal.record_with(now, Severity::Warn, "fault", || {
                                format!(
                                    "{id} failed: node {} died, requeue cap {cap} exhausted",
                                    n.0
                                )
                            });
                        } else {
                            job.requeue();
                            let attempt = job.requeues();
                            self.queue.push_front(job);
                            fs.jobs_requeued += 1;
                            self.journal.record_with(now, Severity::Warn, "fault", || {
                                format!(
                                    "{id} evicted: node {} died, requeued (attempt {attempt})",
                                    n.0
                                )
                            });
                        }
                    }
                    self.scheduler.set_node_down(n);
                    if incremental {
                        // Freeze the node's counters at the last pre-crash
                        // tick: catch up the quiescent interval it sat
                        // clean (same state throughout, so the closed form
                        // is exact), then zero its power column entry.
                        let behind = tick - 1 - self.columns.stamp_of(n);
                        if behind > 0 {
                            self.nodes[n.0 as usize].catch_up(dt, behind);
                            self.columns.set_stamp(n, tick - 1);
                        }
                    }
                    self.columns.set_down(n);
                    self.columns.dirty.mark(n);
                    self.collector.forget(n);
                    if let Some(h) = self.hierarchy.as_mut() {
                        h.note_node_down(n);
                    }
                    self.journal.record_with(now, Severity::Warn, "fault", || {
                        format!("node {} down", n.0)
                    });
                    self.obs.flight.trigger(
                        now,
                        format!("fault: node {} down", n.0),
                        &self.obs.spans,
                        &self.obs.metrics,
                    );
                }
                FaultTransition::NodeUp(n) => {
                    self.scheduler.set_node_up(n);
                    // The reboot resumes evaluation from here: the next
                    // materialization has nothing to catch up (the outage
                    // accrued no counters).
                    self.columns.set_up(n, tick.saturating_sub(1));
                    self.columns.dirty.mark(n);
                    let node = &mut self.nodes[n.0 as usize];
                    if !node.is_privileged() {
                        // ppc-lint: allow(panic-path): guarded by the is_privileged() check one line up
                        node.force_lowest().expect("node checked not privileged");
                    }
                    let speed = node.relative_speed();
                    self.columns.set_speed(n, speed);
                    if let Some(h) = self.hierarchy.as_mut() {
                        h.note_node_rejoined(n);
                    }
                    self.journal.record_with(now, Severity::Info, "fault", || {
                        format!("node {} rebooted, rejoins at lowest level", n.0)
                    });
                }
                FaultTransition::HangStart(n) => {
                    self.journal.record_with(now, Severity::Warn, "fault", || {
                        format!("node {} DVFS actuator frozen", n.0)
                    });
                    self.obs.flight.trigger(
                        now,
                        format!("fault: node {} actuator frozen", n.0),
                        &self.obs.spans,
                        &self.obs.metrics,
                    );
                }
                FaultTransition::HangEnd(n) => {
                    self.journal.record_with(now, Severity::Info, "fault", || {
                        format!("node {} DVFS actuator thawed", n.0)
                    });
                }
                FaultTransition::SilenceStart(n) => {
                    self.journal.record_with(now, Severity::Warn, "fault", || {
                        format!("node {} telemetry dark", n.0)
                    });
                    self.obs.flight.trigger(
                        now,
                        format!("fault: node {} telemetry dark", n.0),
                        &self.obs.spans,
                        &self.obs.metrics,
                    );
                }
                FaultTransition::SilenceEnd(n) => {
                    self.journal.record_with(now, Severity::Info, "fault", || {
                        format!("node {} telemetry restored", n.0)
                    });
                }
            }
        }
        self.faults = Some(fs);
    }

    /// Advances the simulation by one tick.
    pub fn step(&mut self) {
        // Wall-clock stages, back to back: `faults` (tick boundary and
        // fault edges), `schedule`, `materialize`, `advance` (job progress
        // through the meter reading), then the control cycle's own
        // `sample`/`control`/`actuate`/`health`.
        let stage = self.obs.profile.start();
        let dt = self.clock.dt_secs();
        let now0 = self.clock.now();
        let tick = self.tick_index + 1;
        let incremental = self.incremental_active();
        let lazy_step = incremental && self.hierarchy.is_some() && self.lazy_control_ok();

        // Tick boundary: promote dirty marks staged during tick−1 (phase
        // boundaries, level commands), remembering whether tick−1 itself
        // had dirty work (the collector's prev-power view takes one more
        // cycle to stabilize after a change).
        self.dirty_prev = !self.columns.dirty.is_empty();
        self.columns.dirty.begin_tick();
        if incremental && tick == 1 {
            // Nothing has ever been evaluated: everything is dirty.
            for id in 0..self.nodes.len() as u32 {
                self.columns.dirty.mark(NodeId(id));
            }
        }

        // Drain the timer wheel up to this tick.
        let mut events = std::mem::take(&mut self.scratch_events);
        self.wheel.pop_due_into(tick, &mut events);
        let mut control_due = false;
        for ev in &events {
            match *ev {
                WheelEvent::ArrivalGate => self.arrival_gate_open = true,
                WheelEvent::ControlDue => control_due = true,
                WheelEvent::FreshnessDue(n) => self.fresh_suspects.push(n),
            }
        }
        self.scratch_events = events;
        debug_assert!(control_due, "the control period is re-armed every tick");
        debug_assert_eq!(
            self.arrival_gate_open,
            now0 >= self.next_submit_at,
            "wheel arrival gate must mirror the think-time deadline"
        );

        // 0. Fault edges strike before anything else this tick, so a node
        //    that dies now neither hosts a new job nor contributes power.
        self.fault_tick(now0, dt, tick, incremental, lazy_step);
        let stage = self.obs.profile.lap("faults", stage);

        // 1. Job arrival and placement. With a replay trace, jobs arrive
        //    at their recorded times; otherwise an empty queue is refilled
        //    (paper protocol), gated by the think-time gap — a one-shot
        //    wheel event rather than a per-tick deadline compare.
        match self.trace_source.as_mut() {
            Some(src) => {
                for job in src.due_jobs(now0) {
                    self.queue.push(job);
                }
            }
            None => {
                if self.arrival_gate_open
                    && self
                        .generator
                        .refill_to(&mut self.queue, self.spec.queue_depth, now0)
                    && !self.spec.think_time_mean.is_zero()
                {
                    let gap = self
                        .arrival_rng
                        .exponential(self.spec.think_time_mean.as_secs_f64());
                    self.next_submit_at = now0 + SimDuration::from_secs_f64(gap);
                    self.arrival_gate_open = false;
                    let open_at =
                        Self::gate_open_tick(self.next_submit_at, self.spec.tick).max(tick + 1);
                    self.wheel.schedule(open_at, WheelEvent::ArrivalGate);
                }
            }
        }
        let started = self.scheduler.try_start(&mut self.queue, now0);
        if !started.is_empty() {
            // `try_start` pushes placed jobs in start order, so the newly
            // started jobs are exactly the run-queue tail — no per-id scan.
            let running = self.scheduler.running_jobs();
            let newly = &running[running.len() - started.len()..];
            debug_assert!(
                newly.iter().map(|j| j.id()).eq(started.iter().copied()),
                "started ids must match the run-queue tail"
            );
            let protect_critical = self.spec.critical_job_fraction > 0.0;
            for job in newly {
                self.journal.record_with(now0, Severity::Info, "job", || {
                    format!(
                        "{} started: {} class {} x{} on {} nodes ({:?})",
                        job.id(),
                        job.app(),
                        job.class(),
                        job.nprocs(),
                        job.nodes().len(),
                        job.priority()
                    )
                });
                // Member loads change this very tick.
                for &n in job.nodes() {
                    self.columns.dirty.mark(n);
                }
                self.rack_obs.note_start();
                // SLA protection: a critical job's nodes join
                // A_uncontrollable for its lifetime (the paper's dynamic
                // candidate set).
                if protect_critical && job.priority() == JobPriority::Critical {
                    for &n in job.nodes() {
                        let i = n.0 as usize;
                        if self.nodes[i].is_privileged() {
                            // Already protected (statically privileged, or
                            // shared start tick with another critical job).
                            continue;
                        }
                        // The node leaves the candidate set this tick; the
                        // dense path sampled it through tick−1.
                        if lazy_step {
                            freeze_agent(
                                &mut self.agents[i],
                                &self.nodes[i],
                                &mut self.last_sampled_tick[i],
                                &mut self.state_epoch[i],
                                dt,
                                tick,
                            );
                        }
                        self.fresh_suspects.push(n);
                        let node = &mut self.nodes[i];
                        // SLA work gets full performance: restore the node
                        // to its top level (it may carry a degradation from
                        // earlier capping), then freeze it.
                        let top = node.highest_level();
                        // ppc-lint: allow(panic-path): the node is unfrozen here; set_level only errors on privileged nodes
                        node.set_level(top).expect("node checked not privileged");
                        node.set_privileged(true);
                        let speed = self.nodes[n.0 as usize].relative_speed();
                        self.columns.set_speed(n, speed);
                        if let Some(h) = self.hierarchy.as_mut() {
                            h.set_privileged(n, true);
                        }
                    }
                }
            }
        }

        let stage = self.obs.profile.lap("schedule", stage);

        // 2. Node operating states for this tick, derived from the phase
        //    each node's job is in. The lazy regime samples the dirty lit
        //    candidates in the same pass, for this tick's control cycle.
        self.scratch_samples.clear();
        self.scratch_sampled.clear();
        if incremental {
            self.materialize_dirty(dt, tick, lazy_step, now0 + self.spec.tick);
        } else {
            // Dense reference: compute every node's load (borrows the
            // scheduler), then apply it to every node. The load buffer is a
            // scratch field reused across ticks.
            self.scratch_loads.clear();
            self.scratch_loads.extend(self.nodes.iter().map(
                |n| match self.scheduler.load_on(n.id()) {
                    Some(load) => OperatingState {
                        cpu_util: load.cpu_util,
                        mem_used_bytes: load.mem_bytes,
                        nic_bytes: (load.nic_fraction * n.spec().nic.bandwidth_bytes_per_sec * dt)
                            as u64,
                    },
                    None => OperatingState::IDLE,
                },
            ));
            // Down nodes are dark: they neither advance counters nor draw
            // power until their reboot (if any). The columns' down flag
            // mirrors every fault-engine edge the same tick it strikes
            // (see `fault_tick`) and additionally covers decommissioned
            // nodes, which the engine never sees.
            self.scratch_down.clear();
            let columns = &self.columns;
            self.scratch_down
                .extend((0..self.nodes.len() as u32).map(|i| columns.is_down(NodeId(i))));
            let inputs = self.scratch_loads.iter().zip(&self.scratch_down);
            for (node, (&load, &down)) in self.nodes.iter_mut().zip(inputs) {
                if !down {
                    node.run_interval(load, dt);
                }
            }
        }

        let stage = self.obs.profile.lap("materialize", stage);

        // 3. Jobs progress at the min rate over their members' speeds.
        //    The speed column is maintained at every level mutation, so no
        //    per-tick rebuild is needed, and it reports the nodes whose
        //    speed moved: only their jobs refold the minimum. Phase
        //    boundaries crossed during this advance change member loads
        //    starting next tick: the scheduler reports those members,
        //    which are staged dirty.
        //    (Phase boundaries are not wheel-predicted — their timing
        //    depends on member speeds, which throttling changes mid-flight.)
        let now1 = self.clock.advance();
        let mut records = self.scheduler.advance(
            dt,
            now1,
            self.columns.speed(),
            self.columns.speed_edges(),
            &mut self.scratch_edges,
        );
        self.columns.clear_speed_edges();
        for n in self.scratch_edges.drain(..) {
            self.columns.dirty.mark_next(n);
        }
        // Release SLA protection when critical jobs complete. A released
        // node rejoins the candidate set mid-tick: the dense path samples
        // it this very cycle, so the lazy path must take a real sample too
        // (its delta spans the whole protection window).
        for r in &records {
            if r.priority == JobPriority::Critical {
                self.release_sla(&r.nodes, |_| lazy_step);
            }
        }
        // Finished jobs free their members starting next tick (this
        // tick's load was computed before the advance), and the
        // observation store must drop the job now.
        for r in &records {
            for &n in &r.nodes {
                self.columns.dirty.mark_next(n);
            }
            self.rack_obs.note_departure(&r.nodes);
        }
        for r in &records {
            self.journal.record_with(now1, Severity::Info, "job", || {
                format!(
                    "{} finished: T={:.1}s (baseline {:.1}s, throttled {:.0}s)",
                    r.id, r.actual_secs, r.baseline_secs, r.throttled_secs
                )
            });
        }
        self.finished.append(&mut records);

        // 3b. Thermal accounting (extension; the incremental path is only
        //     active without thermal models, where this loop is a no-op).
        if !incremental {
            let mut rate_sum = 0.0;
            let mut thermal_nodes = 0u32;
            for n in &self.nodes {
                let Some(t) = n.temperature_c() else { continue };
                let Some(thermal) = n.spec().thermal else {
                    continue;
                };
                self.peak_temp_c = self.peak_temp_c.max(t);
                let Some(rate) = n.relative_failure_rate(thermal.ambient_c) else {
                    continue;
                };
                rate_sum += rate;
                thermal_nodes += 1;
            }
            if thermal_nodes > 0 {
                self.failure_integral += rate_sum / thermal_nodes as f64 * dt;
            }
        }

        // 4. Power sensing: a straight index-order fold over the dense
        //    power column (downed nodes hold 0.0 — no per-node branch).
        if !incremental {
            // Dense reference: re-evaluate every node's power into the
            // column first.
            let inputs = self.nodes.iter().zip(&self.scratch_down);
            for (p, (node, &down)) in self.columns.power_fill_mut().iter_mut().zip(inputs) {
                *p = if down { 0.0 } else { node.power_w() };
            }
        }
        let true_power_w = self.columns.fleet_power_w();
        self.true_power.push(now1, true_power_w);
        let reading = self.meter.read(true_power_w, now1);
        match reading {
            MeterReading::Held(w) => {
                self.journal.record_with(now1, Severity::Info, "meter", || {
                    format!("meter dropout: holding last good reading {w:.1} W")
                });
            }
            MeterReading::Gap => {
                self.journal.record_with(now1, Severity::Warn, "meter", || {
                    "meter dropout before any good reading: control cycle skipped".to_string()
                });
            }
            MeterReading::Fresh(_) => {}
        }
        self.obs.profile.stop("advance", stage);

        // 5/6. Profiling, collection, control, actuation. A meter gap
        // carries no information: acting on it (the old code fed the
        // controller 0.0 W) would read as maximal headroom and promote
        // every degraded node, so the cycle is skipped instead. The lazy
        // regime excludes meter dropout, so its cycle (which consumes the
        // samples taken while materializing) always runs.
        debug_assert!(
            !lazy_step || reading.value().is_some(),
            "the lazy regime's control cycle never skips"
        );
        if let Some(metered_w) = reading.value() {
            if self.hierarchy.is_some() {
                self.control_cycle(now1, metered_w, dt, tick, incremental, lazy_step);
            } else if self.budget_controller.is_some() {
                self.budget_cycle(now1, metered_w, tick);
            }
        }

        // Re-arm the fixed-period control event and commit the tick. Only
        // the lazy control cycle consumes freshness suspects.
        self.fresh_suspects.clear();
        self.wheel.schedule(tick + 1, WheelEvent::ControlDue);
        self.tick_index = tick;
    }

    /// Evaluates exactly the dirty nodes for `tick`: catch the device
    /// counters up through `tick − 1` in closed form (the state was
    /// unchanged while the node sat clean — that is what clean means),
    /// run the new interval, and write the power/speed columns.
    ///
    /// In the lazy control regime a dirty candidate's agent baseline is
    /// advanced over the same quiescent window *before* this tick's state
    /// change lands, so its next real sample spans exactly one tick —
    /// precisely what the dense path's per-cycle sampling would produce.
    /// A dirty candidate whose telemetry is lit then takes that sample
    /// right here, at the control instant `sample_at`: nothing it reads
    /// moves between this pass and the control cycle, so the node is
    /// touched once per tick instead of twice.
    ///
    /// The pass visits the dirty nodes in ascending id, not in mark order
    /// (which goes job by job, each job's members scattered over the
    /// fleet), so every node-indexed array it touches is walked front to
    /// back, the scheduler's load column among them. The order changes no
    /// result: each node's evaluation, sample, ingest and next-cycle settle
    /// touch only that node, and the rack-observation refreshes the samples
    /// feed are independent of order (see `sim/rack_obs.rs`).
    fn materialize_dirty(&mut self, dt: f64, tick: u64, lazy: bool, sample_at: SimTime) {
        self.scratch_dirty.clear();
        self.scratch_dirty
            .extend_from_slice(self.columns.dirty.indices());
        self.scratch_dirty.sort_unstable();
        for k in 0..self.scratch_dirty.len() {
            let id = NodeId(self.scratch_dirty[k]);
            let i = id.0 as usize;
            if self.columns.is_down(id) {
                continue; // frozen until the up edge re-marks it
            }
            let candidate = lazy
                && self
                    .hierarchy
                    .as_ref()
                    .is_some_and(|h| h.sets().is_candidate(id));
            if candidate {
                // Candidate clean since its last sample (its state epoch
                // has not moved past the sample): replay the skipped
                // identical samples' baseline motion in closed form
                // against the *old* state, so this tick's real sample
                // spans exactly one tick — what dense sampling produces.
                // Protected (non-candidate) nodes are deliberately left
                // alone: dense froze their baseline when they left the
                // candidate set, and their rejoin sample must span the gap.
                let last = self.last_sampled_tick[i];
                if last + 1 < tick && last >= self.state_epoch[i] && self.agents[i].is_primed() {
                    let state = *self.nodes[i].state();
                    self.agents[i].advance_baseline(&state, dt, tick - 1 - last);
                    self.last_sampled_tick[i] = tick - 1;
                }
            }
            let behind = tick - 1 - self.columns.stamp_of(id);
            if behind > 0 {
                self.nodes[i].catch_up(dt, behind);
            }
            let load = match self.scheduler.load_on(id) {
                Some(load) => OperatingState {
                    cpu_util: load.cpu_util,
                    mem_used_bytes: load.mem_bytes,
                    nic_bytes: (load.nic_fraction
                        * self.nodes[i].spec().nic.bandwidth_bytes_per_sec
                        * dt) as u64,
                },
                None => OperatingState::IDLE,
            };
            self.nodes[i].run_interval(load, dt);
            let power = self.nodes[i].power_w();
            let speed = self.nodes[i].relative_speed();
            self.columns.materialize(id, power, speed, tick);
            self.state_epoch[i] = tick;
            // The `silent` mask is re-derived later this tick: read the
            // engine, whose silences already moved at this tick's edges.
            if candidate
                && !self
                    .faults
                    .as_ref()
                    .is_some_and(|fs| fs.engine.is_silent(id))
            {
                self.lazy_sample(id, dt, tick, sample_at);
            }
        }
    }

    /// Lazy regime: takes a real sample of lit candidate `id` at `now`,
    /// the control instant of `tick`, first bringing its counters current
    /// (a forced re-sample may not have materialized this tick, and a
    /// rejoiner's gap accumulates for real).
    fn lazy_sample(&mut self, id: NodeId, dt: f64, tick: u64, now: SimTime) {
        let idx = id.0 as usize;
        let behind = tick - self.columns.stamp_of(id);
        if behind > 0 {
            self.nodes[idx].catch_up(dt, behind);
            self.columns.set_stamp(id, tick);
        }
        // A sample whose delta does not span exactly the last tick
        // (first-ever sample, post-protection gap) produces a value the
        // next cycle's dense sample would not repeat: force a real
        // follow-up next cycle instead of a settle.
        let fresh_baseline =
            self.agents[idx].is_primed() && self.last_sampled_tick[idx] + 1 == tick;
        if !fresh_baseline {
            self.resample_next.push(id.0);
        }
        if let Some(sample) = self.agents[idx].sample(&self.nodes[idx], now) {
            self.scratch_samples.push(sample);
        }
        self.last_sampled_tick[idx] = tick;
        self.scratch_sampled.push(id.0);
    }

    /// Runs the proportional-budget baseline's decision: sample **all**
    /// controllable nodes (this architecture has no candidate subset) and
    /// split the budget into absolute levels. The shared epilogue applies
    /// them.
    fn budget_cycle(&mut self, now: SimTime, metered_w: f64, tick: u64) {
        let Some(controller) = self.budget_controller.as_mut() else {
            return;
        };
        self.obs.spans.open("cycle", now);
        let sample_t = self.obs.profile.start();
        self.obs.spans.open("sample", now);
        self.scratch_views.clear();
        for node in &self.nodes {
            if node.is_privileged() {
                continue;
            }
            // Dead or decommissioned nodes have no agent to sample.
            if self.columns.is_down(node.id()) {
                continue;
            }
            if let Some(fs) = self.faults.as_ref() {
                // Silent nodes produce no samples.
                if fs.engine.is_silent(node.id()) {
                    continue;
                }
            }
            let idx = node.id().0 as usize;
            let Some(sample) = self.agents[idx].sample(node, now) else {
                continue; // dropped sample: the node keeps its level this cycle
            };
            self.collector.ingest(sample);
            self.scratch_views.push(BudgetNodeView {
                node: node.id(),
                level: node.level(),
                highest: node.highest_level(),
                state: sample.state,
                power_w: sample.power_w,
            });
        }
        self.obs
            .spans
            .attr("samples", AttrValue::U64(self.scratch_views.len() as u64));
        self.obs.spans.close(now);
        self.obs.profile.stop("sample", sample_t);
        let control_t = self.obs.profile.start();
        self.obs.spans.open("control", now);
        let models = &self.models;
        let views = &self.scratch_views;
        let (state, commands) = self.cost_meter.measure(|| {
            controller.cycle(metered_w, views, &|n: NodeId| {
                Arc::clone(&models[n.0 as usize])
            })
        });
        self.obs.spans.attr("state", AttrValue::Str(state.name()));
        self.obs
            .spans
            .attr("commands", AttrValue::U64(commands.len() as u64));
        self.obs.spans.close(now);
        self.obs.profile.stop("control", control_t);
        let thresholds = controller.thresholds();
        let outcome = CycleOutcome {
            state,
            commands,
            thresholds,
            thresholds_adjusted: false,
        };
        // The budget architecture has no racks or provision figure: its
        // health zone tracks the metered power against the controller's
        // own high watermark.
        let decision = Decision {
            subject: "budget controller: state",
            actuate: true,
            samples: self.scratch_views.len() as u64,
            facility_budget_w: thresholds.p_high_w(),
            facility_coverage: 1.0,
        };
        self.cycle_epilogue(now, tick, metered_w, &outcome, decision);
    }

    /// Runs the sampling agents and the power manager's control cycle,
    /// then the shared epilogue. `lazy` selects the lazy control regime
    /// (incremental evaluation and [`ClusterSim::lazy_control_ok`]).
    fn control_cycle(
        &mut self,
        now: SimTime,
        metered_w: f64,
        dt: f64,
        tick: u64,
        incremental: bool,
        lazy: bool,
    ) {
        // Held out of `self` for the decision; put back before the
        // epilogue, which reads it.
        let Some(mut hier) = self.hierarchy.take() else {
            return;
        };
        self.obs.spans.open("cycle", now);

        // Hierarchical delegation pass (multi-rack only): re-cut the
        // facility budget across rows and racks from each rack's *true*
        // power demand before the rack control cycles run. Serial — the
        // budget trajectory must be worker-width-invariant — and absent on
        // single-rack topologies (the flat architecture). Its wall-clock
        // cost is the `delegate` stage.
        let multi = !hier.is_single_rack();
        let mut fleet_true_w = 0.0;
        if multi {
            let delegate_t = self.obs.profile.start();
            fleet_true_w = self.columns.fleet_power_w();
            let shard_w = self.columns.shard_power_w();
            self.scratch_rack_true.clear();
            self.scratch_rack_true.extend_from_slice(shard_w);
            self.obs.spans.open("delegate", now);
            let outcome = hier.delegate(&self.scratch_rack_true);
            self.obs
                .spans
                .attr("racks", AttrValue::U64(hier.topology().racks() as u64));
            self.obs
                .spans
                .attr("redelegated", AttrValue::U64(u64::from(outcome.changed)));
            self.obs
                .spans
                .attr("drained", AttrValue::U64(outcome.drained.len() as u64));
            self.obs.spans.close(now);
            for &r in &outcome.drained {
                self.journal.record_with(now, Severity::Warn, "hier", || {
                    format!("rack {r} budget drained to its row (no online nodes)")
                });
            }
            if let Some(hi) = self.hier_i.as_ref() {
                self.obs
                    .metrics
                    .inc(hi.redelegations, u64::from(outcome.changed));
                self.obs
                    .metrics
                    .inc(hi.budget_drains, outcome.drained.len() as u64);
                for (&g, &b) in hi.rack_budget.iter().zip(hier.rack_budget_w()) {
                    self.obs.metrics.set(g, b);
                }
            }
            self.obs.profile.stop("delegate", delegate_t);
        }

        // The lazy regime: when nothing changed since the last cycle, every
        // candidate's sample would be bit-identical to its previous one and
        // the resulting job observations identical too — so the cycle keeps
        // the stored observations and skips sampling entirely. The manager
        // itself still runs every cycle: the metered reading moves even
        // when the nodes do not.
        let sample_t = self.obs.profile.start();
        let sampling = !lazy
            || self.rack_obs.is_stale()
            || self.dirty_prev
            || !self.columns.dirty.is_empty()
            || !self.settle_pending.is_empty()
            || !self.resample_now.is_empty();

        // Agents run on candidate nodes only; monitoring everything would
        // be the unscalable design Figure 5 warns about. The sample buffer
        // is scratch, reused across cycles. Dead and silenced nodes
        // deliver nothing — their collector entries go stale.
        self.obs.spans.open("sample", now);
        self.scratch_settle.clear();
        if lazy {
            if let Some(fs) = self.faults.as_mut() {
                fs.track_freshness(
                    &mut self.fresh_suspects,
                    hier.sets(),
                    &self.collector,
                    &self.last_sampled_tick,
                    tick,
                    self.spec.tick,
                    &mut self.wheel,
                );
            }
        }
        if sampling && lazy {
            // Work-list sampling: only nodes whose sample value can differ
            // from the collector's current view are touched. A clean,
            // settled candidate's dense sample would be bit-identical to
            // its collector entry, so skipping it changes nothing the
            // policies (or the fingerprints) can see. The materialize pass
            // already sampled the dirty lit candidates; what is left are
            // the forced re-samples, among them the nodes SLA release made
            // candidates after that pass (release queues them here).
            let resample = std::mem::take(&mut self.resample_now);
            let sets = hier.sets();
            for &raw in &resample {
                let id = NodeId(raw);
                let lit = sets.is_candidate(id)
                    && !self
                        .faults
                        .as_ref()
                        .is_some_and(|fs| fs.silent.contains(id));
                if lit && self.last_sampled_tick[raw as usize] != tick {
                    self.lazy_sample(id, dt, tick, now);
                }
            }
            // Nodes sampled last cycle settle their prev-power view; a
            // node re-sampled now settles via the ingest itself, and one
            // that just left the lit candidates (SLA protection, silence)
            // keeps its frozen prev, exactly like dense.
            let silent = self.faults.as_ref().map(|fs| &fs.silent);
            let lit = |id: NodeId| sets.is_candidate(id) && !silent.is_some_and(|m| m.contains(id));
            for &raw in &self.settle_pending {
                let id = NodeId(raw);
                if self.last_sampled_tick[raw as usize] == tick || !lit(id) {
                    continue;
                }
                self.scratch_settle.push(raw);
            }
            debug_assert!(
                self.columns.dirty.indices().iter().all(|&raw| {
                    !lit(NodeId(raw)) || self.last_sampled_tick[raw as usize] == tick
                }),
                "every dirty lit candidate is sampled at control time"
            );
            debug_assert!(
                self.scratch_sampled.iter().all(|&raw| lit(NodeId(raw))),
                "only lit candidates are sampled"
            );
            // Recycle buffers: this cycle's sampled set settles next
            // cycle; the spent force-list becomes the next staging buffer.
            std::mem::swap(&mut self.settle_pending, &mut self.scratch_sampled);
            let mut spent = resample;
            spent.clear();
            self.resample_now = std::mem::replace(&mut self.resample_next, spent);
        } else if sampling {
            for &id in hier.sets().candidates() {
                if let Some(fs) = self.faults.as_ref() {
                    if fs.engine.is_down(id) || fs.engine.is_silent(id) {
                        continue;
                    }
                }
                let idx = id.0 as usize;
                if incremental {
                    // Incremental evaluation under the dense control path
                    // (see `lazy_control_ok`) still samples every
                    // candidate. Bring the counters current first: a clean
                    // node may not have materialized this tick, and a
                    // post-silence gap must accumulate for real (the dense
                    // path's delta spans the whole gap).
                    let behind = tick - self.columns.stamp_of(id);
                    if behind > 0 && !self.columns.is_down(id) {
                        self.nodes[idx].catch_up(dt, behind);
                        self.columns.set_stamp(id, tick);
                    }
                }
                let sample = self.agents[idx].sample(&self.nodes[idx], now);
                self.last_sampled_tick[idx] = tick;
                if let Some(sample) = sample {
                    self.scratch_samples.push(sample);
                }
            }
        }
        // Silent candidates deliver nothing (lazy regime; empty without
        // faults).
        let silent = self.faults.as_ref().map(|fs| &fs.silent);
        // The span tree must be identical across evaluation modes, so the
        // lazy regime reports the *logical* sample count — what the dense
        // path would have taken: one per lit candidate (the lazy regime
        // excludes agent noise, so none are dropped).
        let logical_samples = if lazy {
            (hier.sets().candidate_count() - silent.map_or(0, NodeMask::len)) as u64
        } else {
            self.scratch_samples.len() as u64
        };
        self.obs
            .spans
            .attr("samples", AttrValue::U64(logical_samples));
        self.obs.spans.close(now);
        self.obs.profile.stop("sample", sample_t);

        // Everything the management node computes per cycle is measured:
        // ingestion, observation building, classification, selection. Job
        // membership is borrowed straight from the run-queue — no clones.
        // Under fault injection the staleness filter runs first: only
        // candidates with fresh samples are selectable, and the fresh
        // fraction feeds the manager's coverage-floor fallback.
        let control_t = self.obs.profile.start();
        let models = &self.models;
        let collector = &mut self.collector;
        let nodes = &self.nodes;
        let scheduler = &self.scheduler;
        let samples = &self.scratch_samples;
        let settle = &self.scratch_settle;
        let store = &mut self.rack_obs;
        let obs_cache = &mut self.obs_cache;
        let faults = self.faults.as_mut();
        let spans = &mut self.obs.spans;
        let rack_true = &self.scratch_rack_true;
        let fanout = &mut self.fanout;
        let (outcome, coverage) = self.cost_meter.measure(|| {
            spans.open("ingest", now);
            spans.attr("samples", AttrValue::U64(logical_samples));
            for &raw in settle {
                collector.refresh(NodeId(raw), now);
            }
            collector.ingest_batch(samples);
            spans.close(now);
            let collector = &*collector;
            let sets = hier.sets();
            let mut coverage = 1.0;
            let mut flipped: &[NodeId] = &[];
            let fresh = faults.map(|fs| {
                // The lazy regime tracked the mask from edges before
                // sampling; the dense regimes refill it from timestamps.
                if !lazy {
                    fs.fresh.reset(nodes.len());
                    for &id in sets.candidates() {
                        if collector.is_fresh(id, now, fs.staleness_limit) {
                            fs.fresh.insert(id);
                        }
                    }
                }
                if !sets.candidates().is_empty() {
                    coverage = fs.fresh.len() as f64 / sets.candidate_count() as f64;
                }
                let fs = &*fs;
                flipped = &fs.flipped;
                &fs.fresh
            });
            // Under faults only candidates with fresh telemetry are
            // observed. The lazy regime brings the per-rack observations up
            // to date from what changed (run-queue edits, sampled, settled
            // and freshness-flipped nodes); the dense regimes rebuild every
            // rack.
            spans.open("observe", now);
            let running = scheduler.running_jobs();
            let placed = scheduler.placement_edges();
            let refreshed = samples
                .iter()
                .map(|s| s.node)
                .chain(flipped.iter().copied());
            let settled = settle.iter().map(|&raw| NodeId(raw));
            let slot_of = |n| scheduler.slot_of_node(n);
            match fresh {
                Some(filter) => store.sync(
                    lazy,
                    running,
                    placed,
                    refreshed,
                    settled,
                    slot_of,
                    &mut Observer {
                        collector,
                        filter,
                        models,
                        cache: obs_cache,
                    },
                ),
                None => store.sync(
                    lazy,
                    running,
                    placed,
                    refreshed,
                    settled,
                    slot_of,
                    &mut Observer {
                        collector,
                        filter: sets,
                        models,
                        cache: obs_cache,
                    },
                ),
            }
            spans.attr("jobs", AttrValue::U64(store.jobs() as u64));
            if fresh.is_some() {
                spans.attr("coverage", AttrValue::F64(coverage));
            }
            spans.close(now);
            let racks = store.racks();
            let outcome = if multi {
                hier_multi_control(
                    &mut hier,
                    metered_w,
                    racks,
                    nodes,
                    fresh,
                    rack_true,
                    fleet_true_w,
                    fanout,
                    now,
                    spans,
                )
            } else {
                hier.single_rack_cycle(
                    metered_w,
                    &racks[0],
                    &NodesView(nodes),
                    coverage,
                    now,
                    spans,
                )
            };
            (outcome, coverage)
        });
        self.scheduler.clear_placement_edges();
        self.obs.profile.stop("control", control_t);
        // The facility coverage is what the controller itself consumed:
        // fresh candidates over all candidates under faults, 1.0
        // otherwise. Training period: observe only, never throttle.
        let decision = Decision {
            subject: "power state",
            actuate: !hier.in_training(),
            samples: logical_samples,
            facility_budget_w: hier.config().p_provision_w,
            facility_coverage: coverage,
        };
        self.hierarchy = Some(hier);
        self.cycle_epilogue(now, tick, metered_w, &outcome, decision);
    }

    /// Everything after a control plane's decision, shared by the power
    /// manager and the budget baseline: the state log and state-edge
    /// journal entry, actuation, the per-cycle instruments, the root span,
    /// the red-entry flight trigger, and the health fold.
    fn cycle_epilogue(
        &mut self,
        now: SimTime,
        tick: u64,
        metered_w: f64,
        outcome: &CycleOutcome,
        decision: Decision,
    ) {
        // Back-to-back stages: `actuate` takes the decision's bookkeeping
        // and the commands, `health` the per-cycle instruments, the root
        // span and the health fold (all of it when nothing is actuated).
        let mut stage = self.obs.profile.start();
        let state = outcome.state;
        self.state_log.push((now, state));
        let red_entered = state == PowerState::Red && self.last_state != Some(PowerState::Red);
        if self.last_state != Some(state) {
            let severity = match state {
                PowerState::Red => Severity::Warn,
                _ => Severity::Info,
            };
            self.journal.record_with(now, severity, "state", || {
                format!(
                    "{} -> {state} at {:.2} kW",
                    decision.subject,
                    metered_w / 1e3
                )
            });
            self.last_state = Some(state);
        }
        if outcome.thresholds_adjusted {
            self.journal
                .record_with(now, Severity::Info, "threshold", || {
                    format!(
                        "adjusted: P_L={:.2} kW, P_H={:.2} kW",
                        outcome.thresholds.p_low_w() / 1e3,
                        outcome.thresholds.p_high_w() / 1e3
                    )
                });
        }

        if decision.actuate {
            self.obs.spans.open("actuate", now);
            self.obs
                .spans
                .attr("commands", AttrValue::U64(outcome.commands.len() as u64));
            self.process_retries(now);
            for cmd in &outcome.commands {
                self.apply_command(cmd.node, cmd.level, now);
            }
            // The power manager's actuate span reports the retry backlog.
            if let (Some(fs), Some(_)) = (self.faults.as_ref(), self.hierarchy.as_ref()) {
                self.obs
                    .spans
                    .attr("retries_pending", AttrValue::U64(fs.retries.len() as u64));
            }
            self.obs.spans.close(now);
            stage = self.obs.profile.lap("actuate", stage);
        }

        // Per-cycle instruments, then the root span, then (possibly) the
        // flight recorder — in that order so a red-entry snapshot captures
        // this very cycle's spans and up-to-date registry.
        self.obs.metrics.inc(self.obs_i.cycles, 1);
        self.obs.metrics.set(self.obs_i.metered_power_w, metered_w);
        self.obs
            .metrics
            .observe(self.obs_i.selection_size, outcome.commands.len() as f64);
        if state == PowerState::Red {
            self.obs.metrics.inc(self.obs_i.red_dwell_cycles, 1);
        }
        if red_entered {
            self.obs.metrics.inc(self.obs_i.red_entries, 1);
        }
        self.obs
            .metrics
            .set(self.obs_i.journal_dropped, self.journal.dropped() as f64);
        if let (Some(h), Some(hi)) = (self.hierarchy.as_ref(), self.hier_i.as_ref()) {
            let mut yellow = 0u64;
            let mut red = 0u64;
            for s in h.last_rack_states() {
                match s {
                    PowerState::Yellow => yellow += 1,
                    PowerState::Red => red += 1,
                    PowerState::Green => {}
                }
            }
            self.obs.metrics.set(hi.racks_yellow, yellow as f64);
            self.obs.metrics.set(hi.racks_red, red as f64);
        }
        self.obs.spans.attr("state", AttrValue::Str(state.name()));
        self.obs.spans.close(now);
        if red_entered {
            self.obs
                .flight
                .trigger(now, "red-entry", &self.obs.spans, &self.obs.metrics);
        }

        // Fleet health plane: fold the cycle into the rollup tree, stage
        // sketches and SLO rules, after the root span closed so an
        // alert-triggered flight snapshot captures the complete cycle.
        // The fleet node-power sketch samples every NODE_SKETCH_PERIOD
        // ticks, keyed off the deterministic tick index. Actuation moved
        // only speeds and dirty marks, so the power column still holds
        // what the control cycle saw.
        if self.health.wants_node_sample(tick) {
            self.health.observe_node_power(self.columns.power_w());
        }
        let tree = self.hierarchy.as_ref().filter(|h| !h.is_single_rack());
        let facility_state = zone_state_of(state);
        let work = StageWork {
            samples: decision.samples,
            commands: outcome.commands.len() as u64,
            racks: tree.map_or(1, |h| h.topology().racks() as u64),
        };
        let base = match tree {
            Some(h) => {
                self.scratch_rack_zone.clear();
                self.scratch_rack_zone
                    .extend(h.last_rack_states().iter().map(|&s| zone_state_of(s)));
                let obs = CycleObservation {
                    rack_state: &self.scratch_rack_zone,
                    rack_power_w: &self.scratch_rack_true,
                    rack_budget_w: h.rack_budget_w(),
                    rack_coverage: &self.fanout.coverage,
                    facility_state,
                    facility_power_w: metered_w,
                    facility_budget_w: decision.facility_budget_w,
                    facility_coverage: decision.facility_coverage,
                };
                self.health.observe_cycle(now, &obs, &work)
            }
            None => {
                // One zone fed from the facility values only, whatever the
                // control plane.
                let obs = CycleObservation {
                    rack_state: &[facility_state],
                    rack_power_w: &[metered_w],
                    rack_budget_w: &[decision.facility_budget_w],
                    rack_coverage: &[decision.facility_coverage],
                    facility_state,
                    facility_power_w: metered_w,
                    facility_budget_w: decision.facility_budget_w,
                    facility_coverage: decision.facility_coverage,
                };
                self.health.observe_cycle(now, &obs, &work)
            }
        };
        self.publish_health_edges(now, base);
        self.obs.profile.stop("health", stage);
    }

    /// Journals every new SLO alert edge, bumps the alert instruments,
    /// and snapshots the flight recorder on each alert *opening* — the
    /// black box captures the cycle that breached the objective, not
    /// just Red entries.
    fn publish_health_edges(&mut self, now: SimTime, base: usize) {
        for i in base..self.health.alerts().len() {
            let ev = self.health.alerts()[i];
            let opened = ev.edge == ppc_obs::AlertEdge::Open;
            let severity = if opened {
                Severity::Warn
            } else {
                Severity::Info
            };
            self.journal.record_with(now, severity, "alert", || {
                format!(
                    "slo {} {} on {}: value {:.3} vs threshold {:.3}",
                    ev.rule,
                    if opened { "open" } else { "resolve" },
                    ev.zone.label(),
                    ev.value,
                    ev.threshold
                )
            });
            self.obs.metrics.inc(self.obs_i.health_alert_edges, 1);
            if opened {
                self.obs.flight.trigger(
                    now,
                    format!("slo:{}", ev.rule),
                    &self.obs.spans,
                    &self.obs.metrics,
                );
            }
        }
        self.obs.metrics.set(
            self.obs_i.health_alerts_open,
            self.health.slo().open_alerts() as f64,
        );
    }

    /// Sends one throttling command to a node, routing around faults.
    ///
    /// A healthy node applies it directly. A dead node's command is
    /// dropped outright (the node rejoins at the lowest level anyway); a
    /// frozen actuator queues the command for retry with backoff. Either
    /// failure counts once in `commands_failed`, and because the control
    /// loop reads actual node levels (`LevelView`), the next cycle sees
    /// the un-actuated truth and re-plans — the reconcile path.
    fn apply_command(&mut self, node: NodeId, level: Level, now: SimTime) {
        let Some(fs) = self.faults.as_mut() else {
            // Privileged nodes are never candidates, so set_level cannot
            // hit the Privileged error; InvalidLevel cannot happen because
            // commands derive from the node's own ladder.
            self.actuate_level(node, level);
            self.commands_applied += 1;
            self.obs.metrics.inc(self.obs_i.commands_applied, 1);
            return;
        };
        // A newer command supersedes any queued retry for the node.
        fs.retries.retain(|r| r.node != node);
        if fs.engine.is_down(node) {
            fs.commands_failed += 1;
            self.obs.metrics.inc(self.obs_i.commands_failed, 1);
            self.journal.record_with(now, Severity::Warn, "fault", || {
                format!("command to dead node {} dropped", node.0)
            });
            return;
        }
        if fs.engine.is_hung(node) {
            fs.commands_failed += 1;
            self.obs.metrics.inc(self.obs_i.commands_failed, 1);
            fs.retries.push(PendingRetry {
                node,
                level,
                attempts: 1,
                cooldown: 1,
            });
            self.journal.record_with(now, Severity::Warn, "fault", || {
                format!(
                    "command to node {} timed out (actuator frozen), will retry",
                    node.0
                )
            });
            return;
        }
        self.actuate_level(node, level);
        self.commands_applied += 1;
        self.obs.metrics.inc(self.obs_i.commands_applied, 1);
    }

    /// Walks the retry queue: applies commands whose actuator thawed,
    /// backs off ones still frozen (1, 2, 4 cycles), and drops commands
    /// whose node died or whose attempts ran out.
    fn process_retries(&mut self, now: SimTime) {
        let Some(mut fs) = self.faults.take() else {
            return;
        };
        let mut i = 0;
        while i < fs.retries.len() {
            if fs.retries[i].cooldown > 0 {
                fs.retries[i].cooldown -= 1;
                i += 1;
                continue;
            }
            let r = fs.retries[i];
            // A node that died, or that a critical job's SLA protection
            // took out of the candidate set while the command waited,
            // must not be commanded.
            if fs.engine.is_down(r.node) || self.nodes[r.node.0 as usize].is_privileged() {
                fs.retries.remove(i);
                continue;
            }
            if fs.engine.is_hung(r.node) {
                if r.attempts >= MAX_COMMAND_ATTEMPTS {
                    fs.retries.remove(i);
                    self.journal.record_with(now, Severity::Warn, "fault", || {
                        format!(
                            "giving up on node {} after {} attempts (actuator still frozen)",
                            r.node.0, r.attempts
                        )
                    });
                } else {
                    fs.retries[i].attempts += 1;
                    // 1 << attempts: cooldowns of 2 then 4 cycles.
                    fs.retries[i].cooldown = 1 << r.attempts;
                    self.obs.metrics.inc(self.obs_i.actuation_retries, 1);
                    i += 1;
                }
                continue;
            }
            self.actuate_level(r.node, r.level);
            self.commands_applied += 1;
            self.obs.metrics.inc(self.obs_i.actuation_retries, 1);
            self.obs.metrics.inc(self.obs_i.commands_applied, 1);
            self.journal.record_with(now, Severity::Info, "fault", || {
                format!(
                    "retried command applied: node {} -> {:?}",
                    r.node.0, r.level
                )
            });
            fs.retries.remove(i);
        }
        self.faults = Some(fs);
    }

    /// Peak die temperature observed, °C (`None` without a thermal model).
    pub fn peak_temperature_c(&self) -> Option<f64> {
        self.thermal_enabled().then_some(self.peak_temp_c)
    }

    /// True if any node carries a thermal model.
    fn thermal_enabled(&self) -> bool {
        self.spec.node_spec.thermal.is_some()
            || self
                .spec
                .extra_groups
                .iter()
                .any(|g| g.spec.thermal.is_some())
    }

    /// Integral of the cluster-mean relative failure rate over time, in
    /// rate-seconds (`None` without a thermal model). A machine held at
    /// ambient for T seconds scores exactly T; running hot scores more —
    /// the reliability analogue of ΔP×T.
    pub fn failure_rate_integral(&self) -> Option<f64> {
        self.thermal_enabled().then_some(self.failure_integral)
    }

    /// Runs the simulation for `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        let ticks = self.clock.ticks_in(duration);
        for _ in 0..ticks {
            self.step();
        }
    }
}

/// What a control plane's decision hands the shared cycle epilogue
/// besides its outcome.
struct Decision {
    /// Subject of the state-edge journal entry.
    subject: &'static str,
    /// False while the power manager trains: observe only, never throttle.
    actuate: bool,
    /// Samples the cycle took (the health plane's stage work).
    samples: u64,
    /// The facility zone's budget for the health fold, watts.
    facility_budget_w: f64,
    /// The facility zone's telemetry coverage for the health fold.
    facility_coverage: f64,
}

/// Buffers of the multi-rack control cycle, reused across ticks.
#[derive(Default, Clone)]
struct FanoutScratch {
    /// Per-rack collector coverage, also read by the health rollup.
    coverage: Vec<f64>,
    /// Rack outcomes in rack order, drained by the rollup.
    outcomes: Vec<CycleOutcome>,
}

/// The lazy regime's side of a node leaving the sampled set at `tick`
/// (SLA protection, silence, crash): the dense path sampled it through
/// tick−1, so its agent baseline is advanced over the clean window against
/// the *old* state, and its state epoch moves to `tick` so no closed-form
/// replay runs until its next real sample. That sample then spans exactly
/// the gap, as dense would. A node already out of the sampled set (its last
/// sample predates its epoch) stays frozen.
fn freeze_agent(
    agent: &mut ProfilingAgent,
    node: &Node,
    last_sampled_tick: &mut u64,
    state_epoch: &mut u64,
    dt: f64,
    tick: u64,
) {
    let last = *last_sampled_tick;
    if agent.is_primed() && last >= *state_epoch && last + 1 < tick {
        agent.advance_baseline(node.state(), dt, tick - 1 - last);
        *last_sampled_tick = tick - 1;
    }
    *state_epoch = tick;
}

/// Projects the controller's Green/Yellow/Red classification into the
/// health rollup's zone states.
fn zone_state_of(s: PowerState) -> ZoneState {
    match s {
        PowerState::Green => ZoneState::Green,
        PowerState::Yellow => ZoneState::Yellow,
        PowerState::Red => ZoneState::Red,
    }
}

/// Runs the multi-rack hierarchical control cycle: apportion the metered
/// reading by each rack's share of true fleet power, restrict coverage to
/// each rack's own candidates, run each rack's sub-manager on its rack's
/// job observations in rack order, and roll the outcomes up.
///
/// Sub-managers run with a disabled span recorder; the `shards` span and
/// one nested `shard` span per *interesting* rack (non-Green or
/// commanding) are recorded here, in rack order. The selection is a pure
/// function of sim state, so the taxonomy stays deterministic and the
/// recorder is not swamped at 100k-node scale.
#[allow(clippy::too_many_arguments)]
fn hier_multi_control(
    hier: &mut HierarchicalManager,
    metered_w: f64,
    rack_obs: &[Vec<JobObservation>],
    nodes: &[Node],
    fresh: Option<&NodeMask>,
    rack_true_w: &[f64],
    fleet_true_w: f64,
    scratch: &mut FanoutScratch,
    now: SimTime,
    spans: &mut SpanRecorder,
) -> CycleOutcome {
    let topology = *hier.topology();
    let racks = topology.racks();
    scratch.coverage.clear();
    spans.open("shards", now);
    let mut yellow = 0u64;
    let mut red = 0u64;
    let mut total_commands = 0u64;
    for (r, (mgr, obs)) in hier.subs_mut().iter_mut().zip(rack_obs).enumerate() {
        // The metered apportionment keys off *true* power so the split is
        // exact under meter noise; coverage counts the fresh mask over the
        // rack's node-id range against the rack's own candidates.
        let rack_metered_w = if fleet_true_w > 0.0 {
            metered_w * rack_true_w[r] / fleet_true_w
        } else {
            0.0
        };
        let mut coverage = 1.0;
        if let Some(fresh) = fresh {
            let candidates = mgr.sets().candidate_count();
            if candidates > 0 {
                coverage = fresh.count_in(topology.rack_nodes(r)) as f64 / candidates as f64;
            }
        }
        scratch.coverage.push(coverage);
        let out = mgr.control_cycle_with_coverage(rack_metered_w, obs, &NodesView(nodes), coverage);
        match out.state {
            PowerState::Yellow => yellow += 1,
            PowerState::Red => red += 1,
            PowerState::Green => {}
        }
        total_commands += out.commands.len() as u64;
        if out.state != PowerState::Green || !out.commands.is_empty() {
            spans.open("shard", now);
            spans.attr("rack", AttrValue::U64(r as u64));
            spans.attr("state", AttrValue::Str(out.state.name()));
            spans.attr("commands", AttrValue::U64(out.commands.len() as u64));
            spans.close(now);
        }
        scratch.outcomes.push(out);
    }
    spans.attr("racks", AttrValue::U64(racks as u64));
    spans.attr("commands", AttrValue::U64(total_commands));
    spans.attr("yellow", AttrValue::U64(yellow));
    spans.attr("red", AttrValue::U64(red));
    spans.close(now);
    hier.rollup(scratch.outcomes.drain(..))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::{ManagerConfig, NodeSets, PolicyKind};
    use ppc_simkit::RngFactory;
    use ppc_workload::TraceEntry;

    fn managed_mini(nodes: u32, policy: PolicyKind, provision_fraction: f64) -> ClusterSim {
        let mut spec = ClusterSpec::mini(nodes);
        spec.provision_fraction = provision_fraction;
        let sets = NodeSets::new(spec.node_ids(), spec.privileged.iter().copied());
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), policy)
        };
        let manager = PowerManager::new(config, sets).unwrap();
        ClusterSim::new(spec).with_manager(manager)
    }

    #[test]
    fn unmanaged_sim_runs_jobs_and_records_power() {
        let mut sim = ClusterSim::new(ClusterSpec::mini(4));
        sim.run_for(SimDuration::from_secs(300));
        assert_eq!(sim.true_power().len(), 300);
        assert!(sim.utilization() > 0.0, "jobs should be running");
        // All nodes stay at the top level without a manager.
        assert!(sim.node_levels().iter().all(|&l| l == Level::new(9)));
        let p = sim.true_power().max().unwrap();
        // 4 busy Tianhe nodes: somewhere between idle (4×145) and max (4×341).
        assert!(p > 580.0 && p < 1_370.0, "peak={p}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = ClusterSim::new(ClusterSpec::mini(4));
            sim.run_for(SimDuration::from_secs(200));
            (
                sim.true_power().values().to_vec(),
                sim.finished().len(),
                sim.utilization(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "power traces must be bit-identical");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn tight_provision_forces_throttling() {
        // Provision at 55% of theoretical peak: the busy mini cluster
        // overshoots P_H quickly, forcing red/yellow cycles.
        let mut sim = managed_mini(4, PolicyKind::Mpc, 0.55);
        sim.run_for(SimDuration::from_secs(300));
        assert!(sim.commands_applied() > 0, "capping must engage");
        let stats = sim.manager().unwrap().stats();
        assert!(stats.yellow_cycles + stats.red_cycles > 0);
        // Some node must have been degraded at some point; after red
        // cycles at least the state log shows non-green.
        assert!(sim.state_log().iter().any(|(_, s)| *s != PowerState::Green));
    }

    /// `with_manager` attaches the flat manager as the one rack of a
    /// single-rack hierarchy, whose rack state tracks every cycle.
    #[test]
    fn flat_manager_is_a_one_rack_hierarchy() {
        let mut sim = managed_mini(32, PolicyKind::Mpc, 0.5);
        let h = sim
            .hierarchy()
            .expect("flat manager attaches as a hierarchy");
        assert!(h.is_single_rack());
        assert!(std::ptr::eq(sim.manager().unwrap(), &h.subs()[0]));
        let mut red = 0;
        for _ in 0..600 {
            sim.step();
            let state = sim.state_log().last().unwrap().1;
            red += usize::from(state == PowerState::Red);
            assert_eq!(sim.hierarchy().unwrap().last_rack_states(), &[state]);
        }
        assert!(red > 0, "the tight provision must drive Red cycles");
        assert_eq!(sim.control_stats(), Some(sim.manager().unwrap().stats()));
    }

    #[test]
    fn capping_caps_the_peak() {
        let run = |policy: Option<PolicyKind>| {
            let mut sim = match policy {
                Some(p) => managed_mini(4, p, 0.70),
                None => ClusterSim::new({
                    let mut s = ClusterSpec::mini(4);
                    s.provision_fraction = 0.70;
                    s
                }),
            };
            sim.run_for(SimDuration::from_secs(600));
            sim.true_power().max().unwrap()
        };
        let uncapped = run(None);
        let capped = run(Some(PolicyKind::Mpc));
        assert!(
            capped < uncapped,
            "capped peak {capped} must be below uncapped {uncapped}"
        );
    }

    #[test]
    fn training_period_never_throttles() {
        let mut spec = ClusterSpec::mini(4);
        spec.provision_fraction = 0.55; // would throttle immediately if active
        let sets = NodeSets::new(spec.node_ids(), []);
        let config = ManagerConfig {
            training_cycles: 200,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let manager = PowerManager::new(config, sets).unwrap();
        let mut sim = ClusterSim::new(spec).with_manager(manager);
        sim.run_for(SimDuration::from_secs(150));
        assert_eq!(sim.commands_applied(), 0, "training must not throttle");
        assert!(sim.manager().unwrap().learner().in_training());
        // Peak observation is happening.
        assert!(sim.manager().unwrap().learner().observed_peak_w() > 0.0);
    }

    #[test]
    fn crash_evicts_requeues_and_rejoins_at_lowest_level() {
        use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
        let schedule = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_secs(60),
            node: NodeId(1),
            kind: FaultKind::Crash {
                reboot: SimDuration::from_secs(30),
            },
        }]);
        let mut sim = managed_mini(4, PolicyKind::Mpc, 0.70);
        sim = sim.with_faults(FaultInjection::new(schedule));
        sim.run_for(SimDuration::from_secs(70));
        // Mid-outage: the node is down, off the candidate set, powerless.
        assert!(sim.fault_engine().unwrap().is_down(NodeId(1)));
        assert!(!sim
            .manager()
            .unwrap()
            .sets()
            .candidates()
            .contains(&NodeId(1)));
        assert_eq!(
            sim.jobs_requeued() + sim.jobs_failed(),
            1,
            "mini cluster is saturated"
        );
        sim.run_for(SimDuration::from_secs(60));
        // Rebooted: back in the candidate set at the lowest DVFS level.
        assert!(!sim.fault_engine().unwrap().is_down(NodeId(1)));
        assert!(sim
            .manager()
            .unwrap()
            .sets()
            .candidates()
            .contains(&NodeId(1)));
        let report = sim.availability_report().unwrap();
        assert_eq!(report.crashes, 1);
        assert!((report.mttr_secs - 30.0).abs() < 1.0);
        assert!(report.availability < 1.0);
    }

    #[test]
    fn down_node_draws_no_power() {
        use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
        let schedule = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_secs(50),
            node: NodeId(0),
            kind: FaultKind::Crash {
                reboot: SimDuration::from_secs(1_000),
            },
        }]);
        let healthy = {
            let mut sim = ClusterSim::new(ClusterSpec::mini(4));
            sim.run_for(SimDuration::from_secs(100));
            sim.true_power().values().to_vec()
        };
        let mut sim =
            ClusterSim::new(ClusterSpec::mini(4)).with_faults(FaultInjection::new(schedule));
        sim.run_for(SimDuration::from_secs(100));
        let faulted = sim.true_power().values().to_vec();
        // Identical until the crash, strictly lower afterwards.
        assert_eq!(healthy[..49], faulted[..49]);
        assert!(faulted[60] < healthy[60] * 0.9);
    }

    #[test]
    fn hung_actuator_fails_commands_and_retries() {
        use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
        // Freeze every node's actuator over a window in which the tightly
        // provisioned cluster is certain to issue commands.
        let events = (0..4)
            .map(|n| FaultEvent {
                at: SimTime::from_secs(20),
                node: NodeId(n),
                kind: FaultKind::Hang {
                    duration: SimDuration::from_secs(120),
                },
            })
            .collect();
        let mut sim = managed_mini(4, PolicyKind::Mpc, 0.55)
            .with_faults(FaultInjection::new(FaultSchedule::new(events)));
        sim.run_for(SimDuration::from_secs(300));
        assert!(
            sim.commands_failed() > 0,
            "frozen actuators must fail commands"
        );
        assert!(
            sim.commands_applied() > 0,
            "commands succeed after the thaw"
        );
    }

    #[test]
    fn silence_starves_telemetry_into_conservative_mode() {
        use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
        // Darken the whole cluster's telemetry for a long window; coverage
        // hits 0 and every capping cycle in the window runs conservative.
        let schedule = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_secs(30),
            node: NodeId(0),
            kind: FaultKind::SubtreePartition {
                width: 4,
                duration: SimDuration::from_secs(200),
            },
        }]);
        let mut sim =
            managed_mini(4, PolicyKind::Mpc, 0.55).with_faults(FaultInjection::new(schedule));
        sim.run_for(SimDuration::from_secs(300));
        let stats = sim.manager().unwrap().stats();
        assert!(stats.conservative_cycles > 0, "coverage floor must trip");
        let report = sim.availability_report().unwrap();
        assert_eq!(report.silences, 4);
        assert!(report.conservative_fraction > 0.0);
    }

    /// FNV-1a over the raw bit patterns of a float series.
    fn fnv1a_bits(values: &[f64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// All determinism fingerprints (journal, trace, spans, metrics,
    /// health rollup/sketches/alerts) plus the coarse outcome counters.
    #[allow(clippy::type_complexity)]
    fn digest(sim: &ClusterSim) -> (u64, u64, u64, u64, u64, u64, u64, usize, u64) {
        let hf = sim.health_fingerprints();
        (
            sim.journal().fingerprint(),
            fnv1a_bits(sim.true_power().values()),
            sim.span_fingerprint(),
            sim.metrics_fingerprint(),
            hf.rollup,
            hf.sketch,
            hf.alerts,
            sim.finished().len(),
            sim.commands_applied(),
        )
    }

    #[test]
    fn incremental_matches_full_fingerprints_fault_free() {
        // The fault-free managed run is the regime where lazy cycle
        // skipping and quiescent resampling actually engage; every
        // fingerprint must still be bit-identical to the dense reference.
        let run = |mode: EvalMode| {
            let mut sim = managed_mini(8, PolicyKind::Mpc, 0.60).with_eval_mode(mode);
            sim.run_for(SimDuration::from_secs(400));
            digest(&sim)
        };
        assert_eq!(run(EvalMode::Full), run(EvalMode::Incremental));
    }

    #[test]
    fn incremental_matches_full_with_critical_jobs() {
        // SLA protection moves nodes out of and back into the candidate
        // set mid-run: the lazy path must freeze a protected node's agent
        // baseline at the protection edge and take a gap-spanning sample
        // on rejoin, exactly like the dense reference that sampled it
        // every cycle until protection and re-sampled it on release.
        let run = |mode: EvalMode| {
            let mut spec = ClusterSpec::mini(8);
            spec.provision_fraction = 0.60;
            spec.critical_job_fraction = 0.4;
            let sets = NodeSets::new(spec.node_ids(), spec.privileged.iter().copied());
            let config = ManagerConfig {
                training_cycles: 0,
                ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
            };
            let manager = PowerManager::new(config, sets).unwrap();
            let mut sim = ClusterSim::new(spec)
                .with_manager(manager)
                .with_eval_mode(mode);
            sim.run_for(SimDuration::from_secs(500));
            digest(&sim)
        };
        assert_eq!(run(EvalMode::Full), run(EvalMode::Incremental));
    }

    /// SLA release lands mid-tick, after the materialize pass took this
    /// tick's lazy samples: a released member that is dirty this tick (a
    /// phase edge or a command staged last tick) was no candidate then, so
    /// the control cycle must sample it. Every such node is sampled at
    /// control time, and every fingerprint matches the dense reference on
    /// every tick.
    #[test]
    fn released_dirty_nodes_are_sampled_at_control_time() {
        let make = |mode: EvalMode| {
            let mut spec = ClusterSpec::mini(16);
            spec.provision_fraction = 0.60;
            spec.critical_job_fraction = 0.4;
            let sets = NodeSets::new(spec.node_ids(), spec.privileged.iter().copied());
            let config = ManagerConfig {
                training_cycles: 0,
                ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
            };
            let manager = PowerManager::new(config, sets).unwrap();
            ClusterSim::new(spec)
                .with_manager(manager)
                .with_eval_mode(mode)
        };
        let mut full = make(EvalMode::Full);
        let mut inc = make(EvalMode::Incremental);
        assert!(inc.incremental_active() && inc.lazy_control_ok());
        let mut released_dirty = 0;
        for tick in 1..=600 {
            let done = inc.finished().len();
            full.step();
            inc.step();
            assert_eq!(digest(&full), digest(&inc), "diverged at tick {tick}");
            let sets = inc.hierarchy.as_ref().unwrap().sets();
            for r in &inc.finished()[done..] {
                if r.priority != JobPriority::Critical {
                    continue;
                }
                for &n in &r.nodes {
                    if inc.columns.dirty.contains(n) && sets.is_candidate(n) {
                        released_dirty += 1;
                        assert_eq!(
                            inc.last_sampled_tick[n.0 as usize], tick,
                            "released dirty node {n} unsampled at tick {tick}"
                        );
                    }
                }
            }
        }
        assert!(released_dirty > 0, "no release met a dirty member");
    }

    /// Steps a Full and an Incremental sim built by `make` in lockstep for
    /// `ticks`, handing both to `check` after every tick: their
    /// fresh-candidate masks must agree on every tick and every
    /// fingerprint at the end. Under faults the Incremental sim keeps the
    /// lazy regime, so it must also take under three quarters of the real
    /// samples the dense reference takes (these small clusters are
    /// saturated, so most nodes change every few ticks).
    fn assert_lockstep_under_faults(
        make: impl Fn(EvalMode) -> ClusterSim,
        ticks: u64,
        mut check: impl FnMut(u64, &ClusterSim),
    ) {
        let mut full = make(EvalMode::Full);
        let mut inc = make(EvalMode::Incremental);
        assert!(inc.incremental_active() && inc.lazy_control_ok() && inc.faults.is_some());
        let (mut dense_samples, mut lazy_samples) = (0, 0);
        for tick in 1..=ticks {
            full.step();
            inc.step();
            assert_eq!(
                full.fresh_candidates(),
                inc.fresh_candidates(),
                "fresh candidates diverged at tick {tick}"
            );
            dense_samples += full.scratch_samples.len();
            lazy_samples += inc.scratch_samples.len();
            check(tick, &inc);
        }
        assert_eq!(digest(&full), digest(&inc));
        assert!(
            lazy_samples * 4 < dense_samples * 3,
            "lazy {lazy_samples} vs dense {dense_samples} samples"
        );
    }

    #[test]
    fn incremental_matches_full_fingerprints_under_faults() {
        use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
        // Faults keep the lazy regime: only dirty nodes and the nodes a
        // fault edge brings back are sampled.
        let make = |mode: EvalMode| {
            let schedule = FaultSchedule::new(vec![
                FaultEvent {
                    at: SimTime::from_secs(40),
                    node: NodeId(1),
                    kind: FaultKind::Crash {
                        reboot: SimDuration::from_secs(30),
                    },
                },
                FaultEvent {
                    at: SimTime::from_secs(60),
                    node: NodeId(2),
                    kind: FaultKind::Hang {
                        duration: SimDuration::from_secs(50),
                    },
                },
                FaultEvent {
                    at: SimTime::from_secs(90),
                    node: NodeId(3),
                    kind: FaultKind::AgentSilence {
                        duration: SimDuration::from_secs(40),
                    },
                },
            ]);
            managed_mini(8, PolicyKind::Mpc, 0.60)
                .with_eval_mode(mode)
                .with_faults(FaultInjection::new(schedule))
        };
        assert_lockstep_under_faults(make, 400, |_, _| {});
    }

    /// A hand-made schedule with one of every fault edge the lazy regime
    /// must honour, on a saturated 8-node cluster running critical jobs
    /// under a 3 s staleness limit.
    #[test]
    fn every_fault_edge_keeps_incremental_equal_to_full() {
        use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
        let at = |secs, node, kind| FaultEvent {
            at: SimTime::from_secs(secs),
            node: NodeId(node),
            kind,
        };
        let silence = |secs| FaultKind::AgentSilence {
            duration: SimDuration::from_secs(secs),
        };
        let make = |mode: EvalMode| {
            let schedule = FaultSchedule::new(vec![
                // Longer than the staleness limit: node 3 drops out.
                at(50, 3, silence(40)),
                at(
                    60,
                    2,
                    FaultKind::Hang {
                        duration: SimDuration::from_secs(50),
                    },
                ),
                at(
                    80,
                    1,
                    FaultKind::Crash {
                        reboot: SimDuration::from_secs(30),
                    },
                ),
                at(
                    120,
                    4,
                    FaultKind::SubtreePartition {
                        width: 4,
                        duration: SimDuration::from_secs(20),
                    },
                ),
                // Shorter than the limit: node 6 never drops out.
                at(150, 6, silence(2)),
                // Long enough to span phase edges of the job on node 5.
                at(200, 5, silence(60)),
                // A crash while silent, then a silence struck on the
                // reboot tick.
                at(300, 7, silence(50)),
                at(
                    320,
                    7,
                    FaultKind::Crash {
                        reboot: SimDuration::from_secs(20),
                    },
                ),
                at(340, 7, silence(10)),
            ]);
            let mut spec = ClusterSpec::mini(8);
            spec.provision_fraction = 0.60;
            spec.critical_job_fraction = 0.4;
            let sets = NodeSets::new(spec.node_ids(), []);
            let config = ManagerConfig {
                training_cycles: 0,
                ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
            };
            ClusterSim::new(spec)
                .with_manager(PowerManager::new(config, sets).unwrap())
                .with_eval_mode(mode)
                .with_faults(FaultInjection {
                    staleness_limit: SimDuration::from_secs(3),
                    ..FaultInjection::new(schedule)
                })
        };
        let (mut dark_stale, mut dark_fresh, mut dark_edges) = (0, 0, 0);
        let mut released = false;
        assert_lockstep_under_faults(make, 500, |tick, sim| {
            let engine = sim.fault_engine().unwrap();
            let fresh = sim.fresh_candidates().unwrap();
            if engine.is_silent(NodeId(3)) {
                if fresh.contains(NodeId(3)) {
                    dark_fresh += 1;
                } else {
                    dark_stale += 1;
                }
            }
            if (151..=152).contains(&tick) {
                assert!(fresh.contains(NodeId(6)), "short silence went stale");
            }
            if engine.is_silent(NodeId(5)) && sim.columns().dirty.contains(NodeId(5)) {
                dark_edges += 1;
            }
            released |= sim
                .finished()
                .iter()
                .any(|r| r.priority == JobPriority::Critical);
        });
        // Fresh for the 3 s limit after the last sample, stale after.
        assert_eq!((dark_fresh, dark_stale), (3, 37));
        assert!(
            dark_edges > 0,
            "the silence on node 5 crossed no phase edge"
        );
        assert!(released, "no critical job released its nodes");
    }

    /// A capped candidate set admits another node whenever a candidate
    /// leaves it (SLA protection, a crash); the lazy regime cannot see
    /// that node join, so a capped run takes the dense control path.
    #[test]
    fn incremental_matches_full_with_a_capped_candidate_set() {
        use ppc_faults::{FaultInjection, FaultRates, FaultSchedule};
        let run = |mode: EvalMode| {
            let mut spec = ClusterSpec::mini(8);
            spec.provision_fraction = 0.60;
            spec.critical_job_fraction = 0.4;
            let sets = NodeSets::new(spec.node_ids(), []).with_candidate_cap(Some(4));
            let config = ManagerConfig {
                training_cycles: 0,
                ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
            };
            let rates = FaultRates {
                crash_per_node_hour: 6.0,
                reboot_mean_secs: 40.0,
                ..FaultRates::default()
            };
            let schedule = FaultSchedule::generate(
                &rates,
                8,
                SimDuration::from_secs(500),
                &RngFactory::new(5),
            );
            let mut sim = ClusterSim::new(spec)
                .with_manager(PowerManager::new(config, sets).unwrap())
                .with_eval_mode(mode)
                .with_faults(FaultInjection::new(schedule));
            assert!(!sim.lazy_control_ok());
            sim.run_for(SimDuration::from_secs(500));
            digest(&sim)
        };
        assert_eq!(run(EvalMode::Full), run(EvalMode::Incremental));
    }

    #[test]
    fn incremental_matches_full_unmanaged() {
        let run = |mode: EvalMode| {
            let mut sim = ClusterSim::new(ClusterSpec::mini(8)).with_eval_mode(mode);
            sim.run_for(SimDuration::from_secs(400));
            (
                fnv1a_bits(sim.true_power().values()),
                sim.journal().fingerprint(),
                sim.finished().len(),
            )
        };
        assert_eq!(run(EvalMode::Full), run(EvalMode::Incremental));
    }

    /// A busy trace-fed 128-node fleet: Poisson arrivals over
    /// `horizon_secs` (a tenth of them critical) keep jobs starting and
    /// finishing nearly every tick.
    pub(super) fn busy_spec(horizon_secs: u64) -> ClusterSpec {
        let mut spec = ClusterSpec::mini(128);
        spec.provision_fraction = 0.65;
        spec.critical_job_fraction = 0.1;
        let factory = RngFactory::new(spec.seed);
        let mut gaps = factory.stream("test.arrivals", 0);
        let mut draws = JobGenerator::new(factory, spec.class, spec.max_nprocs().min(256))
            .with_critical_fraction(spec.critical_job_fraction);
        let mut trace = Vec::new();
        let mut t = gaps.exponential(1.0 / 1.5);
        while t < horizon_secs as f64 {
            let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
            let job = draws.next_job(at);
            trace.push(TraceEntry {
                at,
                app: job.app(),
                class: job.class(),
                nprocs: job.nprocs(),
                priority: job.priority(),
            });
            t += gaps.exponential(1.0 / 1.5);
        }
        spec.job_trace = Some(trace);
        spec
    }

    /// What [`assert_dirty_covers_power_changes`] saw the incremental run
    /// do.
    #[derive(Debug, Default)]
    struct DirtyCoverage {
        /// Ticks on which at least one job started and one finished.
        churn_ticks: u64,
        /// Phase edges on jobs that a `swap_remove` moved down the run
        /// queue in the same advance.
        moved_edges: u64,
    }

    /// Steps a dense and an incremental sim in lockstep for `ticks`:
    /// whenever any node's true power changes between consecutive ticks in
    /// the dense run, that node must be in the incremental run's dirty set
    /// for the tick — and the whole power column must stay bit-equal. The
    /// members of a job whose phase moved after a `swap_remove` moved it
    /// must be dirty the next tick.
    fn assert_dirty_covers_power_changes(
        mut full: ClusterSim,
        mut inc: ClusterSim,
        ticks: u64,
    ) -> DirtyCoverage {
        let mut seen = DirtyCoverage::default();
        let mut prev = full.columns().power_w().to_vec();
        let mut pending: Vec<NodeId> = Vec::new();
        for tick in 0..ticks {
            let before: Vec<(JobId, usize)> = inc
                .scheduler
                .running_jobs()
                .iter()
                .map(|j| (j.id(), j.phase_index()))
                .collect();
            let finished = inc.finished().len();
            full.step();
            inc.step();
            let cur = full.columns().power_w();
            assert_eq!(
                cur,
                inc.columns().power_w(),
                "power columns diverged at tick {tick}"
            );
            for (i, (&p, &q)) in prev.iter().zip(cur.iter()).enumerate() {
                if p.to_bits() != q.to_bits() {
                    assert!(
                        inc.columns().dirty.contains(NodeId(i as u32)),
                        "node {i} power changed at tick {tick} but was not dirty"
                    );
                }
            }
            for &n in &pending {
                assert!(
                    inc.columns().dirty.contains(n),
                    "moved job's phase edge on {n} not dirty at tick {tick}"
                );
            }
            pending.clear();
            let done = inc.finished().len() - finished;
            let running = inc.scheduler.running_jobs();
            if done > 0 && running.len() + done > before.len() {
                seen.churn_ticks += 1;
            }
            for (slot, job) in running.iter().enumerate() {
                let was = before.iter().position(|&(id, _)| id == job.id());
                if let Some(old) = was.filter(|&old| old != slot) {
                    if before[old].1 != job.phase_index() {
                        seen.moved_edges += 1;
                        pending.extend_from_slice(job.nodes());
                    }
                }
            }
            prev = cur.to_vec();
        }
        seen
    }

    #[test]
    fn dirty_set_covers_every_power_change() {
        use ppc_faults::{FaultEvent, FaultInjection, FaultKind, FaultSchedule};
        let make = |mode: EvalMode| {
            let schedule = FaultSchedule::new(vec![
                FaultEvent {
                    at: SimTime::from_secs(30),
                    node: NodeId(1),
                    kind: FaultKind::Crash {
                        reboot: SimDuration::from_secs(20),
                    },
                },
                FaultEvent {
                    at: SimTime::from_secs(55),
                    node: NodeId(4),
                    kind: FaultKind::Hang {
                        duration: SimDuration::from_secs(40),
                    },
                },
            ]);
            managed_mini(8, PolicyKind::Mpc, 0.60)
                .with_eval_mode(mode)
                .with_faults(FaultInjection::new(schedule))
        };
        assert_dirty_covers_power_changes(make(EvalMode::Full), make(EvalMode::Incremental), 300);

        // A busy 4-rack hierarchy: jobs start and finish on most ticks, so
        // completions `swap_remove` tail jobs into earlier run-queue slots
        // on the same advance that moves their phase.
        const TICKS: u64 = 400;
        let make = |mode: EvalMode| {
            let spec = busy_spec(TICKS);
            let config = ManagerConfig {
                training_cycles: 0,
                ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
            };
            let topology = ppc_core::Topology::new(128, 32, 2).unwrap();
            let h =
                HierarchicalManager::new(config, topology, &BTreeSet::new(), spec.node_weights_w())
                    .unwrap();
            ClusterSim::new(spec).with_hierarchy(h).with_eval_mode(mode)
        };
        let seen = assert_dirty_covers_power_changes(
            make(EvalMode::Full),
            make(EvalMode::Incremental),
            TICKS,
        );
        assert!(seen.churn_ticks > TICKS / 4, "{seen:?}");
        assert!(seen.moved_edges > 0, "{seen:?}");
    }

    #[test]
    fn privileged_nodes_keep_top_level_under_red_pressure() {
        let mut spec = ClusterSpec::mini(4);
        spec.provision_fraction = 0.55;
        spec.privileged = vec![NodeId(0)];
        let sets = NodeSets::new(spec.node_ids(), [NodeId(0)]);
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::MpcC)
        };
        let manager = PowerManager::new(config, sets).unwrap();
        let mut sim = ClusterSim::new(spec).with_manager(manager);
        sim.run_for(SimDuration::from_secs(300));
        assert!(sim.commands_applied() > 0);
        let levels = sim.node_levels();
        assert_eq!(levels[0], Level::new(9), "privileged node untouched");
        assert!(
            levels[1..].iter().any(|&l| l < Level::new(9)),
            "other nodes were throttled"
        );
    }

    fn managed_hier(nodes: u32, nodes_per_rack: u32) -> ClusterSim {
        let mut spec = ClusterSpec::mini(nodes);
        spec.provision_fraction = 0.6;
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
        };
        let topology = ppc_core::Topology::new(nodes, nodes_per_rack, 2).unwrap();
        let h = HierarchicalManager::new(config, topology, &BTreeSet::new(), spec.node_weights_w())
            .unwrap();
        ClusterSim::new(spec).with_hierarchy(h)
    }

    #[test]
    fn every_step_stage_is_charged_once_per_managed_tick() {
        const TICKS: u64 = 40;
        // Only a multi-rack tick runs (and charges) the delegation pass.
        for (mut sim, delegates) in [
            (managed_mini(16, PolicyKind::Mpc, 0.6), false),
            (managed_hier(16, 4), true),
        ] {
            sim.run_for(SimDuration::from_secs(TICKS));
            let report = sim.obs().profile.report();
            let mut stages = vec![
                "faults",
                "schedule",
                "materialize",
                "advance",
                "sample",
                "control",
                "actuate",
                "health",
            ];
            if delegates {
                stages.push("delegate");
            }
            for &stage in &stages {
                let count = report.iter().find(|c| c.stage == stage).map(|c| c.count);
                assert_eq!(count, Some(TICKS), "stage {stage}");
            }
            assert_eq!(report.len(), stages.len(), "no other stage is charged");
        }
    }

    /// Wall seconds charged to every `StageProfiler` stage so far.
    fn staged_secs(sim: &ClusterSim) -> f64 {
        let report = sim.obs().profile.report();
        report.iter().map(|c| c.mean_secs * c.count as f64).sum()
    }

    /// The profiler's stages account for the tick: together they cover at
    /// least 95% of `step`'s wall time, flat at 128 nodes and hierarchical
    /// at 1 024 and 10 240 nodes, so a per-stage breakdown leaves nothing
    /// material untimed.
    #[test]
    fn profiler_stages_cover_the_step() {
        const TICKS: u32 = 40;
        for (mut sim, label) in [
            (managed_mini(128, PolicyKind::Mpc, 0.6), "128 flat"),
            (managed_hier(1024, 128), "1 024 hierarchical"),
            (managed_hier(10240, 128), "10 240 hierarchical"),
        ] {
            // Warm up past the first tick, which materializes every node.
            sim.run_for(SimDuration::from_secs(10));
            let before = staged_secs(&sim);
            let mut wall = ppc_obs::StageProfiler::new();
            for _ in 0..TICKS {
                let t = wall.start();
                sim.step();
                wall.stop("step", t);
            }
            let staged = staged_secs(&sim) - before;
            let step = wall.report()[0].mean_secs * f64::from(TICKS);
            assert!(
                staged >= 0.95 * step,
                "{label}: stages cover {:.1}% of the step",
                100.0 * staged / step
            );
        }
    }

    #[test]
    fn rack_fanout_reuses_its_buffers() {
        let mut sim = managed_hier(16, 4);
        sim.run_for(SimDuration::from_secs(5));
        let outcomes = (
            sim.fanout.outcomes.as_ptr() as usize,
            sim.fanout.outcomes.capacity(),
        );
        assert!(outcomes.1 >= 4);
        sim.run_for(SimDuration::from_secs(20));
        assert_eq!(
            (
                sim.fanout.outcomes.as_ptr() as usize,
                sim.fanout.outcomes.capacity()
            ),
            outcomes
        );
    }

    #[test]
    fn multi_rack_node_sketch_sees_every_node() {
        // 10 nodes in racks of 4: the last rack is partial. Every
        // node-sample tick must observe each node once, whatever the
        // rack layout.
        const NODES: u64 = 10;
        let mut sim = managed_hier(NODES as u32, 4);
        assert_eq!(sim.hierarchy().unwrap().topology().racks(), 3);
        let ticks = 2 * ppc_obs::NODE_SKETCH_PERIOD + 1;
        sim.run_for(SimDuration::from_secs(ticks));
        let samples = (1..=ticks)
            .filter(|&t| sim.health().wants_node_sample(t))
            .count() as u64;
        assert_eq!(samples, 2);
        assert_eq!(sim.health().node_power().count(), NODES * samples);
    }
}
