//! The cluster simulation loop.
//!
//! One tick (= the sampling interval τ = one control cycle) runs these
//! phases in order on one thread, like the paper's capping loop (meter,
//! classify, select, step DVFS, once per period). Each phase has its own
//! module and charges its own [`ppc_obs::StageProfiler`] stages:
//!
//! | phase | stages | module |
//! |---|---|---|
//! | tick boundary, timer wheel, fault edges | `faults` | `sim/faults.rs` |
//! | job arrivals, placement, SLA protection | `schedule` | `sim/schedule.rs` |
//! | node operating states (and lazy samples) | `materialize` | `sim/advance.rs` |
//! | job progress, thermal, fleet power, meter | `advance` | `sim/advance.rs` |
//! | agents, delegation, observation, decision | `sample`, `delegate`, `control` | `sim/control.rs` |
//! | throttling commands and retries | `actuate` | `sim/actuate.rs` |
//! | instruments, root span, health fold | `health` | `sim/health.rs` |
//!
//! ## Evaluation regimes
//!
//! Three regimes, bit-identical in every trace, journal, span tree, metric
//! and health fingerprint:
//!
//! * **Full** — the dense reference: every node's state and power is
//!   re-evaluated into the [`NodeColumns`] every tick, and every lit
//!   candidate is sampled every cycle. Requested as [`EvalMode::Full`], or
//!   forced by what the dirty set cannot represent: the budget controller
//!   (it samples every node), thermal models (they integrate every node),
//!   agent sampling noise (a skipped sample would desync its RNG).
//! * **Incremental with dense control** — only *dirty* nodes (a load,
//!   level, or up/down input changed) are re-evaluated, in ascending id;
//!   clean nodes' counters are caught up in closed form when next needed
//!   ([`ppc_node::procfs::ProcCounters::advance_many`]). The control cycle
//!   still samples every candidate and rebuilds every rack's observations.
//!   Forced by meter dropout (a skipped cycle widens the next sample's
//!   interval) or a capped candidate set (one node's flags toggling moves
//!   *other* nodes in and out).
//! * **Incremental lazy** (the default under a power manager, faults
//!   included) — the control cycle samples only what changed (the dirty
//!   lit candidates, in the materialize pass) and updates the rack
//!   observations of `sim/rack_obs.rs` in place from the edges.
//!
//! One-shot events — the think-time arrival gate and telemetry staleness
//! deadlines — ride a [`TimeWheel`]. Phase boundaries do not: they depend
//! on member speeds, which throttling changes mid-flight, so the advance
//! pass detects them and stages the affected members dirty.

use crate::columns::NodeColumns;
use crate::spec::ClusterSpec;
use actuate::PendingRetry;
use advance::freeze_agent;
use control::{Decision, FanoutScratch};
use faults::FaultState;
use health::{HierInstruments, ObsInstruments};
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
use ppc_obs::profile::StageTimer;
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
use ppc_workload::job::NodeLoad;
use ppc_workload::{
    AdmissionPolicy, Class, Job, JobGenerator, JobId, JobPriority, JobQueue, JobRecord, NpbApp,
    Scheduler, TraceSource,
};
use rack_obs::{Observer, RackObs};
use std::collections::BTreeSet;
use std::sync::Arc;

mod actuate;
mod advance;
mod control;
mod faults;
mod health;
mod rack_obs;
mod schedule;

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
    /// A dark candidate's last sample reaches the staleness limit (lazy
    /// regime under faults): its freshness is re-derived this cycle.
    FreshnessDue(NodeId),
}

/// What every phase of one tick reads.
#[derive(Clone, Copy)]
struct Tick {
    /// The tick being computed: `tick_index + 1`.
    tick: u64,
    /// Its start instant `(tick − 1)·τ`.
    start: SimTime,
    /// τ in seconds.
    dt: f64,
    /// The dirty-set path evaluates nodes ([`ClusterSim::incremental_active`]).
    incremental: bool,
    /// The lazy control regime runs the cycle: incremental evaluation, a
    /// power manager, and [`ClusterSim::lazy_control_ok`].
    lazy: bool,
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
    /// `(state, at)` log of control-cycle classifications.
    state_log: Vec<(SimTime, PowerState)>,
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
    /// Timer wheel carrying the arrival gate and staleness deadlines.
    wheel: TimeWheel<WheelEvent>,
    /// Completed ticks; the tick being computed inside `step()` is
    /// `tick_index + 1` and stamps `now1 = tick · τ`.
    tick_index: u64,
    /// Whether the think-time gate is open (opened by the wheel).
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
            state_log: Vec::new(),
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
            wheel: TimeWheel::new(),
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

    /// The dense node columns (power/speed/down/stamps + dirty set).
    pub fn columns(&self) -> &NodeColumns {
        &self.columns
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
        self.obs.metrics.counter_value(self.obs_i.commands_applied)
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
        self.obs.metrics.counter_value(self.obs_i.commands_failed)
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
            commands_failed: self.commands_failed(),
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
        let incremental = self.incremental_active();
        if let Some(fs) = self.faults.as_mut() {
            // Whatever command we owed the node is moot.
            fs.retries.retain(|r| r.node != n);
        }
        // Between ticks, so every change lands next tick; a released node
        // rejoins the candidate set then, and the lazy regime must take a
        // real sample of it (its delta spans the whole protection window).
        let lazy = incremental && self.lazy_control_ok();
        if let Some(mut job) = self.evict_from(n, true, lazy) {
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
        self.power_off(n, self.tick_index, true, incremental);
        self.fresh_suspects.push(n);
        // The fault schedule predates the decommission: mask its pending
        // edges for this node (a reboot must not resurrect it).
        self.decommissioned.insert(n);
        self.journal.record_with(now, Severity::Warn, "whatif", || {
            format!("node {} decommissioned", n.0)
        });
        true
    }

    /// Advances the simulation by one tick: the phases of the module docs'
    /// table, in order, their stages timed back to back.
    pub fn step(&mut self) {
        let stage = self.obs.profile.start();
        let incremental = self.incremental_active();
        let t = Tick {
            tick: self.tick_index + 1,
            start: self.clock.now(),
            dt: self.clock.dt_secs(),
            incremental,
            lazy: incremental && self.hierarchy.is_some() && self.lazy_control_ok(),
        };
        let stage = self.fault_phase(&t, stage);
        let stage = self.schedule_phase(&t, stage);
        let stage = self.materialize(&t, stage);
        let (now, reading) = self.advance(&t, stage);
        if let Some(decision) = self.decide(now, reading, &t) {
            let (stage, red_entered) = self.actuate(now, &decision);
            self.fold_health(now, t.tick, &decision, red_entered, stage);
        }
        // Commit the tick. Only the lazy control cycle consumes freshness
        // suspects.
        self.fresh_suspects.clear();
        self.tick_index = t.tick;
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

mod tests;
