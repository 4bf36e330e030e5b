//! The `sample`, `delegate` and `control` stages: the profiling agents,
//! the hierarchy's delegation pass, and the control plane's decision —
//! the paper's power manager (flat or per rack) or the proportional
//! budget baseline.
//!
//! Every agent sample is taken by one method,
//! [`take_sample`](ClusterSim::take_sample), which writes the sample, its
//! predicted saving and the node's sample tick. Its three callers choose
//! only which nodes: the lazy regime's
//! [`lazy_sample`](ClusterSim::lazy_sample) (the materialize pass and the
//! forced re-samples), the dense candidate loop of
//! [`sample`](ClusterSim::sample), and
//! [`budget_cycle`](ClusterSim::budget_cycle), which samples every node
//! that is not privileged, not down and not silent, and hands the tick's
//! samples to the budget controller.

use super::*;

/// A control plane's decision, handed to actuation and the health fold.
pub(super) struct Decision {
    /// The classification and the throttling commands.
    pub(super) outcome: CycleOutcome,
    /// The meter reading the cycle acted on, watts.
    pub(super) metered_w: f64,
    /// Subject of the state-edge journal entry.
    pub(super) subject: &'static str,
    /// False while the power manager trains: observe only, never throttle.
    pub(super) actuate: bool,
    /// The facility zone's budget for the health fold, watts.
    pub(super) facility_budget_w: f64,
    /// The facility zone's telemetry coverage for the health fold.
    pub(super) facility_coverage: f64,
}

/// Buffers of the rack control cycles, reused across ticks.
#[derive(Default, Clone)]
pub(super) struct FanoutScratch {
    /// Per-rack collector coverage, also read by the health rollup.
    pub(super) coverage: Vec<f64>,
    /// Rack classifications in rack order, for the capping half.
    pub(super) classified: Vec<Classification>,
    /// Per rack: whether its capping half reads the job observations
    /// (the one rack's too on a single-rack topology).
    pub(super) reads: Vec<bool>,
    /// Rack outcomes in rack order, drained by the rollup.
    pub(super) outcomes: Vec<CycleOutcome>,
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

impl ClusterSim {
    /// Runs the attached control plane's cycle on the meter reading taken
    /// at `now`. A meter gap carries no information: acting on it would
    /// read as maximal headroom and promote every degraded node, so the
    /// cycle is skipped instead (`None`, as for an unmanaged run). The lazy
    /// regime excludes meter dropout, so its cycle (which consumes the
    /// samples taken while materializing) always runs.
    pub(super) fn decide(
        &mut self,
        now: SimTime,
        reading: MeterReading,
        t: &Tick,
    ) -> Option<Decision> {
        debug_assert!(
            !t.lazy || reading.value().is_some(),
            "the lazy regime's control cycle never skips"
        );
        let metered_w = reading.value()?;
        if self.hierarchy.is_some() {
            self.control_cycle(now, metered_w, t)
        } else {
            self.budget_cycle(now, metered_w, t.tick)
        }
    }

    /// Runs the proportional-budget baseline's decision: sample every
    /// node with an agent to sample (this architecture has no candidate
    /// subset) and split the budget into absolute levels. The agent-less
    /// nodes are the privileged ones (SLA-protected among them), the down
    /// ones (crashed or decommissioned) and the silent ones.
    fn budget_cycle(&mut self, now: SimTime, metered_w: f64, tick: u64) -> Option<Decision> {
        // Held out of `self` while the agents sample.
        let mut controller = self.budget_controller.take()?;
        self.obs.spans.open("cycle", now);
        self.obs.spans.open("sample", now);
        debug_assert!(
            self.scratch_samples.is_empty(),
            "the dense regime samples only at control time"
        );
        for idx in 0..self.nodes.len() {
            let id = NodeId(idx as u32);
            let silent = self
                .faults
                .as_ref()
                .is_some_and(|fs| fs.engine.is_silent(id));
            if self.nodes[idx].is_privileged() || self.scheduler.is_node_down(id) || silent {
                continue;
            }
            self.take_sample(idx, tick, now);
        }
        let (spans, samples) = (&mut self.obs.spans, &self.scratch_samples);
        spans.attr("samples", AttrValue::U64(samples.len() as u64));
        spans.close(now);
        self.obs.profile.lap("sample");
        spans.open("control", now);
        let (state, commands) = controller.cycle(metered_w, samples, &self.nodes);
        spans.attr("state", AttrValue::Str(state.name()));
        spans.attr("commands", AttrValue::U64(commands.len() as u64));
        spans.close(now);
        self.obs.profile.lap("control");
        let thresholds = controller.thresholds();
        self.budget_controller = Some(controller);
        // The budget architecture has no racks or provision figure: its
        // health zone tracks the metered power against the controller's
        // own high watermark.
        Some(Decision {
            outcome: CycleOutcome {
                state,
                commands,
                thresholds,
                thresholds_adjusted: false,
            },
            metered_w,
            subject: "budget controller: state",
            actuate: true,
            facility_budget_w: thresholds.p_high_w(),
            facility_coverage: 1.0,
        })
    }

    /// Runs the delegation pass (multi-rack trees), the sampling agents
    /// and the power manager's control cycle.
    fn control_cycle(&mut self, now: SimTime, metered_w: f64, t: &Tick) -> Option<Decision> {
        // Held out of `self` for the decision; put back before actuation,
        // which reads it.
        let mut hier = self.hierarchy.take()?;
        self.obs.spans.open("cycle", now);

        // Hierarchical delegation pass (multi-rack only): re-cut the
        // facility budget across rows and racks from each rack's *true*
        // power demand before the rack control cycles run. Absent on
        // single-rack topologies (the flat architecture).
        let multi = !hier.is_single_rack();
        let mut fleet_true_w = 0.0;
        if multi {
            fleet_true_w = self.columns.fleet_power_w();
            let spans = &mut self.obs.spans;
            spans.open("delegate", now);
            let outcome = hier.delegate(self.columns.shard_power_w());
            let racks = hier.topology().racks() as u64;
            spans.attr("racks", AttrValue::U64(racks));
            spans.attr("redelegated", AttrValue::U64(u64::from(outcome.changed)));
            spans.attr("drained", AttrValue::U64(outcome.drained.len() as u64));
            spans.close(now);
            for &r in &outcome.drained {
                self.journal.record_with(now, Severity::Warn, "hier", || {
                    format!("rack {r} budget drained to its row (no online nodes)")
                });
            }
            if let Some(hi) = self.hier_i.as_ref() {
                let metrics = &mut self.obs.metrics;
                metrics.inc(hi.redelegations, u64::from(outcome.changed));
                metrics.inc(hi.budget_drains, outcome.drained.len() as u64);
                for (&g, &b) in hi.rack_budget.iter().zip(hier.rack_budget_w()) {
                    metrics.set(g, b);
                }
            }
            self.obs.profile.lap("delegate");
        }

        let logical_samples = self.sample(hier.sets(), now, t);

        // Everything the management node computes per cycle is charged to
        // the `control` stage, the management cost the run reports, split
        // into ingestion (with the staleness filter), observation building
        // (note or rebuild, and flush) and selection (classify, cap,
        // rollup). Job membership is borrowed straight from the run-queue
        // — no clones. Under fault injection the staleness filter runs
        // first: only candidates with fresh samples are selectable, and
        // the fresh fraction feeds the manager's coverage-floor fallback.
        let lazy = t.lazy;
        let (ingest, observe, select) = ("control.ingest", "control.observe", "control.select");
        let mut clock = self.obs.profile.split([ingest, observe, select]);
        let saving_w = &self.saving_w;
        let collector = &mut self.collector;
        let nodes = &self.nodes;
        let scheduler = &self.scheduler;
        let samples = &self.scratch_samples;
        let settle = &self.scratch_settle;
        let store = &mut self.rack_obs;
        let faults = self.faults.as_mut();
        let spans = &mut self.obs.spans;
        let rack_true = self.columns.shard_power_w();
        let fanout = &mut self.fanout;
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
            // sampling; the dense regime refills it from timestamps.
            if !lazy {
                fs.fresh.reset(0..nodes.len() as u32);
                for id in sets.candidate_mask().iter() {
                    if collector.is_fresh(id, now, fs.staleness_limit) {
                        fs.fresh.insert(id);
                    }
                }
            }
            if sets.candidate_count() > 0 {
                coverage = fs.fresh.len() as f64 / sets.candidate_count() as f64;
            }
            let fs = &*fs;
            flipped = &fs.flipped;
            &fs.fresh
        });
        clock.lap(ingest);
        // Under faults only candidates with fresh telemetry are
        // observed. The lazy regime notes what changed (run-queue edits,
        // sampled, settled and freshness-flipped nodes) and refreshes the
        // per-rack observations only in a cycle whose capping reads them;
        // the dense regime rebuilds every rack.
        spans.open("observe", now);
        let running = scheduler.running_jobs();
        let observer = Observer {
            collector,
            filter: fresh.unwrap_or(sets.candidate_mask()),
            saving_w,
        };
        if lazy {
            let sampled = samples
                .iter()
                .map(|s| s.node)
                .chain(flipped.iter().copied());
            store.note(
                running,
                scheduler.placement_edges(),
                sampled,
                settle.iter().map(|&raw| NodeId(raw)),
                |n| scheduler.slot_of_node(n),
                &observer,
            );
        } else {
            store.rebuild(running, &observer);
        }
        spans.attr("jobs", AttrValue::U64(store.jobs() as u64));
        if fresh.is_some() {
            spans.attr("coverage", AttrValue::F64(coverage));
        }
        spans.close(now);
        clock.lap(observe);
        // Every rack is classified before any capping runs, so the pieces
        // are flushed once, for the racks whose capping reads them.
        let single = if multi {
            classify_racks(
                &mut hier,
                metered_w,
                fresh,
                rack_true,
                fleet_true_w,
                fanout,
                now,
            );
            None
        } else {
            let classified = hier.single_rack_classify(metered_w, now, spans);
            fanout.reads.clear();
            fanout.reads.push(hier.subs()[0].reads_jobs(&classified));
            Some(classified)
        };
        if lazy && fanout.reads.contains(&true) {
            clock.lap(select);
            let observer = Observer {
                collector,
                filter: fresh.unwrap_or(hier.sets().candidate_mask()),
                saving_w,
            };
            store.flush(running, &observer, &fanout.reads);
            clock.lap(observe);
        }
        let racks = store.racks();
        let outcome = match single {
            None => cap_racks(&mut hier, racks, nodes, fanout, now, spans),
            Some(classified) => {
                let view = NodesView(nodes);
                hier.single_rack_cap(classified, &racks[0], &view, coverage, now, spans)
            }
        };
        self.scheduler.clear_placement_edges();
        clock.lap(select);
        self.obs.profile.stop_split("control", clock);
        // The facility coverage is what the controller itself consumed:
        // fresh candidates over all candidates under faults, 1.0
        // otherwise. Training period: observe only, never throttle.
        let decision = Decision {
            outcome,
            metered_w,
            subject: "power state",
            actuate: !hier.in_training(),
            facility_budget_w: hier.config().p_provision_w,
            facility_coverage: coverage,
        };
        self.hierarchy = Some(hier);
        Some(decision)
    }

    /// Runs the agents on the candidate nodes `sets` names, at the control
    /// instant `now`, into the tick's sample buffer, and returns the
    /// *logical* sample count the span tree reports. Agents run on
    /// candidate nodes only; monitoring everything would be the unscalable
    /// design Figure 5 warns about. Dead and silenced nodes deliver nothing
    /// — their collector entries go stale.
    ///
    /// The lazy regime samples from work lists: when nothing changed since
    /// the last cycle, every candidate's sample would be bit-identical to
    /// its previous one and the resulting job observations identical too —
    /// so the lists are empty and the cycle keeps the stored observations.
    /// The manager itself still runs every cycle: the metered reading
    /// moves even when the nodes do not.
    fn sample(&mut self, sets: &NodeSets, now: SimTime, t: &Tick) -> u64 {
        let (lazy, tick) = (t.lazy, t.tick);
        self.obs.spans.open("sample", now);
        self.scratch_settle.clear();
        if lazy {
            self.track_freshness(sets, tick);
            // Work-list sampling: only nodes whose sample value can differ
            // from the collector's current view are touched. A clean,
            // settled candidate's dense sample would be bit-identical to
            // its collector entry, so skipping it changes nothing the
            // policies (or the fingerprints) can see. The materialize pass
            // already sampled the dirty lit candidates; what is left are
            // the forced re-samples, among them the nodes SLA release made
            // candidates after that pass (release queues them here).
            let resample = std::mem::take(&mut self.resample_now);
            for &raw in &resample {
                let id = NodeId(raw);
                let lit = sets.is_candidate(id)
                    && !self
                        .faults
                        .as_ref()
                        .is_some_and(|fs| fs.silent.contains(id));
                if lit && self.last_sampled_tick[raw as usize] != tick {
                    self.lazy_sample(id, tick, now);
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
                self.columns
                    .dirty
                    .indices()
                    .iter()
                    .all(|id| !lit(id) || self.last_sampled_tick[id.0 as usize] == tick),
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
        } else {
            for id in sets.candidate_mask().iter() {
                let faults = self.faults.as_ref();
                if faults.is_some_and(|fs| fs.engine.is_down(id) || fs.engine.is_silent(id)) {
                    continue;
                }
                self.take_sample(id.0 as usize, tick, now);
            }
        }
        // The span tree must be identical across evaluation modes, so the
        // lazy regime reports the *logical* sample count — what the dense
        // path would have taken: one per lit candidate (the lazy regime
        // excludes agent noise, so none are dropped). Silent candidates
        // deliver nothing (lazy regime; empty without faults).
        let logical_samples = if lazy {
            let silent = self.faults.as_ref().map_or(0, |fs| fs.silent.len());
            (sets.candidate_count() - silent) as u64
        } else {
            self.scratch_samples.len() as u64
        };
        let spans = &mut self.obs.spans;
        spans.attr("samples", AttrValue::U64(logical_samples));
        spans.close(now);
        self.obs.profile.lap("sample");
        logical_samples
    }

    /// Lazy regime: takes a real sample of lit candidate `id` at `now`,
    /// the control instant of `tick`, first bringing its counters current
    /// (a forced re-sample may not have materialized this tick, and a
    /// rejoiner's gap accumulates for real).
    pub(super) fn lazy_sample(&mut self, id: NodeId, tick: u64, now: SimTime) {
        let idx = id.0 as usize;
        self.catch_up(id, tick);
        // A sample whose delta does not span exactly the last tick
        // (first-ever sample, post-protection gap) produces a value the
        // next cycle's dense sample would not repeat: force a real
        // follow-up next cycle instead of a settle.
        let fresh_baseline =
            self.agents[idx].is_primed() && self.last_sampled_tick[idx] + 1 == tick;
        if !fresh_baseline {
            self.resample_next.push(id.0);
        }
        self.take_sample(idx, tick, now);
        self.scratch_sampled.push(id.0);
    }

    /// Node `idx`'s agent sample at `now`, the control instant of `tick`:
    /// the one place an agent sample is taken. A delivered sample joins
    /// the tick's buffer and its predicted saving the saving column; a
    /// dropped one (agent noise) leaves the node's last view in place.
    /// Either way the agent has read the node this tick. Forced inline:
    /// the lazy sample calls it once per sample on the hot path, where an
    /// out-of-line call read about 2% slower ticks at 102 400 nodes.
    #[inline(always)]
    fn take_sample(&mut self, idx: usize, tick: u64, now: SimTime) {
        if let Some((sample, saving_w)) = self.agents[idx].sample(&self.nodes[idx], now) {
            self.saving_w[idx] = saving_w;
            self.scratch_samples.push(sample);
        }
        self.last_sampled_tick[idx] = tick;
    }
}

/// The classify half of the multi-rack hierarchical control cycle:
/// apportions the metered reading by each rack's share of true fleet
/// power, restricts coverage to each rack's own candidates, and classifies
/// every rack in rack order into `scratch`, with whether its capping half
/// reads the job observations.
fn classify_racks(
    hier: &mut HierarchicalManager,
    metered_w: f64,
    fresh: Option<&NodeMask>,
    rack_true_w: &[f64],
    fleet_true_w: f64,
    scratch: &mut FanoutScratch,
    now: SimTime,
) {
    let topology = *hier.topology();
    scratch.coverage.clear();
    scratch.classified.clear();
    scratch.reads.clear();
    let mut quiet = SpanRecorder::disabled();
    for (r, mgr) in hier.subs_mut().iter_mut().enumerate() {
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
        let classified = mgr.classify(rack_metered_w, now, &mut quiet);
        scratch.reads.push(mgr.reads_jobs(&classified));
        scratch.classified.push(classified);
    }
}

/// The capping half of the multi-rack hierarchical control cycle: runs
/// each rack's sub-manager on its rack's job observations in rack order,
/// and rolls the outcomes up.
///
/// Sub-managers share one disabled span recorder; the `shards` span and
/// one nested `shard` span per *interesting* rack (non-Green or
/// commanding) are recorded here, in rack order. The selection is a pure
/// function of sim state, so the taxonomy stays deterministic and the
/// recorder is not swamped at 100k-node scale.
fn cap_racks(
    hier: &mut HierarchicalManager,
    rack_obs: &[Vec<JobObservation>],
    nodes: &[Node],
    scratch: &mut FanoutScratch,
    now: SimTime,
    spans: &mut SpanRecorder,
) -> CycleOutcome {
    let racks = hier.topology().racks();
    spans.open("shards", now);
    let (mut yellow, mut red) = (0u64, 0u64);
    let mut total_commands = 0u64;
    let mut quiet = SpanRecorder::disabled();
    let view = NodesView(nodes);
    let rack_inputs = scratch.classified.iter().zip(&scratch.coverage);
    for (r, ((mgr, obs), (&classified, &coverage))) in hier
        .subs_mut()
        .iter_mut()
        .zip(rack_obs)
        .zip(rack_inputs)
        .enumerate()
    {
        let out = mgr.cap(classified, obs, &view, coverage, now, &mut quiet);
        yellow += u64::from(out.state == PowerState::Yellow);
        red += u64::from(out.state == PowerState::Red);
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
