//! The `sample`, `delegate` and `control` stages: the profiling agents,
//! the hierarchy's delegation pass, and the control plane's decision —
//! the paper's power manager (flat or per rack) or the proportional
//! budget baseline.

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
    /// Samples the cycle took (the health plane's stage work).
    pub(super) samples: u64,
    /// The facility zone's budget for the health fold, watts.
    pub(super) facility_budget_w: f64,
    /// The facility zone's telemetry coverage for the health fold.
    pub(super) facility_coverage: f64,
}

/// Buffers of the multi-rack control cycle, reused across ticks.
#[derive(Default, Clone)]
pub(super) struct FanoutScratch {
    /// Per-rack collector coverage, also read by the health rollup.
    pub(super) coverage: Vec<f64>,
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
            self.budget_cycle(now, metered_w)
        }
    }

    /// Runs the proportional-budget baseline's decision: sample **all**
    /// controllable nodes (this architecture has no candidate subset) and
    /// split the budget into absolute levels.
    fn budget_cycle(&mut self, now: SimTime, metered_w: f64) -> Option<Decision> {
        let controller = self.budget_controller.as_mut()?;
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
            // Silent nodes produce no samples.
            if self
                .faults
                .as_ref()
                .is_some_and(|fs| fs.engine.is_silent(node.id()))
            {
                continue;
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
        let (spans, views) = (&mut self.obs.spans, &self.scratch_views);
        spans.attr("samples", AttrValue::U64(views.len() as u64));
        spans.close(now);
        self.obs.profile.stop("sample", sample_t);
        let control_t = self.obs.profile.start();
        spans.open("control", now);
        let models = &self.models;
        let (state, commands) = self.cost_meter.measure(|| {
            controller.cycle(metered_w, views, &|n: NodeId| {
                Arc::clone(&models[n.0 as usize])
            })
        });
        spans.attr("state", AttrValue::Str(state.name()));
        spans.attr("commands", AttrValue::U64(commands.len() as u64));
        spans.close(now);
        self.obs.profile.stop("control", control_t);
        let thresholds = controller.thresholds();
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
            samples: self.scratch_views.len() as u64,
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
            let delegate_t = self.obs.profile.start();
            fleet_true_w = self.columns.fleet_power_w();
            let shard_w = self.columns.shard_power_w();
            self.scratch_rack_true.clear();
            self.scratch_rack_true.extend_from_slice(shard_w);
            let spans = &mut self.obs.spans;
            spans.open("delegate", now);
            let outcome = hier.delegate(&self.scratch_rack_true);
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
            self.obs.profile.stop("delegate", delegate_t);
        }

        let logical_samples = self.sample(hier.sets(), now, t);

        // Everything the management node computes per cycle is measured:
        // ingestion, observation building, classification, selection. Job
        // membership is borrowed straight from the run-queue — no clones.
        // Under fault injection the staleness filter runs first: only
        // candidates with fresh samples are selectable, and the fresh
        // fraction feeds the manager's coverage-floor fallback.
        let lazy = t.lazy;
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
            outcome,
            metered_w,
            subject: "power state",
            actuate: !hier.in_training(),
            samples: logical_samples,
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
    /// The lazy regime: when nothing changed since the last cycle, every
    /// candidate's sample would be bit-identical to its previous one and
    /// the resulting job observations identical too — so the cycle keeps
    /// the stored observations and skips sampling entirely. The manager
    /// itself still runs every cycle: the metered reading moves even when
    /// the nodes do not.
    fn sample(&mut self, sets: &NodeSets, now: SimTime, t: &Tick) -> u64 {
        let (lazy, tick) = (t.lazy, t.tick);
        let sample_t = self.obs.profile.start();
        let sampling = !lazy
            || self.rack_obs.is_stale()
            || self.dirty_prev
            || !self.columns.dirty.is_empty()
            || !self.settle_pending.is_empty()
            || !self.resample_now.is_empty();
        self.obs.spans.open("sample", now);
        self.scratch_settle.clear();
        if lazy {
            self.track_freshness(sets, tick);
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
            for &id in sets.candidates() {
                let faults = self.faults.as_ref();
                if faults.is_some_and(|fs| fs.engine.is_down(id) || fs.engine.is_silent(id)) {
                    continue;
                }
                // Incremental evaluation under the dense control path
                // still samples every candidate. Bring the counters current
                // first: a clean node may not have materialized this tick,
                // and a post-silence gap must accumulate for real (the
                // dense path's delta spans the whole gap).
                if t.incremental && !self.columns.is_down(id) {
                    self.catch_up(id, tick);
                }
                let idx = id.0 as usize;
                let sample = self.agents[idx].sample(&self.nodes[idx], now);
                self.last_sampled_tick[idx] = tick;
                if let Some(sample) = sample {
                    self.scratch_samples.push(sample);
                }
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
        self.obs.profile.stop("sample", sample_t);
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
        if let Some(sample) = self.agents[idx].sample(&self.nodes[idx], now) {
            self.scratch_samples.push(sample);
        }
        self.last_sampled_tick[idx] = tick;
        self.scratch_sampled.push(id.0);
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
    let (mut yellow, mut red) = (0u64, 0u64);
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
