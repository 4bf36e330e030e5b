//! The `materialize` and `advance` stages: node operating states for the
//! tick, then job progress, thermal accounting, fleet power and the
//! facility meter's reading.

use super::*;

impl ClusterSim {
    /// Node operating states for this tick, derived from the phase each
    /// node's job is in: the dirty nodes under incremental evaluation (the
    /// lazy regime samples the dirty lit candidates in the same pass, for
    /// this tick's control cycle), every node on the dense path.
    pub(super) fn materialize(&mut self, t: &Tick, stage: StageTimer) -> StageTimer {
        self.scratch_samples.clear();
        self.scratch_sampled.clear();
        if t.incremental {
            self.materialize_dirty(t);
        } else {
            // Dense reference: every node runs the interval its load sets.
            // Down nodes are dark: they neither advance counters nor draw
            // power until their reboot (if any). The columns' down flag
            // mirrors every fault-engine edge the same tick it strikes
            // (see `fault_tick`) and additionally covers decommissioned
            // nodes, which the engine never sees.
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let id = NodeId(i as u32);
                if !self.columns.is_down(id) {
                    node.run_interval(
                        operating_state(self.scheduler.load_on(id), node, t.dt),
                        t.dt,
                    );
                }
            }
        }
        self.obs.profile.lap("materialize", stage)
    }

    /// Evaluates exactly the dirty nodes for the tick: catch the device
    /// counters up through `tick − 1` in closed form (the state was
    /// unchanged while the node sat clean — that is what clean means),
    /// run the new interval, and write the power/speed columns.
    ///
    /// In the lazy control regime a dirty candidate's agent baseline is
    /// advanced over the same quiescent window *before* this tick's state
    /// change lands ([`freeze_agent`]), so its next real sample spans
    /// exactly one tick — precisely what the dense path's per-cycle
    /// sampling would produce. A dirty candidate whose telemetry is lit
    /// then takes that sample right here, at the control instant: nothing
    /// it reads moves between this pass and the control cycle, so the node
    /// is touched once per tick instead of twice.
    ///
    /// The pass visits the dirty nodes in ascending id, not in mark order
    /// (which goes job by job, each job's members scattered over the
    /// fleet), so every node-indexed array it touches is walked front to
    /// back, the scheduler's load column among them. The order changes no
    /// result: each node's evaluation, sample, ingest and next-cycle settle
    /// touch only that node, and the rack-observation refreshes the samples
    /// feed are independent of order (see `sim/rack_obs.rs`).
    fn materialize_dirty(&mut self, t: &Tick) {
        let (dt, tick) = (t.dt, t.tick);
        let sample_at = t.start + self.spec.tick;
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
            let candidate = t.lazy
                && self
                    .hierarchy
                    .as_ref()
                    .is_some_and(|h| h.sets().is_candidate(id));
            if candidate {
                // Protected (non-candidate) nodes are deliberately left
                // alone: dense froze their baseline when they left the
                // candidate set, and their rejoin sample must span the gap.
                freeze_agent(
                    &mut self.agents[i],
                    &self.nodes[i],
                    &mut self.last_sampled_tick[i],
                    &mut self.state_epoch[i],
                    dt,
                    tick,
                );
            }
            self.catch_up(id, tick - 1);
            let load = operating_state(self.scheduler.load_on(id), &self.nodes[i], dt);
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
                self.lazy_sample(id, tick, sample_at);
            }
        }
    }

    /// Jobs progress at the min rate over their members' speeds, finished
    /// jobs are recorded, thermal models are integrated, and the fleet's
    /// power is summed and metered. Returns the tick's end instant and the
    /// meter reading the control cycle acts on.
    pub(super) fn advance(&mut self, t: &Tick, stage: StageTimer) -> (SimTime, MeterReading) {
        let dt = t.dt;
        // The speed column is maintained at every level mutation, so no
        // per-tick rebuild is needed, and it reports the nodes whose speed
        // moved: only their jobs refold the minimum. Phase boundaries
        // crossed during this advance change member loads starting next
        // tick: the scheduler reports those members, which are staged
        // dirty. (Phase boundaries are not wheel-predicted — their timing
        // depends on member speeds, which throttling changes mid-flight.)
        let now = self.clock.advance();
        let mut records = self.scheduler.advance(
            dt,
            now,
            self.columns.speed(),
            self.columns.speed_edges(),
            &mut self.scratch_edges,
        );
        self.columns.clear_speed_edges();
        for n in self.scratch_edges.drain(..) {
            self.columns.dirty.mark_next(n);
        }
        for r in &records {
            // Release SLA protection when a critical job completes. A
            // released node rejoins the candidate set mid-tick: the dense
            // path samples it this very cycle, so the lazy path must take a
            // real sample too (its delta spans the whole protection window).
            if r.priority == JobPriority::Critical {
                self.release_sla(&r.nodes, |_| t.lazy);
            }
            // Finished jobs free their members starting next tick (this
            // tick's load was computed before the advance), and the
            // observation store must drop the job now.
            for &n in &r.nodes {
                self.columns.dirty.mark_next(n);
            }
            self.rack_obs.note_departure(&r.nodes);
            self.journal.record_with(now, Severity::Info, "job", || {
                format!(
                    "{} finished: T={:.1}s (baseline {:.1}s, throttled {:.0}s)",
                    r.id, r.actual_secs, r.baseline_secs, r.throttled_secs
                )
            });
        }
        self.finished.append(&mut records);

        if !t.incremental {
            // Thermal accounting (extension; the incremental path is only
            // active without thermal models, where this loop is a no-op).
            let mut rate_sum = 0.0;
            let mut thermal_nodes = 0u32;
            for n in &self.nodes {
                let Some(temp) = n.temperature_c() else {
                    continue;
                };
                let Some(thermal) = n.spec().thermal else {
                    continue;
                };
                self.peak_temp_c = self.peak_temp_c.max(temp);
                let Some(rate) = n.relative_failure_rate(thermal.ambient_c) else {
                    continue;
                };
                rate_sum += rate;
                thermal_nodes += 1;
            }
            if thermal_nodes > 0 {
                self.failure_integral += rate_sum / thermal_nodes as f64 * dt;
            }
            // Dense reference: re-evaluate every node's power into the
            // column before the fold.
            self.scratch_down.clear();
            let columns = &self.columns;
            self.scratch_down
                .extend((0..self.nodes.len() as u32).map(|i| columns.is_down(NodeId(i))));
            let inputs = self.nodes.iter().zip(&self.scratch_down);
            for (p, (node, &down)) in self.columns.power_fill_mut().iter_mut().zip(inputs) {
                *p = if down { 0.0 } else { node.power_w() };
            }
        }

        // Power sensing: a straight index-order fold over the dense power
        // column (downed nodes hold 0.0 — no per-node branch).
        let true_power_w = self.columns.fleet_power_w();
        self.true_power.push(now, true_power_w);
        let reading = self.meter.read(true_power_w, now);
        match reading {
            MeterReading::Held(w) => {
                self.journal.record_with(now, Severity::Info, "meter", || {
                    format!("meter dropout: holding last good reading {w:.1} W")
                });
            }
            MeterReading::Gap => {
                self.journal.record_with(now, Severity::Warn, "meter", || {
                    "meter dropout before any good reading: control cycle skipped".to_string()
                });
            }
            MeterReading::Fresh(_) => {}
        }
        self.obs.profile.stop("advance", stage);
        (now, reading)
    }

    /// Catches node `id`'s device counters up through tick `upto` in
    /// closed form (it sat clean since its stamp, so its state held
    /// throughout) and stamps it there.
    pub(super) fn catch_up(&mut self, id: NodeId, upto: u64) {
        let behind = upto - self.columns.stamp_of(id);
        if behind > 0 {
            self.nodes[id.0 as usize].catch_up(self.clock.dt_secs(), behind);
            self.columns.set_stamp(id, upto);
        }
    }
}

/// The operating state a node runs for one tick of `dt` seconds under the
/// load its job puts on it (idle without one).
fn operating_state(load: Option<NodeLoad>, node: &Node, dt: f64) -> OperatingState {
    match load {
        Some(load) => OperatingState {
            cpu_util: load.cpu_util,
            mem_used_bytes: load.mem_bytes,
            nic_bytes: (load.nic_fraction * node.spec().nic.bandwidth_bytes_per_sec * dt) as u64,
        },
        None => OperatingState::IDLE,
    }
}

/// The lazy regime's side of a node's sampled state going stale at `tick`:
/// the dense path sampled it through tick−1, so a candidate clean since
/// its last sample (its state epoch has not moved past the sample) has its
/// agent baseline advanced over the clean window against the *old* state,
/// and its state epoch moves to `tick` so no closed-form replay runs until
/// its next real sample. A node leaving the sampled set (SLA protection,
/// silence, crash) then takes a sample spanning exactly the gap, as dense
/// would; a node already out of the sampled set (its last sample predates
/// its epoch) stays frozen.
pub(super) fn freeze_agent(
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
