//! The `faults` stage: the tick boundary, the timer wheel, and the fault
//! schedule's edges, which strike before anything else in the tick so a
//! node that dies now neither hosts a new job nor contributes power.

use super::*;

/// Runtime fault state: the schedule replay engine plus the robustness
/// bookkeeping the cluster layer accumulates around it.
#[derive(Clone)]
pub(super) struct FaultState {
    pub(super) engine: FaultEngine,
    pub(super) requeue_cap: u32,
    pub(super) staleness_limit: SimDuration,
    /// Jobs evicted from dead nodes and successfully requeued.
    pub(super) jobs_requeued: u64,
    /// Jobs dropped after exhausting the requeue cap.
    pub(super) jobs_failed: u64,
    /// Failed commands waiting out their retry backoff.
    pub(super) retries: Vec<PendingRetry>,
    /// Candidates with fresh telemetry this cycle. The dense regimes
    /// refill it from collector timestamps every cycle; the lazy regime
    /// keeps it up to date from the edges that can change it
    /// ([`ClusterSim::track_freshness`]).
    pub(super) fresh: NodeMask,
    /// Lazy regime: candidates whose agent is silent (dense sampling
    /// skips them).
    pub(super) silent: NodeMask,
    /// Lazy regime: nodes whose freshness flipped this cycle; their jobs'
    /// observations are refreshed in full.
    pub(super) flipped: Vec<NodeId>,
}

impl ClusterSim {
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
    /// one when the node goes dark ([`freeze_agent`]); the tick it turns
    /// stale is scheduled on the wheel. Down nodes are never candidates.
    pub(super) fn track_freshness(&mut self, sets: &NodeSets, tick: u64) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let fresh_ticks = fs.staleness_limit.as_millis() / self.spec.tick.as_millis().max(1);
        fs.flipped.clear();
        for n in self.fresh_suspects.drain(..) {
            let candidate = sets.is_candidate(n);
            let silent = candidate && fs.engine.is_silent(n);
            let fresh = if silent {
                let stale_at = self.last_sampled_tick[n.0 as usize] + fresh_ticks + 1;
                let fresh = tick < stale_at && self.collector.latest(n).is_some();
                if fresh {
                    self.wheel.schedule(stale_at, WheelEvent::FreshnessDue(n));
                }
                fresh
            } else {
                candidate
            };
            set_member(&mut fs.silent, n, silent);
            if set_member(&mut fs.fresh, n, fresh) {
                fs.flipped.push(n);
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

impl ClusterSim {
    /// The tick boundary, then the fault edges: promotes the dirty marks
    /// staged during tick−1 (phase boundaries, level commands), drains the
    /// timer wheel up to this tick, and replays the fault schedule.
    pub(super) fn fault_phase(&mut self, t: &Tick, stage: StageTimer) -> StageTimer {
        // Remember whether tick−1 itself had dirty work (the collector's
        // prev-power view takes one more cycle to stabilize after a change).
        self.dirty_prev = !self.columns.dirty.is_empty();
        self.columns.dirty.begin_tick();
        if t.incremental && t.tick == 1 {
            // Nothing has ever been evaluated: everything is dirty.
            for id in 0..self.nodes.len() as u32 {
                self.columns.dirty.mark(NodeId(id));
            }
        }
        let mut events = std::mem::take(&mut self.scratch_events);
        self.wheel.pop_due_into(t.tick, &mut events);
        for ev in &events {
            match *ev {
                WheelEvent::ArrivalGate => self.arrival_gate_open = true,
                WheelEvent::FreshnessDue(n) => self.fresh_suspects.push(n),
            }
        }
        self.scratch_events = events;
        self.fault_tick(t);
        self.obs.profile.lap("faults", stage)
    }

    /// Replays the fault schedule up to the tick's start and reacts to
    /// every edge: crashed nodes are evicted, de-scheduled, forgotten by
    /// telemetry and dropped from `A_candidate`; rebooted nodes rejoin at
    /// the lowest DVFS level and re-enter the candidate set as degraded
    /// (steady-green recovery promotes them back one level at a time).
    ///
    /// In the lazy regime a node going dark (crash, silence) has its agent
    /// frozen where dense sampling left it, and one coming back (reboot,
    /// telemetry restored) takes a real sample this very tick, as dense
    /// does. Every edge makes its node a freshness suspect.
    fn fault_tick(&mut self, t: &Tick) {
        let Some(mut fs) = self.faults.take() else {
            return;
        };
        let now = t.start;
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
                FaultTransition::NodeDown(_) => {
                    self.goes_dark(n, t);
                    // The node is dead: whatever command we owed it is moot.
                    fs.retries.retain(|r| r.node != n);
                    // Released co-members rejoin the candidate set this
                    // tick: the lazy regime samples them for real.
                    if let Some(mut job) = self.evict_from(n, false, t.lazy) {
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
                    // Its counters freeze at the last pre-crash tick.
                    self.power_off(n, t.tick - 1, false, t.incremental);
                    self.fault_alarm(now, n, "down", "down");
                }
                FaultTransition::NodeUp(_) => {
                    self.comes_back(n, t);
                    self.scheduler.set_node_up(n);
                    // The reboot resumes evaluation from here: the next
                    // materialization has nothing to catch up (the outage
                    // accrued no counters).
                    self.columns.set_up(n, t.tick.saturating_sub(1));
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
                FaultTransition::HangStart(_) => {
                    self.fault_alarm(now, n, "DVFS actuator frozen", "actuator frozen");
                }
                FaultTransition::HangEnd(_) => {
                    self.journal.record_with(now, Severity::Info, "fault", || {
                        format!("node {} DVFS actuator thawed", n.0)
                    });
                }
                FaultTransition::SilenceStart(_) => {
                    self.goes_dark(n, t);
                    self.fault_alarm(now, n, "telemetry dark", "telemetry dark");
                }
                FaultTransition::SilenceEnd(_) => {
                    self.comes_back(n, t);
                    self.journal.record_with(now, Severity::Info, "fault", || {
                        format!("node {} telemetry restored", n.0)
                    });
                }
            }
        }
        self.faults = Some(fs);
    }

    /// Node `n`'s telemetry goes dark (crash, silence): it is a freshness
    /// suspect, and the lazy regime freezes its agent where dense sampling
    /// left it.
    fn goes_dark(&mut self, n: NodeId, t: &Tick) {
        self.fresh_suspects.push(n);
        if t.lazy {
            let i = n.0 as usize;
            freeze_agent(
                &mut self.agents[i],
                &self.nodes[i],
                &mut self.last_sampled_tick[i],
                &mut self.state_epoch[i],
                t.dt,
                t.tick,
            );
        }
    }

    /// Node `n`'s telemetry comes back (reboot, restored): it is a
    /// freshness suspect, and the lazy regime samples it this very tick,
    /// as dense does.
    fn comes_back(&mut self, n: NodeId, t: &Tick) {
        self.fresh_suspects.push(n);
        if t.lazy {
            self.resample_now.push(n.0);
        }
    }

    /// Journals fault edge `what` on node `n` as a warning and snapshots
    /// the flight recorder, whose reason names it `reason`.
    fn fault_alarm(&mut self, now: SimTime, n: NodeId, what: &str, reason: &str) {
        self.journal.record_with(now, Severity::Warn, "fault", || {
            format!("node {} {what}", n.0)
        });
        let reason = format!("fault: node {} {reason}", n.0);
        self.obs
            .flight
            .trigger(now, reason, &self.obs.spans, &self.obs.metrics);
    }

    /// Evicts the job hosted on `n`, which is leaving service, and hands
    /// it back for the caller to requeue or fail. Dynamic SLA protection is
    /// released as on completion (the job is no longer running), and the
    /// co-members lose their load this tick, or next tick when `staged`.
    pub(super) fn evict_from(&mut self, n: NodeId, staged: bool, lazy: bool) -> Option<Job> {
        let job = self.scheduler.evict_job_on(n)?;
        if job.priority() == JobPriority::Critical {
            self.release_sla(job.nodes(), |m| lazy && m != n);
        }
        for &m in job.nodes() {
            self.mark_dirty(m, staged);
        }
        self.rack_obs.note_departure(job.nodes());
        Some(job)
    }

    /// Takes node `n` out of the scheduler, the power column, telemetry
    /// and the candidate set. Under incremental evaluation its counters
    /// are first frozen at tick `upto`: the quiescent interval it sat clean
    /// is caught up in closed form (same state throughout, so exact).
    pub(super) fn power_off(&mut self, n: NodeId, upto: u64, staged: bool, incremental: bool) {
        self.scheduler.set_node_down(n);
        if incremental {
            self.catch_up(n, upto);
        }
        self.columns.set_down(n);
        self.mark_dirty(n, staged);
        self.collector.forget(n);
        if let Some(h) = self.hierarchy.as_mut() {
            h.note_node_down(n);
        }
    }

    /// Marks `n` dirty this tick, or next tick when `staged`.
    fn mark_dirty(&mut self, n: NodeId, staged: bool) {
        if staged {
            self.columns.dirty.mark_next(n);
        } else {
            self.columns.dirty.mark(n);
        }
    }
}
