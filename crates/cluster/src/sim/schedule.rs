//! The `schedule` stage: job arrivals, placement, and the dynamic SLA
//! protection of critical jobs.

use super::*;

impl ClusterSim {
    /// Job arrival and placement. With a replay trace, jobs arrive at their
    /// recorded times; otherwise an empty queue is refilled (paper
    /// protocol), gated by the think-time gap: after a refill, submission
    /// resumes on the first tick that starts at or after a drawn gap.
    /// Started jobs' members are dirty this very tick, and a critical
    /// job's nodes join `A_uncontrollable` for its lifetime (the paper's
    /// dynamic candidate set).
    pub(super) fn schedule_phase(&mut self, t: &Tick) {
        let now = t.start;
        match self.trace_source.as_mut() {
            Some(src) => {
                for job in src.due_jobs(now) {
                    self.queue.push(job);
                }
            }
            None => {
                if t.tick >= self.arrival_gate_tick
                    && self
                        .generator
                        .refill_to(&mut self.queue, self.spec.queue_depth, now)
                    && !self.spec.think_time_mean.is_zero()
                {
                    let gap = self
                        .arrival_rng
                        .exponential(self.spec.think_time_mean.as_secs_f64());
                    let next_submit_at = now + SimDuration::from_secs_f64(gap);
                    self.arrival_gate_tick =
                        gate_open_tick(next_submit_at, self.spec.tick).max(t.tick + 1);
                }
            }
        }
        let started = self.scheduler.try_start(&mut self.queue, now);
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
                self.journal.record_with(now, Severity::Info, "job", || {
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
                for &n in job.nodes() {
                    self.columns.dirty.mark(n);
                }
                self.rack_obs.note_start();
                if !(protect_critical && job.priority() == JobPriority::Critical) {
                    continue;
                }
                for &n in job.nodes() {
                    let i = n.0 as usize;
                    if self.nodes[i].is_privileged() {
                        // Already protected (statically privileged, or
                        // shared start tick with another critical job).
                        continue;
                    }
                    // The node leaves the candidate set this tick; the
                    // dense path sampled it through tick−1.
                    if t.lazy {
                        freeze_agent(
                            &mut self.agents[i],
                            &self.nodes[i],
                            &mut self.last_sampled_tick[i],
                            &mut self.state_epoch[i],
                            t.dt,
                            t.tick,
                            false,
                        );
                    }
                    self.fresh_suspects.push(n);
                    let node = &mut self.nodes[i];
                    // SLA work gets full performance: restore the node to
                    // its top level (it may carry a degradation from
                    // earlier capping), then freeze it.
                    let top = node.highest_level();
                    // ppc-lint: allow(panic-path): the node is unfrozen here; set_level only errors on privileged nodes
                    node.set_level(top).expect("node checked not privileged");
                    node.set_privileged(true);
                    let speed = node.relative_speed();
                    self.columns.set_speed(n, speed);
                    if let Some(h) = self.hierarchy.as_mut() {
                        h.set_privileged(n, true);
                    }
                }
            }
        }
        self.obs.profile.lap("schedule");
    }

    /// A job leaves the run queue, finished or evicted. A critical job's
    /// dynamic SLA protection ends: every member that is not statically
    /// privileged in the cluster spec is un-privileged and handed back to
    /// the control plane, and under the `lazy` regime it takes a real
    /// sample at the next control cycle (the dense path samples every
    /// candidate then; a member that is down by then is no candidate and
    /// is skipped). The members lose their load this tick, or next tick
    /// when `staged`, and the observation store drops the job.
    pub(super) fn depart(&mut self, job: &Job, staged: bool, lazy: bool) {
        let members = job.nodes();
        if job.priority() == JobPriority::Critical {
            for &m in members {
                if self.spec.privileged.contains(&m) {
                    continue;
                }
                self.nodes[m.0 as usize].set_privileged(false);
                if let Some(h) = self.hierarchy.as_mut() {
                    h.set_privileged(m, false);
                }
                self.fresh_suspects.push(m);
                if lazy {
                    self.resample_now.push(m.0);
                }
            }
        }
        for &m in members {
            self.mark_dirty(m, staged);
        }
        self.rack_obs.note_departure(members);
    }
}

/// First tick whose start instant `(T−1)·τ` reaches `at` — when the
/// think-time gate scheduled for `at` opens.
fn gate_open_tick(at: SimTime, tau: SimDuration) -> u64 {
    at.as_millis().div_ceil(tau.as_millis()) + 1
}
