//! The `actuate` stage: the decision's bookkeeping, then its throttling
//! commands, routed around faults, and the retries of commands that hit a
//! frozen actuator.

use super::*;

/// Give up on a frozen-actuator command after this many attempts (the
/// initial send plus backed-off retries at 1-, 2- and 4-cycle gaps).
const MAX_COMMAND_ATTEMPTS: u32 = 3;

/// A throttling command whose first send hit a frozen DVFS actuator,
/// waiting out its backoff before the next attempt.
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingRetry {
    pub(super) node: NodeId,
    level: Level,
    /// Sends performed so far (≥ 1: the failed original).
    attempts: u32,
    /// Control cycles to skip before the next attempt.
    cooldown: u32,
}

impl ClusterSim {
    /// Logs the decision (state log, state-edge and threshold journal
    /// entries) and, unless the power manager is still training, applies
    /// its commands. The bookkeeping is charged to `actuate` only when
    /// something is actuated (else `health` takes it). Returns whether
    /// this cycle entered Red.
    pub(super) fn actuate(&mut self, now: SimTime, decision: &Decision) -> bool {
        let outcome = &decision.outcome;
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
                    decision.metered_w / 1e3
                )
            });
            self.last_state = Some(state);
        }
        if outcome.thresholds_adjusted {
            let (low, high) = (outcome.thresholds.p_low_w(), outcome.thresholds.p_high_w());
            self.journal
                .record_with(now, Severity::Info, "threshold", || {
                    format!(
                        "adjusted: P_L={:.2} kW, P_H={:.2} kW",
                        low / 1e3,
                        high / 1e3
                    )
                });
        }
        if !decision.actuate {
            return red_entered;
        }
        let commands = outcome.commands.len() as u64;
        self.obs.spans.open("actuate", now);
        self.obs.spans.attr("commands", AttrValue::U64(commands));
        self.process_retries(now);
        for cmd in &outcome.commands {
            self.apply_command(cmd.node, cmd.level, now);
        }
        // The power manager's actuate span reports the retry backlog.
        if let (Some(fs), Some(_)) = (self.faults.as_ref(), self.hierarchy.as_ref()) {
            let pending = fs.retries.len() as u64;
            self.obs
                .spans
                .attr("retries_pending", AttrValue::U64(pending));
        }
        self.obs.spans.close(now);
        self.obs.profile.lap("actuate");
        red_entered
    }

    /// Sends one throttling command to a node, routing around faults.
    ///
    /// A healthy node applies it directly. A dead node's command is
    /// dropped outright (the node rejoins at the lowest level anyway); a
    /// frozen actuator queues the command for retry with backoff. Either
    /// failure counts once in `commands_failed_total`, and because the
    /// control loop reads actual node levels (`LevelView`), the next cycle
    /// sees the un-actuated truth and re-plans — the reconcile path.
    fn apply_command(&mut self, node: NodeId, level: Level, now: SimTime) {
        let Some(fs) = self.faults.as_mut() else {
            self.actuate_level(node, level);
            return;
        };
        // A newer command supersedes any queued retry for the node.
        fs.retries.retain(|r| r.node != node);
        if fs.engine.is_down(node) {
            self.obs.metrics.inc(self.obs_i.commands_failed, 1);
            self.journal.record_with(now, Severity::Warn, "fault", || {
                format!("command to dead node {} dropped", node.0)
            });
            return;
        }
        if fs.engine.is_hung(node) {
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
            self.obs.metrics.inc(self.obs_i.actuation_retries, 1);
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

    /// Applies a DVFS level to a node and counts the command applied. The
    /// derived columns stay coherent: the speed column updates immediately
    /// (job progress reads it next tick, exactly when a dense rebuild would
    /// see the new level), while the power change is staged dirty for the
    /// next tick (this tick's power was already summed before actuation).
    fn actuate_level(&mut self, node: NodeId, level: Level) {
        self.nodes[node.0 as usize]
            .set_level(level)
            // ppc-lint: allow(panic-path): candidates are never privileged and levels come from the node's own ladder
            .expect("commands are validated against the ladder");
        let speed = self.nodes[node.0 as usize].relative_speed();
        self.columns.set_speed(node, speed);
        self.columns.dirty.mark_next(node);
        self.obs.metrics.inc(self.obs_i.commands_applied, 1);
    }
}
