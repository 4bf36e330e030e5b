//! Output checks: determinism digests and the paper's per-cycle invariants,
//! judged from the simulator's public accessors after each step.

use ppc_cluster::ClusterSim;
use ppc_core::{conserves_budget, PowerState};
use ppc_node::{Level, NodeId};

/// Everything a run of one seed must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    journal: u64,
    trace: u64,
    spans: u64,
    metrics: u64,
    rollup: u64,
    sketch: u64,
    alerts: u64,
    finished: usize,
    commands: u64,
}

/// The journal, power-trace, span, metrics and health fingerprints plus
/// the finished-job and applied-command counts.
pub fn digest(sim: &ClusterSim) -> Digest {
    let health = sim.health_fingerprints();
    Digest {
        journal: sim.journal().fingerprint(),
        trace: sim.true_power().fingerprint(),
        spans: sim.span_fingerprint(),
        metrics: sim.metrics_fingerprint(),
        rollup: health.rollup,
        sketch: health.sketch,
        alerts: health.alerts,
        finished: sim.finished().len(),
        commands: sim.commands_applied(),
    }
}

/// True when the hierarchy's current budgets conserve exactly: the rows
/// draw down the facility budget and each row's racks draw down the row's
/// (`ppc_core::conserves_budget`). Trivially true without a hierarchy.
pub fn budgets_conserve(sim: &ClusterSim) -> bool {
    let Some(h) = sim.hierarchy() else {
        return true;
    };
    let topo = h.topology();
    let rows = h.row_budget_w();
    let racks = h.rack_budget_w();
    conserves_budget(h.config().p_provision_w, rows)
        && (0..topo.rows()).all(|row| conserves_budget(rows[row], &racks[topo.row_racks(row)]))
}

/// Candidates left above their lowest level by a Red cycle on the last
/// control cycle: per Red rack under a hierarchy, fleet-wide under a flat
/// manager. Nodes for which `exempt` holds are skipped (an actuator the
/// fault layer froze, or telemetry it silenced, legitimately keeps a node
/// out of the Red sweep).
pub fn red_violations(sim: &ClusterSim, exempt: impl Fn(NodeId) -> bool) -> usize {
    let mut red_candidates: Vec<NodeId> = Vec::new();
    if let Some(h) = sim.hierarchy() {
        for (rack, state) in h.last_rack_states().iter().enumerate() {
            if *state == PowerState::Red {
                red_candidates.extend(h.subs()[rack].sets().candidates().iter().copied());
            }
        }
    } else if let Some(m) = sim.manager() {
        if sim.state_log().last().map(|(_, s)| *s) == Some(PowerState::Red) {
            red_candidates.extend(m.sets().candidates().iter().copied());
        }
    }
    if red_candidates.is_empty() {
        return 0;
    }
    let levels = sim.node_levels();
    red_candidates
        .into_iter()
        .filter(|&n| !exempt(n) && levels[n.0 as usize] != Level::LOWEST)
        .count()
}
