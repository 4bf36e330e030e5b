//! MPC-C — the *most power consuming job collection* policy
//! (paper Algorithm 2).
//!
//! Walks jobs in descending `Power(J)` order, accumulating the predicted
//! savings `Σ [P(x) − P'(x)]` over nodes not yet in the target set, and
//! stops as soon as the accumulated saving covers the deficit `P − P_L`.
//! This returns the system to Green faster than single-job MPC at the
//! cost of touching more jobs.

use crate::observe::SelectionContext;
use crate::policy::{collect_until_covered, Keyed, TargetSelectionPolicy};
use ppc_node::NodeId;

/// The MPC-C policy (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct MpcC;

impl TargetSelectionPolicy for MpcC {
    fn clone_box(&self) -> Box<dyn TargetSelectionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "MPC-C"
    }

    fn select(&mut self, ctx: &SelectionContext) -> Vec<NodeId> {
        collect_until_deficit(ctx, /* descending_power = */ true)
    }
}

/// Shared engine for MPC-C and LPC-C: walk jobs ordered by power and
/// accumulate until the saving covers the deficit.
pub(crate) fn collect_until_deficit(ctx: &SelectionContext, descending_power: bool) -> Vec<NodeId> {
    // Each job's `Power(J)` once, not once per comparison.
    let mut order: Vec<Keyed> = ctx
        .jobs
        .iter()
        .filter(|j| j.has_degradable())
        .map(|j| (j, j.power_w()))
        .collect();
    // Sort by power with deterministic id tie-break.
    order.sort_by(|a, b| {
        // total_cmp: panic-free total order even on pathological inputs.
        let cmp = a.1.total_cmp(&b.1);
        let cmp = if descending_power { cmp.reverse() } else { cmp };
        cmp.then_with(|| a.0.id.cmp(&b.0.id))
    });
    collect_until_covered(order.iter().map(|&(j, _)| j), ctx.deficit_w())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::testutil::{ctx, jobs_obs, nobs};

    #[test]
    fn stops_once_deficit_is_covered() {
        // Deficit 15 W; each degradable node saves 10 W (testutil fixture).
        // Biggest job (2 nodes) saves 20 ≥ 15 → only that job selected.
        let big = jobs_obs(1, vec![nobs(0, 5, 400.0), nobs(1, 5, 300.0)], None);
        let small = jobs_obs(2, vec![nobs(2, 5, 100.0)], None);
        let c = ctx(vec![small.clone(), big.clone()], 1_015.0, 1_000.0);
        let t = MpcC.select(&c);
        assert_eq!(t, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn spills_into_next_job_when_needed() {
        // Deficit 25 W; big job saves 20 → also takes the next job.
        let big = jobs_obs(1, vec![nobs(0, 5, 400.0), nobs(1, 5, 300.0)], None);
        let small = jobs_obs(2, vec![nobs(2, 5, 100.0)], None);
        let c = ctx(vec![small, big], 1_025.0, 1_000.0);
        let t = MpcC.select(&c);
        assert_eq!(t, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn takes_everything_when_deficit_unreachable() {
        let a = jobs_obs(1, vec![nobs(0, 5, 400.0)], None);
        let b = jobs_obs(2, vec![nobs(1, 5, 100.0)], None);
        let c = ctx(vec![a, b], 2_000.0, 1_000.0); // deficit 1000 ≫ 20
        let t = MpcC.select(&c);
        assert_eq!(t.len(), 2, "all degradable nodes selected");
    }

    #[test]
    fn zero_deficit_still_selects_the_top_job() {
        // Algorithm 2's loop body runs before the exit check, so even at
        // P ≤ P_L (caller normally does not invoke selection then) the
        // first job is collected.
        let a = jobs_obs(1, vec![nobs(0, 5, 400.0)], None);
        let c = ctx(vec![a], 900.0, 1_000.0);
        assert_eq!(MpcC.select(&c).len(), 1);
    }

    #[test]
    fn floored_nodes_do_not_count_toward_saving() {
        // Job 1: one degradable (10 W) + one floored (0 W). Deficit 15 W →
        // must also pull in job 2.
        let a = jobs_obs(1, vec![nobs(0, 5, 400.0), nobs(1, 0, 300.0)], None);
        let b = jobs_obs(2, vec![nobs(2, 5, 100.0)], None);
        let c = ctx(vec![a, b], 1_015.0, 1_000.0);
        let t = MpcC.select(&c);
        assert_eq!(t, vec![NodeId(0), NodeId(2)]);
    }
}
