//! BFP — the *best fit job* policy.
//!
//! Selects the job whose one-level saving is *just above* the deficit
//! `P − P_L`: enough to return to Green, with the least over-correction.
//! When no single job can cover the deficit, the job with the largest
//! saving is taken (the closest achievable fit). A compromise between MPC
//! and LPC (paper §IV.A).

use crate::observe::SelectionContext;
use crate::policy::{keep_best, targets_of, TargetSelectionPolicy};
use ppc_node::NodeId;

/// The BFP policy (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct Bfp;

impl TargetSelectionPolicy for Bfp {
    fn clone_box(&self) -> Box<dyn TargetSelectionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "BFP"
    }

    fn select(&mut self, ctx: &SelectionContext) -> Vec<NodeId> {
        let deficit = ctx.deficit_w();
        let (mut fit, mut biggest) = (None, None);
        for job in ctx.jobs.iter().filter(|j| j.has_degradable()) {
            let saving = job.saving_w();
            // Best fit: smallest saving that still covers the deficit …
            if saving >= deficit {
                fit = keep_best(fit, (job, -saving));
            }
            biggest = keep_best(biggest, (job, saving));
        }
        // … falling back to the largest saving when none covers it.
        fit.or(biggest)
            .map(|(job, _)| targets_of(job))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::testutil::{ctx, jobs_obs, nobs};

    // testutil savings: 10 W per degradable node.
    #[test]
    fn picks_smallest_sufficient_job() {
        let one_node = jobs_obs(1, vec![nobs(0, 5, 100.0)], None); // saves 10
        let two_node = jobs_obs(2, vec![nobs(1, 5, 300.0), nobs(2, 5, 300.0)], None); // saves 20
        let three_node = jobs_obs(
            3,
            vec![nobs(3, 5, 300.0), nobs(4, 5, 300.0), nobs(5, 5, 300.0)],
            None,
        ); // saves 30
           // Deficit 15 → two-node job (20 ≥ 15) beats three-node (30 ≥ 15).
        let c = ctx(vec![one_node, two_node, three_node], 1_015.0, 1_000.0);
        assert_eq!(Bfp.select(&c), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn falls_back_to_biggest_saving_when_deficit_unreachable() {
        let a = jobs_obs(1, vec![nobs(0, 5, 100.0)], None); // saves 10
        let b = jobs_obs(2, vec![nobs(1, 5, 300.0), nobs(2, 5, 300.0)], None); // saves 20
        let c = ctx(vec![a, b], 1_500.0, 1_000.0); // deficit 500
        assert_eq!(Bfp.select(&c), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn exact_fit_is_accepted() {
        let a = jobs_obs(1, vec![nobs(0, 5, 100.0)], None); // saves exactly 10
        let c = ctx(vec![a], 1_010.0, 1_000.0);
        assert_eq!(Bfp.select(&c), vec![NodeId(0)]);
    }

    #[test]
    fn empty_context_selects_nothing() {
        assert!(Bfp.select(&ctx(vec![], 1_010.0, 1_000.0)).is_empty());
    }
}
