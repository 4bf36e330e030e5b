//! UNIFORM — an ensemble-style related-work baseline.
//!
//! The approaches the paper positions itself against (Femal's two-level
//! budget allocation, Ranganathan's ensemble controller, Wang's MIMO
//! loop) treat *all nodes as equally important*: when the ensemble is
//! over budget, every controllable node gives something back. This
//! baseline reproduces that shape — every degradable node in every
//! observed job is targeted each Yellow cycle — so the experiments can
//! quantify what the paper's job-aware selection actually buys.
//!
//! Predicted character: fastest possible power reduction per cycle, but
//! every running job is slowed every time, so CPLJ collapses.

use crate::observe::SelectionContext;
use crate::policy::TargetSelectionPolicy;
use ppc_node::NodeId;

/// The UNIFORM baseline (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl TargetSelectionPolicy for Uniform {
    fn clone_box(&self) -> Box<dyn TargetSelectionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "UNIFORM"
    }

    fn select(&mut self, ctx: &SelectionContext) -> Vec<NodeId> {
        let mut targets: Vec<NodeId> = ctx
            .jobs
            .iter()
            .flat_map(|job| job.degradable_nodes().map(|n| n.node))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::testutil::{ctx, jobs_obs, nobs};

    #[test]
    fn targets_every_degradable_node() {
        let a = jobs_obs(1, vec![nobs(0, 5, 300.0), nobs(1, 0, 200.0)], None);
        let b = jobs_obs(2, vec![nobs(2, 3, 100.0)], None);
        let c = ctx(vec![a, b], 1_100.0, 1_000.0);
        let t = Uniform.select(&c);
        // Node 1 is floored and excluded; 0 and 2 are taken.
        assert_eq!(t, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn empty_context_selects_nothing() {
        assert!(Uniform.select(&ctx(vec![], 1_100.0, 1_000.0)).is_empty());
    }
}
