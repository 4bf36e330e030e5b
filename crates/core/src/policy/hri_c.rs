//! HRI-C — the *highest rate of increase* job-collection policy.
//!
//! The paper notes that the collection counterpart makes sense for HRI
//! (unlike for BFP): walk jobs from the fastest-ramping downward,
//! accumulating one-level savings until the deficit `P − P_L` is covered.
//! Jobs without rate information are appended after rated ones, ordered
//! by power, so the collection can still complete on cold starts.

use crate::observe::SelectionContext;
use crate::policy::{collect_until_covered, Keyed, TargetSelectionPolicy};
use ppc_node::NodeId;

/// The HRI-C policy (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct HriC;

impl TargetSelectionPolicy for HriC {
    fn clone_box(&self) -> Box<dyn TargetSelectionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "HRI-C"
    }

    fn select(&mut self, ctx: &SelectionContext) -> Vec<NodeId> {
        let mut rated: Vec<Keyed> = Vec::new();
        let mut unrated: Vec<Keyed> = Vec::new();
        for j in ctx.jobs.iter().filter(|j| j.has_degradable()) {
            match j.power_rate() {
                Some(r) => rated.push((j, r)),
                None => unrated.push((j, j.power_w())),
            }
        }
        // total_cmp: a total order even on pathological inputs, so the
        // selection can never panic mid-control-cycle.
        for keyed in [&mut rated, &mut unrated] {
            keyed.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.id.cmp(&b.0.id)));
        }
        let order = rated.iter().chain(&unrated).map(|&(j, _)| j);
        collect_until_covered(order, ctx.deficit_w())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::testutil::{ctx, jobs_obs, nobs};

    // testutil savings: 10 W per degradable node.
    #[test]
    fn collects_fastest_ramps_first() {
        let slow_ramp = jobs_obs(1, vec![nobs(0, 5, 110.0)], Some(100.0)); // +10%
        let fast_ramp = jobs_obs(2, vec![nobs(1, 5, 150.0)], Some(100.0)); // +50%
        let flat = jobs_obs(3, vec![nobs(2, 5, 500.0)], Some(500.0)); // 0%
                                                                      // Deficit 15: fast (10) then slow (10) covers it; flat untouched.
        let c = ctx(vec![slow_ramp, fast_ramp, flat], 1_015.0, 1_000.0);
        assert_eq!(HriC.select(&c), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn single_job_suffices_for_small_deficit() {
        let fast = jobs_obs(2, vec![nobs(1, 5, 150.0)], Some(100.0));
        let slow = jobs_obs(1, vec![nobs(0, 5, 110.0)], Some(100.0));
        let c = ctx(vec![slow, fast], 1_005.0, 1_000.0);
        assert_eq!(HriC.select(&c), vec![NodeId(1)]);
    }

    #[test]
    fn unrated_jobs_fill_in_after_rated_ones() {
        let rated = jobs_obs(1, vec![nobs(0, 5, 100.0)], Some(90.0)); // saves 10
        let unrated = jobs_obs(2, vec![nobs(1, 5, 400.0)], None); // saves 10
        let c = ctx(vec![unrated, rated], 1_015.0, 1_000.0); // deficit 15
        assert_eq!(HriC.select(&c), vec![NodeId(0), NodeId(1)]);
    }
}
