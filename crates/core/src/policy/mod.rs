//! Target-set selection policies.
//!
//! Given the cycle's [`SelectionContext`], a policy returns the nodes to
//! degrade by one level (`A_target`). Two families exist:
//!
//! * **state-based** — select by the *current* power of jobs: [`Mpc`]
//!   (most power-consuming job), [`MpcC`] (Algorithm 2's job collection),
//!   [`Lpc`]/[`LpcC`] (least consuming), [`Bfp`] (best fit);
//! * **change-based** — select by the *rate of increase* of job power:
//!   [`Hri`] and its collection variant [`HriC`].
//!
//! Contract (checked by the property tests in `capping`): a returned node
//! must appear in the context (hence candidate and non-idle) and be
//! degradable (not at its lowest level). Idle nodes never enter the
//! context, satisfying Algorithm 1's note that "a valid target set
//! selection policy shall not select an idle node".

mod bfp;
mod hri;
mod hri_c;
mod lpc;
mod lpc_c;
mod mpc;
mod mpc_c;
mod round_robin;
mod uniform;

pub use bfp::Bfp;
pub use hri::Hri;
pub use hri_c::HriC;
pub use lpc::Lpc;
pub use lpc_c::LpcC;
pub use mpc::Mpc;
pub use mpc_c::MpcC;
pub use round_robin::RoundRobin;
pub use uniform::Uniform;

use crate::observe::{JobObservation, SelectionContext};
use ppc_node::NodeId;
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// A target-set selection policy.
///
/// `Send + Sync` so a sim holding one can be shared immutably across the
/// worker pool, and [`clone_box`](Self::clone_box) so the manager — and
/// therefore a whole simulation — can be deep-cloned for snapshot/branch.
pub trait TargetSelectionPolicy: Send + Sync {
    /// Short policy name (e.g. `"MPC"`).
    fn name(&self) -> &'static str;

    /// Selects `A_target`: the nodes to degrade one level this cycle.
    fn select(&mut self, ctx: &SelectionContext) -> Vec<NodeId>;

    /// Deep copy behind the trait object, including any internal state
    /// (e.g. [`RoundRobin`]'s cursor).
    fn clone_box(&self) -> Box<dyn TargetSelectionPolicy>;
}

impl Clone for Box<dyn TargetSelectionPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Enumerates the implemented policies (CLI/config surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Most power-consuming job.
    Mpc,
    /// Most power-consuming job collection (paper Algorithm 2).
    MpcC,
    /// Least power-consuming job.
    Lpc,
    /// Least power-consuming job collection.
    LpcC,
    /// Best-fit job (saving just above the deficit).
    Bfp,
    /// Highest rate of increase in power consumption.
    Hri,
    /// Highest-rate job collection.
    HriC,
    /// Related-work baseline: degrade every degradable node (ensemble /
    /// uniform capping, all nodes equally important).
    Uniform,
    /// Related-work baseline: rotate through jobs fairly, ignoring power.
    RoundRobin,
}

impl PolicyKind {
    /// Every implemented policy, including the related-work baselines.
    pub const ALL: [PolicyKind; 9] = [
        PolicyKind::Mpc,
        PolicyKind::MpcC,
        PolicyKind::Lpc,
        PolicyKind::LpcC,
        PolicyKind::Bfp,
        PolicyKind::Hri,
        PolicyKind::HriC,
        PolicyKind::Uniform,
        PolicyKind::RoundRobin,
    ];

    /// The seven policies the paper itself describes (§IV).
    pub const PAPER_FAMILY: [PolicyKind; 7] = [
        PolicyKind::Mpc,
        PolicyKind::MpcC,
        PolicyKind::Lpc,
        PolicyKind::LpcC,
        PolicyKind::Bfp,
        PolicyKind::Hri,
        PolicyKind::HriC,
    ];

    /// The two policies the paper evaluates on the testbed.
    pub const PAPER: [PolicyKind; 2] = [PolicyKind::Mpc, PolicyKind::Hri];

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Mpc => "MPC",
            PolicyKind::MpcC => "MPC-C",
            PolicyKind::Lpc => "LPC",
            PolicyKind::LpcC => "LPC-C",
            PolicyKind::Bfp => "BFP",
            PolicyKind::Hri => "HRI",
            PolicyKind::HriC => "HRI-C",
            PolicyKind::Uniform => "UNIFORM",
            PolicyKind::RoundRobin => "RR",
        }
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn TargetSelectionPolicy> {
        match self {
            PolicyKind::Mpc => Box::new(Mpc),
            PolicyKind::MpcC => Box::new(MpcC),
            PolicyKind::Lpc => Box::new(Lpc),
            PolicyKind::LpcC => Box::new(LpcC),
            PolicyKind::Bfp => Box::new(Bfp),
            PolicyKind::Hri => Box::new(Hri),
            PolicyKind::HriC => Box::new(HriC),
            PolicyKind::Uniform => Box::new(Uniform),
            PolicyKind::RoundRobin => Box::new(RoundRobin::default()),
        }
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_ascii_uppercase().replace('_', "-");
        PolicyKind::ALL
            .into_iter()
            .find(|k| k.name() == norm)
            .ok_or_else(|| format!("unknown policy {s:?}; expected one of MPC, MPC-C, LPC, LPC-C, BFP, HRI, HRI-C, UNIFORM, RR"))
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A job and the key it is ranked by.
pub(crate) type Keyed<'a> = (&'a JobObservation, f64);

/// The better of the running best and `next` by `(key desc, id asc)`.
pub(crate) fn keep_best<'a>(best: Option<Keyed<'a>>, next: Keyed<'a>) -> Option<Keyed<'a>> {
    match best {
        Some((bj, bk)) if !(next.1 > bk || (next.1 == bk && next.0.id < bj.id)) => Some((bj, bk)),
        _ => Some(next),
    }
}

/// Deterministic tie-break: orders jobs by `(key desc, id asc)` and
/// returns the winner. Shared by the single-job policies.
pub(crate) fn argmax_job<'a>(jobs: impl Iterator<Item = Keyed<'a>>) -> Option<&'a JobObservation> {
    jobs.fold(None, keep_best).map(|(j, _)| j)
}

/// All degradable nodes of a job, as the target list.
pub(crate) fn targets_of(job: &JobObservation) -> Vec<NodeId> {
    job.degradable_nodes().map(|n| n.node).collect()
}

/// Algorithm 2's collection: walks `jobs` in order, adding each job's
/// degradable nodes to the target set `A` and their one-level savings,
/// and stops once the savings cover `deficit_w`. Returns `A` in
/// ascending id. Only `Nodes(J_i) − A` counts toward the saving: a node
/// two jobs share counts once.
pub(crate) fn collect_until_covered<'a>(
    jobs: impl Iterator<Item = &'a JobObservation>,
    deficit_w: f64,
) -> Vec<NodeId> {
    let mut targets = Vec::new();
    let mut saved = 0.0;
    for job in jobs {
        for n in job.degradable_nodes() {
            if let Err(at) = targets.binary_search(&n.node) {
                targets.insert(at, n.node);
                saved += n.saving_w;
            }
        }
        if saved >= deficit_w {
            break;
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::testutil::{ctx, jobs_obs, nobs};

    #[test]
    fn kind_roundtrips_through_strings() {
        for kind in PolicyKind::ALL {
            let parsed: PolicyKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            let lower: PolicyKind = kind.name().to_ascii_lowercase().parse().unwrap();
            assert_eq!(lower, kind);
        }
        assert!("nope".parse::<PolicyKind>().is_err());
        assert_eq!("mpc_c".parse::<PolicyKind>().unwrap(), PolicyKind::MpcC);
    }

    #[test]
    fn build_matches_name() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            assert_eq!(p.name(), kind.name());
            // An empty context selects nothing, for every policy.
            assert!(p.select(&ctx(vec![], 1_000.0, 900.0)).is_empty());
        }
    }

    #[test]
    fn argmax_breaks_ties_by_lower_id() {
        let a = jobs_obs(3, vec![nobs(0, 5, 100.0)], None);
        let b = jobs_obs(1, vec![nobs(1, 5, 100.0)], None);
        let c = jobs_obs(2, vec![nobs(2, 5, 100.0)], None);
        let jobs = [&a, &b, &c];
        let win = argmax_job(jobs.iter().map(|j| (*j, j.power_w()))).unwrap();
        assert_eq!(win.id.0, 1);
    }

    /// The collection policies and UNIFORM as they were written over an
    /// ordered target set, each job's power recomputed per comparison.
    mod reference {
        use super::*;
        use std::collections::BTreeSet;

        fn collect<'a>(
            order: impl Iterator<Item = &'a JobObservation>,
            deficit: f64,
        ) -> Vec<NodeId> {
            let mut saved = 0.0;
            let mut targets = BTreeSet::new();
            for job in order {
                for n in job.degradable_nodes() {
                    if targets.insert(n.node) {
                        saved += n.saving_w;
                    }
                }
                if saved >= deficit {
                    break;
                }
            }
            targets.into_iter().collect()
        }

        pub fn by_power(ctx: &SelectionContext, descending: bool) -> Vec<NodeId> {
            let mut order: Vec<&JobObservation> =
                ctx.jobs.iter().filter(|j| j.has_degradable()).collect();
            order.sort_by(|a, b| {
                let cmp = a.power_w().total_cmp(&b.power_w());
                let cmp = if descending { cmp.reverse() } else { cmp };
                cmp.then_with(|| a.id.cmp(&b.id))
            });
            collect(order.into_iter(), ctx.deficit_w())
        }

        pub fn hri_c(ctx: &SelectionContext) -> Vec<NodeId> {
            let mut rated: Vec<(&JobObservation, f64)> = Vec::new();
            let mut unrated: Vec<&JobObservation> = Vec::new();
            for j in ctx.jobs.iter().filter(|j| j.has_degradable()) {
                match j.power_rate() {
                    Some(r) => rated.push((j, r)),
                    None => unrated.push(j),
                }
            }
            rated.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.id.cmp(&b.0.id)));
            unrated.sort_by(|a, b| {
                b.power_w()
                    .total_cmp(&a.power_w())
                    .then_with(|| a.id.cmp(&b.id))
            });
            collect(
                rated.into_iter().map(|(j, _)| j).chain(unrated),
                ctx.deficit_w(),
            )
        }

        pub fn uniform(ctx: &SelectionContext) -> Vec<NodeId> {
            let targets: BTreeSet<NodeId> = ctx
                .jobs
                .iter()
                .flat_map(|j| j.degradable_nodes().map(|n| n.node))
                .collect();
            targets.into_iter().collect()
        }
    }

    #[test]
    fn overlapping_jobs_count_a_shared_node_once() {
        // Jobs 1 and 2 share node 5; each degradable node saves 10 W.
        // Job 1 (nodes 5, 6) saves 20 W and job 2 adds node 7 only, so
        // the two save 30 W. A 25 W deficit stops there; a 35 W deficit
        // also takes job 3, which counting node 5 twice (40 W) would not.
        let jobs = vec![
            jobs_obs(1, vec![nobs(6, 5, 300.0), nobs(5, 5, 300.0)], None),
            jobs_obs(2, vec![nobs(5, 5, 250.0), nobs(7, 5, 250.0)], None),
            jobs_obs(3, vec![nobs(1, 5, 100.0)], None),
        ];
        let mpc_c = |deficit: f64| MpcC.select(&ctx(jobs.clone(), 1_000.0 + deficit, 1_000.0));
        assert_eq!(mpc_c(25.0), [5, 6, 7].map(NodeId));
        assert_eq!(mpc_c(35.0), [1, 5, 6, 7].map(NodeId));
        assert_eq!(
            Uniform.select(&ctx(jobs, 1_100.0, 1_000.0)),
            [1, 5, 6, 7].map(NodeId)
        );
    }

    mod prop {
        use super::*;
        use crate::observe::NodeObservation;
        use ppc_workload::JobId;
        use proptest::prelude::*;

        /// Jobs over ids `0..ids`, drawn with repeats so jobs overlap (and
        /// a job may list a node twice), powers from a few values so
        /// `Power(J)` ties, and some nodes floored.
        fn jobs(raw: &[(u32, u32, u8)], width: usize, ids: u32) -> Vec<JobObservation> {
            raw.chunks(width)
                .enumerate()
                .map(|(i, chunk)| JobObservation {
                    id: JobId(i as u64 * 7 % 11),
                    nodes: chunk
                        .iter()
                        .map(|&(id, power, level)| NodeObservation {
                            node: NodeId(id % ids),
                            level: ppc_node::Level::new(level % 3),
                            power_w: f64::from(power % 3) * 100.0,
                            saving_w: if level % 3 == 0 {
                                0.0
                            } else {
                                f64::from(level) * 0.7
                            },
                        })
                        .collect(),
                    prev_power_w: (!i.is_multiple_of(3)).then_some(100.0 + (i % 2) as f64 * 100.0),
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// MPC-C, LPC-C, HRI-C and UNIFORM select exactly what the
            /// ordered-set reference selects, tie-breaks and the
            /// `Nodes(J_i) − A` rule included.
            #[test]
            fn prop_collection_policies_match_the_set_reference(
                raw in proptest::collection::vec((0u32..1_000, 0u32..1_000, 0u8..6), 0..60),
                width in 1usize..8,
                ids in 1u32..80,
                deficit in 0.0f64..60.0,
            ) {
                let c = ctx(jobs(&raw, width, ids), 1_000.0 + deficit, 1_000.0);
                prop_assert_eq!(MpcC.select(&c), reference::by_power(&c, true));
                prop_assert_eq!(LpcC.select(&c), reference::by_power(&c, false));
                prop_assert_eq!(HriC.select(&c), reference::hri_c(&c));
                prop_assert_eq!(Uniform.select(&c), reference::uniform(&c));
            }
        }
    }

    #[test]
    fn paper_policies_are_mpc_and_hri() {
        assert_eq!(PolicyKind::PAPER[0].name(), "MPC");
        assert_eq!(PolicyKind::PAPER[1].name(), "HRI");
    }
}
