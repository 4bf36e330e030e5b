//! The per-cycle observation the selection policies consume.
//!
//! Each control cycle, the manager condenses the collector's view into a
//! list of [`JobObservation`]s: for every running job `J`, the subset
//! `Nodes(J)` of *non-idle candidate* member nodes, each with its sampled
//! power `P(x)` and predicted one-level-down saving `P(x) − P'(x)`
//! (Formula (1) at level `l−1`, as Algorithm 2 requires), plus the
//! previous-interval job power `P^{t−1}(J)` for change-based policies.
//!
//! The saving is not computed here. The profiling agent predicts it with
//! every sample, in the same Formula (1) evaluation that estimates the
//! sample's power, and the caller passes the predictions as a per-node
//! column indexed by node id; observing a node is then a collector read
//! and a column read.

use ppc_node::{Level, NodeId, NodeMask};
use ppc_telemetry::Collector;
use ppc_workload::JobId;
use serde::{Deserialize, Serialize};

/// One candidate node of a job, as seen this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeObservation {
    /// The node.
    pub node: NodeId,
    /// Its power level when sampled.
    pub level: Level,
    /// Estimated power `P(x)`, watts.
    pub power_w: f64,
    /// Predicted saving `P(x) − P'(x)` from one level down, watts
    /// (0 at the lowest level).
    pub saving_w: f64,
}

impl NodeObservation {
    /// True if this node can still be degraded.
    pub fn is_degradable(&self) -> bool {
        self.level > Level::LOWEST
    }
}

/// One running job, as seen this cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobObservation {
    /// The job.
    pub id: JobId,
    /// `Nodes(J)`: non-idle candidate member nodes.
    pub nodes: Vec<NodeObservation>,
    /// `P^{t−1}(J)`, if every member node has a previous sample.
    pub prev_power_w: Option<f64>,
}

impl JobObservation {
    /// `Power(J) = Σ_{x ∈ Nodes(J)} P(x)`, watts.
    pub fn power_w(&self) -> f64 {
        self.nodes.iter().map(|n| n.power_w).sum()
    }

    /// Total achievable one-level saving over degradable nodes, watts.
    pub fn saving_w(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.is_degradable())
            .map(|n| n.saving_w)
            .sum()
    }

    /// The degradable member nodes.
    pub fn degradable_nodes(&self) -> impl Iterator<Item = &NodeObservation> {
        self.nodes.iter().filter(|n| n.is_degradable())
    }

    /// True if at least one member node can be degraded.
    pub fn has_degradable(&self) -> bool {
        self.nodes.iter().any(NodeObservation::is_degradable)
    }

    /// Rate of increase `ΔP^t(J) = (P^t(J) − P^{t−1}(J)) / P^{t−1}(J)`,
    /// or `None` without previous data.
    pub fn power_rate(&self) -> Option<f64> {
        let prev = self.prev_power_w?;
        if prev <= 0.0 {
            return None;
        }
        Some((self.power_w() - prev) / prev)
    }
}

/// Everything a selection policy sees in one cycle.
///
/// Borrows the cycle's job observations instead of owning them so the
/// manager can hand a cached observation list to the policy without
/// cloning per cycle (the incremental-evaluation hot path).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionContext<'a> {
    /// Observations of all running jobs with candidate nodes.
    pub jobs: &'a [JobObservation],
    /// Current metered system power `P`, watts.
    pub power_w: f64,
    /// The lower threshold `P_L`, watts.
    pub p_low_w: f64,
}

impl SelectionContext<'_> {
    /// The power cut needed to return to Green: `P − P_L` (≥ 0).
    pub fn deficit_w(&self) -> f64 {
        (self.power_w - self.p_low_w).max(0.0)
    }
}

/// Builds job observations from the collector's current view.
///
/// `jobs` yields each running job with its full member-node slice —
/// borrowed, so callers iterate their scheduler state directly instead of
/// cloning node lists per cycle. `saving_w` is indexed by node id: each
/// node's predicted one-level-down saving, made with its latest sample
/// (see [`observe_job_into`]). Idle nodes and nodes outside `candidates`
/// are excluded per the paper's definition of `Nodes(J)`; jobs left with
/// no observable nodes are dropped entirely.
pub fn observe_jobs<'a>(
    collector: &Collector,
    jobs: impl IntoIterator<Item = (JobId, &'a [NodeId])>,
    candidates: &NodeMask,
    saving_w: &[f64],
) -> Vec<JobObservation> {
    let mut out = Vec::new();
    for (id, members) in jobs {
        let mut job = JobObservation {
            id,
            nodes: Vec::new(),
            prev_power_w: None,
        };
        if observe_job_into(collector, id, members, candidates, saving_w, &mut job) {
            out.push(job);
        }
    }
    out
}

/// Rebuilds the observation of a single job in place, reusing `out`'s
/// node-vector allocation. Returns false (and leaves `out` with no
/// observable nodes) if the job would be dropped from the observation
/// list — the exact per-job logic of [`observe_jobs`], exposed so the
/// incremental evaluator can refresh only the jobs whose members changed
/// this cycle.
///
/// Each node's saving is read from `saving_w[node]`: the profiling agent
/// predicts it with every sample, in the same Formula (1) evaluation that
/// estimates the sample's power (`PowerModel::power_and_saving_w`), so it
/// must hold the prediction made with the collector's latest sample of
/// that node.
pub fn observe_job_into(
    collector: &Collector,
    id: JobId,
    members: &[NodeId],
    candidates: &NodeMask,
    saving_w: &[f64],
    out: &mut JobObservation,
) -> bool {
    out.id = id;
    out.nodes.clear();
    let mut prev = PrevSum::default();
    for &n in members {
        let Some(sample) = observable(collector, candidates, n) else {
            continue;
        };
        out.nodes.push(NodeObservation {
            node: n,
            level: sample.level,
            power_w: sample.power_w,
            saving_w: saving_w[n.0 as usize],
        });
        prev.add(collector, n);
    }
    if out.nodes.is_empty() {
        return false;
    }
    out.prev_power_w = prev.value();
    true
}

/// The job-global `P^{t−1}(J)` exactly as [`observe_job_into`] computes
/// it, without building the node observations. For a job whose members'
/// latest samples are unchanged since its last observation and only their
/// previous power moved (a settled sample), its observation differs in
/// this field alone.
pub fn observe_prev_power_w(
    collector: &Collector,
    members: &[NodeId],
    candidates: &NodeMask,
) -> Option<f64> {
    let mut prev = PrevSum::default();
    for &n in members {
        if is_observable(collector, candidates, n) {
            prev.add(collector, n);
        }
    }
    prev.value()
}

/// True if node `n` belongs in its job's `Nodes(J)`: an admitted
/// candidate with a non-idle latest sample. A job is observed exactly when
/// one of its members is.
pub fn is_observable(collector: &Collector, candidates: &NodeMask, n: NodeId) -> bool {
    observable(collector, candidates, n).is_some()
}

/// The sample a member contributes to `Nodes(J)`: an admitted candidate
/// with a non-idle latest sample.
fn observable(
    collector: &Collector,
    candidates: &NodeMask,
    n: NodeId,
) -> Option<ppc_telemetry::NodeSample> {
    if !candidates.contains(n) {
        return None;
    }
    collector.latest(n).filter(|s| !s.is_idle())
}

/// Member-order running sum of previous powers; `None` unless every
/// member contributed one and the sum is positive (so also for no member).
#[derive(Default)]
struct PrevSum {
    sum: f64,
    incomplete: bool,
}

impl PrevSum {
    fn add(&mut self, collector: &Collector, n: NodeId) {
        match collector.prev_power_of(n) {
            Some(p) => self.sum += p,
            None => self.incomplete = true,
        }
    }

    fn value(&self) -> Option<f64> {
        (!self.incomplete && self.sum > 0.0).then_some(self.sum)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for policy and capping tests.
    use super::*;

    /// Builds a node observation at the given level with a saving
    /// proportional to the level (0 at the bottom).
    pub fn nobs(node: u32, level: u8, power_w: f64) -> NodeObservation {
        NodeObservation {
            node: NodeId(node),
            level: Level::new(level),
            power_w,
            saving_w: if level == 0 { 0.0 } else { 10.0 },
        }
    }

    /// Builds a job observation.
    pub fn jobs_obs(
        id: u64,
        nodes: Vec<NodeObservation>,
        prev_power_w: Option<f64>,
    ) -> JobObservation {
        JobObservation {
            id: JobId(id),
            nodes,
            prev_power_w,
        }
    }

    /// A context with the given jobs, power and P_L. Leaks the job list
    /// (tests only) so fixtures can stay by-value at every call site while
    /// `SelectionContext` itself borrows.
    pub fn ctx(jobs: Vec<JobObservation>, power_w: f64, p_low_w: f64) -> SelectionContext<'static> {
        SelectionContext {
            jobs: Vec::leak(jobs),
            power_w,
            p_low_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use ppc_node::spec::NodeSpec;
    use ppc_node::{OperatingState, PowerModel};
    use ppc_simkit::SimTime;
    use ppc_telemetry::NodeSample;

    /// The saving column of nodes `0..n`: each node's prediction made
    /// with its latest sample, as its agent would have made it.
    fn saving_column(collector: &Collector, model: &PowerModel, n: u32) -> Vec<f64> {
        (0..n)
            .map(|raw| {
                collector
                    .latest(NodeId(raw))
                    .map_or(0.0, |s| model.saving_one_level_w(s.level, &s.state))
            })
            .collect()
    }

    #[test]
    fn job_aggregates_power_and_savings() {
        let j = jobs_obs(1, vec![nobs(0, 5, 200.0), nobs(1, 0, 150.0)], Some(300.0));
        assert_eq!(j.power_w(), 350.0);
        // Only the level-5 node is degradable.
        assert_eq!(j.saving_w(), 10.0);
        assert_eq!(j.degradable_nodes().count(), 1);
        assert!(j.has_degradable());
        let rate = j.power_rate().unwrap();
        assert!((rate - (350.0 - 300.0) / 300.0).abs() < 1e-12);
    }

    #[test]
    fn rate_requires_previous_data() {
        let j = jobs_obs(1, vec![nobs(0, 5, 100.0)], None);
        assert_eq!(j.power_rate(), None);
        let j0 = jobs_obs(1, vec![nobs(0, 5, 100.0)], Some(0.0));
        assert_eq!(j0.power_rate(), None);
    }

    #[test]
    fn rate_rejects_nonpositive_history() {
        // A non-positive previous power would make the relative rate
        // meaningless (division by ≤ 0): both zero and negative history
        // read as "no data", exactly like a missing sample.
        let j = jobs_obs(1, vec![nobs(0, 5, 100.0)], Some(-50.0));
        assert_eq!(j.power_rate(), None);
        // Falling power with valid history is a negative rate, not None.
        let j2 = jobs_obs(1, vec![nobs(0, 5, 100.0)], Some(200.0));
        assert_eq!(j2.power_rate(), Some(-0.5));
    }

    #[test]
    fn deficit_is_clamped_at_zero() {
        let c = ctx(vec![], 900.0, 1_000.0);
        assert_eq!(c.deficit_w(), 0.0);
        let c2 = ctx(vec![], 1_200.0, 1_000.0);
        assert_eq!(c2.deficit_w(), 200.0);
    }

    #[test]
    fn deficit_at_exact_threshold_is_zero() {
        // P == P_L sits on the Green/Yellow boundary: the required cut is
        // exactly zero, not an epsilon — selection must see no deficit.
        let c = ctx(vec![], 1_000.0, 1_000.0);
        assert_eq!(c.deficit_w(), 0.0);
        // One watt over the line is a one-watt deficit, bit-exactly.
        let c2 = ctx(vec![], 1_001.0, 1_000.0);
        assert_eq!(c2.deficit_w(), 1.0);
    }

    #[test]
    fn observe_jobs_partial_history_yields_no_prev_power() {
        // Two member nodes, only one with a previous sample: P^{t-1}(J)
        // must be None (a partial sum would understate the job's history
        // and fabricate a huge apparent rate of increase).
        let spec = NodeSpec::tianhe_1a();
        let model = spec.power_model(1.0);
        let mut collector = Collector::new();
        let busy = OperatingState {
            cpu_util: 0.9,
            mem_used_bytes: 1 << 30,
            nic_bytes: 1000,
        };
        let mk = |node: u32, at: u64| NodeSample {
            node: NodeId(node),
            at: SimTime::from_secs(at),
            state: busy,
            level: Level::new(9),
            power_w: model.power_w(Level::new(9), &busy),
        };
        collector.ingest(mk(0, 0));
        collector.ingest(mk(0, 1)); // node 0: two samples → prev known
        collector.ingest(mk(1, 1)); // node 1: first sample only
        let candidates: NodeMask = [NodeId(0), NodeId(1)].into_iter().collect();
        let members = [NodeId(0), NodeId(1)];
        let savings = saving_column(&collector, &model, 2);
        let obs = observe_jobs(
            &collector,
            [(JobId(3), &members[..])],
            &candidates,
            &savings,
        );
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].nodes.len(), 2);
        assert_eq!(obs[0].prev_power_w, None);
        assert_eq!(obs[0].power_rate(), None);
    }

    #[test]
    fn observe_jobs_filters_idle_and_non_candidates() {
        let spec = NodeSpec::tianhe_1a();
        let model = spec.power_model(1.0);
        let mut collector = Collector::new();
        let busy = OperatingState {
            cpu_util: 0.9,
            mem_used_bytes: 1 << 30,
            nic_bytes: 1000,
        };
        let mk = |node: u32, at: u64, state: OperatingState| NodeSample {
            node: NodeId(node),
            at: SimTime::from_secs(at),
            state,
            level: Level::new(9),
            power_w: model.power_w(Level::new(9), &state),
        };
        // Node 0: busy candidate; node 1: idle; node 2: busy but not candidate.
        collector.ingest(mk(0, 0, busy));
        collector.ingest(mk(0, 1, busy));
        collector.ingest(mk(1, 1, OperatingState::IDLE));
        collector.ingest(mk(2, 1, busy));
        let candidates: NodeMask = [NodeId(0), NodeId(1)].into_iter().collect();
        let jobs = [
            (JobId(1), vec![NodeId(0), NodeId(1), NodeId(2)]),
            (JobId(2), vec![NodeId(2)]), // no observable nodes → dropped
        ];
        let obs = observe_jobs(
            &collector,
            jobs.iter().map(|(id, ns)| (*id, ns.as_slice())),
            &candidates,
            &saving_column(&collector, &model, 3),
        );
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].id, JobId(1));
        assert_eq!(obs[0].nodes.len(), 1);
        assert_eq!(obs[0].nodes[0].node, NodeId(0));
        assert!(obs[0].nodes[0].saving_w > 0.0);
        // Node 0 has two samples → prev power known.
        assert!(obs[0].prev_power_w.is_some());
    }

    #[test]
    fn prev_power_alone_matches_the_full_observation() {
        let model = NodeSpec::tianhe_1a().power_model(1.0);
        let mut collector = Collector::new();
        let busy = OperatingState {
            cpu_util: 0.8,
            mem_used_bytes: 1 << 29,
            nic_bytes: 500,
        };
        let mk = |node: u32, at: u64, state: OperatingState, power_w: f64| NodeSample {
            node: NodeId(node),
            at: SimTime::from_secs(at),
            state,
            level: Level::new(7),
            power_w,
        };
        // Nodes 0, 1: busy with history; 2: idle; 3: busy, no history;
        // 4: busy with history but not a candidate.
        for (n, p) in [(0, 210.0), (1, 190.5), (4, 205.0)] {
            collector.ingest(mk(n, 0, busy, p - 3.0));
            collector.ingest(mk(n, 1, busy, p));
        }
        collector.ingest(mk(2, 1, OperatingState::IDLE, 150.0));
        collector.ingest(mk(3, 1, busy, 220.0));
        let candidates: NodeMask = (0..4).map(NodeId).collect();
        let savings = saving_column(&collector, &model, 5);
        let member_sets: [&[u32]; 6] = [&[0, 1], &[1, 0, 2], &[0, 3], &[2], &[4], &[1, 4, 0]];
        for members in member_sets {
            let members: Vec<NodeId> = members.iter().map(|&n| NodeId(n)).collect();
            let mut full = JobObservation {
                id: JobId(1),
                nodes: Vec::new(),
                prev_power_w: None,
            };
            let observed = observe_job_into(
                &collector,
                JobId(1),
                &members,
                &candidates,
                &savings,
                &mut full,
            );
            let want = if observed { full.prev_power_w } else { None };
            let got = observe_prev_power_w(&collector, &members, &candidates);
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{members:?}");
        }
    }

    #[test]
    fn observe_jobs_without_prev_sample_has_no_rate() {
        let spec = NodeSpec::tianhe_1a();
        let model = spec.power_model(1.0);
        let mut collector = Collector::new();
        let busy = OperatingState {
            cpu_util: 0.9,
            mem_used_bytes: 0,
            nic_bytes: 0,
        };
        collector.ingest(NodeSample {
            node: NodeId(0),
            at: SimTime::ZERO,
            state: busy,
            level: Level::new(9),
            power_w: 250.0,
        });
        let candidates: NodeMask = [NodeId(0)].into_iter().collect();
        let members = [NodeId(0)];
        let savings = saving_column(&collector, &model, 1);
        let obs = observe_jobs(
            &collector,
            [(JobId(7), &members[..])],
            &candidates,
            &savings,
        );
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].prev_power_w, None);
    }
}
