//! Cluster-level configuration.

use ppc_node::spec::NodeSpec;
use ppc_node::NodeId;
use ppc_simkit::SimDuration;
use ppc_telemetry::NoiseModel;
use ppc_workload::app::Class;
use ppc_workload::replay::TraceEntry;
use serde::{Deserialize, Serialize};

/// A group of identical nodes in a (possibly heterogeneous) cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeGroup {
    /// Hardware model of every node in the group.
    pub spec: NodeSpec,
    /// Number of nodes.
    pub count: u32,
}

/// Configuration of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Node hardware model of the base partition (the testbed is
    /// homogeneous: 128 of these and nothing else).
    pub node_spec: NodeSpec,
    /// Number of compute nodes in the base partition.
    pub node_count: u32,
    /// Additional node groups (heterogeneous partitions). Node ids are
    /// assigned base-partition-first, then group by group. All groups
    /// must expose the same core count as the base spec (uniform rank
    /// placement); ladders and power envelopes may differ — Algorithm 1
    /// handles per-node ladder heights.
    pub extra_groups: Vec<NodeGroup>,
    /// Simulation tick = sampling interval τ = control cycle period.
    pub tick: SimDuration,
    /// Nodes that are privileged (uncontrollable).
    pub privileged: Vec<NodeId>,
    /// Power provision capability `P_Max` as a fraction of the theoretical
    /// maximal power `P_thy` (the Necessity assumption requires < 1).
    pub provision_fraction: f64,
    /// Facility-meter error model.
    pub meter_noise: NoiseModel,
    /// Profiling-agent error model.
    pub agent_noise: NoiseModel,
    /// NPB problem class of generated jobs.
    pub class: Class,
    /// Mean think time between a queue-empty observation and the next job
    /// submission (exponentially distributed). Zero reproduces the paper's
    /// literal "append whenever the queue is empty"; a positive value
    /// models the submission gaps behind the paper's low-average-
    /// utilization premise ("the probability of synchronized power spikes
    /// … is zero because of its low resource utilization"). Gates only
    /// the generator: a [`job_trace`](Self::job_trace) ignores it.
    pub think_time_mean: SimDuration,
    /// Fraction of generated jobs that are SLA-critical: their nodes are
    /// privileged (uncontrollable) for the job's lifetime, shrinking the
    /// candidate set dynamically (paper §II.A).
    pub critical_job_fraction: f64,
    /// Replay this fixed submission trace instead of the random generator
    /// (`None` = the paper's random workload). The trace's own submission
    /// times replace the generator together with its think-time gate, so
    /// [`think_time_mean`](Self::think_time_mean) has no effect beside it.
    pub job_trace: Option<Vec<TraceEntry>>,
    /// Admit queued jobs by aggressive backfill instead of the paper's
    /// strict FIFO (scheduling-substrate ablation).
    pub backfill: bool,
    /// Target queue depth: the generator submits while fewer jobs are
    /// queued (1 = the paper's refill-on-empty protocol; deeper queues
    /// make backfill meaningful).
    pub queue_depth: usize,
    /// Experiment RNG seed.
    pub seed: u64,
}

impl ClusterSpec {
    /// The paper's experiment environment: 128 Tianhe-1A nodes (2× Xeon
    /// X5670, 12 cores, 24 GB), τ = 1 s, CLASS=D jobs with NPROCS up to
    /// 256, provision capability below the theoretical peak.
    pub fn tianhe_1a_variant() -> Self {
        ClusterSpec {
            node_spec: NodeSpec::tianhe_1a(),
            node_count: 128,
            extra_groups: Vec::new(),
            tick: SimDuration::from_secs(1),
            privileged: Vec::new(),
            provision_fraction: 0.70,
            meter_noise: NoiseModel::METER_1PCT,
            agent_noise: NoiseModel::NONE,
            class: Class::D,
            think_time_mean: SimDuration::from_secs(15),
            critical_job_fraction: 0.0,
            job_trace: None,
            backfill: false,
            queue_depth: 1,
            seed: 20120521, // IPDPS-W 2012
        }
    }

    /// A small fast cluster for tests and the quickstart example.
    pub fn mini(node_count: u32) -> Self {
        ClusterSpec {
            node_spec: NodeSpec::tianhe_1a(),
            node_count,
            extra_groups: Vec::new(),
            tick: SimDuration::from_secs(1),
            privileged: Vec::new(),
            provision_fraction: 0.80,
            meter_noise: NoiseModel::NONE,
            agent_noise: NoiseModel::NONE,
            class: Class::A,
            think_time_mean: SimDuration::ZERO,
            critical_job_fraction: 0.0,
            job_trace: None,
            backfill: false,
            queue_depth: 1,
            seed: 7,
        }
    }

    /// Total node count across all partitions.
    pub fn total_nodes(&self) -> u32 {
        self.node_count + self.extra_groups.iter().map(|g| g.count).sum::<u32>()
    }

    /// All node ids (base partition first, then each extra group).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.total_nodes()).map(NodeId)
    }

    /// The hardware spec of node `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn spec_of(&self, id: NodeId) -> &NodeSpec {
        let mut idx = id.0;
        if idx < self.node_count {
            return &self.node_spec;
        }
        idx -= self.node_count;
        for g in &self.extra_groups {
            if idx < g.count {
                return &g.spec;
            }
            idx -= g.count;
        }
        // ppc-lint: allow(panic-path): documented "# Panics" contract of this indexing-style API
        panic!("node {id} out of range");
    }

    /// Theoretical maximal power `P_thy = Σ_i P_i`, watts.
    pub fn theoretical_max_w(&self) -> f64 {
        self.node_count as f64 * self.node_spec.theoretical_max_w()
            + self
                .extra_groups
                .iter()
                .map(|g| g.count as f64 * g.spec.theoretical_max_w())
                .sum::<f64>()
    }

    /// Power provision capability `P_Max`, watts.
    pub fn provision_w(&self) -> f64 {
        self.provision_fraction * self.theoretical_max_w()
    }

    /// Per-node theoretical max power in node-id order (base partition,
    /// then each extra group) — the budget-delegation weights of the
    /// hierarchical control plane.
    pub fn node_weights_w(&self) -> Vec<f64> {
        let mut weights = vec![self.node_spec.theoretical_max_w(); self.node_count as usize];
        for g in &self.extra_groups {
            weights.resize(weights.len() + g.count as usize, g.spec.theoretical_max_w());
        }
        weights
    }

    /// Largest NPROCS the cluster can host.
    pub fn max_nprocs(&self) -> u32 {
        self.total_nodes() * self.node_spec.cores()
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on an inconsistent spec (zero nodes, provision ≥ theoretical
    /// peak — violating Necessity — or privileged nodes out of range).
    pub fn validate(&self) {
        assert!(self.node_count > 0, "cluster needs nodes");
        assert!(!self.tick.is_zero(), "tick step must be positive");
        assert!(
            (0.0..1.0).contains(&self.provision_fraction),
            "Necessity: provision capability must be below the theoretical peak"
        );
        assert!(
            self.privileged.iter().all(|n| n.0 < self.total_nodes()),
            "privileged node out of range"
        );
        assert!(
            self.extra_groups
                .iter()
                .all(|g| g.count > 0 && g.spec.cores() == self.node_spec.cores()),
            "extra groups must be non-empty and match the base core count"
        );
        assert!(
            (0.0..=1.0).contains(&self.critical_job_fraction),
            "critical job fraction must be in [0, 1]"
        );
        assert!(self.queue_depth >= 1, "queue depth must be at least 1");
        self.meter_noise.validate();
        self.agent_noise.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_matches_testbed() {
        let s = ClusterSpec::tianhe_1a_variant();
        s.validate();
        assert_eq!(s.node_count, 128);
        assert_eq!(s.max_nprocs(), 1536, "256-rank jobs must fit");
        let thy = s.theoretical_max_w();
        assert!((40_000.0..48_000.0).contains(&thy), "P_thy={thy}");
        assert!(s.provision_w() < thy, "Necessity holds");
    }

    #[test]
    fn mini_cluster_is_valid() {
        let s = ClusterSpec::mini(4);
        s.validate();
        assert_eq!(s.node_ids().count(), 4);
    }

    #[test]
    #[should_panic(expected = "Necessity")]
    fn provision_at_or_above_peak_rejected() {
        let mut s = ClusterSpec::mini(4);
        s.provision_fraction = 1.0;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tick_rejected() {
        let mut s = ClusterSpec::mini(4);
        s.tick = SimDuration::ZERO;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn privileged_out_of_range_rejected() {
        let mut s = ClusterSpec::mini(4);
        s.privileged = vec![NodeId(17)];
        s.validate();
    }
}
