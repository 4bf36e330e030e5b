//! Snapshot/branch of a live simulation, and the serializable recipe.
//!
//! ## What a snapshot contains
//!
//! Everything. [`ClusterSim`] owns all of its mutable state as plain
//! data — deterministic RNG streams, the SoA node columns and dirty
//! set, the staleness deadlines, scheduler and queue, the collector's slot
//! table, the power manager (thresholds, `A_degraded`, policy state),
//! the bounded journal *including its `dropped` counter*, and the
//! observability hub (span hash, metrics registry, flight recorder) —
//! so a clone **is** a complete capture. What a clone shares with its
//! source is immutable: the `Arc<PowerModel>`/`Arc<NodeSpec>` tables,
//! which no run mutates, and the retained history — the journal's
//! events and the span recorder's records and attributes, held in
//! sealed [`SharedRing`](ppc_simkit::SharedRing) chunks that are never
//! written again, and the flight recorder's stored snapshots. Each side
//! appends new history to a tail chunk it owns, so a clone copies at
//! most one chunk of each ring, however much history is retained.
//! Branch determinism therefore holds by construction: a branched run
//! re-executes the exact state trajectory the original would, bit for
//! bit.
//!
//! ## Branch semantics
//!
//! [`ClusterSnapshot::capture`] must be taken at a tick boundary
//! (between [`ClusterSim::step`] calls); [`ClusterSnapshot::branch`]
//! hands back an independent simulation positioned at that boundary.
//! Mutations applied to one branch (injected jobs, decommissioned
//! nodes, cap changes) are invisible to the snapshot and to sibling
//! branches.

use ppc_cluster::{build_sim, ClusterSim, EvalMode, ExperimentConfig};
use ppc_simkit::SimTime;
use serde::{Deserialize, Serialize};

/// A complete, immutable capture of a [`ClusterSim`] at a tick boundary.
#[derive(Clone)]
pub struct ClusterSnapshot {
    sim: ClusterSim,
}

impl ClusterSnapshot {
    /// Captures `sim` by clone (sharing only immutable history, see the
    /// module docs); the live simulation is untouched and may keep
    /// running.
    ///
    /// Call at a tick boundary (between [`ClusterSim::step`] calls).
    pub fn capture(sim: &ClusterSim) -> Self {
        ClusterSnapshot { sim: sim.clone() }
    }

    /// Wraps an owned simulation as a snapshot (no copy).
    pub fn of(sim: ClusterSim) -> Self {
        ClusterSnapshot { sim }
    }

    /// Completed ticks at the capture point.
    pub fn tick(&self) -> u64 {
        self.sim.tick_index()
    }

    /// Simulation time at the capture point.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Read access to the captured state (fingerprints, reports).
    pub fn base(&self) -> &ClusterSim {
        &self.sim
    }

    /// Forks an independent simulation from the capture point. Stepping
    /// the branch N ticks is bit-identical to stepping the original N
    /// ticks from the same boundary — journal, power-trace, span, and
    /// metrics fingerprints all match.
    pub fn branch(&self) -> ClusterSim {
        self.sim.clone()
    }
}

impl std::fmt::Debug for ClusterSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSnapshot")
            .field("tick", &self.tick())
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}

/// The serializable recipe form of a snapshot.
///
/// A full in-memory snapshot is not wire-friendly (span hashes intern
/// `&'static str`s, journal events carry static category tags), but it
/// does not need to be: the simulation is deterministic, so *(experiment
/// config, evaluation mode, warmup ticks)* encodes the state at the
/// capture point exactly. [`BaseScenario::materialize`] decodes by
/// replay — building the configured simulation and stepping it
/// `warmup_ticks` times — and two materializations of equal recipes are
/// fingerprint-equal (see the crate's round-trip tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaseScenario {
    /// Cluster, policy, provision, and fault configuration.
    pub config: ExperimentConfig,
    /// Evaluation strategy for the warmup replay and all branches.
    pub eval_mode: EvalMode,
    /// Ticks to advance before capturing (the branch point).
    pub warmup_ticks: u64,
}

impl BaseScenario {
    /// A scenario capturing `config` after `warmup_ticks` ticks under the
    /// default evaluation mode.
    pub fn new(config: ExperimentConfig, warmup_ticks: u64) -> Self {
        BaseScenario {
            config,
            eval_mode: EvalMode::default(),
            warmup_ticks,
        }
    }

    /// Selects the evaluation strategy used for replay and branches.
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        self
    }

    /// Rehydrates the snapshot by deterministic replay.
    pub fn materialize(&self) -> ClusterSnapshot {
        let (_, sim) = build_sim(&self.config);
        let mut sim = sim.with_eval_mode(self.eval_mode);
        for _ in 0..self.warmup_ticks {
            sim.step();
        }
        ClusterSnapshot::of(sim)
    }
}
