//! # ppc-cluster — the integrated experiment environment
//!
//! Wires every substrate into the paper's testbed: a 128-node Tianhe-1A
//! variant ([`spec::ClusterSpec::tianhe_1a_variant`]) running the random
//! NPB CLASS=D job mix, sensed by per-node profiling agents and a facility
//! meter, and governed by the power manager.
//!
//! * [`spec`] — cluster-level configuration (node model, size, tick,
//!   provision capability, sensing noise);
//! * [`sim`] — the single-threaded tick loop: refill queue → start jobs →
//!   advance node states → advance jobs at min-member-rate → meter →
//!   agents → control cycle → apply throttling commands;
//! * [`experiment`] — the paper's protocol: an uncapped training period
//!   that learns `P_peak`, then a measured period under a policy; plus the
//!   unmanaged baseline run that Figures 6/7 normalize against;
//! * [`output`] — text tables / CSV / JSON for the figure regenerators.

pub mod columns;
pub mod experiment;
pub mod output;
pub mod sim;
pub mod spec;

pub use columns::{DirtySet, NodeColumns};
pub use experiment::{
    build_sim, run_experiment, run_experiment_full, ExperimentConfig, ExperimentOutcome,
};
pub use sim::{ClusterSim, EvalMode};
pub use spec::ClusterSpec;
