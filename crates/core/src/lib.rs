//! # ppc-core — the power provision & capping architecture
//!
//! This crate is the paper's contribution, implemented in full:
//!
//! * [`sets`] — the node classification `A_total ⊇ A_uncontrollable`,
//!   `A_candidate = A_total − A_uncontrollable`, and per-cycle `A_target`;
//! * [`state`] — the Green / Yellow / Red power-consumption states defined
//!   by the two thresholds `P_L ≤ P_H`;
//! * [`thresholds`] — threshold setting and adjustment: a training period
//!   records the system peak `P_peak`, then `P_H = 93%·P_peak` and
//!   `P_L = 84%·P_peak` (margins from Fan et al.), re-adjusted every `t_p`
//!   control cycles;
//! * [`capping`] — Algorithm 1: steady-green recovery, yellow one-level
//!   degradation of a policy-selected target set, red force-to-lowest;
//! * [`policy`] — the target-set selection policies: state-based MPC,
//!   MPC-C (Algorithm 2), LPC, LPC-C, BFP and change-based HRI, HRI-C;
//! * [`observe`] — the per-cycle view (jobs → candidate nodes → power and
//!   one-level-down savings) that policies consume;
//! * [`manager`] — the control loop tying sensing to throttling commands;
//! * [`topology`] — the facility → row → rack → node tree with
//!   contiguous per-rack node-id ranges;
//! * [`hierarchy`] — the hierarchical control plane: per-rack
//!   sub-managers under delegated budgets, sibling headroom
//!   re-delegation, and worst-state rollup classification.

pub mod budget;
pub mod capping;
pub mod config;
pub mod error;
pub mod hierarchy;
pub mod manager;
pub mod observe;
pub mod policy;
pub mod sets;
pub mod state;
pub mod thresholds;
pub mod topology;

pub use budget::{
    conserves_budget, delegate_with_headroom, split_proportional, ProportionalBudgetController,
};
pub use capping::{CappingAlgorithm, NodeCommand};
pub use config::ManagerConfig;
pub use error::CoreError;
pub use hierarchy::{DelegationOutcome, HierarchicalManager};
pub use manager::{Classification, CycleOutcome, ManagerStats, PowerManager};
pub use observe::{JobObservation, NodeObservation, SelectionContext};
pub use policy::{PolicyKind, TargetSelectionPolicy};
pub use sets::{NodeMask, NodeSets};
pub use state::{PowerState, Thresholds};
pub use thresholds::ThresholdLearner;
pub use topology::Topology;
