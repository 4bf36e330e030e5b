//! # ppc — power provision and capping for large scale systems
//!
//! Facade crate re-exporting the full public API of the reproduction of
//! *"A Power Provision and Capping Architecture for Large Scale Systems"*
//! (Liu, Zhu, Lu, Liu — IPDPS Workshops 2012). See the individual crates
//! for the substrate layers; the typical entry point is
//! [`cluster::experiment::run_experiment`] or the lower-level
//! [`cluster::ClusterSim`].
//!
//! ```
//! use ppc::cluster::{ClusterSim, ClusterSpec};
//! use ppc::core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
//! use ppc::simkit::SimDuration;
//!
//! // A 4-node cluster capped with the paper's MPC policy.
//! let spec = ClusterSpec::mini(4);
//! let sets = NodeSets::new(spec.node_ids(), []);
//! let config = ManagerConfig {
//!     training_cycles: 60,
//!     ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
//! };
//! let manager = PowerManager::new(config, sets).expect("valid config");
//! // The flat manager attaches as the one rack of a single-rack hierarchy.
//! let mut sim = ClusterSim::new(spec).with_manager(manager);
//! sim.run_for(SimDuration::from_mins(3));
//!
//! assert!(sim.true_power().max().unwrap() > 0.0);
//! assert!(sim.hierarchy().unwrap().is_single_rack());
//! let t = sim.manager().unwrap().thresholds();
//! assert!(t.p_low_w() <= t.p_high_w());
//! ```

pub use ppc_cluster as cluster;
pub use ppc_core as core;
pub use ppc_faults as faults;
pub use ppc_metrics as metrics;
pub use ppc_node as node;
pub use ppc_obs as obs;
pub use ppc_simkit as simkit;
pub use ppc_telemetry as telemetry;
pub use ppc_whatif as whatif;
pub use ppc_workload as workload;
