//! # ppc-node — compute-node substrate
//!
//! Models one cluster node the way the paper's power-management system sees
//! it: a set of devices (CPU sockets with DVFS, memory, interconnect NIC)
//! whose *operating mode* determines power draw through the paper's
//! Formula (1):
//!
//! ```text
//! P(l) = P_idle(l)
//!      + Uti_cpu · Σ_{x ∈ CPU} P_x(l)
//!      + (Mem_used / Mem_total) · P_mem(l)
//!      + (Data_NIC / (τ · BW_NIC)) · P_NIC(l)
//! ```
//!
//! Modules:
//!
//! * [`freq`] — the discrete DVFS ladder (the Xeon X5670's ten steps,
//!   1.60–2.93 GHz) and the [`freq::Level`] index that *is* the paper's
//!   per-node power state `l`.
//! * [`device`] — CPU / memory / NIC device specs with per-level maximal
//!   dynamic power ([`device::CpuSpec`] derives its curve from `f·V²`).
//! * [`calibration`] — per-level idle and dynamic power tables.
//! * [`profile`] — Formula (1) as executable code ([`profile::PowerModel`]).
//! * [`procfs`] — the simulated `/proc` counters an on-node profiling agent
//!   samples (jiffies, meminfo, NIC byte counters with wrap handling).
//! * [`node`] — the node itself: spec + power level + operating state.
//! * [`sets`] — [`NodeMask`], the bitmask every set of node ids is held in.
//! * [`spec`] — node presets, including the Tianhe-1A variant used by the
//!   paper's testbed.

pub mod budget;
pub mod calibration;
pub mod device;
pub mod error;
pub mod freq;
pub mod node;
pub mod procfs;
pub mod profile;
pub mod sets;
pub mod spec;
pub mod thermal;

pub use budget::{level_for_budget, proportional_budgets};
pub use error::NodeError;
pub use freq::{FrequencyLadder, Level};
pub use node::{Node, NodeId};
pub use profile::{OperatingState, PowerModel};
pub use sets::{MaskIter, NodeMask};
pub use spec::NodeSpec;
pub use thermal::{ThermalSpec, ThermalState};
