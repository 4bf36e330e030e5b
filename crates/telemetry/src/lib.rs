//! # ppc-telemetry — sensing: agents, meter, collector
//!
//! The paper's architecture senses power at two granularities:
//!
//! * a facility **power meter** measures the whole system's draw directly
//!   (the Observability assumption) — [`meter::SystemPowerMeter`], with a
//!   configurable error model;
//! * a **profiling agent** on every candidate node samples its `/proc`
//!   counters each interval τ and estimates the node's power through
//!   Formula (1) — [`agent::ProfilingAgent`], with failure injection
//!   (dropped samples) to exercise the manager's robustness;
//! * a **central collector** on the management node ingests agent samples
//!   into dense per-node slots and serves the per-node and per-job power
//!   views the selection policies read as lock-free array reads —
//!   [`collector::Collector`];
//! * the **management cost** of doing all this grows non-linearly with the
//!   number of monitored nodes (the paper's Figure 5) — [`cost`] accounts
//!   for it both by measuring the real collector code path and through a
//!   calibrated analytic model.

pub mod agent;
pub mod collector;
pub mod cost;
pub mod meter;
pub mod noise;
pub mod sample;
pub mod tree;

pub use agent::ProfilingAgent;
pub use collector::Collector;
pub use meter::{MeterReading, SystemPowerMeter};
pub use noise::NoiseModel;
pub use sample::NodeSample;
pub use tree::AggregationTree;
