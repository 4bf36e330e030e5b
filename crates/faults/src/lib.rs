//! Deterministic fault injection for the power-provision simulator.
//!
//! The paper's architecture (§3–§6) assumes a large machine in which nodes
//! crash, reboot, hang, and fall silent as a matter of course; the control
//! stack must keep the cluster under its provisioned power while the
//! telemetry it steers by is partially dark. This crate supplies the fault
//! side of that contract:
//!
//! * [`FaultSchedule`] — a seeded, serializable list of [`FaultEvent`]s.
//!   Schedules are either written out explicitly (regression tests, paper
//!   scenarios) or generated from per-class rates ([`FaultRates`]) using a
//!   dedicated `simkit` RNG stream, so a `(seed, rates)` pair always expands
//!   to the identical event list regardless of thread count or platform.
//! * [`FaultEngine`] — a per-node lifecycle state machine that replays a
//!   schedule against simulation time. Each tick it reports the edge
//!   transitions ([`FaultTransition`]) the cluster layer must react to
//!   (evict jobs, mark nodes offline, skip telemetry) and answers O(1)
//!   health queries (`is_down` / `is_hung` / `is_silent`). Recoveries
//!   come from a deadline heap, so a tick costs the edges due on it, not
//!   the fleet size.
//! * [`FaultStats`] — availability accounting (crash count, node-seconds
//!   lost, repair-time totals) that `metrics::availability` turns into the
//!   normalized report benchmarks compare across policies.
//!
//! Fault classes model the distinct failure surfaces of the architecture:
//!
//! | class                        | node state        | telemetry | DVFS actuator |
//! |------------------------------|-------------------|-----------|---------------|
//! | [`FaultKind::Crash`]         | down, then reboot | dark      | dead          |
//! | [`FaultKind::Hang`]          | up, running       | live      | frozen        |
//! | [`FaultKind::AgentSilence`]  | up, running       | dark      | live          |
//! | [`FaultKind::SubtreePartition`] | up, running    | dark (whole subtree) | live |

mod engine;
mod schedule;

pub use engine::{FaultEngine, FaultStats, FaultTransition, NodeHealth};
pub use schedule::{FaultEvent, FaultInjection, FaultKind, FaultRates, FaultSchedule};
