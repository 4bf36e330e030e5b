//! # ppc-whatif — the what-if capacity service
//!
//! The paper's architecture exists to answer one operational question:
//! *can this fleet admit more load under a fixed power provision?*
//! Operators ask it continuously and in bulk — admit this job mix?
//! survive losing a rack? tighten the cap by 10%? — and answering each
//! variant with a from-scratch simulation throws away everything the
//! live run already knows. This crate makes the question cheap:
//!
//! * [`ClusterSnapshot`] captures a live [`ClusterSim`] *completely* —
//!   RNG streams, node columns, dirty set, deadlines, scheduler,
//!   collector, manager, journal, observability — at a tick boundary.
//!   [`ClusterSnapshot::branch`] forks an independent simulation from it;
//!   a branched run stepped N ticks is **bit-identical** to the original
//!   stepped N ticks, all four determinism fingerprints (journal, power
//!   trace, spans, metrics) included. Tier-1 pins this (the branch legs
//!   of `tests/fingerprints.rs`).
//! * [`BaseScenario`] is the serializable *recipe* form of a snapshot:
//!   because the simulation is deterministic, `(config, eval mode,
//!   warmup ticks)` is a faithful encoding of the full state —
//!   [`BaseScenario::materialize`] rehydrates it by replay, and two
//!   materializations of the same recipe are fingerprint-equal.
//! * [`WhatIfEngine`] accepts fleets of [`WhatIfQuery`] values (admit a
//!   job mix, raise/lower the cap, drop nodes, swap the selection
//!   policy), fans them out over scoped threads (one per core) as
//!   independent branch-and-simulate runs, and returns structured
//!   [`WhatIfAnswer`]s: admit/deny, projected peak power, time in
//!   Yellow/Red, ΔP×T overspend, SLO impact. Every query is evaluated
//!   against the *same* snapshot, so a batch's answers are mutually
//!   comparable and the whole batch is deterministic at any width.
//!
//! The long-running service mode lives in `ppc-bench` (`whatif_serve`):
//! it sustains a query stream against one snapshot and reports
//! throughput and p50/p99 latency into `BENCH_ppc.json`.
//!
//! ```
//! use ppc_cluster::{ClusterSim, ClusterSpec};
//! use ppc_whatif::{ClusterSnapshot, WhatIfEngine, WhatIfQuery, WhatIfRequest};
//!
//! let mut sim = ClusterSim::new(ClusterSpec::mini(4));
//! for _ in 0..60 {
//!     sim.step();
//! }
//! let mut engine = WhatIfEngine::new(ClusterSnapshot::capture(&sim));
//! let answers = engine.run_batch(&[
//!     WhatIfRequest::new(WhatIfQuery::Baseline, 30),
//!     WhatIfRequest::new(WhatIfQuery::DropNodes { count: 1, rack: None }, 30),
//! ]);
//! assert_eq!(answers.len(), 2);
//! assert!(answers[0].peak_power_w >= answers[1].peak_power_w);
//! ```
//!
//! [`ClusterSim`]: ppc_cluster::ClusterSim

pub mod engine;
pub mod query;
pub mod snapshot;

pub use engine::WhatIfEngine;
pub use query::{JobSpec, WhatIfAnswer, WhatIfQuery, WhatIfRequest};
pub use snapshot::{BaseScenario, ClusterSnapshot};
