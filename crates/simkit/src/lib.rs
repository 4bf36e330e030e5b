//! # ppc-simkit — deterministic simulation substrate
//!
//! This crate provides the foundations every other `ppc` crate builds on:
//!
//! * [`time`] — fixed-point simulation time ([`SimTime`], [`SimDuration`])
//!   with millisecond resolution, so event ordering is exact and
//!   platform-independent (no floating-point clock drift).
//! * [`clock`] — a fixed-timestep ticker used by the cluster simulation's
//!   control/sampling cycles.
//! * [`rng`] — splittable, seeded random-number streams. Every source of
//!   randomness in a simulation derives its own independent stream from the
//!   experiment seed, which keeps runs bit-reproducible.
//! * [`par`] — the what-if batch's fan-out ([`par::WorkerPool`]): static
//!   index-ordered chunks on scoped threads, one output slot per item, so
//!   results are bit-identical at every width.
//! * [`hash`] — stable 64-bit FNV-1a hashing for determinism
//!   fingerprints (journal, span tree, metrics registry).
//! * [`series`] — append-only time series with trapezoid/step integration,
//!   used for power traces and the ΔP×T overspend metric.
//! * [`stats`] — running statistics (Welford) and fixed-bin histograms.
//! * [`wheel`] — hierarchical timer wheel ([`TimeWheel`]) for sparse
//!   tick-indexed events (arrivals, telemetry staleness deadlines) with
//!   deterministic insertion-order drains.
//! * [`journal`] — a bounded, fingerprinted audit trail of notable
//!   events.
//!
//! Nothing in this crate knows about power, nodes or jobs; it is a generic
//! substrate comparable to what a production simulator would keep in a
//! `util`/`runtime` layer.

pub mod clock;
pub mod hash;
pub mod journal;
pub mod par;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod wheel;

pub use clock::TickClock;
pub use hash::Fnv1a;
pub use journal::{Event, Journal, Severity};
pub use par::WorkerPool;
pub use rng::{DetRng, RngFactory};
pub use series::TimeSeries;
pub use stats::{Histogram, RunningStats};
pub use time::{SimDuration, SimTime};
pub use wheel::TimeWheel;
