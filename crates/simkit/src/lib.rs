//! # ppc-simkit — deterministic simulation substrate
//!
//! This crate provides the foundations every other `ppc` crate builds on:
//!
//! * [`time`] — fixed-point simulation time ([`SimTime`], [`SimDuration`])
//!   with millisecond resolution, so event ordering is exact and
//!   platform-independent (no floating-point clock drift).
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
//! * [`stats`] — running statistics (Welford).
//! * [`journal`] — a bounded, fingerprinted audit trail of notable
//!   events.
//! * [`ring`] — the FIFO behind bounded histories ([`SharedRing`]):
//!   full chunks are sealed into `Arc`s that every clone shares, so a
//!   what-if branch copies at most one chunk of its history.
//!
//! There is no clock or event queue here: the cluster simulation's clock
//! is its tick count (`now = tick · τ`), and its two kinds of one-shot
//! deadline are a field and a small heap next to the tick loop.
//!
//! Nothing in this crate knows about power, nodes or jobs; it is a generic
//! substrate comparable to what a production simulator would keep in a
//! `util`/`runtime` layer.

pub mod hash;
pub mod journal;
pub mod par;
pub mod ring;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use hash::Fnv1a;
pub use journal::{Event, Journal, Severity};
pub use par::WorkerPool;
pub use ring::SharedRing;
pub use rng::{DetRng, RngFactory};
pub use series::TimeSeries;
pub use stats::RunningStats;
pub use time::{SimDuration, SimTime};
