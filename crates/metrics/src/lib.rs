//! # ppc-metrics — the paper's evaluation metrics
//!
//! Section V.C defines four measurements, all implemented here:
//!
//! 1. [`performance::performance`] — `Performance(cap) = (1/J) Σ T_j / T_cap,j`,
//!    the mean per-job slowdown ratio (1.0 = no loss);
//! 2. [`cplj::cplj`] — *Count of Performance-Lossless Jobs*: finished jobs
//!    whose capped runtime equals their unmanaged runtime;
//! 3. [`peak::peak_power_w`] — `P_max`, the highest observed power;
//! 4. [`overspend::overspend_ratio`] — the paper's new `ΔP×T` metric: the
//!    energy above the provision threshold over the total energy,
//!    `∫_{P>P_th}(P−P_th)dt / ∫P dt` — the accumulated thermal damage of
//!    overspending the budget.
//!
//! [`energy`] adds the run's total energy and [`report`] assembles
//!    everything into one [`report::RunMetrics`] with normalization
//!    against an unmanaged baseline (how Figures 6 and 7 are presented).

pub mod availability;
pub mod bootstrap;
pub mod cplj;
pub mod energy;
pub mod overspend;
pub mod peak;
pub mod performance;
pub mod report;

pub use availability::{AvailabilityInputs, AvailabilityReport};
pub use bootstrap::{
    bootstrap_mean_ci, summarize_replications, ConfidenceInterval, ReplicationSummary,
};
pub use report::{NormalizedMetrics, RunMetrics};
