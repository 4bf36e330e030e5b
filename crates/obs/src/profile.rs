//! Wall-clock self-profiling of the observability machinery.
//!
//! Everything else in this crate is a pure function of the seeded
//! simulation and feeds determinism fingerprints. This module is the one
//! deliberate exception: it measures the *real* cost of recording (span
//! bookkeeping, exporter rendering) on the host, the same way
//! `telemetry`'s `CycleCostMeter` measures management cost. Its output
//! is advisory, printed or logged only — it must never be folded into
//! [`crate::span::SpanRecorder::fingerprint`] or
//! [`crate::metrics::MetricsRegistry::fingerprint`], and `ppc-lint`
//! allows wall-clock reads in this file alone within the `obs` crate.

use ppc_simkit::RunningStats;
use std::time::Instant;

/// Accumulates wall-clock cost per named stage.
#[derive(Debug, Clone, Default)]
pub struct StageProfiler {
    /// A handful of stages charged several times per tick: a linear scan
    /// that compares the interned name pointer first beats a tree lookup.
    stages: Vec<(&'static str, RunningStats)>,
}

/// An in-flight stage measurement (see [`StageProfiler::start`]).
#[derive(Debug)]
pub struct StageTimer(Instant);

/// One stage's accumulated wall-clock cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Stage name.
    pub stage: &'static str,
    /// Mean cost per invocation, seconds.
    pub mean_secs: f64,
    /// Number of invocations.
    pub count: u64,
}

impl StageProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, charging its wall-clock cost to `stage`.
    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.charge(stage, start.elapsed().as_secs_f64());
        out
    }

    /// Starts a measurement to be charged later with
    /// [`StageProfiler::stop`] — the non-closure form of
    /// [`StageProfiler::time`], for call sites where a closure would
    /// fight the borrow checker.
    pub fn start(&self) -> StageTimer {
        StageTimer(Instant::now())
    }

    /// Charges a measurement started with [`StageProfiler::start`].
    pub fn stop(&mut self, stage: &'static str, timer: StageTimer) {
        self.charge(stage, timer.0.elapsed().as_secs_f64());
    }

    /// Charges a measurement to `stage` and starts the next one at the
    /// same instant, so back-to-back stages read the clock once per
    /// boundary and leave no gap between them.
    pub fn lap(&mut self, stage: &'static str, timer: StageTimer) -> StageTimer {
        let now = Instant::now();
        self.charge(stage, now.duration_since(timer.0).as_secs_f64());
        StageTimer(now)
    }

    fn charge(&mut self, stage: &'static str, secs: f64) {
        let found = self
            .stages
            .iter()
            .position(|(s, _)| std::ptr::eq(*s, stage) || *s == stage);
        let i = found.unwrap_or_else(|| {
            self.stages.push((stage, RunningStats::default()));
            self.stages.len() - 1
        });
        self.stages[i].1.push(secs);
    }

    /// Per-stage costs in stage-name order.
    pub fn report(&self) -> Vec<StageCost> {
        let mut out: Vec<StageCost> = self
            .stages
            .iter()
            .map(|&(stage, ref stats)| StageCost {
                stage,
                mean_secs: stats.mean(),
                count: stats.count(),
            })
            .collect();
        out.sort_by(|a, b| a.stage.cmp(b.stage));
        out
    }

    /// True if nothing was timed.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_stages_independently() {
        let mut p = StageProfiler::new();
        let a = p.time("record", || 21 * 2);
        assert_eq!(a, 42);
        p.time("record", || ());
        p.time("export", || ());
        let report = p.report();
        assert_eq!(report.len(), 2);
        // BTreeMap order: export before record.
        assert_eq!(report[0].stage, "export");
        assert_eq!(report[0].count, 1);
        assert_eq!(report[1].stage, "record");
        assert_eq!(report[1].count, 2);
        assert!(report.iter().all(|s| s.mean_secs >= 0.0));
    }

    #[test]
    fn start_stop_form_charges_like_time() {
        let mut p = StageProfiler::new();
        let t = p.start();
        p.stop("actuate", t);
        let report = p.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].stage, "actuate");
        assert_eq!(report[0].count, 1);
    }

    #[test]
    fn lap_charges_one_stage_and_starts_the_next() {
        let mut p = StageProfiler::new();
        let t = p.start();
        let t = p.lap("schedule", t);
        let t = p.lap("advance", t);
        p.stop("schedule", t);
        let report = p.report();
        assert_eq!(report.len(), 2);
        assert_eq!((report[0].stage, report[0].count), ("advance", 1));
        assert_eq!((report[1].stage, report[1].count), ("schedule", 2));
    }
}
