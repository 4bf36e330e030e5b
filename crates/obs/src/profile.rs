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

use std::time::Instant;

/// Accumulates wall-clock cost per named stage, timing stages back to
/// back like a stopwatch's laps.
#[derive(Debug, Clone)]
pub struct StageProfiler {
    /// A handful of stages charged several times per tick: a linear scan
    /// that compares the interned name pointer first beats a tree lookup.
    /// Each keeps its total seconds and charge count, all a report reads.
    stages: Vec<(&'static str, (f64, u64))>,
    /// The last boundary: where the running stage started.
    mark: Instant,
}

/// A stage split into `N` named sub-stages that may take turns
/// (`a, b, a`); see [`StageProfiler::split`].
#[derive(Debug)]
pub struct SplitTimer<const N: usize> {
    last: Instant,
    subs: [(&'static str, f64); N],
}

impl<const N: usize> SplitTimer<N> {
    /// Adds the time since the last boundary to sub-stage `sub` (one the
    /// timer was started with), reading the clock once: the next interval
    /// starts at the same instant.
    pub fn lap(&mut self, sub: &'static str) {
        let now = Instant::now();
        if let Some(i) = find(&self.subs, sub) {
            self.subs[i].1 += now.duration_since(self.last).as_secs_f64();
        }
        self.last = now;
    }
}

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

impl Default for StageProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl StageProfiler {
    /// An empty profiler, its first stage starting now.
    pub fn new() -> Self {
        StageProfiler {
            stages: Vec::new(),
            mark: Instant::now(),
        }
    }

    /// Starts the next stage now, leaving the time since the last
    /// boundary uncharged.
    pub fn start(&mut self) {
        self.mark = Instant::now();
    }

    /// Charges the time since the last boundary to `stage` and starts the
    /// next stage at the same instant, so back-to-back stages read the
    /// clock once per boundary and leave no gap between them.
    pub fn lap(&mut self, stage: &'static str) {
        let now = Instant::now();
        self.charge(stage, now.duration_since(self.mark).as_secs_f64());
        self.mark = now;
    }

    /// Splits the running stage into the sub-stages `subs`, each
    /// interval ended with [`SplitTimer::lap`]. Reads no clock.
    pub fn split<const N: usize>(&self, subs: [&'static str; N]) -> SplitTimer<N> {
        SplitTimer {
            last: self.mark,
            subs: subs.map(|s| (s, 0.0)),
        }
    }

    /// Charges each sub-stage of `timer` once with the sum of its
    /// intervals, and `stage` with their sum; the next stage starts at the
    /// last lap. Reads no clock.
    pub fn stop_split<const N: usize>(&mut self, stage: &'static str, timer: SplitTimer<N>) {
        for (sub, secs) in timer.subs {
            self.charge(sub, secs);
        }
        self.charge(stage, timer.subs.iter().map(|&(_, secs)| secs).sum());
        self.mark = timer.last;
    }

    fn charge(&mut self, stage: &'static str, secs: f64) {
        let i = find(&self.stages, stage).unwrap_or_else(|| {
            self.stages.push((stage, (0.0, 0)));
            self.stages.len() - 1
        });
        let (total, count) = &mut self.stages[i].1;
        *total += secs;
        *count += 1;
    }

    /// Per-stage costs in stage-name order.
    pub fn report(&self) -> Vec<StageCost> {
        let mut out: Vec<StageCost> = self
            .stages
            .iter()
            .map(|&(stage, (total, count))| StageCost {
                stage,
                mean_secs: total / count as f64,
                count,
            })
            .collect();
        out.sort_by(|a, b| a.stage.cmp(b.stage));
        out
    }
}

/// The position of `name` among `entries`' names: a pass comparing the
/// interned pointers (every call site passes a literal, so this is the
/// hit), then one comparing the text.
fn find<T>(entries: &[(&'static str, T)], name: &'static str) -> Option<usize> {
    let names = || entries.iter().map(|&(s, _)| s);
    names()
        .position(|s| std::ptr::eq(s, name))
        .or_else(|| names().position(|s| s == name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_stages_independently() {
        let mut p = StageProfiler::new();
        for stage in ["record", "record", "export"] {
            p.start();
            p.lap(stage);
        }
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
    fn a_stage_name_is_matched_by_text_when_its_pointer_differs() {
        let mut p = StageProfiler::new();
        let copy: &'static str = String::from("advance").leak();
        for stage in ["advance", copy, "advance"] {
            p.lap(stage);
        }
        let report = p.report();
        assert_eq!(report.len(), 1);
        assert_eq!((report[0].stage, report[0].count), ("advance", 3));
    }

    #[test]
    fn start_stop_form_charges_like_time() {
        let mut p = StageProfiler::new();
        p.start();
        p.lap("actuate");
        let report = p.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].stage, "actuate");
        assert_eq!(report[0].count, 1);
    }

    #[test]
    fn split_charges_each_sub_stage_once_and_the_stage_their_sum() {
        let mut p = StageProfiler::new();
        p.start();
        let mut t = p.split(["control.a", "control.b", "control.c"]);
        for sub in [
            "control.a",
            "control.b",
            "control.c",
            "control.b",
            "control.c",
        ] {
            t.lap(sub);
        }
        p.stop_split("control", t);
        p.lap("actuate");
        let report = p.report();
        let names: Vec<_> = report.iter().map(|c| (c.stage, c.count)).collect();
        assert_eq!(
            names,
            [
                ("actuate", 1),
                ("control", 1),
                ("control.a", 1),
                ("control.b", 1),
                ("control.c", 1)
            ]
        );
        let subs: f64 = report[2..].iter().map(|c| c.mean_secs).sum();
        assert!((subs - report[1].mean_secs).abs() <= 1e-12);
    }

    #[test]
    fn lap_charges_one_stage_and_starts_the_next() {
        let mut p = StageProfiler::new();
        p.start();
        for stage in ["schedule", "advance", "schedule"] {
            p.lap(stage);
        }
        let report = p.report();
        assert_eq!(report.len(), 2);
        assert_eq!((report[0].stage, report[0].count), ("advance", 1));
        assert_eq!((report[1].stage, report[1].count), ("schedule", 2));
    }
}
