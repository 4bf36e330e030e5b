//! Finished-job records.
//!
//! The evaluation metrics (Performance(cap), CPLJ) compare each finished
//! job's actual wall time `T_cap,j` against its full-speed baseline `T_j`;
//! a [`JobRecord`] carries everything those metrics need.

use crate::app::{Class, NpbApp};
use crate::job::{Job, JobId, JobPriority, JobStatus};
use ppc_simkit::SimTime;
use serde::{Deserialize, Serialize};

/// Immutable record of one finished job: plain data, no heap buffer (the
/// job's member list dies with the job in its finish tick).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Application.
    pub app: NpbApp,
    /// Problem class.
    pub class: Class,
    /// Rank count.
    pub nprocs: u32,
    /// The job's priority.
    pub priority: JobPriority,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Start time.
    pub started_at: SimTime,
    /// Finish time.
    pub finished_at: SimTime,
    /// Full-speed baseline duration `T_j`, seconds.
    pub baseline_secs: f64,
    /// Actual execution duration `T_cap,j` (start → finish), seconds.
    pub actual_secs: f64,
    /// Wall seconds with ≥1 member node throttled.
    pub throttled_secs: f64,
}

impl JobRecord {
    /// Builds the record from a finished job.
    ///
    /// # Panics
    /// Panics if the job is not finished.
    pub fn from_job(job: &Job) -> Self {
        assert_eq!(job.status(), JobStatus::Finished, "job must be finished");
        // ppc-lint: allow(panic-path): asserted Finished above; finished jobs carry a start stamp
        let started_at = job.started_at().expect("finished job has started");
        // ppc-lint: allow(panic-path): asserted Finished above; finished jobs carry a finish stamp
        let finished_at = job.finished_at().expect("finished job has finish time");
        JobRecord {
            id: job.id(),
            app: job.app(),
            class: job.class(),
            nprocs: job.nprocs(),
            priority: job.priority(),
            submitted_at: job.submitted_at(),
            started_at,
            finished_at,
            baseline_secs: job.baseline_secs(),
            actual_secs: (finished_at - started_at).as_secs_f64(),
            throttled_secs: job.throttled_secs(),
        }
    }

    /// Per-job performance ratio `T_j / T_cap,j ∈ (0, 1]` (1 = lossless).
    pub fn performance_ratio(&self) -> f64 {
        if self.actual_secs <= 0.0 {
            return 1.0;
        }
        (self.baseline_secs / self.actual_secs).min(1.0)
    }

    /// True if the job ran without measurable performance loss.
    ///
    /// `tolerance` absorbs tick quantization (a job finishing mid-tick is
    /// recorded at the tick boundary); the paper counts a job as lossless
    /// when its time equals the unmanaged time.
    pub fn is_lossless(&self, tolerance: f64) -> bool {
        self.actual_secs <= self.baseline_secs * (1.0 + tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{Phase, PhaseKind};
    use ppc_node::NodeId;

    fn finished_job(actual_steps: u32) -> JobRecord {
        let mut j = Job::new(
            JobId(9),
            NpbApp::Bt,
            Class::B,
            16,
            vec![Phase {
                kind: PhaseKind::Compute,
                work_secs: 10.0,
                alpha: 1.0,
                cpu_util: 1.0,
                nic_fraction: 0.0,
            }],
            SimTime::ZERO,
        );
        j.start(vec![NodeId(0), NodeId(1)], SimTime::from_secs(5));
        let speed = if actual_steps > 10 {
            10.0 / actual_steps as f64
        } else {
            1.0
        };
        let mut t = 5;
        loop {
            t += 1;
            if j.advance(1.0, &[speed; 2]).is_some() {
                break;
            }
            assert!(t < 1000);
        }
        j.finish(SimTime::from_secs(t));
        // The finished job still holds its members for the departure step;
        // the record does not copy them.
        assert_eq!(j.nodes(), &[NodeId(0), NodeId(1)]);
        JobRecord::from_job(&j)
    }

    #[test]
    fn lossless_job_has_ratio_one() {
        let r = finished_job(10);
        assert_eq!(r.actual_secs, 10.0);
        assert_eq!(r.performance_ratio(), 1.0);
        assert!(r.is_lossless(0.0));
        assert_eq!(r.started_at, SimTime::from_secs(5));
    }

    /// Every run retains one record per finished job and every what-if
    /// branch copies them, so a record stays small plain data.
    #[test]
    fn record_is_small_plain_data() {
        const fn copy<T: Copy>() {}
        copy::<JobRecord>();
        assert!(std::mem::size_of::<JobRecord>() <= 64);
    }

    #[test]
    fn throttled_job_shows_loss() {
        let r = finished_job(20);
        assert!(r.actual_secs >= 19.0);
        assert!(r.performance_ratio() < 0.6);
        assert!(!r.is_lossless(0.05));
        assert!(r.throttled_secs > 0.0);
    }

    #[test]
    fn tolerance_absorbs_tick_quantization() {
        // Baseline 10 s, actual 10.4 s (rounded up to a tick boundary).
        let mut r = finished_job(10);
        r.actual_secs = 10.4;
        assert!(!r.is_lossless(0.0));
        assert!(r.is_lossless(0.05));
    }
}
