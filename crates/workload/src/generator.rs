//! Random evaluation-job generation.
//!
//! Mirrors the paper's protocol: "evaluation jobs were generated at random
//! by first selecting one application from the benchmark, and then set the
//! NPROCS parameter at random to be one of the values 8, 16, 32, 64, 128
//! to 256. An evaluation job is added to the job queue whenever the queue
//! is empty."

use crate::app::{Class, NpbApp};
use crate::job::{Job, JobId, JobPriority};
use crate::model::build_phases;
use crate::queue::JobQueue;
use ppc_simkit::{DetRng, RngFactory, SimTime};

/// The paper's NPROCS choices.
pub const NPROCS_CHOICES: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// Generates random evaluation jobs.
#[derive(Debug, Clone)]
pub struct JobGenerator {
    class: Class,
    max_nprocs: u32,
    pick_rng: DetRng,
    factory: RngFactory,
    next_id: u64,
    critical_fraction: f64,
}

impl JobGenerator {
    /// Creates a generator for jobs of the given `class`.
    ///
    /// `max_nprocs` caps the NPROCS draw (a 128-node × 12-core cluster can
    /// host 256-rank jobs; smaller test clusters pass a lower cap).
    pub fn new(factory: RngFactory, class: Class, max_nprocs: u32) -> Self {
        assert!(
            NPROCS_CHOICES.iter().any(|&p| p <= max_nprocs),
            "max_nprocs admits no NPROCS choice"
        );
        JobGenerator {
            class,
            max_nprocs,
            pick_rng: factory.stream("job-generator", 0),
            factory,
            next_id: 0,
            critical_fraction: 0.0,
        }
    }

    /// Marks a random `fraction` of generated jobs as [`JobPriority::Critical`]
    /// (SLA-bound work whose nodes the power manager must not touch).
    ///
    /// # Panics
    /// Panics if `fraction` is outside [0, 1].
    pub fn with_critical_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.critical_fraction = fraction;
        self
    }

    /// Generates the next random job, submitted at `now`.
    pub fn next_job(&mut self, now: SimTime) -> Job {
        let app = *self.pick_rng.choice(&NpbApp::ALL);
        let admissible: Vec<u32> = NPROCS_CHOICES
            .iter()
            .copied()
            .filter(|&p| p <= self.max_nprocs)
            .collect();
        let nprocs = *self.pick_rng.choice(&admissible);
        let id = JobId(self.next_id);
        self.next_id += 1;
        // Each job's phase jitter comes from its own stream so that the
        // sequence of *picks* and the *content* of jobs are decoupled.
        let mut phase_rng = self.factory.stream("job-phases", id.0);
        let phases = build_phases(app, self.class, nprocs, &mut phase_rng);
        let priority =
            if self.critical_fraction > 0.0 && self.pick_rng.bernoulli(self.critical_fraction) {
                JobPriority::Critical
            } else {
                JobPriority::Normal
            };
        Job::new(id, app, self.class, nprocs, phases, now).with_priority(priority)
    }

    /// Builds a fully specified job — the what-if "admit this job mix"
    /// path. Unlike [`JobGenerator::next_job`] nothing is drawn from the
    /// pick stream, so synthesizing a hypothetical job perturbs no future
    /// random draw; the phase jitter still comes from the job's own
    /// id-keyed stream, exactly as generated jobs do.
    pub fn synthesize(
        &mut self,
        app: NpbApp,
        class: Class,
        nprocs: u32,
        priority: JobPriority,
        now: SimTime,
    ) -> Job {
        let id = JobId(self.next_id);
        self.next_id += 1;
        let mut phase_rng = self.factory.stream("job-phases", id.0);
        let phases = build_phases(app, class, nprocs, &mut phase_rng);
        Job::new(id, app, class, nprocs, phases, now).with_priority(priority)
    }

    /// Generalized refill: append one job iff fewer than `depth` are
    /// queued (depth 1 = the paper's protocol; deeper queues give the
    /// backfill admission policy something to scan).
    pub fn refill_to(&mut self, queue: &mut JobQueue, depth: usize, now: SimTime) -> bool {
        if queue.len() < depth {
            let job = self.next_job(now);
            queue.push(job);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn generator() -> JobGenerator {
        JobGenerator::new(RngFactory::new(7), Class::D, 256)
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let mut g = generator();
        let ids: Vec<u64> = (0..20).map(|_| g.next_job(SimTime::ZERO).id().0).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn draws_cover_apps_and_nprocs() {
        let mut g = generator();
        let mut apps = BTreeSet::new();
        let mut procs = BTreeSet::new();
        for _ in 0..300 {
            let j = g.next_job(SimTime::ZERO);
            apps.insert(j.app());
            procs.insert(j.nprocs());
            assert!(NPROCS_CHOICES.contains(&j.nprocs()));
        }
        assert_eq!(apps.len(), 5, "all five apps should appear in 300 draws");
        assert_eq!(procs.len(), 6, "all six NPROCS values should appear");
    }

    #[test]
    fn max_nprocs_caps_the_draw() {
        let mut g = JobGenerator::new(RngFactory::new(7), Class::A, 32);
        for _ in 0..100 {
            assert!(g.next_job(SimTime::ZERO).nprocs() <= 32);
        }
    }

    #[test]
    fn refill_only_when_empty() {
        let mut g = generator();
        let mut q = JobQueue::new();
        // Depth 1 is the paper's rule: append one job iff the queue is empty.
        assert!(g.refill_to(&mut q, 1, SimTime::ZERO));
        assert_eq!(q.len(), 1);
        assert!(!g.refill_to(&mut q, 1, SimTime::ZERO));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(g.refill_to(&mut q, 1, SimTime::from_secs(5)));
        assert_eq!(q.peek().unwrap().submitted_at(), SimTime::from_secs(5));
    }

    #[test]
    fn same_seed_reproduces_job_stream() {
        let mut g1 = generator();
        let mut g2 = generator();
        for _ in 0..50 {
            let a = g1.next_job(SimTime::ZERO);
            let b = g2.next_job(SimTime::ZERO);
            assert_eq!(a.app(), b.app());
            assert_eq!(a.nprocs(), b.nprocs());
            assert_eq!(a.baseline_secs(), b.baseline_secs());
        }
    }

    #[test]
    #[should_panic(expected = "admits no NPROCS")]
    fn impossible_cap_rejected() {
        JobGenerator::new(RngFactory::new(1), Class::A, 4);
    }

    #[test]
    fn critical_fraction_is_respected() {
        let mut g =
            JobGenerator::new(RngFactory::new(7), Class::D, 256).with_critical_fraction(0.25);
        let critical = (0..2_000)
            .filter(|_| g.next_job(SimTime::ZERO).priority() == crate::job::JobPriority::Critical)
            .count();
        assert!((400..600).contains(&critical), "critical={critical}");
        let mut none = JobGenerator::new(RngFactory::new(7), Class::D, 256);
        assert!((0..100)
            .all(|_| none.next_job(SimTime::ZERO).priority() == crate::job::JobPriority::Normal));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_critical_fraction_rejected() {
        JobGenerator::new(RngFactory::new(1), Class::A, 256).with_critical_fraction(1.5);
    }
}
