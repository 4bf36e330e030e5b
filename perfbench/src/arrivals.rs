//! Seeded open-loop arrival traces for the trace-fed workloads.
//!
//! Submissions arrive as a Poisson process in simulated time: exponential
//! gaps at `rate_per_s`, independent of how fast the cluster drains them.
//! App and NPROCS come from a [`JobGenerator`] exactly as the simulator's
//! own random workload draws them, so the trace has the paper's job mix
//! and differs from the built-in generator only in *when* jobs arrive.

use ppc_cluster::ClusterSpec;
use ppc_simkit::{RngFactory, SimDuration, SimTime};
use ppc_workload::replay::TraceEntry;
use ppc_workload::JobGenerator;

/// Arrivals in `[0, horizon)` at `rate_per_s` jobs per simulated second,
/// drawn for `spec`'s job class and rank limit. The same `seed` always
/// yields the same trace.
pub fn arrival_trace(
    seed: u64,
    spec: &ClusterSpec,
    rate_per_s: f64,
    horizon: SimDuration,
) -> Vec<TraceEntry> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let factory = RngFactory::new(seed);
    let mut gaps = factory.stream("bench.arrivals", 0);
    // Same rank cap as `ClusterSim::new` applies to its own generator.
    let mut draws = JobGenerator::new(factory, spec.class, spec.max_nprocs().min(256));
    let horizon_secs = horizon.as_secs_f64();
    let mut entries = Vec::new();
    let mut t = gaps.exponential(1.0 / rate_per_s);
    while t < horizon_secs {
        let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
        let job = draws.next_job(at);
        entries.push(TraceEntry {
            at,
            app: job.app(),
            class: job.class(),
            nprocs: job.nprocs(),
            priority: job.priority(),
        });
        t += gaps.exponential(1.0 / rate_per_s);
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        let mut spec = ClusterSpec::tianhe_1a_variant();
        spec.node_count = 1024;
        spec
    }

    #[test]
    fn one_seed_gives_a_byte_identical_trace() {
        let horizon = SimDuration::from_secs(600);
        let a = arrival_trace(42, &spec(), 4.0, horizon);
        let b = arrival_trace(42, &spec(), 4.0, horizon);
        assert!(!a.is_empty());
        assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
        let c = arrival_trace(43, &spec(), 4.0, horizon);
        assert_ne!(a, c, "another seed must give another trace");
    }

    #[test]
    fn arrivals_are_ordered_and_match_the_rate() {
        let horizon = SimDuration::from_secs(2_000);
        let trace = arrival_trace(7, &spec(), 5.0, horizon);
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(trace.iter().all(|e| e.at.as_secs_f64() < 2_000.0));
        // 10 000 expected arrivals; Poisson sd is 100.
        assert!((9_500..10_500).contains(&trace.len()), "{}", trace.len());
    }
}
