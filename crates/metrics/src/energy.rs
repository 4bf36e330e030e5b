//! Energy metrics (paper §I.B survey): the run's total energy.

use ppc_simkit::series::Interp;
use ppc_simkit::TimeSeries;

/// Total energy of the run, joules.
pub fn total_energy_j(trace: &TimeSeries) -> f64 {
    trace.integrate(Interp::Step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_simkit::SimTime;

    fn trace() -> TimeSeries {
        let mut t = TimeSeries::new();
        t.push(SimTime::from_secs(0), 100.0);
        t.push(SimTime::from_secs(10), 100.0);
        t
    }

    #[test]
    fn total_energy_integrates_the_trace() {
        assert_eq!(total_energy_j(&trace()), 1_000.0);
    }
}
