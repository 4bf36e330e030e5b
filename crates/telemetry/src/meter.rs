//! The facility power meter.
//!
//! The paper's Observability assumption: "the system's total power
//! consumption can be measured directly" — a single meter on the machine's
//! feed. The meter reads the *true* aggregate node power (computed by the
//! simulation) through an error model; the capping algorithm only ever
//! sees the metered value.

use crate::noise::NoiseModel;
use ppc_simkit::{DetRng, SimTime, TimeSeries};

/// Outcome of one meter read.
///
/// The distinction matters to the control loop: a held value is a real
/// (if stale) estimate the manager can act on, while a gap before the
/// first successful sample carries no information at all — the old
/// behavior of reporting the initial `0.0` W on such a gap told the
/// manager the machine was drawing no power, a maximally wrong answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeterReading {
    /// The meter sampled the feed this tick.
    Fresh(f64),
    /// The sample dropped; the meter holds its previous good value.
    Held(f64),
    /// The sample dropped and the meter has never produced a good value:
    /// there is nothing to hold. The caller must skip, not act on zero.
    Gap,
}

impl MeterReading {
    /// The reading's value, if it carries one.
    pub fn value(self) -> Option<f64> {
        match self {
            MeterReading::Fresh(v) | MeterReading::Held(v) => Some(v),
            MeterReading::Gap => None,
        }
    }
}

/// Whole-system power meter with reading history.
#[derive(Debug, Clone)]
pub struct SystemPowerMeter {
    noise: NoiseModel,
    rng: DetRng,
    readings: TimeSeries,
    /// Last good (non-dropout) value; `None` until the first one.
    last_good_w: Option<f64>,
    /// Dropouts seen (held + gap).
    dropouts: u64,
}

impl SystemPowerMeter {
    /// Creates a meter with the given error model and RNG stream.
    pub fn new(noise: NoiseModel, rng: DetRng) -> Self {
        noise.validate();
        SystemPowerMeter {
            noise,
            rng,
            readings: TimeSeries::new(),
            last_good_w: None,
            dropouts: 0,
        }
    }

    /// Takes a reading of `true_power_w` at time `now` and records it.
    ///
    /// On a dropout the meter holds its last good value (a real meter's
    /// display does not blank; the manager keeps acting on the stale
    /// reading) and says so via [`MeterReading::Held`]. A dropout before
    /// any good value yields [`MeterReading::Gap`]: nothing is recorded
    /// and the caller must not treat it as a measurement.
    pub fn read(&mut self, true_power_w: f64, now: SimTime) -> MeterReading {
        assert!(true_power_w >= 0.0, "power cannot be negative");
        match self.noise.apply(true_power_w, &mut self.rng) {
            Some(value) => {
                self.last_good_w = Some(value);
                self.readings.push(now, value);
                MeterReading::Fresh(value)
            }
            None => {
                self.dropouts += 1;
                match self.last_good_w {
                    Some(held) => {
                        self.readings.push(now, held);
                        MeterReading::Held(held)
                    }
                    None => MeterReading::Gap,
                }
            }
        }
    }

    /// Dropouts seen so far (held readings and gaps).
    pub fn dropouts(&self) -> u64 {
        self.dropouts
    }

    /// Full reading history (the `P(t)` trace metrics integrate).
    pub fn history(&self) -> &TimeSeries {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_simkit::RngFactory;

    fn meter(noise: NoiseModel) -> SystemPowerMeter {
        SystemPowerMeter::new(noise, RngFactory::new(11).stream("meter-test", 0))
    }

    #[test]
    fn noiseless_meter_reads_truth() {
        let mut m = meter(NoiseModel::NONE);
        assert_eq!(m.read(1000.0, SimTime::ZERO), MeterReading::Fresh(1000.0));
        assert_eq!(
            m.read(1500.0, SimTime::from_secs(1)),
            MeterReading::Fresh(1500.0)
        );
        assert_eq!(m.history().max(), Some(1500.0));
        assert_eq!(m.history().len(), 2);
        assert_eq!(m.dropouts(), 0);
    }

    #[test]
    fn dropout_before_first_good_reading_is_a_gap() {
        let mut m = meter(NoiseModel {
            relative_std: 0.0,
            dropout_prob: 1.0,
        });
        // The old degenerate path reported the initial 0.0 here, telling
        // the manager the machine drew no power. Now it is an explicit gap
        // with no recorded value.
        assert_eq!(m.read(500.0, SimTime::ZERO), MeterReading::Gap);
        assert_eq!(m.read(500.0, SimTime::from_secs(1)), MeterReading::Gap);
        assert_eq!(m.history().len(), 0, "gaps record nothing");
        assert_eq!(m.dropouts(), 2);
    }

    #[test]
    fn dropout_after_good_reading_holds_it() {
        // Alternate good reads and dropouts deterministically by toggling
        // the dropout probability.
        let mut m = meter(NoiseModel::NONE);
        assert_eq!(m.read(800.0, SimTime::ZERO), MeterReading::Fresh(800.0));
        m.noise.dropout_prob = 1.0;
        let r = m.read(900.0, SimTime::from_secs(1));
        assert_eq!(r, MeterReading::Held(800.0));
        assert_eq!(r.value(), Some(800.0));
        assert_eq!(m.history().len(), 2, "held values are recorded");
        m.noise.dropout_prob = 0.0;
        assert_eq!(
            m.read(900.0, SimTime::from_secs(2)),
            MeterReading::Fresh(900.0)
        );
        assert_eq!(m.dropouts(), 1);
    }

    #[test]
    fn noisy_meter_tracks_truth_on_average() {
        let mut m = meter(NoiseModel::METER_1PCT);
        let mut sum = 0.0;
        for i in 0..1000u64 {
            sum += m.read(2000.0, SimTime::from_secs(i)).value().unwrap_or(0.0);
        }
        let mean = sum / 1000.0;
        assert!((mean - 2000.0).abs() < 5.0, "mean={mean}");
        // Peak should be within a few sigma of truth, not wildly off.
        assert!(m.history().max().unwrap() < 2000.0 * 1.06);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_power_rejected() {
        meter(NoiseModel::NONE).read(-1.0, SimTime::ZERO);
    }
}
