//! Simulated `/proc` counters and their sampling.
//!
//! On the testbed, `Uti_cpu`, `Mem_used` and `Mem_total` come from the
//! Linux `/proc` interface and `Data_NIC` from the interconnect chipset's
//! log. A profiling agent never sees instantaneous utilization — it sees
//! *cumulative counters* and differentiates across the sampling interval.
//! This module reproduces that mechanism, including its sharp edges:
//! jiffy granularity (`USER_HZ = 100`) and NIC byte counters that wrap
//! at 32 bits (as many chipset registers do).

use crate::profile::OperatingState;
use serde::{Deserialize, Serialize};

/// Linux scheduler tick rate: jiffies per second.
pub const USER_HZ: u64 = 100;

/// Cumulative counters exposed by a node, as `/proc` would.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcCounters {
    /// Busy jiffies (user + system), cumulative.
    pub busy_jiffies: u64,
    /// Idle jiffies, cumulative.
    pub idle_jiffies: u64,
    /// Bytes currently in use (gauge, not a counter).
    pub mem_used_bytes: u64,
    /// Cumulative NIC bytes (rx+tx), wrapping at 32 bits.
    pub nic_bytes_wrapping: u32,
}

impl ProcCounters {
    /// Advances the counters by `dt_secs` of operation in `state`.
    ///
    /// Jiffies are apportioned between busy and idle by utilization with
    /// integer rounding — exactly the quantization a real agent sees.
    pub fn advance(&mut self, state: &OperatingState, dt_secs: f64) {
        self.advance_many(state, dt_secs, 1);
    }

    /// Advances the counters by `ticks` consecutive intervals of `dt_secs`
    /// in the *same* `state`, in closed form.
    ///
    /// Because the per-tick increments depend only on `(state, dt_secs)`,
    /// applying them `k` times is exactly `k` scalar multiplies — this is
    /// what lets the incremental evaluation path fast-forward a quiescent
    /// node's counters without touching it every tick. Bit-identical to
    /// calling [`advance`](Self::advance) `ticks` times.
    pub fn advance_many(&mut self, state: &OperatingState, dt_secs: f64, ticks: u64) {
        assert!(dt_secs >= 0.0, "time cannot run backwards");
        if ticks == 0 {
            return;
        }
        let total_jiffies = round_to_u64(dt_secs * USER_HZ as f64);
        let busy = round_to_u64(total_jiffies as f64 * state.cpu_util.clamp(0.0, 1.0));
        let idle = total_jiffies - busy.min(total_jiffies);
        self.busy_jiffies += busy * ticks;
        self.idle_jiffies += idle * ticks;
        self.mem_used_bytes = state.mem_used_bytes;
        // k wrapping adds of x mod 2^32 collapse to one wrapping k·x.
        self.nic_bytes_wrapping = self
            .nic_bytes_wrapping
            .wrapping_add((state.nic_bytes as u32).wrapping_mul(ticks as u32));
    }
}

/// `x.round() as u64` without the `round` call: baseline x86-64 has no
/// rounding instruction, so `f64::round` is an out-of-line libm routine,
/// and node catch-up rounds twice per counter advance. Truncation and a
/// compare give the same value for every `f64`: NaN and anything below
/// one half give 0 (as the saturating cast does for NaN and negatives),
/// ties round away from zero, values from 2^52 up are already integers,
/// and values from 2^64 up saturate.
fn round_to_u64(x: f64) -> u64 {
    /// 2^52: every `f64` at or above it is an integer.
    const INTEGRAL: f64 = 4_503_599_627_370_496.0;
    if x.is_nan() || x < 0.5 {
        return 0;
    }
    if x >= INTEGRAL {
        return x as u64;
    }
    // Below 2^52 the truncation and the fraction `x − trunc(x)` are exact.
    let whole = x as i64;
    whole as u64 + u64::from(x - whole as f64 >= 0.5)
}

/// A snapshot taken by a profiling agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcSnapshot {
    counters: ProcCounters,
}

impl ProcSnapshot {
    /// Captures the current counters.
    pub fn capture(counters: &ProcCounters) -> Self {
        ProcSnapshot {
            counters: *counters,
        }
    }

    /// Returns the snapshot a capture would yield after `ticks` further
    /// intervals of `dt_secs` in `state` — the agent-side mirror of
    /// [`ProcCounters::advance_many`], used to fast-forward a quiescent
    /// agent's baseline without re-reading the node.
    pub fn advanced(&self, state: &OperatingState, dt_secs: f64, ticks: u64) -> ProcSnapshot {
        let mut counters = self.counters;
        counters.advance_many(state, dt_secs, ticks);
        ProcSnapshot { counters }
    }

    /// Derives the operating state over the interval between `earlier` and
    /// `self`, i.e. what the agent reports upstream.
    ///
    /// Returns `None` when no jiffies elapsed (interval too short to
    /// measure) — the agent then re-reports its previous estimate.
    pub fn delta_since(&self, earlier: &ProcSnapshot) -> Option<OperatingState> {
        let busy = self
            .counters
            .busy_jiffies
            .saturating_sub(earlier.counters.busy_jiffies);
        let idle = self
            .counters
            .idle_jiffies
            .saturating_sub(earlier.counters.idle_jiffies);
        let total = busy + idle;
        if total == 0 {
            return None;
        }
        // Wrapping subtraction recovers the true delta across a 32-bit wrap
        // as long as fewer than 2^32 bytes moved in one interval.
        let nic_delta = self
            .counters
            .nic_bytes_wrapping
            .wrapping_sub(earlier.counters.nic_bytes_wrapping);
        Some(OperatingState {
            cpu_util: busy as f64 / total as f64,
            mem_used_bytes: self.counters.mem_used_bytes,
            nic_bytes: nic_delta as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn advance_apportions_jiffies_by_utilization() {
        let mut c = ProcCounters::default();
        let state = OperatingState {
            cpu_util: 0.75,
            mem_used_bytes: 1 << 30,
            nic_bytes: 1000,
        };
        c.advance(&state, 2.0);
        assert_eq!(c.busy_jiffies, 150);
        assert_eq!(c.idle_jiffies, 50);
        assert_eq!(c.mem_used_bytes, 1 << 30);
        assert_eq!(c.nic_bytes_wrapping, 1000);
    }

    #[test]
    fn delta_recovers_utilization() {
        let mut c = ProcCounters::default();
        let s0 = ProcSnapshot::capture(&c);
        c.advance(
            &OperatingState {
                cpu_util: 0.6,
                mem_used_bytes: 42,
                nic_bytes: 500,
            },
            1.0,
        );
        let s1 = ProcSnapshot::capture(&c);
        let est = s1.delta_since(&s0).unwrap();
        assert!((est.cpu_util - 0.6).abs() < 0.011, "jiffy-rounded util");
        assert_eq!(est.mem_used_bytes, 42);
        assert_eq!(est.nic_bytes, 500);
    }

    #[test]
    fn zero_interval_yields_none() {
        let c = ProcCounters::default();
        let s = ProcSnapshot::capture(&c);
        assert_eq!(s.delta_since(&s), None);
    }

    #[test]
    fn nic_counter_wrap_is_transparent() {
        let mut c = ProcCounters {
            nic_bytes_wrapping: u32::MAX - 100,
            ..Default::default()
        };
        let s0 = ProcSnapshot::capture(&c);
        c.advance(
            &OperatingState {
                cpu_util: 0.1,
                mem_used_bytes: 0,
                nic_bytes: 1_000,
            },
            1.0,
        );
        let s1 = ProcSnapshot::capture(&c);
        let est = s1.delta_since(&s0).unwrap();
        assert_eq!(est.nic_bytes, 1_000, "delta must survive the 32-bit wrap");
    }

    #[test]
    fn utilization_extremes() {
        let mut c = ProcCounters::default();
        let s0 = ProcSnapshot::capture(&c);
        c.advance(&OperatingState::IDLE, 1.0);
        let s1 = ProcSnapshot::capture(&c);
        assert_eq!(s1.delta_since(&s0).unwrap().cpu_util, 0.0);
        let s2 = ProcSnapshot::capture(&c);
        c.advance(
            &OperatingState {
                cpu_util: 1.0,
                mem_used_bytes: 0,
                nic_bytes: 0,
            },
            1.0,
        );
        let s3 = ProcSnapshot::capture(&c);
        assert_eq!(s3.delta_since(&s2).unwrap().cpu_util, 1.0);
    }

    #[test]
    fn rounding_matches_f64_round_at_the_edges() {
        let two52 = 4_503_599_627_370_496.0_f64;
        let two64 = 18_446_744_073_709_551_616.0_f64;
        for x in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -0.0,
            0.0,
            0.49999999999999994,
            0.5,
            -0.5,
            -0.5000000000000001,
            1.5,
            2.5,
            1e-300,
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            two52 * 2.0 - 1.0,
            two52 * 2.0,
            9_223_372_036_854_775_808.0,
            two64 - 2048.0,
            two64,
            two64 * 2.0,
        ] {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        }
    }

    proptest! {
        /// The integer-path rounding equals `f64::round` on every bit
        /// pattern (NaNs, infinities, subnormals, negatives, values past
        /// 2^64).
        #[test]
        fn prop_rounding_matches_f64_round_on_any_bits(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(round_to_u64(x), x.round() as u64);
        }

        /// … and near the cases that matter: x.5 ties, the fraction just
        /// either side of one half, and magnitudes up to past 2^53, of
        /// either sign.
        #[test]
        fn prop_rounding_matches_f64_round_near_ties(
            whole in 0u64..(1 << 54),
            ulps in -3i64..4,
            negative in any::<bool>(),
        ) {
            let tie = whole as f64 + 0.5;
            let x = f64::from_bits((tie.to_bits() as i64 + ulps) as u64);
            let x = if negative { -x } else { x };
            prop_assert_eq!(round_to_u64(x), x.round() as u64);
            let small = whole as f64 / 1_000.0;
            prop_assert_eq!(round_to_u64(small), small.round() as u64);
        }

        /// Closed-form k-tick advance is bit-identical to k single advances,
        /// including across the NIC 32-bit wrap.
        #[test]
        fn prop_advance_many_matches_iterated(
            util in 0.0f64..1.0,
            dt in 0.1f64..5.0,
            nic in 0u64..4_000_000_000,
            k in 0u64..200,
        ) {
            let state = OperatingState { cpu_util: util, mem_used_bytes: 77, nic_bytes: nic };
            let mut iterated = ProcCounters { nic_bytes_wrapping: u32::MAX - 5_000, ..Default::default() };
            let mut closed = iterated;
            for _ in 0..k {
                iterated.advance(&state, dt);
            }
            closed.advance_many(&state, dt, k);
            prop_assert_eq!(iterated, closed);
        }

        /// Sampled utilization matches true utilization within one jiffy of
        /// quantization error, for any interval and utilization.
        #[test]
        fn prop_sampling_accuracy(util in 0.0f64..1.0, dt in 0.5f64..10.0) {
            let mut c = ProcCounters::default();
            let s0 = ProcSnapshot::capture(&c);
            c.advance(&OperatingState { cpu_util: util, mem_used_bytes: 0, nic_bytes: 0 }, dt);
            let s1 = ProcSnapshot::capture(&c);
            let est = s1.delta_since(&s0).unwrap();
            let jiffy_err = 1.0 / (dt * USER_HZ as f64);
            prop_assert!((est.cpu_util - util).abs() <= jiffy_err + 1e-9,
                "est={} true={} err_budget={}", est.cpu_util, util, jiffy_err);
        }

        /// Busy + idle jiffies always equals total elapsed jiffies.
        #[test]
        fn prop_jiffy_conservation(steps in proptest::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..20)) {
            let mut c = ProcCounters::default();
            let mut expected_total = 0u64;
            for (util, dt) in steps {
                c.advance(&OperatingState { cpu_util: util, mem_used_bytes: 0, nic_bytes: 0 }, dt);
                expected_total += (dt * USER_HZ as f64).round() as u64;
            }
            prop_assert_eq!(c.busy_jiffies + c.idle_jiffies, expected_total);
        }
    }
}
