//! The power profile model — the paper's Formula (1) as executable code.
//!
//! A node's power is estimated from its *operating mode*: CPU utilization,
//! memory occupancy, and NIC traffic over the sampling interval τ, combined
//! with the per-level calibration table:
//!
//! ```text
//! P(l) = P_idle(l) + Uti_cpu · Σ_x P_x(l)
//!      + (Mem_used/Mem_total) · P_mem(l)
//!      + (Data_NIC/(τ·BW_NIC)) · P_NIC(l)
//! ```
//!
//! The same model is used in three places, exactly as in the paper: by the
//! node simulation to produce "true" power, by profiling agents to estimate
//! power from sampled counters, and by policies to predict `P'(x)` — the
//! power a node *would* draw one level down (Algorithm 2).

use crate::calibration::PowerTable;
use crate::device::NicSpec;
use crate::freq::{FrequencyLadder, Level};
use serde::{Deserialize, Serialize};

/// A node's operating mode over one sampling interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct OperatingState {
    /// CPU utilization `Uti_cpu ∈ [0, 1]`.
    pub cpu_util: f64,
    /// Bytes of memory in use (`Mem_used`).
    pub mem_used_bytes: u64,
    /// Bytes moved by the NIC during the sampling interval (`Data_NIC`).
    pub nic_bytes: u64,
}

impl OperatingState {
    /// A fully idle node.
    pub const IDLE: OperatingState = OperatingState {
        cpu_util: 0.0,
        mem_used_bytes: 0,
        nic_bytes: 0,
    };

    /// True when the node is not doing observable work. The capping
    /// algorithm must never pick idle nodes as throttling targets (their
    /// dynamic power is already ≈ 0, so degrading them saves nothing).
    pub fn is_idle(&self) -> bool {
        self.cpu_util <= f64::EPSILON && self.nic_bytes == 0
    }
}

/// Formula (1) evaluator bound to one node model's calibration data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    table: PowerTable,
    mem_total_bytes: u64,
    nic: NicSpec,
    /// Sampling interval τ, in seconds.
    tau_secs: f64,
}

impl PowerModel {
    /// Binds a calibration table and device parameters into an evaluator.
    ///
    /// # Panics
    /// Panics if `mem_total_bytes` is 0 or `tau_secs` is not positive.
    pub fn new(table: PowerTable, mem_total_bytes: u64, nic: NicSpec, tau_secs: f64) -> Self {
        assert!(mem_total_bytes > 0, "node must have memory");
        assert!(tau_secs > 0.0, "sampling interval must be positive");
        PowerModel {
            table,
            mem_total_bytes,
            nic,
            tau_secs,
        }
    }

    /// The calibration table.
    pub fn table(&self) -> &PowerTable {
        &self.table
    }

    /// The sampling interval τ in seconds.
    pub fn tau_secs(&self) -> f64 {
        self.tau_secs
    }

    /// Total memory, bytes.
    pub fn mem_total_bytes(&self) -> u64 {
        self.mem_total_bytes
    }

    /// Evaluates `P(l)` for the given operating state, in watts.
    ///
    /// Utilization and ratios are clamped into `[0, 1]` — sampled counters
    /// can slightly overshoot (counter wrap mid-interval, rounding) and the
    /// estimate must stay within the calibrated envelope. One table row:
    /// the node model calls this for every dirty node, and dropping the
    /// saving of [`PowerModel::power_and_saving_w`] would still pay for
    /// its second row's loads.
    pub fn power_w(&self, level: Level, state: &OperatingState) -> f64 {
        self.power_at(level, self.ratios(state))
    }

    /// `P(l)` and the saving `P(l) − P(l−1)` from degrading one level (0
    /// at the bottom), in watts, from one evaluation of the state's ratios:
    /// what a profiling agent's sample carries.
    pub fn power_and_saving_w(&self, level: Level, state: &OperatingState) -> (f64, f64) {
        let ratios = self.ratios(state);
        let here = self.power_at(level, ratios);
        (
            here,
            here - self.power_at(level.down().unwrap_or(level), ratios),
        )
    }

    /// Formula (1)'s level-independent terms for `state`: CPU utilization,
    /// memory ratio and NIC ratio, each clamped into `[0, 1]`.
    fn ratios(&self, state: &OperatingState) -> [f64; 3] {
        let cpu_util = state.cpu_util.clamp(0.0, 1.0);
        let mem_ratio = (state.mem_used_bytes as f64 / self.mem_total_bytes as f64).clamp(0.0, 1.0);
        let nic_cap = self.nic.interval_capacity_bytes(self.tau_secs);
        let nic_ratio = (state.nic_bytes as f64 / nic_cap).clamp(0.0, 1.0);
        [cpu_util, mem_ratio, nic_ratio]
    }

    /// Formula (1) at `level` over precomputed [`PowerModel::ratios`].
    fn power_at(&self, level: Level, [cpu_util, mem_ratio, nic_ratio]: [f64; 3]) -> f64 {
        let i = level.index();
        self.table.idle_w[i]
            + cpu_util * self.table.cpu_dynamic_w[i]
            + mem_ratio * self.table.mem_dynamic_w[i]
            + nic_ratio * self.table.nic_dynamic_w[i]
    }

    /// The saving `P(x) − P'(x)` from degrading one level, in watts
    /// (0 at the bottom level).
    pub fn saving_one_level_w(&self, level: Level, state: &OperatingState) -> f64 {
        self.power_and_saving_w(level, state).1
    }

    /// Theoretical maximal power of this node (top level, all devices at
    /// max): its contribution to the paper's `P_thy`.
    pub fn theoretical_max_w(&self, ladder: &FrequencyLadder) -> f64 {
        self.table.max_power_w(ladder.highest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::IdleCurve;
    use crate::device::{CpuSpec, MemSpec};
    use proptest::prelude::*;

    fn model() -> (FrequencyLadder, PowerModel) {
        let ladder = FrequencyLadder::xeon_x5670();
        let nic = NicSpec {
            bandwidth_bytes_per_sec: 5.0e9,
            max_dynamic_w: 15.0,
            level_coupling: 0.0,
        };
        let table = PowerTable::calibrate(
            &ladder,
            &IdleCurve {
                base_w: 130.0,
                leakage_at_top_w: 30.0,
            },
            &CpuSpec {
                sockets: 2,
                cores_per_socket: 6,
                max_dynamic_w_per_socket: 65.0,
            },
            &MemSpec {
                total_bytes: 24 << 30,
                max_dynamic_w: 36.0,
                level_coupling: 0.0,
            },
            &nic,
        );
        let model = PowerModel::new(table, 24 << 30, nic, 1.0);
        (ladder, model)
    }

    #[test]
    fn idle_node_draws_idle_power() {
        let (ladder, m) = model();
        for level in ladder.levels() {
            let p = m.power_w(level, &OperatingState::IDLE);
            assert_eq!(p, m.table().idle_power_w(level));
        }
    }

    #[test]
    fn fully_loaded_node_draws_max_power() {
        let (ladder, m) = model();
        let full = OperatingState {
            cpu_util: 1.0,
            mem_used_bytes: 24 << 30,
            nic_bytes: 5_000_000_000, // τ·BW at τ=1s
        };
        for level in ladder.levels() {
            let p = m.power_w(level, &full);
            assert!((p - m.table().max_power_w(level)).abs() < 1e-9);
        }
    }

    #[test]
    fn half_utilization_is_halfway_on_cpu_term() {
        let (ladder, m) = model();
        let top = ladder.highest();
        let half = OperatingState {
            cpu_util: 0.5,
            mem_used_bytes: 0,
            nic_bytes: 0,
        };
        let p = m.power_w(top, &half);
        let expected = m.table().idle_power_w(top) + 0.5 * 130.0;
        assert!((p - expected).abs() < 1e-9);
    }

    #[test]
    fn inputs_are_clamped() {
        let (ladder, m) = model();
        let over = OperatingState {
            cpu_util: 1.7,
            mem_used_bytes: u64::MAX,
            nic_bytes: u64::MAX,
        };
        let p = m.power_w(ladder.highest(), &over);
        assert!((p - m.table().max_power_w(ladder.highest())).abs() < 1e-9);
        let under = OperatingState {
            cpu_util: -0.5,
            mem_used_bytes: 0,
            nic_bytes: 0,
        };
        let p2 = m.power_w(ladder.highest(), &under);
        assert_eq!(p2, m.table().idle_power_w(ladder.highest()));
    }

    #[test]
    fn saving_is_zero_at_bottom_and_positive_above() {
        let (ladder, m) = model();
        let busy = OperatingState {
            cpu_util: 0.9,
            mem_used_bytes: 12 << 30,
            nic_bytes: 1_000_000_000,
        };
        assert_eq!(m.saving_one_level_w(Level::LOWEST, &busy), 0.0);
        for level in ladder.levels().skip(1) {
            assert!(m.saving_one_level_w(level, &busy) > 0.0);
        }
    }

    #[test]
    fn is_idle_detects_quiescence() {
        assert!(OperatingState::IDLE.is_idle());
        assert!(!OperatingState {
            cpu_util: 0.2,
            mem_used_bytes: 0,
            nic_bytes: 0
        }
        .is_idle());
        // Residual memory without activity still counts as idle.
        assert!(OperatingState {
            cpu_util: 0.0,
            mem_used_bytes: 1 << 30,
            nic_bytes: 0
        }
        .is_idle());
    }

    proptest! {
        /// Power is monotone in each input dimension and bounded by the
        /// calibrated envelope [idle(l), max(l)].
        #[test]
        fn prop_power_monotone_and_bounded(
            lvl in 0u8..10,
            util in 0.0f64..1.0,
            mem in 0u64..(24u64 << 30),
            nic in 0u64..5_000_000_000u64,
        ) {
            let (_ladder, m) = model();
            let level = Level::new(lvl);
            let st = OperatingState { cpu_util: util, mem_used_bytes: mem, nic_bytes: nic };
            let p = m.power_w(level, &st);
            prop_assert!(p >= m.table().idle_power_w(level) - 1e-9);
            prop_assert!(p <= m.table().max_power_w(level) + 1e-9);

            // Monotone in utilization.
            let more = OperatingState { cpu_util: (util + 0.1).min(1.0), ..st };
            prop_assert!(m.power_w(level, &more) >= p - 1e-12);

            // Monotone in level (same state, higher level ⇒ ≥ power).
            if let Some(lower) = level.down() {
                prop_assert!(m.power_w(lower, &st) <= p + 1e-12);
            }

            // P'(x) ≤ P(x) always: the saving is never negative.
            prop_assert!(m.saving_one_level_w(level, &st) >= -1e-12);
        }

        /// The one-level saving, which shares the state's ratios between
        /// both levels, equals the difference of two whole evaluations bit
        /// for bit, over every level and over states inside and outside
        /// the clamped envelope.
        #[test]
        fn prop_saving_matches_two_evaluations(
            lvl in 0u8..10,
            util in -0.5f64..1.5,
            mem in 0u64..(48u64 << 30),
            nic in 0u64..10_000_000_000u64,
        ) {
            let (_ladder, m) = model();
            let level = Level::new(lvl);
            let st = OperatingState { cpu_util: util, mem_used_bytes: mem, nic_bytes: nic };
            let down = m.power_w(level.down().unwrap_or(level), &st);
            let two_calls = m.power_w(level, &st) - down;
            prop_assert_eq!(m.saving_one_level_w(level, &st).to_bits(), two_calls.to_bits());
        }

        /// The joint evaluation a sample carries is bitwise the pair of
        /// single evaluations, over every level and over states inside
        /// and outside the clamped envelope.
        #[test]
        fn prop_power_and_saving_match_single_evaluations(
            lvl in 0u8..10,
            util in -0.5f64..1.5,
            mem in 0u64..(48u64 << 30),
            nic in 0u64..10_000_000_000u64,
        ) {
            let (_ladder, m) = model();
            let level = Level::new(lvl);
            let st = OperatingState { cpu_util: util, mem_used_bytes: mem, nic_bytes: nic };
            let (power_w, saving_w) = m.power_and_saving_w(level, &st);
            prop_assert_eq!(power_w.to_bits(), m.power_w(level, &st).to_bits());
            prop_assert_eq!(saving_w.to_bits(), m.saving_one_level_w(level, &st).to_bits());
        }
    }
}
