//! Hierarchical metric rollups mirroring the facility → row → rack
//! topology.
//!
//! The control plane (DESIGN §15) delegates budget down a contiguous
//! facility/row/rack tree; this module aggregates the *health* signals
//! back up it. Each control cycle the cluster layer feeds one
//! [`CycleObservation`] — per-rack power, budget, Green/Yellow/Red state
//! and collector coverage plus the facility-level view — and the tree
//! folds it into per-zone [`ZoneStats`]: dwell counters, peak power,
//! minimum headroom and a [`QuantileSketch`] of the per-cycle power
//! distribution. Memory is O(racks + rows), never O(nodes × ticks).
//!
//! `ppc-obs` sits *below* `ppc-core` in the crate graph, so the tree
//! cannot read `core::Topology` directly; the cluster layer projects the
//! topology into a [`ZoneMap`] (rack → row assignment) at construction.
//! A flat (non-hierarchical) simulation uses the single-rack map, which
//! makes the rack, row and facility zones coincide — exactly the
//! invariant the behaviour pin's "single-rack hierarchy ≡ flat" leg
//! relies on.
//!
//! Every fold happens serially, in rack index order, from deterministic
//! inputs, so [`RollupTree::fingerprint`] joins the behaviour pin.

use crate::sketch::QuantileSketch;
use ppc_simkit::hash::Fnv1a;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The controller's power-consumption state: the paper's Algorithm 1
/// classifies power against two thresholds `P_L ≤ P_H`. Ordered by
/// urgency, so a worst-state fold is `max`. `ppc-core` re-exports it
/// from its `state` module; it lives here, the lowest crate that needs
/// it, so the rollup folds the controller's own states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// `P < P_L`: safe; no throttling needed.
    Green,
    /// `P_L ≤ P < P_H`: warning; reduce power mildly (one level on a
    /// policy-selected target set).
    Yellow,
    /// `P ≥ P_H`: critical; force every candidate node to its lowest
    /// power state immediately.
    Red,
}

impl PowerState {
    /// Dense index for dwell arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The state's color name as a static string (used for journal
    /// messages, span attributes and exports without allocating).
    pub fn name(self) -> &'static str {
        match self {
            PowerState::Green => "green",
            PowerState::Yellow => "yellow",
            PowerState::Red => "red",
        }
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Rack → row projection of the control topology (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneMap {
    /// Row index of each rack, rack-major.
    rack_row: Vec<u32>,
    /// Number of rows (`max(rack_row) + 1`).
    rows: usize,
}

impl ZoneMap {
    /// Builds a map from per-rack row assignments. An empty input
    /// degenerates to the single-rack map so the tree always has at
    /// least one zone per level.
    pub fn new(rack_row: Vec<u32>) -> Self {
        if rack_row.is_empty() {
            return Self::single_rack();
        }
        let rows = rack_row.iter().copied().max().unwrap_or(0) as usize + 1;
        ZoneMap { rack_row, rows }
    }

    /// The trivial one-rack, one-row map used by flat simulations.
    pub fn single_rack() -> Self {
        ZoneMap {
            rack_row: vec![0],
            rows: 1,
        }
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.rack_row.len()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row of a rack.
    pub fn row_of(&self, rack: usize) -> usize {
        self.rack_row[rack] as usize
    }
}

/// Per-zone health aggregate. All fields are pure functions of the
/// observation sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneStats {
    /// Control cycles observed.
    pub cycles: u64,
    /// Cycles spent Green / Yellow / Red (index via [`PowerState::index`]).
    pub dwell: [u64; 3],
    /// State at the latest cycle.
    pub last_state: PowerState,
    /// Power at the latest cycle (W).
    pub last_power_w: f64,
    /// Budget at the latest cycle (W).
    pub last_budget_w: f64,
    /// Collector coverage at the latest cycle (0..=1).
    pub last_coverage: f64,
    /// Largest power seen (W).
    pub peak_power_w: f64,
    /// Smallest `budget - power` seen (W; may be negative on overshoot).
    pub min_headroom_w: f64,
    /// Smallest coverage seen.
    pub min_coverage: f64,
    /// Distribution of per-cycle power.
    pub power_sketch: QuantileSketch,
}

impl ZoneStats {
    fn new() -> Self {
        ZoneStats {
            cycles: 0,
            dwell: [0; 3],
            last_state: PowerState::Green,
            last_power_w: 0.0,
            last_budget_w: 0.0,
            last_coverage: 1.0,
            peak_power_w: 0.0,
            min_headroom_w: f64::INFINITY,
            min_coverage: 1.0,
            power_sketch: QuantileSketch::new(),
        }
    }

    fn observe(&mut self, state: PowerState, power_w: f64, budget_w: f64, coverage: f64) {
        self.cycles += 1;
        self.dwell[state.index()] += 1;
        self.last_state = state;
        self.last_power_w = power_w;
        self.last_budget_w = budget_w;
        self.last_coverage = coverage;
        self.peak_power_w = self.peak_power_w.max(power_w);
        self.min_headroom_w = self.min_headroom_w.min(budget_w - power_w);
        self.min_coverage = self.min_coverage.min(coverage);
        self.power_sketch.observe(power_w);
    }

    /// Fraction of observed cycles at or above `state` severity.
    pub fn dwell_fraction_at_least(&self, state: PowerState) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let bad: u64 = self.dwell[state.index()..].iter().sum();
        bad as f64 / self.cycles as f64
    }

    fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(self.cycles);
        for &d in &self.dwell {
            h.write_u64(d);
        }
        h.write_u64(self.last_state.index() as u64);
        h.write_f64(self.last_power_w);
        h.write_f64(self.last_budget_w);
        h.write_f64(self.last_coverage);
        h.write_f64(self.peak_power_w);
        h.write_f64(self.min_headroom_w);
        h.write_f64(self.min_coverage);
        h.write_u64(self.power_sketch.fingerprint());
    }
}

/// One control cycle's health inputs, rack-major. Slices must all have
/// `ZoneMap::racks` entries.
#[derive(Debug, Clone, Copy)]
pub struct CycleObservation<'a> {
    /// Per-rack Green/Yellow/Red state.
    pub rack_state: &'a [PowerState],
    /// Per-rack power (W).
    pub rack_power_w: &'a [f64],
    /// Per-rack delegated budget (W).
    pub rack_budget_w: &'a [f64],
    /// Per-rack collector coverage (0..=1).
    pub rack_coverage: &'a [f64],
    /// Facility-level classification.
    pub facility_state: PowerState,
    /// Facility-level (metered) power (W).
    pub facility_power_w: f64,
    /// Facility provision in force (W).
    pub facility_budget_w: f64,
    /// Facility-level collector coverage.
    pub facility_coverage: f64,
}

/// The facility → row → rack health rollup. See module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupTree {
    map: ZoneMap,
    racks: Vec<ZoneStats>,
    rows: Vec<ZoneStats>,
    facility: ZoneStats,
    /// Per-row accumulator reused every cycle (state, power, budget,
    /// coverage, touched) — deterministic scratch, zero allocation on
    /// the observe path.
    row_acc: Vec<(PowerState, f64, f64, f64, bool)>,
}

const ROW_ACC_EMPTY: (PowerState, f64, f64, f64, bool) =
    (PowerState::Green, 0.0, 0.0, f64::INFINITY, false);

impl RollupTree {
    /// An empty tree over the given topology projection.
    pub fn new(map: ZoneMap) -> Self {
        let racks = (0..map.racks()).map(|_| ZoneStats::new()).collect();
        let rows = (0..map.rows()).map(|_| ZoneStats::new()).collect();
        let row_acc = vec![ROW_ACC_EMPTY; map.rows()];
        RollupTree {
            map,
            racks,
            rows,
            facility: ZoneStats::new(),
            row_acc,
        }
    }

    /// Folds one control cycle in: racks first (index order), then rows
    /// derived from their racks (power/budget sums, severity max,
    /// coverage min), then the facility from its own explicit view.
    pub fn observe_cycle(&mut self, obs: &CycleObservation<'_>) {
        let n = self.racks.len();
        debug_assert_eq!(obs.rack_state.len(), n);
        self.row_acc.fill(ROW_ACC_EMPTY);
        for r in 0..n {
            self.racks[r].observe(
                obs.rack_state[r],
                obs.rack_power_w[r],
                obs.rack_budget_w[r],
                obs.rack_coverage[r],
            );
            let acc = &mut self.row_acc[self.map.row_of(r)];
            acc.0 = acc.0.max(obs.rack_state[r]);
            acc.1 += obs.rack_power_w[r];
            acc.2 += obs.rack_budget_w[r];
            acc.3 = acc.3.min(obs.rack_coverage[r]);
            acc.4 = true;
        }
        for (row, &(state, power, budget, coverage, any)) in self.row_acc.iter().enumerate() {
            if any {
                self.rows[row].observe(state, power, budget, coverage);
            }
        }
        self.facility.observe(
            obs.facility_state,
            obs.facility_power_w,
            obs.facility_budget_w,
            obs.facility_coverage,
        );
    }

    /// Topology projection.
    pub fn map(&self) -> &ZoneMap {
        &self.map
    }

    /// Per-rack aggregates, rack-major.
    pub fn racks(&self) -> &[ZoneStats] {
        &self.racks
    }

    /// Per-row aggregates, row-major.
    pub fn rows(&self) -> &[ZoneStats] {
        &self.rows
    }

    /// Facility aggregate.
    pub fn facility(&self) -> &ZoneStats {
        &self.facility
    }

    /// FNV-1a over the whole tree: the zone map, then every rack, row
    /// and the facility in index order.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.map.racks() as u64);
        h.write_u64(self.map.rows() as u64);
        for r in 0..self.map.racks() {
            h.write_u64(self.map.row_of(r) as u64);
        }
        for z in &self.racks {
            z.fold(&mut h);
        }
        for z in &self.rows {
            z.fold(&mut h);
        }
        self.facility.fold(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_row_map() -> ZoneMap {
        // Racks 0,1 in row 0; racks 2,3 in row 1.
        ZoneMap::new(vec![0, 0, 1, 1])
    }

    #[test]
    fn rows_aggregate_their_racks() {
        let mut tree = RollupTree::new(two_row_map());
        let states = [
            PowerState::Green,
            PowerState::Red,
            PowerState::Yellow,
            PowerState::Green,
        ];
        tree.observe_cycle(&CycleObservation {
            rack_state: &states,
            rack_power_w: &[100.0, 150.0, 120.0, 80.0],
            rack_budget_w: &[200.0, 140.0, 150.0, 150.0],
            rack_coverage: &[1.0, 0.5, 0.9, 1.0],
            facility_state: PowerState::Red,
            facility_power_w: 450.0,
            facility_budget_w: 640.0,
            facility_coverage: 0.5,
        });
        let row0 = &tree.rows()[0];
        assert_eq!(row0.last_state, PowerState::Red);
        assert_eq!(row0.last_power_w, 250.0);
        assert_eq!(row0.last_budget_w, 340.0);
        assert_eq!(row0.last_coverage, 0.5);
        let row1 = &tree.rows()[1];
        assert_eq!(row1.last_state, PowerState::Yellow);
        assert_eq!(row1.last_power_w, 200.0);
        // Rack 1 overshoots its budget by 10 W → negative headroom.
        assert_eq!(tree.racks()[1].min_headroom_w, -10.0);
        assert_eq!(tree.facility().dwell, [0, 0, 1]);
        assert_eq!(tree.facility().cycles, 1);
    }

    #[test]
    fn dwell_fractions_accumulate() {
        let mut tree = RollupTree::new(ZoneMap::single_rack());
        for state in [
            PowerState::Green,
            PowerState::Yellow,
            PowerState::Red,
            PowerState::Red,
        ] {
            tree.observe_cycle(&CycleObservation {
                rack_state: &[state],
                rack_power_w: &[100.0],
                rack_budget_w: &[120.0],
                rack_coverage: &[1.0],
                facility_state: state,
                facility_power_w: 100.0,
                facility_budget_w: 120.0,
                facility_coverage: 1.0,
            });
        }
        let f = tree.facility();
        assert_eq!(f.dwell, [1, 1, 2]);
        assert_eq!(f.dwell_fraction_at_least(PowerState::Red), 0.5);
        assert_eq!(f.dwell_fraction_at_least(PowerState::Yellow), 0.75);
        // Single-rack map: rack, row and facility zones coincide.
        assert_eq!(tree.racks()[0], tree.rows()[0]);
        assert_eq!(tree.racks()[0], *tree.facility());
    }

    #[test]
    fn fingerprint_is_replayable_and_state_sensitive() {
        let feed = |n: usize| {
            let mut tree = RollupTree::new(two_row_map());
            for i in 0..n {
                let p = 90.0 + i as f64;
                tree.observe_cycle(&CycleObservation {
                    rack_state: &[PowerState::Green; 4],
                    rack_power_w: &[p, p, p, p],
                    rack_budget_w: &[150.0; 4],
                    rack_coverage: &[1.0; 4],
                    facility_state: PowerState::Green,
                    facility_power_w: 4.0 * p,
                    facility_budget_w: 600.0,
                    facility_coverage: 1.0,
                });
            }
            tree.fingerprint()
        };
        assert_eq!(feed(10), feed(10));
        assert_ne!(feed(10), feed(11));
    }
}
