//! Declarative SLO rules and deterministic burn-rate alerting.
//!
//! At fleet scale the hazard is *sustained* budget pressure, not an
//! instantaneous sample (Ardestani et al., PAPERS.md). The engine
//! therefore evaluates a small declarative rule grammar against the
//! rollup tree every control cycle:
//!
//! * [`SloRule::DwellBurnRate`] — the fraction of recent cycles at or
//!   above a severity must stay below a threshold over **both** a short
//!   and a long window (the classic multi-window burn-rate alert: the
//!   long window filters blips, the short window makes resolve fast).
//! * [`SloRule::CapOvershoot`] — zone power above its budget by a
//!   relative margin for N consecutive cycles (magnitude × duration).
//! * [`SloRule::CoverageFloor`] — facility collector coverage below a
//!   floor for N consecutive cycles.
//! * [`SloRule::RackStarvation`] — a rack's delegated budget below a
//!   fraction of its fair share for N consecutive cycles.
//!
//! Firings and resolutions are appended to a bounded, strictly ordered
//! alert journal ([`AlertEvent`] with open/resolve edges). Everything —
//! window state, event order, values — is a pure function of the
//! observation stream, so [`SloEngine::fingerprint`] joins the
//! behaviour pin. Thresholds compare with `>=`/`<=` so a window
//! sitting *exactly at* the threshold fires (pinned by a boundary test).

use crate::rollup::{PowerState, RollupTree, ZoneStats};
use ppc_simkit::hash::Fnv1a;
use ppc_simkit::SimTime;
use std::fmt::Write as _;

/// Bound on retained alert events; later events increment `dropped`.
const MAX_ALERT_EVENTS: usize = 4_096;

/// Which zone of the rollup tree an alert refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneId {
    /// A rack, by rack index.
    Rack(u32),
    /// A row, by row index.
    Row(u32),
    /// The facility root.
    Facility,
}

impl ZoneId {
    /// Render as `rack-3` / `row-1` / `facility`.
    pub fn label(&self) -> String {
        match *self {
            ZoneId::Rack(r) => format!("rack-{r}"),
            ZoneId::Row(r) => format!("row-{r}"),
            ZoneId::Facility => "facility".to_string(),
        }
    }

    fn fold(&self, h: &mut Fnv1a) {
        match *self {
            ZoneId::Rack(r) => {
                h.write_u8(0);
                h.write_u64(u64::from(r));
            }
            ZoneId::Row(r) => {
                h.write_u8(1);
                h.write_u64(u64::from(r));
            }
            ZoneId::Facility => h.write_u8(2),
        }
    }
}

/// Whether an alert event opened or resolved the condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertEdge {
    /// The rule started firing.
    Open,
    /// The rule stopped firing.
    Resolve,
}

/// One declarative health rule. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloRule {
    /// Dual-window dwell burn rate at or above `min_state`.
    DwellBurnRate {
        /// Stable rule name used in events and exports.
        name: &'static str,
        /// Severity that counts as "bad" (at or above).
        min_state: PowerState,
        /// Short window length, in control cycles.
        short_cycles: u32,
        /// Long window length, in control cycles (≥ short).
        long_cycles: u32,
        /// Bad fraction at which the rule fires (inclusive).
        max_fraction: f64,
    },
    /// Power above budget by a relative margin, sustained.
    CapOvershoot {
        /// Stable rule name.
        name: &'static str,
        /// Fires while `power > budget × (1 + margin_fraction)`.
        margin_fraction: f64,
        /// Consecutive cycles before opening.
        hold_cycles: u32,
    },
    /// Facility collector coverage below a floor, sustained.
    CoverageFloor {
        /// Stable rule name.
        name: &'static str,
        /// Fires while `coverage < floor`.
        floor: f64,
        /// Consecutive cycles before opening.
        hold_cycles: u32,
    },
    /// Rack budget below a fraction of its fair share, sustained.
    RackStarvation {
        /// Stable rule name.
        name: &'static str,
        /// Fires while `budget < fraction × facility_budget / racks`.
        floor_fraction: f64,
        /// Consecutive cycles before opening.
        hold_cycles: u32,
    },
}

impl SloRule {
    /// The rule's stable name.
    pub fn name(&self) -> &'static str {
        match *self {
            SloRule::DwellBurnRate { name, .. }
            | SloRule::CapOvershoot { name, .. }
            | SloRule::CoverageFloor { name, .. }
            | SloRule::RackStarvation { name, .. } => name,
        }
    }

    fn fold(&self, h: &mut Fnv1a) {
        h.write_bytes(self.name().as_bytes());
        match *self {
            SloRule::DwellBurnRate {
                min_state,
                short_cycles,
                long_cycles,
                max_fraction,
                ..
            } => {
                h.write_u8(0);
                h.write_u64(min_state.index() as u64);
                h.write_u64(u64::from(short_cycles));
                h.write_u64(u64::from(long_cycles));
                h.write_f64(max_fraction);
            }
            SloRule::CapOvershoot {
                margin_fraction,
                hold_cycles,
                ..
            } => {
                h.write_u8(1);
                h.write_f64(margin_fraction);
                h.write_u64(u64::from(hold_cycles));
            }
            SloRule::CoverageFloor {
                floor, hold_cycles, ..
            } => {
                h.write_u8(2);
                h.write_f64(floor);
                h.write_u64(u64::from(hold_cycles));
            }
            SloRule::RackStarvation {
                floor_fraction,
                hold_cycles,
                ..
            } => {
                h.write_u8(3);
                h.write_f64(floor_fraction);
                h.write_u64(u64::from(hold_cycles));
            }
        }
    }
}

/// The default fleet rule set.
pub fn default_rules() -> Vec<SloRule> {
    vec![
        SloRule::DwellBurnRate {
            name: "red-dwell-burn",
            min_state: PowerState::Red,
            short_cycles: 30,
            long_cycles: 120,
            max_fraction: 0.5,
        },
        SloRule::DwellBurnRate {
            name: "yellow-dwell-burn",
            min_state: PowerState::Yellow,
            short_cycles: 60,
            long_cycles: 240,
            max_fraction: 0.9,
        },
        SloRule::CapOvershoot {
            name: "cap-overshoot",
            margin_fraction: 0.02,
            hold_cycles: 10,
        },
        SloRule::CoverageFloor {
            name: "coverage-floor",
            floor: 0.6,
            hold_cycles: 20,
        },
        SloRule::RackStarvation {
            name: "rack-starvation",
            floor_fraction: 0.25,
            hold_cycles: 30,
        },
    ]
}

/// One edge in the deterministic alert journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertEvent {
    /// Monotone sequence number (journal order).
    pub seq: u64,
    /// Simulation time of the edge.
    pub at: SimTime,
    /// Rule name.
    pub rule: &'static str,
    /// Zone the rule fired for.
    pub zone: ZoneId,
    /// Open or resolve.
    pub edge: AlertEdge,
    /// Observed value at the edge (fraction, watts or coverage —
    /// rule-dependent).
    pub value: f64,
    /// The rule threshold the value crossed.
    pub threshold: f64,
}

/// Dual-window ring of bad/good flags with incrementally maintained
/// window sums. `short ≤ long`; both sums cover at most the observed
/// history ("window shorter than history" and "zero-traffic" cases are
/// pinned by boundary tests).
///
/// The ring is a u64 bitset and position wrap is a compare-and-reset,
/// not a modulo: this push runs for every dwell rule × every zone ×
/// every control cycle, so it is one of the hottest paths in the
/// health plane.
#[derive(Debug, Clone, PartialEq)]
struct BurnWindow {
    short: u32,
    long: u32,
    /// `long` bad/good bits, `ceil(long / 64)` words.
    bits: Vec<u64>,
    /// Next bit position to write (`0..long`).
    head: u32,
    pushes: u64,
    short_bad: u32,
    long_bad: u32,
}

impl BurnWindow {
    fn new(short: u32, long: u32) -> Self {
        let long = long.max(1);
        let short = short.clamp(1, long);
        BurnWindow {
            short,
            long,
            bits: vec![0; long.div_ceil(64) as usize],
            head: 0,
            pushes: 0,
            short_bad: 0,
            long_bad: 0,
        }
    }

    #[inline]
    fn bit(&self, pos: u32) -> u32 {
        (self.bits[(pos / 64) as usize] >> (pos % 64)) as u32 & 1
    }

    fn push(&mut self, bad: bool) {
        if self.pushes >= u64::from(self.long) {
            self.long_bad -= self.bit(self.head);
        }
        if self.pushes >= u64::from(self.short) {
            // The sample falling out of the short window was written
            // `short` pushes ago (read before this slot is overwritten
            // when short == long).
            let mut leaving = self.head + self.long - self.short;
            if leaving >= self.long {
                leaving -= self.long;
            }
            self.short_bad -= self.bit(leaving);
        }
        let mask = 1u64 << (self.head % 64);
        let word = &mut self.bits[(self.head / 64) as usize];
        if bad {
            *word |= mask;
            self.short_bad += 1;
            self.long_bad += 1;
        } else {
            *word &= !mask;
        }
        self.head += 1;
        if self.head == self.long {
            self.head = 0;
        }
        self.pushes += 1;
    }

    /// Whether the short-window bad fraction is at or above `frac`
    /// (integer-side multiply, no division — exact when `frac × n` is
    /// representable, which holds for the rule-grammar thresholds).
    #[inline]
    fn short_meets(&self, frac: f64) -> bool {
        let n = self.pushes.min(u64::from(self.short));
        n > 0 && f64::from(self.short_bad) >= frac * n as f64
    }

    /// Whether the long-window bad fraction is at or above `frac`.
    #[inline]
    fn long_meets(&self, frac: f64) -> bool {
        let n = self.pushes.min(u64::from(self.long));
        n > 0 && f64::from(self.long_bad) >= frac * n as f64
    }

    /// Bad fraction over the short window (capped at observed history).
    fn short_fraction(&self) -> f64 {
        let n = self.pushes.min(u64::from(self.short));
        if n == 0 {
            return 0.0;
        }
        f64::from(self.short_bad) / n as f64
    }

    fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(self.pushes);
        h.write_u64(u64::from(self.short_bad));
        h.write_u64(u64::from(self.long_bad));
    }
}

/// Per-(rule, zone) evaluation state.
#[derive(Debug, Clone, PartialEq)]
struct RuleState {
    zone: ZoneId,
    window: Option<BurnWindow>,
    consecutive: u32,
    active: bool,
}

/// The SLO engine: rules, per-zone window state and the bounded alert
/// journal. See module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    /// Flattened per-rule, per-zone state (rule-major, zone order:
    /// racks, then rows, then facility — the subset each rule watches).
    states: Vec<RuleState>,
    /// Offsets into `states`, one per rule, plus a final end marker.
    offsets: Vec<usize>,
    events: Vec<AlertEvent>,
    dropped: u64,
    seq: u64,
    open: u64,
}

/// The zones a rule watches, in deterministic order.
fn zones_for(rule: &SloRule, racks: usize, rows: usize) -> Vec<ZoneId> {
    let mut zones = Vec::new();
    match rule {
        SloRule::CoverageFloor { .. } => zones.push(ZoneId::Facility),
        SloRule::RackStarvation { .. } => {
            zones.extend((0..racks as u32).map(ZoneId::Rack));
        }
        SloRule::DwellBurnRate { .. } | SloRule::CapOvershoot { .. } => {
            zones.extend((0..racks as u32).map(ZoneId::Rack));
            zones.extend((0..rows as u32).map(ZoneId::Row));
            zones.push(ZoneId::Facility);
        }
    }
    zones
}

impl SloEngine {
    /// An engine over `rules` for a tree with the given zone counts.
    pub fn new(rules: Vec<SloRule>, racks: usize, rows: usize) -> Self {
        let mut states = Vec::new();
        let mut offsets = Vec::with_capacity(rules.len() + 1);
        for rule in &rules {
            offsets.push(states.len());
            for zone in zones_for(rule, racks, rows) {
                let window = match *rule {
                    SloRule::DwellBurnRate {
                        short_cycles,
                        long_cycles,
                        ..
                    } => Some(BurnWindow::new(short_cycles, long_cycles)),
                    _ => None,
                };
                states.push(RuleState {
                    zone,
                    window,
                    consecutive: 0,
                    active: false,
                });
            }
        }
        offsets.push(states.len());
        SloEngine {
            rules,
            states,
            offsets,
            events: Vec::new(),
            dropped: 0,
            seq: 0,
            open: 0,
        }
    }

    /// Evaluates every rule against the tree's latest cycle. Returns
    /// the journal length *before* evaluation; newly appended events
    /// are `engine.events()[before..]`.
    pub fn evaluate(&mut self, now: SimTime, tree: &RollupTree) -> usize {
        let before = self.events.len();
        let racks = tree.racks().len();
        let fair_share = if racks > 0 {
            tree.facility().last_budget_w / racks as f64
        } else {
            0.0
        };
        for ri in 0..self.rules.len() {
            let rule = self.rules[ri];
            for si in self.offsets[ri]..self.offsets[ri + 1] {
                let zone = self.states[si].zone;
                let stats = zone_stats(tree, zone);
                let (firing, value, threshold) = match rule {
                    SloRule::DwellBurnRate {
                        min_state,
                        max_fraction,
                        ..
                    } => {
                        let bad = stats.last_state >= min_state;
                        let was_active = self.states[si].active;
                        // Burn rules always allocate a window at
                        // construction; a missing one is inert.
                        let Some(w) = self.states[si].window.as_mut() else {
                            continue;
                        };
                        w.push(bad);
                        let firing = w.short_meets(max_fraction) && w.long_meets(max_fraction);
                        // The fraction divides; only pay for it on an
                        // edge (this arm runs per zone per cycle).
                        let value = if firing != was_active {
                            w.short_fraction()
                        } else {
                            0.0
                        };
                        (firing, value, max_fraction)
                    }
                    SloRule::CapOvershoot {
                        margin_fraction,
                        hold_cycles,
                        ..
                    } => {
                        let limit = stats.last_budget_w * (1.0 + margin_fraction);
                        let over = stats.last_power_w > limit;
                        hold(
                            &mut self.states[si].consecutive,
                            over,
                            hold_cycles,
                            stats.last_power_w - stats.last_budget_w,
                            stats.last_budget_w * margin_fraction,
                        )
                    }
                    SloRule::CoverageFloor {
                        floor, hold_cycles, ..
                    } => {
                        let under = stats.last_coverage < floor;
                        hold(
                            &mut self.states[si].consecutive,
                            under,
                            hold_cycles,
                            stats.last_coverage,
                            floor,
                        )
                    }
                    SloRule::RackStarvation {
                        floor_fraction,
                        hold_cycles,
                        ..
                    } => {
                        let floor = floor_fraction * fair_share;
                        let starved = fair_share > 0.0 && stats.last_budget_w < floor;
                        hold(
                            &mut self.states[si].consecutive,
                            starved,
                            hold_cycles,
                            stats.last_budget_w,
                            floor,
                        )
                    }
                };
                let state = &mut self.states[si];
                if firing != state.active {
                    state.active = firing;
                    let edge = if firing {
                        self.open += 1;
                        AlertEdge::Open
                    } else {
                        self.open -= 1;
                        AlertEdge::Resolve
                    };
                    let event = AlertEvent {
                        seq: self.seq,
                        at: now,
                        rule: rule.name(),
                        zone,
                        edge,
                        value,
                        threshold,
                    };
                    self.seq += 1;
                    if self.events.len() < MAX_ALERT_EVENTS {
                        self.events.push(event);
                    } else {
                        self.dropped += 1;
                    }
                }
            }
        }
        before
    }

    /// The retained alert journal, in edge order.
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Edges lost to the journal bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Currently firing (open, unresolved) alerts.
    pub fn open_alerts(&self) -> u64 {
        self.open
    }

    /// Total edges ever emitted (including dropped).
    pub fn total_edges(&self) -> u64 {
        self.seq
    }

    /// The configured rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// FNV-1a over the rule set, every journal edge in order, the drop
    /// counter and the live window state.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for rule in &self.rules {
            rule.fold(&mut h);
        }
        for e in &self.events {
            h.write_u64(e.seq);
            h.write_u64(e.at.as_millis());
            h.write_bytes(e.rule.as_bytes());
            e.zone.fold(&mut h);
            h.write_u8(match e.edge {
                AlertEdge::Open => 1,
                AlertEdge::Resolve => 0,
            });
            h.write_f64(e.value);
            h.write_f64(e.threshold);
        }
        h.write_u64(self.dropped);
        h.write_u64(self.open);
        for s in &self.states {
            h.write_u64(u64::from(s.consecutive));
            h.write_u8(u8::from(s.active));
            if let Some(w) = &s.window {
                w.fold(&mut h);
            }
        }
        h.finish()
    }
}

/// Shared consecutive-cycle hold logic for the three threshold rules.
fn hold(
    consecutive: &mut u32,
    breaching: bool,
    hold_cycles: u32,
    value: f64,
    threshold: f64,
) -> (bool, f64, f64) {
    if breaching {
        *consecutive = consecutive.saturating_add(1);
    } else {
        *consecutive = 0;
    }
    (*consecutive >= hold_cycles.max(1), value, threshold)
}

fn zone_stats(tree: &RollupTree, zone: ZoneId) -> &ZoneStats {
    match zone {
        ZoneId::Rack(r) => &tree.racks()[r as usize],
        ZoneId::Row(r) => &tree.rows()[r as usize],
        ZoneId::Facility => tree.facility(),
    }
}

/// Renders the alert journal as a fixed-width, human-readable timeline
/// (one line per edge) — the format of the golden `ALERTS` fixture and
/// the README sample.
pub fn render_alerts(events: &[AlertEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let secs = e.at.as_millis() as f64 / 1000.0;
        let edge = match e.edge {
            AlertEdge::Open => "OPEN   ",
            AlertEdge::Resolve => "RESOLVE",
        };
        let _ = writeln!(
            out,
            "{secs:>9.1}s {edge} {:<18} {:<10} value={:.3} threshold={:.3}",
            e.rule,
            e.zone.label(),
            e.value,
            e.threshold
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollup::{CycleObservation, ZoneMap};

    fn single_zone_tree() -> RollupTree {
        RollupTree::new(ZoneMap::single_rack())
    }

    fn feed(tree: &mut RollupTree, state: PowerState, power: f64, budget: f64, coverage: f64) {
        tree.observe_cycle(&CycleObservation {
            rack_state: &[state],
            rack_power_w: &[power],
            rack_budget_w: &[budget],
            rack_coverage: &[coverage],
            facility_state: state,
            facility_power_w: power,
            facility_budget_w: budget,
            facility_coverage: coverage,
        });
    }

    fn burn_engine(short: u32, long: u32, max_fraction: f64) -> SloEngine {
        SloEngine::new(
            vec![SloRule::DwellBurnRate {
                name: "red-dwell-burn",
                min_state: PowerState::Red,
                short_cycles: short,
                long_cycles: long,
                max_fraction,
            }],
            1,
            1,
        )
    }

    #[test]
    fn burn_rate_fires_exactly_at_threshold() {
        // 4-cycle short window, threshold 0.5: two bad of four is
        // *exactly* at the threshold and must fire (>=, not >).
        let mut tree = single_zone_tree();
        let mut engine = burn_engine(4, 4, 0.5);
        for state in [
            PowerState::Green,
            PowerState::Green,
            PowerState::Red,
            PowerState::Red,
        ] {
            feed(&mut tree, state, 100.0, 120.0, 1.0);
            engine.evaluate(SimTime::from_secs(tree.facility().cycles), &tree);
        }
        let opens: Vec<_> = engine
            .events()
            .iter()
            .filter(|e| e.edge == AlertEdge::Open)
            .collect();
        assert!(
            !opens.is_empty(),
            "2/4 bad at threshold 0.5 must fire on the >= boundary"
        );
        assert_eq!(opens[0].value, 0.5);
        // The window must actually drain below the threshold: after one
        // Green it still holds [G,R,R,G] = 0.5. Three Greens bring the
        // short window to 1/4 and resolve the alert.
        for _ in 0..3 {
            feed(&mut tree, PowerState::Green, 100.0, 120.0, 1.0);
            engine.evaluate(SimTime::from_secs(tree.facility().cycles), &tree);
        }
        assert_eq!(engine.open_alerts(), 0);
        assert!(engine.events().iter().any(|e| e.edge == AlertEdge::Resolve));
    }

    #[test]
    fn burn_rate_window_shorter_than_history_uses_observed_cycles() {
        // Long window of 100 cycles, but only 3 observed, all Red: the
        // fraction is 3/3 over the observed history, so it fires long
        // before the window fills.
        let mut tree = single_zone_tree();
        let mut engine = burn_engine(2, 100, 1.0);
        for _ in 0..3 {
            feed(&mut tree, PowerState::Red, 130.0, 120.0, 1.0);
            engine.evaluate(SimTime::from_secs(tree.facility().cycles), &tree);
        }
        assert!(
            engine.open_alerts() >= 1,
            "all-Red history must fire even before the long window fills"
        );
    }

    #[test]
    fn zero_traffic_window_does_not_fire() {
        // A tree that never observed a cycle (zero traffic) must not
        // fire or divide by zero, whether the engine is evaluated
        // against it or never evaluated at all.
        let tree = single_zone_tree();
        let mut engine = burn_engine(4, 8, 0.25);
        engine.evaluate(SimTime::from_secs(1), &tree);
        assert_eq!(engine.open_alerts(), 0);
        assert_eq!(engine.events().len(), 0);
        assert_eq!(engine.dropped(), 0);
        // Never-evaluated engines have a stable fingerprint too.
        let idle = burn_engine(4, 8, 0.25);
        assert_eq!(idle.fingerprint(), burn_engine(4, 8, 0.25).fingerprint());
    }

    #[test]
    fn cap_overshoot_needs_magnitude_and_duration() {
        let mut tree = single_zone_tree();
        let mut engine = SloEngine::new(
            vec![SloRule::CapOvershoot {
                name: "cap-overshoot",
                margin_fraction: 0.02,
                hold_cycles: 3,
            }],
            1,
            1,
        );
        // Overshoot below the margin: never fires.
        for _ in 0..5 {
            feed(&mut tree, PowerState::Yellow, 121.0, 120.0, 1.0);
            engine.evaluate(SimTime::from_secs(tree.facility().cycles), &tree);
        }
        assert_eq!(engine.open_alerts(), 0);
        // Two big cycles: duration not met. Third: fires — in all
        // three coincident zones of the single-rack tree.
        for i in 0..3 {
            feed(&mut tree, PowerState::Red, 130.0, 120.0, 1.0);
            engine.evaluate(SimTime::from_secs(tree.facility().cycles), &tree);
            let expect = if i == 2 { 3 } else { 0 };
            assert_eq!(engine.open_alerts(), expect, "cycle {i}");
        }
        let open = engine.events().last().unwrap();
        assert_eq!(open.rule, "cap-overshoot");
        assert!((open.value - 10.0).abs() < 1e-9, "overshoot magnitude");
    }

    #[test]
    fn starvation_and_coverage_rules_fire_on_sustained_breach() {
        let map = ZoneMap::new(vec![0, 0]);
        let mut tree = RollupTree::new(map);
        let mut engine = SloEngine::new(
            vec![
                SloRule::CoverageFloor {
                    name: "coverage-floor",
                    floor: 0.6,
                    hold_cycles: 2,
                },
                SloRule::RackStarvation {
                    name: "rack-starvation",
                    floor_fraction: 0.25,
                    hold_cycles: 2,
                },
            ],
            2,
            1,
        );
        // Rack 1 gets 10 W of a 400 W facility budget (fair share 200,
        // floor 50) and facility coverage collapses to 0.3.
        for _ in 0..3 {
            tree.observe_cycle(&CycleObservation {
                rack_state: &[PowerState::Green, PowerState::Red],
                rack_power_w: &[200.0, 30.0],
                rack_budget_w: &[390.0, 10.0],
                rack_coverage: &[1.0, 0.3],
                facility_state: PowerState::Red,
                facility_power_w: 230.0,
                facility_budget_w: 400.0,
                facility_coverage: 0.3,
            });
            engine.evaluate(SimTime::from_secs(tree.facility().cycles), &tree);
        }
        let rules_open: Vec<_> = engine
            .events()
            .iter()
            .filter(|e| e.edge == AlertEdge::Open)
            .map(|e| (e.rule, e.zone))
            .collect();
        assert!(rules_open.contains(&("coverage-floor", ZoneId::Facility)));
        assert!(rules_open.contains(&("rack-starvation", ZoneId::Rack(1))));
        assert!(
            !rules_open.contains(&("rack-starvation", ZoneId::Rack(0))),
            "rack 0 holds nearly the whole budget"
        );
    }

    #[test]
    fn journal_is_bounded_and_fingerprint_replayable() {
        let run = || {
            let mut tree = single_zone_tree();
            let mut engine = burn_engine(1, 1, 0.5);
            // Alternate Red/Green: every cycle flips the rule, two
            // edges per flip pair.
            for i in 0..40u64 {
                let s = if i % 2 == 0 {
                    PowerState::Red
                } else {
                    PowerState::Green
                };
                feed(&mut tree, s, 100.0, 120.0, 1.0);
                engine.evaluate(SimTime::from_secs(i), &tree);
            }
            engine
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.total_edges() >= 40, "flip-flop must emit many edges");
        let text = render_alerts(a.events());
        assert!(text.contains("OPEN"));
        assert!(text.contains("RESOLVE"));
        assert!(text.contains("red-dwell-burn"));
    }
}
