//! The per-simulation bundle of observability state.
//!
//! [`ObsHub`] packages the span recorder, metrics registry, flight
//! recorder and self-profiler that one simulation owns, so the cluster
//! layer threads a single `&mut` through its stages instead of four.
//! The hub also carries the end-of-run summary ([`ObsReport`]) embedded
//! into `ExperimentOutcome`.

use crate::flight::{FlightRecorder, FlightSnapshot};
use crate::metrics::{MetricDump, MetricsRegistry};
use crate::profile::StageProfiler;
use crate::rollup::{CycleObservation, RollupTree, ZoneMap, ZoneState};
use crate::sketch::{QuantileSketch, SketchSummary};
use crate::slo::{default_rules, AlertEvent, SloEngine};
use crate::span::SpanRecorder;
use ppc_simkit::hash::Fnv1a;
use ppc_simkit::SimTime;
use serde::{Deserialize, Serialize};

/// Default retained completed spans (≈ 500 control cycles of an 8-stage
/// tree — ample for flight-recorder windows and Chrome-trace exports).
///
/// Deliberately sized so the ring (~112 B/record) stays cache-resident:
/// the fingerprint covers *every* span ever closed regardless of
/// retention, and a multi-megabyte ring measurably slowed the managed
/// tick by streaming every close through cold cache lines.
pub const DEFAULT_SPAN_CAPACITY: usize = 4_096;
/// Default flight-recorder snapshot bound.
pub const DEFAULT_FLIGHT_SNAPSHOTS: usize = 8;
/// Default spans captured per flight snapshot.
pub const DEFAULT_FLIGHT_WINDOW: usize = 64;

/// One simulation's observability state. See the module docs.
#[derive(Debug, Clone)]
pub struct ObsHub {
    /// Control-cycle span tree.
    pub spans: SpanRecorder,
    /// Deterministic instruments.
    pub metrics: MetricsRegistry,
    /// Incident snapshots.
    pub flight: FlightRecorder,
    /// Wall-clock self-cost (never fingerprinted).
    pub profile: StageProfiler,
}

impl ObsHub {
    /// A hub with the default capacities.
    pub fn new() -> Self {
        ObsHub {
            spans: SpanRecorder::new(DEFAULT_SPAN_CAPACITY),
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::new(DEFAULT_FLIGHT_SNAPSHOTS, DEFAULT_FLIGHT_WINDOW),
            profile: StageProfiler::new(),
        }
    }

    /// Combined end-of-run summary for serialized reports.
    pub fn report(&self) -> ObsReport {
        ObsReport {
            span_fingerprint: self.spans.fingerprint(),
            metrics_fingerprint: self.metrics.fingerprint(),
            spans_closed: self.spans.closed(),
            spans_dropped: self.spans.dropped(),
            metrics: self.metrics.dump(),
            flight: self.flight.snapshots().to_vec(),
            flight_suppressed: self.flight.suppressed(),
        }
    }
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializable end-of-run observability summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// FNV-1a over every closed span (see `SpanRecorder::fingerprint`).
    pub span_fingerprint: u64,
    /// FNV-1a over the metrics registry.
    pub metrics_fingerprint: u64,
    /// Spans closed over the run.
    pub spans_closed: u64,
    /// Spans evicted by the bounded ring.
    pub spans_dropped: u64,
    /// Final instrument values, in name order.
    pub metrics: Vec<MetricDump>,
    /// Flight-recorder snapshots, in trigger order.
    pub flight: Vec<FlightSnapshot>,
    /// Flight triggers dropped because the recorder was full.
    pub flight_suppressed: u64,
}

/// Ticks between fleet node-power sketch samples. Sketching every node
/// every tick would be O(nodes) on the hot path; sampling every Nth
/// tick keeps the health plane inside its ≤10% overhead budget while
/// the per-rack/per-zone rollups still run every cycle. The cadence is
/// keyed on the deterministic tick index, so it is identical across
/// eval modes and control-plane shapes.
pub const NODE_SKETCH_PERIOD: u64 = 64;

/// Deterministic work counts of one control cycle, used to *model*
/// per-stage control-plane latency. Wall-clock timing can never reach a
/// fingerprint (it lives in [`crate::profile`]), so the stage latency
/// distributions are a fixed cost model over these counts — same
/// shape, zero nondeterminism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageWork {
    /// Node observations ingested this cycle.
    pub samples: u64,
    /// Capping commands issued this cycle.
    pub commands: u64,
    /// Rack shards evaluated this cycle.
    pub racks: u64,
}

/// Modeled stage names, in fold order.
const STAGE_NAMES: [&str; 4] = ["sample", "classify", "actuate", "delegate"];

/// Modeled per-stage latency in microseconds (fixed coefficients ×
/// deterministic work counts; see [`StageWork`]).
fn stage_model_us(stage: usize, work: &StageWork) -> f64 {
    match stage {
        0 => 0.2 + 0.010 * work.samples as f64,
        1 => 0.5 + 0.002 * work.samples as f64,
        2 => 0.3 + 0.050 * work.commands as f64,
        _ => 0.2 + 0.020 * work.racks as f64,
    }
}

/// The three health-plane fingerprints the determinism gate pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthFingerprints {
    /// [`RollupTree::fingerprint`].
    pub rollup: u64,
    /// Combined node-power + per-stage sketch fingerprints.
    pub sketch: u64,
    /// [`SloEngine::fingerprint`].
    pub alerts: u64,
}

/// The fleet health plane: hierarchical rollups, quantile sketches and
/// SLO burn-rate alerting, bundled per simulation. Cloning the plane
/// clones its full state, so what-if snapshots carry health history and
/// branched runs stay bit-identical to fresh ones.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPlane {
    enabled: bool,
    rollup: RollupTree,
    slo: SloEngine,
    node_power: QuantileSketch,
    stages: [QuantileSketch; STAGE_NAMES.len()],
}

impl HealthPlane {
    /// A health plane over the given topology projection, with the
    /// default SLO rule set.
    pub fn new(map: ZoneMap) -> Self {
        let slo = SloEngine::new(default_rules(), map.racks(), map.rows());
        HealthPlane {
            enabled: true,
            rollup: RollupTree::new(map),
            slo,
            node_power: QuantileSketch::new(),
            stages: [
                QuantileSketch::new(),
                QuantileSketch::new(),
                QuantileSketch::new(),
                QuantileSketch::new(),
            ],
        }
    }

    /// Turns observation on or off (bench overhead measurement). A
    /// disabled plane ignores every observe call and keeps its state
    /// frozen.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the plane is observing.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Folds one control cycle into the rollup tree and stage sketches,
    /// then evaluates the SLO rules. Returns the alert-journal length
    /// *before* evaluation; new edges are `alerts()[returned..]`.
    pub fn observe_cycle(
        &mut self,
        now: SimTime,
        obs: &CycleObservation<'_>,
        work: &StageWork,
    ) -> usize {
        if !self.enabled {
            return self.slo.events().len();
        }
        self.rollup.observe_cycle(obs);
        for (i, sketch) in self.stages.iter_mut().enumerate() {
            sketch.observe(stage_model_us(i, work));
        }
        self.slo.evaluate(now, &self.rollup)
    }

    /// Whether the fleet node-power sketch wants a sample this tick.
    pub fn wants_node_sample(&self, tick: u64) -> bool {
        self.enabled && tick.is_multiple_of(NODE_SKETCH_PERIOD)
    }

    /// Observes every node's power, in index order.
    pub fn observe_node_power(&mut self, power_w: &[f64]) {
        if self.enabled {
            self.node_power.observe_slice(power_w);
        }
    }

    /// The rollup tree.
    pub fn rollup(&self) -> &RollupTree {
        &self.rollup
    }

    /// The SLO engine.
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// The fleet node-power sketch.
    pub fn node_power(&self) -> &QuantileSketch {
        &self.node_power
    }

    /// Modeled per-stage latency sketches, `(stage, sketch)` pairs in
    /// fold order.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, &QuantileSketch)> {
        STAGE_NAMES.iter().copied().zip(self.stages.iter())
    }

    /// The alert journal.
    pub fn alerts(&self) -> &[AlertEvent] {
        self.slo.events()
    }

    /// The three gate fingerprints (rollup / sketches / alerts).
    pub fn fingerprints(&self) -> HealthFingerprints {
        let mut h = Fnv1a::new();
        h.write_u64(self.node_power.fingerprint());
        for s in &self.stages {
            h.write_u64(s.fingerprint());
        }
        HealthFingerprints {
            rollup: self.rollup.fingerprint(),
            sketch: h.finish(),
            alerts: self.slo.fingerprint(),
        }
    }

    /// The serializable end-of-run summary.
    pub fn report(&self) -> HealthReport {
        let fp = self.fingerprints();
        let f = self.rollup.facility();
        HealthReport {
            rollup_fingerprint: fp.rollup,
            sketch_fingerprint: fp.sketch,
            alert_fingerprint: fp.alerts,
            cycles: f.cycles,
            racks: self.rollup.racks().len() as u64,
            rows: self.rollup.rows().len() as u64,
            alerts_open: self.slo.open_alerts(),
            alert_edges: self.slo.total_edges(),
            alerts_dropped: self.slo.dropped(),
            red_dwell_fraction: f.dwell_fraction_at_least(ZoneState::Red),
            yellow_dwell_fraction: f.dwell_fraction_at_least(ZoneState::Yellow),
            min_coverage: f.min_coverage,
            min_headroom_w: finite_or_zero(f.min_headroom_w),
            peak_power_w: f.peak_power_w,
            facility_power: f.power_sketch.summary(),
            node_power: self.node_power.summary(),
        }
    }
}

/// JSON cannot carry infinities; empty-run sentinels render as 0.
fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Serializable end-of-run health summary embedded in
/// `ExperimentOutcome`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// FNV-1a over the rollup tree.
    pub rollup_fingerprint: u64,
    /// FNV-1a over the node-power + stage sketches.
    pub sketch_fingerprint: u64,
    /// FNV-1a over the SLO engine (rules, journal, window state).
    pub alert_fingerprint: u64,
    /// Control cycles folded into the facility zone.
    pub cycles: u64,
    /// Rack zones.
    pub racks: u64,
    /// Row zones.
    pub rows: u64,
    /// Alerts still firing at end of run.
    pub alerts_open: u64,
    /// Open/resolve edges ever emitted.
    pub alert_edges: u64,
    /// Edges lost to the journal bound.
    pub alerts_dropped: u64,
    /// Facility cycles spent Red, as a fraction.
    pub red_dwell_fraction: f64,
    /// Facility cycles spent Yellow or Red, as a fraction.
    pub yellow_dwell_fraction: f64,
    /// Worst facility collector coverage seen.
    pub min_coverage: f64,
    /// Worst facility headroom seen (W; 0 when no cycles ran).
    pub min_headroom_w: f64,
    /// Facility peak power (W).
    pub peak_power_w: f64,
    /// Facility per-cycle power distribution.
    pub facility_power: SketchSummary,
    /// Sampled fleet node-power distribution.
    pub node_power: SketchSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::AttrValue;

    #[test]
    fn report_reflects_hub_state() {
        let mut hub = ObsHub::new();
        hub.spans.open("cycle", SimTime::from_secs(1));
        hub.spans.attr("state", AttrValue::Str("red"));
        hub.spans.close(SimTime::from_secs(1));
        let c = hub.metrics.counter("red_entries");
        hub.metrics.inc(c, 1);
        hub.flight
            .trigger(SimTime::from_secs(1), "red-entry", &hub.spans, &hub.metrics);
        let report = hub.report();
        assert_eq!(report.spans_closed, 1);
        assert_eq!(report.span_fingerprint, hub.spans.fingerprint());
        assert_eq!(report.metrics.len(), 1);
        assert_eq!(report.flight.len(), 1);
        let json = serde_json::to_string(&report).unwrap();
        let back: ObsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn health_plane_observes_and_reports() {
        let mut plane = HealthPlane::new(ZoneMap::single_rack());
        let work = StageWork {
            samples: 8,
            commands: 2,
            racks: 1,
        };
        for i in 0..5u64 {
            let state = if i >= 2 {
                ZoneState::Red
            } else {
                ZoneState::Green
            };
            plane.observe_cycle(
                SimTime::from_secs(i),
                &CycleObservation {
                    rack_state: &[state],
                    rack_power_w: &[100.0 + i as f64],
                    rack_budget_w: &[110.0],
                    rack_coverage: &[1.0],
                    facility_state: state,
                    facility_power_w: 100.0 + i as f64,
                    facility_budget_w: 110.0,
                    facility_coverage: 1.0,
                },
                &work,
            );
        }
        assert!(plane.wants_node_sample(0));
        assert!(!plane.wants_node_sample(1));
        plane.observe_node_power(&[12.0, 14.0, 0.0]);
        let report = plane.report();
        assert_eq!(report.cycles, 5);
        assert_eq!(report.node_power.count, 3);
        assert!((report.red_dwell_fraction - 0.6).abs() < 1e-12);
        assert_eq!(report.facility_power.count, 5);
        let json = serde_json::to_string(&report).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn disabled_plane_freezes_every_fingerprint() {
        let mut plane = HealthPlane::new(ZoneMap::single_rack());
        plane.set_enabled(false);
        let before = plane.fingerprints();
        plane.observe_cycle(
            SimTime::from_secs(1),
            &CycleObservation {
                rack_state: &[ZoneState::Red],
                rack_power_w: &[100.0],
                rack_budget_w: &[90.0],
                rack_coverage: &[0.2],
                facility_state: ZoneState::Red,
                facility_power_w: 100.0,
                facility_budget_w: 90.0,
                facility_coverage: 0.2,
            },
            &StageWork::default(),
        );
        plane.observe_node_power(&[50.0]);
        assert!(!plane.wants_node_sample(0));
        assert_eq!(plane.fingerprints(), before);
    }
}
