//! # ppc-obs — deterministic observability for the control stack
//!
//! The paper's control loop (sample → estimate → classify Green/Yellow/
//! Red → select `A_target` → actuate) is exactly the kind of closed loop
//! operators must introspect live at scale. This crate gives the
//! simulator that window while preserving its central invariant:
//! everything recorded is a pure function of the experiment seed, so
//! observability itself is regression-tested for bit-determinism across
//! same-seed runs, evaluation modes and what-if branches.
//!
//! * [`span`] — a zero-alloc-on-hot-path span recorder keyed by sim
//!   time; the cluster layer opens a root span per control cycle and a
//!   child per stage, with typed attributes.
//! * [`metrics`] — a `BTreeMap`-ordered registry of counters, gauges and
//!   fixed-bucket histograms with O(1) handle-based updates.
//! * [`export`] — JSONL, Chrome `trace_event` (Perfetto) and Prometheus
//!   text exporters, plus the JSONL schema validator CI runs.
//! * [`flight`] — a bounded black-box recorder snapshotting the last N
//!   spans + registry on Red-state entry or fault activation.
//! * [`hub`] — the per-simulation bundle ([`ObsHub`]), the serializable
//!   end-of-run [`ObsReport`], and the fleet [`HealthPlane`] with its
//!   [`HealthReport`].
//! * [`rollup`] — the facility → row → rack health rollup tree
//!   (dwell, power, headroom, coverage per zone; O(racks) memory) and
//!   [`PowerState`], the controller's Green/Yellow/Red classification
//!   that `ppc-core` re-exports.
//! * [`sketch`] — the integer-bucketed quantile sketch whose state is
//!   bit-identical in any observation order.
//! * [`slo`] — declarative SLO rules, dual-window burn-rate evaluation
//!   and the deterministic alert journal.
//! * [`profile`] — wall-clock self-cost measurement; the one module
//!   exempt from the no-wall-clock rule, and never fingerprinted.
//!
//! Span-tree, registry, rollup, sketch and alert FNV-1a fingerprints
//! join `Journal::fingerprint` in the tier-1 behaviour pin
//! (`tests/fingerprints.rs`).

pub mod export;
pub mod flight;
pub mod hub;
pub mod metrics;
pub mod profile;
pub mod rollup;
pub mod sketch;
pub mod slo;
pub mod span;

pub use export::{
    chrome_trace, health_jsonl, jsonl, prometheus, prometheus_health, validate_health,
    validate_jsonl, HealthJsonlSummary, JsonlSummary,
};
pub use flight::{FlightRecorder, FlightSnapshot};
pub use hub::{
    HealthFingerprints, HealthPlane, HealthReport, ObsHub, ObsReport, NODE_SKETCH_PERIOD,
};
pub use metrics::{
    CounterHandle, GaugeHandle, HistogramDump, HistogramHandle, MetricDump, MetricValue,
    MetricsRegistry,
};
pub use profile::{StageCost, StageProfiler};
pub use rollup::{CycleObservation, PowerState, RollupTree, ZoneMap, ZoneStats};
pub use sketch::{QuantileSketch, SketchSummary, RELATIVE_ERROR_BOUND};
pub use slo::{default_rules, render_alerts, AlertEdge, AlertEvent, SloEngine, SloRule, ZoneId};
pub use span::{AttrValue, SpanDump, SpanId, SpanRecord, SpanRecorder};
