//! Trace and metrics exporters.
//!
//! Three formats, all rendered from the deterministic recorder state:
//!
//! * **JSONL** — one self-describing JSON object per line (`meta`,
//!   `span`, `metric`, `flight` records) for streaming ingestion and the
//!   CI schema check ([`validate_jsonl`]).
//! * **Chrome `trace_event` JSON** — loadable in Perfetto /
//!   `chrome://tracing` for a visual per-cycle timeline. Sim time has
//!   millisecond resolution while many stage spans open and close within
//!   one tick, so timestamps are synthesized as
//!   `µs = sim_ms × 1000 + intra-tick sequence`: stages nest visibly and
//!   order exactly as recorded.
//! * **Prometheus text** — the classic `# TYPE` + sample lines dump of
//!   the metrics registry.
//!
//! Exporters never mutate recorder state and fingerprints are rendered
//! as fixed-width hex strings (JSON numbers cannot hold all `u64`s).

use crate::hub::{finite_or_zero, HealthPlane};
use crate::metrics::{MetricValue, MetricsRegistry};
use crate::rollup::ZoneStats;
use crate::slo::AlertEdge;
use crate::span::{AttrValue, SpanRecord, SpanRecorder};
use serde::Value;
use std::fmt::Write as _;

/// Renders `value` as compact JSON text.
fn json_text(value: &Value) -> String {
    // ppc-lint: allow(panic-path): serializing the vendored Value type cannot fail
    serde_json::to_string(value).expect("value serialization cannot fail")
}

/// Appends `value` as one JSON line.
fn push_json_line(out: &mut String, value: &Value) {
    out.push_str(&json_text(value));
    out.push('\n');
}

fn attr_value(v: &AttrValue) -> Value {
    match *v {
        AttrValue::U64(x) => serde_json::value_of(&x),
        AttrValue::I64(x) => serde_json::value_of(&x),
        AttrValue::F64(x) => serde_json::value_of(&x),
        AttrValue::Str(s) => Value::String(s.to_string()),
    }
}

fn attrs_object(spans: &SpanRecorder, span: &SpanRecord) -> Value {
    Value::Object(
        spans
            .attrs(span)
            .map(|(k, v)| ((*k).to_string(), attr_value(v)))
            .collect(),
    )
}

/// Synthesized microsecond timestamp of a span's open edge.
fn ts_us(span: &SpanRecord) -> u64 {
    span.start.as_millis() * 1000 + u64::from(span.start_seq)
}

/// Synthesized duration in microseconds (≥ 1 so zero-width stage spans
/// stay visible in trace viewers).
fn dur_us(span: &SpanRecord) -> u64 {
    let end = span.end.as_millis() * 1000 + u64::from(span.end_seq);
    end.saturating_sub(ts_us(span)).max(1)
}

/// Renders the retained spans as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form). Open the file in Perfetto
/// (ui.perfetto.dev) or `chrome://tracing`.
pub fn chrome_trace(spans: &SpanRecorder) -> String {
    let mut events: Vec<Value> = Vec::with_capacity(spans.len() + 1);
    events.push(Value::Object(vec![
        ("ph".into(), Value::String("M".into())),
        ("name".into(), Value::String("process_name".into())),
        ("pid".into(), serde_json::value_of(&1u64)),
        (
            "args".into(),
            Value::Object(vec![(
                "name".into(),
                Value::String("ppc cluster simulation".into()),
            )]),
        ),
    ]));
    for span in spans.iter() {
        events.push(Value::Object(vec![
            ("name".into(), Value::String(span.name.to_string())),
            ("ph".into(), Value::String("X".into())),
            ("ts".into(), serde_json::value_of(&ts_us(span))),
            ("dur".into(), serde_json::value_of(&dur_us(span))),
            ("pid".into(), serde_json::value_of(&1u64)),
            ("tid".into(), serde_json::value_of(&1u64)),
            ("args".into(), attrs_object(spans, span)),
        ]));
    }
    let root = Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::String("ms".into())),
    ]);
    json_text(&root)
}

/// Renders recorder + registry state as a JSONL event stream: a `meta`
/// header line (fingerprints, counts), one `span` line per retained
/// span, and one `metric` line per instrument. [`validate_jsonl`] checks
/// exactly this shape.
pub fn jsonl(spans: &SpanRecorder, metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    let meta = Value::Object(vec![
        ("type".into(), Value::String("meta".into())),
        (
            "span_fingerprint".into(),
            Value::String(format!("{:016x}", spans.fingerprint())),
        ),
        (
            "metrics_fingerprint".into(),
            Value::String(format!("{:016x}", metrics.fingerprint())),
        ),
        ("spans_closed".into(), serde_json::value_of(&spans.closed())),
        (
            "spans_dropped".into(),
            serde_json::value_of(&spans.dropped()),
        ),
        (
            "spans_retained".into(),
            serde_json::value_of(&(spans.len() as u64)),
        ),
    ]);
    push_json_line(&mut out, &meta);
    for span in spans.iter() {
        let line = Value::Object(vec![
            ("type".into(), Value::String("span".into())),
            ("id".into(), serde_json::value_of(&span.id.0)),
            (
                "parent".into(),
                span.parent
                    .map_or(Value::Null, |p| serde_json::value_of(&p.0)),
            ),
            ("name".into(), Value::String(span.name.to_string())),
            (
                "start_ms".into(),
                serde_json::value_of(&span.start.as_millis()),
            ),
            ("end_ms".into(), serde_json::value_of(&span.end.as_millis())),
            ("start_seq".into(), serde_json::value_of(&span.start_seq)),
            ("end_seq".into(), serde_json::value_of(&span.end_seq)),
            ("attrs".into(), attrs_object(spans, span)),
        ]);
        push_json_line(&mut out, &line);
    }
    for dump in metrics.dump() {
        let (kind, value) = match &dump.value {
            MetricValue::Counter(v) => ("counter", serde_json::value_of(v)),
            MetricValue::Gauge(v) => ("gauge", serde_json::value_of(v)),
            MetricValue::Histogram(h) => ("histogram", serde_json::value_of(h)),
        };
        let line = Value::Object(vec![
            ("type".into(), Value::String("metric".into())),
            ("name".into(), Value::String(dump.name)),
            ("kind".into(), Value::String(kind.into())),
            ("value".into(), value),
        ]);
        push_json_line(&mut out, &line);
    }
    out
}

/// Renders the metrics registry in the Prometheus text exposition
/// format (`# HELP` + `# TYPE` headers, `_bucket`/`_sum`/`_count`
/// histogram series with cumulative `le` labels).
pub fn prometheus(metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    for dump in metrics.dump() {
        let name = &dump.name;
        match &dump.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# HELP {name} deterministic ppc counter");
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# HELP {name} deterministic ppc gauge");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# HELP {name} deterministic ppc histogram");
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (bound, count) in h.bounds.iter().zip(&h.counts) {
                    cumulative += count;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
                cumulative += h.counts.last().copied().unwrap_or(0);
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

/// Renders the health plane as Prometheus text with a
/// `{rack="..",row=".."}` label dimension: per-rack and per-row rollup
/// gauges/counters plus a cumulative-bucket (`le`-labeled) histogram of
/// each rack's per-cycle power distribution, straight from its quantile
/// sketch.
pub fn prometheus_health(health: &HealthPlane) -> String {
    let mut out = String::new();
    let tree = health.rollup();
    let map = tree.map();

    let _ = writeln!(
        out,
        "# HELP ppc_rack_power_watts rack power at the latest control cycle"
    );
    let _ = writeln!(out, "# TYPE ppc_rack_power_watts gauge");
    for (r, z) in tree.racks().iter().enumerate() {
        let row = map.row_of(r);
        let _ = writeln!(
            out,
            "ppc_rack_power_watts{{rack=\"{r}\",row=\"{row}\"}} {}",
            z.last_power_w
        );
    }
    let _ = writeln!(
        out,
        "# HELP ppc_rack_budget_watts delegated rack budget at the latest cycle"
    );
    let _ = writeln!(out, "# TYPE ppc_rack_budget_watts gauge");
    for (r, z) in tree.racks().iter().enumerate() {
        let row = map.row_of(r);
        let _ = writeln!(
            out,
            "ppc_rack_budget_watts{{rack=\"{r}\",row=\"{row}\"}} {}",
            z.last_budget_w
        );
    }
    let _ = writeln!(
        out,
        "# HELP ppc_rack_red_dwell_cycles control cycles the rack spent Red"
    );
    let _ = writeln!(out, "# TYPE ppc_rack_red_dwell_cycles counter");
    for (r, z) in tree.racks().iter().enumerate() {
        let row = map.row_of(r);
        let _ = writeln!(
            out,
            "ppc_rack_red_dwell_cycles{{rack=\"{r}\",row=\"{row}\"}} {}",
            z.dwell[2]
        );
    }
    let _ = writeln!(
        out,
        "# HELP ppc_row_power_watts row power at the latest control cycle"
    );
    let _ = writeln!(out, "# TYPE ppc_row_power_watts gauge");
    for (row, z) in tree.rows().iter().enumerate() {
        let _ = writeln!(
            out,
            "ppc_row_power_watts{{row=\"{row}\"}} {}",
            z.last_power_w
        );
    }
    let _ = writeln!(
        out,
        "# HELP ppc_facility_power_watts facility power at the latest cycle"
    );
    let _ = writeln!(out, "# TYPE ppc_facility_power_watts gauge");
    let _ = writeln!(
        out,
        "ppc_facility_power_watts {}",
        tree.facility().last_power_w
    );
    let _ = writeln!(out, "# HELP ppc_alerts_open SLO alerts currently firing");
    let _ = writeln!(out, "# TYPE ppc_alerts_open gauge");
    let _ = writeln!(out, "ppc_alerts_open {}", health.slo().open_alerts());
    let _ = writeln!(
        out,
        "# HELP ppc_alert_edges_total SLO open/resolve edges emitted"
    );
    let _ = writeln!(out, "# TYPE ppc_alert_edges_total counter");
    let _ = writeln!(out, "ppc_alert_edges_total {}", health.slo().total_edges());

    // Labeled cumulative-bucket series from the per-rack power sketch.
    let _ = writeln!(
        out,
        "# HELP ppc_rack_power_dist_watts per-cycle rack power distribution"
    );
    let _ = writeln!(out, "# TYPE ppc_rack_power_dist_watts histogram");
    for (r, z) in tree.racks().iter().enumerate() {
        let row = map.row_of(r);
        let labels = format!("rack=\"{r}\",row=\"{row}\"");
        let mut cumulative = z.power_sketch.low_count();
        for (_, upper, count) in z.power_sketch.buckets() {
            cumulative += count;
            let _ = writeln!(
                out,
                "ppc_rack_power_dist_watts_bucket{{{labels},le=\"{upper}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "ppc_rack_power_dist_watts_bucket{{{labels},le=\"+Inf\"}} {}",
            z.power_sketch.count()
        );
        let _ = writeln!(
            out,
            "ppc_rack_power_dist_watts_sum{{{labels}}} {}",
            z.power_sketch.sum()
        );
        let _ = writeln!(
            out,
            "ppc_rack_power_dist_watts_count{{{labels}}} {}",
            z.power_sketch.count()
        );
    }
    out
}

fn zone_line(kind: &str, index: u64, row: Option<u64>, z: &ZoneStats) -> Value {
    let mut fields = vec![
        ("type".into(), Value::String("zone".into())),
        ("zone".into(), Value::String(kind.into())),
        ("index".into(), serde_json::value_of(&index)),
    ];
    if let Some(row) = row {
        fields.push(("row".into(), serde_json::value_of(&row)));
    }
    fields.extend([
        ("cycles".into(), serde_json::value_of(&z.cycles)),
        ("dwell_green".into(), serde_json::value_of(&z.dwell[0])),
        ("dwell_yellow".into(), serde_json::value_of(&z.dwell[1])),
        ("dwell_red".into(), serde_json::value_of(&z.dwell[2])),
        ("state".into(), Value::String(z.last_state.name().into())),
        ("power_w".into(), serde_json::value_of(&z.last_power_w)),
        ("budget_w".into(), serde_json::value_of(&z.last_budget_w)),
        ("coverage".into(), serde_json::value_of(&z.last_coverage)),
        ("peak_power_w".into(), serde_json::value_of(&z.peak_power_w)),
        (
            "min_headroom_w".into(),
            serde_json::value_of(&finite_or_zero(z.min_headroom_w)),
        ),
        ("min_coverage".into(), serde_json::value_of(&z.min_coverage)),
        (
            "p50_w".into(),
            serde_json::value_of(&z.power_sketch.quantile(0.5).unwrap_or(0.0)),
        ),
        (
            "p99_w".into(),
            serde_json::value_of(&z.power_sketch.quantile(0.99).unwrap_or(0.0)),
        ),
    ]);
    Value::Object(fields)
}

/// Renders the health plane as a JSONL stream: one `health_meta` header
/// (fingerprints, counts), one `zone` line per rack/row/facility
/// rollup, and one `alert` line per journal edge. [`validate_health`]
/// checks exactly this shape; CI runs it over `--health-out` output.
pub fn health_jsonl(health: &HealthPlane) -> String {
    let mut out = String::new();
    let fp = health.fingerprints();
    let report = health.report();
    let meta = Value::Object(vec![
        ("type".into(), Value::String("health_meta".into())),
        (
            "rollup_fingerprint".into(),
            Value::String(format!("{:016x}", fp.rollup)),
        ),
        (
            "sketch_fingerprint".into(),
            Value::String(format!("{:016x}", fp.sketch)),
        ),
        (
            "alert_fingerprint".into(),
            Value::String(format!("{:016x}", fp.alerts)),
        ),
        ("cycles".into(), serde_json::value_of(&report.cycles)),
        ("racks".into(), serde_json::value_of(&report.racks)),
        ("rows".into(), serde_json::value_of(&report.rows)),
        (
            "alert_edges".into(),
            serde_json::value_of(&report.alert_edges),
        ),
        (
            "alerts_open".into(),
            serde_json::value_of(&report.alerts_open),
        ),
        (
            "alerts_dropped".into(),
            serde_json::value_of(&report.alerts_dropped),
        ),
    ]);
    push_json_line(&mut out, &meta);
    let tree = health.rollup();
    let map = tree.map();
    for (r, z) in tree.racks().iter().enumerate() {
        let line = zone_line("rack", r as u64, Some(map.row_of(r) as u64), z);
        push_json_line(&mut out, &line);
    }
    for (row, z) in tree.rows().iter().enumerate() {
        push_json_line(&mut out, &zone_line("row", row as u64, None, z));
    }
    push_json_line(&mut out, &zone_line("facility", 0, None, tree.facility()));
    for e in health.alerts() {
        let edge = match e.edge {
            AlertEdge::Open => "open",
            AlertEdge::Resolve => "resolve",
        };
        let line = Value::Object(vec![
            ("type".into(), Value::String("alert".into())),
            ("seq".into(), serde_json::value_of(&e.seq)),
            ("at_ms".into(), serde_json::value_of(&e.at.as_millis())),
            ("rule".into(), Value::String(e.rule.to_string())),
            ("zone".into(), Value::String(e.zone.label())),
            ("edge".into(), Value::String(edge.into())),
            ("value".into(), serde_json::value_of(&e.value)),
            ("threshold".into(), serde_json::value_of(&e.threshold)),
        ]);
        push_json_line(&mut out, &line);
    }
    out
}

/// Summary returned by a successful [`validate_health`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthJsonlSummary {
    /// `health_meta` header lines seen (must be ≥ 1).
    pub meta_lines: usize,
    /// `zone` lines seen (the header's `racks + rows + 1`).
    pub zone_lines: usize,
    /// `alert` lines seen.
    pub alert_lines: usize,
}

fn require_f64(obj: &Value, key: &str, line_no: usize) -> Result<f64, String> {
    require(obj, key, line_no)?
        .as_f64()
        .ok_or_else(|| format!("line {line_no}: `{key}` must be a number"))
}

/// Schema-checks a health JSONL stream produced by [`health_jsonl`]:
/// besides each record's fields, the `health_meta` header precedes every
/// zone line, the zone lines are the header's `racks + rows + 1`, and
/// each rack's `row` is below the header's `rows`. CI runs this (via the
/// `validate_health` binary) over the faulted smoke experiment's
/// `--health-out` output.
pub fn validate_health(text: &str) -> Result<HealthJsonlSummary, String> {
    let mut summary = HealthJsonlSummary {
        meta_lines: 0,
        zone_lines: 0,
        alert_lines: 0,
    };
    // `(racks, rows)` from the header, which must precede every zone line.
    let mut shape = None;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {line_no}: invalid JSON: {}", e.0))?;
        match require_str(&value, "type", line_no)? {
            "health_meta" => {
                for key in [
                    "rollup_fingerprint",
                    "sketch_fingerprint",
                    "alert_fingerprint",
                ] {
                    let fp = require_str(&value, key, line_no)?;
                    if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return Err(format!("line {line_no}: `{key}` must be 16 hex digits"));
                    }
                }
                for key in ["cycles", "alert_edges", "alerts_dropped"] {
                    require_u64(&value, key, line_no)?;
                }
                shape = Some((
                    require_u64(&value, "racks", line_no)?,
                    require_u64(&value, "rows", line_no)?,
                ));
                summary.meta_lines += 1;
            }
            "zone" => {
                let kind = require_str(&value, "zone", line_no)?;
                if !matches!(kind, "rack" | "row" | "facility") {
                    return Err(format!("line {line_no}: unknown zone kind `{kind}`"));
                }
                let Some((_, rows)) = shape else {
                    return Err(format!(
                        "line {line_no}: zone line before the health_meta header"
                    ));
                };
                if kind == "rack" {
                    let row = require_u64(&value, "row", line_no)?;
                    if row >= rows {
                        return Err(format!(
                            "line {line_no}: rack row {row} >= header rows {rows}"
                        ));
                    }
                }
                for key in [
                    "index",
                    "cycles",
                    "dwell_green",
                    "dwell_yellow",
                    "dwell_red",
                ] {
                    require_u64(&value, key, line_no)?;
                }
                let state = require_str(&value, "state", line_no)?;
                if !matches!(state, "green" | "yellow" | "red") {
                    return Err(format!("line {line_no}: unknown zone state `{state}`"));
                }
                for key in ["power_w", "budget_w", "coverage", "min_coverage"] {
                    require_f64(&value, key, line_no)?;
                }
                let cov = require_f64(&value, "coverage", line_no)?;
                if !(0.0..=1.0).contains(&cov) {
                    return Err(format!("line {line_no}: coverage {cov} outside 0..=1"));
                }
                summary.zone_lines += 1;
            }
            "alert" => {
                require_u64(&value, "seq", line_no)?;
                require_u64(&value, "at_ms", line_no)?;
                if require_str(&value, "rule", line_no)?.is_empty() {
                    return Err(format!("line {line_no}: alert rule must be non-empty"));
                }
                require_str(&value, "zone", line_no)?;
                let edge = require_str(&value, "edge", line_no)?;
                if !matches!(edge, "open" | "resolve") {
                    return Err(format!("line {line_no}: unknown alert edge `{edge}`"));
                }
                require_f64(&value, "value", line_no)?;
                require_f64(&value, "threshold", line_no)?;
                summary.alert_lines += 1;
            }
            other => {
                return Err(format!("line {line_no}: unknown record type `{other}`"));
            }
        }
    }
    let Some((racks, rows)) = shape else {
        return Err("stream has no `health_meta` header line".to_string());
    };
    if summary.zone_lines < 3 {
        return Err(format!(
            "stream has {} zone lines; expected at least rack + row + facility",
            summary.zone_lines
        ));
    }
    if summary.zone_lines as u64 != racks + rows + 1 {
        return Err(format!(
            "stream has {} zone lines; the header's {racks} racks + {rows} rows + facility \
             make {}",
            summary.zone_lines,
            racks + rows + 1
        ));
    }
    Ok(summary)
}

/// Summary returned by a successful [`validate_jsonl`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlSummary {
    /// `meta` header lines seen (must be ≥ 1).
    pub meta_lines: usize,
    /// `span` lines seen.
    pub span_lines: usize,
    /// `metric` lines seen.
    pub metric_lines: usize,
}

fn require<'a>(obj: &'a Value, key: &str, line_no: usize) -> Result<&'a Value, String> {
    match obj.get(key) {
        Some(v) if !v.is_null() => Ok(v),
        _ => Err(format!("line {line_no}: missing required key `{key}`")),
    }
}

fn require_u64(obj: &Value, key: &str, line_no: usize) -> Result<u64, String> {
    require(obj, key, line_no)?
        .as_u64()
        .ok_or_else(|| format!("line {line_no}: `{key}` must be a non-negative integer"))
}

fn require_str<'a>(obj: &'a Value, key: &str, line_no: usize) -> Result<&'a str, String> {
    require(obj, key, line_no)?
        .as_str()
        .ok_or_else(|| format!("line {line_no}: `{key}` must be a string"))
}

/// Schema-checks a JSONL trace stream produced by [`jsonl`]. Returns
/// line-numbered errors on malformed JSON, unknown record types, missing
/// keys or inconsistent span intervals. CI runs this over the smoke
/// experiment's `--trace-out` output.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut summary = JsonlSummary {
        meta_lines: 0,
        span_lines: 0,
        metric_lines: 0,
    };
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {line_no}: invalid JSON: {}", e.0))?;
        match require_str(&value, "type", line_no)? {
            "meta" => {
                for key in ["span_fingerprint", "metrics_fingerprint"] {
                    let fp = require_str(&value, key, line_no)?;
                    if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return Err(format!("line {line_no}: `{key}` must be 16 hex digits"));
                    }
                }
                require_u64(&value, "spans_closed", line_no)?;
                require_u64(&value, "spans_dropped", line_no)?;
                summary.meta_lines += 1;
            }
            "span" => {
                require_u64(&value, "id", line_no)?;
                let name = require_str(&value, "name", line_no)?;
                if name.is_empty() {
                    return Err(format!("line {line_no}: span name must be non-empty"));
                }
                let start = require_u64(&value, "start_ms", line_no)?;
                let end = require_u64(&value, "end_ms", line_no)?;
                if end < start {
                    return Err(format!("line {line_no}: span ends before it starts"));
                }
                if !matches!(value.get("attrs"), Some(Value::Object(_))) {
                    return Err(format!("line {line_no}: `attrs` must be an object"));
                }
                summary.span_lines += 1;
            }
            "metric" => {
                require_str(&value, "name", line_no)?;
                let kind = require_str(&value, "kind", line_no)?;
                if !matches!(kind, "counter" | "gauge" | "histogram") {
                    return Err(format!("line {line_no}: unknown metric kind `{kind}`"));
                }
                require(&value, "value", line_no)?;
                summary.metric_lines += 1;
            }
            other => {
                return Err(format!("line {line_no}: unknown record type `{other}`"));
            }
        }
    }
    if summary.meta_lines == 0 {
        return Err("stream has no `meta` header line".to_string());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::AttrValue;
    use ppc_simkit::SimTime;

    fn sample() -> (SpanRecorder, MetricsRegistry) {
        let mut spans = SpanRecorder::new(64);
        let mut metrics = MetricsRegistry::new();
        spans.open("cycle", SimTime::from_secs(1));
        spans.attr("state", AttrValue::Str("yellow"));
        spans.open("select", SimTime::from_secs(1));
        spans.attr("targets", AttrValue::U64(2));
        spans.close(SimTime::from_secs(1));
        spans.close(SimTime::from_secs(1));
        let c = metrics.counter("commands_applied");
        metrics.inc(c, 2);
        let h = metrics.histogram("selection_size", &[1.0, 4.0]);
        metrics.observe(h, 2.0);
        (spans, metrics)
    }

    #[test]
    fn chrome_trace_is_loadable_json_with_nested_spans() {
        let (spans, _) = sample();
        let text = chrome_trace(&spans);
        let v: Value = serde_json::from_str(&text).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        // Metadata event + two spans.
        assert_eq!(events.len(), 3);
        let select = events
            .iter()
            .find(|e| e["name"].as_str() == Some("select"))
            .unwrap();
        let cycle = events
            .iter()
            .find(|e| e["name"].as_str() == Some("cycle"))
            .unwrap();
        // Child interval strictly inside parent interval → Perfetto nests.
        let (cts, cdur) = (
            cycle["ts"].as_u64().unwrap(),
            cycle["dur"].as_u64().unwrap(),
        );
        let (sts, sdur) = (
            select["ts"].as_u64().unwrap(),
            select["dur"].as_u64().unwrap(),
        );
        assert!(cts < sts && sts + sdur <= cts + cdur);
        assert_eq!(select["args"]["targets"].as_u64(), Some(2));
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let (spans, metrics) = sample();
        let text = jsonl(&spans, &metrics);
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.meta_lines, 1);
        assert_eq!(summary.span_lines, 2);
        assert_eq!(summary.metric_lines, 2);
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        assert!(validate_jsonl("not json").is_err());
        assert!(validate_jsonl("{\"type\":\"mystery\"}").is_err());
        // Span missing name.
        let bad = "{\"type\":\"span\",\"id\":1,\"start_ms\":0,\"end_ms\":0,\"attrs\":{}}";
        let err = validate_jsonl(bad).unwrap_err();
        assert!(err.contains("name"), "unexpected error: {err}");
        // Inverted interval.
        let inverted = "{\"type\":\"span\",\"id\":1,\"name\":\"x\",\"start_ms\":5,\
                        \"end_ms\":1,\"start_seq\":0,\"end_seq\":0,\"attrs\":{}}";
        assert!(validate_jsonl(inverted).is_err());
        // No meta header at all.
        let headless = "{\"type\":\"metric\",\"name\":\"a\",\"kind\":\"counter\",\"value\":1}";
        assert!(validate_jsonl(headless).unwrap_err().contains("meta"));
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets() {
        let (_, metrics) = sample();
        let text = prometheus(&metrics);
        assert!(text.contains("# HELP commands_applied deterministic ppc counter"));
        assert!(text.contains("# TYPE commands_applied counter"));
        assert!(text.contains("commands_applied 2"));
        assert!(text.contains("selection_size_bucket{le=\"1\"} 0"));
        assert!(text.contains("selection_size_bucket{le=\"4\"} 1"));
        assert!(text.contains("selection_size_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("selection_size_count 1"));
        // Every instrument gets a HELP alongside its TYPE.
        assert_eq!(
            text.matches("# HELP").count(),
            text.matches("# TYPE").count()
        );

        // Labeled rollup series: the health exporter emits the same
        // cumulative-bucket discipline under {rack,row} labels.
        let health = sample_health();
        let labeled = prometheus_health(&health);
        assert!(labeled.contains("# TYPE ppc_rack_power_dist_watts histogram"));
        assert!(labeled.contains("ppc_rack_power_watts{rack=\"0\",row=\"0\"}"));
        assert!(labeled.contains("ppc_row_power_watts{row=\"0\"}"));
        let bucket_lines: Vec<&str> = labeled
            .lines()
            .filter(|l| l.starts_with("ppc_rack_power_dist_watts_bucket{rack=\"0\",row=\"0\""))
            .collect();
        assert!(
            bucket_lines.len() >= 2,
            "expected labeled bucket series, got: {labeled}"
        );
        // Buckets are cumulative and end at the +Inf total.
        let counts: Vec<u64> = bucket_lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        let inf = bucket_lines.last().unwrap();
        assert!(inf.contains("le=\"+Inf\""));
        assert!(labeled.contains("ppc_rack_power_dist_watts_count{rack=\"0\",row=\"0\"} 3"));
    }

    fn sample_health() -> HealthPlane {
        use crate::rollup::{CycleObservation, PowerState, ZoneMap};
        let mut health = HealthPlane::new(ZoneMap::single_rack());
        for (i, power) in [100.0, 140.0, 180.0].iter().enumerate() {
            let state = if *power > 150.0 {
                PowerState::Red
            } else {
                PowerState::Green
            };
            health.observe_cycle(
                ppc_simkit::SimTime::from_secs(i as u64),
                &CycleObservation {
                    rack_state: &[state],
                    rack_power_w: &[*power],
                    rack_budget_w: &[160.0],
                    rack_coverage: &[1.0],
                    facility_state: state,
                    facility_power_w: *power,
                    facility_budget_w: 160.0,
                    facility_coverage: 1.0,
                },
            );
        }
        health.observe_node_power(&[25.0, 26.0, 27.0, 28.0]);
        health
    }

    #[test]
    fn health_jsonl_round_trips_through_validator() {
        let health = sample_health();
        let text = health_jsonl(&health);
        let summary = validate_health(&text).expect("generated health JSONL must validate");
        assert_eq!(summary.meta_lines, 1);
        // Single-rack plane: one rack + one row + facility.
        assert_eq!(summary.zone_lines, 3);
        assert_eq!(summary.alert_lines, health.alerts().len());
    }

    #[test]
    fn health_validator_rejects_malformed_streams() {
        assert!(validate_health("not json").is_err());
        assert!(validate_health("{\"type\":\"mystery\"}").is_err());
        // No meta header.
        let headless = "{\"type\":\"alert\",\"seq\":0,\"at_ms\":1,\"rule\":\"r\",\
                        \"zone\":\"facility\",\"edge\":\"open\",\"value\":1.0,\"threshold\":0.5}";
        assert!(validate_health(headless)
            .unwrap_err()
            .contains("health_meta"));
        // Bad fingerprint length.
        let bad_meta = "{\"type\":\"health_meta\",\"rollup_fingerprint\":\"abc\",\
                        \"sketch_fingerprint\":\"0000000000000000\",\
                        \"alert_fingerprint\":\"0000000000000000\",\"cycles\":0,\
                        \"racks\":1,\"rows\":1,\"alert_edges\":0,\"alerts_open\":0,\
                        \"alerts_dropped\":0}";
        assert!(validate_health(bad_meta).unwrap_err().contains("16 hex"));
        // A valid stream mutated to an unknown edge fails.
        let good = health_jsonl(&sample_health());
        let mutated = good.replace("\"open\"", "\"fired\"");
        if mutated != good {
            assert!(validate_health(&mutated).is_err());
        }
    }

    #[test]
    fn health_validator_checks_zone_lines_against_the_header() {
        use crate::rollup::{CycleObservation, PowerState, ZoneMap};
        // Racks 0,1 in row 0; racks 2,3 in row 1: seven zone lines.
        let mut health = HealthPlane::new(ZoneMap::new(vec![0, 0, 1, 1]));
        health.observe_cycle(
            ppc_simkit::SimTime::from_secs(1),
            &CycleObservation {
                rack_state: &[PowerState::Green; 4],
                rack_power_w: &[100.0; 4],
                rack_budget_w: &[150.0; 4],
                rack_coverage: &[1.0; 4],
                facility_state: PowerState::Green,
                facility_power_w: 400.0,
                facility_budget_w: 600.0,
                facility_coverage: 1.0,
            },
        );
        let good = health_jsonl(&health);
        assert_eq!(validate_health(&good).unwrap().zone_lines, 7);
        let lines: Vec<&str> = good.lines().collect();
        let rack_line = lines
            .iter()
            .position(|l| l.contains("\"zone\":\"rack\""))
            .unwrap();
        let mut dropped = lines.clone();
        dropped.remove(rack_line);
        let err = validate_health(&dropped.join("\n")).unwrap_err();
        assert!(err.contains("6 zone lines"), "{err}");
        let bad_row = good.replacen("\"row\":1", "\"row\":2", 1);
        assert_ne!(bad_row, good);
        assert!(validate_health(&bad_row)
            .unwrap_err()
            .contains("header rows 2"));
        let (meta, zones) = good.split_once('\n').unwrap();
        let late_header = format!("{zones}{meta}\n");
        assert!(validate_health(&late_header)
            .unwrap_err()
            .contains("before the health_meta header"));
    }
}
