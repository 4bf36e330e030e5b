//! Metric names and the result every workload returns.

use serde_json::Value;
use std::collections::BTreeMap;

/// A reported metric: name and unit, as listed in `BENCHMARK.json`.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [MetricDef; 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("node_ticks_per_s", "node-ticks/s"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("job_perf", "ratio"),
    ("peak_power_frac", "ratio"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [MetricDef; 39] = [
    ("trace.overhead_frac", "ratio"),
    ("cluster.step_us", "us"),
    ("cluster.untimed_frac", "ratio"),
    ("cluster.dirty_nodes_per_tick", "count"),
    ("cluster.incremental_speedup", "ratio"),
    ("cluster.build_s", "s"),
    ("telemetry.sample_us", "us"),
    ("telemetry.ingest_ns_per_node", "ns"),
    ("core.control_us", "us"),
    ("core.delegate_us", "us"),
    ("core.actuate_us", "us"),
    ("core.commands_per_tick", "count"),
    ("core.commands_issued", "count"),
    ("core.commands_applied", "count"),
    ("core.command_success_ratio", "ratio"),
    ("core.yellow_cycle_frac", "ratio"),
    ("core.red_cycle_frac", "ratio"),
    ("workload.utilization", "ratio"),
    ("workload.jobs_finished_per_tick", "count"),
    ("workload.due_jobs_us_per_job", "us"),
    ("node.run_interval_ns", "ns"),
    ("faults.advance_us", "us"),
    ("faults.jobs_requeued", "count"),
    ("faults.commands_failed", "count"),
    ("obs.health_overhead_frac", "ratio"),
    ("obs.health_node_power_us", "us"),
    ("simkit.journal_events_per_tick", "count"),
    ("simkit.journal_dropped", "count"),
    ("simkit.pool_speedup", "ratio"),
    ("whatif.capture_us", "us"),
    ("whatif.branch_us", "us"),
    ("whatif.evaluate_us.baseline", "us"),
    ("whatif.evaluate_us.admit-jobs", "us"),
    ("whatif.evaluate_us.set-cap", "us"),
    ("whatif.evaluate_us.drop-nodes", "us"),
    ("whatif.evaluate_us.swap-policy", "us"),
    ("whatif.engine_overhead_us", "us"),
    ("metrics.compute_us", "us"),
    ("metrics.overspend", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (ticks, queries or experiments).
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Load-shape assertions that did not hold (each names itself).
    pub shape_errors: Vec<String>,
    /// Metric values by name; a run fills the end-to-end set, a traced
    /// run the per-layer metrics its workload exercises.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Supporting detail for the report line (sample counts, percentiles
    /// picked, simulated results, check tallies).
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a report detail.
    pub fn note(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// Records a load-shape assertion.
    pub fn expect(&mut self, holds: bool, what: String) {
        if !holds {
            self.shape_errors.push(what);
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics` with
/// every name of `defs` (names a workload does not exercise read 0).
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> Value {
    let metrics: Vec<(String, Value)> = defs
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            (
                name.to_string(),
                serde_json::json!({ "value": value, "unit": unit }),
            )
        })
        .collect();
    serde_json::json!({
        "correct": outcome.failed == 0 && outcome.shape_errors.is_empty(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn owned(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 1.5);
        let line = result_line(&o, &END_TO_END);
        let Value::Object(entries) = &line else {
            panic!("object expected")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line["metrics"]["setup_s"]["value"].as_f64(), Some(1.5));
        assert_eq!(line["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(line["correct"].as_bool(), Some(true));
        o.failed = 1;
        assert_eq!(
            result_line(&o, &END_TO_END)["correct"].as_bool(),
            Some(false)
        );
    }
}
