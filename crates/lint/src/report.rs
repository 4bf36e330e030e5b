//! Rendering: human-readable diagnostics and the machine-readable
//! `LINT_report.json` (rule → count → files) used to track the violation
//! trajectory across PRs, like `BENCH_ppc.json` tracks performance.
//!
//! Schema `ppc-lint/v3` holds files scanned, violation and suppression
//! totals, and the per-rule tallies. Output is byte-deterministic: all
//! maps are `BTreeMap`, and diagnostics arrive pre-sorted from the
//! scanner.

use crate::rules::Rule;
use crate::scan::WorkspaceScan;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-rule tally.
#[derive(Debug, Clone, Serialize)]
pub struct RuleReport {
    /// Unsuppressed violations of this rule.
    pub count: usize,
    /// File → violation count, sorted by path.
    pub files: BTreeMap<String, usize>,
}

/// The full machine-readable report.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Format tag for downstream tooling.
    pub schema: String,
    /// Files the scanner covered.
    pub files_scanned: usize,
    /// Total unsuppressed violations (CI gate: must be zero).
    pub violations: usize,
    /// Findings silenced by a justified `allow(...)`.
    pub suppressed: usize,
    /// Rule id → tally, sorted by rule id. Rules with zero violations are
    /// included so trend diffs show rules going *to* zero, not vanishing.
    pub rules: BTreeMap<String, RuleReport>,
}

impl Report {
    /// Builds the report from a workspace scan.
    pub fn from_scan(scan: &WorkspaceScan) -> Report {
        let mut rules: BTreeMap<String, RuleReport> = Rule::ALL
            .iter()
            .map(|r| {
                (
                    r.id().to_string(),
                    RuleReport {
                        count: 0,
                        files: BTreeMap::new(),
                    },
                )
            })
            .collect();
        for d in &scan.diagnostics {
            if let Some(entry) = rules.get_mut(d.rule.id()) {
                entry.count += 1;
                *entry.files.entry(d.file.clone()).or_insert(0) += 1;
            }
        }
        Report {
            schema: "ppc-lint/v3".to_string(),
            files_scanned: scan.files_scanned,
            violations: scan.diagnostics.len(),
            suppressed: scan.suppressed,
            rules,
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Renders diagnostics plus a summary line for terminal output.
pub fn render_text(scan: &WorkspaceScan) -> String {
    let mut out = String::new();
    for d in &scan.diagnostics {
        let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
    }
    let _ = writeln!(
        out,
        "ppc-lint: {} file(s), {} violation(s), {} suppression(s)",
        scan.files_scanned,
        scan.diagnostics.len(),
        scan.suppressed
    );
    out
}

/// Renders the rule catalogue for `--list-rules`.
pub fn render_rules() -> String {
    let mut out = String::new();
    for rule in Rule::ALL {
        let _ = writeln!(out, "{:22} {}", rule.id(), rule.summary());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::Diagnostic;

    #[test]
    fn report_tallies_by_rule_and_file() {
        let scan = WorkspaceScan {
            diagnostics: vec![
                Diagnostic {
                    file: "crates/core/src/a.rs".into(),
                    line: 1,
                    rule: Rule::PanicPath,
                    message: "x".into(),
                },
                Diagnostic {
                    file: "crates/core/src/a.rs".into(),
                    line: 2,
                    rule: Rule::PanicPath,
                    message: "y".into(),
                },
            ],
            suppressed: 3,
            files_scanned: 10,
        };
        let report = Report::from_scan(&scan);
        assert_eq!(report.violations, 2);
        assert_eq!(report.suppressed, 3);
        let pp = &report.rules["panic-path"];
        assert_eq!(pp.count, 2);
        assert_eq!(pp.files["crates/core/src/a.rs"], 2);
        assert_eq!(report.rules["wall-clock"].count, 0, "zero rules present");
        assert_eq!(report.rules["host-read"].count, 0, "every rule present");
        assert_eq!(report.rules.len(), Rule::ALL.len());
        let json = report.to_json();
        assert!(json.contains("\"panic-path\""));
        assert!(json.contains("\"schema\": \"ppc-lint/v3\""));
        assert!(!json.contains("\"call_graph\""));
    }

    #[test]
    fn text_rendering_is_stable() {
        let scan = WorkspaceScan {
            diagnostics: vec![],
            suppressed: 0,
            files_scanned: 2,
        };
        let text = render_text(&scan);
        assert!(text.contains("2 file(s), 0 violation(s)"));
        assert!(render_rules().contains("unordered-collections"));
        assert!(render_rules().contains("host-read"));
    }
}
