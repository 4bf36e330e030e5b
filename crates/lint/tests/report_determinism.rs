//! The linter's own output joins the determinism story: CI diffs
//! `LINT_report.json` across PRs, so two scans of the same tree must
//! serialize byte-identically (BTreeMap ordering, pre-sorted diagnostics,
//! no wall-clock or iteration-order leaks in the report itself).

use ppc_lint::{scan_workspace, Report};
use std::path::Path;

#[test]
fn workspace_report_is_byte_identical_across_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let first = scan_workspace(&root).expect("first workspace scan");
    let second = scan_workspace(&root).expect("second workspace scan");
    let a = Report::from_scan(&first).to_json();
    let b = Report::from_scan(&second).to_json();
    assert_eq!(a, b, "LINT_report.json emission must be byte-stable");
    assert!(a.contains("\"schema\": \"ppc-lint/v3\""));
    // The repo itself must be clean: the CI gate relies on it.
    assert!(first.diagnostics.is_empty(), "{:?}", first.diagnostics);
}
