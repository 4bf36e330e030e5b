//! Workspace-level fixtures for the v2 call-graph rules: each new rule
//! gets a positive case (fires, with the full chain in the diagnostic), a
//! negative case (the compliant pattern stays clean), and an allowed case
//! (a justified suppression on the right line silences it and counts as
//! used).
//!
//! These go through [`ppc_lint::scan_units`] — the same multi-pass engine
//! the CLI uses — because the rules only exist at workspace scope: they
//! need the cross-file call graph, not a single-file token scan.

use ppc_lint::{scan_units, FileContext, Rule, WorkspaceScan};

/// Scans a set of (path, source) fixture files as one workspace.
fn scan(files: &[(&str, &str)]) -> WorkspaceScan {
    scan_units(
        files
            .iter()
            .map(|(p, s)| (FileContext::for_path(p), s.to_string()))
            .collect(),
    )
}

/// Lines at which `rule` fired, in order.
fn lines_for(ws: &WorkspaceScan, rule: Rule) -> Vec<usize> {
    ws.diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn fingerprint_taint_fires_across_crates_and_allow_suppresses() {
    let ws = scan(&[
        (
            "crates/core/src/journal_fixture.rs",
            include_str!("fixtures/taint_journal.rs"),
        ),
        (
            "crates/cluster/src/taint_fixture.rs",
            include_str!("fixtures/fingerprint_taint.rs"),
        ),
    ]);
    // `leak` fires at its source line; `harmless` holds a source but
    // reaches no sink; `pinned` is suppressed on the source line.
    assert_eq!(lines_for(&ws, Rule::FingerprintTaint), vec![6]);
    assert_eq!(ws.diagnostics.len(), 1, "{:?}", ws.diagnostics);
    assert_eq!(ws.suppressed, 1);

    // The diagnostic carries the full call chain, hop by hop.
    let d = &ws.diagnostics[0];
    assert_eq!(d.file, "crates/cluster/src/taint_fixture.rs");
    assert!(d.message.contains("available_parallelism"));
    assert!(d.message.contains("cluster::taint_fixture::leak"));
    assert!(d
        .message
        .contains("core::journal_fixture::Journal::record_width"));
    assert!(d.message.contains("called at"));

    // And the structured report mirrors it.
    assert_eq!(ws.taint_paths.len(), 1);
    let p = &ws.taint_paths[0];
    assert_eq!(p.kind, "thread-identity");
    assert_eq!(p.sink_label, "journal fingerprint");
    assert_eq!(p.chain.len(), 2, "source fn plus one hop: {:?}", p.chain);
    assert!(p.ambiguous, "bare method-name resolution is a guess");

    assert_eq!(ws.graph.taint_sinks, 1);
    assert_eq!(ws.graph.taint_sources, 3, "leak, harmless, pinned");
}

#[test]
fn fingerprint_taint_gated_by_crate_class() {
    // The same sources hosted in the telemetry (timing) crate are not
    // live — and the now-pointless allow in `pinned` is flagged stale.
    let ws = scan(&[
        (
            "crates/core/src/journal_fixture.rs",
            include_str!("fixtures/taint_journal.rs"),
        ),
        (
            "crates/telemetry/src/taint_fixture.rs",
            include_str!("fixtures/fingerprint_taint.rs"),
        ),
    ]);
    assert!(lines_for(&ws, Rule::FingerprintTaint).is_empty());
    assert_eq!(
        lines_for(&ws, Rule::UnusedSuppression),
        vec![16],
        "an allow for a rule that cannot fire here is itself stale"
    );
    assert_eq!(ws.suppressed, 0);
}

#[test]
fn shard_join_order_fires_in_closure_and_allow_suppresses() {
    let ws = scan(&[(
        "crates/cluster/src/shard_fixture.rs",
        include_str!("fixtures/shard_join_order.rs"),
    )]);
    // `bad` writes the span inside the fan-out closure; `good` joins
    // first and records serially; `tolerated` carries a justified allow
    // on the offending line.
    assert_eq!(lines_for(&ws, Rule::ShardJoinOrder), vec![19]);
    assert_eq!(ws.diagnostics.len(), 1, "{:?}", ws.diagnostics);
    assert_eq!(ws.suppressed, 1);
    let d = &ws.diagnostics[0];
    assert!(d.message.contains("for_each_mut"));
    assert!(d.message.contains("SpanRecorder::open"));
    assert!(d.message.contains("line 18"), "names the fan-out site");
}

#[test]
fn unused_suppression_flags_stale_allow_only() {
    let ws = scan(&[(
        "crates/core/src/stale_fixture.rs",
        include_str!("fixtures/unused_suppression.rs"),
    )]);
    // `live` suppresses a real unwrap; `stale` covers nothing.
    assert_eq!(lines_for(&ws, Rule::UnusedSuppression), vec![9]);
    assert_eq!(ws.diagnostics.len(), 1, "{:?}", ws.diagnostics);
    assert_eq!(ws.suppressed, 1);
    assert!(ws.diagnostics[0].message.contains("panic-path"));
}

#[test]
fn a_file_pulled_in_by_a_cfg_test_declaration_is_test_code() {
    let parent = include_str!("fixtures/test_mod_parent.rs");
    let child = include_str!("fixtures/test_mod_child.rs");
    let ws = scan(&[
        ("crates/core/src/holder.rs", parent),
        ("crates/core/src/holder/tests.rs", child),
    ]);
    // The child is test code throughout; the attribute covers only the
    // declaration, so the parent's next item is still library code.
    assert_eq!(lines_for(&ws, Rule::PanicPath), vec![11]);
    assert!(
        ws.diagnostics
            .iter()
            .all(|d| d.file == "crates/core/src/holder.rs"),
        "{:?}",
        ws.diagnostics
    );
    // The same file, not declared as a test module, is library code.
    let ws = scan(&[("crates/core/src/holder/tests.rs", child)]);
    assert_eq!(lines_for(&ws, Rule::PanicPath), vec![11]);
}
