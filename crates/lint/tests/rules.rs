//! One fixture per rule: each asserts the rule fires at the expected
//! lines, that a justified `// ppc-lint: allow(<rule>): reason` suppresses
//! it, and (where relevant) that class/context gating exempts the file.
//! The mutation corpus pins that every nondeterminism source it holds is
//! caught by a token rule on its own line, and the workspace-level tests
//! go through [`ppc_lint::scan_units`], the engine the CLI uses.
//!
//! Fixtures live under `tests/fixtures/` — outside any `src/` tree — so
//! the workspace scan never picks them up.

use ppc_lint::{scan_source, scan_units, Diagnostic, FileContext, FileScan, Rule, WorkspaceScan};
use std::process::{Command, Output};

/// Context for a library file inside the named crate.
fn lib_ctx(crate_name: &str) -> FileContext {
    FileContext {
        path: format!("crates/{crate_name}/src/fixture.rs"),
        crate_name: crate_name.to_string(),
        is_binary: false,
    }
}

/// Context for a binary target inside the named crate.
fn bin_ctx(crate_name: &str) -> FileContext {
    FileContext {
        path: format!("crates/{crate_name}/src/main.rs"),
        crate_name: crate_name.to_string(),
        is_binary: true,
    }
}

/// Scans a set of (path, source) fixture files as one workspace.
fn scan(files: &[(&str, &str)]) -> WorkspaceScan {
    scan_units(
        files
            .iter()
            .map(|(p, s)| (FileContext::for_path(p), s.to_string()))
            .collect(),
    )
}

/// A file scan or a workspace scan: both carry sorted diagnostics.
trait Findings {
    fn findings(&self) -> &[Diagnostic];
}

impl Findings for FileScan {
    fn findings(&self) -> &[Diagnostic] {
        &self.diagnostics
    }
}

impl Findings for WorkspaceScan {
    fn findings(&self) -> &[Diagnostic] {
        &self.diagnostics
    }
}

/// Lines at which `rule` fired, in order.
fn lines_for(scan: &impl Findings, rule: Rule) -> Vec<usize> {
    scan.findings()
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn unordered_collections_fires_and_allow_suppresses() {
    let src = include_str!("fixtures/unordered_collections.rs");
    let scan = scan_source(&lib_ctx("core"), src);
    // Fires on the import, the signature, and inside the test module
    // (determinism rules apply to test code too); BTreeMap stays clean.
    assert_eq!(lines_for(&scan, Rule::UnorderedCollections), vec![3, 9, 15]);
    assert_eq!(scan.diagnostics.len(), 3);
    assert_eq!(scan.suppressed, 1);
}

#[test]
fn wall_clock_fires_and_allow_suppresses() {
    let src = include_str!("fixtures/wall_clock.rs");
    let scan = scan_source(&lib_ctx("core"), src);
    // Mentions in comments and string literals never fire.
    assert_eq!(lines_for(&scan, Rule::WallClock), vec![3, 6]);
    assert_eq!(scan.diagnostics.len(), 2);
    assert_eq!(scan.suppressed, 1);
}

#[test]
fn wall_clock_exempts_timing_crates() {
    let src = include_str!("fixtures/wall_clock.rs");
    let scan = scan_source(&lib_ctx("telemetry"), src);
    // The telemetry crate is the timing boundary — wall-clock reads are
    // its job, so neither the violations nor the suppression register.
    assert!(scan.diagnostics.is_empty());
    assert_eq!(scan.suppressed, 0);
}

#[test]
fn ad_hoc_rng_fires_and_allow_suppresses() {
    let src = include_str!("fixtures/ad_hoc_rng.rs");
    let scan = scan_source(&lib_ctx("core"), src);
    assert_eq!(lines_for(&scan, Rule::AdHocRng), vec![4, 5, 6]);
    assert_eq!(scan.diagnostics.len(), 3);
    assert_eq!(scan.suppressed, 1);
}

#[test]
fn panic_path_fires_and_allow_suppresses() {
    let src = include_str!("fixtures/panic_path.rs");
    let scan = scan_source(&lib_ctx("core"), src);
    // `.unwrap_or(0)` is total and stays clean; the `#[cfg(test)]` module
    // is exempt — tests may panic.
    assert_eq!(lines_for(&scan, Rule::PanicPath), vec![4, 5, 7]);
    assert_eq!(scan.diagnostics.len(), 3);
    assert_eq!(scan.suppressed, 1);
}

#[test]
fn stdout_fires_in_libraries_and_allow_suppresses() {
    let src = include_str!("fixtures/stdout.rs");
    let scan = scan_source(&lib_ctx("core"), src);
    // The `#[cfg(test)]` println stays clean — tests may print.
    assert_eq!(lines_for(&scan, Rule::Stdout), vec![4, 5, 6]);
    assert_eq!(scan.diagnostics.len(), 3);
    assert_eq!(scan.suppressed, 1);
}

#[test]
fn stdout_exempts_binaries() {
    let src = include_str!("fixtures/stdout.rs");
    let scan = scan_source(&bin_ctx("core"), src);
    // Binary targets own the terminal: no hits, so the allow directive
    // has nothing to suppress either.
    assert!(scan.diagnostics.is_empty());
    assert_eq!(scan.suppressed, 0);
}

#[test]
fn float_eq_fires_in_power_math_and_allow_suppresses() {
    let src = include_str!("fixtures/float_eq.rs");
    let scan = scan_source(&lib_ctx("core"), src);
    // Ordered comparisons (`<=`), integer equality, and `0..10` ranges
    // all stay clean.
    assert_eq!(lines_for(&scan, Rule::FloatEq), vec![4, 5]);
    assert_eq!(scan.diagnostics.len(), 2);
    assert_eq!(scan.suppressed, 1);
}

#[test]
fn float_eq_scoped_to_power_model_crates() {
    let src = include_str!("fixtures/float_eq.rs");
    let scan = scan_source(&lib_ctx("simkit"), src);
    // simkit is deterministic but holds no power/budget arithmetic, so
    // the rule does not apply there.
    assert!(scan.diagnostics.is_empty());
    assert_eq!(scan.suppressed, 0);
}

#[test]
fn bare_allow_fires_on_missing_reason_and_unknown_rule() {
    let src = include_str!("fixtures/bare_allow.rs");
    let scan = scan_source(&lib_ctx("core"), src);
    // Line 4: allow(panic-path) with no reason; line 6: unknown rule id.
    assert_eq!(lines_for(&scan, Rule::BareAllow), vec![4, 6]);
    assert_eq!(scan.diagnostics.len(), 2);
    // The bare allow is still honored so CI reports only the bare-allow
    // finding, not the underlying unwrap as well.
    assert_eq!(scan.suppressed, 1);
    assert!(scan.diagnostics[1].message.contains("no-such-rule"));
}

#[test]
fn mutation_corpus_rows_each_raise_a_token_rule_on_their_line() {
    // Six ways to feed a host- or order-dependent value to a fingerprint
    // sink. Each is caught where it is read; rule ids are compared as
    // strings so the check also runs against a lint without `host-read`.
    let src = include_str!("fixtures/mutation_corpus.rs");
    let scan = scan_source(&lib_ctx("cluster"), src);
    let fired: Vec<(usize, &str)> = scan
        .diagnostics
        .iter()
        .map(|d| (d.line, d.rule.id()))
        .collect();
    assert_eq!(
        fired,
        vec![
            (6, "unordered-collections"),
            (7, "wall-clock"),
            (8, "ad-hoc-rng"),
            (9, "host-read"),
            (10, "host-read"),
            (11, "host-read"),
        ]
    );
}

#[test]
fn host_read_fires_and_allow_suppresses() {
    let src = include_str!("fixtures/host_read.rs");
    // Deterministic and obs library files alike; the read inside the
    // `#[cfg(test)]` module (line 17) stays clean.
    for ctx in [
        lib_ctx("core"),
        FileContext::for_path("crates/obs/src/span.rs"),
    ] {
        let scan = scan_source(&ctx, src);
        assert_eq!(
            lines_for(&scan, Rule::HostRead),
            vec![4, 5, 6],
            "{}",
            ctx.path
        );
        assert_eq!(scan.diagnostics.len(), 3, "{}", ctx.path);
        assert_eq!(scan.suppressed, 1, "{}", ctx.path);
    }
}

#[test]
fn host_read_exempts_binaries_bench_and_the_obs_profiler_thread_reads() {
    let src = include_str!("fixtures/host_read.rs");
    // A binary parses its own arguments and sizes its own threads; the
    // bench crate times runs on the host it measures.
    for ctx in [bin_ctx("core"), lib_ctx("bench")] {
        let scan = scan_source(&ctx, src);
        assert!(scan.diagnostics.is_empty(), "{}", ctx.path);
        assert_eq!(scan.suppressed, 0, "{}", ctx.path);
    }
    // The obs self-profiler may look at its own threads, but not read
    // the environment.
    let scan = scan_source(&FileContext::for_path("crates/obs/src/profile.rs"), src);
    assert_eq!(lines_for(&scan, Rule::HostRead), vec![6]);
    assert_eq!(scan.diagnostics.len(), 1);
    assert_eq!(scan.suppressed, 1, "the allowed env::args still counts");
}

/// Runs the CLI over one fixture file, with or without `--deny`.
fn lint_fixture(file: &str, deny: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ppc-lint"));
    cmd.arg("--root")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/tests"));
    if deny {
        cmd.arg("--deny");
    }
    cmd.arg(file).output().expect("ppc-lint runs")
}

#[test]
fn stale_host_read_allow_is_flagged_and_fails_under_deny() {
    let advisory = lint_fixture("fixtures/host_read_stale.rs", false);
    let stdout = String::from_utf8_lossy(&advisory.stdout);
    assert!(
        stdout.contains("fixtures/host_read_stale.rs:3: [unused-suppression] allow(host-read)"),
        "{stdout}"
    );
    assert_eq!(advisory.status.code(), Some(0), "advisory without --deny");
    assert_eq!(
        lint_fixture("fixtures/host_read_stale.rs", true)
            .status
            .code(),
        Some(1)
    );
    // The live allow in the library fixture is not stale.
    let ws = scan(&[(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/host_read.rs"),
    )]);
    assert!(lines_for(&ws, Rule::UnusedSuppression).is_empty());
    assert_eq!(ws.suppressed, 1);
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
