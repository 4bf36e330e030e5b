//! `ppc-lint` — repo-specific determinism & safety static analysis.
//!
//! The whole value of this reproduction rests on bit-identical
//! deterministic simulation: the what-if fan-out is width-invariant, fault
//! schedules replay from a seed, and CI compares journal hashes across
//! runs. Nothing in the compiler prevents a future change from quietly
//! reintroducing nondeterminism (unordered `HashMap` iteration, wall-clock
//! reads, ad-hoc RNG) or panic paths into the control loop — so this crate
//! does, with a hand-rolled line scanner over the workspace source (the
//! build environment has no registry access, so no syn/proc-macro
//! machinery: a small lexer strips comments and string literals, tracks
//! `#[cfg(test)]` regions by brace depth, and matches rule tokens against
//! the remaining code).
//!
//! Every rule is a token rule that fires on the line that introduces the
//! hazard — including `host-read`, which flags thread identity, machine
//! width and environment reads whether or not the value reaches a
//! fingerprint. The workspace scan adds `unused-suppression` on top, for
//! allows that silence nothing. DESIGN.md §11 explains why no call graph
//! is needed.
//!
//! Rules are documented in [`rules::Rule`] and DESIGN.md §11. Every
//! rule has an inline escape hatch:
//!
//! ```text
//! // ppc-lint: allow(panic-path): lock poisoning is unrecoverable here
//! ```
//!
//! placed either on the offending line (trailing comment) or on the line
//! directly above. The justification after the closing parenthesis is
//! mandatory — a bare `allow` is itself a violation (`bare-allow`), so
//! every suppression in the tree documents *why* the invariant does not
//! apply.
//!
//! Run it as `cargo run -p ppc-lint -- --workspace` (add `--json` to also
//! write `LINT_report.json` for trend tracking, like `BENCH_ppc.json`).

pub mod report;
pub mod rules;
pub mod scan;
pub mod source;

pub use report::Report;
pub use rules::{CrateClass, Rule};
pub use scan::{
    scan_source, scan_units, scan_workspace, Diagnostic, FileContext, FileScan, WorkspaceScan,
};
