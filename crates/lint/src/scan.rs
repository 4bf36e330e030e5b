//! The scanner: applies [`Rule`]s to analyzed source lines, honors
//! `// ppc-lint: allow(rule): reason` directives, and walks the workspace.
//!
//! Scanning is a multi-pass pipeline (v2):
//!
//! 1. per-file token pass (the original line scanner), which also
//!    collects every `allow` directive as an [`AllowSite`];
//! 2. item parse + call-graph build ([`crate::items`], [`crate::graph`]);
//! 3. the determinism-taint and shard-join-order passes
//!    ([`crate::taint`]), whose suppressions attach to source lines;
//! 4. an unused-suppression sweep over every justified allow that ended
//!    the run with zero uses.

use crate::graph::{self, FileUnit};
use crate::rules::{CrateClass, Rule};
use crate::source;
use crate::taint;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where a file sits in the workspace — determines which rules apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path (used in diagnostics and reports).
    pub path: String,
    /// Owning crate's short name (`core`, `simkit`, … or `ppc` for the
    /// root facade).
    pub crate_name: String,
    /// True for binary targets (`main.rs`, `src/bin/*`): allowed to print.
    pub is_binary: bool,
}

impl FileContext {
    /// Builds the context for a workspace-relative path.
    pub fn for_path(rel: &str) -> FileContext {
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("ppc")
            .to_string();
        let is_binary =
            rel.ends_with("/main.rs") || rel == "src/main.rs" || rel.contains("/src/bin/");
        FileContext {
            path: rel.to_string(),
            crate_name,
            is_binary,
        }
    }

    fn class(&self) -> CrateClass {
        CrateClass::of(&self.crate_name)
    }

    /// The one file in the `obs` crate allowed to read wall clocks: the
    /// self-profiler measures real recording cost the same way
    /// `telemetry`'s cost meter does, and its output never joins the
    /// determinism fingerprints.
    fn is_obs_profile(&self) -> bool {
        self.path == "crates/obs/src/profile.rs"
    }

    /// Hot-path modules of the incremental tick core: the SoA node
    /// columns and the simkit time wheel run inside every simulation
    /// tick, where a wall-clock read or an unordered collection would
    /// both cost cycles and threaten replay determinism. For these files
    /// the two rules are *not suppressable* — an `allow` directive is
    /// ignored and the finding reported anyway.
    fn is_hot_path(&self) -> bool {
        matches!(
            self.path.as_str(),
            "crates/cluster/src/columns.rs" | "crates/simkit/src/wheel.rs"
        )
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What matched and why it matters.
    pub message: String,
}

/// One `allow(rule)` directive found in a file, with its use count.
#[derive(Debug, Clone)]
pub struct AllowSite {
    /// 1-based line of the directive comment.
    pub line: usize,
    /// 1-based code line the directive attaches to (the directive's own
    /// line for trailing comments, the next code line otherwise).
    pub code_line: usize,
    /// The rule it suppresses.
    pub rule: Rule,
    /// True when a justification follows the closing parenthesis.
    pub justified: bool,
    /// How many findings this directive silenced, across all passes.
    pub used: usize,
}

/// Result of scanning one file.
#[derive(Debug, Clone, Default)]
pub struct FileScan {
    /// Unsuppressed findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a justified `allow`.
    pub suppressed: usize,
    /// Every allow directive in the file, with token-pass use counts.
    pub allows: Vec<AllowSite>,
}

/// One reported source→sink taint path (structured for the JSON report).
#[derive(Debug, Clone)]
pub struct TaintPathReport {
    /// Source kind id (e.g. `wall-clock`).
    pub kind: String,
    /// The matched source token.
    pub token: String,
    /// File and line of the source.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Fully qualified source fn.
    pub source_fn: String,
    /// Fully qualified sink fn and its sink label.
    pub sink_fn: String,
    /// What fingerprint the sink feeds.
    pub sink_label: String,
    /// Rendered call chain, source to sink: `fq (file:line)` per hop.
    pub chain: Vec<String>,
    /// True if any hop came from ambiguous method resolution.
    pub ambiguous: bool,
}

/// Call-graph size statistics for the report.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Function items recovered.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Edges from ambiguous method resolution.
    pub ambiguous_edges: usize,
    /// Live taint sources detected.
    pub taint_sources: usize,
    /// Fingerprint sink fns detected.
    pub taint_sinks: usize,
}

/// Result of scanning the whole workspace.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceScan {
    /// Findings across all files, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Total justified suppressions (token and graph passes).
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Call-graph statistics.
    pub graph: GraphStats,
    /// Unsuppressed taint paths, in diagnostic order.
    pub taint_paths: Vec<TaintPathReport>,
}

/// A parsed `ppc-lint:` directive.
enum Directive {
    Allow(Rule),
    BareAllow(Rule),
    Unknown(String),
}

/// Extracts the directives from one line's comment text. A directive must
/// *start* the comment (`// ppc-lint: allow(rule): reason`) so prose that
/// merely mentions the syntax never registers as one.
fn parse_directives(comment: &str) -> Vec<Directive> {
    let mut out = Vec::new();
    let Some(rest) = comment.trim_start().strip_prefix("ppc-lint:") else {
        return out;
    };
    let body = rest.trim_start();
    let parsed = body.strip_prefix("allow(").and_then(|args| {
        let close = args.find(')')?;
        Some((&args[..close], args[close + 1..].trim_start()))
    });
    let Some((names, after)) = parsed else {
        out.push(Directive::Unknown(body.chars().take(40).collect()));
        return out;
    };
    let has_reason = after
        .strip_prefix(':')
        .is_some_and(|r| !r.trim().is_empty());
    for name in names.split(',') {
        let name = name.trim();
        match Rule::from_id(name) {
            Some(rule) if has_reason => out.push(Directive::Allow(rule)),
            Some(rule) => out.push(Directive::BareAllow(rule)),
            None => out.push(Directive::Unknown(name.to_string())),
        }
    }
    out
}

/// True if the byte at `i` starts token `tok` with a non-identifier char
/// (or line start) before it.
pub(crate) fn token_at(code: &str, tok: &str) -> bool {
    let mut from = 0;
    while let Some(at) = code[from..].find(tok) {
        let i = from + at;
        // A token starting with a non-identifier char (e.g. `.unwrap()`)
        // is left-delimited by construction.
        let bounded_left = tok.starts_with(|c: char| !c.is_alphanumeric() && c != '_')
            || i == 0
            || code[..i]
                .chars()
                .next_back()
                .is_some_and(|c| !c.is_alphanumeric() && c != '_');
        if bounded_left {
            // Right boundary only matters for pure-identifier tokens.
            let end = i + tok.len();
            let bounded_right = tok.ends_with(|c: char| !c.is_alphanumeric() && c != '_')
                || code[end..]
                    .chars()
                    .next()
                    .is_none_or(|c| !c.is_alphanumeric() && c != '_');
            if bounded_right {
                return true;
            }
        }
        from = i + tok.len().max(1);
    }
    false
}

/// Tokens per rule (matched against comment- and string-stripped code).
fn match_rule(rule: Rule, code: &str) -> Option<&'static str> {
    let tokens: &[&'static str] = match rule {
        Rule::UnorderedCollections => &["HashMap", "HashSet"],
        Rule::WallClock => &["Instant::now", "SystemTime", "UNIX_EPOCH"],
        Rule::AdHocRng => &["thread_rng", "from_entropy", "rand::random", "OsRng"],
        Rule::PanicPath => &[
            ".unwrap()",
            ".expect(",
            "panic!",
            "todo!",
            "unimplemented!",
            "unreachable!",
        ],
        Rule::Stdout => &["println!", "eprintln!", "print!", "eprint!", "dbg!"],
        Rule::FloatEq
        | Rule::BareAllow
        | Rule::FingerprintTaint
        | Rule::ShardJoinOrder
        | Rule::UnusedSuppression => &[],
    };
    tokens.iter().find(|t| token_at(code, t)).copied()
}

/// Crates whose arithmetic the `float-eq` rule guards (the power model
/// and the budget/threshold math).
fn in_float_eq_scope(crate_name: &str) -> bool {
    matches!(crate_name, "core" | "node")
}

/// Heuristic: does this comparison line put a float literal on either
/// side of `==`/`!=`?
fn float_eq_hit(code: &str) -> bool {
    let b: Vec<char> = code.chars().collect();
    for i in 0..b.len().saturating_sub(1) {
        let pair = (b[i], b[i + 1]);
        if pair != ('=', '=') && pair != ('!', '=') {
            continue;
        }
        // Exclude <=, >=, ==- chains, != inside `!==`-like runs, and `=>`.
        if b[i] == '='
            && i > 0
            && matches!(
                b[i - 1],
                '<' | '>' | '=' | '!' | '+' | '-' | '*' | '/' | '%'
            )
        {
            continue;
        }
        if b.get(i + 2) == Some(&'=') {
            continue;
        }
        let left: String = operand(&b[..i], true);
        let right: String = operand(&b[i + 2..], false);
        if has_float_literal(&left) || has_float_literal(&right) {
            return true;
        }
    }
    false
}

/// The operand window next to a comparison: chars up to the nearest
/// expression delimiter.
fn operand(chars: &[char], from_end: bool) -> String {
    let stop = |c: &char| matches!(c, ';' | ',' | '{' | '}' | '(' | ')' | '[' | ']' | '&' | '|');
    if from_end {
        let it: Vec<char> = chars
            .iter()
            .rev()
            .take_while(|c| !stop(c))
            .copied()
            .collect();
        it.into_iter().rev().collect()
    } else {
        chars.iter().take_while(|c| !stop(c)).collect()
    }
}

/// True if `s` contains a float literal like `1.0`, `0.93`, `2.5e3`.
fn has_float_literal(s: &str) -> bool {
    let b: Vec<char> = s.chars().collect();
    for i in 0..b.len() {
        if !b[i].is_ascii_digit() || b.get(i + 1) != Some(&'.') {
            continue;
        }
        // `0..n` range and `x.0.1` tuple chains are not floats.
        if b.get(i + 2) == Some(&'.') {
            continue;
        }
        // Walk back over the digit run; a preceding `.` or identifier char
        // means tuple access (`x.0`) or an ident suffix, not a literal.
        let mut j = i;
        while j > 0 && (b[j - 1].is_ascii_digit() || b[j - 1] == '_') {
            j -= 1;
        }
        if j > 0 && (b[j - 1] == '.' || b[j - 1].is_alphanumeric() || b[j - 1] == '_') {
            continue;
        }
        if b.get(i + 2)
            .is_none_or(|c| c.is_ascii_digit() || c.is_whitespace() || *c == ')')
        {
            return true;
        }
    }
    false
}

/// Scans one file's analyzed lines under the given context (token pass).
fn scan_lines(ctx: &FileContext, lines: &[source::Line]) -> FileScan {
    let class = ctx.class();
    let mut out = FileScan::default();
    // Indices into `out.allows` still waiting for their code line.
    let mut pending: Vec<usize> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let mut here: Vec<usize> = Vec::new();
        for d in parse_directives(&line.comment) {
            match d {
                Directive::Allow(rule) => {
                    here.push(out.allows.len());
                    out.allows.push(AllowSite {
                        line: lineno,
                        code_line: lineno,
                        rule,
                        justified: true,
                        used: 0,
                    });
                }
                Directive::BareAllow(rule) => {
                    out.diagnostics.push(Diagnostic {
                        file: ctx.path.clone(),
                        line: lineno,
                        rule: Rule::BareAllow,
                        message: format!(
                            "allow({}) without a justification — write \
                             `ppc-lint: allow({}): <why>`",
                            rule.id(),
                            rule.id()
                        ),
                    });
                    // Still honored so CI shows only the bare-allow.
                    here.push(out.allows.len());
                    out.allows.push(AllowSite {
                        line: lineno,
                        code_line: lineno,
                        rule,
                        justified: false,
                        used: 0,
                    });
                }
                Directive::Unknown(name) => {
                    out.diagnostics.push(Diagnostic {
                        file: ctx.path.clone(),
                        line: lineno,
                        rule: Rule::BareAllow,
                        message: format!("unknown ppc-lint rule `{name}` in allow directive"),
                    });
                }
            }
        }

        if line.code.trim().is_empty() {
            // Comment-only line: directives carry to the next code line.
            pending.append(&mut here);
            continue;
        }
        let attached: Vec<usize> = pending.drain(..).chain(here).collect();
        for &site in &attached {
            out.allows[site].code_line = lineno;
        }

        for rule in Rule::ALL {
            if rule == Rule::BareAllow || !rule.applies_to(class) {
                continue;
            }
            if line.in_test && !rule.applies_in_tests() {
                continue;
            }
            let hit: Option<String> = match rule {
                Rule::FloatEq => (in_float_eq_scope(&ctx.crate_name) && float_eq_hit(&line.code))
                    .then(|| "float-literal equality comparison".to_string()),
                Rule::Stdout if ctx.is_binary => None,
                Rule::WallClock if ctx.is_obs_profile() => None,
                _ => match_rule(rule, &line.code).map(|tok| format!("`{tok}`")),
            };
            let Some(what) = hit else { continue };
            let unsuppressable =
                ctx.is_hot_path() && matches!(rule, Rule::WallClock | Rule::UnorderedCollections);
            let allow = attached
                .iter()
                .copied()
                .find(|&s| out.allows[s].rule == rule);
            if let Some(site) = allow.filter(|_| !unsuppressable) {
                out.allows[site].used += 1;
                out.suppressed += 1;
            } else {
                let note = if unsuppressable {
                    " (hot-path module: allow directives are ignored here)"
                } else {
                    ""
                };
                out.diagnostics.push(Diagnostic {
                    file: ctx.path.clone(),
                    line: lineno,
                    rule,
                    message: format!("{what}: {}{note}", rule.summary()),
                });
            }
        }
    }
    out
}

/// Scans one file's source text under the given context (token pass
/// only — the call-graph passes need the whole workspace; see
/// [`scan_units`]).
pub fn scan_source(ctx: &FileContext, text: &str) -> FileScan {
    scan_lines(ctx, &source::analyze(text))
}

/// Collects every `.rs` file the lint covers: `crates/*/src/**` plus the
/// root `src/`, in sorted order for stable reports.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), root, &mut files)?;
        }
    }
    collect_rs(&root.join("src"), root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Renders the head of a taint chain: the source fn at the source line.
fn chain_head(units: &[FileUnit], g: &graph::CallGraph, node: usize, line: usize) -> String {
    format!(
        "{} ({}:{})",
        g.nodes[node].fq(),
        units[g.nodes[node].file].ctx.path,
        line
    )
}

/// Renders one hop of a taint chain: the callee, located by the call
/// site in the *caller's* file (that is where a reader must look next).
fn chain_hop(units: &[FileUnit], g: &graph::CallGraph, e: graph::CallEdge) -> String {
    format!(
        "{} (called at {}:{})",
        g.nodes[e.callee].fq(),
        units[g.nodes[e.caller].file].ctx.path,
        e.line
    )
}

/// Renders a hop up a returned value: the caller, located at the call
/// whose result carries the source.
fn chain_return(units: &[FileUnit], g: &graph::CallGraph, e: graph::CallEdge) -> String {
    format!(
        "{} (receives its return at {}:{})",
        g.nodes[e.caller].fq(),
        units[g.nodes[e.caller].file].ctx.path,
        e.line
    )
}

/// Runs the full multi-pass analysis over a set of in-memory files. This
/// is the v2 engine: token rules per file, then the call-graph passes
/// (`fingerprint-taint`, `shard-join-order`) across all of them, then the
/// unused-suppression sweep.
pub fn scan_units(inputs: Vec<(FileContext, String)>) -> WorkspaceScan {
    // Pass 1: lex + item parse + token rules.
    let mut units: Vec<FileUnit> = Vec::with_capacity(inputs.len());
    let mut file_scans: Vec<FileScan> = Vec::with_capacity(inputs.len());
    for (ctx, text) in inputs {
        let unit = FileUnit::new(ctx, &text);
        file_scans.push(scan_lines(&unit.ctx, &unit.lines));
        units.push(unit);
    }

    // Pass 2: workspace call graph.
    let g = graph::build(&units);
    let mut suppressed = 0usize;
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut taint_reports: Vec<TaintPathReport> = Vec::new();

    // Pass 3a: determinism taint. An allow suppresses at the source line.
    let paths = taint::taint_paths(&units, &g);
    let source_count = taint::find_sources(&units, &g).len();
    let sink_count = taint::find_sinks(&g).len();
    for p in &paths {
        let src = &g.nodes[p.source.fn_id];
        let fi = src.file;
        let path = units[fi].ctx.path.clone();
        let allow = file_scans[fi].allows.iter_mut().find(|a| {
            a.justified && a.rule == Rule::FingerprintTaint && a.code_line == p.source.line
        });
        if let Some(a) = allow {
            a.used += 1;
            suppressed += 1;
            continue;
        }
        let mut chain = vec![chain_head(&units, &g, p.source.fn_id, p.source.line)];
        if let Some(ei) = p.returned_to {
            chain.push(chain_return(&units, &g, g.edges[ei]));
        }
        for &ei in &p.hops {
            chain.push(chain_hop(&units, &g, g.edges[ei]));
        }
        let label = taint::sink_label(&g.nodes[p.sink]).unwrap_or("fingerprint");
        let amb = if p.ambiguous {
            " [chain includes ambiguous method resolution]"
        } else {
            ""
        };
        diagnostics.push(Diagnostic {
            file: path.clone(),
            line: p.source.line,
            rule: Rule::FingerprintTaint,
            message: format!(
                "nondeterministic `{}` ({}) reaches the {} sink `{}`: {}{}",
                p.source.token,
                p.source.kind,
                label,
                g.nodes[p.sink].fq(),
                chain.join(" -> "),
                amb
            ),
        });
        taint_reports.push(TaintPathReport {
            kind: p.source.kind.id().to_string(),
            token: p.source.token.to_string(),
            file: path,
            line: p.source.line,
            source_fn: g.nodes[p.source.fn_id].fq(),
            sink_fn: g.nodes[p.sink].fq(),
            sink_label: label.to_string(),
            chain,
            ambiguous: p.ambiguous,
        });
    }

    // Pass 3b: fan-out join discipline. An allow suppresses at the line
    // of the offending sink call.
    for f in taint::shard_join_findings(&units, &g) {
        let fi = g.nodes[f.caller].file;
        let allow = file_scans[fi]
            .allows
            .iter_mut()
            .find(|a| a.justified && a.rule == Rule::ShardJoinOrder && a.code_line == f.line);
        if let Some(a) = allow {
            a.used += 1;
            suppressed += 1;
            continue;
        }
        diagnostics.push(Diagnostic {
            file: units[fi].ctx.path.clone(),
            line: f.line,
            rule: Rule::ShardJoinOrder,
            message: format!(
                "`{}` written inside the `{}` fan-out opened at line {}: sinks must be \
                 combined serially after the join, in index order",
                g.nodes[f.callee].fq(),
                f.fanout,
                f.fanout_line
            ),
        });
    }

    // Pass 4: stale allows. Only justified directives are reported here —
    // bare ones already carry a bare-allow diagnostic.
    for (fi, fscan) in file_scans.iter().enumerate() {
        for a in &fscan.allows {
            if a.justified && a.used == 0 {
                diagnostics.push(Diagnostic {
                    file: units[fi].ctx.path.clone(),
                    line: a.line,
                    rule: Rule::UnusedSuppression,
                    message: format!(
                        "allow({}) suppresses nothing here — the finding it covered is \
                         gone; delete the directive",
                        a.rule.id()
                    ),
                });
            }
        }
    }

    let mut ws = WorkspaceScan {
        files_scanned: units.len(),
        graph: GraphStats {
            functions: g.nodes.len(),
            edges: g.edges.len(),
            ambiguous_edges: g.ambiguous_edges(),
            taint_sources: source_count,
            taint_sinks: sink_count,
        },
        ..WorkspaceScan::default()
    };
    for fscan in file_scans {
        ws.diagnostics.extend(fscan.diagnostics);
        ws.suppressed += fscan.suppressed;
    }
    ws.diagnostics.extend(diagnostics);
    ws.suppressed += suppressed;
    ws.diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    taint_reports.sort_by(|a, b| (&a.file, a.line, &a.kind).cmp(&(&b.file, b.line, &b.kind)));
    ws.taint_paths = taint_reports;
    ws
}

/// Scans the whole workspace rooted at `root` with the full v2 pipeline.
pub fn scan_workspace(root: &Path) -> io::Result<WorkspaceScan> {
    let mut inputs = Vec::new();
    for rel in workspace_files(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        inputs.push((FileContext::for_path(&rel), text));
    }
    Ok(scan_units(inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_ctx() -> FileContext {
        FileContext {
            path: "crates/core/src/x.rs".into(),
            crate_name: "core".into(),
            is_binary: false,
        }
    }

    #[test]
    fn token_boundaries() {
        assert!(token_at("use std::collections::HashMap;", "HashMap"));
        assert!(!token_at("type MyHashMapLike = ();", "HashMap"));
        assert!(!token_at("#[should_panic]", "panic!"));
        assert!(token_at("core::panic!()", "panic!"));
        assert!(!token_at("let printler = 1;", "print!"));
        assert!(token_at("x.unwrap()", ".unwrap()"));
        assert!(!token_at("x.unwrap_or(0)", ".unwrap()"));
    }

    #[test]
    fn float_literal_detection() {
        assert!(has_float_literal("x == 1.0"));
        assert!(has_float_literal("0.93 * peak"));
        assert!(!has_float_literal("0..10"));
        assert!(!has_float_literal("tuple.0"));
        assert!(!has_float_literal("a == b"));
        assert!(float_eq_hit("if power == 0.0 {"));
        assert!(float_eq_hit("x != 1.5"));
        assert!(!float_eq_hit("x <= 1.5"));
        assert!(!float_eq_hit("x == y"));
        assert!(!float_eq_hit("for i in 0..10"));
    }

    #[test]
    fn directive_parsing_and_suppression() {
        let src = "\
let a = x.unwrap(); // ppc-lint: allow(panic-path): invariant — a is Some by construction
// ppc-lint: allow(panic-path): documented on the next line
let b = y.unwrap();
let c = z.unwrap();
";
        let scan = scan_source(&det_ctx(), src);
        assert_eq!(scan.suppressed, 2);
        assert_eq!(scan.diagnostics.len(), 1);
        assert_eq!(scan.diagnostics[0].line, 4);
        assert_eq!(scan.diagnostics[0].rule, Rule::PanicPath);
    }

    #[test]
    fn bare_allow_is_flagged() {
        let scan = scan_source(
            &det_ctx(),
            "let a = x.unwrap(); // ppc-lint: allow(panic-path)\n",
        );
        assert_eq!(scan.diagnostics.len(), 1);
        assert_eq!(scan.diagnostics[0].rule, Rule::BareAllow);
    }

    #[test]
    fn unknown_rule_is_flagged() {
        let scan = scan_source(&det_ctx(), "// ppc-lint: allow(no-such-rule): whatever\n");
        assert_eq!(scan.diagnostics.len(), 1);
        assert_eq!(scan.diagnostics[0].rule, Rule::BareAllow);
    }

    #[test]
    fn class_gating() {
        // Wall clock allowed in telemetry, flagged in core.
        let tele = FileContext {
            path: "crates/telemetry/src/cost.rs".into(),
            crate_name: "telemetry".into(),
            is_binary: false,
        };
        let src = "let t = Instant::now();\n";
        assert!(scan_source(&tele, src).diagnostics.is_empty());
        assert_eq!(scan_source(&det_ctx(), src).diagnostics.len(), 1);
        // Binaries may print; libraries may not.
        let bin = FileContext {
            path: "crates/core/src/bin/tool.rs".into(),
            crate_name: "core".into(),
            is_binary: true,
        };
        let print = "println!();\n";
        assert!(scan_source(&bin, print).diagnostics.is_empty());
        assert_eq!(scan_source(&det_ctx(), print).diagnostics.len(), 1);
    }

    #[test]
    fn obs_class_wall_clock_scoping() {
        // The obs crate is held to the deterministic wall-clock standard…
        let span = FileContext::for_path("crates/obs/src/span.rs");
        let src = "let t = Instant::now();\n";
        let scan = scan_source(&span, src);
        assert_eq!(scan.diagnostics.len(), 1);
        assert_eq!(scan.diagnostics[0].rule, Rule::WallClock);
        // …except the dedicated self-profiling module.
        let profile = FileContext::for_path("crates/obs/src/profile.rs");
        assert!(scan_source(&profile, src).diagnostics.is_empty());
        // The carve-out is wall-clock only: other rules still fire there.
        let scan = scan_source(&profile, "let a = x.unwrap();\n");
        assert_eq!(scan.diagnostics.len(), 1);
        assert_eq!(scan.diagnostics[0].rule, Rule::PanicPath);
    }

    #[test]
    fn hot_path_modules_ignore_allows_for_determinism_rules() {
        // In the tick-core hot-path files, wall-clock and unordered-
        // collection findings cannot be suppressed, even with a reason…
        for path in [
            "crates/cluster/src/columns.rs",
            "crates/simkit/src/wheel.rs",
        ] {
            let ctx = FileContext::for_path(path);
            let src = "\
// ppc-lint: allow(wall-clock): tempting but forbidden
let t = Instant::now();
// ppc-lint: allow(unordered-collections): also forbidden
use std::collections::HashMap;
";
            let scan = scan_source(&ctx, src);
            assert_eq!(scan.diagnostics.len(), 2, "{path}");
            assert_eq!(scan.suppressed, 0, "{path}");
            assert!(scan.diagnostics[0].message.contains("hot-path module"));
        }
        // …while other rules keep the normal allow semantics there.
        let ctx = FileContext::for_path("crates/simkit/src/wheel.rs");
        let scan = scan_source(
            &ctx,
            "// ppc-lint: allow(panic-path): invariant documented\nlet a = x.unwrap();\n",
        );
        assert!(scan.diagnostics.is_empty());
        assert_eq!(scan.suppressed, 1);
    }

    #[test]
    fn test_region_exemptions() {
        let src = "\
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn t() { x.unwrap(); }
}
";
        let scan = scan_source(&det_ctx(), src);
        // HashMap still fires in tests (determinism rule); unwrap does not.
        assert_eq!(scan.diagnostics.len(), 1);
        assert_eq!(scan.diagnostics[0].rule, Rule::UnorderedCollections);
    }

    #[test]
    fn context_classification() {
        let ctx = FileContext::for_path("crates/simkit/src/par.rs");
        assert_eq!(ctx.crate_name, "simkit");
        assert!(!ctx.is_binary);
        let ctx = FileContext::for_path("crates/bench/src/bin/bench_ppc.rs");
        assert!(ctx.is_binary);
        let ctx = FileContext::for_path("src/lib.rs");
        assert_eq!(ctx.crate_name, "ppc");
    }
}
