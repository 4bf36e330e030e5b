//! Workspace call graph with per-edge provenance.
//!
//! Nodes are the `fn` items recovered by [`crate::items`]; edges are
//! name-resolved intra-workspace calls. Resolution is deliberately an
//! over-approximation: a method call that matches several `impl` blocks
//! produces an edge to *every* candidate (marked `ambiguous`), because the
//! taint pass built on this graph is a safety analysis — a spurious edge
//! costs a justification comment, a missing edge hides a real
//! nondeterminism leak. Calls that resolve to nothing in the workspace
//! (std, vendored deps) produce no edge at all.

use crate::items::{self, FileItems};
use crate::scan::FileContext;
use crate::source::{self, Line};
use std::collections::{BTreeMap, BTreeSet};

/// One file prepared for whole-workspace analysis.
#[derive(Debug, Clone)]
pub struct FileUnit {
    /// Where the file sits (path, crate, binary-ness).
    pub ctx: FileContext,
    /// Lexed lines (comments stripped, strings blanked).
    pub lines: Vec<Line>,
    /// Parsed items.
    pub items: FileItems,
}

impl FileUnit {
    /// Lexes and parses one file's source under the given context.
    pub fn new(ctx: FileContext, text: &str) -> FileUnit {
        let lines = source::analyze(text);
        let items = items::parse(&lines);
        FileUnit { ctx, lines, items }
    }
}

/// One function node in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning [`FileUnit`].
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Owning `impl`/`trait` type, if a method.
    pub impl_type: Option<String>,
    /// Module chain rooted at the crate name (e.g. `["core", "policy"]`).
    pub module: Vec<String>,
    /// 1-based signature line.
    pub sig_line: usize,
    /// 1-based body range (opening to closing brace).
    pub body: (usize, usize),
    /// True for fns inside `#[cfg(test)]`/`#[test]` regions.
    pub in_test: bool,
    /// True if the fn returns a value (a return type other than `()`).
    pub returns: bool,
}

impl FnNode {
    /// Fully qualified display name: `core::policy::Greedy::select`.
    pub fn fq(&self) -> String {
        let mut parts: Vec<&str> = self.module.iter().map(String::as_str).collect();
        if let Some(t) = &self.impl_type {
            parts.push(t);
        }
        parts.push(&self.name);
        parts.join("::")
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// Calling fn (node index).
    pub caller: usize,
    /// Called fn (node index).
    pub callee: usize,
    /// 1-based call-site line in the caller's file.
    pub line: usize,
    /// True when name resolution matched more than one candidate.
    pub ambiguous: bool,
}

/// The whole-workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All fns, in (file, source) order.
    pub nodes: Vec<FnNode>,
    /// All edges, deduplicated, in deterministic order.
    pub edges: Vec<CallEdge>,
    /// Outgoing edge indices per node.
    pub out: Vec<Vec<usize>>,
    /// Incoming edge indices per node.
    pub incoming: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Count of ambiguous edges (report statistic).
    pub fn ambiguous_edges(&self) -> usize {
        self.edges.iter().filter(|e| e.ambiguous).count()
    }
}

/// Module chain for a file path: `crates/core/src/policy/greedy.rs` →
/// `["core", "policy", "greedy"]`; binary targets collapse onto the crate
/// root so `Type::method` references still resolve.
fn file_module(ctx: &FileContext) -> Vec<String> {
    let mut out = vec![ctx.crate_name.clone()];
    let rel = ctx
        .path
        .strip_prefix(&format!("crates/{}/src/", ctx.crate_name))
        .or_else(|| ctx.path.strip_prefix("src/"))
        .unwrap_or(&ctx.path);
    for seg in rel.split('/') {
        let seg = seg.strip_suffix(".rs").unwrap_or(seg);
        if matches!(seg, "lib" | "main" | "mod" | "bin") || seg.is_empty() {
            continue;
        }
        if ctx.is_binary {
            continue; // bin targets are their own crate root
        }
        out.push(seg.to_string());
    }
    out
}

/// A call site found in one source line.
#[derive(Debug)]
struct CallSite {
    /// Path segments as written (`["Journal", "record"]`).
    path: Vec<String>,
    /// True for `.name(…)` method-call syntax.
    is_method: bool,
    /// True when the method receiver is literally `self`.
    self_recv: bool,
}

const KEYWORDS: &[&str] = &[
    "if", "for", "while", "match", "return", "loop", "fn", "in", "as", "let", "mut", "ref", "move",
    "unsafe", "else", "where", "impl", "dyn", "break", "continue", "use", "pub", "mod", "crate",
    "super", "self", "Self", "static", "const", "type", "enum", "struct", "trait", "await",
];

/// Extracts call sites from one blanked code line.
fn calls_in_line(code: &str) -> Vec<CallSite> {
    let b: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut prev_word = String::new();
    while i < b.len() {
        let c = b[i];
        if !(c.is_alphabetic() || c == '_') {
            i += 1;
            continue;
        }
        let path_start = i;
        let mut path: Vec<String> = Vec::new();
        loop {
            let seg_start = i;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            path.push(b[seg_start..i].iter().collect());
            if i + 1 < b.len() && b[i] == ':' && b[i + 1] == ':' {
                let j = i + 2;
                if b.get(j).is_some_and(|&c| c.is_alphabetic() || c == '_') {
                    i = j;
                    continue;
                }
                if b.get(j) == Some(&'<') {
                    // Turbofish: skip the angle group, then expect `(`.
                    if let Some(after) = skip_angles(&b, j) {
                        i = after;
                    }
                }
            }
            break;
        }
        let name = match path.last() {
            Some(n) => n.clone(),
            None => continue,
        };
        let next = b.get(i).copied();
        if next == Some('!') {
            prev_word = name;
            i += 1;
            continue; // macro invocation
        }
        if next != Some('(') {
            prev_word = name;
            continue;
        }
        let defines = prev_word == "fn";
        prev_word = name.clone();
        if defines
            || KEYWORDS.contains(&name.as_str())
            || name.chars().next().is_some_and(|c| c.is_uppercase())
        {
            continue;
        }
        let is_method = path.len() == 1
            && path_start > 0
            && b[path_start - 1] == '.'
            && (path_start < 2 || b[path_start - 2] != '.');
        let self_recv = is_method && receiver_is_self(&b, path_start - 1);
        out.push(CallSite {
            path,
            is_method,
            self_recv,
        });
    }
    out
}

/// Skips a `<…>` group starting at `open`; returns the index after `>`.
fn skip_angles(b: &[char], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            '<' => depth += 1,
            '>' if i > 0 && b[i - 1] == '-' => {}
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// True if the chars before the `.` at `dot` are exactly `self`.
fn receiver_is_self(b: &[char], dot: usize) -> bool {
    let mut end = dot;
    while end > 0 && b[end - 1].is_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (b[start - 1].is_alphanumeric() || b[start - 1] == '_') {
        start -= 1;
    }
    let ident: String = b[start..end].iter().collect();
    ident == "self" && (start == 0 || b[start - 1] != '.')
}

/// Normalizes a crate-ish path segment: `ppc_core` → `core`.
fn norm_crate(seg: &str) -> &str {
    seg.strip_prefix("ppc_").unwrap_or(seg)
}

struct Resolver {
    /// (impl type, name) → node ids.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// method name → node ids (any impl type).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// free-fn name → node ids.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// (module chain joined with `::`, name) → node id.
    free_by_module: BTreeMap<(String, String), usize>,
}

impl Resolver {
    fn build(nodes: &[FnNode]) -> Resolver {
        let mut r = Resolver {
            methods: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
            free_by_module: BTreeMap::new(),
        };
        for (id, n) in nodes.iter().enumerate() {
            match &n.impl_type {
                Some(t) => {
                    r.methods
                        .entry((t.clone(), n.name.clone()))
                        .or_default()
                        .push(id);
                    r.methods_by_name
                        .entry(n.name.clone())
                        .or_default()
                        .push(id);
                }
                None => {
                    r.free_by_name.entry(n.name.clone()).or_default().push(id);
                    r.free_by_module
                        .entry((n.module.join("::"), n.name.clone()))
                        .or_insert(id);
                }
            }
        }
        r
    }

    /// Resolves one call site to `(candidates, ambiguous)`. Test-only fns
    /// are candidates only for test-code callers, so a lib fn can never
    /// grow a spurious edge into a test helper that shares its name.
    fn resolve(
        &self,
        site: &CallSite,
        caller: &FnNode,
        nodes: &[FnNode],
        imports: &BTreeMap<String, Vec<String>>,
    ) -> (Vec<usize>, bool) {
        let filter = |ids: &[usize]| -> Vec<usize> {
            ids.iter()
                .copied()
                .filter(|&id| caller.in_test || !nodes[id].in_test)
                .collect()
        };
        let name = match site.path.last() {
            Some(n) => n.as_str(),
            None => return (Vec::new(), false),
        };
        if site.is_method {
            if site.self_recv {
                if let Some(t) = &caller.impl_type {
                    if let Some(ids) = self.methods.get(&(t.clone(), name.to_string())) {
                        let ids = filter(ids);
                        if !ids.is_empty() {
                            let amb = ids.len() > 1;
                            return (ids, amb);
                        }
                    }
                }
            }
            // Unknown receiver type: every same-named workspace method is
            // a candidate, and even a single match is a guess (the real
            // receiver may be a std or vendored type), so the edge is
            // always marked ambiguous.
            let ids = self
                .methods_by_name
                .get(name)
                .map(|v| filter(v))
                .unwrap_or_default();
            let amb = !ids.is_empty();
            return (ids, amb);
        }
        if site.path.len() >= 2 {
            let qual = site.path[site.path.len() - 2].as_str();
            let qual = if qual == "Self" {
                match &caller.impl_type {
                    Some(t) => t.as_str(),
                    None => qual,
                }
            } else {
                qual
            };
            if let Some(ids) = self.methods.get(&(qual.to_string(), name.to_string())) {
                let ids = filter(ids);
                if !ids.is_empty() {
                    let amb = ids.len() > 1;
                    return (ids, amb);
                }
            }
            // Module-qualified free fn: match the immediate parent module
            // (or crate) against each candidate's chain.
            let want = norm_crate(qual);
            let ids: Vec<usize> = self
                .free_by_name
                .get(name)
                .map(|v| filter(v))
                .unwrap_or_default()
                .into_iter()
                .filter(|&id| {
                    let n = &nodes[id];
                    want == "crate" && n.module.first() == caller.module.first()
                        || n.module.iter().any(|m| m == want)
                })
                .collect();
            let amb = ids.len() > 1;
            return (ids, amb);
        }
        // Bare call: same module first.
        if let Some(&id) = self
            .free_by_module
            .get(&(caller.module.join("::"), name.to_string()))
        {
            if caller.in_test || !nodes[id].in_test {
                return (vec![id], false);
            }
        }
        // Imported name.
        if let Some(path) = imports.get(name) {
            if let Some(first) = path.first() {
                let krate = norm_crate(first);
                let ids: Vec<usize> = self
                    .free_by_name
                    .get(name)
                    .map(|v| filter(v))
                    .unwrap_or_default()
                    .into_iter()
                    .filter(|&id| nodes[id].module.first().is_some_and(|c| c == krate))
                    .collect();
                if ids.len() == 1 {
                    return (ids, false);
                }
            }
        }
        // Same-crate free fns, then a unique workspace-wide match.
        let same_crate: Vec<usize> = self
            .free_by_name
            .get(name)
            .map(|v| filter(v))
            .unwrap_or_default()
            .into_iter()
            .filter(|&id| nodes[id].module.first() == caller.module.first())
            .collect();
        match same_crate.len() {
            1 => return (same_crate, false),
            n if n > 1 => return (same_crate, true),
            _ => {}
        }
        let anywhere = self
            .free_by_name
            .get(name)
            .map(|v| filter(v))
            .unwrap_or_default();
        if anywhere.len() == 1 {
            return (anywhere, false);
        }
        (Vec::new(), false)
    }
}

/// Builds the call graph over the given files.
pub fn build(units: &[FileUnit]) -> CallGraph {
    let mut nodes: Vec<FnNode> = Vec::new();
    // (file, line) → owning fn, innermost item winning.
    let mut line_owner: Vec<Vec<Option<usize>>> = Vec::with_capacity(units.len());
    for (fi, unit) in units.iter().enumerate() {
        let base = file_module(&unit.ctx);
        let mut owners = vec![None; unit.lines.len() + 1];
        for item in &unit.items.fns {
            let mut module = base.clone();
            module.extend(item.module.iter().cloned());
            let id = nodes.len();
            nodes.push(FnNode {
                file: fi,
                name: item.name.clone(),
                impl_type: item.impl_type.clone(),
                module,
                sig_line: item.sig_line,
                body: (item.open_line, item.close_line),
                in_test: item.in_test,
                returns: item.returns,
            });
            let last = item.close_line.min(unit.lines.len());
            for owner in &mut owners[item.open_line..=last] {
                *owner = Some(id);
            }
        }
        line_owner.push(owners);
    }

    let resolver = Resolver::build(&nodes);
    let mut edge_set: BTreeSet<(usize, usize, usize, bool)> = BTreeSet::new();
    for (fi, unit) in units.iter().enumerate() {
        let imports: BTreeMap<String, Vec<String>> = unit
            .items
            .imports
            .iter()
            .map(|im| (im.alias.clone(), im.path.clone()))
            .collect();
        for (idx, line) in unit.lines.iter().enumerate() {
            let lineno = idx + 1;
            let Some(caller) = line_owner[fi][lineno] else {
                continue;
            };
            for site in calls_in_line(&line.code) {
                let (ids, amb) = resolver.resolve(&site, &nodes[caller], &nodes, &imports);
                for callee in ids {
                    edge_set.insert((caller, callee, lineno, amb));
                }
            }
        }
    }

    let edges: Vec<CallEdge> = edge_set
        .into_iter()
        .map(|(caller, callee, line, ambiguous)| CallEdge {
            caller,
            callee,
            line,
            ambiguous,
        })
        .collect();
    let mut out = vec![Vec::new(); nodes.len()];
    let mut incoming = vec![Vec::new(); nodes.len()];
    for (ei, e) in edges.iter().enumerate() {
        out[e.caller].push(ei);
        incoming[e.callee].push(ei);
    }
    CallGraph {
        nodes,
        edges,
        out,
        incoming,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(path: &str, src: &str) -> FileUnit {
        FileUnit::new(FileContext::for_path(path), src)
    }

    fn find(g: &CallGraph, fq: &str) -> usize {
        match g.nodes.iter().position(|n| n.fq() == fq) {
            Some(i) => i,
            None => {
                let all: Vec<String> = g.nodes.iter().map(|n| n.fq()).collect();
                panic!("no node {fq}; have {all:?}")
            }
        }
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let (f, t) = (find(g, from), find(g, to));
        g.edges.iter().any(|e| e.caller == f && e.callee == t)
    }

    #[test]
    fn resolves_same_module_and_method_calls() {
        let g = build(&[unit(
            "crates/core/src/budget.rs",
            "\
pub fn split(total: f64) -> f64 {
    clamp(total)
}
fn clamp(x: f64) -> f64 {
    x
}
pub struct Budget;
impl Budget {
    pub fn apply(&mut self) {
        self.draw();
    }
    fn draw(&mut self) {}
}
",
        )]);
        assert!(has_edge(&g, "core::budget::split", "core::budget::clamp"));
        assert!(has_edge(
            &g,
            "core::budget::Budget::apply",
            "core::budget::Budget::draw"
        ));
        assert_eq!(g.ambiguous_edges(), 0);
    }

    #[test]
    fn resolves_cross_module_and_cross_crate_calls() {
        let g = build(&[
            unit(
                "crates/simkit/src/journal.rs",
                "\
pub struct Journal;
impl Journal {
    pub fn record(&mut self) {}
}
",
            ),
            unit(
                "crates/cluster/src/sim.rs",
                "\
use ppc_simkit::Journal;
pub fn step(j: &mut Journal) {
    j.record();
    helper::observe();
}
pub mod helper {
    pub fn observe() {}
}
",
            ),
        ]);
        assert!(has_edge(
            &g,
            "cluster::sim::step",
            "simkit::journal::Journal::record"
        ));
        assert!(has_edge(
            &g,
            "cluster::sim::step",
            "cluster::sim::helper::observe"
        ));
    }

    #[test]
    fn method_ambiguity_produces_marked_edges_to_all_candidates() {
        let g = build(&[unit(
            "crates/simkit/src/two.rs",
            "\
pub struct Journal;
impl Journal {
    pub fn record(&mut self) {}
}
pub struct Stats;
impl Stats {
    pub fn record(&mut self) {}
}
pub fn touch(s: &mut Stats) {
    s.record();
}
",
        )]);
        let touch = find(&g, "simkit::two::touch");
        let targets: Vec<&str> = g
            .edges
            .iter()
            .filter(|e| e.caller == touch)
            .map(|e| g.nodes[e.callee].name.as_str())
            .collect();
        assert_eq!(targets.len(), 2, "both record() impls are candidates");
        assert!(g
            .edges
            .iter()
            .filter(|e| e.caller == touch)
            .all(|e| e.ambiguous));
    }

    #[test]
    fn self_receiver_disambiguates() {
        let g = build(&[unit(
            "crates/simkit/src/two.rs",
            "\
pub struct Journal;
impl Journal {
    pub fn record(&mut self) {}
    pub fn record_with(&mut self) {
        self.record();
    }
}
pub struct Stats;
impl Stats {
    pub fn record(&mut self) {}
}
",
        )]);
        let rw = find(&g, "simkit::two::Journal::record_with");
        let edges: Vec<&CallEdge> = g.edges.iter().filter(|e| e.caller == rw).collect();
        assert_eq!(edges.len(), 1, "self.record() resolves to the own impl");
        assert!(!edges[0].ambiguous);
        assert_eq!(
            g.nodes[edges[0].callee].fq(),
            "simkit::two::Journal::record"
        );
    }

    #[test]
    fn recursion_and_qualified_type_calls() {
        let g = build(&[unit(
            "crates/core/src/walk.rs",
            "\
pub fn descend(n: u32) -> u32 {
    if n == 0 {
        return 0;
    }
    descend(n - 1)
}
pub struct Fnv1a;
impl Fnv1a {
    pub fn write_u64(&mut self, _v: u64) {}
}
pub fn digest() {
    let mut h = Fnv1a;
    Fnv1a::write_u64(&mut h, 1);
}
",
        )]);
        let d = find(&g, "core::walk::descend");
        assert!(
            g.edges.iter().any(|e| e.caller == d && e.callee == d),
            "self-loop"
        );
        assert!(has_edge(
            &g,
            "core::walk::digest",
            "core::walk::Fnv1a::write_u64"
        ));
    }

    #[test]
    fn lib_fns_never_call_test_helpers() {
        let g = build(&[unit(
            "crates/core/src/x.rs",
            "\
pub fn entry() {
    helper();
}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn t() {
        helper();
    }
}
",
        )]);
        let entry = find(&g, "core::x::entry");
        assert!(
            g.edges.iter().all(|e| e.caller != entry),
            "no lib→test edge"
        );
        let t = find(&g, "core::x::tests::t");
        assert!(
            g.edges.iter().any(|e| e.caller == t),
            "test→test edge stays"
        );
    }

    #[test]
    fn macros_and_ctors_are_not_calls() {
        let g = build(&[unit(
            "crates/core/src/y.rs",
            "\
pub struct NodeId(pub u32);
pub fn make() -> NodeId {
    let v = vec![1, 2];
    assert_ne!(v.len(), 0);
    NodeId(0)
}
",
        )]);
        let m = find(&g, "core::y::make");
        assert!(g.edges.iter().all(|e| e.caller != m));
    }
}
