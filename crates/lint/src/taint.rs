//! Determinism-taint analysis over the call graph.
//!
//! The four CI gate fingerprints (journal, power trace, span tree,
//! metrics registry) all funnel through a handful of *sink* functions:
//! the FNV-1a hasher's `write_*` family, `Journal::record*`, the
//! `SpanRecorder` mutators and the `MetricsRegistry` mutators, plus any
//! `fingerprint()` fold. A nondeterministic *source* — unordered-map
//! iteration, a wall-clock read, thread/machine identity, an environment
//! read, a float reduction over unordered iteration — that can reach one
//! of those sinks through any call chain is exactly the bug class the
//! determinism tests only catch after the fact. This pass reports
//! every source→sink path (with the full chain) that is not covered by a
//! justified `ppc-lint: allow(fingerprint-taint): …` on the source line.
//!
//! The same machinery checks the fan-out discipline
//! (`shard-join-order`): closures handed to `WorkerPool::for_each_mut`
//! run on scoped threads in arbitrary interleavings, so they must not
//! write to any fingerprint sink — all journal/span/metrics bookkeeping
//! belongs in the serial post-join pass, in index order (the discipline
//! the what-if engine's batch fan-out follows).

use crate::graph::{CallGraph, FileUnit, FnNode};
use crate::rules::CrateClass;
use crate::scan::{token_at, FileContext};
use std::fmt;

/// What kind of nondeterminism a source introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceKind {
    /// `HashMap`/`HashSet`: iteration order varies run to run.
    UnorderedIter,
    /// `Instant::now`/`SystemTime`/`UNIX_EPOCH`.
    WallClock,
    /// `thread_rng`/`from_entropy`/`rand::random`/`OsRng`.
    AdHocRng,
    /// `thread::current`/`ThreadId`/`available_parallelism`: values that
    /// differ per thread or per machine.
    ThreadIdentity,
    /// `env::var`/`env::vars`/`env::args`/`var_os` outside binary targets.
    EnvRead,
    /// A float `sum`/`fold` over an unordered projection
    /// (`values()`/`keys()` of a hash map): accumulation order varies.
    FloatReduce,
}

impl SourceKind {
    /// Stable id used in diagnostics and the JSON report.
    pub fn id(self) -> &'static str {
        match self {
            SourceKind::UnorderedIter => "unordered-iteration",
            SourceKind::WallClock => "wall-clock",
            SourceKind::AdHocRng => "ad-hoc-rng",
            SourceKind::ThreadIdentity => "thread-identity",
            SourceKind::EnvRead => "env-read",
            SourceKind::FloatReduce => "float-reduction",
        }
    }

    /// Whether this source kind is live in the given file. Mirrors the
    /// token-rule class gating: the timing and bench crates read wall
    /// clocks by design, binaries parse `env::args`, and the dedicated
    /// obs self-profiler is carved out file-by-file in the scanner.
    fn applies(self, ctx: &FileContext) -> bool {
        let class = CrateClass::of(&ctx.crate_name);
        match self {
            SourceKind::UnorderedIter | SourceKind::AdHocRng | SourceKind::FloatReduce => {
                class != CrateClass::Tool
            }
            SourceKind::WallClock | SourceKind::ThreadIdentity => {
                matches!(class, CrateClass::Deterministic | CrateClass::Obs)
                    && ctx.path != "crates/obs/src/profile.rs"
            }
            SourceKind::EnvRead => {
                matches!(class, CrateClass::Deterministic | CrateClass::Obs) && !ctx.is_binary
            }
        }
    }
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One detected source site.
#[derive(Debug, Clone)]
pub struct TaintSource {
    /// Node index of the containing fn.
    pub fn_id: usize,
    /// 1-based line of the source token.
    pub line: usize,
    /// Kind of nondeterminism.
    pub kind: SourceKind,
    /// The matched token, for the diagnostic.
    pub token: &'static str,
}

/// One source→sink path through the call graph.
#[derive(Debug, Clone)]
pub struct TaintPath {
    /// The source site.
    pub source: TaintSource,
    /// Node index of the sink fn.
    pub sink: usize,
    /// The call whose returned value carries the source up into its
    /// caller, when the path starts there rather than in the source fn.
    pub returned_to: Option<usize>,
    /// Edge indices toward the sink fn, in call order: from the source fn,
    /// or from the caller of `returned_to`.
    pub hops: Vec<usize>,
    /// True if any hop came from ambiguous method resolution.
    pub ambiguous: bool,
}

/// Tokens per source kind.
fn detect_sources(code: &str) -> Vec<(SourceKind, &'static str)> {
    const TOKENS: &[(SourceKind, &[&str])] = &[
        (SourceKind::UnorderedIter, &["HashMap", "HashSet"]),
        (
            SourceKind::WallClock,
            &["Instant::now", "SystemTime", "UNIX_EPOCH"],
        ),
        (
            SourceKind::AdHocRng,
            &["thread_rng", "from_entropy", "rand::random", "OsRng"],
        ),
        (
            SourceKind::ThreadIdentity,
            &["thread::current", "ThreadId", "available_parallelism"],
        ),
        (
            SourceKind::EnvRead,
            &["env::var", "env::vars", "env::args", "var_os"],
        ),
    ];
    let mut out = Vec::new();
    for &(kind, tokens) in TOKENS {
        for &tok in tokens {
            if token_at(code, tok) {
                out.push((kind, tok));
                break;
            }
        }
    }
    // Float reduction over an unordered projection: both halves must sit
    // on the line (rustfmt keeps short iterator chains on one line; a
    // split chain still registers via the `HashMap` type token upstream).
    let unordered_proj = ["values()", "keys()", "into_values()", "into_keys()"]
        .iter()
        .any(|t| code.contains(t));
    let reduces = [".sum(", ".sum::<", ".fold(", ".product("]
        .iter()
        .any(|t| code.contains(t));
    if unordered_proj && reduces {
        out.push((SourceKind::FloatReduce, "values()/keys() reduction"));
    }
    out
}

/// Finds every live source site in the workspace. Test regions are
/// exempt: a test that hashes a `HashMap` is asserting behavior, and the
/// determinism gate re-checks the real pipeline dynamically.
pub fn find_sources(units: &[FileUnit], graph: &CallGraph) -> Vec<TaintSource> {
    let mut out = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.in_test {
            continue;
        }
        let unit = &units[node.file];
        for lineno in node.body.0..=node.body.1.min(unit.lines.len()) {
            let line = &unit.lines[lineno - 1];
            if line.in_test {
                continue;
            }
            for (kind, token) in detect_sources(&line.code) {
                if kind.applies(&unit.ctx) {
                    out.push(TaintSource {
                        fn_id: id,
                        line: lineno,
                        kind,
                        token,
                    });
                }
            }
        }
    }
    out
}

/// Classifies a fn node as a fingerprint sink.
pub fn sink_label(node: &FnNode) -> Option<&'static str> {
    match node.impl_type.as_deref() {
        Some("Fnv1a") if node.name.starts_with("write") => Some("Fnv1a hash input"),
        Some("Journal") if node.name.starts_with("record") => Some("journal fingerprint"),
        Some("SpanRecorder") if matches!(node.name.as_str(), "open" | "attr" | "close") => {
            Some("span fingerprint")
        }
        Some("MetricsRegistry") if matches!(node.name.as_str(), "inc" | "set" | "observe") => {
            Some("metrics fingerprint")
        }
        // Health-plane fingerprints join the determinism gate (DESIGN
        // §17): the rollup tree, quantile sketch, SLO engine and ring
        // series each fold their full state.
        Some("QuantileSketch" | "RollupTree" | "SloEngine" | "RingSeries")
            if node.name == "fingerprint" =>
        {
            Some("health fingerprint")
        }
        _ if node.name == "fingerprint" || node.name == "digest_of" => Some("gate fingerprint"),
        _ => None,
    }
}

/// All sink node indices, in id order.
pub fn find_sinks(graph: &CallGraph) -> Vec<usize> {
    graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| sink_label(n).is_some())
        .map(|(i, _)| i)
        .collect()
}

/// Multi-source BFS from the sinks over reversed edges. Returns, per
/// node, the hop count of a shortest path toward a sink (`None`: no sink
/// reachable) and that path's first edge (deterministic: sinks seeded in
/// id order, edges relaxed in id order).
fn route_to_sinks(graph: &CallGraph, sinks: &[usize]) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
    let mut dist: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut next_edge: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &s in sinks {
        dist[s] = Some(0);
        queue.push_back(s);
    }
    while let Some(n) = queue.pop_front() {
        let d = dist[n].map_or(0, |d| d + 1);
        for &ei in &graph.incoming[n] {
            let e = graph.edges[ei];
            if dist[e.caller].is_none() {
                dist[e.caller] = Some(d);
                next_edge[e.caller] = Some(ei);
                queue.push_back(e.caller);
            }
        }
    }
    (dist, next_edge)
}

/// Computes one shortest source→sink taint path per source. Taint flows
/// down from the source fn into its callees and, when the source fn
/// returns a value, one hop up into each of its callers, which may pass
/// that value on to a sink. A source fn that is itself a sink (e.g. a
/// `fingerprint()` that iterates a hash map) yields a zero-hop path.
pub fn taint_paths(units: &[FileUnit], graph: &CallGraph) -> Vec<TaintPath> {
    let sinks = find_sinks(graph);
    let (dist, next_edge) = route_to_sinks(graph, &sinks);
    let mut out = Vec::new();
    for source in find_sources(units, graph) {
        let held = source.fn_id;
        // Candidate starts: the source fn itself, then (if it returns a
        // value) each caller, one hop further; the first shortest wins.
        let mut best: Option<(usize, Option<usize>, usize)> = dist[held].map(|d| (d, None, held));
        if graph.nodes[held].returns {
            for &ei in &graph.incoming[held] {
                let caller = graph.edges[ei].caller;
                if let Some(d) = dist[caller] {
                    if best.is_none_or(|(b, _, _)| d + 1 < b) {
                        best = Some((d + 1, Some(ei), caller));
                    }
                }
            }
        }
        let Some((_, returned_to, mut at)) = best else {
            continue;
        };
        let mut hops = Vec::new();
        let mut ambiguous = returned_to.is_some_and(|ei| graph.edges[ei].ambiguous);
        while dist[at] != Some(0) {
            let Some(ei) = next_edge[at] else {
                break;
            };
            let e = graph.edges[ei];
            hops.push(ei);
            ambiguous |= e.ambiguous;
            at = e.callee;
        }
        out.push(TaintPath {
            source,
            sink: at,
            returned_to,
            hops,
            ambiguous,
        });
    }
    out
}

/// One fan-out-discipline violation: a sink written from inside a
/// parallel closure.
#[derive(Debug, Clone)]
pub struct ShardFinding {
    /// Node index of the fn containing the fan-out.
    pub caller: usize,
    /// 1-based line of the offending sink call.
    pub line: usize,
    /// Node index of the sink being called.
    pub callee: usize,
    /// 1-based line where the fan-out call opens.
    pub fanout_line: usize,
    /// The fan-out API that owns the closure.
    pub fanout: &'static str,
}

/// Fan-out entry points whose closure arguments run on scoped threads.
const FANOUT_TOKENS: &[&str] = &["for_each_mut("];

/// Finds the line where the paren group opening at (`start_line`,
/// `start_col` = index of `(`) closes, scanning blanked code lines.
fn paren_close_line(unit: &FileUnit, start_line: usize, start_col: usize) -> usize {
    let mut depth = 0i32;
    let mut first = true;
    for lineno in start_line..=unit.lines.len() {
        let code = &unit.lines[lineno - 1].code;
        let skip = if first { start_col } else { 0 };
        first = false;
        for c in code.chars().skip(skip) {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return lineno;
                    }
                }
                _ => {}
            }
        }
    }
    unit.lines.len()
}

/// Checks the serial-post-join discipline: no direct sink call inside a
/// fan-out closure. Indirect writes (a callee that itself records) are
/// left to the width-invariance tests — flagging them statically would
/// outlaw the legitimate pattern of sub-managers journaling into their
/// own per-shard buffers that are merged serially afterwards.
pub fn shard_join_findings(units: &[FileUnit], graph: &CallGraph) -> Vec<ShardFinding> {
    let mut out = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.in_test {
            continue;
        }
        let unit = &units[node.file];
        if CrateClass::of(&unit.ctx.crate_name) == CrateClass::Tool {
            continue;
        }
        // Fan-out regions in this fn.
        let mut regions: Vec<(usize, usize, &'static str)> = Vec::new();
        for lineno in node.body.0..=node.body.1.min(unit.lines.len()) {
            let code = &unit.lines[lineno - 1].code;
            for &tok in FANOUT_TOKENS {
                let Some(pos) = code.find(tok) else { continue };
                let open_col = pos + tok.len() - 1;
                let end = paren_close_line(unit, lineno, open_col);
                regions.push((lineno, end, tok.trim_end_matches('(')));
            }
        }
        if regions.is_empty() {
            continue;
        }
        for &ei in &graph.out[id] {
            let e = graph.edges[ei];
            if sink_label(&graph.nodes[e.callee]).is_none() {
                continue;
            }
            if let Some(&(start, _end, tok)) = regions
                .iter()
                .find(|&&(start, end, _)| e.line >= start && e.line <= end)
            {
                out.push(ShardFinding {
                    caller: id,
                    line: e.line,
                    callee: e.callee,
                    fanout_line: start,
                    fanout: tok,
                });
            }
        }
    }
    out.sort_by_key(|f| (f.caller, f.line, f.callee));
    out.dedup_by_key(|f| (f.caller, f.line, f.callee));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    fn units(files: &[(&str, &str)]) -> Vec<FileUnit> {
        files
            .iter()
            .map(|(p, s)| FileUnit::new(FileContext::for_path(p), s))
            .collect()
    }

    #[test]
    fn direct_source_to_sink_in_one_fn() {
        let u = units(&[(
            "crates/core/src/x.rs",
            "\
pub struct Journal;
impl Journal {
    pub fn record(&mut self) {}
}
pub fn leak(j: &mut Journal) {
    let t = SystemTime::now();
    j.record();
}
",
        )]);
        let g = graph::build(&u);
        let paths = taint_paths(&u, &g);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].source.kind, SourceKind::WallClock);
        assert_eq!(paths[0].source.line, 6);
        assert_eq!(g.nodes[paths[0].sink].fq(), "core::x::Journal::record");
        assert_eq!(paths[0].hops.len(), 1);
    }

    #[test]
    fn chain_through_two_crates() {
        let u = units(&[
            (
                "crates/simkit/src/journal.rs",
                "\
pub struct Journal;
impl Journal {
    pub fn record(&mut self) {}
}
",
            ),
            (
                "crates/cluster/src/sim.rs",
                "\
use ppc_simkit::Journal;
pub fn tick(j: &mut Journal) {
    observe(j);
}
fn observe(j: &mut Journal) {
    j.record();
}
",
            ),
            (
                "crates/core/src/sample.rs",
                "\
use std::collections::HashMap;
pub fn sample(m: &HashMap<u32, f64>) -> f64 {
    m.len() as f64
}
",
            ),
        ]);
        let g = graph::build(&u);
        // `sample` holds a source but reaches no sink: no path.
        let paths = taint_paths(&u, &g);
        assert!(
            paths.is_empty(),
            "source without sink reachability must not fire: {paths:?}"
        );

        // Now give core::sample a route into the cluster tick.
        let mut u2 = u.clone();
        u2[2] = FileUnit::new(
            FileContext::for_path("crates/core/src/sample.rs"),
            "\
use std::collections::HashMap;
use ppc_cluster::sim::tick;
pub fn sample(m: &HashMap<u32, f64>, j: &mut ppc_simkit::Journal) {
    tick(j);
}
",
        );
        let g2 = graph::build(&u2);
        let paths = taint_paths(&u2, &g2);
        assert_eq!(paths.len(), 1, "HashMap token on the signature line");
        let p = &paths[0];
        assert_eq!(p.source.kind, SourceKind::UnorderedIter);
        // source fn → tick → observe → record: three hops.
        assert_eq!(p.hops.len(), 3);
        assert_eq!(g2.nodes[p.sink].fq(), "simkit::journal::Journal::record");
    }

    /// A helper that returns a wall-clock read taints its caller, which
    /// writes the value to a journal; a source fn returning nothing does
    /// not taint its caller.
    #[test]
    fn taint_flows_up_through_a_returned_value() {
        let u = units(&[(
            "crates/core/src/x.rs",
            "\
pub struct Journal;
impl Journal {
    pub fn record(&mut self, _at: u64) {}
}
fn stamp() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}
fn discard() {
    let _ = Instant::now();
}
pub fn log(j: &mut Journal) {
    discard();
    j.record(stamp());
}
",
        )]);
        let g = graph::build(&u);
        let paths = taint_paths(&u, &g);
        assert_eq!(paths.len(), 1, "{paths:?}");
        let p = &paths[0];
        assert_eq!((p.source.kind, p.source.line), (SourceKind::WallClock, 6));
        let up = g.edges[p.returned_to.expect("the value returns to its caller")];
        assert_eq!(g.nodes[up.caller].fq(), "core::x::log");
        assert_eq!(up.line, 13);
        assert_eq!(p.hops.len(), 1);
        assert_eq!(g.nodes[p.sink].fq(), "core::x::Journal::record");
    }

    #[test]
    fn return_types_are_recognized() {
        let returns =
            |src: &str| graph::build(&units(&[("crates/core/src/x.rs", src)])).nodes[0].returns;
        assert!(returns("fn f() -> u64 {\n    0\n}\n"));
        assert!(returns(
            "fn f<T: Fn() -> u8>(t: T) -> Vec<u8> {\n    t\n}\n"
        ));
        assert!(!returns("fn f<T: Fn() -> u8>(t: T) {\n}\n"));
        assert!(!returns("fn f(g: impl Fn(u8) -> u8) {\n}\n"));
        assert!(!returns("fn f<F>(g: F)\nwhere\n    F: Fn() -> u8,\n{\n}\n"));
        assert!(!returns("fn f() -> () {\n}\n"));
    }

    #[test]
    fn class_gating_exempts_timing_bench_and_binaries() {
        let u = units(&[
            (
                "crates/telemetry/src/cost.rs",
                "pub fn measure() -> u64 {\n    let t = Instant::now();\n    fingerprint()\n}\npub fn fingerprint() -> u64 {\n    0\n}\n",
            ),
            (
                "crates/bench/src/bin/gate.rs",
                "fn main() {\n    let args = std::env::args();\n    let t = Instant::now();\n}\n",
            ),
        ]);
        let g = graph::build(&u);
        assert!(taint_paths(&u, &g).is_empty());
    }

    #[test]
    fn thread_identity_and_float_reduce_detect() {
        let hits = detect_sources("let w = std::thread::available_parallelism();");
        assert!(hits.iter().any(|(k, _)| *k == SourceKind::ThreadIdentity));
        let hits = detect_sources("let total: f64 = map.values().sum();");
        assert!(hits.iter().any(|(k, _)| *k == SourceKind::FloatReduce));
        let hits = detect_sources("let v = series.values().to_vec();");
        assert!(hits.is_empty(), "projection without reduction is clean");
    }

    #[test]
    fn health_plane_fingerprints_are_labeled_sinks() {
        let u = units(&[(
            "crates/obs/src/sketch.rs",
            "\
pub struct QuantileSketch;
impl QuantileSketch {
    pub fn fingerprint(&self) -> u64 { 0 }
}
pub struct SloEngine;
impl SloEngine {
    pub fn fingerprint(&self) -> u64 { 0 }
}
pub fn leak(s: &QuantileSketch) -> u64 {
    let t = SystemTime::now();
    s.fingerprint()
}
",
        )]);
        let g = graph::build(&u);
        let labels: Vec<_> = find_sinks(&g)
            .into_iter()
            .filter_map(|i| sink_label(&g.nodes[i]))
            .collect();
        assert!(
            labels
                .iter()
                .filter(|&&l| l == "health fingerprint")
                .count()
                >= 2,
            "sketch and slo fingerprints must classify as health sinks: {labels:?}"
        );
        // And a wall-clock source reaching one is a reportable path.
        let paths = taint_paths(&u, &g);
        assert_eq!(paths.len(), 1, "{paths:?}");
        assert_eq!(paths[0].source.kind, SourceKind::WallClock);
    }

    #[test]
    fn shard_join_order_flags_sink_in_closure_only() {
        let u = units(&[(
            "crates/cluster/src/shard.rs",
            "\
pub struct Journal;
impl Journal {
    pub fn record(&mut self) {}
}
pub struct Pool;
impl Pool {
    pub fn for_each_mut(&self, _items: &mut [u32]) {}
}
pub fn bad(pool: &Pool, items: &mut [u32], j: &mut Journal) {
    pool.for_each_mut(items, |_i, _x| {
        j.record();
    });
}
pub fn good(pool: &Pool, items: &mut [u32], j: &mut Journal) {
    pool.for_each_mut(items, |_i, _x| {
        work();
    });
    j.record();
}
fn work() {}
",
        )]);
        let g = graph::build(&u);
        let findings = shard_join_findings(&u, &g);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(g.nodes[findings[0].caller].name, "bad");
        assert_eq!(findings[0].fanout, "for_each_mut");
        assert_eq!(g.nodes[findings[0].callee].name, "record");
    }
}
