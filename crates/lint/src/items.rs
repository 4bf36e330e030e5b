//! Brace-aware item parser on top of the [`crate::source`] lexer.
//!
//! Recovers the structure the call-graph passes need from analyzed lines:
//! the inline module tree, `fn` items (with their body line ranges and the
//! `impl` type that owns them), and `use` imports. This is still not a
//! full parser — it never builds an expression tree — but item *headers*
//! in rustfmt'd code are regular enough to recognize with a keyword
//! scanner plus brace/paren depth tracking, and a misparse degrades to a
//! missing or spurious call edge (visible in the report's ambiguity
//! counters), never to silently skipped source text.

use crate::source::Line;

/// One `fn` item recovered from a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl` (or `trait`) type the fn is defined on, if any.
    pub impl_type: Option<String>,
    /// Inline `mod` chain enclosing the item (innermost last).
    pub module: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based line of the body's opening `{`.
    pub open_line: usize,
    /// 1-based line of the body's closing `}`.
    pub close_line: usize,
    /// True if the fn lives in a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
    /// True if the signature declares a return type other than `()`.
    pub returns: bool,
}

/// One `use` import: `alias` names `path` in this file's scope.
#[derive(Debug, Clone)]
pub struct Import {
    /// The name the item is visible under (last segment, or `as` alias).
    pub alias: String,
    /// Full path segments as written (e.g. `["ppc_simkit", "Journal"]`).
    pub path: Vec<String>,
}

/// Everything recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Functions in source order (outer items before nested ones).
    pub fns: Vec<FnItem>,
    /// `use` imports, in source order.
    pub imports: Vec<Import>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendKind {
    Fn,
    Impl,
    Mod,
    Trait,
    Use,
}

struct Pending {
    kind: PendKind,
    buf: String,
    sig_line: usize,
    /// Paren nesting inside the header (a `;` only terminates at depth 0).
    paren: i32,
    /// Brace nesting inside a `use …{…};` tree.
    brace: i32,
}

enum ScopeKind {
    Mod(String),
    Impl(String),
    Fn(usize),
}

struct Scope {
    kind: ScopeKind,
    depth: i64,
}

/// Parses one file's analyzed lines into items.
pub fn parse(lines: &[Line]) -> FileItems {
    let mut out = FileItems::default();
    let mut depth: i64 = 0;
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let pend_info = pending.as_ref().map(|p| (p.kind, p.paren, p.brace));
            if let Some((kind, paren, brace)) = pend_info {
                match c {
                    '{' if kind == PendKind::Use => {
                        if let Some(p) = pending.as_mut() {
                            p.brace += 1;
                            p.buf.push(c);
                        }
                        i += 1;
                    }
                    '}' if kind == PendKind::Use && brace > 0 => {
                        if let Some(p) = pending.as_mut() {
                            p.brace -= 1;
                            p.buf.push(c);
                        }
                        i += 1;
                    }
                    '{' if paren == 0 => {
                        // Header complete: open the item's scope.
                        if let Some(p) = pending.take() {
                            depth += 1;
                            open_scope(p, lineno, depth, &mut scopes, &mut out, line.in_test);
                        }
                        i += 1;
                    }
                    ';' if paren == 0 && brace == 0 => {
                        // Declaration without a body (`mod x;`, trait fn,
                        // `use …;`): record imports, drop the rest.
                        if let Some(p) = pending.take() {
                            if p.kind == PendKind::Use {
                                parse_use(&p.buf, &mut out.imports);
                            }
                        }
                        i += 1;
                    }
                    '}' => {
                        // A closing brace while a header is pending means
                        // the "header" was an expression-position keyword
                        // (e.g. an `fn(…)` pointer type in a struct field).
                        pending = None;
                        // Reprocess the `}` as normal code below.
                    }
                    '(' => {
                        if let Some(p) = pending.as_mut() {
                            p.paren += 1;
                            p.buf.push(c);
                        }
                        i += 1;
                    }
                    ')' => {
                        if let Some(p) = pending.as_mut() {
                            p.paren -= 1;
                            p.buf.push(c);
                        }
                        i += 1;
                    }
                    _ => {
                        if let Some(p) = pending.as_mut() {
                            p.buf.push(c);
                        }
                        i += 1;
                    }
                }
                if pending.is_some() || c != '}' {
                    continue;
                }
                // fall through: the `}` that cancelled the pending header
                // is handled by the code path below.
            }
            match c {
                '{' => {
                    depth += 1;
                    i += 1;
                }
                '}' => {
                    if scopes.last().is_some_and(|s| s.depth == depth) {
                        let scope = match scopes.pop() {
                            Some(s) => s,
                            None => break,
                        };
                        if let ScopeKind::Fn(fi) = scope.kind {
                            out.fns[fi].close_line = lineno;
                        }
                    }
                    depth -= 1;
                    i += 1;
                }
                _ if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    let word: String = chars[start..i].iter().collect();
                    let kind = match word.as_str() {
                        "fn" => Some(PendKind::Fn),
                        "impl" => Some(PendKind::Impl),
                        "mod" => Some(PendKind::Mod),
                        "trait" => Some(PendKind::Trait),
                        "use" => Some(PendKind::Use),
                        _ => None,
                    };
                    if let Some(kind) = kind {
                        pending = Some(Pending {
                            kind,
                            buf: String::new(),
                            sig_line: lineno,
                            paren: 0,
                            brace: 0,
                        });
                    }
                }
                _ => i += 1,
            }
        }
    }
    // Unterminated items at EOF (truncated input): close them on the last
    // line so body ranges stay well-formed.
    let last = lines.len();
    for scope in scopes {
        if let ScopeKind::Fn(fi) = scope.kind {
            out.fns[fi].close_line = last;
        }
    }
    out
}

/// True if a `fn` header (everything after the keyword) declares a return
/// type other than `()`: a `->` right after the parameter list. Generic
/// parameters are skipped by angle depth (the `>` of an `->` inside them
/// does not close one), so an `impl Fn() -> T` bound never counts.
fn returns_value(header: &str) -> bool {
    let (mut angle, mut paren) = (0i32, 0i32);
    let mut prev = ' ';
    for (i, c) in header.char_indices() {
        match c {
            '<' => angle += 1,
            '>' if prev != '-' => angle -= 1,
            '(' if angle == 0 => paren += 1,
            ')' if angle == 0 => {
                paren -= 1;
                if paren == 0 {
                    let rest = header[i + 1..].trim_start();
                    let Some(ret) = rest.strip_prefix("->") else {
                        return false;
                    };
                    let ret = ret.split(" where ").next().unwrap_or(ret);
                    return ret.trim() != "()";
                }
            }
            _ => {}
        }
        prev = c;
    }
    false
}

/// Pushes the scope for a completed header and records `fn` items.
fn open_scope(
    p: Pending,
    open_line: usize,
    depth: i64,
    scopes: &mut Vec<Scope>,
    out: &mut FileItems,
    in_test: bool,
) {
    let kind = match p.kind {
        PendKind::Fn => {
            let Some(name) = first_ident(&p.buf) else {
                // `fn(…)` pointer type that somehow reached a `{`: treat
                // the brace as an anonymous block.
                scopes.push(Scope {
                    kind: ScopeKind::Mod(String::new()),
                    depth,
                });
                return;
            };
            let impl_type = scopes.iter().rev().find_map(|s| match &s.kind {
                ScopeKind::Impl(t) => Some(t.clone()),
                _ => None,
            });
            let module = scopes
                .iter()
                .filter_map(|s| match &s.kind {
                    ScopeKind::Mod(m) if !m.is_empty() => Some(m.clone()),
                    _ => None,
                })
                .collect();
            out.fns.push(FnItem {
                name,
                impl_type,
                module,
                sig_line: p.sig_line,
                open_line,
                close_line: open_line,
                in_test,
                returns: returns_value(&p.buf),
            });
            ScopeKind::Fn(out.fns.len() - 1)
        }
        PendKind::Impl | PendKind::Trait => ScopeKind::Impl(impl_type_name(&p.buf)),
        PendKind::Mod => ScopeKind::Mod(first_ident(&p.buf).unwrap_or_default()),
        // `use` never opens a scope (braces are tracked inside the
        // pending header), but keep the stack symmetric if it does.
        PendKind::Use => ScopeKind::Mod(String::new()),
    };
    scopes.push(Scope { kind, depth });
}

/// First identifier in a header buffer (the fn/mod name).
fn first_ident(buf: &str) -> Option<String> {
    let start = buf.find(|c: char| c.is_alphabetic() || c == '_')?;
    let rest = &buf[start..];
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    let ident = &rest[..end];
    (!ident.is_empty()).then(|| ident.to_string())
}

/// The self type of an `impl` header: `<T> Foo<T>` → `Foo`,
/// `fmt::Display for Rule` → `Rule`, `Trait for &mut X<'a>` → `X`.
fn impl_type_name(buf: &str) -> String {
    let s = skip_generics(buf.trim_start());
    // `for` at angle-depth 0 splits trait from self type; bounds like
    // `for<'a>` sit inside generics and were skipped above.
    let target = split_for(s).unwrap_or(s);
    last_path_segment(target)
}

/// Skips a leading `<…>` generic parameter list, guarding `->` arrows.
fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let b = s.as_bytes();
    let mut angle = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'<' => angle += 1,
            b'>' if i > 0 && b[i - 1] == b'-' => {}
            b'>' => {
                angle -= 1;
                if angle == 0 {
                    return s[i + 1..].trim_start();
                }
            }
            _ => {}
        }
        i += 1;
    }
    s
}

/// Splits `Trait for Type` at a top-level ` for `, returning the type.
fn split_for(s: &str) -> Option<&str> {
    let b = s.as_bytes();
    let mut angle = 0i32;
    let mut i = 0;
    while i + 4 <= b.len() {
        match b[i] {
            b'<' => angle += 1,
            b'>' if i > 0 && b[i - 1] == b'-' => {}
            b'>' => angle -= 1,
            b'f' if angle == 0
                && s[i..].starts_with("for")
                && (i == 0 || !is_ident_char(b[i - 1]))
                && b.get(i + 3).is_some_and(|&c| !is_ident_char(c)) =>
            {
                return Some(s[i + 3..].trim_start());
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The last path segment of a type, generics stripped:
/// `&mut a::b::Foo<'x, T>` → `Foo`.
fn last_path_segment(s: &str) -> String {
    let s = s
        .trim_start()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start_matches("dyn ")
        .trim_start();
    let head = s
        .find(['<', '{', ' ', '('])
        .map_or(s, |end| &s[..end])
        .trim_end();
    head.rsplit("::").next().unwrap_or(head).to_string()
}

/// Parses the body of a `use` declaration (keyword stripped) into imports.
fn parse_use(buf: &str, out: &mut Vec<Import>) {
    let body = buf.trim().trim_start_matches("pub").trim();
    collect_use(body, &[], out);
}

/// Recursive descent over `a::b::{c, d as e, f::g}` trees.
fn collect_use(s: &str, prefix: &[String], out: &mut Vec<Import>) {
    let s = s.trim();
    if s.is_empty() || s == "*" {
        return; // glob imports add nothing the resolver can use
    }
    if let Some(brace) = s.find('{') {
        let head = s[..brace].trim().trim_end_matches("::");
        let mut pre: Vec<String> = prefix.to_vec();
        pre.extend(head.split("::").filter(|p| !p.is_empty()).map(String::from));
        let inner = s[brace + 1..].strip_suffix('}').unwrap_or(&s[brace + 1..]);
        // Split on top-level commas.
        let mut depth = 0i32;
        let mut start = 0;
        let bytes = inner.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                b',' if depth == 0 => {
                    collect_use(&inner[start..i], &pre, out);
                    start = i + 1;
                }
                _ => {}
            }
        }
        collect_use(&inner[start..], &pre, out);
        return;
    }
    let (path_part, alias) = match s.split_once(" as ") {
        Some((p, a)) => (p.trim(), Some(a.trim().to_string())),
        None => (s, None),
    };
    let mut path: Vec<String> = prefix.to_vec();
    path.extend(
        path_part
            .split("::")
            .map(str::trim)
            .filter(|p| !p.is_empty() && *p != "self")
            .map(String::from),
    );
    let Some(last) = path.last().cloned() else {
        return;
    };
    out.push(Import {
        alias: alias.unwrap_or(last),
        path,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source;

    fn parse_src(src: &str) -> FileItems {
        parse(&source::analyze(src))
    }

    #[test]
    fn recovers_free_and_method_fns() {
        let src = "\
pub fn free(x: u32) -> u32 {
    x + 1
}
impl Journal {
    pub fn record(&mut self) {
        self.push();
    }
}
";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].name, "free");
        assert_eq!(items.fns[0].impl_type, None);
        assert_eq!((items.fns[0].open_line, items.fns[0].close_line), (1, 3));
        assert_eq!(items.fns[1].name, "record");
        assert_eq!(items.fns[1].impl_type.as_deref(), Some("Journal"));
        assert_eq!((items.fns[1].open_line, items.fns[1].close_line), (5, 7));
    }

    #[test]
    fn impl_headers_with_generics_and_traits() {
        let src = "\
impl<'a, T: Send> RackSlot<'a, T> {
    fn a(&self) {}
}
impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Ok(())
    }
}
impl<F: Fn(usize) -> u64> Holder<F> {
    fn call(&self) {}
}
";
        let items = parse_src(src);
        assert_eq!(items.fns[0].impl_type.as_deref(), Some("RackSlot"));
        assert_eq!(items.fns[1].impl_type.as_deref(), Some("Rule"));
        assert_eq!(items.fns[1].name, "fmt");
        assert_eq!(items.fns[2].impl_type.as_deref(), Some("Holder"));
    }

    #[test]
    fn inline_modules_and_tests_are_tracked() {
        let src = "\
mod inner {
    pub fn helper() {}
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        helper();
    }
}
";
        let items = parse_src(src);
        assert_eq!(items.fns[0].module, vec!["inner".to_string()]);
        assert!(!items.fns[0].in_test);
        assert_eq!(items.fns[1].name, "t");
        assert!(items.fns[1].in_test);
    }

    #[test]
    fn multiline_signatures_and_where_clauses() {
        let src = "\
pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    body();
}
";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "for_each_mut");
        assert_eq!(items.fns[0].sig_line, 1);
        assert_eq!(items.fns[0].open_line, 5);
        assert_eq!(items.fns[0].close_line, 7);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "\
pub struct Holder {
    callback: fn(u32) -> u32,
}
fn real() {}
";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "real");
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let src = "\
pub trait Policy {
    fn select(&self) -> u32;
    fn fallback(&self) -> u32 {
        0
    }
}
";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 1, "decl without body is not an item");
        assert_eq!(items.fns[0].name, "fallback");
        assert_eq!(items.fns[0].impl_type.as_deref(), Some("Policy"));
    }

    #[test]
    fn use_trees_flatten() {
        let src = "use ppc_simkit::{Journal, hash::Fnv1a, par as pool};\nuse std::fmt;\n";
        let items = parse_src(src);
        let find = |a: &str| {
            items
                .imports
                .iter()
                .find(|i| i.alias == a)
                .map(|i| i.path.join("::"))
        };
        assert_eq!(find("Journal").as_deref(), Some("ppc_simkit::Journal"));
        assert_eq!(find("Fnv1a").as_deref(), Some("ppc_simkit::hash::Fnv1a"));
        assert_eq!(find("pool").as_deref(), Some("ppc_simkit::par"));
        assert_eq!(find("fmt").as_deref(), Some("std::fmt"));
    }

    #[test]
    fn nested_fn_attributed_to_inner_scope() {
        let src = "\
fn outer() {
    fn inner() {
        x();
    }
    inner();
}
";
        let items = parse_src(src);
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].name, "outer");
        assert_eq!(items.fns[1].name, "inner");
        assert_eq!((items.fns[1].open_line, items.fns[1].close_line), (2, 4));
        assert_eq!(items.fns[0].close_line, 6);
    }
}
