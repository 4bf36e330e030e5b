//! A minimal Rust source lexer: good enough to blank out comments,
//! string/char literal *contents*, and to track `#[cfg(test)]` regions by
//! brace depth — so rule tokens never fire inside a doc comment or a log
//! message, and test-only rules know where tests live.
//!
//! This is deliberately not a full parser. It handles line comments,
//! nested block comments, escaped strings, raw strings (`r"…"`,
//! `r#"…"#`, byte variants), char literals, and the char-literal vs
//! lifetime ambiguity (`'a'` vs `'a`). That covers everything the
//! workspace actually contains; exotic token sequences the lexer
//! misreads would at worst produce a false positive answerable with an
//! `allow` — never a silently missed region of real code.

/// One analyzed source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code with comments removed and string/char contents
    /// blanked (quotes retained, so `.expect("msg")` still scans as
    /// `.expect("")`).
    pub code: String,
    /// The line's comment text (both `//` and `/* */` bodies), where
    /// `ppc-lint:` directives live.
    pub comment: String,
    /// True if the line is inside a `#[cfg(test)]` or `#[test]` region.
    pub in_test: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    Char,
}

/// Splits `text` into analyzed lines.
pub fn analyze(text: &str) -> Vec<Line> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                in_test: false,
            });
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        state = State::Str;
                        i += 1;
                    }
                    'r' | 'b' if is_raw_string_start(&chars, i) => {
                        let (hashes, consumed) = raw_string_open(&chars, i);
                        code.push('"');
                        state = State::RawStr(hashes);
                        i += consumed;
                    }
                    '\'' => {
                        // Char literal vs lifetime: a literal is 'x' or
                        // '\…'; a lifetime tick is followed by an ident
                        // with no closing quote two ahead.
                        if next == Some('\\') {
                            code.push('\'');
                            state = State::Char;
                            i += 2; // skip the backslash so Char sees the escaped char
                        } else if chars.get(i + 2).copied() == Some('\'') && next.is_some() {
                            code.push_str("''");
                            i += 3;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                }
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Skip the escaped char (may be a quote) — but leave a
                    // line-continuation newline for the line accounting.
                    i += if chars.get(i + 1) == Some(&'\n') {
                        1
                    } else {
                        2
                    };
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    code.push('"');
                    state = State::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            State::Char => {
                if c == '\'' {
                    code.push('\'');
                    state = State::Code;
                }
                i += 1;
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push(Line {
            code,
            comment,
            in_test: false,
        });
    }
    mark_test_regions(&mut lines);
    lines
}

/// True if `chars[i..]` opens a raw (byte) string: `r"`, `r#…#"`, `br"`,
/// `b"` is a plain byte string (handled as `Str` would be, but blanking is
/// identical so we treat it as raw with zero hashes only when quoted
/// directly).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    } else if j > i {
        // plain `b"…"` byte string
        return chars.get(j) == Some(&'"');
    } else {
        return false;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Returns (hash count, chars consumed through the opening quote).
fn raw_string_open(chars: &[char], i: usize) -> (usize, usize) {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    }
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j + 1 - i)
}

/// True if the quote at `i` is followed by `hashes` pound signs.
fn closes_raw_string(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` regions by tracking the
/// brace depth at which the attributed block opens. A file whose first
/// code line is `#![cfg(test)]` (an out-of-line test module) is one region.
fn mark_test_regions(lines: &mut [Line]) {
    let first = lines.iter().map(|l| l.code.trim()).find(|c| !c.is_empty());
    if first == Some("#![cfg(test)]") {
        for line in lines.iter_mut() {
            line.in_test = true;
        }
        return;
    }
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut open_at: Option<i64> = None;
    for line in lines.iter_mut() {
        if open_at.is_none() && (line.code.contains("cfg(test") || line.code.contains("#[test]")) {
            pending = true;
        }
        let mut in_test = open_at.is_some();
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && open_at.is_none() {
                        open_at = Some(depth);
                        pending = false;
                        in_test = true;
                    }
                }
                '}' => {
                    if open_at == Some(depth) {
                        open_at = None;
                        in_test = true; // the closing line still belongs to the region
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        line.in_test = in_test;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped_and_collected() {
        let lines = analyze("let x = 1; // has HashMap in comment\n/* block HashMap */ let y;");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.contains("HashMap"));
        assert!(!lines[1].code.contains("HashMap"));
        assert!(lines[1].code.contains("let y"));
    }

    #[test]
    fn string_contents_are_blanked_quotes_kept() {
        let lines = analyze("let s = \"panic! HashMap .unwrap()\";");
        assert_eq!(lines[0].code, "let s = \"\";");
    }

    #[test]
    fn raw_strings_and_escapes() {
        let lines = analyze("let s = r#\"thread_rng \"quoted\"\"#; let t = \"a\\\"b HashSet\";");
        assert!(!lines[0].code.contains("thread_rng"));
        assert!(!lines[0].code.contains("HashSet"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let lines = analyze("fn f<'a>(x: &'a str) { let q = '\"'; let n = 'x'; } panic!");
        assert!(lines[0].code.contains("panic!"), "{}", lines[0].code);
        assert!(lines[0].code.contains("&'a str"));
    }

    #[test]
    fn nested_block_comments() {
        let lines = analyze("/* outer /* inner */ still comment */ code_here");
        assert!(lines[0].code.trim().starts_with("code_here"));
    }

    #[test]
    fn multiline_strings_span_lines() {
        let lines = analyze("let s = \"line one HashMap\nline two HashSet\"; done");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(!lines[1].code.contains("HashSet"));
        assert!(lines[1].code.contains("done"));
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
fn lib2() {}
";
        let lines = analyze(src);
        assert!(!lines[0].in_test);
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(lines[4].in_test, "closing brace line belongs to the region");
        assert!(!lines[5].in_test);
    }

    #[test]
    fn inner_cfg_test_makes_the_whole_file_a_region() {
        let lines = analyze("//! Tests.\n\n#![cfg(test)]\nfn helper() { x.unwrap(); }\n");
        assert!(lines.iter().all(|l| l.in_test));
        let lines = analyze("fn lib() {}\n#![cfg(test)]\nfn helper() {}\n");
        assert!(!lines[0].in_test, "only a leading inner attribute counts");
    }

    #[test]
    fn test_attribute_on_fn_is_tracked() {
        let src = "#[test]\nfn t() {\n    body();\n}\nfn lib() {}\n";
        let lines = analyze(src);
        assert!(lines[2].in_test);
        assert!(!lines[4].in_test);
    }
}
