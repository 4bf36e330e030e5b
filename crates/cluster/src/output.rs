//! Report formatting: aligned text tables, CSV, JSON.
//!
//! The figure regenerators print the same rows/series the paper reports;
//! these helpers keep their output consistent and machine-readable.

use crate::experiment::ExperimentOutcome;
use std::fmt::Write as _;

/// Renders an aligned text table.
///
/// # Panics
/// Panics if any row's width differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: Vec<&str>, widths: &[usize]| {
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>w$}", w = *w);
        }
        out.push('\n');
    };
    line(&mut out, headers.to_vec(), &widths);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut out, rule.iter().map(String::as_str).collect(), &widths);
    for row in rows {
        line(&mut out, row.iter().map(String::as_str).collect(), &widths);
    }
    out
}

/// Quotes one CSV field per RFC 4180: fields containing a comma, a
/// double quote, or a line break are wrapped in double quotes, with
/// embedded quotes doubled. Clean fields pass through unchanged.
fn csv_field(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        let mut quoted = String::with_capacity(field.len() + 2);
        quoted.push('"');
        for ch in field.chars() {
            if ch == '"' {
                quoted.push('"');
            }
            quoted.push(ch);
        }
        quoted.push('"');
        quoted
    } else {
        field.to_string()
    }
}

/// Renders rows as RFC-4180 CSV (fields with commas, quotes or line
/// breaks are quoted; numeric tables pass through unchanged).
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let render_row = |out: &mut String, cells: &mut dyn Iterator<Item = &str>| {
        for (i, cell) in cells.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&csv_field(cell));
        }
        out.push('\n');
    };
    render_row(&mut out, &mut headers.iter().copied());
    for row in rows {
        render_row(&mut out, &mut row.iter().map(String::as_str));
    }
    out
}

/// Serializes an outcome (minus the bulky trace) to pretty JSON.
pub fn outcome_to_json(outcome: &ExperimentOutcome) -> String {
    // The full trace can hold hundreds of thousands of samples; reports
    // keep a decimated preview and the complete metrics.
    let slim = ExperimentOutcome {
        trace: outcome.trace.decimate(60),
        records: Vec::new(),
        ..outcome.clone()
    };
    // ppc-lint: allow(panic-path): serializing a plain data struct with the vendored encoder cannot fail
    serde_json::to_string_pretty(&slim).expect("outcome serializes")
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["long-name".to_string(), "12345".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        // All lines align to the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["x".to_string()]]);
    }

    #[test]
    fn csv_shape() {
        let csv = render_csv(&["x", "y"], &[vec!["1".to_string(), "2".to_string()]]);
        assert_eq!(csv, "x,y\n1,2\n");
    }

    #[test]
    fn csv_quotes_commas_quotes_and_newlines() {
        let csv = render_csv(
            &["label", "note"],
            &[
                vec!["mpc/64".to_string(), "red, then green".to_string()],
                vec!["say \"hi\"".to_string(), "two\nlines".to_string()],
                vec!["clean".to_string(), "also clean".to_string()],
            ],
        );
        let expected = "label,note\n\
                        mpc/64,\"red, then green\"\n\
                        \"say \"\"hi\"\"\",\"two\nlines\"\n\
                        clean,also clean\n";
        assert_eq!(csv, expected);
    }

    #[test]
    fn csv_quotes_headers_too() {
        let csv = render_csv(&["a,b", "c"], &[]);
        assert_eq!(csv, "\"a,b\",c\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.731), "73.1%");
    }
}
