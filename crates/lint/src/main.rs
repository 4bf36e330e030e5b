//! `ppc-lint` CLI.
//!
//! ```text
//! cargo run -p ppc-lint -- --workspace            # scan, exit 1 on violations
//! cargo run -p ppc-lint -- --workspace --json     # also write LINT_report.json
//! cargo run -p ppc-lint -- --workspace --deny     # stale allows become errors
//! cargo run -p ppc-lint -- --list-rules           # rule catalogue
//! cargo run -p ppc-lint -- crates/core/src/budget.rs   # scan specific files
//! ```
//!
//! Exit codes: 0 clean, 1 violations, 2 usage/IO error. Without `--deny`,
//! `unused-suppression` findings are advisory (printed, but do not affect
//! the exit code); CI passes `--deny` so stale allows rot for at most one
//! merge.

use ppc_lint::{report, scan, Report, Rule};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    root: PathBuf,
    json: bool,
    deny: bool,
    list_rules: bool,
    workspace: bool,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        deny: false,
        list_rules: false,
        workspace: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--deny" => args.deny = true,
            "--list-rules" => args.list_rules = true,
            "--root" => {
                args.root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a value".to_string())?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: ppc-lint [--root DIR] [--json] [--deny] [--list-rules] \
                     [--workspace | FILES...]"
                        .to_string(),
                )
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}` (try --help)"))
            }
            file => args.files.push(file.to_string()),
        }
    }
    if !args.workspace && !args.list_rules && args.files.is_empty() {
        args.workspace = true; // the only sensible default
    }
    Ok(args)
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    if args.list_rules {
        print!("{}", report::render_rules());
        return Ok(0);
    }

    let started = Instant::now();
    let ws = if args.workspace {
        scan::scan_workspace(&args.root)
            .map_err(|e| format!("scanning workspace at {}: {e}", args.root.display()))?
    } else {
        // Explicit file lists run the same engine as the workspace scan,
        // restricted to the named files: a file that only a test-only
        // `mod x;` outside the set pulls in is linted as library code (the
        // workspace scan is the authority; this mode is for fast
        // iteration on one file).
        let mut inputs = Vec::new();
        for rel in &args.files {
            let text =
                std::fs::read_to_string(args.root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
            inputs.push((scan::FileContext::for_path(rel), text));
        }
        scan::scan_units(inputs)
    };
    let elapsed = started.elapsed();

    if args.json {
        let json = Report::from_scan(&ws).to_json();
        let path = args.root.join("LINT_report.json");
        std::fs::write(&path, format!("{json}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{json}");
        eprint!("{}", report::render_text(&ws));
    } else {
        print!("{}", report::render_text(&ws));
    }
    eprintln!(
        "lint-runtime: {} files in {:.3}s",
        ws.files_scanned,
        elapsed.as_secs_f64()
    );

    let hard = ws
        .diagnostics
        .iter()
        .filter(|d| d.rule != Rule::UnusedSuppression)
        .count();
    let stale = ws.diagnostics.len() - hard;
    if !args.deny && hard == 0 && stale > 0 {
        eprintln!("note: {stale} stale allow(s) tolerated without --deny");
    }
    Ok(if hard > 0 || (args.deny && stale > 0) {
        1
    } else {
        0
    })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("ppc-lint: {msg}");
            std::process::exit(2);
        }
    }
}
