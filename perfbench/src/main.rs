//! The repository benchmark: end-to-end metrics of four workloads and, in
//! a traced run, per-layer metrics of every crate on the served path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet100k_busy --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end set, or with
//! `--trace 1` the per-layer set). The line before it is a report with
//! the host context, sample counts and simulated results. A traced run
//! also writes its spans to `.bench_out/`. See `perfbench/README.md`.

mod arrivals;
mod checks;
mod fleet;
mod host;
mod layers;
mod report;
mod spans;
mod speed;
mod stats;
mod sweep;
mod whatif;

use report::{Outcome, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "fleet100k_busy",
    "paper128_sweep",
    "faulted10k",
    "whatif128",
];

/// Where traced runs write their spans.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    match args.workload.as_str() {
        "fleet100k_busy" => fleet::run(&fleet::FLEET100K_BUSY, args.seed, args.seconds, tracer),
        "faulted10k" => fleet::run(&fleet::FAULTED10K, args.seed, args.seconds, tracer),
        "paper128_sweep" => sweep::run(args.seed, args.seconds, tracer),
        "whatif128" => whatif::run(args.seed, args.seconds, tracer),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = run(&args, &mut tracer);
    outcome.set("peak_rss_mb", host::peak_rss_mb());

    let defs: &[report::MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let absent: Vec<&str> = defs
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !outcome.metrics.contains_key(name))
        .collect();
    if !args.trace && !absent.is_empty() {
        eprintln!("perfbench: end-to-end metrics missing: {absent:?}");
        return ExitCode::FAILURE;
    }

    let mut detail = vec![
        ("workload".to_string(), serde_json::json!(args.workload)),
        ("seed".to_string(), serde_json::json!(args.seed)),
        ("seconds".to_string(), serde_json::json!(args.seconds)),
        ("trace".to_string(), serde_json::json!(args.trace)),
        ("host".to_string(), host::context()),
        (
            "shape_errors".to_string(),
            serde_json::json!(outcome.shape_errors),
        ),
    ];
    detail.append(&mut outcome.detail);
    if args.trace {
        detail.push(("not_exercised".to_string(), serde_json::json!(absent)));
        let totals: Vec<(String, serde_json::Value)> = tracer
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    serde_json::json!({ "count": t.count, "total_s": t.total_s, "self_s": t.self_s }),
                )
            })
            .collect();
        detail.push(("spans".to_string(), serde_json::Value::Object(totals)));
        let path = format!("{SPAN_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => detail.push(("span_file".to_string(), serde_json::json!(path))),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    let detail = serde_json::Value::Object(detail);
    println!(
        "{}",
        serde_json::to_string(&serde_json::json!({ "report": detail })).expect("JSON")
    );
    let line = report::result_line(&outcome, defs);
    println!("{}", serde_json::to_string(&line).expect("JSON"));
    ExitCode::SUCCESS
}
