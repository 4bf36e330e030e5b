//! `ppc` — command-line front end for the power provision & capping
//! architecture.
//!
//! ```text
//! ppc run [--policy MPC] [--nodes 16] [--paper] [--cap N] [--provision F]
//!         [--training-mins M] [--measure-mins M] [--seed S] [--backfill]
//!         [--critical-frac F] [--trace-out FILE] [--metrics-out FILE]
//!         [--health-out FILE] [--json]
//! ppc sweep [--policy MPC] [--sizes 0,8,16,...] [--paper]
//! ppc policies
//! ```
//!
//! `run` executes one training+measurement experiment and prints the
//! metric suite; `sweep` reproduces the Figure-6 candidate-set sweep;
//! `policies` lists the implemented target-set selection policies.

use ppc::cluster::experiment::{run_experiment, run_experiment_full, ExperimentConfig};
use ppc::cluster::output::{outcome_to_json, render_table};
use ppc::cluster::ClusterSpec;
use ppc::core::PolicyKind;
use ppc::simkit::SimDuration;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  ppc run [--policy MPC|MPC-C|LPC|LPC-C|BFP|HRI|HRI-C|none] [--nodes N]\n          [--paper] [--cap N] [--provision FRAC] [--training-mins M]\n          [--measure-mins M] [--seed S] [--backfill] [--critical-frac F]\n          [--trace FILE] [--faults RATE] [--trace-out FILE]\n          [--metrics-out FILE] [--health-out FILE] [--json]\n  ppc sweep [--policy MPC] [--sizes 0,8,16,32,48,64,96,128] [--paper]\n  ppc policies\n\n  --trace-out writes the control-cycle span tree: Chrome trace_event\n  JSON (load in Perfetto / chrome://tracing), or a JSONL event stream\n  if FILE ends in .jsonl. --metrics-out writes a Prometheus-style text\n  dump of the deterministic instruments plus self-profile comments.\n  --health-out writes the fleet health JSONL stream (per-zone rollups\n  and the SLO alert journal; validated in CI by validate_health)."
    );
    exit(2)
}

/// Minimal flag parser: `--key value` pairs plus boolean flags.
struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i].clone();
            if !key.starts_with("--") {
                eprintln!("unexpected argument {key:?}");
                usage();
            }
            let value = if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                i += 1;
                Some(raw[i].clone())
            } else {
                None
            };
            pairs.push((key, value));
            i += 1;
        }
        Args { pairs }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {key}: {v:?}");
                usage()
            })
        })
    }
}

fn build_config(args: &Args) -> ExperimentConfig {
    let policy = match args.get("--policy") {
        None => Some(PolicyKind::Mpc),
        Some("none") | Some("uncapped") => None,
        Some(p) => Some(p.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        })),
    };
    let mut cfg = if args.flag("--paper") {
        ExperimentConfig::paper(policy)
    } else {
        let nodes: u32 = args.parsed("--nodes").unwrap_or(16);
        ExperimentConfig::quick(policy, nodes)
    };
    if let Some(cap) = args.parsed::<usize>("--cap") {
        cfg.candidate_cap = Some(cap);
    }
    if let Some(f) = args.parsed::<f64>("--provision") {
        cfg.spec.provision_fraction = f;
    }
    if let Some(m) = args.parsed::<u64>("--training-mins") {
        cfg.training = SimDuration::from_mins(m);
    }
    if let Some(m) = args.parsed::<u64>("--measure-mins") {
        cfg.measurement = SimDuration::from_mins(m);
    }
    if let Some(s) = args.parsed::<u64>("--seed") {
        cfg.spec.seed = s;
    }
    if args.flag("--backfill") {
        cfg.spec.backfill = true;
    }
    if let Some(f) = args.parsed::<f64>("--critical-frac") {
        cfg.spec.critical_job_fraction = f;
    }
    if let Some(path) = args.get("--trace") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read trace {path:?}: {e}");
            exit(2)
        });
        let entries = ppc::workload::parse_trace(&text).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        });
        cfg.spec.job_trace = Some(entries);
    }
    if let Some(rate) = args.parsed::<f64>("--faults") {
        // One knob drives a mixed schedule: crashes and hangs at `rate`
        // per node-hour, silences slightly more often (they are the
        // cheapest fault), over the whole training+measurement window.
        let rates = ppc::faults::FaultRates {
            crash_per_node_hour: rate,
            reboot_mean_secs: 45.0,
            hang_per_node_hour: rate,
            silence_per_node_hour: rate * 1.5,
            ..ppc::faults::FaultRates::default()
        };
        let horizon = cfg.training + cfg.measurement;
        let schedule = ppc::faults::FaultSchedule::generate(
            &rates,
            cfg.spec.total_nodes(),
            horizon,
            &ppc::simkit::RngFactory::new(cfg.spec.seed),
        );
        cfg.faults = Some(ppc::faults::FaultInjection::new(schedule));
    }
    cfg
}

/// Writes `text` to `path`, exiting with a message on failure.
fn write_or_die(path: &str, text: &str, what: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {what} {path:?}: {e}");
        exit(1);
    }
    eprintln!("{what} written to {path}");
}

fn cmd_run(args: &Args) {
    let cfg = build_config(args);
    let (out, sim) = run_experiment_full(&cfg);
    if let Some(path) = args.get("--trace-out") {
        let obs = sim.obs();
        let text = if path.ends_with(".jsonl") {
            ppc::obs::jsonl(&obs.spans, &obs.metrics)
        } else {
            ppc::obs::chrome_trace(&obs.spans)
        };
        write_or_die(path, &text, "trace");
    }
    if let Some(path) = args.get("--metrics-out") {
        let obs = sim.obs();
        let mut text = ppc::obs::prometheus(&obs.metrics);
        // The health plane's labeled per-rack and per-row series.
        text.push_str(&ppc::obs::prometheus_health(sim.health()));
        // Wall-clock self-profile rides along as comments: scrapers skip
        // them, and the deterministic instrument block above stays a pure
        // function of the seed.
        for cost in obs.profile.report() {
            text.push_str(&format!(
                "# self-profile {} mean_secs {:.9} count {}\n",
                cost.stage, cost.mean_secs, cost.count
            ));
        }
        write_or_die(path, &text, "metrics");
    }
    if let Some(path) = args.get("--health-out") {
        let text = ppc::obs::health_jsonl(sim.health());
        write_or_die(path, &text, "health");
    }
    if args.flag("--json") {
        println!("{}", outcome_to_json(&out));
        return;
    }
    let m = &out.metrics;
    let rows = vec![
        vec!["policy".into(), out.label.clone()],
        vec!["candidate count".into(), out.candidate_count.to_string()],
        vec!["jobs finished".into(), m.jobs_finished.to_string()],
        vec!["Performance(cap)".into(), format!("{:.4}", m.performance)],
        vec![
            "CPLJ".into(),
            format!("{} ({:.1}%)", m.cplj, m.cplj_fraction * 100.0),
        ],
        vec!["P_max".into(), format!("{:.2} kW", m.p_max_w / 1e3)],
        vec!["P_mean".into(), format!("{:.2} kW", m.p_mean_w / 1e3)],
        vec!["ΔP×T".into(), format!("{:.5}", m.overspend)],
        vec![
            "provision P_Max".into(),
            format!("{:.2} kW", out.provision_w / 1e3),
        ],
        vec![
            "thresholds (P_L, P_H)".into(),
            format!(
                "{:.2} kW, {:.2} kW",
                out.thresholds_w.0 / 1e3,
                out.thresholds_w.1 / 1e3
            ),
        ],
        vec!["red cycles".into(), out.red_cycles_measured.to_string()],
        vec![
            "mgmt cost/cycle".into(),
            format!("{:.1} µs", out.mgmt_cost_secs * 1e6),
        ],
        vec!["journal dropped".into(), out.journal_dropped.to_string()],
        vec![
            "span fingerprint".into(),
            format!("{:016x}", out.obs.span_fingerprint),
        ],
        vec![
            "metrics fingerprint".into(),
            format!("{:016x}", out.obs.metrics_fingerprint),
        ],
    ];
    println!("{}", render_table(&["metric", "value"], &rows));
}

fn cmd_sweep(args: &Args) {
    let sizes: Vec<usize> = args
        .get("--sizes")
        .unwrap_or("0,8,16,32,48,64,96,128")
        .split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("invalid size {s:?}");
                usage()
            })
        })
        .collect();
    let mut base_args = build_config(args);
    base_args.policy = None;
    base_args.candidate_cap = None;
    eprintln!("running baseline …");
    let baseline = run_experiment(&base_args);
    let policy = match args.get("--policy") {
        None => PolicyKind::Mpc,
        Some(p) => p.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        }),
    };
    let mut rows = Vec::new();
    for &size in &sizes {
        let (label, pmax, over) = if size == 0 {
            ("0 (unmanaged)".to_string(), 1.0, 1.0)
        } else {
            let mut cfg = build_config(args);
            cfg.policy = Some(policy);
            cfg.candidate_cap = Some(size);
            eprintln!("running |A_candidate| = {size} …");
            let out = run_experiment(&cfg);
            let n = out.metrics.normalize_against(&baseline.metrics);
            (size.to_string(), n.p_max, n.overspend)
        };
        rows.push(vec![label, format!("{pmax:.4}"), format!("{over:.4}")]);
    }
    println!(
        "{}",
        render_table(&["|A_candidate|", "P_max (norm.)", "ΔP×T (norm.)"], &rows)
    );
}

fn cmd_policies() {
    let mut rows = Vec::new();
    for kind in PolicyKind::ALL {
        let family = match kind {
            PolicyKind::Hri | PolicyKind::HriC => "change-based",
            PolicyKind::Uniform | PolicyKind::RoundRobin => "baseline",
            _ => "state-based",
        };
        let paper = if PolicyKind::PAPER.contains(&kind) {
            "evaluated in paper"
        } else if PolicyKind::PAPER_FAMILY.contains(&kind) {
            "paper future work"
        } else {
            "related-work baseline"
        };
        rows.push(vec![kind.name().to_string(), family.into(), paper.into()]);
    }
    println!("{}", render_table(&["policy", "family", "status"], &rows));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        // No subcommand: show a tiny demo-scale run so `cargo run -p ppc`
        // does something useful.
        eprintln!("no subcommand; defaulting to: ppc run --nodes 8\n");
        let spec = ClusterSpec::mini(8);
        drop(spec);
        cmd_run(&Args::parse(&["--nodes".into(), "8".into()]));
        return;
    };
    let args = Args::parse(rest);
    match cmd.as_str() {
        "run" => cmd_run(&args),
        "sweep" => cmd_sweep(&args),
        "policies" => cmd_policies(),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown subcommand {other:?}");
            usage()
        }
    }
}
