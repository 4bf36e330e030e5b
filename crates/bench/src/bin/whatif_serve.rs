//! whatif_serve — the long-running what-if service benchmark.
//!
//! Stands up the paper-scale managed cluster (128 Tianhe-1A nodes, MPC
//! policy), advances it to a busy steady state, snapshots it, and then
//! serves a sustained stream of what-if queries against the snapshot the
//! way an operator console would: one request at a time, each a full
//! branch-and-simulate projection. Reports service throughput and
//! per-query latency percentiles:
//!
//! ```text
//! cargo run --release -p ppc-bench --bin whatif_serve
//! git diff BENCH_ppc.json   # compare against the committed baseline
//! ```
//!
//! Flags:
//!
//! * `--queries N` — stream length (default 4000);
//! * `--horizon T` — projection horizon in ticks (default 30);
//! * `--warmup T` — base-sim warmup ticks before the snapshot (default 300);
//! * `--smoke` — CI mode: short stream, print JSON to stdout, do **not**
//!   touch `BENCH_ppc.json`, and fail if replaying the stream as one
//!   batch (fanned out over every core) changes any answer or engine
//!   fingerprint the one-at-a-time service loop produced (the
//!   service-layer determinism check).
//!
//! In full mode the results are merged into `BENCH_ppc.json` under the
//! `"whatif"` key (the rest of the file is preserved).
//!
//! The query mix cycles through every kind — baseline, admit-jobs,
//! set-cap, drop-nodes, swap-policy — with index-derived parameters, so
//! the stream is deterministic and self-describing.

use ppc_cluster::{ClusterSim, ClusterSpec};
use ppc_core::{ManagerConfig, NodeSets, PolicyKind, PowerManager};
use ppc_whatif::{ClusterSnapshot, JobSpec, WhatIfEngine, WhatIfQuery, WhatIfRequest};
use ppc_workload::{Class, NpbApp};
use std::time::Instant;

/// The paper-scale managed base simulation the service snapshots.
fn base_sim() -> ClusterSim {
    let spec = ClusterSpec::tianhe_1a_variant();
    let sets = NodeSets::new(spec.node_ids(), []);
    let config = ManagerConfig {
        training_cycles: 0,
        ..ManagerConfig::paper_defaults(spec.provision_w(), PolicyKind::Mpc)
    };
    let manager = PowerManager::new(config, sets).expect("valid config");
    // A service clones the base per query. The journal and the span
    // recorder share their sealed history chunks with every branch, so a
    // branch copies at most one chunk of each; the small journal ring
    // bounds what the base keeps resident.
    ClusterSim::new(spec)
        .with_manager(manager)
        .with_journal_capacity(256)
}

/// The deterministic query stream: index `i` fully determines the query.
fn request(i: usize, horizon: u64, provision_w: f64) -> WhatIfRequest {
    let v = i / 5; // per-kind variant counter
    let query = match i % 5 {
        0 => WhatIfQuery::Baseline,
        1 => WhatIfQuery::AdmitJobs {
            jobs: vec![JobSpec {
                app: NpbApp::ALL[v % NpbApp::ALL.len()],
                class: Class::C,
                nprocs: 32 + 32 * (v % 4) as u32,
                critical: v.is_multiple_of(7),
            }],
        },
        2 => WhatIfQuery::SetCap {
            provision_w: provision_w * (0.85 + 0.05 * (v % 7) as f64),
        },
        3 => WhatIfQuery::DropNodes {
            count: 1 + (v % 4) as u32,
            rack: None,
        },
        _ => WhatIfQuery::SwapPolicy {
            policy: PolicyKind::ALL[v % PolicyKind::ALL.len()],
        },
    };
    WhatIfRequest::new(query, horizon)
}

/// Percentile by nearest-rank over a sorted sample set.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let mut smoke = false;
    let mut queries = 4000usize;
    let mut horizon = 30u64;
    let mut warmup = 300u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--queries" => queries = args.next().expect("--queries <n>").parse().expect("count"),
            "--horizon" => horizon = args.next().expect("--horizon <t>").parse().expect("ticks"),
            "--warmup" => warmup = args.next().expect("--warmup <t>").parse().expect("ticks"),
            other => {
                panic!("unknown flag {other} (expected --smoke | --queries | --horizon | --warmup)")
            }
        }
    }
    if smoke {
        queries = queries.min(200);
    }

    let mut sim = base_sim();
    for _ in 0..warmup {
        sim.step();
    }
    let provision_w = sim.spec().provision_w();
    let snapshot = ClusterSnapshot::capture(&sim);
    let nodes = snapshot.base().spec().node_count;
    let branch_tick = snapshot.tick();

    let stream: Vec<WhatIfRequest> = (0..queries)
        .map(|i| request(i, horizon, provision_w))
        .collect();

    // The service loop: one query at a time, as a console would submit
    // them; each is a full branch-and-simulate projection.
    let mut engine = WhatIfEngine::new(snapshot.clone());
    let mut latencies_us = Vec::with_capacity(queries);
    let mut served_answers = Vec::with_capacity(queries);
    let served = Instant::now();
    for req in &stream {
        let t = Instant::now();
        let answers = engine.run_batch(std::slice::from_ref(req));
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        served_answers.extend(answers);
    }
    let elapsed = served.elapsed().as_secs_f64();
    let throughput_qps = queries as f64 / elapsed;
    let span_fp = engine.span_fingerprint();
    let metrics_fp = engine.metrics_fingerprint();

    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let p50_us = percentile(&latencies_us, 50.0);
    let p99_us = percentile(&latencies_us, 99.0);

    let admitted = served_answers.iter().filter(|a| a.admit).count();

    if smoke {
        // Service-layer determinism: the whole stream as one fanned-out
        // batch against a fresh engine on the same snapshot must
        // reproduce every answer the service loop gave and both engine
        // fingerprints.
        let mut again = WhatIfEngine::new(snapshot);
        let replay = again.run_batch(&stream);
        assert_eq!(served_answers, replay, "replay changed an answer");
        assert_eq!(
            span_fp,
            again.span_fingerprint(),
            "span fingerprint diverged"
        );
        assert_eq!(
            metrics_fp,
            again.metrics_fingerprint(),
            "metrics fingerprint diverged"
        );
        eprintln!(
            "whatif_serve: determinism ok — {queries} queries replay bit-identically as one batch"
        );
    }

    let report = serde_json::json!({
        "nodes": nodes,
        "branch_tick": branch_tick,
        "horizon_ticks": horizon,
        "queries": queries,
        "throughput_qps": throughput_qps,
        "latency_us": { "p50": p50_us, "p99": p99_us },
        "admitted": admitted,
        "denied": queries - admitted,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("serializable");
    println!("{rendered}");
    eprintln!(
        "whatif_serve: {queries} queries in {elapsed:.3}s — {throughput_qps:.0} q/s, \
         p50 {p50_us:.0}us, p99 {p99_us:.0}us"
    );

    if !smoke {
        // Merge under "whatif", preserving the rest of the committed file.
        let mut doc: serde_json::Value = std::fs::read_to_string("BENCH_ppc.json")
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .unwrap_or_else(|| serde_json::json!({}));
        let serde_json::Value::Object(entries) = &mut doc else {
            panic!("BENCH_ppc.json is not a JSON object");
        };
        entries.retain(|(k, _)| k != "whatif");
        entries.push(("whatif".to_string(), report));
        let out = serde_json::to_string_pretty(&doc).expect("serializable");
        std::fs::write("BENCH_ppc.json", format!("{out}\n")).expect("write BENCH_ppc.json");
        eprintln!("updated BENCH_ppc.json (whatif section)");
    }
}
