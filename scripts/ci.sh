#!/usr/bin/env bash
# The gate every change must pass (see README, "Performance tracking").
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
# Tier-1. Includes the behaviour pin (`tests/fingerprints.rs`: golden
# fingerprints plus same-seed, dense, what-if branch and one-rack legs)
# and the paper's §V claims (`crates/bench/tests/headline_claims.rs`).
cargo test -q
# The repository benchmark's own tests: perfbench reads the control plane
# (`sim.manager()`, `sim.hierarchy()`) and checks its invariants.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc with warnings denied: every intra-doc link resolves, private
# items included (the simulator's tick-phase modules link to one
# another's items).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items --offline

# Static pass: determinism/safety lint over every crate (see DESIGN §11).
# Writes LINT_report.json; exits non-zero on any unsuppressed violation,
# and --deny turns stale allow directives into errors too. The runtime
# line lands in the CI log via the tool's stderr (`lint-runtime: ...`).
cargo run --release -p ppc-lint -- --workspace --json --deny
grep -q '"schema": "ppc-lint/v3"' LINT_report.json \
    || { echo "LINT_report.json is not ppc-lint/v3" >&2; exit 1; }

# What-if service smoke: a short query stream against a snapshot of the
# paper-scale cluster, served one request at a time, must replay
# bit-identically (answers and engine fingerprints) as one fanned-out
# batch.
cargo run --release -p ppc-bench --bin whatif_serve -- --smoke >/dev/null

cargo run --release -p ppc-bench --bin ext_faults -- --smoke

# Observability smoke: a faulted managed run must emit a schema-valid
# JSONL trace stream through --trace-out (see DESIGN §12), a
# schema-valid health stream through --health-out (see DESIGN §17), and
# a Prometheus dump through --metrics-out that carries the labeled rack
# series and the control stage's self-profile comments.
# Ten measured minutes close more spans than the recorder retains, so
# the exported stream comes from a wrapped span ring.
trace_tmp="$(mktemp -t ppc-trace.XXXXXX.jsonl)"
health_tmp="$(mktemp -t ppc-health.XXXXXX.jsonl)"
metrics_tmp="$(mktemp -t ppc-metrics.XXXXXX.prom)"
trap 'rm -f "$trace_tmp" "$health_tmp" "$metrics_tmp"' EXIT
./target/release/ppc run --nodes 8 --provision 0.6 --faults 6 \
    --training-mins 1 --measure-mins 10 --trace-out "$trace_tmp" \
    --health-out "$health_tmp" --metrics-out "$metrics_tmp" >/dev/null
cargo run --release -p ppc-obs --bin validate_trace -- "$trace_tmp"
cargo run --release -p ppc-obs --bin validate_health -- "$health_tmp"
grep -qF 'ppc_rack_power_watts{rack="0",row="0"} ' "$metrics_tmp" \
    || { echo "--metrics-out has no labeled rack series" >&2; exit 1; }
grep -qF '# self-profile control.select ' "$metrics_tmp" \
    || { echo "--metrics-out has no control.select self-profile line" >&2; exit 1; }

# Bench smoke + perf guard, last, so a timing failure on a noisy host
# cannot hide a schema or correctness failure above: quick per-tick
# medians, then fail if the managed 128-node step regressed >25% vs the
# committed baseline (the guard takes the best of three medians to ride
# out shared-box noise).
cargo run --release -p ppc-bench --bin bench_ppc -- --smoke --guard BENCH_ppc.json >/dev/null
