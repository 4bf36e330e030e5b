#!/usr/bin/env bash
# The gate every change must pass (see README, "Performance tracking").
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test -q
# The repository benchmark's own tests: perfbench reads the control plane
# (`sim.manager()`, `sim.hierarchy()`) and checks its invariants.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc with warnings denied: every intra-doc link resolves, private
# items included (the simulator's tick-phase modules link to one
# another's items).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items --offline

# Static pass: determinism/safety lint over every crate (see DESIGN §11
# and §16 for the call-graph taint pass). Writes LINT_report.json; exits
# non-zero on any unsuppressed violation, and --deny turns stale allow
# directives into errors too. The runtime line lands in the CI log via
# the tool's stderr (`lint-runtime: ...`).
cargo run --release -p ppc-lint -- --workspace --json --deny
grep -q '"schema": "ppc-lint/v2"' LINT_report.json \
    || { echo "LINT_report.json is not ppc-lint/v2" >&2; exit 1; }

# Dynamic pass: same seed must yield bit-identical journals, power
# traces, span trees, metrics registries and health fingerprints across
# same-seed repeats, evaluation modes, a mid-run what-if branch and the
# flat/one-rack/3-level control planes — the replay-determinism contract.
# (The tick runs on one thread, so there is no pool width to vary.)
cargo run --release -p ppc-bench --bin determinism_gate

# The paper's §V in-text claims (learned thresholds, no Red under
# capping, ~2% performance loss, ~10% lower peak, MPC over HRI): exits
# non-zero when a claim points the wrong way.
cargo run --release -p ppc-bench --bin headline_claims

# What-if service smoke: a short query stream against a snapshot of the
# paper-scale cluster, served one request at a time, must replay
# bit-identically (answers and engine fingerprints) as one fanned-out
# batch.
cargo run --release -p ppc-bench --bin whatif_serve -- --smoke >/dev/null

cargo run --release -p ppc-bench --bin ext_faults -- --smoke

# Bench smoke + perf guard: quick per-tick medians, then fail if the
# managed 128-node step regressed >25% vs the committed baseline (the
# guard takes the best of three medians to ride out shared-box noise).
cargo run --release -p ppc-bench --bin bench_ppc -- --smoke --guard BENCH_ppc.json >/dev/null

# Observability smoke: a faulted managed run must emit a schema-valid
# JSONL trace stream through --trace-out (see DESIGN §12) and a
# schema-valid health stream through --health-out (see DESIGN §17).
trace_tmp="$(mktemp -t ppc-trace.XXXXXX.jsonl)"
health_tmp="$(mktemp -t ppc-health.XXXXXX.jsonl)"
trap 'rm -f "$trace_tmp" "$health_tmp"' EXIT
./target/release/ppc run --nodes 8 --provision 0.6 --faults 6 \
    --training-mins 1 --measure-mins 5 --trace-out "$trace_tmp" \
    --health-out "$health_tmp" >/dev/null
cargo run --release -p ppc-obs --bin validate_trace -- "$trace_tmp"
cargo run --release -p ppc-obs --bin validate_health -- "$health_tmp"
