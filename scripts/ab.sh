#!/usr/bin/env bash
# Paired comparison of the repository benchmark between two trees.
#
#   scripts/ab.sh [--layers] BASE [HEAD] WORKLOAD PAIRS [SEED]
#
# BASE and HEAD are git revisions; without HEAD the working tree is the
# change. WORKLOAD is one of BENCHMARK.json's workloads, PAIRS the number
# of run pairs, SEED the perfbench seed (default 7). Each run lasts
# BENCHMARK.json's run_seconds.
#
# BASE (and HEAD, when given) is unpacked with `git archive` and built
# with `cargo --offline` into its own directory under target/ab/, reused
# by later calls for the same commit; the working tree builds into
# target/ab/worktree/. Pairs alternate which side runs first. For each
# end-to-end metric the script prints both medians, the base's
# interquartile distance, the median of the per-pair differences and the
# number of pairs the change won (ties counting for neither side), then
# the report's wall-clock figures the same way (perfbench's metrics are
# in reference time, scaled by its host-speed kernel). With --layers every
# run is traced (perfbench --trace 1) and the summary covers BENCHMARK.json's
# per-layer metrics instead, skipping those the workload does not exercise,
# with the mean wall time of each `*_us` metric's trace span beside them.
# Raw result lines go to target/ab/runs-*.jsonl.
# Needs bash, git, cargo and python3; changes nothing under perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
    echo "usage: scripts/ab.sh [--layers] BASE [HEAD] WORKLOAD PAIRS [SEED]" >&2
    exit 2
}

trace=0
if [[ ${1:-} == --layers ]]; then
    trace=1
    shift
fi

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
is_workload() { [[ " $workloads " == *" $1 "* ]]; }

[[ $# -ge 3 && $# -le 5 ]] || usage
base=$1
shift
head=""
if ! is_workload "$1"; then
    head=$1
    shift
fi
[[ $# -ge 2 ]] || usage
workload=$1
pairs=$2
seed=${3:-7}
is_workload "$workload" || { echo "unknown workload $workload (one of: $workloads)" >&2; exit 2; }
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "PAIRS must be a positive integer" >&2; exit 2; }
[[ $seed =~ ^[0-9]+$ ]] || { echo "SEED must be a non-negative integer" >&2; exit 2; }
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

ab="$root/target/ab"
mkdir -p "$ab"

# Unpacks revision $1 under target/ab/<sha>/src once; prints the sha.
unpack() {
    local sha
    sha=$(git rev-parse --verify "$1^{commit}")
    if [[ ! -f "$ab/$sha/src/Cargo.toml" ]]; then
        rm -rf "$ab/$sha/src"
        mkdir -p "$ab/$sha/src"
        git archive "$sha" | tar -x -C "$ab/$sha/src"
    fi
    echo "$sha"
}

# Builds perfbench from source tree $1 into target directory $2.
build() {
    echo "building $1" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --quiet --offline \
        --manifest-path "$1/perfbench/Cargo.toml" >&2
}

base_sha=$(unpack "$base")
base_src="$ab/$base_sha/src"
build "$base_src" "$ab/$base_sha/target"
base_bin="$ab/$base_sha/target/release/perfbench"
if [[ -n $head ]]; then
    head_sha=$(unpack "$head")
    head_src="$ab/$head_sha/src"
    head_label=${head_sha:0:10}
    build "$head_src" "$ab/$head_sha/target"
    head_bin="$ab/$head_sha/target/release/perfbench"
else
    head_src=$root
    head_label="working tree"
    build "$root" "$ab/worktree"
    head_bin="$ab/worktree/release/perfbench"
fi

kind=$([[ $trace == 1 ]] && echo layers || echo e2e)
runs="$ab/runs-$workload-$seed-$kind-$(date +%Y%m%dT%H%M%S).jsonl"
: > "$runs"

# One run of side $1 (base|head); appends {side, pair, report, result}.
run() {
    local side=$1 pair=$2 bin src out
    if [[ $side == base ]]; then bin=$base_bin src=$base_src; else bin=$head_bin src=$head_src; fi
    out=$(cd "$src" && "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 2)
    python3 - "$side" "$pair" "$out" >> "$runs" <<'EOF'
import json, sys
side, pair, out = sys.argv[1], int(sys.argv[2]), sys.argv[3].splitlines()
print(json.dumps({"side": side, "pair": pair,
                  "report": json.loads(out[0])["report"], "result": json.loads(out[1])}))
EOF
}

echo "base ${base_sha:0:10} vs $head_label: $workload, seed $seed, $pairs pairs of ${seconds} s runs" >&2
for ((p = 0; p < pairs; p++)); do
    if ((p % 2 == 0)); then order="base head"; else order="head base"; fi
    start=$SECONDS
    for side in $order; do
        run "$side" "$p"
    done
    echo "pair $((p + 1))/$pairs done ($order, $((SECONDS - start)) s)" >&2
done

python3 - "$runs" "$root/BENCHMARK.json" "${base_sha:0:10}" "$head_label" "$trace" <<'EOF'
import json, statistics, sys

runs_path, bench_path, base_label, head_label, trace = sys.argv[1:]
layers = trace == "1"
runs = [json.loads(l) for l in open(runs_path)]
bench = json.load(open(bench_path))
pairs = sorted({r["pair"] for r in runs})
side = {(r["side"], r["pair"]): r for r in runs}

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def row(name, better, get):
    base = [get(side[("base", p)]) for p in pairs]
    head = [get(side[("head", p)]) for p in pairs]
    bm, hm = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    diff = statistics.median([h - b for b, h in zip(base, head)])
    if better == "lower":
        won = sum(h < b for b, h in zip(base, head))
    else:
        won = sum(h > b for b, h in zip(base, head))
    ties = sum(h == b for b, h in zip(base, head))
    pct = f"{100 * diff / bm:+.1f}%" if bm else "n/a"
    tied = f", {ties} tied" if ties else ""
    print(f"{name:<30} {bm:>14.6g} {hm:>14.6g} {q3 - q1:>12.4g} {diff:>+13.4g} {pct:>8} {won:>3}/{len(pairs)}  ({better} is better{tied})")

print(f"\n{len(pairs)} pairs, base = {base_label}, change = {head_label}; raw runs in {runs_path}")
print(f"{'metric':<30} {'base median':>14} {'change median':>14} {'base IQR':>12} {'median diff':>13} {'':>8} won")
# A traced run's report lists the per-layer metrics its workload does
# not exercise (they read 0); they are left out.
skipped = {n for r in runs for n in r["report"].get("not_exercised", [])}
for m in bench["per_layer" if layers else "end_to_end"]:
    if m["name"] in skipped:
        continue
    row(m["name"], m["better"], lambda r, n=m["name"]: r["result"]["metrics"][n]["value"])
print("wall clock (unscaled):")
if layers:
    # A per-layer `X_us` whose span `X` the trace holds: its mean wall time.
    for m in bench["per_layer"]:
        span = m["name"].removesuffix("_us")
        if m["name"] in skipped or span == m["name"]:
            continue
        if all(span in r["report"].get("spans", {}) for r in runs):
            row("wall." + m["name"], m["better"],
                lambda r, s=span: 1e6 * r["report"]["spans"][s]["total_s"] / r["report"]["spans"][s]["count"])
row("wall.setup_s", "lower", lambda r: r["report"]["wall"]["setup_s"])
row("wall.pass_p50_us", "lower", lambda r: statistics.median(r["report"]["wall"]["pass_p50_us"]))
row("host_speed.slowdown", "lower", lambda r: r["report"]["host_speed"]["slowdown"])
for s in ("base", "head"):
    rs = [side[(s, p)]["result"] for p in pairs]
    ok = sum(r["correct"] for r in rs)
    failed = sum(r["failed"] for r in rs)
    print(f"{s}: {ok}/{len(rs)} runs correct, {failed} failed operations")
if not layers:
    same = all(side[("base", p)]["result"]["metrics"][k]["value"] == side[("head", p)]["result"]["metrics"][k]["value"]
               for p in pairs for k in ("job_perf", "peak_power_frac"))
    print("job_perf and peak_power_frac identical in every pair:", "yes" if same else "NO")
EOF
