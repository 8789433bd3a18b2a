#!/usr/bin/env bash
# A/B of two commits on BENCHMARK.json's workloads: builds both from their
# committed files and runs the benchmark command alternately, then prints, per
# workload and end-to-end metric, the medians, the delta, the change's wins out
# of the untied pairs and an exact two-sided sign-test p.
#
#   scripts/ab.sh [options] <parent> [<change>]   <change> defaults to HEAD
#   scripts/ab.sh --aa [options] <parent>         the parent against itself
#
#   --pairs N        pairs per workload and batch (default 5)
#   --workloads a,b  a subset of BENCHMARK.json's workloads (default all)
#   --dir D          build and result directory (default target/ab)
#
# Every run lasts BENCHMARK.json's run_seconds, with seed 1. Each side is
# exported with `git archive` into D/<sha>/src and built offline into
# D/<sha>/target, so the working tree, the index and its benchmark/Cargo.lock
# are never touched. The runs come in two batches; in each, every workload
# runs a discarded warm-up pair, then N pairs, the order alternating ABBA. A
# delta is marked "gain" or "loss" under the repository's rule: one side is
# better in at least 9 of 10 pairs that are not tied (ties count for neither
# side), and the medians differ by more than the parent's interquartile range.
# An --aa run is the host's noise floor: it should mark nothing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage() {
    sed -n '2,12p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

pairs=5
seconds=$(jq -r .run_seconds BENCHMARK.json)
workloads=$(jq -r '[.workloads[].name] | join(",")' BENCHMARK.json)
dir=target/ab
aa=0
revs=()
while [ $# -gt 0 ]; do
    case "$1" in
        --aa) aa=1 ;;
        --pairs | --workloads | --dir)
            [ $# -ge 2 ] || usage
            case "$1" in
                --pairs) pairs=$2 ;;
                --workloads) workloads=$2 ;;
                --dir) dir=$2 ;;
            esac
            shift
            ;;
        -*) usage ;;
        *) revs+=("$1") ;;
    esac
    shift
done
[ ${#revs[@]} -ge 1 ] && [ ${#revs[@]} -le $((2 - aa)) ] || usage
parent=$(git rev-parse --verify "${revs[0]}^{commit}")
if [ $aa = 1 ]; then change=$parent; else change=$(git rev-parse --verify "${revs[1]:-HEAD}^{commit}"); fi
mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
results="$dir/runs-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$results"

build() {
    local sha=$1 tree="$dir/$1"
    if [ ! -d "$tree/src" ]; then
        mkdir -p "$tree/src.partial"
        git archive "$sha" | tar -x -C "$tree/src.partial"
        mv "$tree/src.partial" "$tree/src"
    fi
    echo "building ${sha:0:12} in $tree" >&2
    (cd "$tree/src" && CARGO_TARGET_DIR="$tree/target" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
}

# run <sha> <workload> <output file>: the last line of the benchmark's
# standard output, its JSON summary.
run() {
    local tree="$dir/$1"
    (cd "$tree/src" && CARGO_TARGET_DIR="$tree/target" "${command[@]}" --workload "$2" \
        --seed 1 --seconds "$seconds" --trace 0 2>/dev/null) | tail -n 1 >"$3"
    jq -e 'has("correct")' "$3" >/dev/null 2>&1 || { echo "error: run $3 printed no summary" >&2; exit 1; }
    jq -e .correct "$3" >/dev/null || { echo "error: run $3 reports correct: false" >&2; exit 1; }
}

build "$parent"
[ "$change" = "$parent" ] || build "$change"

IFS=, read -r -a workload_list <<<"$workloads"
for batch in 1 2; do
    for workload in "${workload_list[@]}"; do
        out="$results/$batch/$workload"
        mkdir -p "$out"
        run "$parent" "$workload" "$out/warmup.A.json"
        run "$change" "$workload" "$out/warmup.B.json"
        for pair in $(seq 1 "$pairs"); do
            echo "batch $batch, $workload, pair $pair of $pairs" >&2
            order="A B"
            [ $((pair % 2)) = 0 ] && order="B A"
            for side in $order; do
                sha=$parent
                [ "$side" = B ] && sha=$change
                run "$sha" "$workload" "$out/$pair.$side.json"
            done
        done
    done
done

python3 - "$results" "$parent" "$change" "$aa" <<'EOF'
import json, math, os, statistics, sys

results, parent, change, aa = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"
bench = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}


def load(path):
    with open(path) as f:
        return json.load(f)


def sign_p(wins, n):
    """Exact two-sided sign test over the `n` untied pairs: the chance of a
    split at least this uneven when each pair is a fair coin."""
    if n == 0:
        return 1.0
    k = max(wins, n - wins)
    tail = sum(math.comb(n, i) for i in range(k, n + 1)) / 2**n
    return min(1.0, 2 * tail)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


label = "A/A" if aa else "A/B"
print(f"{label}: parent {parent[:12]}, change {change[:12]}; results in {results}")
for workload in sorted(os.listdir(os.path.join(results, "1"))):
    batches = []
    for batch in ("1", "2"):
        out = os.path.join(results, batch, workload)
        n = len([f for f in os.listdir(out) if f.endswith(".A.json") and not f.startswith("warmup")])
        batches.append([(load(f"{out}/{i}.A.json"), load(f"{out}/{i}.B.json")) for i in range(1, n + 1)])
    runs = [run for batch in batches for pair in batch for run in pair]
    failed = sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
    correct = all(r["correct"] for r in runs)
    print(f"\n{workload}: {len(batches[0])} + {len(batches[1])} pairs; all correct: {correct}; failed share {failed:.3g}")
    print(f"  {'metric':<14} {'parent':>9} {'change':>9} {'delta':>8} {'parent IQR':>11} {'batch 1':>8} {'batch 2':>8} {'wins':>6} {'p':>7}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        sign = 1 if better[name] == "higher" else -1

        def values(batch, side):
            return [pair[side]["metrics"][name]["value"] for pair in batch if name in pair[side]["metrics"]]

        a = values(batches[0], 0) + values(batches[1], 0)
        b = values(batches[0], 1) + values(batches[1], 1)
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        delta = (mb - ma) / ma * 100 if ma else float("nan")
        per_batch = []
        for batch in batches:
            pa, pb = statistics.median(values(batch, 0)), statistics.median(values(batch, 1))
            per_batch.append((pb - pa) / pa * 100 if pa else float("nan"))
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        untied = wins + losses
        p = sign_p(wins, untied)
        q1, q3 = quartiles(a)
        verdict = ""
        if untied and abs(mb - ma) > q3 - q1:
            if 10 * wins >= 9 * untied:
                verdict = "gain"
            elif 10 * losses >= 9 * untied:
                verdict = "loss"
        print(
            f"  {name:<14} {ma:>9.4g} {mb:>9.4g} {delta:>+7.1f}% {q3 - q1:>11.3g} "
            f"{per_batch[0]:>+7.1f}% {per_batch[1]:>+7.1f}% {wins:>3}/{untied:<2} {p:>7.3f}  {verdict}"
        )
EOF
