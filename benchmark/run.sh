#!/usr/bin/env bash
# One-line runner: builds the benchmark (release, offline) and runs one
# workload, printing every metric as `name value unit`.
#
#   benchmark/run.sh <workload> [--trace] [--seed N]
#
# Workloads: list_read_mostly queue_churn skiplist_mixed skiplist_stalled.
# For the repeatability test run the binary with `--selfcheck <workload>`.
set -euo pipefail

usage() {
    echo "usage: benchmark/run.sh <workload> [--trace] [--seed N]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
workload="$1"
shift
trace=0
seed=1
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) trace=1 ;;
        --seed)
            [ $# -ge 2 ] || usage
            seed="$2"
            shift
            ;;
        *) usage ;;
    esac
    shift
done

# The binary writes its trace under benchmark/out relative to the repo root.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed "$seed" --trace "$trace"
