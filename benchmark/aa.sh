#!/usr/bin/env bash
# A/A check: run the whole benchmark twice on the same code and compare the
# two sets with the benchmark's own bounds.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
#
# Each set is every workload untraced (the end-to-end metrics) and traced
# (the exact counters of the per-layer ledger).  Prints, per end-to-end
# metric and workload, both values and their ratio.  Exits non-zero if a
# pair disagrees by more than its bound in BENCHMARK.json, or if `sim_s`,
# a pass's `ops` or any metric marked exact differs at all.  If two runs of the same
# code cannot agree within a bound, that bound cannot tell a regression
# from noise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

for set in a b; do
    echo "== set $set" >&2
    for w in scan_atlas blocking_atlas serve_burst churn_choice; do
        for t in 0 1; do
            "$here/run.sh" --workload "$w" --trace "$t" "$@" | tail -n 1 >&2
        done
    done
    rm -rf "$target/benchmark-aa-$set"
    mkdir -p "$target/benchmark-aa-$set"
    cp "$target"/benchmark/*.json "$target/benchmark-aa-$set/"
done

exec "$target/release/robustmap-benchmark" compare \
    "$target/benchmark-aa-a" "$target/benchmark-aa-b" "$root/BENCHMARK.json"
