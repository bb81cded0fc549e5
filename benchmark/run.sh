#!/usr/bin/env bash
# The repository benchmark, one command.
#
#   benchmark/run.sh                      build, unit-test, run all four workloads
#   benchmark/run.sh --traced             ... and the traced run of each (per-layer ledger)
#   benchmark/run.sh --workload NAME      one workload; the last line of stdout is its result
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Builds `benchmark/` and the `figures` binary in release mode, offline,
# into $CARGO_TARGET_DIR (default: the repository's target/).  Records and
# traces land in $CARGO_TARGET_DIR/benchmark/.  Exits non-zero if anything
# fails to build, a unit test fails, or a workload reports a failed
# operation in a full run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

workload=""
pass_through=()
traced=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
        --seed|--seconds) pass_through+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
        --trace) [ "${2:?--trace needs 0 or 1}" = 1 ] && traced=1; [ "$2" = 0 ] || [ "$2" = 1 ] || { echo "--trace: want 0 or 1" >&2; exit 2; }; shift 2 ;;
        --traced) traced=1; shift ;;
        -h|--help) sed -n '2,14p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "unknown argument: $1 (see --help)" >&2; exit 2 ;;
    esac
done

# Cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it down once so both builds and the runs agree.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Cargo reports on stderr, so stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p robustmap-bench --bin figures

ROBUSTMAP_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
ROBUSTMAP_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export ROBUSTMAP_BENCH_COMMIT ROBUSTMAP_BENCH_RUSTC

bench=("$target/release/robustmap-benchmark" --out "$target/benchmark" --figures-bin "$target/release/figures")

if [ -n "$workload" ]; then
    exec "${bench[@]}" --workload "$workload" --trace "$traced" ${pass_through[@]+"${pass_through[@]}"}
fi

# Full run: the package's own tests first, then every workload.
cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --release --offline --quiet --manifest-path "$here/Cargo.toml" -- -D warnings
fi
failed=0
for w in scan_atlas blocking_atlas serve_burst churn_choice; do
    for t in 0 $([ "$traced" = 1 ] && echo 1); do
        "${bench[@]}" --workload "$w" --trace "$t" ${pass_through[@]+"${pass_through[@]}"} | tee "$target/benchmark-last.out"
        tail -n 1 "$target/benchmark-last.out" | grep -q '"correct": true' || failed=1
    done
done
rm -f "$target/benchmark-last.out"
if [ "$failed" = 1 ]; then
    echo "benchmark: at least one workload reported failed operations" >&2
    exit 1
fi
