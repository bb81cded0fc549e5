#!/usr/bin/env bash
# CI-style verification: build, workspace tests (unit, integration,
# property and the source rules of tests/source_gates.rs — independence of
# quantum and tracing is a matrix inside the suites), doc-tests,
# the out-of-workspace `benchmark/` package, clippy and rustdoc, all with
# warnings denied; then the one thing only a shell can run: the `figures`
# binary over every figure at the smoke scale, whose own exit status is the
# figure gate.  Byte-identity of every artifact against
# crates/bench/baselines/MANIFEST is a test (crates/bench/tests/gate.rs)
# and ran above.  Last, the mutation registry is checked (each line well
# formed, each text once in its file), which builds nothing.  Any warning
# or failure exits non-zero; each phase prints its wall time.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "== $*"
    local t0 t1
    t0=$(date +%s)
    "$@"
    t1=$(date +%s)
    echo "== done in $((t1 - t0))s: $*"
}

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"
export RUSTDOCFLAGS="${RUSTDOCFLAGS:--D warnings}"

run cargo build --release --workspace --all-targets
run cargo test -q --release --workspace
run cargo test -q --release --workspace --doc

# `benchmark/` is a package of its own, outside the workspace, bound to the
# crates' public API by path: nothing above compiles it, so an API edit can
# break the acceptance pipeline unseen.  Build and unit-test it where
# `benchmark/run.sh` does (the repository's target/).
run env CARGO_TARGET_DIR="$PWD/target" cargo build --release --offline --manifest-path benchmark/Cargo.toml
run env CARGO_TARGET_DIR="$PWD/target" cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

run cargo clippy --release --workspace --all-targets -- -D warnings
run cargo doc --no-deps --workspace

# Exit 0 only when every artifact of every figure is non-empty and every
# named check PASSes; the last line is the total.
run cargo run --release -p robustmap-bench --bin figures -- --rows 16384 --grid 8 --out target/figures-verify all

# A refactor that rewrites a registered text fails here, not at the next
# replay of the registry.
run scripts/mutants.sh --check

echo "verify: all green"
