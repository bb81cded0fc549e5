#!/usr/bin/env bash
# CI-style verification: build, tests (unit + integration + property +
# doc — independence of batch size, quantum and tracing is a matrix inside
# the suites, not a rerun here), clippy, and rustdoc — all with warnings
# denied — plus the figure smokes only a shell can run: the `figures`
# binary on a cold then a warm workload cache (same bytes either way, and
# a cache file that holds the heap and nothing else), and once over every
# figure, where its own exit status is the gate; then the source grep
# gates.  Any warning or failure exits non-zero.  Each phase prints its
# wall time.
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

# The smokes use a private cache directory so "cold" really is cold no
# matter what earlier builds or tests populated.
export ROBUSTMAP_WORKLOAD_CACHE="target/workload-cache-verify"
rm -rf "$ROBUSTMAP_WORKLOAD_CACHE" target/figures-verify
figures=(cargo run --release -p robustmap-bench --bin figures -- --rows 16384 --grid 8 --out target/figures-verify)

echo "== smoke 1/3: regenerate Figure 1 at reduced scale, COLD workload cache"
run "${figures[@]}" fig1
test -n "$(ls "$ROBUSTMAP_WORKLOAD_CACHE"/wl-16384-*.bin 2>/dev/null)" || {
    echo "cold run did not populate the workload cache" >&2
    exit 1
}
for f in "$ROBUSTMAP_WORKLOAD_CACHE"/wl-16384-*.bin; do
    test "$(wc -c <"$f")" -le $((16384 * 64)) || {
        echo "$f is over 64 B/row — the cache file holds heap pages (44 B/row) and nothing else" >&2
        exit 1
    }
done
cp target/figures-verify/fig1.csv target/figures-verify/fig1.cold.csv

echo "== smoke 2/3: same figure, WARM workload cache"
run "${figures[@]}" fig1
cmp target/figures-verify/fig1.csv target/figures-verify/fig1.cold.csv || {
    echo "warm-cache artifacts differ from cold-cache artifacts" >&2
    exit 1
}

# The binary gates itself: it exits non-zero unless every artifact of every
# figure is non-empty and every named check PASSes, and its last line is the
# total.  Byte baselines and per-figure check counts are pinned by
# crates/bench/tests/gate.rs, which ran above.
echo "== smoke 3/3: every figure, gated by the binary's own exit status"
run "${figures[@]}" all
rm -rf "$ROBUSTMAP_WORKLOAD_CACHE"

echo "== one-interpreter gate: the executor must not regrow a batched twin or an execute_* entry point"
if grep -rnE 'fn \w+_batched\b|\bexecute_\w+' crates/executor/src; then
    echo "crates/executor/src defines a *_batched function or names an execute_* entry point — there is one interpreter, exec::run" >&2
    exit 1
fi

echo "== one-scheduler gate: core::serve passes the baton directly, with no channel hub beside it"
if grep -n 'mpsc' crates/core/src/serve.rs; then
    echo "crates/core/src/serve.rs names mpsc — the hub-and-spoke scheduler is gone, not kept beside the baton" >&2
    exit 1
fi

echo "== integer-clock gate: the clock counts ticks, equivalence is == on them, and the trace records them as they are"
if grep -n 'Cell<f64>' crates/storage/src/sim.rs; then
    echo "crates/storage/src/sim.rs holds a Cell<f64> — the clock is u64 picoseconds; seconds exist only where they are read" >&2
    exit 1
fi
if grep -rn 'to_bits' tests/common; then
    echo "tests/common compares float bits — the equivalence suites compare clock ticks with ==" >&2
    exit 1
fi
if grep -rnE 'TraceSink::Null|fn is_enabled|sim: f64|struct MemorySink|struct TraceHandle' crates/obs/src crates/storage/src; then
    echo "crates/obs/src or crates/storage/src regrew a second sink, a second spelling of untraced, or a float time stamp — a TraceSink is one struct, None is the off switch, events carry u64 ticks" >&2
    exit 1
fi
if sed -n '/fn emit(/,/^    }/p' crates/obs/src/trace.rs | grep -n 'metrics'; then
    echo "TraceSink::emit names metrics — emit is timestamp, lock, push; metrics() folds the recorded events when asked" >&2
    exit 1
fi

echo "== heap-only cache gate: one index-construction path, no statistics cache, no size budget"
if grep -rnE 'WORKLOAD_CACHE_BUDGET|jstats|prune_to_budget|from_sorted' crates/workload/src; then
    echo "crates/workload/src regrew the cache's size budget, the statistics cache, or a constructor for stored index or calibrator sections" >&2
    exit 1
fi
sites="$(grep -rn 'BTree::bulk_load' crates/workload/src || true)"
if [ "$(printf '%s' "$sites" | grep -c .)" != 1 ]; then
    printf '%s\n' "$sites" >&2
    echo "crates/workload/src must name BTree::bulk_load exactly once (gen::finish, which both build and cache::load end in)" >&2
    exit 1
fi

echo "== touch-a-row-once gate: blocking operators keep handles and packed keys, not row copies"
if grep -rnE 'struct Slab|FxHashMap<Row|fn combined\(' crates/executor/src/ops; then
    echo "crates/executor/src/ops regrew the sorter's row slab, a Row-keyed hash map, or a Row built per join match" >&2
    exit 1
fi

echo "== one-rid-set gate: a rid set is the dense bitmap; only the fall-through helper sorts a rid list"
if grep -rn 'RidBitmap' crates; then
    echo "crates/ names RidBitmap — storage::RidSet replaced it, it is not kept beside it" >&2
    exit 1
fi
if sed '/^pub(crate) fn sort_list/,/^}/d' crates/executor/src/ops/fetch.rs | grep -nE 'radix_sort_by_u64_key|FxHashSet<Rid>' ||
    grep -rn 'FxHashSet<Rid>' crates/executor/src; then
    echo "ops/fetch.rs sorts rids outside sort_list, or the executor keeps rids in a hash set — physical order and membership are read off the RidSet; sort_list is the one fall-through" >&2
    exit 1
fi

echo "== one-walker gate: MDAM walks the cursor that borrows its leaf, and the walk allocates nothing"
if grep -rnE 'cursor_step|cursor_next_leaf' crates; then
    echo "crates/ names cursor_step or cursor_next_leaf — the borrowed Cursor with BTree::next_leaf replaced them, they are not kept beside it" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/executor/src/ops/mdam.rs | grep -nE 'Vec<i64>|\.to_vec\(\)'; then
    echo "ops/mdam.rs builds a Vec per key outside its tests — corners and skip targets are [i64; MAX_KEY_COLS] on the stack" >&2
    exit 1
fi

echo "== counted-runs gate: maps and serving count rows, they do not read them"
if grep -rnE '\brun_collect\b|exec::run\(' crates/core/src crates/bench/src crates/systems/src; then
    echo "crates/core, crates/bench or crates/systems names run_collect or exec::run( — a map cell, a served query and a chooser count rows through run_count, whose root builds none" >&2
    exit 1
fi

echo "== no-hidden-input gate: run-time conditions are arguments, not environment or process state"
if grep -rnE 'std::env::' crates/*/src | grep -vE '^crates/(obs/src/log|workload/src/cache|bench/src/bin/[a-z]+)\.rs:' ||
    grep -nE '^\s*(pub(\([a-z]+\))? )?static ' crates/obs/src/trace.rs ||
    grep -rn 'from_env' crates tests examples; then
    echo "the environment is read outside obs::log, workload::cache and a binary's argv, or obs::trace holds a static, or a from_env constructor is back — batch size, quantum and trace sink are fields of MeasureConfig / ServeConfig" >&2
    exit 1
fi

echo "== one-figure-table gate: one table, one gate, ids spelled once"
if grep -rnE 'ALL_FIGURES|NEEDS_ALL_SYSTEMS|run_figure_inner|ChooserTally|FigureOutput::new\("' crates/bench/src; then
    echo "crates/bench/src regrew a second figure list, the two-slot tally, or a figure body spelling its own id — FIGURES is the table, the runner stamps names" >&2
    exit 1
fi
if grep -noE '\b(fig[0-9]+|ext_[a-z_]+|legend[s])\b' scripts/verify.sh | grep -v ':fig1$'; then
    echo "scripts/verify.sh names a figure id other than fig1 — the figures binary is the gate, not a hand list here" >&2
    exit 1
fi

echo "verify: all green"
