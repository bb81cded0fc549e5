#!/usr/bin/env bash
# CI-style verification: build, tests (unit + integration + property +
# doc), clippy, and rustdoc — all with warnings denied — plus a figure
# smoke run executed twice (cold workload cache, then warm) so cache
# regressions show up as timing regressions right here.  Any warning or
# failure exits non-zero.  Each phase prints its wall time.
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

# The golden charge ledger and the batch-size, adaptive no-switch and
# concurrent-serving differential suites run inside the workspace tests
# above at the default batch size and scheduling quantum; run them again
# at deliberately odd sizes so partial final batches, mid-page batch
# boundaries and mid-operator suspension points are exercised too
# (neither knob may change a single charge: a never-switching controlled
# run and a concurrency-1 served run must stay bit-identical to a static
# run at any batch size or quantum).  The concurrent suite's pinned
# schedule and its failing-query burst ride along in both reruns.
echo "== ledger + batch + adaptive + concurrent equivalence at ROBUSTMAP_BATCH_ROWS=513, ROBUSTMAP_QUANTUM=513"
ROBUSTMAP_BATCH_ROWS=513 ROBUSTMAP_QUANTUM=513 run cargo test -q --release \
    --test exec_ledger \
    --test batch_equivalence --test warm_sweep_equivalence \
    --test adaptive_equivalence --test concurrent_equivalence \
    --test tombstone_equivalence

# Tracing must be charge-free: re-run the same differential suites with a
# process-wide trace sink attached (every session auto-attaches and emits
# page/op/scheduler events).  If observation changes a single charge, the
# ledger comparison and the bit-identity assertions inside these suites
# fail.  Full detail = per-page events, the worst case.
echo "== the same suites again, traced (ROBUSTMAP_TRACE, full detail)"
ROBUSTMAP_TRACE="target/trace-verify.json" ROBUSTMAP_TRACE_DETAIL=full run cargo test -q --release \
    --test exec_ledger \
    --test batch_equivalence --test warm_sweep_equivalence \
    --test adaptive_equivalence --test concurrent_equivalence \
    --test tombstone_equivalence
run cargo clippy --release --workspace --all-targets -- -D warnings
run cargo doc --no-deps --workspace

# The smoke uses a private cache directory so "cold" really is cold no
# matter what earlier builds or tests populated.
SMOKE_CACHE="target/workload-cache-verify"
rm -rf "$SMOKE_CACHE" target/figures-verify

echo "== smoke 1/3: regenerate Figure 1 at reduced scale, COLD workload cache"
ROBUSTMAP_WORKLOAD_CACHE="$SMOKE_CACHE" run cargo run --release -p robustmap-bench --bin figures -- \
    --rows 16384 --grid 8 --out target/figures-verify fig1
test -s target/figures-verify/fig1.csv
test -s target/figures-verify/fig1.svg
test -n "$(ls "$SMOKE_CACHE"/wl-*.bin 2>/dev/null)" || {
    echo "cold run did not populate the workload cache" >&2
    exit 1
}
cp target/figures-verify/fig1.csv target/figures-verify/fig1.cold.csv

echo "== smoke 2/3: same figure, WARM workload cache"
ROBUSTMAP_WORKLOAD_CACHE="$SMOKE_CACHE" run cargo run --release -p robustmap-bench --bin figures -- \
    --rows 16384 --grid 8 --out target/figures-verify fig1
cmp target/figures-verify/fig1.csv target/figures-verify/fig1.cold.csv || {
    echo "warm-cache artifacts differ from cold-cache artifacts" >&2
    exit 1
}
# Byte-identity against the committed baseline: simulated costs must not
# drift, no matter how the executor is rearranged.  Regenerate crates/bench/baselines/fig1_smoke.csv only for
# a deliberate cost-model change.
cmp target/figures-verify/fig1.csv crates/bench/baselines/fig1_smoke.csv || {
    echo "fig1 smoke CSV drifted from the committed baseline — simulated costs changed" >&2
    exit 1
}

echo "== smoke 3/3: sort-spill + join + correlated + chooser + adaptive + concurrency + trace + churn sweeps, and the regression-check gate"
ROBUSTMAP_WORKLOAD_CACHE="$SMOKE_CACHE" run cargo run --release -p robustmap-bench --bin figures -- \
    --rows 16384 --grid 8 --out target/figures-verify \
    ext_sort_spill ext_join ext_correlated ext_optimizer ext_robust_choice ext_adaptive ext_concurrency ext_trace ext_churn ext_regression
# The blocking operators' byte gate, as fig1's above: the sort and join
# sweeps' simulated seconds and page writes against the committed baselines.
# The two concurrency CSVs are the scheduler's: every served query's
# simulated seconds at every level, so a schedule that moves moves them.
for csv in ext_sort_spill.csv ext_join.csv ext_concurrency.csv ext_concurrency_sweep.csv; do
    cmp "target/figures-verify/$csv" "crates/bench/baselines/$csv" || {
        echo "$csv drifted from the committed baseline — simulated sort/join costs or the served schedule changed" >&2
        exit 1
    }
done
test -s target/figures-verify/ext_correlated.csv
test -s target/figures-verify/ext_correlated_regret.svg
test -s target/figures-verify/ext_optimizer.csv
test -s target/figures-verify/ext_optimizer_rho1.csv
test -s target/figures-verify/ext_optimizer_joint_regret.svg
test -s target/figures-verify/ext_robust_choice.csv
test -s target/figures-verify/ext_robust_choice_scores.csv
test -s target/figures-verify/ext_robust_choice_robust_regret.svg
test -s target/figures-verify/ext_adaptive.csv
test -s target/figures-verify/ext_adaptive_checks.txt
test -s target/figures-verify/ext_adaptive_regret.svg
test -s target/figures-verify/ext_concurrency.csv
test -s target/figures-verify/ext_concurrency_sweep.csv
test -s target/figures-verify/ext_concurrency_checks.txt
test -s target/figures-verify/ext_concurrency.svg
test -s target/figures-verify/ext_trace.json
test -s target/figures-verify/ext_trace_timeline.svg
test -s target/figures-verify/ext_trace_adaptive.svg
test -s target/figures-verify/ext_trace_ops.csv
test -s target/figures-verify/ext_trace_metrics.txt
test -s target/figures-verify/ext_trace_checks.txt
test -s target/figures-verify/ext_churn.csv
test -s target/figures-verify/ext_churn_checks.txt
test -s target/figures-verify/ext_churn_frozen_regret.svg
test -s target/figures-verify/ext_churn_maint_regret.svg
# The Chrome trace artifact must be loadable JSON (Perfetto/chrome://tracing
# take exactly this shape); validate with python when available.
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
d = json.load(open("target/figures-verify/ext_trace.json"))
evs = d["traceEvents"]
assert evs, "trace has no events"
assert sum(e["ph"] == "B" for e in evs) == sum(e["ph"] == "E" for e in evs), "unbalanced spans"
print(f"== ext_trace.json: {len(evs)} Chrome trace events, spans balanced")
EOF
fi
# The regression gate spans the §4 benchmark (28 checks at the seed), the
# robust-chooser subsystem's named checks (8), the estimator
# comparison's (5), the adaptive executor's (7), the concurrent
# serving layer's (8), the tracing layer's (7) and the churn/statistics
# maintenance subsystem's (8): the combined floor is 71, and every check
# must PASS (the figures binary prints, it does not gate).
checks_reg=$(grep -Eo '^[0-9]+ checks' target/figures-verify/ext_regression.txt | head -1 | cut -d' ' -f1 || true)
checks_robust=$(grep -Eo '^[0-9]+ checks' target/figures-verify/ext_robust_choice_checks.txt | head -1 | cut -d' ' -f1 || true)
checks_opt=$(grep -Eo '^[0-9]+ checks' target/figures-verify/ext_optimizer_checks.txt | head -1 | cut -d' ' -f1 || true)
checks_adapt=$(grep -Eo '^[0-9]+ checks' target/figures-verify/ext_adaptive_checks.txt | head -1 | cut -d' ' -f1 || true)
checks_conc=$(grep -Eo '^[0-9]+ checks' target/figures-verify/ext_concurrency_checks.txt | head -1 | cut -d' ' -f1 || true)
checks_trace=$(grep -Eo '^[0-9]+ checks' target/figures-verify/ext_trace_checks.txt | head -1 | cut -d' ' -f1 || true)
checks_churn=$(grep -Eo '^[0-9]+ checks' target/figures-verify/ext_churn_checks.txt | head -1 | cut -d' ' -f1 || true)
total_checks=$(( ${checks_reg:-0} + ${checks_robust:-0} + ${checks_opt:-0} + ${checks_adapt:-0} + ${checks_conc:-0} + ${checks_trace:-0} + ${checks_churn:-0} ))
if [ "${checks_reg:-0}" -lt 28 ]; then
    echo "regression-check count ${checks_reg:-0} dropped below the seed's 28" >&2
    exit 1
fi
if [ "$total_checks" -lt 71 ]; then
    echo "combined regression-check count $total_checks dropped below the floor of 71" >&2
    exit 1
fi
for report in ext_regression.txt ext_robust_choice_checks.txt ext_optimizer_checks.txt ext_adaptive_checks.txt ext_concurrency_checks.txt ext_trace_checks.txt ext_churn_checks.txt; do
    grep -q 'verdict: PASS' "target/figures-verify/$report" || {
        echo "robustness regression benchmark FAILED ($report):" >&2
        grep '^\[FAIL\]' "target/figures-verify/$report" >&2
        exit 1
    }
done
echo "== regression-check count: $total_checks ($checks_reg + $checks_robust + $checks_opt + $checks_adapt + $checks_conc + $checks_trace + $checks_churn, >= 71), verdicts PASS"
rm -rf "$SMOKE_CACHE"

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

echo "verify: all green"
