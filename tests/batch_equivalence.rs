//! Differential equivalence suite for the batched executor.
//!
//! The interpreter pushes 1024-row columnar chunks between operators.  How
//! a run is driven must never be observable in its *simulated* behaviour:
//! counting the rows (`run_count`, what every map cell does) and reading
//! them (`run_collect`) charge the same, and so does a run traced at full
//! detail.  "Equal" here means identical clock ticks, identical I/O
//! counters (the hit/miss split included), identical row counts and spill
//! flags, and an identical per-operator breakdown.  Every plan in the
//! three-system catalog (15 plans) is checked over a selectivity grid, and
//! the composite operators (joins, sort, aggregation, parallel scan) get
//! dedicated coverage.  The rows themselves are checked against a
//! brute-force evaluation over the heap.  `tests/exec_ledger.rs` pins the
//! absolute values.

use robustmap::core::MeasureConfig;
use robustmap::executor::{ColRange, PlanSpec, Predicate, Projection};
use robustmap::systems::{two_predicate_plans, SystemId, TwoPredPlan};
use robustmap::workload::{TableBuilder, Workload, WorkloadConfig};

mod common;
use common::{
    assert_bit_identical, brute_force, collect_under, composite_specs, run_under, variants,
};

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

fn catalog(w: &Workload) -> Vec<TwoPredPlan> {
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect();
    assert_eq!(plans.len(), 15, "catalog size changed; update this suite");
    plans
}

/// The catalog over a 3x3 selectivity grid, labelled.
fn catalog_grid(w: &Workload) -> Vec<(String, PlanSpec)> {
    let sels = [0.02, 0.3, 0.9];
    let mut out = Vec::new();
    for plan in catalog(w) {
        for &sa in &sels {
            for &sb in &sels {
                let spec = plan.build(w.cal_a.threshold(sa), w.cal_b.threshold(sb));
                out.push((format!("{} @ ({sa}, {sb})", plan.name), spec));
            }
        }
    }
    out
}

/// `spec` counted, untraced, against `spec` counted and read under every
/// condition of the independence matrix (default, quantum 513, traced at
/// full detail).
fn assert_independent(w: &Workload, spec: &PlanSpec, base: &MeasureConfig, label: &str) {
    let counted = run_under(w, spec, base, None);
    for (how, cfg) in variants(base) {
        let label = format!("{label} [{how}]");
        let again = run_under(w, spec, &cfg, None);
        assert_bit_identical(&counted, &again, &format!("{label} counted"));
        let (read, rows) = collect_under(w, spec, &cfg, None);
        assert_bit_identical(&counted, &read, &format!("{label} read"));
        assert_eq!(rows.len() as u64, read.rows_out, "{label}: rows read");
    }
}

/// Every plan in the catalog — A1–A7, B1–B4, C1–C4 — over a selectivity
/// grid, counted and read under every condition of the matrix.  This is
/// the suite's core claim: sweeps over the full catalog do not depend on
/// whether anyone reads the rows, or on whether anyone is watching.
#[test]
fn all_fifteen_catalog_plans_are_bit_identical() {
    let w = workload();
    let cfg = MeasureConfig::default();
    for (label, spec) in &catalog_grid(&w) {
        assert_independent(&w, spec, &cfg, label);
    }
}

/// The composite operators the two-predicate catalog exercises only
/// partially: both join algorithms on both build sides, sort and hash
/// aggregation in both spill modes (in-memory and spilling grants), the
/// parallel scan with and without skew, and the traditional fetch
/// discipline.
#[test]
fn composite_operators_are_bit_identical() {
    let w = workload();
    let cfg = MeasureConfig::default();
    for (label, spec) in &composite_specs(&w) {
        assert_independent(&w, spec, &cfg, label);
    }
}

/// Beyond the counters: the *rows themselves* — values and order — are
/// what a brute-force filter over the heap gives, with a reference sort or
/// group-by on top: for the catalog over the grid, the sort and
/// aggregation composites, a result that is not a multiple of the batch
/// size, an empty result and a projected MDAM scan, under every condition.
#[test]
fn collected_rows_match_brute_force() {
    let w = workload();
    let cfg = MeasureConfig::default();
    let mut specs = catalog_grid(&w);
    let blocking = |label: &String| label.starts_with("sort ") || label.starts_with("hashagg ");
    specs.extend(composite_specs(&w).into_iter().filter(|(label, _)| blocking(label)));
    specs.extend([
        // 0.13 of 8192 rows: not a multiple of any power-of-two batch.
        (
            "projected scan".to_string(),
            PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(0, w.cal_a.threshold(0.13))),
                project: Projection::Columns(vec![4, 0, 2]),
            },
        ),
        (
            "empty scan".to_string(),
            PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::between(0, 5, 4)),
                project: Projection::All,
            },
        ),
        (
            "projected mdam".to_string(),
            PlanSpec::Mdam {
                index: w.indexes.ab,
                col_ranges: vec![
                    (i64::MIN, w.cal_a.threshold(0.3)),
                    (i64::MIN, w.cal_b.threshold(0.1)),
                ],
                project: Projection::Columns(vec![1]),
            },
        ),
    ]);
    assert_eq!(specs.len(), 135 + 8 + 3);
    for (label, spec) in &specs {
        let want = brute_force(&w, spec);
        for (how, cfg) in variants(&cfg) {
            let (stats, rows) = collect_under(&w, spec, &cfg, None);
            assert_eq!(stats.rows_out as usize, want.len(), "{label} [{how}]: rows_out");
            assert!(rows == want, "{label} [{how}]: rows/order differ from brute force");
        }
    }
}
