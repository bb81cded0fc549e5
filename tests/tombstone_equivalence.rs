//! Differential batch-size invariance over a *churned* heap.
//!
//! `tests/batch_equivalence.rs` pins every batch size to one row per
//! batch on the pristine builder output, where every slot of every heap
//! page is live.  The churn engine breaks that tidy shape: deletes leave
//! tombstoned slots that a scan must skip (the pages are never
//! compacted), updates tombstone one slot and append another, and
//! inserts grow the heap past the bulk-loaded prefix with partially
//! filled tail pages.  Each of those is a batch-boundary hazard — a
//! columnar chunk that straddles a run of tombstones must produce the
//! same rows *and the same charges* as the row-at-a-time loop.
//!
//! "Equal" is the same contract as the base suite: identical clock
//! ticks, identical `IoStats`, row counts, spill flags, and per-operator
//! breakdowns —
//! plus, for the collect path, identical result rows in identical
//! order.  The independence matrix's 513 pushes the chunk boundaries onto
//! different tombstone runs than the default does.

use robustmap::core::MeasureConfig;
use robustmap::storage::Session;
use robustmap::systems::{two_predicate_plans, SystemId, TwoPredPlan};
use robustmap::workload::{ChurnConfig, ChurnDriver, TableBuilder, Workload, WorkloadConfig};

mod common;
use common::{assert_bit_identical, collect_under, row_path, run_under, variants};

/// Build a workload and churn 30% of it so the heap carries tombstones,
/// update-moved rows, and appended tail pages.
fn churned_workload() -> (Workload, u64) {
    let mut w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13));
    let cfg = ChurnConfig::for_workload(&w);
    let mut driver = ChurnDriver::new(&w, cfg);
    let session = Session::with_pool_pages(64);
    let batches = driver.apply_until_fraction(&mut w, &session, 0.3);
    let deleted: u64 = batches.iter().map(|b| b.deleted.len() as u64).sum();
    (w, deleted)
}

/// Every plan in the three-system catalog over a selectivity grid, on the
/// tombstoned heap, count path: same bits, one row per batch vs every
/// condition of the independence matrix.
#[test]
fn catalog_is_bit_identical_on_tombstoned_heap() {
    let (w, deleted) = churned_workload();
    assert!(deleted > 0, "churn produced no tombstones; the suite tests nothing");
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, &w)).collect();
    assert_eq!(plans.len(), 15, "catalog size changed; update this suite");
    let base = MeasureConfig::default();
    let sels = [0.02, 0.3, 0.9];
    for plan in &plans {
        for &sa in &sels {
            for &sb in &sels {
                let spec = plan.build(w.cal_a.threshold(sa), w.cal_b.threshold(sb));
                let row = run_under(&w, &spec, &row_path(&base), None);
                for (how, cfg) in variants(&base, &[]) {
                    let label = format!("churned {} @ ({sa}, {sb}) [{how}]", plan.name);
                    assert_bit_identical(&row, &run_under(&w, &spec, &cfg, None), &label);
                }
            }
        }
    }
}

/// The collect path must return identical rows in identical order:
/// tombstone-skipping may not reorder or duplicate survivors, whatever
/// the chunk size.
#[test]
fn collected_rows_are_identical_on_tombstoned_heap() {
    let (w, _) = churned_workload();
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, &w)).collect();
    let base = MeasureConfig::default();
    let (ta, tb) = (w.cal_a.threshold(0.25), w.cal_b.threshold(0.55));
    for plan in &plans {
        let spec = plan.build(ta, tb);
        let (row_stats, row_rows) = collect_under(&w, &spec, &row_path(&base), None);
        for (how, cfg) in variants(&base, &[7, 1 << 20]) {
            let (batch_stats, batch_rows) = collect_under(&w, &spec, &cfg, None);
            let label = format!("churned collect {} [{how}]", plan.name);
            assert_bit_identical(&row_stats, &batch_stats, &label);
            assert_eq!(row_rows, batch_rows, "{label}: collected rows");
        }
    }
}
