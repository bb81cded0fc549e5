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
//! order.  Honouring `ROBUSTMAP_BATCH_ROWS` (the verify script re-runs
//! this suite at 513) pushes the chunk boundaries onto different
//! tombstone runs.

use robustmap::core::MeasureConfig;
use robustmap::executor::{run_collect, run_count, ExecConfig, ExecCtx, RunOpts};
use robustmap::storage::Session;
use robustmap::systems::{two_predicate_plans, SystemId, TwoPredPlan};
use robustmap::workload::{ChurnConfig, ChurnDriver, TableBuilder, Workload, WorkloadConfig};

mod common;
use common::{assert_bit_identical, session};

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

/// A static run at `batch_rows` rows per batch; 1 is the row path.
fn opts(batch_rows: usize) -> RunOpts<'static> {
    RunOpts { batch: ExecConfig::with_batch_rows(batch_rows), controller: None }
}

/// Every plan in the three-system catalog over a selectivity grid, on the
/// tombstoned heap, count path: same bits, one row per batch vs the
/// configured batch size.
#[test]
fn catalog_is_bit_identical_on_tombstoned_heap() {
    let (w, deleted) = churned_workload();
    assert!(deleted > 0, "churn produced no tombstones; the suite tests nothing");
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, &w)).collect();
    assert_eq!(plans.len(), 15, "catalog size changed; update this suite");
    let cfg = MeasureConfig::default();
    let ec = RunOpts { batch: ExecConfig::from_env(), controller: None };
    let sels = [0.02, 0.3, 0.9];
    for plan in &plans {
        for &sa in &sels {
            for &sb in &sels {
                let spec = plan.build(w.cal_a.threshold(sa), w.cal_b.threshold(sb));
                let label = format!("churned {} @ ({sa}, {sb})", plan.name);
                let s = session(&cfg);
                let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
                let row = run_count(&spec, &ctx, opts(1)).expect("row path");
                let s = session(&cfg);
                let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
                let batch = run_count(&spec, &ctx, ec).expect("batch path");
                assert_bit_identical(&row, &batch, &label);
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
    let cfg = MeasureConfig::default();
    let (ta, tb) = (w.cal_a.threshold(0.25), w.cal_b.threshold(0.55));
    for plan in &plans {
        let spec = plan.build(ta, tb);
        let s = session(&cfg);
        let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
        let (row_stats, row_rows) = run_collect(&spec, &ctx, opts(1)).expect("row path");
        for batch_rows in [7usize, 513, 1 << 20] {
            let s = session(&cfg);
            let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
            let (batch_stats, batch_rows_out) =
                run_collect(&spec, &ctx, opts(batch_rows)).expect("batch path");
            let label = format!("churned collect {} @ batch {batch_rows}", plan.name);
            assert_bit_identical(&row_stats, &batch_stats, &label);
            assert_eq!(row_rows, batch_rows_out, "{label}: collected rows");
        }
    }
}
