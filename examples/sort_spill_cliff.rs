//! The sort-spill cliff (paper §4): an operator that spills its entire
//! input the moment it exceeds memory shows a cost *discontinuity*; a
//! graceful implementation (replacement selection) degrades in proportion
//! to the overflow.
//!
//! Two things are needed to make the cliff visible, and both are done
//! here (and in the fuller `ext_sort_spill` harness entry): the sort's
//! own cost is isolated from its scan child via the per-operator
//! breakdown (the scan's constant cost would otherwise mask the jump),
//! and the input sweep is fine-grained around the memory threshold so
//! "merely a single record" of overflow sits between adjacent points.
//!
//! ```text
//! cargo run --release --example sort_spill_cliff
//! ```

use robustmap::core::analysis::changepoint::{detect_changepoints, ChangepointConfig};
use robustmap::core::MeasureConfig;
use robustmap::executor::ops::sort::sort_capacity_rows;
use robustmap::executor::{
    run_count, ColRange, ExecCtx, PlanSpec, Predicate, Projection, SpillMode,
};
use robustmap::storage::{BufferPool, Session};
use robustmap::workload::{TableBuilder, WorkloadConfig, COL_A, COL_C};

fn main() {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 18));
    let memory = 1 << 18; // 256 KiB of sort memory (~3.2k rows)
    let cfg = MeasureConfig::default();

    let plan = |rows_wanted: f64, mode: SpillMode| {
        let threshold = w.cal_a.threshold(rows_wanted / w.rows() as f64);
        PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(COL_A, threshold)),
                project: Projection::Columns(vec![COL_C, COL_A]),
            }),
            key_cols: vec![0],
            mode,
            memory_bytes: memory,
        }
    };
    // Sort-exclusive seconds: the Sort node's inclusive time minus its
    // child's, read off the execution's operator breakdown.
    let sort_only = |plan: &PlanSpec| -> (f64, u64, u64) {
        let session =
            Session::new(cfg.model.clone(), BufferPool::new(cfg.pool_pages, cfg.policy));
        let ctx = ExecCtx::new(&w.db, &session, cfg.memory_bytes);
        let stats = run_count(plan, &ctx, None).expect("well-formed plan");
        let child = stats.operators.iter().find(|o| o.depth == 1).expect("child").seconds;
        let root = stats.operators.iter().find(|o| o.depth == 0).expect("root").seconds;
        (root - child, stats.io.page_writes, stats.rows_out)
    };

    // The sort's in-memory capacity in rows for this grant; sweep densely
    // around it so the cliff sits between adjacent points.
    let threshold_rows = sort_capacity_rows(memory) as f64;
    println!("sort memory grant {memory} B ≈ {threshold_rows:.0} rows; sweep input size:\n");
    println!(
        "{:>9} {:>12} {:>12} {:>14} {:>14}",
        "rows", "abrupt (s)", "graceful (s)", "abrupt writes", "graceful writes"
    );

    let mut axis = Vec::new();
    let mut abrupt = Vec::new();
    let mut graceful = Vec::new();
    for factor in [0.25, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 8.0, 32.0] {
        let (sa, wa, rows) = sort_only(&plan(threshold_rows * factor, SpillMode::Abrupt));
        let (sg, wg, _) = sort_only(&plan(threshold_rows * factor, SpillMode::Graceful));
        println!("{rows:>9} {sa:>12.5} {sg:>12.5} {wa:>14} {wg:>14}");
        axis.push(rows.max(1) as f64);
        abrupt.push(sa);
        graceful.push(sg);
    }

    let cp = ChangepointConfig::default();
    let a = detect_changepoints(&axis, &abrupt, &cp);
    let g = detect_changepoints(&axis, &graceful, &cp);
    println!(
        "\nchangepoints — abrupt: {} cliff(s) (the predicted level shift), graceful: {} \
         cliff(s), {} knee(s)",
        a.cliff_count(),
        g.cliff_count(),
        g.knee_count(),
    );
    for c in a.cliffs() {
        println!(
            "  abrupt sort jumps {:.1}x beyond the local trend at ~{:.0} input rows",
            c.severity, c.at_work
        );
    }
    for k in g.knees() {
        println!(
            "  graceful sort bends at ~{:.0} rows (log-log slope break {:.1}) — degradation \
             in proportion to the overflow, no level shift",
            k.at_work, k.severity
        );
    }
    assert!(a.cliff_count() > 0, "the abrupt sort should show its cliff");
    assert_eq!(g.cliff_count(), 0, "the graceful sort must not show a cliff");
}
