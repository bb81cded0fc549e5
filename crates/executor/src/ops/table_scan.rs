//! Table scan: full scan of the main storage structure.
//!
//! The baseline plan in every one of the paper's figures.  Its cost is
//! constant across the whole selectivity range — the defining property the
//! maps make visible — because it always reads every page sequentially and
//! evaluates the predicate on every row.  Each page goes through the one
//! heap-row kernel, [`BatchEmitter::filter`]: all of its slots, or on a
//! page deletes left holey the slots its live-slot mask marks.

use robustmap_storage::{AccessKind, Session, Table};

use crate::batch::{BatchEmitter, RowBatch};
use crate::expr::Predicate;

/// Scan `table`, filter with `pred`, gather columns `proj` of each match,
/// and push them to `sink`.  Returns the number of rows produced.
///
/// Charges per page what [`HeapFile::scan`] with [`Predicate::eval`]
/// inside does — one sequential `read_page`, the rows' short-circuit
/// comparisons (one charge event a row, none for `TRUE`),
/// `charge_rows(live)` — with the page's comparisons summed into one call.
///
/// [`HeapFile::scan`]: robustmap_storage::HeapFile::scan
pub fn run(
    table: &Table,
    pred: &Predicate,
    proj: &[usize],
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> u64 {
    let heap = &table.heap;
    let mut emitter = BatchEmitter::new(proj.len());
    for (page_no, page) in heap.resolve_range(0..heap.page_count()) {
        session.read_page(heap.page_id(page_no), AccessKind::Sequential);
        let got = emitter.filter_page(pred, page, proj, sink);
        if !pred.is_true() {
            session.charge_compares_as(got.compares, got.live);
        }
        session.charge_rows(got.live);
    }
    emitter.flush(sink);
    emitter.produced()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColRange;
    use crate::ops::testutil::{collect, demo_db};
    use crate::plan::Projection;

    fn scan(
        db: &robustmap_storage::Database,
        t: robustmap_storage::TableId,
        pred: &Predicate,
        project: &Projection,
        s: &Session,
    ) -> (u64, Vec<robustmap_storage::Row>) {
        let proj = project.resolve(db.table(t).heap.schema().arity());
        collect(|sink| run(db.table(t), pred, &proj, s, sink))
    }

    #[test]
    fn full_scan_returns_everything() {
        let (db, t) = demo_db(500);
        let s = Session::with_pool_pages(16);
        let (n, rows) = scan(&db, t, &Predicate::always_true(), &Projection::All, &s);
        assert_eq!(n, 500);
        assert_eq!(rows.len(), 500);
    }

    #[test]
    fn predicate_filters_exactly() {
        let (db, t) = demo_db(512);
        let s = Session::with_pool_pages(16);
        // `a < 100` matches exactly 100 rows (a is a permutation of 0..512).
        let pred = Predicate::single(ColRange::at_most(0, 99));
        let (n, rows) = scan(&db, t, &pred, &Projection::All, &s);
        assert_eq!(n, 100);
        assert_eq!(rows.len(), 100);
    }

    #[test]
    fn projection_shapes_output() {
        let (db, t) = demo_db(10);
        let s = Session::with_pool_pages(16);
        let (_, rows) =
            scan(&db, t, &Predicate::always_true(), &Projection::Columns(vec![2]), &s);
        assert!(rows.iter().all(|r| r.arity() == 1));
        let mut got: Vec<i64> = rows.iter().map(|r| r.get(0)).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|i| i * 7).collect::<Vec<_>>());
    }

    /// The scan's rows, clock, counters and charge events are
    /// `HeapFile::scan`'s with `Predicate::eval` inside.
    #[test]
    fn scan_equals_the_heap_scan() {
        let (db, t) = demo_db(2000);
        let pred = Predicate::all_of(vec![ColRange::at_most(0, 999), ColRange::at_most(1, 1500)]);
        let proj = Projection::Columns(vec![2, 0]);
        let row_s = Session::with_pool_pages(16);
        let mut want = Vec::new();
        db.table(t).heap.scan(&row_s, |_, row| {
            if pred.eval(row, &row_s) {
                want.push(proj.apply(row));
            }
        });
        let batch_s = Session::with_pool_pages(16);
        let (n, got) = scan(&db, t, &pred, &proj, &batch_s);
        assert_eq!(n as usize, want.len());
        assert_eq!(got, want);
        assert_eq!(batch_s.elapsed_ticks(), row_s.elapsed_ticks());
        assert_eq!(batch_s.charge_events(), row_s.charge_events());
        assert_eq!(batch_s.stats(), row_s.stats());
    }

    #[test]
    fn cost_is_constant_across_selectivities() {
        let (db, t) = demo_db(2000);
        let mut costs = Vec::new();
        for thresh in [0, 500, 1999] {
            let s = Session::with_pool_pages(16);
            let pred = Predicate::single(ColRange::at_most(0, thresh));
            scan(&db, t, &pred, &Projection::All, &s);
            costs.push(s.stats().pages_read());
        }
        // Page traffic identical regardless of selectivity.
        assert_eq!(costs[0], costs[1]);
        assert_eq!(costs[1], costs[2]);
    }
}
