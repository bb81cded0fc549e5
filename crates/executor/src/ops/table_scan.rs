//! Table scan: full scan of the main storage structure.
//!
//! The baseline plan in every one of the paper's figures.  Its cost is
//! constant across the whole selectivity range — the defining property the
//! maps make visible — because it always reads every page sequentially and
//! evaluates the predicate on every row.

use robustmap_storage::{AccessKind, Session, Table};

use crate::batch::{col_from_bytes, BatchEmitter, RowBatch};
use crate::expr::Predicate;

/// Scan `table`, filter with `pred`, gather columns `proj` of each match,
/// and push them to `sink`.  Returns the number of rows produced.
///
/// Scans page by page, evaluates the predicate in a single branch-free
/// pass over each record's bytes, and gathers only the surviving rows'
/// projected columns (late materialization — non-qualifying rows are never
/// decoded in full; with no `proj` columns, no row is).
///
/// Charges per page what [`HeapFile::scan`] with [`Predicate::eval`]
/// inside does — one sequential `read_page`, the rows' short-circuit
/// comparisons (one charge event a row), `charge_rows(live)` — with the
/// page's comparisons summed into one call.
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
    let terms = pred.terms();
    let mut emitter = BatchEmitter::new(proj.len());
    for page_no in 0..heap.page_count() {
        session.read_page(heap.page_id(page_no), AccessKind::Sequential);
        let page = heap.page(page_no).expect("page number in range");
        // Count live records during the walk; `iter` yields exactly the
        // rows `live_records` would count, so a second slot-directory
        // pass is unnecessary.
        let mut live = 0u64;
        let mut compares = 0u64;
        if terms.is_empty() {
            // `eval` charges nothing for an empty predicate.
            for (_slot, bytes) in page.iter() {
                live += 1;
                emitter.push_projected_bytes(bytes, proj, sink);
            }
        } else {
            for (_slot, bytes) in page.iter() {
                live += 1;
                // Branch-free term walk straight over the record bytes;
                // `alive` recovers the short-circuit comparison count
                // `eval` would have charged for this row.
                let mut alive = 1u8;
                for t in terms {
                    let v = col_from_bytes(bytes, t.col);
                    let pass = (t.lo <= v) & (v <= t.hi);
                    compares += u64::from(alive);
                    alive &= u8::from(pass);
                }
                if alive != 0 {
                    emitter.push_projected_bytes(bytes, proj, sink);
                }
            }
            session.charge_compares_as(compares, live);
        }
        session.charge_rows(live);
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
