//! Parallel table scan: the paper's next step ("visualizations of entire
//! query execution plans including parallel ones", §4).
//!
//! The heap's pages are range-partitioned across `dop` workers.  Each
//! worker really scans its partition, charged to a *private* clock; the
//! query is then charged the **critical path** (the slowest worker, plus a
//! per-worker startup cost), while all workers' I/O/CPU counters are summed
//! into the session — total work is additive, elapsed time is a makespan.
//!
//! A `skew` knob concentrates extra load on worker 0, modelling the data
//! skew the paper names among the strongest robustness factors (§3):
//! `skew = 0` is an even split, `skew = 1` serialises everything on one
//! worker (no speedup at all).
//!
//! A worker's page goes through the table scan's kernel,
//! [`BatchEmitter::filter_page`]; only the charge differs.

use robustmap_storage::{AccessKind, BufferPool, Session, Table};

use crate::batch::{BatchEmitter, RowBatch};
use crate::exec::ExecError;
use crate::expr::Predicate;

/// Run a parallel scan of `table` and push columns `proj` of each match
/// to `sink`.  Returns rows produced.
///
/// Each worker's partition is scanned page-at-a-time, each page charged on
/// the worker's private clock: for each row the full term count on a
/// match, one comparison on a miss.
pub fn run(
    table: &Table,
    pred: &Predicate,
    proj: &[usize],
    dop: u32,
    skew: f64,
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    if dop == 0 {
        return Err(ExecError::BadPlan("parallel scan with dop = 0".into()));
    }
    if !(0.0..=1.0).contains(&skew) {
        return Err(ExecError::BadPlan(format!("skew {skew} outside [0, 1]")));
    }
    let heap = &table.heap;
    let pages = heap.page_count();
    let dop = dop.min(pages.max(1));
    let fair = pages as f64 / dop as f64;
    let w0_pages = (fair + skew * (pages as f64 - fair)).round().min(pages as f64) as u32;
    let rest = pages - w0_pages;
    let per_rest = if dop > 1 { rest as f64 / (dop - 1) as f64 } else { 0.0 };

    let match_compares = pred.terms().len().max(1) as u64;
    let mut emitter = BatchEmitter::new(proj.len());
    let mut makespan = 0u64;
    let mut start = 0u32;
    for worker in 0..dop {
        let len = if worker == 0 {
            w0_pages
        } else if worker == dop - 1 {
            pages - start
        } else {
            per_rest.round() as u32
        };
        let end = (start + len).min(pages);
        let worker_session = Session::new(
            session.model().clone(),
            BufferPool::new(session.pool_capacity() / dop as usize, Default::default()),
        );
        for (page_no, page) in heap.resolve_range(start..end) {
            worker_session.read_page(heap.page_id(page_no), AccessKind::Sequential);
            let got = emitter.filter_page(pred, page, proj, sink);
            let (live, matched) = (got.live, got.selected);
            worker_session
                .charge_compares_as(matched * match_compares + (live - matched), live);
            worker_session.charge_rows(live);
        }
        makespan = makespan.max(worker_session.elapsed_ticks());
        session.clock().add_counters(&worker_session.stats());
        start = end;
    }
    session.clock().advance(makespan);
    session.clock().advance(session.costs().parallel_startup * u64::from(dop));
    emitter.flush(sink);
    Ok(emitter.produced())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColRange;
    use crate::ops::testutil::{all_rows, collect, demo_db};

    /// Scan gathering no column: count rows, discard them.
    fn scan(table: &Table, pred: &Predicate, dop: u32, skew: f64, s: &Session) -> Result<u64, ExecError> {
        run(table, pred, &[], dop, skew, s, &mut |_| {})
    }

    #[test]
    fn parallel_scan_returns_the_same_rows_as_serial() {
        let (db, t) = demo_db(3000);
        let want = all_rows(&db, t);
        for dop in [1, 2, 4, 16] {
            let s = Session::with_pool_pages(64);
            let (n, rows) = collect(|sink| {
                run(
                    db.table(t),
                    &Predicate::always_true(),
                    &[0, 1, 2],
                    dop,
                    0.0,
                    &s,
                    sink,
                )
                .unwrap()
            });
            assert_eq!(n as usize, want.len(), "dop {dop}");
            assert_eq!(rows, want, "dop {dop}");
        }
    }

    #[test]
    fn speedup_approaches_dop_without_skew() {
        // Enough pages that per-worker startup (0.5 ms) is negligible.
        let (db, t) = demo_db(300_000);
        let elapsed = |dop| {
            let s = Session::with_pool_pages(64);
            scan(db.table(t), &Predicate::always_true(), dop, 0.0, &s).unwrap();
            s.elapsed()
        };
        let t1 = elapsed(1);
        let t4 = elapsed(4);
        let speedup = t1 / t4;
        assert!((3.2..=4.2).contains(&speedup), "speedup {speedup:.2} at dop 4");
    }

    #[test]
    fn full_skew_eliminates_speedup() {
        let (db, t) = demo_db(300_000);
        let elapsed = |dop, skew| {
            let s = Session::with_pool_pages(64);
            scan(db.table(t), &Predicate::always_true(), dop, skew, &s).unwrap();
            s.elapsed()
        };
        let serial = elapsed(1, 0.0);
        let skewed = elapsed(8, 1.0);
        // Worker 0 does everything: no faster than serial (plus startup).
        assert!(skewed >= serial, "skewed {skewed} vs serial {serial}");
        let even = elapsed(8, 0.0);
        assert!(even * 3.0 < skewed, "even {even} should be much faster than skewed {skewed}");
    }

    #[test]
    fn total_io_counters_are_preserved() {
        let (db, t) = demo_db(10_000);
        let pages = |dop| {
            let s = Session::with_pool_pages(0);
            scan(db.table(t), &Predicate::always_true(), dop, 0.0, &s).unwrap();
            s.stats().pages_read()
        };
        // Work is conserved: the same pages get read, just concurrently.
        assert_eq!(pages(1), pages(8));
    }

    #[test]
    fn predicate_applies_in_parallel() {
        let (db, t) = demo_db(2048);
        let s = Session::with_pool_pages(64);
        let count =
            scan(db.table(t), &Predicate::single(ColRange::at_most(0, 511)), 4, 0.25, &s).unwrap();
        assert_eq!(count, 512); // a is a permutation of 0..2048
    }

    #[test]
    fn zero_dop_is_rejected() {
        let (db, t) = demo_db(16);
        let s = Session::with_pool_pages(4);
        assert!(scan(db.table(t), &Predicate::always_true(), 0, 0.0, &s).is_err());
        assert!(scan(db.table(t), &Predicate::always_true(), 2, 1.5, &s).is_err());
    }
}
