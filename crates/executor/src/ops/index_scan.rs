//! Index range scans: rid-producing and covering (index-only).
//!
//! A non-clustered index scan yields `(key, rid)` entries in key order.
//! Used either to produce a rid stream for a fetch / intersection, or — when
//! the index covers the query — to answer it without touching the table at
//! all (the class of plans Systems B and C exploit in Figures 8 and 9).

use robustmap_storage::btree::{widen, WideEntry};
use robustmap_storage::heap::Rid;
use robustmap_storage::{with_tree, AccessKind, IndexDef, Session};

use crate::batch::{BatchEmitter, RowBatch};
use crate::expr::Predicate;
use crate::plan::KeyRange;

/// Scan `range` of the index and collect the qualifying rids, in key order.
/// Leaf pages are charged as sequential reads (bulk load lays leaves out
/// consecutively).  Each scan here reads the leaves in place, its loop
/// compiled for the index's arity ([`with_tree!`]).
pub fn collect_rids(index: &IndexDef, range: &KeyRange, session: &Session) -> Vec<Rid> {
    let mut rids = Vec::new();
    with_tree!(&index.tree, |t| {
        t.scan_leaves(&range.lo, &range.hi, session, AccessKind::Sequential, |leaf| {
            rids.extend(leaf.iter().map(|&(_, rid)| rid));
        })
    });
    rids
}

/// Scan `range` of the index and collect rids whose *keys* satisfy
/// `key_filter` (a predicate in key-column space).  This is how a plan
/// applies a second predicate inside a composite index before fetching
/// (System B's Figure 8 plan).
pub fn collect_rids_filtered(
    index: &IndexDef,
    range: &KeyRange,
    key_filter: &Predicate,
    session: &Session,
) -> Vec<Rid> {
    if key_filter.is_true() {
        return collect_rids(index, range, session);
    }
    let mut rids = Vec::new();
    with_tree!(&index.tree, |t| {
        t.scan_leaves(&range.lo, &range.hi, session, AccessKind::Sequential, |leaf| {
            key_filter.filter_run(leaf, |(key, _), c| key[c], session, |&(_, rid)| rids.push(rid));
        })
    });
    rids
}

/// Scan `range` of the index and collect its entries, each widened once,
/// straight from its leaf, to a [`WideEntry`]: key columns, zeros past the
/// index's arity, and rid.
pub fn collect_entries(
    index: &IndexDef,
    range: &KeyRange,
    session: &Session,
) -> Vec<WideEntry> {
    let mut entries = Vec::new();
    with_tree!(&index.tree, |t| {
        t.scan_leaves(&range.lo, &range.hi, session, AccessKind::Sequential, |leaf| {
            entries.extend(leaf.iter().map(|(key, rid)| (widen(key), *rid)));
        })
    });
    entries
}

/// Covering (index-only) scan: emit the key columns `proj` of entries in
/// `range` that satisfy `residual`.  Both `residual` and `proj` are in
/// key-column space.  Returns rows produced.
///
/// Residual evaluation reads key values by position (the short-circuit
/// charges of [`Predicate::eval`] on the materialised key row, one call a
/// leaf) and survivors gather straight into the output batch without an
/// intermediate [`robustmap_storage::Row`].
pub fn run_covering(
    index: &IndexDef,
    range: &KeyRange,
    residual: &Predicate,
    proj: &[usize],
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> u64 {
    let mut emitter = BatchEmitter::new(proj.len());
    with_tree!(&index.tree, |t| {
        t.scan_leaves(&range.lo, &range.hi, session, AccessKind::Sequential, |leaf| {
            residual.filter_run(leaf, |(key, _), c| key[c], session, |(key, _)| {
                emitter.push_projected_slice(key, proj, sink);
            });
        })
    });
    emitter.flush(sink);
    emitter.produced()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColRange;
    use crate::ops::testutil::{collect, demo_db};

    #[test]
    fn collect_rids_matches_predicate_count() {
        let (mut db, t) = demo_db(512);
        let idx = db.create_index("idx_a", t, &[0]).unwrap();
        let s = Session::with_pool_pages(64);
        let range = KeyRange::on_leading(0, 99, 1);
        let rids = collect_rids(db.index(idx), &range, &s);
        assert_eq!(rids.len(), 100);
        // Every rid's row really satisfies the range.
        for rid in rids {
            let row = db.table(t).heap.fetch(rid, &s, AccessKind::Random).unwrap();
            assert!(row.get(0) <= 99);
        }
    }

    #[test]
    fn collect_entries_in_key_order() {
        let (mut db, t) = demo_db(256);
        let idx = db.create_index("idx_b", t, &[1]).unwrap();
        let s = Session::with_pool_pages(64);
        let entries = collect_entries(db.index(idx), &KeyRange::full(1), &s);
        assert_eq!(entries.len(), 256);
        assert!(entries.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn covering_scan_projects_key_columns() {
        let (mut db, t) = demo_db(128);
        let idx = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let s = Session::with_pool_pages(64);
        // Key space: position 0 = a, position 1 = b.  Keep a <= 9, emit b.
        let (n, rows) = collect(|sink| {
            run_covering(
                db.index(idx),
                &KeyRange::on_leading(0, 9, 2),
                &Predicate::always_true(),
                &[1],
                &s,
                sink,
            )
        });
        assert_eq!(n, 10);
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.arity() == 1));
    }

    #[test]
    fn covering_scan_residual_in_key_space() {
        let (mut db, t) = demo_db(128);
        let idx = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let s = Session::with_pool_pages(64);
        // a <= 63 via the range, b <= 31 via the residual (key position 1).
        let count = run_covering(
            db.index(idx),
            &KeyRange::on_leading(0, 63, 2),
            &Predicate::single(ColRange::at_most(1, 31)),
            &[],
            &s,
            &mut |_| {},
        );
        // Independent-ish permutations: count must equal the true count.
        let truth = {
            let s2 = Session::with_pool_pages(0);
            let mut n = 0;
            db.table(t).heap.scan(&s2, |_, row| {
                if row.get(0) <= 63 && row.get(1) <= 31 {
                    n += 1;
                }
            });
            n
        };
        assert_eq!(count, truth);
    }

    #[test]
    fn index_scan_cost_scales_with_range_not_table() {
        let (mut db, t) = demo_db(4096);
        let idx = db.create_index("idx_a", t, &[0]).unwrap();
        let narrow = {
            let s = Session::with_pool_pages(64);
            collect_rids(db.index(idx), &KeyRange::on_leading(0, 15, 1), &s);
            s.stats().pages_read()
        };
        let wide = {
            let s = Session::with_pool_pages(64);
            collect_rids(db.index(idx), &KeyRange::full(1), &s);
            s.stats().pages_read()
        };
        assert!(narrow < wide, "narrow {narrow} vs wide {wide}");
    }
}
