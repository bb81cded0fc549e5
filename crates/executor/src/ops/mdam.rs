//! Multi-dimensional B-tree access (MDAM, \[LJBY95\]).
//!
//! Figure 9 of the paper shows that a covering two-column index is "extremely
//! robust but only if fully exploited using MDAM technology".  Given
//! per-column ranges `lo_i <= col_i <= hi_i` over a composite index, MDAM
//! skips between qualifying key regions instead of scanning the whole range
//! of the leading column: whenever the cursor leaves the box, it *seeks*
//! directly to the next possible qualifying key.
//!
//! Consecutive seeks mostly land on the same or a nearby leaf, so with a
//! warm buffer pool the skip cost is small — which is exactly why the plan
//! degrades gracefully in both dimensions.

use robustmap_storage::btree::{Cursor, Entry};
use robustmap_storage::{AccessKind, BTree, IndexDef, Key, Session};

use crate::exec::ExecError;

/// The scan's cursor walk, charging per leaf: entries stepped over (one
/// row each) and entries checked against the box (one charge of `arity`
/// comparisons each) are counted here and charged when the walk leaves
/// the leaf — for the next one, for a seek, or for good.
struct Walk<'a> {
    tree: &'a BTree,
    session: &'a Session,
    arity: u64,
    stepped: u64,
    checked: u64,
}

impl Walk<'_> {
    /// [`BTree::cursor_next`] over sequential leaves, owing the row.
    fn next(&mut self, cursor: &mut Cursor) -> Option<Entry> {
        loop {
            if let Some(entry) = self.tree.cursor_step(cursor) {
                self.stepped += 1;
                return Some(entry);
            }
            self.settle();
            if !self.tree.cursor_next_leaf(cursor, self.session, AccessKind::Sequential) {
                return None;
            }
        }
    }

    fn seek(&mut self, target: &Key) -> Cursor {
        self.settle();
        self.tree.seek(target, self.session)
    }

    /// Charge what the walk owes.
    fn settle(&mut self) {
        self.session.charge_rows_as(self.stepped, self.stepped);
        self.session.charge_compares_as(self.checked * self.arity, self.checked);
        (self.stepped, self.checked) = (0, 0);
    }
}

/// Run MDAM over `index` with one inclusive `(lo, hi)` range per key
/// column.  All charges happen here; `emit` receives each qualifying key
/// (unprojected, in key-column space), must not charge, and answers
/// whether to keep scanning (`false` aborts mid-flight — the adaptive
/// bail).
pub fn run(
    index: &IndexDef,
    col_ranges: &[(i64, i64)],
    session: &Session,
    emit: &mut dyn FnMut(&Key) -> bool,
) -> Result<(), ExecError> {
    let arity = index.tree.key_arity();
    if col_ranges.len() != arity {
        return Err(ExecError::BadPlan(format!(
            "MDAM needs {arity} column ranges, got {}",
            col_ranges.len()
        )));
    }
    for &(lo, hi) in col_ranges {
        if lo > hi {
            return Ok(()); // empty box
        }
    }

    // How many entries to scan forward before paying a root-to-leaf seek.
    // Skipping within the current leaf is what keeps MDAM no worse than a
    // plain range scan when the leading column has few duplicates (with
    // all-distinct prefixes, every "skip" lands on the very next entry).
    const SKIP_SCAN_LIMIT: u32 = 8;

    // Start at the low corner of the box.
    let low_corner: Vec<i64> = col_ranges.iter().map(|&(lo, _)| lo).collect();
    let mut walk =
        Walk { tree: &index.tree, session, arity: arity as u64, stepped: 0, checked: 0 };
    let mut cursor = walk.seek(&Key::new(&low_corner));

    while let Some((key, _rid)) = walk.next(&mut cursor) {
        // Find the first column that has left its range.
        let mut violation: Option<(usize, bool)> = None; // (col, below_lo)
        for (j, &(lo, hi)) in col_ranges.iter().enumerate() {
            let v = key.get(j);
            if v < lo {
                violation = Some((j, true));
                break;
            }
            if v > hi {
                violation = Some((j, false));
                break;
            }
        }
        walk.checked += 1;

        match violation {
            None => {
                if !emit(&key) {
                    break; // aborted by the adaptive layer
                }
            }
            Some((0, false)) => break, // leading column beyond its range: done
            Some((j, below_lo)) => {
                let target = if below_lo {
                    // Jump forward within the current prefix to the low
                    // corner of the remaining columns.
                    let mut vals: Vec<i64> = key.values()[..j].to_vec();
                    for &(lo, _) in &col_ranges[j..] {
                        vals.push(lo);
                    }
                    Key::new(&vals)
                } else {
                    // This prefix is exhausted: skip to the next distinct
                    // value of the length-j prefix.
                    Key::padded_hi(&key.values()[..j], arity)
                };
                // Hybrid skip: scan a few entries forward first — if the
                // target is nearby, re-descending from the root would cost
                // more than just walking the leaf.
                let mut probe = cursor.clone();
                let mut reached: Option<Cursor> = None;
                for _ in 0..SKIP_SCAN_LIMIT {
                    let ahead = probe.clone();
                    match walk.next(&mut probe) {
                        Some((k, _)) if k >= target => {
                            reached = Some(ahead);
                            break;
                        }
                        Some(_) => {}
                        None => {
                            reached = Some(probe.clone()); // exhausted: done
                            break;
                        }
                    }
                }
                cursor = match reached {
                    Some(c) => c,
                    None => walk.seek(&target),
                };
            }
        }
    }
    walk.settle();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::demo_db;
    use robustmap_storage::Database;
    use robustmap_storage::TableId;

    /// Run MDAM to completion and collect the qualifying keys.
    fn mdam(
        index: &IndexDef,
        col_ranges: &[(i64, i64)],
        session: &Session,
    ) -> Result<Vec<Key>, ExecError> {
        let mut keys = Vec::new();
        run(index, col_ranges, session, &mut |key| {
            keys.push(*key);
            true
        })?;
        Ok(keys)
    }

    fn reference_count(db: &Database, t: TableId, ranges: &[(usize, i64, i64)]) -> u64 {
        let s = Session::with_pool_pages(0);
        let mut n = 0;
        db.table(t).heap.scan(&s, |_, row| {
            if ranges.iter().all(|&(c, lo, hi)| {
                let v = row.get(c);
                lo <= v && v <= hi
            }) {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn mdam_equals_filtered_scan_two_columns() {
        let (mut db, t) = demo_db(1024);
        let idx = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let s = Session::with_pool_pages(256);
        for (alo, ahi, blo, bhi) in
            [(0, 1023, 0, 1023), (100, 199, 0, 1023), (0, 1023, 50, 59), (100, 400, 200, 300), (7, 7, 0, 1023)]
        {
            let n = mdam(db.index(idx), &[(alo, ahi), (blo, bhi)], &s).unwrap().len() as u64;
            let want = reference_count(&db, t, &[(0, alo, ahi), (1, blo, bhi)]);
            assert_eq!(n, want, "box a[{alo},{ahi}] b[{blo},{bhi}]");
        }
    }

    #[test]
    fn mdam_empty_box_is_free() {
        let (mut db, t) = demo_db(64);
        let idx = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let s = Session::with_pool_pages(64);
        assert!(mdam(db.index(idx), &[(10, 5), (0, 63)], &s).unwrap().is_empty());
        assert_eq!(s.stats().pages_read(), 0);
    }

    #[test]
    fn mdam_wrong_range_count_is_an_error() {
        let (mut db, t) = demo_db(16);
        let idx = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let s = Session::with_pool_pages(64);
        assert!(mdam(db.index(idx), &[(0, 10)], &s).is_err());
    }

    #[test]
    fn mdam_skips_rather_than_scans_when_second_column_is_selective() {
        // Leading column with few distinct values (the regime MDAM is built
        // for): 16 distinct `a` values, `b` a permutation within the table.
        let mut db = Database::new();
        let schema = robustmap_storage::Schema::new(vec![
            ("a", robustmap_storage::ColumnType::Int),
            ("b", robustmap_storage::ColumnType::Int),
        ]);
        let t = db.create_table("lowcard", schema);
        let n = 8192i64;
        for i in 0..n {
            db.insert_row(
                t,
                &robustmap_storage::Row::from_slice(&[i % 16, (i * 7919) % n]),
            )
            .unwrap();
        }
        let idx = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        // Wide leading range, tiny second range: MDAM should touch far
        // fewer entries than the 8192 the leading range contains.
        let s = Session::with_pool_pages(1024);
        let count = mdam(db.index(idx), &[(0, 15), (0, 63)], &s).unwrap().len() as u64;
        let want = reference_count(&db, t, &[(0, 0, 15), (1, 0, 63)]);
        assert_eq!(count, want);
        assert_eq!(count, 64); // b is a permutation: exactly 64 rows qualify
        // Entry touches (cpu_rows) stay far below a full covering range
        // scan; MDAM visits ~one probe entry per distinct leading value
        // plus the qualifying entries themselves.
        assert!(
            s.stats().cpu_rows < n as u64 / 8,
            "MDAM touched {} entries",
            s.stats().cpu_rows
        );
    }

    #[test]
    fn mdam_three_columns() {
        let mut db = Database::new();
        let schema = robustmap_storage::Schema::new(vec![
            ("x", robustmap_storage::ColumnType::Int),
            ("y", robustmap_storage::ColumnType::Int),
            ("z", robustmap_storage::ColumnType::Int),
        ]);
        let t = db.create_table("t3", schema);
        for i in 0..1000i64 {
            db.insert_row(
                t,
                &robustmap_storage::Row::from_slice(&[i % 10, (i / 10) % 10, i % 97]),
            )
            .unwrap();
        }
        let idx = db.create_index("idx_xyz", t, &[0, 1, 2]).unwrap();
        let s = Session::with_pool_pages(256);
        let keys = mdam(db.index(idx), &[(2, 5), (3, 8), (10, 40)], &s).unwrap();
        for k in &keys {
            assert!((2..=5).contains(&k.get(0)));
            assert!((3..=8).contains(&k.get(1)));
            assert!((10..=40).contains(&k.get(2)));
        }
        let want = reference_count(&db, t, &[(0, 2, 5), (1, 3, 8), (2, 10, 40)]);
        assert_eq!(keys.len() as u64, want);
    }
}
