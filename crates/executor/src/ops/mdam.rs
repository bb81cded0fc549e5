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
//!
//! The walk reads leaves through a [`Cursor`] that borrows them: a step is a
//! slice index, a key the leaf's own, a saved position a register copy, and
//! nothing is allocated.  Only a leaf turn or a seek touches a page.  It is
//! compiled once per key arity `A`, chosen once per scan: keys, corners and
//! the box are `[i64; A]` arrays on the stack.

use robustmap_storage::btree::{Cursor, Tree, MAX_KEY_COLS};
use robustmap_storage::{with_tree, AccessKind, IndexDef, Key, Session};

use crate::exec::ExecError;

/// How many entries to read forward before paying a root-to-leaf seek.
/// Skipping within the current leaf is what keeps MDAM no worse than a
/// plain range scan when the leading column has few duplicates (with
/// all-distinct prefixes, every "skip" lands on the very next entry).
const SKIP_SCAN_LIMIT: u32 = 8;

/// The scan's walk over a tree of `A`-column keys, charging per leaf:
/// entries stepped over (one row each) and entries checked against the box
/// (one charge of `A` comparisons each) are counted here and charged when
/// the walk leaves the leaf — for the next one, for a seek, or for good.
/// `#[inline(always)]` throughout: one out-of-line call taking `&mut self`
/// pins both counters to the stack for the whole scan (C1: 45 ms so, 20 ms
/// with them in registers).
struct Walk<'a, const A: usize> {
    tree: &'a Tree<A>,
    session: &'a Session,
    stepped: u64,
    checked: u64,
}

impl<'a, const A: usize> Walk<'a, A> {
    /// [`Tree::cursor_next`] over sequential leaves, owing the row: the
    /// stored key's columns.
    #[inline(always)]
    fn next(&mut self, cursor: &mut Cursor<'a, A>) -> Option<&'a [i64; A]> {
        loop {
            if let Some((key, _)) = cursor.peek() {
                cursor.advance(1);
                self.stepped += 1;
                return Some(key);
            }
            self.settle();
            *cursor = self.tree.next_leaf(*cursor, self.session, AccessKind::Sequential)?;
        }
    }

    #[inline(always)]
    fn seek(&mut self, target: &Key) -> Cursor<'a, A> {
        self.settle();
        self.tree.seek(target, self.session)
    }

    /// Charge what the walk owes.
    #[inline(always)]
    fn settle(&mut self) {
        self.session.charge_rows_as(self.stepped, self.stepped);
        self.session.charge_compares_as(self.checked * A as u64, self.checked);
        (self.stepped, self.checked) = (0, 0);
    }
}

/// `prefix` extended by the low bound of every column after it: the first
/// key of the box under that prefix.
#[inline(always)]
fn low_corner<const A: usize>(prefix: &[i64], ranges: &[(i64, i64); A]) -> [i64; A] {
    std::array::from_fn(|c| prefix.get(c).copied().unwrap_or(ranges[c].0))
}

/// Run MDAM over `index` with one inclusive `(lo, hi)` range per key
/// column.  All charges happen here; `emit` receives each qualifying key's
/// values (unprojected, in key-column space), must not charge, and answers
/// whether to keep scanning (`false` aborts mid-flight — the adaptive
/// bail).
pub fn run(
    index: &IndexDef,
    col_ranges: &[(i64, i64)],
    session: &Session,
    emit: &mut dyn FnMut(&[i64]) -> bool,
) -> Result<(), ExecError> {
    let arity = index.tree.key_arity();
    if col_ranges.len() != arity {
        return Err(ExecError::BadPlan(format!(
            "MDAM needs {arity} column ranges, got {}",
            col_ranges.len()
        )));
    }
    if col_ranges.iter().any(|&(lo, hi)| lo > hi) {
        return Ok(()); // empty box
    }
    with_tree!(&index.tree, |t| walk(t, col_ranges, session, emit));
    Ok(())
}

/// [`run`] over a tree of `A`-column keys, `col_ranges` holding `A`
/// non-empty ranges: the walk, its keys, corners and box compiled for `A`.
fn walk<const A: usize>(
    tree: &Tree<A>,
    col_ranges: &[(i64, i64)],
    session: &Session,
    emit: &mut dyn FnMut(&[i64]) -> bool,
) {
    let ranges: [(i64, i64); A] = std::array::from_fn(|c| col_ranges[c]);
    let mut walk = Walk { tree, session, stepped: 0, checked: 0 };
    let mut cursor = walk.seek(&Key::new(&low_corner(&[], &ranges)));

    while let Some(key) = walk.next(&mut cursor) {
        // The first column that has left its range, and whether below it.
        let violation = ranges.iter().enumerate().find_map(|(j, &(lo, hi))| {
            let v = key[j];
            (v < lo || v > hi).then_some((j, v < lo))
        });
        walk.checked += 1;

        match violation {
            None if emit(key) => {}
            None => break, // aborted by the adaptive layer
            Some((0, false)) => break, // leading column beyond its range: done
            Some((j, below_lo)) => {
                // Below `lo` the key skips to the box's low corner under
                // its prefix; above `hi` the prefix is exhausted — it skips
                // past every key that shares it.
                let corner = low_corner(&key[..j], &ranges);
                let target = || {
                    if below_lo {
                        Key::new(&corner)
                    } else {
                        Key::padded_hi(&key[..j], A)
                    }
                };
                // An entry under another prefix has passed the target
                // whatever its tail — it follows `key` in tree order, so its
                // prefix is the greater.  One under the same has passed the
                // corner once it reaches it.  It reaches the prefix's end
                // only at full width with every column past the prefix
                // `i64::MAX`: `Key::padded_hi` pads all `MAX_KEY_COLS` slots,
                // so such a key is the target, and a seek lands on it.
                let passed = |k: &[i64; A]| {
                    (0..j).any(|c| k[c] != key[c])
                        || if below_lo {
                            *k >= corner
                        } else {
                            A == MAX_KEY_COLS && k[j..].iter().all(|&v| v == i64::MAX)
                        }
                };
                // Hybrid skip: read a few entries forward first — if the
                // target is nearby, re-descending from the root would cost
                // more than walking the leaf.  A probe that ran off its leaf
                // read the next one; resuming from `ahead` reads it again.
                let mut probe = cursor;
                let mut window = SKIP_SCAN_LIMIT;
                cursor = loop {
                    if window == 0 {
                        break walk.seek(&target());
                    }
                    window -= 1;
                    let ahead = probe;
                    match walk.next(&mut probe) {
                        Some(k) if passed(k) => break ahead,
                        Some(_) => {}
                        None => break probe, // exhausted: done
                    }
                };
            }
        }
    }
    walk.settle();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::demo_db;
    use robustmap_storage::btree::{Entry, MAX_KEY_COLS};
    use robustmap_storage::heap::Rid;
    use robustmap_storage::{BTree, Database};
    use robustmap_storage::{FileId, IoStats, TableId};

    /// The walk as it was before it borrowed its leaves, kept as the
    /// oracle: [`Tree::cursor_next`] an entry at a time, every entry
    /// copied out and charged on the spot, the skip target built for every
    /// violation and every probed key compared with it whole.
    fn oracle(
        index: &IndexDef,
        col_ranges: &[(i64, i64)],
        session: &Session,
        emit: &mut dyn FnMut(&[i64]) -> bool,
    ) -> Result<(), ExecError> {
        let arity = index.tree.key_arity();
        if col_ranges.iter().any(|&(lo, hi)| lo > hi) {
            return Ok(());
        }
        let low_corner: Vec<i64> = col_ranges.iter().map(|&(lo, _)| lo).collect();
        with_tree!(&index.tree, |tree| {
            let mut cursor = tree.seek(&Key::new(&low_corner), session);
            while let Some((key, _)) =
                tree.cursor_next(&mut cursor, session, AccessKind::Sequential)
            {
                session.charge_compares(arity as u64);
                let violation = col_ranges.iter().enumerate().find_map(|(j, &(lo, hi))| {
                    let v = key.get(j);
                    (v < lo || v > hi).then_some((j, v < lo))
                });
                match violation {
                    None => {
                        if !emit(key.values()) {
                            break;
                        }
                    }
                    Some((0, false)) => break,
                    Some((j, below_lo)) => {
                        let target = if below_lo {
                            let mut vals: Vec<i64> = key.values()[..j].to_vec();
                            vals.extend(col_ranges[j..].iter().map(|&(lo, _)| lo));
                            Key::new(&vals)
                        } else {
                            Key::padded_hi(&key.values()[..j], arity)
                        };
                        let mut probe = cursor;
                        let mut reached = None;
                        for _ in 0..SKIP_SCAN_LIMIT {
                            let ahead = probe;
                            match tree.cursor_next(&mut probe, session, AccessKind::Sequential) {
                                Some((k, _)) if k >= target => {
                                    reached = Some(ahead);
                                    break;
                                }
                                Some(_) => {}
                                None => {
                                    reached = Some(probe);
                                    break;
                                }
                            }
                        }
                        cursor = reached.unwrap_or_else(|| tree.seek(&target, session));
                    }
                }
            }
        });
        Ok(())
    }

    type Scan = fn(
        &IndexDef,
        &[(i64, i64)],
        &Session,
        &mut dyn FnMut(&[i64]) -> bool,
    ) -> Result<(), ExecError>;

    /// Everything a scan leaves behind: the keys it emitted, in order, and
    /// what it charged.  `stop_at` makes `emit` refuse the k-th key.
    fn outcome(
        scan: Scan,
        index: &IndexDef,
        col_ranges: &[(i64, i64)],
        pool_pages: usize,
        stop_at: Option<usize>,
    ) -> (Vec<Key>, IoStats, u64, u64) {
        let s = Session::with_pool_pages(pool_pages);
        let mut keys = Vec::new();
        scan(index, col_ranges, &s, &mut |key| {
            keys.push(Key::new(key));
            Some(keys.len()) != stop_at
        })
        .unwrap();
        (keys, s.stats(), s.elapsed_ticks(), s.charge_events())
    }

    /// SplitMix64: the executor crate has no `rand`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> i64 {
            (self.next() % n) as i64
        }
    }

    /// How the leading key column repeats.
    #[derive(Debug, Clone, Copy)]
    enum Lead {
        Distinct,
        Sixteen,
        Zipf,
    }

    const ENTRIES: i64 = 320;
    /// Trailing columns draw from a small domain, so boxes over them are
    /// neither empty nor full and prefixes of an arity-3 key repeat.
    const TAIL_DOMAIN: u64 = 12;

    fn random_index(rng: &mut Rng, arity: usize, lead: Lead, leaf_cap: usize, churn: bool) -> IndexDef {
        let key = |rng: &mut Rng, i: i64| {
            let mut vals = [0; MAX_KEY_COLS];
            vals[0] = match lead {
                Lead::Distinct => i,
                Lead::Sixteen => i / 16,
                // Log-uniform: value v is about 1/v as likely as value 1.
                Lead::Zipf => (ENTRIES as f64).powf(rng.below(1 << 20) as f64 / (1 << 20) as f64) as i64,
            };
            for v in &mut vals[1..arity] {
                *v = rng.below(TAIL_DOMAIN);
            }
            Key::new(&vals[..arity])
        };
        let rid = |i: i64| Rid::new((i / 100) as u32, (i % 100) as u32);
        let mut entries: Vec<Entry> = (0..ENTRIES).map(|i| (key(rng, i), rid(i))).collect();
        entries.sort_unstable();
        let mut tree =
            BTree::bulk_load_with_caps(FileId(3), arity, entries.iter().copied(), 1.0, leaf_cap, 4);
        if churn {
            // Delete about half, insert a few: leaves end up half empty.
            let quiet = Session::with_pool_pages(0);
            for &(k, r) in &entries {
                if rng.below(100) < 45 {
                    assert!(tree.delete(k, r, &quiet));
                }
            }
            for i in ENTRIES..ENTRIES + 40 {
                let like = rng.below(ENTRIES as u64);
                tree.insert(key(rng, like), rid(i), &quiet);
            }
            tree.check_invariants().unwrap();
        }
        IndexDef { name: "idx".into(), table: TableId(0), key_columns: (0..arity).collect(), tree }
    }

    fn random_box(rng: &mut Rng, arity: usize) -> Vec<(i64, i64)> {
        (0..arity)
            .map(|c| {
                let domain = if c == 0 { ENTRIES as u64 } else { TAIL_DOMAIN };
                let (x, y) = (rng.below(domain), rng.below(domain));
                match rng.below(8) {
                    0 => (x.max(y) + 1, x.min(y)),                // empty
                    1 => (x, x),                                  // point
                    2 => (i64::MIN, i64::MAX),                    // full
                    3 => (ENTRIES + 1, i64::MAX),                 // above every key
                    4 => (x, i64::MAX),                           // open above
                    _ => (x.min(y), x.max(y)),
                }
            })
            .collect()
    }

    #[test]
    fn borrowed_walk_charges_what_the_entry_walk_charges() {
        let mut rng = Rng(0x5eed);
        for arity in 1..=MAX_KEY_COLS {
            for lead in [Lead::Distinct, Lead::Sixteen, Lead::Zipf] {
                // Leaf caps at and under the probe window: windows straddle
                // leaf edges and run off the end of the chain.
                for leaf_cap in [6, 8] {
                    for churn in [false, true] {
                        let index = random_index(&mut rng, arity, lead, leaf_cap, churn);
                        let what = format!("arity {arity} {lead:?} cap {leaf_cap} churn {churn}");
                        for _ in 0..24 {
                            let ranges = random_box(&mut rng, arity);
                            for pool in [0, 4, 1024] {
                                let want = outcome(oracle, &index, &ranges, pool, None);
                                let got = outcome(run, &index, &ranges, pool, None);
                                assert_eq!(got, want, "{what} box {ranges:?} pool {pool}");
                                // The adaptive bail: the same prefix for the
                                // same ticks.
                                for k in [1, want.0.len() / 2, want.0.len()] {
                                    let want = outcome(oracle, &index, &ranges, pool, Some(k));
                                    let got = outcome(run, &index, &ranges, pool, Some(k));
                                    assert_eq!(got, want, "{what} box {ranges:?} pool {pool} bail {k}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// A key whose columns past a prefix are all `i64::MAX` is, at full
    /// width, that prefix's skip target: the entry walk counts it as
    /// passed, and a seek to the target lands on the first of a run of
    /// them — a run longer than the probe window is stepped over, never
    /// sought again.  Below full width the target sorts after such keys.
    #[test]
    fn a_run_of_max_tails_is_stepped_over_as_the_entry_walk_steps_over_it() {
        const MAX: i64 = i64::MAX;
        let tails = [0, 1, MAX - 1, MAX];
        for arity in 2..=MAX_KEY_COLS {
            let mut entries = Vec::new();
            for p in 0..4 {
                for q in tails {
                    for r in tails {
                        let run = if q == MAX || r == MAX { 2 * SKIP_SCAN_LIMIT + 3 } else { 2 };
                        for _ in 0..run {
                            let i = entries.len() as u32;
                            entries
                                .push((Key::new(&[p, q, r][..arity]), Rid::new(i / 100, i % 100)));
                        }
                    }
                }
            }
            entries.sort_unstable();
            let ranges = [
                vec![(0, 3), (1, 2)],
                vec![(0, 1), (1, MAX - 1), (0, MAX), (MAX, MAX)],
                vec![(0, 0), (0, MAX - 1), (1, MAX), (MAX, MAX)],
            ];
            for leaf_cap in [6, 8, 256] {
                let tree = BTree::bulk_load_with_caps(
                    FileId(3),
                    arity,
                    entries.iter().copied(),
                    1.0,
                    leaf_cap,
                    4,
                );
                let index = IndexDef {
                    name: "idx".into(),
                    table: TableId(0),
                    key_columns: (0..arity).collect(),
                    tree,
                };
                for a in &ranges[0] {
                    for b in &ranges[1] {
                        for c in &ranges[2] {
                            let col_ranges = [*a, *b, *c];
                            let col_ranges = &col_ranges[..arity];
                            for pool in [0, 4, 1024] {
                                let want = outcome(oracle, &index, col_ranges, pool, None);
                                let got = outcome(run, &index, col_ranges, pool, None);
                                assert_eq!(
                                    got, want,
                                    "arity {arity} cap {leaf_cap} box {col_ranges:?} pool {pool}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Run MDAM to completion and collect the qualifying keys.
    fn mdam(
        index: &IndexDef,
        col_ranges: &[(i64, i64)],
        session: &Session,
    ) -> Result<Vec<Key>, ExecError> {
        let mut keys = Vec::new();
        run(index, col_ranges, session, &mut |key| {
            keys.push(Key::new(key));
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
