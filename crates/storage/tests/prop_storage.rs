//! Property-based tests for the storage substrate.
//!
//! Strategy: model-based testing.  Each structure is driven by a random
//! operation sequence and compared against a trivially correct model
//! (`BTreeMap` / `BTreeSet` / `Vec`), with structural invariants checked
//! along the way.

use proptest::prelude::*;
use robustmap_storage::btree::{BTree, Entry, Key};
use robustmap_storage::heap::Rid;
use robustmap_storage::{
    AccessKind, BufferPool, ColumnPage, ColumnType, CostModel, CpuCharge, EvictionPolicy, FileId,
    HeapFile, IoStats, PageId, QueryShare, RidSet, RidSpan, Row, Schema, Session, SharedBufferPool,
    MAX_COLUMNS, PAGE_SIZE,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn session() -> Session {
    Session::with_pool_pages(64)
}

// ---------------------------------------------------------------- B+-tree

/// A key's three columns from small domains, cut to a tree's arity where
/// it is used: repeats and shared prefixes are common at every arity.
type TreeKey = [i64; 3];

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(TreeKey, u32),
    Delete(TreeKey, u32),
    Lookup(TreeKey),
    Range(TreeKey, TreeKey),
}

fn tree_key() -> impl Strategy<Value = TreeKey> {
    (0i64..24, 0i64..3, 0i64..3).prop_map(|(a, b, c)| [a, b, c])
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (tree_key(), 0u32..8).prop_map(|(k, r)| TreeOp::Insert(k, r)),
        (tree_key(), 0u32..8).prop_map(|(k, r)| TreeOp::Delete(k, r)),
        tree_key().prop_map(TreeOp::Lookup),
        (tree_key(), tree_key()).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tree behaves exactly like an ordered set of (key, rid) pairs,
    /// and never violates its structural invariants, at every key arity.
    #[test]
    fn btree_matches_model(
        arity in 1usize..=3,
        ops in prop::collection::vec(tree_op(), 1..300),
    ) {
        let s = session();
        let key = |k: &TreeKey| Key::new(&k[..arity]);
        let cols = |k: &TreeKey| k[..arity].to_vec();
        // Small caps force frequent splits and merges.
        let mut tree = BTree::with_caps(FileId(0), arity, 4, 4);
        let mut model: BTreeSet<(Vec<i64>, u32)> = BTreeSet::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, r) => {
                    let inserted = tree.insert(key(&k), Rid::new(0, r), &s);
                    prop_assert_eq!(inserted, model.insert((cols(&k), r)));
                }
                TreeOp::Delete(k, r) => {
                    let deleted = tree.delete(key(&k), Rid::new(0, r), &s);
                    prop_assert_eq!(deleted, model.remove(&(cols(&k), r)));
                }
                TreeOp::Lookup(k) => {
                    let got = tree.get_first(&key(&k), &s);
                    let want = model
                        .range((cols(&k), 0)..=(cols(&k), u32::MAX))
                        .next()
                        .map(|&(_, r)| Rid::new(0, r));
                    prop_assert_eq!(got, want);
                }
                TreeOp::Range(lo, hi) => {
                    let mut got = Vec::new();
                    tree.scan_range(&key(&lo), &key(&hi), &s, AccessKind::Sequential, |(k, rid)| {
                        got.push((k.values().to_vec(), rid.slot))
                    });
                    let want: Vec<(Vec<i64>, u32)> =
                        model.range((cols(&lo), 0)..=(cols(&hi), u32::MAX)).cloned().collect();
                    prop_assert_eq!(got, want);
                }
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(tree.len() as usize, model.len());
        }
        // Final full ordering agreement.
        let all: Vec<(Vec<i64>, u32)> =
            tree.collect_all().iter().map(|(k, r)| (k.values().to_vec(), r.slot)).collect();
        let want: Vec<(Vec<i64>, u32)> = model.iter().cloned().collect();
        prop_assert_eq!(all, want);
    }

    /// Bulk load over any sorted unique entry set equals the insert path.
    #[test]
    fn btree_bulk_load_equals_inserts(
        keys in prop::collection::btree_set((0i64..10_000, 0u32..16), 0..400),
        fill in 0.3f64..1.0,
    ) {
        let entries: Vec<(Key, Rid)> = keys
            .iter()
            .map(|&(k, r)| (Key::single(k), Rid::new(0, r)))
            .collect();
        let bulk = BTree::bulk_load_with_caps(FileId(0), 1, entries.iter().copied(), fill, 8, 8);
        bulk.check_invariants().map_err(TestCaseError::fail)?;
        let s = session();
        let mut incremental = BTree::with_caps(FileId(1), 1, 8, 8);
        for &(k, r) in &entries {
            incremental.insert(k, r, &s);
        }
        prop_assert_eq!(bulk.collect_all(), incremental.collect_all());
    }

    /// Composite-key prefix scans return exactly the rows a filter would.
    #[test]
    fn btree_prefix_scan_equals_filter(
        pairs in prop::collection::btree_set((0i64..20, 0i64..20), 0..200),
        probe in 0i64..20,
    ) {
        let entries: Vec<(Key, Rid)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (Key::pair(a, b), Rid::new(0, i as u32)))
            .collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable();
        let tree = BTree::bulk_load_with_caps(FileId(0), 2, sorted.iter().copied(), 0.9, 8, 8);
        let s = session();
        let mut got = Vec::new();
        tree.scan_range(
            &Key::padded_lo(&[probe], 2),
            &Key::padded_hi(&[probe], 2),
            &s,
            AccessKind::Sequential,
            |(k, _)| got.push((k.get(0), k.get(1))),
        );
        let want: Vec<(i64, i64)> =
            pairs.iter().copied().filter(|&(a, _)| a == probe).collect();
        prop_assert_eq!(got, want);
    }
}

/// One step of the miniature churn workload below.
#[derive(Debug, Clone, Copy)]
enum ChurnStep {
    /// Insert `Key::pair(a, b)` under slot `1000 + r`.
    Insert(i64, i64, u32),
    /// Delete the `i % live`-th live entry (model order).
    DeleteAt(usize),
    /// Delete a (key, rid) pair that was never inserted.
    DeleteMissing(i64, i64),
}

/// The churn driver's op mix over keys in `0..domain`: insert a fresh
/// (key, rid) pair; delete a *live* entry picked by index — hits the
/// bulk-loaded population as readily as churn inserts, exactly like the
/// driver picking victims; delete a (key, rid) that was never inserted.
fn churn_step(domain: i64) -> impl Strategy<Value = ChurnStep> {
    prop_oneof![
        (0..domain, 0..domain, 0u32..64).prop_map(|(a, b, r)| ChurnStep::Insert(a, b, r)),
        (0usize..4096).prop_map(ChurnStep::DeleteAt),
        (0..domain, 0..domain).prop_map(|(a, b)| ChurnStep::DeleteMissing(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The churn lifecycle in miniature: a *bulk-loaded* composite-key
    /// tree (the shape every catalog index starts in) driven through a
    /// mixed insert/delete interleaving, against a `BTreeMap` model.
    /// Bulk-loaded nodes are packed to the fill factor, so the very first
    /// inserts split full leaves and the first deletes underflow them —
    /// paths the build-from-empty test above never starts from.  After
    /// every operation the structural invariants must hold; at the end,
    /// full ordering, point lookups and prefix ranges must agree.
    #[test]
    fn bulk_loaded_btree_survives_mixed_churn(
        base in prop::collection::btree_set((0i64..48, 0i64..48), 1..120),
        ops in prop::collection::vec(churn_step(48), 1..250),
        fill in 0.5f64..1.0,
        probe in 0i64..48,
    ) {
        let s = session();
        let entries: Vec<(Key, Rid)> = base
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (Key::pair(a, b), Rid::new(0, i as u32)))
            .collect();
        let mut tree =
            BTree::bulk_load_with_caps(FileId(0), 2, entries.iter().copied(), fill, 6, 6);
        let mut model: BTreeMap<(i64, i64, u32), Rid> = base
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| ((a, b, i as u32), Rid::new(0, i as u32)))
            .collect();
        for op in ops {
            match op {
                ChurnStep::Insert(a, b, r) => {
                    let rid = Rid::new(0, 1000 + r);
                    let did = tree.insert(Key::pair(a, b), rid, &s);
                    prop_assert_eq!(did, model.insert((a, b, 1000 + r), rid).is_none());
                }
                ChurnStep::DeleteAt(i) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (&(a, b, slot), &rid) =
                        model.iter().nth(i % model.len()).expect("non-empty");
                    prop_assert!(tree.delete(Key::pair(a, b), rid, &s));
                    model.remove(&(a, b, slot));
                }
                ChurnStep::DeleteMissing(a, b) => {
                    // Rid 5000 is above both the base slots and the
                    // churn-insert slots, so this (key, rid) never exists.
                    prop_assert!(!tree.delete(Key::pair(a, b), Rid::new(0, 5000), &s));
                }
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(tree.len() as usize, model.len());
        }
        // Full ordering agreement.
        let all: Vec<(i64, i64, u32)> =
            tree.collect_all().iter().map(|(k, r)| (k.get(0), k.get(1), r.slot)).collect();
        let want: Vec<(i64, i64, u32)> = model.keys().copied().collect();
        prop_assert_eq!(all, want);
        // Point lookup through the churned structure.
        let got = tree.get_first(&Key::pair(probe, probe), &s);
        let want_first = model
            .range((probe, probe, 0)..=(probe, probe, u32::MAX))
            .next()
            .map(|(_, &rid)| rid);
        prop_assert_eq!(got, want_first);
        // Prefix range scan over the leading column.
        let mut got = Vec::new();
        tree.scan_range(
            &Key::padded_lo(&[probe], 2),
            &Key::padded_hi(&[probe], 2),
            &s,
            AccessKind::Sequential,
            |(k, rid)| got.push((k.get(0), k.get(1), rid.slot)),
        );
        let want: Vec<(i64, i64, u32)> = model
            .range((probe, i64::MIN, 0)..=(probe, i64::MAX, u32::MAX))
            .map(|(&(a, b, _), r)| (a, b, r.slot))
            .collect();
        prop_assert_eq!(got, want);
    }
}

// ------------------------------------------- leaf walk against the cursor

/// Everything a range scan can be observed to do.
#[derive(Debug, PartialEq)]
struct ScanTrace {
    visited: Vec<Entry>,
    returned: u64,
    elapsed_ticks: u64,
    /// Charge events: what a serving quantum would have counted.
    events: u64,
    stats: IoStats,
    pool: (u64, u64, u64),
}

/// Run `scan` on a fresh session of `pool_pages` pages.  The callback
/// charges too (every third entry), so the scan's per-leaf charges and the
/// caller's per-entry ones land on one clock.
fn trace_scan(
    pool_pages: usize,
    scan: impl FnOnce(&Session, &mut dyn FnMut(Entry)) -> u64,
) -> ScanTrace {
    let s = Session::with_pool_pages(pool_pages);
    let mut visited = Vec::new();
    let returned = scan(&s, &mut |e| {
        if visited.len() % 3 == 0 {
            s.charge_compares(1);
        }
        visited.push(e);
    });
    ScanTrace {
        visited,
        returned,
        elapsed_ticks: s.elapsed_ticks(),
        events: s.charge_events(),
        stats: s.stats(),
        pool: s.pool_counters(),
    }
}

/// `scan_range` as first defined: a cursor stepped entry by entry until
/// the first key above `hi`.
fn scan_by_cursor(
    tree: &BTree,
    lo: &Key,
    hi: &Key,
    s: &Session,
    kind: AccessKind,
    f: &mut dyn FnMut(Entry),
) -> u64 {
    let mut cursor = tree.seek(lo, s);
    let mut n = 0;
    while let Some((key, rid)) = tree.cursor_next(&mut cursor, s, kind) {
        if key > *hi {
            break;
        }
        f((key, rid));
        n += 1;
    }
    n
}

/// Scan `[lo, hi]` both ways and require one trace; returns it.
fn scan_both_ways(
    tree: &BTree,
    lo: &Key,
    hi: &Key,
    kind: AccessKind,
    pool_pages: usize,
) -> Result<ScanTrace, TestCaseError> {
    let walked = trace_scan(pool_pages, |s, f| tree.scan_range(lo, hi, s, kind, f));
    let stepped = trace_scan(pool_pages, |s, f| scan_by_cursor(tree, lo, hi, s, kind, f));
    prop_assert_eq!(&walked, &stepped, "range [{:?}, {:?}] {:?} pool {}", lo, hi, kind, pool_pages);
    Ok(walked)
}

/// The tree's entries grouped by leaf, found from outside: on a pool of no
/// pages a cursor pays one sequential read exactly when it moves onto the
/// next leaf.
fn leaves_of(tree: &BTree) -> Vec<Vec<Entry>> {
    let s = Session::with_pool_pages(0);
    let mut cursor = tree.seek_first(&s);
    let mut leaves = vec![Vec::new()];
    let mut seen = s.stats().seq_reads;
    while let Some(e) = tree.cursor_next(&mut cursor, &s, AccessKind::Sequential) {
        for _ in seen..s.stats().seq_reads {
            leaves.push(Vec::new());
        }
        seen = s.stats().seq_reads;
        leaves.last_mut().expect("one leaf at least").push(e);
    }
    leaves
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The leaf-at-a-time `scan_range` is the cursor loop — entries, clock,
    /// charge events, counters, pool — with its row charges grouped per
    /// leaf: on bulk-loaded trees churned into underfull and emptied
    /// leaves, with one- and two-column keys and so few distinct keys that
    /// duplicates straddle every leaf boundary, over random ranges and the
    /// ranges that end or begin exactly at a leaf's edge.
    #[test]
    fn scan_range_equals_the_cursor_loop(
        base in prop::collection::btree_set((0i64..12, 0i64..4, 0u32..64), 0..160),
        ops in prop::collection::vec(churn_step(12), 0..200),
        two_columns in any::<bool>(),
        fill in 0.5f64..1.0,
        ranges in prop::collection::vec((-2i64..14, -2i64..14), 1..8),
        pool_pages in 0usize..6,
    ) {
        let arity = if two_columns { 2 } else { 1 };
        // (a, b, slot) orders like the entry it stands for in either shape.
        let entry = |a: i64, b: i64, slot: u32| -> Entry {
            if two_columns {
                (Key::pair(a, b), Rid::new(0, slot))
            } else {
                (Key::single(a), Rid::new(b as u32, slot))
            }
        };
        let s = session();
        let entries: Vec<Entry> = base.iter().map(|&(a, b, slot)| entry(a, b, slot)).collect();
        let mut tree =
            BTree::bulk_load_with_caps(FileId(0), arity, entries.iter().copied(), fill, 6, 6);
        let mut live: BTreeSet<(i64, i64, u32)> = base.clone();
        for op in ops {
            match op {
                ChurnStep::Insert(a, b, r) => {
                    let (key, rid) = entry(a, b % 4, 1000 + r);
                    prop_assert_eq!(tree.insert(key, rid, &s), live.insert((a, b % 4, 1000 + r)));
                }
                ChurnStep::DeleteAt(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let victim = *live.iter().nth(i % live.len()).expect("non-empty");
                    let (key, rid) = entry(victim.0, victim.1, victim.2);
                    prop_assert!(tree.delete(key, rid, &s));
                    live.remove(&victim);
                }
                ChurnStep::DeleteMissing(a, b) => {
                    let (key, rid) = entry(a, b % 4, 5000);
                    prop_assert!(!tree.delete(key, rid, &s));
                }
            }
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;

        let prefix = |a: i64| (Key::padded_lo(&[a], arity), Key::padded_hi(&[a], arity));
        let mut bounds: Vec<(Key, Key)> = Vec::new();
        for &(x, y) in &ranges {
            bounds.push((prefix(x).0, prefix(y).1)); // empty when y < x
            bounds.push((prefix(x.max(y)).0, prefix(i64::MAX).1)); // hi past the last key
        }
        let leaves = leaves_of(&tree);
        for pair in leaves.windows(2) {
            let (Some(first), Some(last), Some(next)) =
                (pair[0].first(), pair[0].last(), pair[1].first())
            else {
                continue;
            };
            bounds.push((first.0, last.0)); // hi is the leaf's last key
            bounds.push((next.0, next.0)); // lo seeks to the end of the leaf before
            bounds.push((last.0, next.0));
        }
        for (lo, hi) in &bounds {
            for kind in [AccessKind::Sequential, AccessKind::SinglePage] {
                let trace = scan_both_ways(&tree, lo, hi, kind, pool_pages)?;
                let want: Vec<Entry> = live
                    .iter()
                    .map(|&(a, b, slot)| entry(a, b, slot))
                    .filter(|(key, _)| lo <= key && key <= hi)
                    .collect();
                prop_assert_eq!(trace.visited, want);
            }
        }
    }
}

/// The edges the property reaches by chance, pinned on a tree whose leaf
/// layout is known: sixty-four keys 0, 10, .. in eight full leaves of
/// eight, so leaf `j` ends at key `80 j + 70` and leaf `j + 1` begins ten
/// above it.
#[test]
fn scan_range_at_leaf_edges_equals_the_cursor_loop() {
    let entries: Vec<Entry> =
        (0..64i64).map(|i| (Key::single(i * 10), Rid::new(1, i as u32))).collect();
    let tree = BTree::bulk_load_with_caps(FileId(0), 1, entries.iter().copied(), 1.0, 8, 8);
    assert_eq!(leaves_of(&tree).iter().map(Vec::len).collect::<Vec<_>>(), vec![8; 8]);
    let height = tree.height() as u64;
    let scan = |lo: i64, hi: i64| {
        scan_both_ways(&tree, &Key::single(lo), &Key::single(hi), AccessKind::Sequential, 0)
            .unwrap_or_else(|e| panic!("{e}"))
    };

    // hi equal to a leaf's last key: the scan cannot know the range ended
    // until it has moved onto the next leaf and paid for its first entry.
    let t = scan(0, 70);
    assert_eq!((t.returned, t.stats.cpu_rows, t.stats.seq_reads), (8, 9, 1));
    // lo between two leaves: the descent ends past the last entry of the
    // left one, and the first thing the scan does is move right.
    let t = scan(75, 90);
    assert_eq!(t.visited.iter().map(|(k, _)| k.get(0)).collect::<Vec<_>>(), vec![80, 90]);
    assert_eq!((t.stats.random_reads, t.stats.seq_reads, t.stats.cpu_rows), (height, 1, 3));
    // hi < lo and an empty range both look at one entry and visit none.
    for (lo, hi) in [(300, 200), (301, 309)] {
        let t = scan(lo, hi);
        assert_eq!((t.returned, t.stats.cpu_rows, t.stats.seq_reads), (0, 1, 0));
    }
    // hi past the last key: every entry from lo on, then the chain ends.
    let t = scan(600, 10_000);
    assert_eq!((t.returned, t.stats.cpu_rows, t.stats.seq_reads), (4, 4, 0));
    // lo past the last key: nothing to look at.
    let t = scan(700, 10_000);
    assert_eq!((t.returned, t.stats.cpu_rows, t.stats.seq_reads), (0, 0, 0));
}

// ------------------------------------------------- bulk load from columns

/// Key column values by index: the ends of `i64` and the values around 0,
/// where real keys meet the bounds' padding and a key's unused zeros, then
/// the small range −4..=3, so runs of equal leading values are common.
const EXTREMES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

fn column_value(i: usize) -> i64 {
    EXTREMES.get(i).copied().unwrap_or(i as i64 - EXTREMES.len() as i64 - 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A tree gathered from columns through a sorted order of the rows is
    /// the tree `bulk_load` builds from the comparison-sorted `(Key, Rid)`
    /// list: same entries, nodes and height, and well formed — at arities
    /// 1–3, over 0–2 000 rows in runs of 1–40 equal keys, so that several
    /// leaves are built and duplicates straddle their edges.
    #[test]
    fn bulk_load_columns_equals_bulk_load_of_the_sorted_entries(
        arity in 1usize..=3,
        runs in prop::collection::vec(((0usize..15, 0usize..15, 0usize..15), 1usize..=40), 0..100),
    ) {
        let mut cols: [Vec<i64>; 3] = Default::default();
        for &((x, y, z), len) in &runs {
            for (col, v) in cols.iter_mut().zip([x, y, z]) {
                col.extend(std::iter::repeat_n(column_value(v), len));
            }
        }
        let n = cols[0].len().min(2000);
        let key: Vec<&[i64]> = cols[..arity].iter().map(|c| &c[..n]).collect();
        // Rids descend with position: equal keys sort in reverse position
        // order, and an order by position alone is wrong.
        let rids: Vec<Rid> = (0..n as u32).rev().map(|p| Rid::new(p / 100, p % 100)).collect();
        let entry = |p: usize| -> Entry {
            let vals: Vec<i64> = key.iter().map(|c| c[p]).collect();
            (Key::new(&vals), rids[p])
        };
        let mut want: Vec<Entry> = (0..n).map(entry).collect();
        want.sort();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&p| entry(p as usize));

        let got = BTree::bulk_load_columns(FileId(4), &key, &rids, &order, 0.9);
        let reference = BTree::bulk_load(FileId(4), arity, want.iter().copied(), 0.9);
        got.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(got.collect_all(), want);
        prop_assert_eq!(got.node_count(), reference.node_count());
        prop_assert_eq!(got.height(), reference.height());
        prop_assert_eq!(got.len(), n as u64);
    }
}

// ---------------------------------------------------------------- rid set

/// A heap's span of `pages` pages of `slots` slots, and a rid list inside
/// it: duplicates likely when the list is long for its span.
fn rid_list() -> impl Strategy<Value = (RidSpan, Vec<Rid>)> {
    (1u32..40, prop_oneof![Just(1u32), 2u32..64, 64u32..300]).prop_flat_map(|(pages, slots)| {
        let rids = (0..pages, 0..slots).prop_map(|(p, s)| Rid::new(p, s));
        (Just(RidSpan { pages, slots }), prop::collection::vec(rids, 0..400))
    })
}

/// What `RidSet::build` documents for a list inside its span: under 32
/// rids, or fewer than a quarter of the span's words, stays a list.
fn stays_a_list(span: RidSpan, rids: &[Rid]) -> bool {
    let group_words = u64::from(span.slots).next_power_of_two().max(64) / 64;
    rids.len() < 32 || u64::from(span.pages) * group_words > 4 * rids.len() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A rid set agrees with the set model: iteration is sort + dedup,
    /// `and` is intersection, `rank` is position in that order, `contains`
    /// answers for any rid — a slot past the page group, a page past the
    /// span — and `build` refuses exactly the lists it says it refuses, a
    /// list with a rid past a span one page short among them.
    #[test]
    fn rid_set_matches_set_model(la in rid_list(), lb in rid_list()) {
        let ((span_a, a), (span_b, b)) = (la, lb);
        let model = |rids: &[Rid]| rids.iter().copied().collect::<BTreeSet<Rid>>();
        let (ma, mb) = (model(&a), model(&b));
        let (sa, sb) = (RidSet::build(&a, span_a), RidSet::build(&b, span_b));
        prop_assert_eq!(sa.is_none(), stays_a_list(span_a, &a));
        prop_assert_eq!(sb.is_none(), stays_a_list(span_b, &b));
        if let Some(last) = a.iter().map(|r| r.page).max() {
            let short = RidSpan { pages: last, ..span_a };
            prop_assert!(RidSet::build(&a, short).is_none());
        }
        if let Some(sa) = &sa {
            prop_assert_eq!(sa.len(), ma.len());
            let items: Vec<Rid> = sa.iter().collect();
            prop_assert!(items.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(&items, &ma.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(sa.last(), ma.last().copied());
            let by_page: Vec<Rid> = sa
                .pages()
                .flat_map(|(page, slots)| slots.map(move |slot| Rid::new(page, slot)))
                .collect();
            prop_assert_eq!(&by_page, &items);
            let ranks = sa.ranks();
            for (i, &rid) in items.iter().enumerate() {
                prop_assert_eq!(ranks.rank(rid), i);
            }
            // Probes from the other list and from outside any span.
            let outside = [
                Rid::new(0, 63), Rid::new(0, 64), Rid::new(3, 511), Rid::new(3, 512),
                Rid::new(39, u32::MAX), Rid::new(40, 0), Rid::new(u32::MAX, u32::MAX),
            ];
            for &rid in b.iter().chain(&outside) {
                prop_assert_eq!(sa.contains(rid), ma.contains(&rid), "contains {}", rid);
                prop_assert_eq!(ranks.rank(rid), ma.range(..rid).count(), "rank {}", rid);
            }
        }
        if let (Some(sa), Some(sb)) = (&sa, &sb) {
            let want: Vec<Rid> = ma.intersection(&mb).copied().collect();
            for both in [sa.and(sb), sb.and(sa)] {
                prop_assert_eq!(both.len(), want.len());
                prop_assert_eq!(&both.iter().collect::<Vec<_>>(), &want);
            }
        }
    }
}

/// The lists with nothing to decide: empty, one rid, a list short for a
/// far span (2^32 pages, never allocated), and a dangling rid on a far page
/// outside the heap's span.
#[test]
fn rid_set_refuses_without_allocating() {
    let span = RidSpan { pages: 100, slots: 100 };
    assert!(RidSet::build(&[], span).is_none());
    assert!(RidSet::build(&[Rid::new(3, 4)], span).is_none());
    let mut long: Vec<Rid> = (0..10_000).map(|i| Rid::new(i / 100, i % 100)).collect();
    assert!(RidSet::build(&long, RidSpan { pages: u32::MAX, ..span }).is_none());
    assert!(RidSet::build(&long, span).is_some());
    long.push(Rid::new(u32::MAX - 1, 0));
    assert!(RidSet::build(&long, span).is_none());
}

// ---------------------------------------------------------------- pages

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A column page holds what was pushed, column `c` of slot `s` the
    /// row's value `c`, takes rows until its capacity and no more, and its
    /// image reads back as itself.
    #[test]
    fn column_page_model(
        columns in 0usize..=MAX_COLUMNS,
        rows in prop::collection::vec(prop::collection::vec(any::<i64>(), MAX_COLUMNS), 0..500),
    ) {
        let mut page = ColumnPage::new(columns);
        let capacity = ColumnPage::capacity(columns);
        for (i, row) in rows.iter().enumerate() {
            let pushed = page.push(&row[..columns]);
            prop_assert_eq!(pushed, (i < capacity).then_some(i));
        }
        let n = rows.len().min(capacity);
        prop_assert_eq!((page.slot_count(), page.is_full()), (n, n == capacity));
        for c in 0..columns {
            let want: Vec<i64> = rows[..n].iter().map(|row| row[c]).collect();
            prop_assert_eq!(page.column(c), &want[..]);
        }
        for (slot, row) in rows[..n].iter().enumerate() {
            prop_assert_eq!(page.row(slot), Row::from_slice(&row[..columns]));
        }
        let mut image = Vec::new();
        page.write_image(None, &mut image);
        let mut live = vec![0; ColumnPage::mask_words(capacity)];
        let image: [u8; PAGE_SIZE] = image.try_into().unwrap();
        let back = ColumnPage::from_image(&image, columns, &mut live).unwrap();
        prop_assert_eq!(back.slot_count(), n);
        prop_assert_eq!(live.iter().map(|w| w.count_ones() as usize).sum::<usize>(), n);
        for c in 0..columns {
            prop_assert_eq!(back.column(c), page.column(c));
        }
    }
}

// ---------------------------------------------------------------- heap

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A heap scan visits exactly the appended rows, in order; fetch by rid
    /// returns the same row the scan reported.
    #[test]
    fn heap_scan_and_fetch_agree(vals in prop::collection::vec((any::<i64>(), any::<i64>()), 1..500)) {
        let schema = Schema::new(vec![("x", ColumnType::Int), ("y", ColumnType::Int)]);
        let mut heap = HeapFile::new(FileId(0), schema);
        let mut rids = Vec::new();
        for &(x, y) in &vals {
            rids.push(heap.append(&Row::from_slice(&[x, y])).unwrap());
        }
        let s = session();
        let mut scanned: Vec<(Rid, i64, i64)> = Vec::new();
        heap.scan(&s, |rid, row| scanned.push((rid, row.get(0), row.get(1))));
        prop_assert_eq!(scanned.len(), vals.len());
        for (i, &(rid, x, y)) in scanned.iter().enumerate() {
            prop_assert_eq!((x, y), vals[i]);
            let fetched = heap.fetch(rid, &s, AccessKind::Random).unwrap();
            prop_assert_eq!(fetched.values(), &[x, y]);
        }
    }
}

/// Value `c` of row `i` of a drawn table: distinct across rows and
/// columns, and every bit pattern likely, so a value written to the wrong
/// slot or column shows.
fn drawn_value(seed: u64, c: usize, i: usize) -> i64 {
    let mut z = seed ^ ((c as u64) << 56) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 29)) as i64
}

/// Every page image of a heap, in page order.
fn heap_images(heap: &HeapFile) -> Vec<Vec<u8>> {
    (0..heap.page_count())
        .map(|p| {
            let mut image = Vec::new();
            heap.write_image(p, &mut image);
            image
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A run of rows appended as whole pages makes the heap the same rows
    /// appended one by one make — every page image, rid, the span and the
    /// row count —, from none to three pages and a row, at every arity,
    /// into an empty heap or after a full page appended either way.
    #[test]
    fn whole_pages_equal_rows_appended_one_by_one(
        arity in 1usize..=MAX_COLUMNS,
        full in 0usize..=3,
        partial in 0usize..1 << 12,
        lead in 0usize..3,
        seed in any::<u64>(),
    ) {
        let names = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
        let schema = Schema::new(names[..arity].iter().map(|&c| (c, ColumnType::Int)).collect());
        let capacity = ColumnPage::capacity(arity);
        // `full` pages and a last page of no row, one row, one short of full
        // or any count, up to three pages and a row.
        let partial = match partial % 8 {
            0 => 0,
            1 => 1,
            2 => capacity - 1,
            _ => partial % capacity,
        };
        let rows = full * capacity + if full == 3 { partial.min(1) } else { partial };
        // No page before the run, or one full page appended by rows or as a run.
        let lead_rows = if lead == 0 { 0 } else { capacity };
        let row = |i: usize| {
            Row::from_slice(&(0..arity).map(|c| drawn_value(seed, c, i)).collect::<Vec<_>>())
        };
        let mut by_row = HeapFile::new(FileId(3), schema.clone());
        let mut by_page = HeapFile::new(FileId(3), schema);
        let mut want = Vec::new();
        for i in 0..lead_rows + rows {
            want.push(by_row.append(&row(i)).unwrap());
        }
        let mut got = if lead == 2 {
            by_page.append_pages(lead_rows, |c, first, vals| {
                vals.iter_mut().zip(first..).for_each(|(v, i)| *v = drawn_value(seed, c, i));
            })
        } else {
            (0..lead_rows).map(|i| by_page.append(&row(i)).unwrap()).collect()
        };
        got.extend(by_page.append_pages(rows, |c, first, vals| {
            let first = lead_rows + first;
            vals.iter_mut().zip(first..).for_each(|(v, i)| *v = drawn_value(seed, c, i));
        }));
        prop_assert_eq!(got, want);
        prop_assert_eq!((by_page.row_count(), by_page.span()), (by_row.row_count(), by_row.span()));
        prop_assert!(heap_images(&by_page) == heap_images(&by_row), "the page images differ");
    }
}

#[derive(Debug, Clone)]
enum HeapOp {
    Append(i64),
    /// Delete the live row at this position (modulo the live count).
    Delete(u32),
    AppendCharged(i64),
    DeleteCharged(u32),
    /// Rebuild the heap from its page images.
    RoundTrip,
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        any::<i64>().prop_map(HeapOp::Append),
        any::<i64>().prop_map(HeapOp::Append),
        any::<i64>().prop_map(HeapOp::AppendCharged),
        (0u32..1 << 20).prop_map(HeapOp::Delete),
        (0u32..1 << 20).prop_map(HeapOp::DeleteCharged),
        Just(HeapOp::RoundTrip),
    ]
}

/// What the heap keeps against a model of its live rows (`x` by rid, the
/// row `[x, !x]`) and of its pages' slot counts: every written slot and
/// the two past each page's count resolve to the model's row or to none, a
/// page reports a live-slot mask exactly when a written slot of it is
/// dead, and the span is the page count and the largest slot count.
fn heap_agrees_with_its_model(
    heap: &HeapFile,
    model: &BTreeMap<Rid, i64>,
    counts: &[usize],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(heap.page_count() as usize, counts.len());
    prop_assert_eq!(heap.row_count(), model.len() as u64);
    for (p, &n) in (0..heap.page_count()).zip(counts) {
        let page = heap.resolve(p).unwrap();
        prop_assert_eq!(page.slot_count(), n, "page {}", p);
        for slot in 0..n as u32 + 2 {
            let want = model.get(&Rid::new(p, slot)).map(|&x| Row::from_slice(&[x, !x]));
            prop_assert_eq!(page.row(slot), want, "page {} slot {}", p, slot);
        }
        let live = model.range(Rid::new(p, 0)..Rid::new(p + 1, 0)).count();
        prop_assert_eq!(page.mask().is_some(), live < n, "page {}", p);
    }
    let slots = counts.iter().copied().max().unwrap_or(0) as u32;
    prop_assert_eq!(heap.span(), RidSpan { pages: heap.page_count(), slots });
    prop_assert!(heap.resolve(heap.page_count()).is_none());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Appends and deletes, charged or not, and reloads from page images
    /// keep the heap's rows, its live-slot masks and its span what a model
    /// says, after every step; a reload reads a churned image back into
    /// the masks it was written with.
    #[test]
    fn the_heap_keeps_its_rows_masks_and_span(ops in prop::collection::vec(heap_op(), 1..700)) {
        let schema = Schema::new(vec![("x", ColumnType::Int), ("y", ColumnType::Int)]);
        let mut heap = HeapFile::new(FileId(0), schema);
        let (mut model, mut counts) = (BTreeMap::new(), Vec::new());
        let mut live: Vec<Rid> = Vec::new();
        let s = session();
        for op in &ops {
            match *op {
                HeapOp::Append(x) | HeapOp::AppendCharged(x) => {
                    let row = Row::from_slice(&[x, !x]);
                    let rid = if matches!(op, HeapOp::Append(_)) {
                        heap.append(&row).unwrap()
                    } else {
                        heap.append_charged(&row, &s).unwrap()
                    };
                    if rid.page as usize == counts.len() {
                        counts.push(0);
                    }
                    let page = counts.len() as u32 - 1;
                    let last = counts.last_mut().unwrap();
                    prop_assert_eq!(rid, Rid::new(page, *last as u32), "the next slot");
                    *last += 1;
                    model.insert(rid, x);
                    live.push(rid);
                }
                HeapOp::Delete(at) | HeapOp::DeleteCharged(at) if !live.is_empty() => {
                    let rid = live.swap_remove(at as usize % live.len());
                    if matches!(op, HeapOp::Delete(_)) {
                        heap.delete(rid).unwrap();
                    } else {
                        heap.delete_charged(rid, &s).unwrap();
                    }
                    model.remove(&rid);
                    prop_assert!(heap.delete(rid).is_err(), "{} deleted twice", rid);
                }
                HeapOp::Delete(_) | HeapOp::DeleteCharged(_) => {}
                HeapOp::RoundTrip => {
                    let mut reloaded = HeapFile::new(heap.file_id(), heap.schema().clone());
                    for p in 0..heap.page_count() {
                        let mut image = Vec::new();
                        heap.write_image(p, &mut image);
                        prop_assert_eq!(reloaded.push_image(&image.try_into().unwrap()), Some(p));
                    }
                    heap = reloaded;
                }
            }
            heap_agrees_with_its_model(&heap, &model, &counts)?;
        }
    }
}

// ---------------------------------------------------------------- buffer

#[derive(Debug, Clone, Copy)]
enum PoolOp {
    Access(PageId),
    /// Drop pages `0..n` of a file: all of it, some of it or none.
    InvalidateFile(FileId, u32),
    Reset,
}

/// File 2 has one page: the one the opening sequence touches.
fn pool_page() -> impl Strategy<Value = PageId> {
    prop_oneof![
        (0u32..24).prop_map(|p| PageId::new(FileId(0), p)),
        (0u32..4).prop_map(|p| PageId::new(FileId(1), p)),
        Just(PageId::new(FileId(2), 0)),
    ]
}

/// Six accesses to one invalidation and one reset.  An invalidation
/// names a page bound from none of the file to past its end, so some of
/// the pages it drops were evicted already and some pages above it stay.
fn pool_op() -> impl Strategy<Value = PoolOp> {
    (0u32..8, pool_page(), 0u32..3, 0u32..26).prop_map(|(kind, page, file, pages)| match kind {
        0 => PoolOp::InvalidateFile(FileId(file), pages),
        1 => PoolOp::Reset,
        _ => PoolOp::Access(page),
    })
}

/// What a replacement policy is, written the slow way.
trait PoolModel {
    fn access(&mut self, page: PageId) -> bool;
    fn invalidate_file(&mut self, file: FileId, pages: u32);
    fn resident_of(&self, file: FileId) -> usize;
    fn evictions(&self) -> u64;
}

/// Exact LRU: a vector in recency order, most recent first.
struct NaiveLru {
    cap: usize,
    pages: Vec<PageId>,
    evictions: u64,
}

impl PoolModel for NaiveLru {
    fn access(&mut self, page: PageId) -> bool {
        if self.cap == 0 {
            return false;
        }
        let hit = match self.pages.iter().position(|&p| p == page) {
            Some(at) => {
                self.pages.remove(at);
                true
            }
            None => {
                if self.pages.len() >= self.cap {
                    self.pages.pop();
                    self.evictions += 1;
                }
                false
            }
        };
        self.pages.insert(0, page);
        hit
    }

    fn invalidate_file(&mut self, file: FileId, pages: u32) {
        self.pages.retain(|p| p.file != file || p.page >= pages);
    }

    fn resident_of(&self, file: FileId) -> usize {
        self.pages.iter().filter(|p| p.file == file).count()
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Second chance: a ring of frames swept by a hand that clears reference
/// bits until it meets a clear one; freed frames are reused last-freed
/// first and new frames are appended while the ring is short.
struct NaiveClock {
    cap: usize,
    frames: Vec<Option<(PageId, bool)>>,
    free: Vec<usize>,
    hand: usize,
    evictions: u64,
}

impl PoolModel for NaiveClock {
    fn access(&mut self, page: PageId) -> bool {
        if self.cap == 0 {
            return false;
        }
        if let Some(frame) = self.frames.iter_mut().flatten().find(|(p, _)| *p == page) {
            frame.1 = true;
            return true;
        }
        if self.frames.iter().flatten().count() >= self.cap {
            self.evictions += 1;
            loop {
                let at = self.hand % self.frames.len();
                self.hand = (self.hand + 1) % self.frames.len();
                match &mut self.frames[at] {
                    None => {}
                    Some((_, referenced)) if *referenced => *referenced = false,
                    victim => {
                        *victim = None;
                        self.free.push(at);
                        break;
                    }
                }
            }
        }
        match self.free.pop() {
            Some(at) => self.frames[at] = Some((page, true)),
            None => self.frames.push(Some((page, true))),
        }
        false
    }

    fn invalidate_file(&mut self, file: FileId, pages: u32) {
        for at in 0..self.frames.len() {
            if self.frames[at].is_some_and(|(p, _)| p.file == file && p.page < pages) {
                self.frames[at] = None;
                self.free.push(at);
            }
        }
    }

    fn resident_of(&self, file: FileId) -> usize {
        self.frames.iter().flatten().filter(|(p, _)| p.file == file).count()
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The pool answers every request as the naive model of its policy
    /// does, and ends with the model's counters and residency.  Every
    /// script opens with the two sequences a stale last-page memo gets
    /// wrong: a page, then its file invalidated or the pool reset, then the
    /// page again — a miss both times.
    #[test]
    fn buffer_pool_matches_naive_model(
        ops in prop::collection::vec(pool_op(), 1..400),
        cap in 0usize..32,
        use_clock in any::<bool>(),
    ) {
        let policy = if use_clock { EvictionPolicy::Clock } else { EvictionPolicy::Lru };
        let new_model = || -> Box<dyn PoolModel> {
            if use_clock {
                Box::new(NaiveClock { cap, frames: vec![], free: vec![], hand: 0, evictions: 0 })
            } else {
                Box::new(NaiveLru { cap, pages: vec![], evictions: 0 })
            }
        };
        let mut pool = BufferPool::new(cap, policy);
        let mut model = new_model();
        let p = PageId::new(FileId(2), 0);
        let opening = [
            PoolOp::Access(p),
            PoolOp::InvalidateFile(p.file, 1),
            PoolOp::Access(p),
            PoolOp::Reset,
            PoolOp::Access(p),
        ];
        let (mut hits, mut misses) = (0u64, 0u64);
        for (step, &op) in opening.iter().chain(&ops).enumerate() {
            match op {
                PoolOp::Access(page) => {
                    let want = model.access(page);
                    prop_assert!(!want || step >= opening.len(), "opening step {} must miss", step);
                    prop_assert_eq!(pool.access(page), want, "step {} {:?}", step, op);
                    if want {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
                PoolOp::InvalidateFile(file, pages) => {
                    model.invalidate_file(file, pages);
                    pool.invalidate_file(file, pages);
                }
                PoolOp::Reset => {
                    model = new_model();
                    pool.reset();
                    (hits, misses) = (0, 0);
                }
            }
            let resident: usize = (0..3).map(|f| model.resident_of(FileId(f))).sum();
            prop_assert_eq!(pool.resident(), resident, "step {} {:?}", step, op);
            prop_assert!(resident <= cap);
        }
        prop_assert_eq!(pool.counters(), (hits, misses, model.evictions()));
    }
}

// ---------------------------------------------------------------- session

/// What a session lets its owner see, taken at a point in a script.
#[derive(Debug, PartialEq)]
struct SessionView {
    elapsed_ticks: u64,
    stats: IoStats,
    pool: (u64, u64, u64),
    share: QueryShare,
    temp_files: Vec<FileId>,
    yields: u64,
}

/// One script over everything a session forwards to its pool or charges
/// to its clock, with a yield hook counting its calls at quantum 3; views
/// are taken before the reset (which zeroes most of one) and at the end.
fn drive(s: &Session) -> Vec<SessionView> {
    let yields = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&yields);
    s.install_yield_hook(
        3,
        Box::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        }),
    );
    let mut temp_files = Vec::new();
    let mut views = Vec::new();
    let view = |temp_files: &[FileId]| SessionView {
        elapsed_ticks: s.elapsed_ticks(),
        stats: s.stats(),
        pool: s.pool_counters(),
        share: s.query_pool_counters(),
        temp_files: temp_files.to_vec(),
        yields: yields.load(Ordering::Relaxed),
    };
    let page = |p: u32| PageId::new(FileId(1), p);
    for round in 0..3u32 {
        for i in 0..40u32 {
            let kind = [AccessKind::Random, AccessKind::Sequential, AccessKind::SinglePage]
                [(i % 3) as usize];
            s.read_page(page((i * 7 + round) % 11), kind);
            s.read_page(page((i * 7 + round) % 11), AccessKind::Random); // the repeat
            s.charge_rows(u64::from(i % 4));
            s.charge_compares(2);
        }
        let spill = s.alloc_temp_file(100);
        temp_files.push(spill);
        for p in 0..6 {
            s.write_page(PageId::new(spill, p));
        }
        for p in 0..6 {
            s.read_page(PageId::new(spill, p), AccessKind::Sequential);
            s.charge_hashes(3);
        }
        s.invalidate_file(spill, 6);
        s.read_page(PageId::new(spill, 5), AccessKind::Random); // gone: a miss
        if round == 1 {
            views.push(view(&temp_files));
            s.reset();
            views.push(view(&temp_files));
        }
    }
    views.push(view(&temp_files));
    views
}

/// The contract `session.rs` states: a session on a pool of its own is a
/// session that is the only registrant of a shared pool — same clock, same
/// counters, same temp-file numbers, same yield points.
#[test]
fn private_session_equals_one_owner_shared_pool() {
    // `core::serve` moves sessions onto worker threads.
    fn assert_send<T: Send>() {}
    assert_send::<Session>();

    for policy in [EvictionPolicy::Lru, EvictionPolicy::Clock] {
        let private = Session::new(CostModel::hdd_2009(), BufferPool::new(8, policy));
        let shared = Session::on_shared(
            CostModel::hdd_2009(),
            Arc::new(SharedBufferPool::from_pool(BufferPool::new(8, policy))),
        );
        let views = drive(&private);
        assert_eq!(views, drive(&shared), "{policy:?}");
        // The script did what it claims to compare.
        let last = views.last().expect("three views");
        assert!(last.stats.buffer_hits > 0 && last.stats.page_writes > 0 && last.yields > 0);
        assert!(last.pool.2 > 0, "no eviction under {policy:?}");
        assert_eq!(views[1].pool, (0, 0, 0), "reset zeroes the pool counters");
        assert_eq!(last.temp_files, [FileId(100), FileId(101), FileId(100)]);
    }
}

// --------------------------------------------------------------- page runs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `k` single requests for one page are one request of `k`: the same
    /// clock, counters, charge events, pool counters and per-query share
    /// after every step of a random script of runs — under LRU and Clock,
    /// on a pool that holds nothing, one page, or everything, owned
    /// privately or as the only registrant of a shared pool, with writes
    /// and file invalidations between the runs.
    #[test]
    fn a_run_of_requests_equals_single_requests(
        runs in prop::collection::vec((0u32..6, 0u64..9, 0usize..3, 0u32..8), 1..60),
        use_clock in any::<bool>(),
        capacity in prop_oneof![Just(0usize), Just(1), Just(1 << 20)],
        shared in any::<bool>(),
    ) {
        let policy = if use_clock { EvictionPolicy::Clock } else { EvictionPolicy::Lru };
        let fresh = || {
            let pool = BufferPool::new(capacity, policy);
            if shared {
                Session::on_shared(CostModel::hdd_2009(), Arc::new(SharedBufferPool::from_pool(pool)))
            } else {
                Session::new(CostModel::hdd_2009(), pool)
            }
        };
        let (single, run) = (fresh(), fresh());
        let view = |s: &Session| {
            (s.elapsed_ticks(), s.charge_events(), s.stats(), s.pool_counters(), s.query_pool_counters())
        };
        for (step, &(page, k, kind, between)) in runs.iter().enumerate() {
            let page = PageId::new(FileId(1), page);
            let kind =
                [AccessKind::Random, AccessKind::Sequential, AccessKind::SinglePage][kind];
            for _ in 0..k {
                single.read_page(page, kind);
            }
            run.read_page_run(page, kind, k);
            for s in [&single, &run] {
                match between {
                    0 => s.write_page(PageId::new(FileId(2), step as u32 % 3)),
                    1 => s.invalidate_file(FileId(1), 6),
                    _ => {}
                }
            }
            prop_assert_eq!(view(&single), view(&run), "step {} {:?}", step, runs[step]);
        }
        prop_assert_eq!(run.elapsed_ticks(), run.costs().of(&run.stats()));
    }
}

// ------------------------------------------------------------ charge runs

/// Issue `charge` as the one call it stands for.
fn charge_once(s: &Session, charge: CpuCharge) {
    match charge {
        CpuCharge::Compares(n) => s.charge_compares(n),
        CpuCharge::Rows(n) => s.charge_rows(n),
        CpuCharge::Hashes(n) => s.charge_hashes(n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `charge_each(n, each)` is the loop that issues `each`'s calls one
    /// by one, `n` times: the same clock, counters and charge events, and
    /// the same yields — after the same charge event, seeing the same
    /// clock — for every subset of compares, rows and hashes, under no
    /// quantum, a quantum of one event, small quanta and large ones, after
    /// a collapsed call that may have carried the count past the quantum.
    /// Every `n` from 0 to 24 runs, so some run ends exactly on the
    /// quantum, and one drawn up to 3 000.  Every charge is of one unit or
    /// more, so the clock rises with every event and a yield's ticks name
    /// the event it followed.
    #[test]
    fn charge_each_equals_the_call_by_call_loop(
        long in 25u64..3000,
        amounts in (1u64..9, 1u64..9, 1u64..9),
        quantum in prop_oneof![Just(0u64), Just(1), 2u64..12, 400u64..5000],
        prior in 0u64..20,
        overshoot in 0u64..30,
    ) {
        let all = [
            CpuCharge::Compares(amounts.0),
            CpuCharge::Rows(amounts.1),
            CpuCharge::Hashes(amounts.2),
        ];
        let runs = (0..8usize).flat_map(|subset| (0..25).chain([long]).map(move |n| (subset, n)));
        for (subset, n) in runs {
            let each: Vec<CpuCharge> =
                (0..3).filter(|i| subset & (1 << i) != 0).map(|i| all[i]).collect();
            // One session driven by the loop or by `charge_each`: its
            // yields' ticks, and (loop only) the events and ticks after
            // every call.
            let drive = |bulk: bool| {
                let s = Session::with_pool_pages(4);
                let (tx, seen) = std::sync::mpsc::channel();
                s.install_yield_hook(quantum, Box::new(move |ticks| tx.send(ticks).unwrap()));
                let mut after = Vec::new();
                let note =
                    |after: &mut Vec<(u64, u64)>| after.push((s.charge_events(), s.elapsed_ticks()));
                for _ in 0..prior {
                    s.charge_hashes(1);
                    note(&mut after);
                }
                s.charge_rows_as(overshoot, overshoot);
                note(&mut after);
                if bulk {
                    s.charge_each(n, &each);
                } else {
                    for _ in 0..n {
                        for &charge in &each {
                            charge_once(&s, charge);
                            note(&mut after);
                        }
                    }
                }
                s.charge_hashes(1);
                note(&mut after);
                let yields: Vec<u64> = seen.try_iter().collect();
                ((s.elapsed_ticks(), s.stats(), s.charge_events()), yields, after)
            };
            let (want, want_yields, after) = drive(false);
            let (got, got_yields, _) = drive(true);
            let case = format!("{each:?} x {n}, quantum {quantum}, {prior} + {overshoot} before");
            prop_assert_eq!(got, want, "{}", case);
            // The loop's clock rises with every event, so the ticks a
            // yield saw name the event count at which it fired.
            let at = |ticks: u64| after.iter().find(|&&(_, t)| t == ticks).map(|&(e, _)| e);
            let named = |yields: &[u64]| yields.iter().map(|&t| (at(t), t)).collect::<Vec<_>>();
            prop_assert_eq!(named(&got_yields), named(&want_yields), "{}", case);
            prop_assert!(want_yields.iter().all(|&t| at(t).is_some()), "{}", case);
            prop_assert_eq!(got.0, Session::with_pool_pages(0).costs().of(&got.1), "{}", case);
        }
    }
}
