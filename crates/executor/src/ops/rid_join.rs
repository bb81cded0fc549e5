//! Rid joins: index intersection and covering rid-to-rid joins.
//!
//! The paper's System A answers the two-predicate selection with "scans of
//! two single-column non-clustered indexes combined by a merge join"
//! (Figure 5) or a hash join, in either join order — four multi-index plans.
//! Figure 2 adds *covering* rid joins: joining two non-clustered indexes on
//! rid "such that the join result covers the query even if no single
//! non-clustered index does".
//!
//! The merge variant sorts both rid lists and merges — symmetric in its two
//! inputs, which is exactly the symmetry Figure 5 shows.  The hash variant
//! builds on one side and probes with the other — asymmetric, as the paper
//! (citing \[GLS94\]) points out.

use robustmap_storage::btree::{KeyCols, WideEntry};
use robustmap_storage::heap::Rid;
use robustmap_storage::{FxBuildHasher, FxHashMap, RidSet, RidSpan, Row, Session};

use crate::exec::ExecCtx;
use crate::ops::fetch::{sort_compares, sort_list, Ordered};
use crate::plan::IntersectAlgo;

/// Charge a comparison sort of `n` items.
fn charge_sort(session: &Session, n: u64) {
    if n > 1 {
        session.charge_compares(sort_compares(n));
    }
}

/// Intersect two rid lists over a heap of span `span` with the given
/// algorithm.  The result is sorted in physical order for the merge variant
/// (a free by-product that benefits a downstream fetch) and in probe order
/// for the hash variant.
pub fn intersect_rids(
    left: Vec<Rid>,
    right: Vec<Rid>,
    algo: IntersectAlgo,
    span: RidSpan,
    ctx: &ExecCtx<'_>,
) -> Vec<Rid> {
    match algo {
        IntersectAlgo::MergeJoin => merge_intersect(left, right, span, ctx.session),
        IntersectAlgo::HashJoin { build_left } => {
            if build_left {
                hash_intersect(left, right, span, ctx)
            } else {
                hash_intersect(right, left, span, ctx)
            }
        }
    }
}

/// Sort both sides, then merge.  Symmetric: cost depends on `|left| +
/// |right|`, not on which side is which.
///
/// That is what is charged.  What runs: two sets are ANDed, a set is
/// probed with a list the set was not built for, and only two such lists
/// (or a multiset, whose repeats the merge pairs off one for one) are
/// walked.  The walk's comparisons are charged either way: counted by the
/// walk, or from counts alone.  Over duplicate-free sides every iteration
/// of [`merge_walk`] consumes one rid from a side, or one from each when
/// they match, and the walk stops when a side runs out — the side whose
/// largest rid `m` is the smaller.  By then that side is consumed whole
/// and the other up to and including `m`, so each side has given its
/// members `<= m`, and every match — all are `<= m` — was counted on both.
fn merge_intersect(left: Vec<Rid>, right: Vec<Rid>, span: RidSpan, session: &Session) -> Vec<Rid> {
    charge_sort(session, left.len() as u64);
    charge_sort(session, right.len() as u64);
    let (l, r) = (Ordered::of(left, span), Ordered::of(right, span));
    let out: Vec<Rid> = match (&l, &r) {
        (Ordered::Set(a), Ordered::Set(b)) => a.and(b).iter().collect(),
        (Ordered::Set(set), Ordered::List(list)) | (Ordered::List(list), Ordered::Set(set))
            if list.windows(2).all(|w| w[0] < w[1]) =>
        {
            list.iter().copied().filter(|&rid| set.contains(rid)).collect()
        }
        _ => {
            let (out, steps) = merge_walk(&l.into_list(), &r.into_list());
            session.charge_compares(steps);
            return out;
        }
    };
    let steps = l.last().min(r.last()).map_or(0, |m| l.through(m) + r.through(m) - out.len());
    session.charge_compares(steps as u64);
    out
}

/// Walk two sorted lists in step: the matches, and the comparisons made.
fn merge_walk(left: &[Rid], right: &[Rid]) -> (Vec<Rid>, u64) {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    let mut compares = 0u64;
    while i < left.len() && j < right.len() {
        compares += 1;
        match left[i].cmp(&right[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(left[i]);
                i += 1;
                j += 1;
            }
        }
    }
    (out, compares)
}

/// Build a hash table on `build`, probe with `probe`.  If the build side
/// exceeds the query's memory grant, both sides are grace-partitioned to
/// temp files first (charged as page writes + reads).
fn hash_intersect(build: Vec<Rid>, probe: Vec<Rid>, span: RidSpan, ctx: &ExecCtx<'_>) -> Vec<Rid> {
    const RID_BYTES: usize = 8;
    // Hash tables need roughly 2x the raw data size.
    let build_bytes = build.len() * RID_BYTES * 2;
    if build_bytes <= ctx.memory_bytes || build.is_empty() {
        return hash_intersect_in_memory(&build, &probe, span, ctx.session);
    }
    // Grace spill: both inputs written out and read back, partition by
    // partition.  One level of partitioning suffices for the workloads here
    // (partition count is sized from the overflow factor).
    let partitions = (build_bytes / ctx.memory_bytes.max(1) + 1).next_power_of_two();
    ctx.note_spill();
    let session = ctx.session;
    let mut build_parts: Vec<Vec<Rid>> = vec![Vec::new(); partitions];
    let mut probe_parts: Vec<Vec<Rid>> = vec![Vec::new(); partitions];
    session.charge_hashes((build.len() + probe.len()) as u64);
    for rid in build {
        build_parts[(rid.to_u64() as usize) & (partitions - 1)].push(rid);
    }
    for rid in probe {
        probe_parts[(rid.to_u64() as usize) & (partitions - 1)].push(rid);
    }
    // Charge the spill I/O: every partition written and read once.
    for part in build_parts.iter().chain(probe_parts.iter()) {
        ctx.spill_round_trip(pages_for(part.len() * RID_BYTES));
    }
    let mut out = Vec::new();
    for (b, p) in build_parts.into_iter().zip(probe_parts) {
        out.extend(hash_intersect_in_memory(&b, &p, span, session));
    }
    out
}

fn hash_intersect_in_memory(
    build: &[Rid],
    probe: &[Rid],
    span: RidSpan,
    session: &Session,
) -> Vec<Rid> {
    // Building costs twice what probing does (bucket insertion and table
    // growth vs. a lookup): this is the cost asymmetry between the two
    // join orders that the paper (citing [GLS94]) contrasts with the merge
    // join's symmetry.
    session.charge_hashes(2 * build.len() as u64);
    session.charge_hashes(probe.len() as u64);
    // The table is the build side's rid set, probed in probe order; a
    // build side the set is not built for, probes counted in, is sorted
    // and searched.
    match RidSet::build_for(build, probe.len(), span) {
        Some(set) => probe.iter().copied().filter(|&rid| set.contains(rid)).collect(),
        None => {
            let mut sorted = build.to_vec();
            sort_list(&mut sorted);
            probe.iter().copied().filter(|rid| sorted.binary_search(rid).is_ok()).collect()
        }
    }
}

/// Join two covering index scans on rid, producing rows `left key columns
/// ++ right key columns` (Figure 2's multi-index covering plans).  Both
/// inputs are stored-entry lists in key order, over a heap of span `span`;
/// `arity` holds the key arity of the left and of the right index.
pub fn covering_join(
    left: Vec<WideEntry>,
    right: Vec<WideEntry>,
    arity: [usize; 2],
    algo: IntersectAlgo,
    span: RidSpan,
    ctx: &ExecCtx<'_>,
    sink: &mut dyn FnMut(&Row),
) -> u64 {
    match algo {
        IntersectAlgo::MergeJoin => {
            covering_merge_join(left, right, arity, span, ctx.session, sink)
        }
        IntersectAlgo::HashJoin { build_left } => {
            if build_left {
                covering_hash_join(left, right, false, arity, ctx, sink)
            } else {
                covering_hash_join(right, left, true, arity, ctx, sink)
            }
        }
    }
}

/// The row `left ++ right` of two keys of `arity` columns each.
fn combined_row(left: &KeyCols, right: &KeyCols, [la, ra]: [usize; 2]) -> Row {
    let mut row = Row::empty();
    for &v in left[..la].iter().chain(&right[..ra]) {
        row.push(v);
    }
    row
}

/// Sort entries by rid.  Rids are unique, so an entry's place is its rid's
/// rank in the set of them all; entries whose rids the set is not built
/// for are sorted through light `(rid, index)` pairs (16-byte elements
/// instead of 32-byte entries), stably — the same order.
fn sort_entries_by_rid(entries: &mut Vec<WideEntry>, span: RidSpan) {
    let rids: Vec<Rid> = entries.iter().map(|&(_, rid)| rid).collect();
    match RidSet::build(&rids, span) {
        Some(set) if set.len() == rids.len() => {
            let ranks = set.ranks();
            let mut placed = entries.clone();
            for (entry, &rid) in entries.iter().zip(&rids) {
                placed[ranks.rank(rid)] = *entry;
            }
            *entries = placed;
        }
        _ => {
            let mut order: Vec<(u64, u32)> =
                rids.iter().enumerate().map(|(i, rid)| (rid.to_u64(), i as u32)).collect();
            robustmap_storage::radix::radix_sort_by_u64_key(&mut order, &mut Vec::new(), |&(r, _)| r);
            *entries = order.iter().map(|&(_, i)| entries[i as usize]).collect();
        }
    }
}

fn covering_merge_join(
    mut left: Vec<WideEntry>,
    mut right: Vec<WideEntry>,
    arity: [usize; 2],
    span: RidSpan,
    session: &Session,
    sink: &mut dyn FnMut(&Row),
) -> u64 {
    charge_sort(session, left.len() as u64);
    charge_sort(session, right.len() as u64);
    sort_entries_by_rid(&mut left, span);
    sort_entries_by_rid(&mut right, span);
    let (mut i, mut j) = (0, 0);
    let mut produced = 0u64;
    let mut compares = 0u64;
    while i < left.len() && j < right.len() {
        compares += 1;
        match left[i].1.cmp(&right[j].1) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let row = combined_row(&left[i].0, &right[j].0, arity);
                sink(&row);
                produced += 1;
                i += 1;
                j += 1;
            }
        }
    }
    session.charge_compares(compares);
    // One row per match.
    session.charge_rows_as(produced, produced);
    produced
}

/// `swap_output`: when the build side is physically the right input, output
/// must still be `left keys ++ right keys`, of `arity` columns each.
fn covering_hash_join(
    build: Vec<WideEntry>,
    probe: Vec<WideEntry>,
    swap_output: bool,
    arity: [usize; 2],
    ctx: &ExecCtx<'_>,
    sink: &mut dyn FnMut(&Row),
) -> u64 {
    let session = ctx.session;
    const ENTRY_BYTES: usize = 32;
    if build.len() * ENTRY_BYTES * 2 > ctx.memory_bytes {
        ctx.note_spill();
        // Charged like the rid-intersect spill: both sides out and back.
        for len in [build.len(), probe.len()] {
            ctx.spill_round_trip(pages_for(len * ENTRY_BYTES));
        }
    }
    // Build side pays double (see `hash_intersect_in_memory`).
    session.charge_hashes(2 * build.len() as u64);
    // The table maps packed rids to indices into `build` — 16-byte pairs
    // instead of 32-byte entries, since rids are unique.
    let mut table: FxHashMap<u64, u32> =
        FxHashMap::with_capacity_and_hasher(build.len(), FxBuildHasher::default());
    for (i, &(_, rid)) in build.iter().enumerate() {
        table.insert(rid.to_u64(), i as u32);
    }
    session.charge_hashes(probe.len() as u64);
    let mut produced = 0u64;
    for (probe_key, rid) in probe {
        if let Some(&i) = table.get(&rid.to_u64()) {
            let build_key = &build[i as usize].0;
            let row = if swap_output {
                combined_row(&probe_key, build_key, arity)
            } else {
                combined_row(build_key, &probe_key, arity)
            };
            sink(&row);
            produced += 1;
        }
    }
    // One row per match.
    session.charge_rows_as(produced, produced);
    produced
}

fn pages_for(bytes: usize) -> u32 {
    (bytes.div_ceil(robustmap_storage::PAGE_SIZE)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecCtx;
    use crate::ops::testutil::demo_db;
    use robustmap_storage::Key;

    fn rid(i: u32) -> Rid {
        Rid::new(i / 64, i % 64)
    }

    /// The smallest span holding every rid of `lists`.
    fn span_of(lists: &[&[Rid]]) -> RidSpan {
        let rids = || lists.iter().flat_map(|list| list.iter());
        let pages = rids().map(|r| r.page + 1).max().unwrap_or(0);
        RidSpan { pages, slots: rids().map(|r| r.slot + 1).max().unwrap_or(0) }
    }

    fn ctx_with<'a>(
        db: &'a robustmap_storage::Database,
        session: &'a Session,
        memory: usize,
    ) -> ExecCtx<'a> {
        ExecCtx::new(db, session, memory)
    }

    /// The merge as it ran before the rid set: sort both lists, walk them.
    fn merge_by_sorting(mut left: Vec<Rid>, mut right: Vec<Rid>, session: &Session) -> Vec<Rid> {
        charge_sort(session, left.len() as u64);
        charge_sort(session, right.len() as u64);
        left.sort();
        right.sort();
        let (out, compares) = merge_walk(&left, &right);
        session.charge_compares(compares);
        out
    }

    /// `n` rids drawn from the first `universe` positions of a heap with
    /// `per_page` slots a page: distinct, or with replacement and at least
    /// one repeat.
    fn draw(n: usize, universe: usize, per_page: u32, repeats: bool, seed: &mut u64) -> Vec<Rid> {
        let mut next = |bound: usize| {
            *seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (*seed >> 33) as usize % bound
        };
        let at = |i: usize| Rid::new(i as u32 / per_page, i as u32 % per_page);
        if repeats {
            let mut rids: Vec<Rid> = (0..n).map(|_| at(next(universe))).collect();
            if n > 1 {
                rids[n - 1] = rids[0];
            }
            return rids;
        }
        let mut seen = std::collections::HashSet::new();
        std::iter::repeat_with(|| next(universe))
            .filter(|&i| seen.insert(i))
            .take(n)
            .map(at)
            .collect()
    }

    /// Every way the merge runs — two sets ANDed, a set probed with a list
    /// (short, or sparse over its span), two lists walked, a multiset on
    /// either side — returns what sorting and walking returns and charges
    /// what it charges, comparison for comparison: `cpu_compares` is where
    /// a wrong closed form shows.  The hash intersection, over the same
    /// lists, is a filter of the probe side in probe order.
    #[test]
    fn intersections_match_sort_and_walk_at_every_size() {
        let (db, _) = demo_db(8);
        let sizes = [0usize, 1, 63, 64, 4095, 4096, 70_000];
        let mut seed = 0x5EED_u64;
        for &nl in &sizes {
            for &nr in &sizes {
                // (universe as a multiple of the longer list, slots a page
                // left and right, repeats left and right): dense, where a
                // much shorter side is sparse and stays a list; too sparse
                // for either side to be a set; two slot widths; multisets.
                for (spread, per_l, per_r, rep_l, rep_r) in [
                    (2, 186, 186, false, false),
                    (400, 186, 186, false, false),
                    (3, 60, 186, false, false),
                    (2, 186, 186, true, false),
                    (3, 186, 60, true, true),
                ] {
                    let universe = spread * nl.max(nr) + 8;
                    let left = draw(nl, universe, per_l, rep_l, &mut seed);
                    let right = draw(nr, universe, per_r, rep_r, &mut seed);
                    let label = format!("{nl} x {nr}, spread {spread}, repeats {rep_l}/{rep_r}");
                    // The heap the universe lies on.
                    let span = RidSpan {
                        pages: (universe as u32).div_ceil(per_l.min(per_r)),
                        slots: per_l.max(per_r),
                    };

                    let (want_s, got_s) =
                        (Session::with_pool_pages(4), Session::with_pool_pages(4));
                    let want = merge_by_sorting(left.clone(), right.clone(), &want_s);
                    let got = merge_intersect(left.clone(), right.clone(), span, &got_s);
                    assert_eq!(got, want, "merge {label}");
                    assert_eq!(got_s.stats(), want_s.stats(), "merge {label}");
                    assert_eq!(got_s.charge_events(), want_s.charge_events(), "merge {label}");

                    let s = Session::with_pool_pages(4);
                    let ctx = ctx_with(&db, &s, 1 << 30);
                    let algo = IntersectAlgo::HashJoin { build_left: true };
                    let got = intersect_rids(left.clone(), right.clone(), algo, span, &ctx);
                    let build: std::collections::HashSet<Rid> = left.iter().copied().collect();
                    let want: Vec<Rid> =
                        right.iter().copied().filter(|r| build.contains(r)).collect();
                    assert_eq!(got, want, "hash {label}");
                    let hashes = robustmap_storage::IoStats {
                        cpu_hashes: (2 * nl + nr) as u64,
                        ..Default::default()
                    };
                    assert_eq!(s.stats(), hashes, "hash {label}");
                }
            }
        }
    }

    /// Placing entries by their rid's rank is sorting them by rid, for
    /// lists the set takes and lists it refuses.
    #[test]
    fn entries_placed_by_rank_are_sorted_by_rid() {
        let mut seed = 7u64;
        for (n, spread) in [(0usize, 2usize), (1, 2), (63, 2), (64, 2), (5000, 2), (5000, 400)] {
            let rids = draw(n, spread * n + 8, 186, false, &mut seed);
            let mut entries: Vec<WideEntry> =
                rids.iter().enumerate().map(|(i, &rid)| (*Key::single(i as i64).cols(), rid)).collect();
            let mut want = entries.clone();
            want.sort_by_key(|&(_, rid)| rid);
            sort_entries_by_rid(&mut entries, span_of(&[&rids]));
            assert_eq!(entries, want, "{n} entries, spread {spread}");
        }
    }

    #[test]
    fn merge_and_hash_agree_on_intersection() {
        let (db, _) = demo_db(8);
        let left: Vec<Rid> = (0..400).filter(|i| i % 3 == 0).map(rid).collect();
        let right: Vec<Rid> = (0..400).filter(|i| i % 5 == 0).map(rid).collect();
        let want: Vec<Rid> = (0..400).filter(|i| i % 15 == 0).map(rid).collect();

        for algo in [
            IntersectAlgo::MergeJoin,
            IntersectAlgo::HashJoin { build_left: true },
            IntersectAlgo::HashJoin { build_left: false },
        ] {
            let s = Session::with_pool_pages(64);
            let ctx = ctx_with(&db, &s, 1 << 20);
            let span = span_of(&[&left, &right]);
            let mut got = intersect_rids(left.clone(), right.clone(), algo, span, &ctx);
            got.sort_unstable();
            assert_eq!(got, want, "{algo:?}");
        }
    }

    #[test]
    fn merge_result_is_already_sorted() {
        let (db, _) = demo_db(8);
        let s = Session::with_pool_pages(64);
        let ctx = ctx_with(&db, &s, 1 << 20);
        // Deliberately unsorted inputs.
        let left: Vec<Rid> = (0..100).rev().map(rid).collect();
        let right: Vec<Rid> = (0..100).filter(|i| i % 2 == 0).map(rid).collect();
        let span = span_of(&[&left, &right]);
        let got = intersect_rids(left, right, IntersectAlgo::MergeJoin, span, &ctx);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn merge_cost_is_symmetric_hash_is_not() {
        let (db, _) = demo_db(8);
        let small: Vec<Rid> = (0..100).map(rid).collect();
        let large: Vec<Rid> = (0..200_000).map(rid).collect();
        let cost = |l: &[Rid], r: &[Rid], algo| {
            let s = Session::with_pool_pages(64);
            let ctx = ctx_with(&db, &s, 1 << 30);
            intersect_rids(l.to_vec(), r.to_vec(), algo, span_of(&[l, r]), &ctx);
            s.elapsed()
        };
        let m_sl = cost(&small, &large, IntersectAlgo::MergeJoin);
        let m_ls = cost(&large, &small, IntersectAlgo::MergeJoin);
        assert!((m_sl - m_ls).abs() < 1e-9, "merge join must be symmetric");
        let h_build_small = cost(&small, &large, IntersectAlgo::HashJoin { build_left: true });
        let h_build_large = cost(&small, &large, IntersectAlgo::HashJoin { build_left: false });
        // Same inputs, different build side: hashing costs are identical
        // here (hash ops scale with n1+n2 either way), but the *sort* costs
        // of merge exceed both.
        assert!(h_build_small <= m_sl);
        assert!(h_build_large <= m_ls);
    }

    #[test]
    fn hash_spills_when_build_exceeds_memory() {
        let (db, _) = demo_db(8);
        let build: Vec<Rid> = (0..100_000).map(rid).collect();
        let probe: Vec<Rid> = (0..1000).map(rid).collect();
        let s = Session::with_pool_pages(64);
        let ctx = ctx_with(&db, &s, 16 * 1024); // 16 KiB grant: must spill
        let span = span_of(&[&build, &probe]);
        let algo = IntersectAlgo::HashJoin { build_left: true };
        let got = intersect_rids(build, probe, algo, span, &ctx);
        assert_eq!(got.len(), 1000);
        assert!(s.stats().page_writes > 0, "expected spill writes");
        assert!(ctx.spilled(), "spill must be recorded");
    }

    #[test]
    fn covering_join_produces_combined_rows() {
        let (db, _) = demo_db(8);
        // left: (a-value, rid), right: (c-value, rid); joined on rid.
        let entry = |v: i64, i: u32| (*Key::single(v).cols(), rid(i));
        let left: Vec<WideEntry> = (0..50).map(|i| entry(i as i64, i)).collect();
        let right: Vec<WideEntry> =
            (0..50).filter(|i| i % 2 == 0).map(|i| entry(1000 + i as i64, i)).collect();
        for algo in [
            IntersectAlgo::MergeJoin,
            IntersectAlgo::HashJoin { build_left: true },
            IntersectAlgo::HashJoin { build_left: false },
        ] {
            let s = Session::with_pool_pages(64);
            let ctx = ctx_with(&db, &s, 1 << 20);
            let mut rows: Vec<(i64, i64)> = Vec::new();
            let rids: Vec<Rid> = left.iter().chain(&right).map(|&(_, rid)| rid).collect();
            let span = span_of(&[&rids]);
            let (l, r) = (left.clone(), right.clone());
            let n = covering_join(l, r, [1, 1], algo, span, &ctx, &mut |r| {
                rows.push((r.get(0), r.get(1)))
            });
            assert_eq!(n, 25, "{algo:?}");
            rows.sort_unstable();
            // Output must always be (left key, right key) regardless of
            // build side.
            assert!(rows.iter().all(|&(a, c)| c == a + 1000), "{algo:?}: {rows:?}");
        }
    }
}
