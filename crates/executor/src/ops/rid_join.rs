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

use robustmap_storage::btree::Entry;
use robustmap_storage::heap::Rid;
use robustmap_storage::{FxBuildHasher, FxHashMap, FxHashSet, Row, Session};

use crate::exec::ExecCtx;
use crate::plan::IntersectAlgo;

/// Charge a comparison sort of `n` items.
fn charge_sort(session: &Session, n: u64) {
    if n > 1 {
        session.charge_compares(n * (64 - (n - 1).leading_zeros()) as u64);
    }
}

/// Intersect two rid lists with the given algorithm.  The result is sorted
/// in physical order for the merge variant (a free by-product that benefits
/// a downstream fetch) and in probe order for the hash variant.
pub fn intersect_rids(
    left: Vec<Rid>,
    right: Vec<Rid>,
    algo: IntersectAlgo,
    ctx: &ExecCtx<'_>,
) -> Vec<Rid> {
    match algo {
        IntersectAlgo::MergeJoin => merge_intersect(left, right, ctx.session),
        IntersectAlgo::HashJoin { build_left } => {
            if build_left {
                hash_intersect(left, right, ctx)
            } else {
                hash_intersect(right, left, ctx)
            }
        }
    }
}

/// Sort both sides, then merge.  Symmetric: cost depends on `|left| +
/// |right|`, not on which side is which.
fn merge_intersect(mut left: Vec<Rid>, mut right: Vec<Rid>, session: &Session) -> Vec<Rid> {
    charge_sort(session, left.len() as u64);
    charge_sort(session, right.len() as u64);
    // Charged as comparison sorts above; executed as radix sorts (rids
    // order by their u64 encoding).
    crate::batch::radix_sort_by_u64_key(&mut left, |r| r.to_u64());
    crate::batch::radix_sort_by_u64_key(&mut right, |r| r.to_u64());
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
    session.charge_compares(compares);
    out
}

/// Build a hash table on `build`, probe with `probe`.  If the build side
/// exceeds the query's memory grant, both sides are grace-partitioned to
/// temp files first (charged as page writes + reads).
fn hash_intersect(build: Vec<Rid>, probe: Vec<Rid>, ctx: &ExecCtx<'_>) -> Vec<Rid> {
    const RID_BYTES: usize = 8;
    // Hash tables need roughly 2x the raw data size.
    let build_bytes = build.len() * RID_BYTES * 2;
    if build_bytes <= ctx.memory_bytes || build.is_empty() {
        return hash_intersect_in_memory(&build, &probe, ctx.session);
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
        let pages = pages_for(part.len() * RID_BYTES);
        let file = ctx.alloc_temp_file();
        for p in 0..pages {
            session.write_page(robustmap_storage::PageId::new(file, p));
        }
        for p in 0..pages {
            session.read_page(
                robustmap_storage::PageId::new(file, p),
                robustmap_storage::AccessKind::Sequential,
            );
        }
        session.invalidate_file(file);
    }
    let mut out = Vec::new();
    for (b, p) in build_parts.into_iter().zip(probe_parts) {
        out.extend(hash_intersect_in_memory(&b, &p, session));
    }
    out
}

fn hash_intersect_in_memory(build: &[Rid], probe: &[Rid], session: &Session) -> Vec<Rid> {
    // Building costs twice what probing does (bucket insertion and table
    // growth vs. a lookup): this is the cost asymmetry between the two
    // join orders that the paper (citing [GLS94]) contrasts with the merge
    // join's symmetry.
    session.charge_hashes(2 * build.len() as u64);
    let mut set: FxHashSet<Rid> =
        FxHashSet::with_capacity_and_hasher(build.len(), FxBuildHasher::default());
    set.extend(build.iter().copied());
    session.charge_hashes(probe.len() as u64);
    probe.iter().copied().filter(|r| set.contains(r)).collect()
}

/// Join two covering index scans on rid, producing rows `left key columns
/// ++ right key columns` (Figure 2's multi-index covering plans).  Both
/// inputs are `(key, rid)` entry lists in key order.
pub fn covering_join(
    left: Vec<Entry>,
    right: Vec<Entry>,
    algo: IntersectAlgo,
    ctx: &ExecCtx<'_>,
    sink: &mut dyn FnMut(&Row),
) -> u64 {
    match algo {
        IntersectAlgo::MergeJoin => covering_merge_join(left, right, ctx.session, sink),
        IntersectAlgo::HashJoin { build_left } => {
            if build_left {
                covering_hash_join(left, right, false, ctx, sink)
            } else {
                covering_hash_join(right, left, true, ctx, sink)
            }
        }
    }
}

fn combined_row(left_key: &robustmap_storage::Key, right_key: &robustmap_storage::Key) -> Row {
    let mut row = Row::empty();
    for &v in left_key.values() {
        row.push(v);
    }
    for &v in right_key.values() {
        row.push(v);
    }
    row
}

/// Sort entries by rid through light `(rid, index)` pairs: the sort moves
/// 16-byte elements instead of 40-byte entries, and rids are unique so the
/// order is exactly `sort_unstable_by_key(|(_, rid)| rid)`'s.
fn sort_entries_by_rid(entries: &mut Vec<Entry>) {
    let mut order: Vec<(u64, u32)> =
        entries.iter().enumerate().map(|(i, &(_, rid))| (rid.to_u64(), i as u32)).collect();
    crate::batch::radix_sort_by_u64_key(&mut order, |&(r, _)| r);
    *entries = order.iter().map(|&(_, i)| entries[i as usize]).collect();
}

fn covering_merge_join(
    mut left: Vec<Entry>,
    mut right: Vec<Entry>,
    session: &Session,
    sink: &mut dyn FnMut(&Row),
) -> u64 {
    charge_sort(session, left.len() as u64);
    charge_sort(session, right.len() as u64);
    sort_entries_by_rid(&mut left);
    sort_entries_by_rid(&mut right);
    let (mut i, mut j) = (0, 0);
    let mut produced = 0u64;
    let mut compares = 0u64;
    while i < left.len() && j < right.len() {
        compares += 1;
        match left[i].1.cmp(&right[j].1) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let row = combined_row(&left[i].0, &right[j].0);
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
/// must still be `left keys ++ right keys`.
fn covering_hash_join(
    build: Vec<Entry>,
    probe: Vec<Entry>,
    swap_output: bool,
    ctx: &ExecCtx<'_>,
    sink: &mut dyn FnMut(&Row),
) -> u64 {
    let session = ctx.session;
    const ENTRY_BYTES: usize = 32;
    if build.len() * ENTRY_BYTES * 2 > ctx.memory_bytes {
        ctx.note_spill();
        // Charged like the rid-intersect spill: both sides out and back.
        for len in [build.len(), probe.len()] {
            let pages = pages_for(len * ENTRY_BYTES);
            let file = ctx.alloc_temp_file();
            for p in 0..pages {
                session.write_page(robustmap_storage::PageId::new(file, p));
            }
            for p in 0..pages {
                session.read_page(
                    robustmap_storage::PageId::new(file, p),
                    robustmap_storage::AccessKind::Sequential,
                );
            }
            session.invalidate_file(file);
        }
    }
    // Build side pays double (see `hash_intersect_in_memory`).
    session.charge_hashes(2 * build.len() as u64);
    // The table maps packed rids to indices into `build` — 16-byte pairs
    // instead of 48-byte (rid, key) pairs, since rids are unique.
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
                combined_row(&probe_key, build_key)
            } else {
                combined_row(build_key, &probe_key)
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

    fn ctx_with<'a>(
        db: &'a robustmap_storage::Database,
        session: &'a Session,
        memory: usize,
    ) -> ExecCtx<'a> {
        ExecCtx::new(db, session, memory)
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
            let mut got = intersect_rids(left.clone(), right.clone(), algo, &ctx);
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
        let got = intersect_rids(left, right, IntersectAlgo::MergeJoin, &ctx);
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
            intersect_rids(l.to_vec(), r.to_vec(), algo, &ctx);
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
        let got = intersect_rids(build, probe, IntersectAlgo::HashJoin { build_left: true }, &ctx);
        assert_eq!(got.len(), 1000);
        assert!(s.stats().page_writes > 0, "expected spill writes");
        assert!(ctx.spilled(), "spill must be recorded");
    }

    #[test]
    fn covering_join_produces_combined_rows() {
        let (db, _) = demo_db(8);
        // left: (a-value, rid), right: (c-value, rid); joined on rid.
        let left: Vec<Entry> = (0..50).map(|i| (Key::single(i as i64), rid(i))).collect();
        let right: Vec<Entry> =
            (0..50).filter(|i| i % 2 == 0).map(|i| (Key::single(1000 + i as i64), rid(i))).collect();
        for algo in [
            IntersectAlgo::MergeJoin,
            IntersectAlgo::HashJoin { build_left: true },
            IntersectAlgo::HashJoin { build_left: false },
        ] {
            let s = Session::with_pool_pages(64);
            let ctx = ctx_with(&db, &s, 1 << 20);
            let mut rows: Vec<(i64, i64)> = Vec::new();
            let n = covering_join(left.clone(), right.clone(), algo, &ctx, &mut |r| {
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
