//! General equi-joins between row streams: sort-merge and hybrid hash.
//!
//! The paper's future work (§4) extends robustness maps to "additional
//! query execution algorithms including sort, aggregation, join algorithms,
//! and join order", and its §3.2 discussion leans on the authors' earlier
//! *Sort versus Hash Revisited* (\[GLS94\]) — symmetric merge joins versus
//! asymmetric hash joins with build-side memory cliffs.  This module
//! provides both algorithms over arbitrary child plans so those maps can be
//! drawn:
//!
//! * [`sort_merge_join`] — external-sorts each input once (graceful spill,
//!   [`ExternalSorter::sort_all`]) and merges the two handle orders, reading
//!   rows only to build output rows; handles many-to-many keys; cost is
//!   symmetric in the inputs;
//! * [`hash_join`] — builds on one side, probes with the other; spills by
//!   grace partitioning when the build side exceeds the memory grant.
//!
//! Output rows are `left columns ++ right columns` (within the global
//! [`robustmap_storage::MAX_COLUMNS`] limit); callers project children
//! accordingly.  Both take an `Option<RowSink>`: with `None` — the rows are
//! only counted — no output row is built, and every charge is the same.

use robustmap_storage::{CpuCharge, PAGE_SIZE};

use crate::exec::{ExecCtx, ExecError};
use crate::ops::sort::{ExternalSorter, PackedRows};
use crate::ops::RowSink;
use crate::plan::SpillMode;

const NIL: u32 = u32::MAX;

/// Flat open-addressing index from an `i64` key to the head/tail of that
/// key's chain (threaded through a caller-owned `next` array).  Replaces a
/// general-purpose hash map in the join build/probe loops: linear probing
/// over parallel arrays at ≤0.5 load factor, with the key inline, turns
/// every lookup into one multiply and (almost always) one cache line.
/// Purely an in-memory structure — simulated hash charges are analytic
/// per-row counts and don't depend on the table's layout.
struct ChainTable {
    mask: usize,
    keys: Vec<i64>,
    heads: Vec<u32>,
    tails: Vec<u32>,
}

impl ChainTable {
    fn with_capacity(rows: usize) -> Self {
        let cap = (rows * 2).next_power_of_two().max(16);
        ChainTable { mask: cap - 1, keys: vec![0; cap], heads: vec![NIL; cap], tails: vec![0; cap] }
    }

    #[inline]
    fn slot(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask
    }

    /// Append build-row index `i` to `key`'s chain (creating it if new).
    #[inline]
    fn insert(&mut self, key: i64, i: u32, next: &mut [u32]) {
        let mut s = self.slot(key);
        loop {
            if self.heads[s] == NIL {
                self.keys[s] = key;
                self.heads[s] = i;
                self.tails[s] = i;
                return;
            }
            if self.keys[s] == key {
                next[self.tails[s] as usize] = i;
                self.tails[s] = i;
                return;
            }
            s = (s + 1) & self.mask;
        }
    }

    /// First build-row index whose key is `key`, if any.
    #[inline]
    fn head(&self, key: i64) -> Option<u32> {
        let mut s = self.slot(key);
        loop {
            let h = self.heads[s];
            if h == NIL {
                return None;
            }
            if self.keys[s] == key {
                return Some(h);
            }
            s = (s + 1) & self.mask;
        }
    }
}

/// Sort-merge join of two materialised (packed) inputs on single key
/// columns.  Symmetric: swapping the inputs (and keys) gives the same
/// cost.  Returns the rows produced.
pub fn sort_merge_join(
    left: PackedRows,
    right: PackedRows,
    left_key: usize,
    right_key: usize,
    memory_bytes: usize,
    ctx: &ExecCtx<'_>,
    mut sink: Option<RowSink<'_>>,
) -> Result<u64, ExecError> {
    // Each input gets half the grant, as a memory-broker would split it.
    let half = (memory_bytes / 2).max(1);
    // The two sorts share one radix scratch.
    let mut scratch = Vec::new();
    let mut sort = |rows: PackedRows, key: usize| {
        ExternalSorter::new(ctx, vec![key], SpillMode::Graceful, half).sort_all(rows, &mut scratch)
    };
    let (left, right) = (sort(left, left_key), sort(right, right_key));
    // The merge walks the two handle orders: a handle's inline `key0` is
    // its row's join key, the sorters' one key column.  Rows are read only
    // to build the output rows of equal-key groups, and only for a sink.
    let (lo, ro) = (&left.order, &right.order);
    let la = left.rows.arity();

    let session = ctx.session;
    let mut produced = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    let mut compares = 0u64;
    // The output row under construction: `left columns ++ right columns`.
    let mut out = vec![0i64; la + right.rows.arity()];
    while i < lo.len() && j < ro.len() {
        compares += 1;
        let (lk, rk) = (lo[i].key0, ro[j].key0);
        match lk.cmp(&rk) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Emit the cross product of the two equal-key groups.
                let group = &ro[j..j + ro[j..].iter().take_while(|h| h.key0 == rk).count()];
                while i < lo.len() && lo[i].key0 == lk {
                    if sink.is_some() {
                        out[..la].copy_from_slice(left.rows.row(lo[i].slot as usize));
                    }
                    if let Some(sink) = sink.as_deref_mut() {
                        for h in group {
                            session.charge_rows(1);
                            out[la..].copy_from_slice(right.rows.row(h.slot as usize));
                            sink(&out);
                        }
                    }
                    produced += group.len() as u64;
                    i += 1;
                }
                j += group.len();
            }
        }
    }
    if sink.is_none() {
        // Counted: nothing charges between the matches, so their row
        // charges are one call.
        session.charge_each(produced, &[CpuCharge::Rows(1)]);
    }
    session.charge_compares(compares);
    Ok(produced)
}

/// One side of a hash join: all of `rows`, or the grace partition `part` of
/// them as indices (no row copies), joined on column `key`.
#[derive(Clone, Copy)]
struct Side<'a> {
    rows: &'a PackedRows,
    part: Option<&'a [u32]>,
    key: usize,
}

impl<'a> Side<'a> {
    fn len(&self) -> usize {
        self.part.map_or(self.rows.len(), <[u32]>::len)
    }

    fn row(&self, i: usize) -> &'a [i64] {
        self.rows.row(self.part.map_or(i, |part| part[i] as usize))
    }
}

/// Hybrid hash join: build a table on `build`, probe with `probe`.
/// Asymmetric: the build side determines memory behaviour, and building
/// costs roughly twice per row what probing does.  When the build side
/// exceeds `memory_bytes`, both inputs are grace-partitioned to temp files
/// (charged as page writes + reads) and joined partition by partition.
///
/// `swap_output`: emit `probe ++ build` columns instead (used when the
/// physical build side is the plan's right input but output order must
/// stay `left ++ right`).  Returns the rows produced.
pub fn hash_join(
    build: PackedRows,
    probe: PackedRows,
    build_key: usize,
    probe_key: usize,
    memory_bytes: usize,
    swap_output: bool,
    ctx: &ExecCtx<'_>,
    mut sink: Option<RowSink<'_>>,
) -> Result<u64, ExecError> {
    let session = ctx.session;
    let build = Side { rows: &build, part: None, key: build_key };
    let probe = Side { rows: &probe, part: None, key: probe_key };
    // Memory accounting stays per-`Row`-sized (arity * 8 payload + 16
    // bookkeeping), independent of the packed in-memory layout.
    let row_bytes = |side: Side<'_>| side.rows.arity() * 8 + 16;
    let build_bytes: usize = build.len() * row_bytes(build) * 2;
    if build_bytes <= memory_bytes || build.len() == 0 {
        return Ok(build_and_probe(build, probe, swap_output, ctx, sink));
    }
    // Grace partitioning: hash both sides to partitions, write + read both.
    // Partitions hold `u32` indices into the input buffers rather than row
    // copies — the charges are computed from per-partition row counts, so
    // the representation is invisible to the simulation — and only those
    // that hold a row exist: a grant of a few bytes asks for more
    // partitions than there are rows, and an empty one has no file to
    // write and nothing to join.  So the directory has a bucket per
    // partition only up to about one per row; past that a bucket is a run
    // of `2^shift` consecutive partitions, its rows ordered by partition.
    ctx.note_spill();
    let partitions = (build_bytes / memory_bytes.max(1) + 1).next_power_of_two();
    session.charge_hashes((build.len() + probe.len()) as u64);
    let buckets = partitions.min((build.len() + probe.len()).next_power_of_two());
    let shift = (partitions / buckets).trailing_zeros();
    let partition_of = |side: Side<'_>, i: u32| {
        (side.row(i as usize)[side.key] as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) as usize
            & (partitions - 1)
    };
    let directory = |side: Side<'_>| {
        let mut directory: Vec<Vec<u32>> = vec![Vec::new(); buckets];
        for i in 0..side.len() as u32 {
            directory[partition_of(side, i) >> shift].push(i);
        }
        if shift != 0 {
            directory.iter_mut().for_each(|bucket| bucket.sort_by_key(|&i| partition_of(side, i)));
        }
        directory
    };
    // The non-empty partitions of a side, in partition order, each with
    // its number.
    fn parts_of(directory: &[Vec<u32>], one_each: bool, id: impl Fn(u32) -> usize) -> Vec<(usize, &[u32])> {
        let buckets = directory.iter();
        let parts = buckets.flat_map(|bucket| bucket.chunk_by(|&i, &j| one_each || id(i) == id(j)));
        parts.map(|part| (id(part[0]), part)).collect()
    }
    let (build_dir, probe_dir) = (directory(build), directory(probe));
    let build_parts = parts_of(&build_dir, shift == 0, |i| partition_of(build, i));
    let probe_parts = parts_of(&probe_dir, shift == 0, |i| partition_of(probe, i));
    let part_io = |side: Side<'_>, parts: &[(usize, &[u32])]| {
        for (_, part) in parts {
            // One operator's rows all share an arity, so the partition's
            // byte total is a multiply, not a gather over its rows.
            ctx.spill_round_trip((part.len() * row_bytes(side)).div_ceil(PAGE_SIZE) as u32);
        }
    };
    part_io(build, &build_parts);
    part_io(probe, &probe_parts);
    // Join partition by partition, in partition order.
    let (mut b, mut p) = (build_parts.iter().peekable(), probe_parts.iter().peekable());
    let mut produced = 0u64;
    while let Some(id) = b.peek().into_iter().chain(p.peek()).map(|part| part.0).min() {
        let b = b.next_if(|part| part.0 == id).map_or(&[][..], |part| part.1);
        let p = p.next_if(|part| part.0 == id).map_or(&[][..], |part| part.1);
        let (b, p) = (Side { part: Some(b), ..build }, Side { part: Some(p), ..probe });
        let sink = sink.as_mut().map(|sink| &mut **sink as RowSink<'_>);
        produced += build_and_probe(b, p, swap_output, ctx, sink);
    }
    Ok(produced)
}

/// The in-memory hash join of two sides.
fn build_and_probe(
    build: Side<'_>,
    probe: Side<'_>,
    swap_output: bool,
    ctx: &ExecCtx<'_>,
    mut sink: Option<RowSink<'_>>,
) -> u64 {
    let session = ctx.session;
    // Build costs double per row (insertion + growth), as in the rid join.
    session.charge_hashes(2 * build.len() as u64);
    // Chained layout: the table holds `(head, tail)` positions on the build
    // side per key and `next` threads same-key rows in insertion order —
    // one shared allocation instead of a `Vec` per distinct key, which
    // matters when a million-row build side has (near-)unique keys.
    let mut table = ChainTable::with_capacity(build.len());
    let mut next: Vec<u32> = vec![NIL; build.len()];
    for i in 0..build.len() {
        table.insert(build.row(i)[build.key], i as u32, &mut next);
    }
    session.charge_hashes(probe.len() as u64);
    let mut produced = 0u64;
    // The output row under construction: `left columns ++ right columns`,
    // the probe row's half written once per probe row.
    let (build_arity, probe_arity) = (build.rows.arity(), probe.rows.arity());
    let mut out = vec![0i64; build_arity + probe_arity];
    let (build_at, probe_at) = if swap_output { (probe_arity, 0) } else { (0, build_arity) };
    for pi in 0..probe.len() {
        let p = probe.row(pi);
        let Some(head) = table.head(p[probe.key]) else { continue };
        if sink.is_some() {
            out[probe_at..probe_at + p.len()].copy_from_slice(p);
        }
        let mut idx = head;
        while idx != NIL {
            if let Some(sink) = sink.as_deref_mut() {
                session.charge_rows(1);
                let b = build.row(idx as usize);
                out[build_at..build_at + b.len()].copy_from_slice(b);
                sink(&out);
            }
            produced += 1;
            idx = next[idx as usize];
        }
    }
    if sink.is_none() {
        // Counted: nothing charges between the matches, so their row
        // charges are one call.
        session.charge_each(produced, &[CpuCharge::Rows(1)]);
    }
    produced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::demo_db;

    fn rows_of(pairs: &[(i64, i64)]) -> PackedRows {
        let mut rows = PackedRows::default();
        for &(k, v) in pairs {
            rows.push(&[k, v]);
        }
        rows
    }

    /// Every `left ++ right` pair equal on column `key` of both, sorted.
    fn reference_join(left: &[(i64, i64)], right: &[(i64, i64)], key: usize) -> Vec<Vec<i64>> {
        let cols = |&(a, b): &(i64, i64)| [a, b];
        let mut by_key = std::collections::BTreeMap::<i64, Vec<[i64; 2]>>::new();
        for r in right.iter().map(cols) {
            by_key.entry(r[key]).or_default().push(r);
        }
        let mut out = Vec::new();
        for l in left.iter().map(cols) {
            for r in by_key.get(&l[key]).into_iter().flatten() {
                out.push([l, *r].concat());
            }
        }
        out.sort();
        out
    }

    /// Sort-merge and hash join (both build sides) on column `key` of
    /// both inputs equal the reference.
    fn run_all_variants(left: &[(i64, i64)], right: &[(i64, i64)], key: usize, memory: usize) {
        let (db, _) = demo_db(4);
        let want = reference_join(left, right, key);
        // Sort-merge.
        {
            let s = robustmap_storage::Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, memory);
            let mut got = Vec::new();
            sort_merge_join(rows_of(left), rows_of(right), key, key, memory, &ctx, Some(&mut |r| {
                got.push(r.to_vec())
            }))
            .unwrap();
            got.sort();
            assert_eq!(got, want, "sort-merge, key {key}, {memory} bytes");
        }
        // Hash, both build sides.
        for (build_is_left, swap) in [(true, false), (false, true)] {
            let s = robustmap_storage::Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, memory);
            let mut got = Vec::new();
            let (b, p) = if build_is_left {
                (rows_of(left), rows_of(right))
            } else {
                (rows_of(right), rows_of(left))
            };
            hash_join(b, p, key, key, memory, swap, &ctx, Some(&mut |r| got.push(r.to_vec())))
                .unwrap();
            got.sort();
            assert_eq!(got, want, "hash build_left={build_is_left}, key {key}, {memory} bytes");
        }
    }

    #[test]
    fn joins_match_nested_loop_reference() {
        let left: Vec<(i64, i64)> = (0..200).map(|i| (i % 37, i)).collect();
        let right: Vec<(i64, i64)> = (0..150).map(|i| (i % 23, 1000 + i)).collect();
        run_all_variants(&left, &right, 0, 1 << 20);
    }

    #[test]
    fn joins_match_reference_when_spilling() {
        let left: Vec<(i64, i64)> = (0..3000).map(|i| (i % 97, i)).collect();
        let right: Vec<(i64, i64)> = (0..2000).map(|i| (i % 89, -i)).collect();
        // Tiny grants: everything spills; under the last two the hash join
        // has more partitions than rows, several to a directory bucket.
        for memory in [2048, 16, 0] {
            run_all_variants(&left, &right, 0, memory);
        }
    }

    /// A join key that is not column 0, each key value carried by rows
    /// with different payloads (negative keys included), under grants
    /// whose halves give each sort-merge input a window of 2 rows, of
    /// 3 276 rows (spilling 5 000 rows) and one the input fits.
    #[test]
    fn joins_on_a_later_column_with_tied_keys() {
        let left: Vec<(i64, i64)> = (0..5000).map(|i| ((i * 7919) % 5000, i % 1009 - 500)).collect();
        let right: Vec<(i64, i64)> = (0..4000).map(|i| (-i, (i * 31) % 997 - 498)).collect();
        for memory in [320, 512 << 10, 16 << 20] {
            run_all_variants(&left, &right, 1, memory);
        }
    }

    #[test]
    fn many_to_many_duplicates() {
        let left: Vec<(i64, i64)> = vec![(5, 1), (5, 2), (5, 3), (7, 4)];
        let right: Vec<(i64, i64)> = vec![(5, 10), (5, 20), (9, 30)];
        run_all_variants(&left, &right, 0, 1 << 20);
        // 3 x 2 = 6 matches on key 5.
        assert_eq!(reference_join(&left, &right, 0).len(), 6);
    }

    #[test]
    fn disjoint_keys_produce_nothing() {
        let left: Vec<(i64, i64)> = (0..50).map(|i| (i, i)).collect();
        let right: Vec<(i64, i64)> = (100..150).map(|i| (i, i)).collect();
        run_all_variants(&left, &right, 0, 1 << 20);
        assert!(reference_join(&left, &right, 0).is_empty());
    }

    #[test]
    fn empty_inputs() {
        run_all_variants(&[], &[(1, 1)], 0, 1 << 20);
        run_all_variants(&[(1, 1)], &[], 0, 1 << 20);
        run_all_variants(&[], &[], 0, 1 << 20);
    }

    #[test]
    fn sort_merge_cost_is_symmetric() {
        let (db, _) = demo_db(4);
        let small: Vec<(i64, i64)> = (0..100).map(|i| (i, i)).collect();
        let large: Vec<(i64, i64)> = (0..20_000).map(|i| (i, i)).collect();
        let cost = |l: &[(i64, i64)], r: &[(i64, i64)]| {
            let s = robustmap_storage::Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, 1 << 16);
            sort_merge_join(rows_of(l), rows_of(r), 0, 0, 1 << 16, &ctx, None).unwrap();
            s.elapsed()
        };
        let c1 = cost(&small, &large);
        let c2 = cost(&large, &small);
        assert!((c1 - c2).abs() / c1 < 0.01, "sort-merge asymmetric: {c1} vs {c2}");
    }

    #[test]
    fn hash_join_cost_depends_on_build_side() {
        let (db, _) = demo_db(4);
        let small: Vec<(i64, i64)> = (0..100).map(|i| (i, i)).collect();
        let large: Vec<(i64, i64)> = (0..50_000).map(|i| (i, i)).collect();
        let memory = 64 * 1024; // large side does not fit; small side does
        let cost = |build: &[(i64, i64)], probe: &[(i64, i64)]| {
            let s = robustmap_storage::Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, memory);
            hash_join(rows_of(build), rows_of(probe), 0, 0, memory, false, &ctx, None).unwrap();
            (s.elapsed(), s.stats().page_writes)
        };
        let (small_build, w1) = cost(&small, &large);
        let (large_build, w2) = cost(&large, &small);
        assert_eq!(w1, 0, "small build must not spill");
        assert!(w2 > 0, "large build must spill");
        assert!(
            large_build > small_build * 1.5,
            "build-side cliff: {small_build} vs {large_build}"
        );
    }
}
