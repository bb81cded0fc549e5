//! Hash aggregation with graceful and abrupt overflow disciplines.
//!
//! The same §4 robustness story as sorting, applied to aggregation: an
//! operator whose memory-overflow behaviour is all-or-nothing shows a cost
//! cliff the moment the group count no longer fits, while a graceful
//! implementation degrades in proportion to the overflow.
//!
//! * [`SpillMode::Abrupt`] — on first overflow the whole hash table is
//!   dumped to partitions and *all* remaining input bypasses the table.
//! * [`SpillMode::Graceful`] — resident groups keep aggregating; only rows
//!   of non-resident groups spill.
//!
//! All aggregates here (count/sum/min/max) are combinable, so spilled
//! partial aggregates and raw rows can be merged on the final pass.

use std::collections::hash_map::Entry as MapEntry;
use robustmap_storage::FxHashMap;

use robustmap_storage::{AccessKind, PageId, Row, Session, PAGE_SIZE};

use crate::exec::ExecCtx;
use crate::plan::{AggFn, SpillMode};

/// Accumulator state for one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AggState {
    count: i64,
    sum: i64,
    min: i64,
    max: i64,
}

impl AggState {
    fn new() -> Self {
        AggState { count: 0, sum: 0, min: i64::MAX, max: i64::MIN }
    }

    fn update(&mut self, v: i64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Bytes one resident group is accounted as (key + per-agg state +
/// table overhead).
const GROUP_BYTES: usize = 128;
/// Rows per spill page (key + value payload).
const SPILL_ROWS_PER_PAGE: usize = PAGE_SIZE / 48;
/// Number of spill partitions.
const PARTITIONS: usize = 16;

/// A hash aggregator fed row-by-row and drained by
/// [`HashAggregator::finish`].  Output rows are `group columns ++ one value
/// per aggregate`, emitted in ascending group order (deterministic).
pub struct HashAggregator<'a, 'b> {
    ctx: &'a ExecCtx<'b>,
    group_cols: Vec<usize>,
    aggs: Vec<AggFn>,
    mode: SpillMode,
    max_groups: usize,
    table: FxHashMap<Row, Vec<AggState>>,
    /// Spilled rows, partitioned by group-key hash: `(group key, per-agg
    /// partial state)`.
    partitions: Vec<Vec<(Row, Vec<AggState>)>>,
    spill_buffered: usize,
    bypass: bool,
}

impl<'a, 'b> HashAggregator<'a, 'b> {
    /// A new aggregator grouping by `group_cols` and computing `aggs`.
    pub fn new(
        ctx: &'a ExecCtx<'b>,
        group_cols: Vec<usize>,
        aggs: Vec<AggFn>,
        mode: SpillMode,
        memory_bytes: usize,
    ) -> Self {
        HashAggregator {
            ctx,
            group_cols,
            aggs,
            mode,
            max_groups: (memory_bytes / GROUP_BYTES).max(1),
            table: FxHashMap::default(),
            partitions: vec![Vec::new(); PARTITIONS],
            spill_buffered: 0,
            bypass: false,
        }
    }

    /// Whether any data spilled.
    pub fn spilled(&self) -> bool {
        self.partitions.iter().any(|p| !p.is_empty()) || self.spill_buffered > 0
    }

    fn group_key(&self, row: &[i64]) -> Row {
        let mut key = Row::empty();
        for &c in &self.group_cols {
            key.push(row[c]);
        }
        key
    }

    fn agg_inputs(&self, row: &[i64]) -> Vec<AggState> {
        self.aggs
            .iter()
            .map(|agg| {
                let mut st = AggState::new();
                match agg {
                    AggFn::CountStar => st.update(0),
                    AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) => st.update(row[*c]),
                }
                st
            })
            .collect()
    }

    fn update_states(states: &mut [AggState], aggs: &[AggFn], row: &[i64]) {
        for (st, agg) in states.iter_mut().zip(aggs) {
            match agg {
                AggFn::CountStar => st.update(0),
                AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) => st.update(row[*c]),
            }
        }
    }

    fn partition_of(key: &Row) -> usize {
        // Cheap deterministic hash over the key values.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &v in key.values() {
            h ^= v as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h as usize) % PARTITIONS
    }

    fn spill(&mut self, key: Row, states: Vec<AggState>) {
        let p = Self::partition_of(&key);
        self.partitions[p].push((key, states));
        self.spill_buffered += 1;
        if self.spill_buffered.is_multiple_of(SPILL_ROWS_PER_PAGE) {
            let file = self.ctx.alloc_temp_file();
            self.ctx.session.write_page(PageId::new(file, 0));
        }
        self.ctx.note_spill();
    }

    /// Accept one input row.
    pub fn push(&mut self, row: &[i64]) {
        let session: &Session = self.ctx.session;
        session.charge_hashes(1);
        let key = self.group_key(row);
        if self.bypass {
            // Abrupt overflow mode: everything goes straight to partitions.
            let states = self.agg_inputs(row);
            self.spill(key, states);
            return;
        }
        let have_room = self.table.len() < self.max_groups;
        match self.table.entry(key) {
            MapEntry::Occupied(mut e) => {
                Self::update_states(e.get_mut(), &self.aggs, row);
            }
            MapEntry::Vacant(v) if have_room => {
                let mut states: Vec<AggState> =
                    self.aggs.iter().map(|_| AggState::new()).collect();
                Self::update_states(&mut states, &self.aggs, row);
                v.insert(states);
            }
            MapEntry::Vacant(_) => {
                if self.mode == SpillMode::Abrupt {
                    // Dump the entire table and bypass from now on.
                    let drained: Vec<(Row, Vec<AggState>)> = self.table.drain().collect();
                    for (k, st) in drained {
                        self.spill(k, st);
                    }
                    self.bypass = true;
                }
                // Graceful: resident groups stay; this row spills alone.
                let states = self.agg_inputs(row);
                let key = self.group_key(row);
                self.spill(key, states);
            }
        }
    }

    /// Finish: merge spilled partitions and emit `group ++ aggregates`
    /// rows in ascending group order.  Returns rows emitted.
    pub fn finish(mut self, sink: &mut dyn FnMut(&[i64])) -> u64 {
        let session: &Session = self.ctx.session;
        // Read back what was spilled.
        let spilled_pages = self.spill_buffered.div_ceil(SPILL_ROWS_PER_PAGE) as u32;
        if self.spill_buffered > 0 {
            let file = self.ctx.alloc_temp_file();
            for p in 0..spilled_pages {
                session.read_page(PageId::new(file, p), AccessKind::Sequential);
            }
            session.invalidate_file(file);
        }
        let mut final_groups: FxHashMap<Row, Vec<AggState>> = std::mem::take(&mut self.table);
        for part in std::mem::take(&mut self.partitions) {
            session.charge_hashes(part.len() as u64);
            for (key, states) in part {
                match final_groups.entry(key) {
                    MapEntry::Occupied(mut e) => {
                        for (a, b) in e.get_mut().iter_mut().zip(&states) {
                            a.merge(b);
                        }
                    }
                    MapEntry::Vacant(v) => {
                        v.insert(states);
                    }
                }
            }
        }
        // Deterministic output order: sort by group key.
        let mut out: Vec<(Row, Vec<AggState>)> = final_groups.into_iter().collect();
        let n = out.len() as u64;
        if n > 1 {
            session.charge_compares(n * (64 - (n - 1).leading_zeros()) as u64);
        }
        out.sort_unstable_by(|a, b| a.0.values().cmp(b.0.values()));
        for (key, states) in &out {
            let mut row = *key;
            for (st, agg) in states.iter().zip(&self.aggs) {
                row.push(match agg {
                    AggFn::CountStar => st.count,
                    AggFn::Sum(_) => st.sum,
                    AggFn::Min(_) => st.min,
                    AggFn::Max(_) => st.max,
                });
            }
            session.charge_rows(1);
            sink(row.values());
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecCtx;
    use crate::ops::testutil::demo_db;

    fn run_agg(
        rows: &[Row],
        group_cols: Vec<usize>,
        aggs: Vec<AggFn>,
        mode: SpillMode,
        memory: usize,
    ) -> (Vec<Vec<i64>>, robustmap_storage::IoStats, bool) {
        let (db, _) = demo_db(4);
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, memory);
        let mut agg = HashAggregator::new(&ctx, group_cols, aggs, mode, memory);
        for r in rows {
            agg.push(r.values());
        }
        let mut out = Vec::new();
        agg.finish(&mut |r| out.push(r.to_vec()));
        (out, s.stats(), ctx.spilled())
    }

    fn mod_rows(n: i64, m: i64) -> Vec<Row> {
        (0..n).map(|i| Row::from_slice(&[i % m, i])).collect()
    }

    #[test]
    fn count_sum_min_max_in_memory() {
        let rows = mod_rows(100, 4);
        let (out, io, spilled) = run_agg(
            &rows,
            vec![0],
            vec![AggFn::CountStar, AggFn::Sum(1), AggFn::Min(1), AggFn::Max(1)],
            SpillMode::Graceful,
            1 << 20,
        );
        assert!(!spilled);
        assert_eq!(io.page_writes, 0);
        assert_eq!(out.len(), 4);
        for row in out {
            let g = row[0];
            assert_eq!(row[1], 25); // count
            let members: Vec<i64> = (0..100).filter(|i| i % 4 == g).collect();
            assert_eq!(row[2], members.iter().sum::<i64>());
            assert_eq!(row[3], *members.iter().min().unwrap());
            assert_eq!(row[4], *members.iter().max().unwrap());
        }
    }

    #[test]
    fn output_is_sorted_by_group() {
        let rows = mod_rows(1000, 37);
        let (out, _, _) =
            run_agg(&rows, vec![0], vec![AggFn::CountStar], SpillMode::Graceful, 1 << 20);
        let groups: Vec<i64> = out.iter().map(|r| r[0]).collect();
        assert_eq!(groups, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn both_modes_agree_with_reference_when_spilling() {
        let rows = mod_rows(20_000, 1000);
        let reference = {
            let (out, _, spilled) =
                run_agg(&rows, vec![0], vec![AggFn::CountStar, AggFn::Sum(1)], SpillMode::Graceful, 1 << 24);
            assert!(!spilled);
            out
        };
        for mode in [SpillMode::Abrupt, SpillMode::Graceful] {
            // Memory for only ~128 groups; 1000 distinct groups overflow.
            let (out, io, spilled) =
                run_agg(&rows, vec![0], vec![AggFn::CountStar, AggFn::Sum(1)], mode, 16 * 1024);
            assert!(spilled, "{mode:?}");
            assert!(io.page_writes > 0, "{mode:?}");
            assert_eq!(out, reference, "{mode:?}");
        }
    }

    #[test]
    fn abrupt_spills_much_more_than_graceful() {
        // Most rows belong to a few hot groups that stay resident under
        // graceful overflow; abrupt bypasses the table entirely.
        let n = 30_000i64;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                // 90% of rows hit 8 hot groups; the rest are unique-ish.
                let g = if i % 10 != 0 { i % 8 } else { 1000 + i };
                Row::from_slice(&[g, i])
            })
            .collect();
        let memory = 64 * 1024; // 512 groups resident
        let (_, io_abrupt, _) =
            run_agg(&rows, vec![0], vec![AggFn::CountStar], SpillMode::Abrupt, memory);
        let (_, io_graceful, _) =
            run_agg(&rows, vec![0], vec![AggFn::CountStar], SpillMode::Graceful, memory);
        assert!(
            io_abrupt.page_writes > 3 * io_graceful.page_writes.max(1),
            "abrupt {} vs graceful {}",
            io_abrupt.page_writes,
            io_graceful.page_writes
        );
    }

    #[test]
    fn global_aggregate_single_group() {
        let rows = mod_rows(500, 500);
        let (out, _, _) = run_agg(
            &rows,
            vec![],
            vec![AggFn::CountStar, AggFn::Min(1), AggFn::Max(1)],
            SpillMode::Graceful,
            1 << 20,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], vec![500, 0, 499]);
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let (out, _, _) =
            run_agg(&[], vec![0], vec![AggFn::CountStar], SpillMode::Abrupt, 1024);
        assert!(out.is_empty());
    }
}
