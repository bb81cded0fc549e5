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

use robustmap_storage::{CpuCharge, PageId, Session, PAGE_SIZE};

use crate::batch::RowBatch;
use crate::exec::ExecCtx;
use crate::ops::sort::{sorted_order, PackedRows};
use crate::ops::RowSink;
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

/// The value `agg` reads from row `i` of `batch` (`count(*)` reads none).
fn agg_input(agg: &AggFn, batch: &RowBatch, i: usize) -> i64 {
    match agg {
        AggFn::CountStar => 0,
        AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) => batch.col(*c)[i],
    }
}

/// Bytes one resident group is accounted as (key + per-agg state +
/// table overhead).
const GROUP_BYTES: usize = 128;
/// Rows per spill page (key + value payload).
const SPILL_ROWS_PER_PAGE: usize = PAGE_SIZE / 48;
/// Number of spill partitions.
const PARTITIONS: usize = 16;

/// Cheap deterministic hash over a group key's values.
fn hash_key(key: &[i64]) -> u64 {
    key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| (h ^ v as u64).wrapping_mul(0x1000_0000_01b3))
}

/// Partial aggregates: the group keys packed end to end and `width` states
/// per entry inline in one vector, both in arrival order.  No allocation
/// per entry and no 72-byte key: purely an in-memory layout.
struct Partials {
    keys: PackedRows,
    states: Vec<AggState>,
    width: usize,
}

impl Partials {
    fn new(width: usize) -> Self {
        Partials { keys: PackedRows::default(), states: Vec::new(), width }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Append an entry for `key` with empty states; returns its index.
    fn append(&mut self, key: &[i64]) -> usize {
        self.keys.push(key);
        self.states.resize(self.states.len() + self.width, AggState::new());
        self.len() - 1
    }

    fn states(&mut self, i: usize) -> &mut [AggState] {
        &mut self.states[i * self.width..(i + 1) * self.width]
    }
}

const NIL: u32 = u32::MAX;

/// The resident groups: partials with distinct keys, under an
/// open-addressing index of their ids (linear probing, at most half
/// full).  Hash charges are analytic per-row counts and don't depend on
/// the table's layout.
struct GroupTable {
    groups: Partials,
    slots: Vec<u32>,
}

impl GroupTable {
    fn new(width: usize) -> Self {
        GroupTable { groups: Partials::new(width), slots: vec![NIL; 16] }
    }

    /// The group with `key`, or else the empty slot where it would go.
    fn find(&self, key: &[i64], hash: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut s = (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        loop {
            match self.slots[s] {
                NIL => return Err(s),
                g if self.groups.keys.row(g as usize) == key => return Ok(g as usize),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Add `key` as a new group at the empty `slot` [`GroupTable::find`]
    /// returned for it; returns the group's id.
    fn insert(&mut self, slot: usize, key: &[i64]) -> usize {
        let g = self.groups.append(key);
        self.slots[slot] = g as u32;
        if self.groups.len() * 2 > self.slots.len() {
            self.slots = vec![NIL; self.slots.len() * 2];
            for g in 0..self.groups.len() {
                let key = self.groups.keys.row(g);
                let slot = self.find(key, hash_key(key)).expect_err("group keys are distinct");
                self.slots[slot] = g as u32;
            }
        }
        g
    }
}

/// A hash aggregator fed whole batches via [`HashAggregator::push`] and
/// drained by [`HashAggregator::finish`].  Output rows are `group columns ++ one value
/// per aggregate`, emitted in ascending group order (deterministic).
pub struct HashAggregator<'a, 'b> {
    ctx: &'a ExecCtx<'b>,
    group_cols: Vec<usize>,
    aggs: Vec<AggFn>,
    mode: SpillMode,
    max_groups: usize,
    table: GroupTable,
    /// Spilled partial aggregates, in spill order.
    spilled: Partials,
    /// Spilled entries per partition of the group-key hash.  The final
    /// merge is commutative, so what it is charged per partition is all a
    /// partition is for.
    partition_rows: [u64; PARTITIONS],
    /// The current row's group key.
    key: Vec<i64>,
    /// Rows pushed whose hash is not charged yet: settled before a spill
    /// touches the session, and at the end of each push.
    owed: u64,
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
            mode,
            max_groups: (memory_bytes / GROUP_BYTES).max(1),
            table: GroupTable::new(aggs.len()),
            spilled: Partials::new(aggs.len()),
            partition_rows: [0; PARTITIONS],
            key: Vec::with_capacity(group_cols.len()),
            owed: 0,
            group_cols,
            aggs,
            bypass: false,
        }
    }

    /// Whether any data spilled.
    pub fn spilled(&self) -> bool {
        self.spilled.len() > 0
    }

    /// Charge the per-row hashes owed, one call per row, in one
    /// [`Session::charge_each`].
    fn settle(&mut self) {
        let rows = std::mem::take(&mut self.owed);
        self.ctx.session.charge_each(rows, &[CpuCharge::Hashes(1)]);
    }

    /// Account for the entry just appended to the spilled partials.
    fn charge_spill(&mut self, hash: u64) {
        self.settle();
        self.partition_rows[hash as usize % PARTITIONS] += 1;
        if self.spilled.len().is_multiple_of(SPILL_ROWS_PER_PAGE) {
            let file = self.ctx.alloc_temp_file();
            self.ctx.session.write_page(PageId::new(file, 0));
        }
        self.ctx.note_spill();
    }

    /// The resident group of the current row's key — admitted if it is new
    /// and there is room — or `None` if the row must spill.
    fn resident_group(&mut self, hash: u64) -> Option<usize> {
        if self.bypass {
            // Abrupt overflow mode: everything goes straight to disk.
            return None;
        }
        match self.table.find(&self.key, hash) {
            Ok(g) => Some(g),
            Err(slot) if self.table.groups.len() < self.max_groups => {
                Some(self.table.insert(slot, &self.key))
            }
            Err(_) => {
                if self.mode == SpillMode::Abrupt {
                    // Dump the entire table and bypass from now on.
                    let empty = GroupTable::new(self.aggs.len());
                    let dumped = std::mem::replace(&mut self.table, empty).groups;
                    for g in 0..dumped.len() {
                        self.spilled.keys.push(dumped.keys.row(g));
                        self.charge_spill(hash_key(dumped.keys.row(g)));
                    }
                    self.spilled.states.extend(dumped.states);
                    self.bypass = true;
                }
                // Graceful: resident groups stay; this row spills alone.
                None
            }
        }
    }

    /// Accept a batch of input rows, one by one in row order: each is
    /// charged its hash, then whatever spill its group causes.  The hashes
    /// are owed until the next charge, so a run of rows that spill nothing
    /// is charged in one call.
    pub fn push(&mut self, batch: &RowBatch) {
        for i in 0..batch.len() {
            self.owed += 1;
            self.key.clear();
            self.key.extend(self.group_cols.iter().map(|&c| batch.col(c)[i]));
            let hash = hash_key(&self.key);
            let states = match self.resident_group(hash) {
                Some(g) => self.table.groups.states(g),
                None => {
                    let at = self.spilled.append(&self.key);
                    self.charge_spill(hash);
                    self.spilled.states(at)
                }
            };
            for (st, agg) in states.iter_mut().zip(&self.aggs) {
                st.update(agg_input(agg, batch, i));
            }
        }
        self.settle();
    }

    /// Finish: merge spilled partitions and emit `group ++ aggregates`
    /// rows in ascending group order into `sink` — or, with no sink, charge
    /// what emitting them charges without ordering or building them.
    /// Returns rows emitted.
    pub fn finish(mut self, sink: Option<RowSink<'_>>) -> u64 {
        let session: &Session = self.ctx.session;
        // Read back what was spilled.
        if self.spilled.len() > 0 {
            let pages = self.spilled.len().div_ceil(SPILL_ROWS_PER_PAGE) as u32;
            self.ctx.read_back_and_drop(self.ctx.alloc_temp_file(), pages);
        }
        for rows in self.partition_rows {
            session.charge_hashes(rows);
        }
        let width = self.aggs.len();
        for i in 0..self.spilled.len() {
            let key = self.spilled.keys.row(i);
            let g = match self.table.find(key, hash_key(key)) {
                Ok(g) => g,
                Err(slot) => self.table.insert(slot, key),
            };
            let partial = &self.spilled.states[i * width..(i + 1) * width];
            for (st, other) in self.table.groups.states(g).iter_mut().zip(partial) {
                st.merge(other);
            }
        }
        let groups = &self.table.groups;
        // Deterministic output order: sort by group key.
        let n = groups.len() as u64;
        if n > 1 {
            session.charge_compares(n * (64 - (n - 1).leading_zeros()) as u64);
        }
        // One row charge a call, as a served slice counts them.
        let Some(sink) = sink else {
            session.charge_each(n, &[CpuCharge::Rows(1)]);
            return n;
        };
        let mut out = Vec::with_capacity(self.group_cols.len() + width);
        // By the whole key, led by its first column if it has one.
        let lead: &[usize] = if self.group_cols.is_empty() { &[] } else { &[0] };
        for h in sorted_order(&groups.keys, lead, &mut Vec::new()) {
            let g = h.slot as usize;
            out.clear();
            out.extend_from_slice(groups.keys.row(g));
            let states = &groups.states[g * width..(g + 1) * width];
            out.extend(states.iter().zip(&self.aggs).map(|(st, agg)| match agg {
                AggFn::CountStar => st.count,
                AggFn::Sum(_) => st.sum,
                AggFn::Min(_) => st.min,
                AggFn::Max(_) => st.max,
            }));
            session.charge_rows(1);
            sink(&out);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecCtx;
    use crate::ops::testutil::{demo_db, feed};
    use robustmap_storage::Row;

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
        feed(rows.iter().map(Row::values), &mut |b| agg.push(b));
        let mut out = Vec::new();
        agg.finish(Some(&mut |r| out.push(r.to_vec())));
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
