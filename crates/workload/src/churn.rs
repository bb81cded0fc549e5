//! Data churn: deterministic insert/delete/update batches applied to a
//! built workload through the *charged* session path.
//!
//! The paper's maps are measured against a frozen database, but its thesis
//! — actual run-time conditions diverge from compile-time assumptions (§1)
//! — bites hardest when the data itself drifts.  This module turns the
//! static measurement database into a mutating one:
//!
//! * [`ChurnPlan`] is the generator: batch `step` is a **pure function of
//!   `(seed, step)`** (the same splitmix64 draw the statistics sampler
//!   uses), so any run over the same starting workload replays the exact
//!   same mutation sequence — the determinism contract every differential
//!   suite in this repo relies on.
//! * [`ChurnDriver`] is the applier: every heap append/tombstone and every
//!   B+-tree insert/delete for the five catalog indexes goes through a
//!   [`Session`], so mutation cost lands on the simulated clock like any
//!   other work.  Each applied batch bumps the workload's
//!   `config.mutation_epoch`, which re-keys the workload cache: the
//!   churned table no longer addresses the pre-churn table's `wl-*` file.
//!
//! The driver reports each batch as an [`AppliedBatch`] — the `(a, b)`
//! deltas the incremental statistics in [`crate::stats_maint`] fold in,
//! plus the clock/I/O cost the batch charged.

use robustmap_obs::TraceEventKind;
use robustmap_storage::{
    ticks_to_seconds, AccessKind, ChargeLog, HeapFile, IndexDef, IndexId, IoStats, Rid, Row,
    Session, StorageError,
};

use crate::gen::{Workload, COL_A, COL_B};
use crate::stats::draw;

/// Configuration for a churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Value domain of the predicate columns (the base table's row count:
    /// permutation columns hold `0..domain`).
    pub domain: u64,
    /// Seed of the op stream; see [`ChurnPlan::batch`].
    pub seed: u64,
    /// Operations per batch.
    pub batch_ops: usize,
    /// Percent of operations that are inserts (0..=100).
    pub insert_pct: u8,
    /// Percent of operations that are deletes (0..=100, with
    /// `insert_pct + delete_pct <= 100`); the rest are updates.
    pub delete_pct: u8,
    /// Distribution drift in hundredths: inserted/updated rows draw column
    /// `a` uniformly from `100 - drift_hundredths` percent of the domain
    /// (the upper part by default, the lower with [`drift_down`]).  `0`
    /// reproduces the base uniform-over-domain shape (no drift); `50`
    /// concentrates all new values in one half, which steadily
    /// invalidates a frozen histogram's bucket masses.
    ///
    /// [`drift_down`]: ChurnConfig::drift_down
    pub drift_hundredths: u32,
    /// Drift direction: `false` concentrates new values in the *upper*
    /// `100 - drift_hundredths` percent of the domain, `true` in the
    /// *lower*.  Downward drift piles mass onto the small-selectivity
    /// thresholds, so a frozen histogram *under*-estimates exactly where
    /// index-plan/scan choice boundaries live.
    pub drift_down: bool,
}

impl ChurnConfig {
    /// A churn stream matched to `w`'s value domain: update-heavy
    /// (20% insert / 20% delete / 60% update, so the table size stays
    /// roughly constant), 1024-op batches, no drift.
    pub fn for_workload(w: &Workload) -> Self {
        ChurnConfig {
            domain: w.rows(),
            seed: 0xC4u64.wrapping_add(w.config.seed.rotate_left(9)),
            batch_ops: 1024,
            insert_pct: 20,
            delete_pct: 20,
            drift_hundredths: 0,
            drift_down: false,
        }
    }

    /// The same stream with the given upward drift (see
    /// [`ChurnConfig::drift_hundredths`]).
    pub fn with_drift(self, drift_hundredths: u32) -> Self {
        assert!(drift_hundredths < 100, "drift must leave a nonempty range");
        ChurnConfig { drift_hundredths, drift_down: false, ..self }
    }

    /// The same stream with the given *downward* drift (see
    /// [`ChurnConfig::drift_down`]).
    pub fn with_drift_down(self, drift_hundredths: u32) -> Self {
        assert!(drift_hundredths < 100, "drift must leave a nonempty range");
        ChurnConfig { drift_hundredths, drift_down: true, ..self }
    }
}

/// One abstract mutation.  Victims are named by an *ordinal*, resolved by
/// the driver against its live-row list at application time (`ordinal %
/// live_rows`) — the plan stays a pure function of `(seed, step)` without
/// having to know which rids exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Append a new row with these predicate-column values.
    Insert {
        /// Value of column `a`.
        a: i64,
        /// Value of column `b`.
        b: i64,
        /// Value of column `c`.
        c: i64,
        /// Value of the payload column.
        payload: i64,
    },
    /// Tombstone the live row at this ordinal.
    Delete {
        /// Victim ordinal (`% live_rows` at application time).
        ordinal: u64,
    },
    /// Rewrite the predicate columns of the live row at this ordinal
    /// (applied as delete + re-insert, which is what the index
    /// maintenance must do anyway).
    Update {
        /// Victim ordinal (`% live_rows` at application time).
        ordinal: u64,
        /// New value of column `a`.
        a: i64,
        /// New value of column `b`.
        b: i64,
    },
}

/// The deterministic batch generator.
#[derive(Debug, Clone, Copy)]
pub struct ChurnPlan {
    cfg: ChurnConfig,
}

impl ChurnPlan {
    /// A plan over `cfg`.
    pub fn new(cfg: ChurnConfig) -> Self {
        assert!(cfg.domain >= 4, "domain too small");
        assert!(cfg.insert_pct as u32 + cfg.delete_pct as u32 <= 100, "op mix over 100%");
        assert!(cfg.drift_hundredths < 100, "drift must leave a nonempty range");
        ChurnPlan { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// A drifted draw for column `a`: uniform over the upper (or, with
    /// [`ChurnConfig::drift_down`], the lower) `100 - drift_hundredths`
    /// percent of the domain.
    fn drifted_a(&self, r: u64) -> i64 {
        let lo = self.cfg.domain * self.cfg.drift_hundredths as u64 / 100;
        let v = r % (self.cfg.domain - lo);
        if self.cfg.drift_down { v as i64 } else { (lo + v) as i64 }
    }

    /// Batch `step` of the stream — a pure function of `(seed, step)`:
    /// calling it twice, in any order, from any driver, yields the same
    /// ops.  Each op consumes a fixed number of draws, so op `j` of batch
    /// `s` is draw-indexed at `s * batch_ops + j` exactly like
    /// `stats::draw`'s per-row sampling.
    pub fn batch(&self, step: u64) -> Vec<ChurnOp> {
        let n = self.cfg.domain;
        let mut ops = Vec::with_capacity(self.cfg.batch_ops);
        for j in 0..self.cfg.batch_ops as u64 {
            // Four independent draws per op: kind, victim/a, b, c+payload.
            let at = (step * self.cfg.batch_ops as u64 + j) * 4;
            let d0 = draw(self.cfg.seed, at);
            let d1 = draw(self.cfg.seed, at + 1);
            let d2 = draw(self.cfg.seed, at + 2);
            let d3 = draw(self.cfg.seed, at + 3);
            let kind = d0 % 100;
            ops.push(if kind < self.cfg.insert_pct as u64 {
                ChurnOp::Insert {
                    a: self.drifted_a(d1),
                    b: (d2 % n) as i64,
                    c: (d3 % n) as i64,
                    payload: (d3 >> 32) as i64 % (1 << 20),
                }
            } else if kind < (self.cfg.insert_pct + self.cfg.delete_pct) as u64 {
                ChurnOp::Delete { ordinal: d1 }
            } else {
                ChurnOp::Update { ordinal: d1, a: self.drifted_a(d2), b: (d3 % n) as i64 }
            });
        }
        ops
    }
}

/// What one applied batch did — the statistics-maintenance feed plus the
/// cost it charged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppliedBatch {
    /// `(a, b)` of every row added (inserts and the new half of updates).
    pub inserted: Vec<(i64, i64)>,
    /// `(a, b)` of every row removed (deletes and the old half of updates).
    pub deleted: Vec<(i64, i64)>,
    /// Heap rows touched (inserts + deletes + 2 per update).
    pub rows_applied: u64,
    /// Operations by kind: `(inserts, deletes, updates)`.
    pub ops: (u64, u64, u64),
    /// Simulated seconds the batch charged to the session.
    pub seconds: f64,
    /// I/O the batch charged to the session.
    pub io: IoStats,
}

/// Applies [`ChurnPlan`] batches to a workload through a charged session.
///
/// The driver owns the stream position and the live-rid list; applying the
/// same plan to the same starting workload is fully deterministic (see
/// `replaying_a_plan_is_deterministic`).  Batches must run strictly
/// *between* measurement sweeps — the catalog is shared-immutable during a
/// sweep — which the `&mut Workload` receiver enforces at compile time.
#[derive(Debug)]
pub struct ChurnDriver {
    plan: ChurnPlan,
    step: u64,
    live: Vec<Rid>,
    base_rows: u64,
    rows_touched: u64,
    next_orderkey: i64,
}

impl ChurnDriver {
    /// A driver positioned at step 0.  Enumerating the live rids scans the
    /// heap once, uncharged — it models the recovery-time bookkeeping a
    /// storage engine already has, not query work.
    pub fn new(w: &Workload, cfg: ChurnConfig) -> Self {
        let plan = ChurnPlan::new(cfg);
        let s = Session::with_pool_pages(0);
        let heap = &w.db.table(w.table).heap;
        let mut live = Vec::with_capacity(heap.row_count() as usize);
        let mut max_orderkey = -1i64;
        heap.scan(&s, |rid, row| {
            live.push(rid);
            max_orderkey = max_orderkey.max(row.get(crate::gen::COL_ORDERKEY));
        });
        ChurnDriver {
            plan,
            step: 0,
            base_rows: live.len() as u64,
            live,
            rows_touched: 0,
            next_orderkey: max_orderkey + 1,
        }
    }

    /// The plan being applied.
    pub fn plan(&self) -> &ChurnPlan {
        &self.plan
    }

    /// Batches applied so far.
    pub fn steps_applied(&self) -> u64 {
        self.step
    }

    /// Live rows right now.
    pub fn live_rows(&self) -> u64 {
        self.live.len() as u64
    }

    /// Fraction of the base table touched by mutations so far (rows
    /// touched over base rows; an update touches two).  Uncapped: churning
    /// longer than a full table's worth reports > 1.
    pub fn fraction_touched(&self) -> f64 {
        self.rows_touched as f64 / self.base_rows.max(1) as f64
    }

    /// Apply the next batch of the plan to `w`, charging all heap and
    /// index work to `session`, and emit one charge-free
    /// [`TraceEventKind::MutationBatch`] afterwards.  Bumps
    /// `w.config.mutation_epoch`.
    ///
    /// The batch runs in three phases.  *Resolve* walks the ops in order
    /// against the heap and the live list, logging the heap's charges and
    /// emitting each op's index mutations.  *Maintain* applies the whole
    /// batch to each of the five indexes, each into its own log, in two
    /// shares of equal entry bytes per mutation: the two-column trees
    /// `ab, ba` on one scoped helper, the one-column `a, b, c` on the
    /// calling thread.  *Replay* walks the ops in their original order
    /// into `session` — heap fetch, the five index deletes in `[a, b, c,
    /// ab, ba]` order, tombstone, append, the five inserts — so the pool,
    /// the event count and the tracer see the access sequence a
    /// one-op-at-a-time applier makes.  The indexes never feed back into
    /// the heap or the live list, which is what lets the phases split.
    /// Maintain is the largest phase: over 21 batches on a 2^16-row table
    /// (2 vCPUs, medians) resolve takes 9 ms, maintain 39 ms — 61 ms with
    /// one thread per index — and replay 22 ms.
    pub fn apply_batch(&mut self, w: &mut Workload, session: &Session) -> AppliedBatch {
        self.try_apply_batch(w, session)
            .expect("the live rows and the five indexes of a workload resolve")
    }

    fn try_apply_batch(
        &mut self,
        w: &mut Workload,
        session: &Session,
    ) -> Result<AppliedBatch, StorageError> {
        let ops = self.plan.batch(self.step);
        self.step += 1;
        let t0 = session.elapsed_ticks();
        let io0 = session.stats();
        let mut out = AppliedBatch::default();

        let mut heap_log = ChargeLog::new();
        let heap = &mut w.db.table_mut(w.table).heap;
        let mutations = self.resolve(&ops, heap, &mut heap_log, &mut out)?;

        let ids = self.index_ids(w);
        let mut indexes = w.db.indexes_mut(ids).ok_or_else(|| {
            StorageError::UnknownObject(format!("the workload's five indexes {ids:?}"))
        })?;
        let mut index_logs: [ChargeLog; 5] = Default::default();
        // Two shares of equal entry bytes per mutation: the one-column
        // trees `a, b, c` (3 × 16 B) on this thread, `ab, ba` (2 × 24 B)
        // on one helper.
        let (narrow, wide) = indexes.split_at_mut(3);
        let (narrow_logs, wide_logs) = index_logs.split_at_mut(3);
        let mut wide_done = Ok(());
        let narrow_done = std::thread::scope(|scope| {
            scope.spawn(|| wide_done = maintain_share(wide, wide_logs, &mutations));
            maintain_share(narrow, narrow_logs, &mutations)
        });
        narrow_done.and(wide_done)?;

        for k in 0..mutations.len() {
            heap_log.replay_segment(2 * k, session);
            for log in &index_logs {
                log.replay_segment(k, session);
            }
            heap_log.replay_segment(2 * k + 1, session);
        }

        out.seconds = ticks_to_seconds(session.elapsed_ticks() - t0);
        out.io = session.stats().since(&io0);
        self.rows_touched += out.rows_applied;
        w.config.mutation_epoch += 1;
        session.trace_event(TraceEventKind::MutationBatch {
            rows: out.rows_applied,
            inserted: out.ops.0,
            deleted: out.ops.1,
            updated: out.ops.2,
        });
        Ok(out)
    }

    /// Apply batches until `fraction_touched() >= target` (at least one
    /// batch if below target).  Returns the folded [`AppliedBatch`]es.
    pub fn apply_until_fraction(
        &mut self,
        w: &mut Workload,
        session: &Session,
        target: f64,
    ) -> Vec<AppliedBatch> {
        let mut batches = Vec::new();
        while self.fraction_touched() < target {
            batches.push(self.apply_batch(w, session));
        }
        batches
    }

    /// The resolve phase: apply `ops` to the heap and the live list in
    /// order, and return their index mutations in that order.  Each
    /// mutation closes two segments of `heap_log`: the heap work before its
    /// index work (a victim's fetch, or an append) and after it (a
    /// victim's tombstone, or nothing).
    fn resolve(
        &mut self,
        ops: &[ChurnOp],
        heap: &mut HeapFile,
        heap_log: &mut ChargeLog,
        out: &mut AppliedBatch,
    ) -> Result<Vec<IndexMutation>, StorageError> {
        let mut mutations = Vec::with_capacity(2 * ops.len());
        for &op in ops {
            match op {
                ChurnOp::Insert { a, b, c, payload } => {
                    let orderkey = self.next_orderkey;
                    self.next_orderkey += 1;
                    let row = Row::from_slice(&[a, b, c, orderkey, payload]);
                    mutations.push(self.append(row, heap, heap_log, out)?);
                    out.ops.0 += 1;
                }
                ChurnOp::Delete { ordinal } => {
                    if let Some(victim) = self.take(ordinal, heap, heap_log, out)? {
                        mutations.push(victim);
                        out.ops.1 += 1;
                    }
                }
                ChurnOp::Update { ordinal, a, b } => {
                    if let Some(victim) = self.take(ordinal, heap, heap_log, out)? {
                        mutations.push(victim);
                        // Re-insert with the old row's non-predicate
                        // columns; the orderkey is preserved, so updates
                        // do not consume fresh keys.
                        let old = victim.row;
                        let row = Row::from_slice(&[a, b, old.get(2), old.get(3), old.get(4)]);
                        mutations.push(self.append(row, heap, heap_log, out)?);
                        out.ops.2 += 1;
                    }
                }
            }
        }
        Ok(mutations)
    }

    /// Append `row` to the heap and the live list.
    fn append(
        &mut self,
        row: Row,
        heap: &mut HeapFile,
        heap_log: &mut ChargeLog,
        out: &mut AppliedBatch,
    ) -> Result<IndexMutation, StorageError> {
        let rid = heap.append_charged(&row, &*heap_log)?;
        heap_log.mark();
        heap_log.mark();
        self.live.push(rid);
        out.inserted.push((row.get(COL_A), row.get(COL_B)));
        out.rows_applied += 1;
        Ok(IndexMutation { row, rid, insert: true })
    }

    /// Take the live row at `ordinal % live_rows` off the live list and
    /// tombstone it; `None` if no row is live.
    fn take(
        &mut self,
        ordinal: u64,
        heap: &mut HeapFile,
        heap_log: &mut ChargeLog,
        out: &mut AppliedBatch,
    ) -> Result<Option<IndexMutation>, StorageError> {
        if self.live.is_empty() {
            return Ok(None);
        }
        let rid = self.live.swap_remove((ordinal % self.live.len() as u64) as usize);
        let row = heap.fetch(rid, &*heap_log, AccessKind::Random)?;
        heap_log.mark();
        heap.delete_charged(rid, &*heap_log)?;
        heap_log.mark();
        out.deleted.push((row.get(COL_A), row.get(COL_B)));
        out.rows_applied += 1;
        Ok(Some(IndexMutation { row, rid, insert: false }))
    }

    fn index_ids(&self, w: &Workload) -> [IndexId; 5] {
        let ix = &w.indexes;
        [ix.a, ix.b, ix.c, ix.ab, ix.ba]
    }
}

/// One index mutation of a batch, as the resolve phase emits it: the row
/// whose index entries change, where it lives, and which way.
#[derive(Debug, Clone, Copy)]
struct IndexMutation {
    row: Row,
    rid: Rid,
    insert: bool,
}

/// One share of the maintain phase: [`maintain`] each index in turn, into
/// the log beside it.
fn maintain_share(
    indexes: &mut [&mut IndexDef],
    logs: &mut [ChargeLog],
    mutations: &[IndexMutation],
) -> Result<(), StorageError> {
    indexes.iter_mut().zip(logs).try_for_each(|(index, log)| maintain(index, mutations, log))
}

/// The maintain phase for one index: apply every mutation to its tree in
/// order, closing one segment of `log` per mutation.  An insert that finds
/// its entry, or a delete that finds none, is [`StorageError::IndexDrift`].
fn maintain(
    index: &mut IndexDef,
    mutations: &[IndexMutation],
    log: &mut ChargeLog,
) -> Result<(), StorageError> {
    for m in mutations {
        let key = index.key_of(&m.row);
        let applied = if m.insert {
            index.tree.insert(key, m.rid, &*log)
        } else {
            index.tree.delete(key, m.rid, &*log)
        };
        if !applied {
            let index = index.name.clone();
            return Err(StorageError::IndexDrift { index, rid: m.rid, insert: m.insert });
        }
        log.mark();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::gen::{TableBuilder, WorkloadConfig};
    use robustmap_obs::trace::{TraceDetail, TraceSink};
    use robustmap_storage::Key;

    fn small_workload(seed: u64) -> Workload {
        TableBuilder::build(WorkloadConfig { rows: 1 << 10, seed, ..Default::default() })
    }

    /// The one-op-at-a-time applier the three phases of
    /// [`ChurnDriver::apply_batch`] replace: each op's heap and index work
    /// charged straight to the session, in op order.  The reference the
    /// equivalence test holds the phased applier to.
    impl ChurnDriver {
        fn apply_batch_per_op(&mut self, w: &mut Workload, session: &Session) -> AppliedBatch {
            let ops = self.plan.batch(self.step);
            self.step += 1;
            let t0 = session.elapsed_ticks();
            let io0 = session.stats();
            let mut out = AppliedBatch::default();
            for op in ops {
                match op {
                    ChurnOp::Insert { a, b, c, payload } => {
                        let orderkey = self.next_orderkey;
                        self.next_orderkey += 1;
                        self.insert_per_op(w, session, [a, b, c, orderkey, payload], &mut out);
                        out.ops.0 += 1;
                    }
                    ChurnOp::Delete { ordinal } => {
                        if !self.live.is_empty() {
                            let at = (ordinal % self.live.len() as u64) as usize;
                            self.delete_per_op(w, session, at, &mut out);
                            out.ops.1 += 1;
                        }
                    }
                    ChurnOp::Update { ordinal, a, b } => {
                        if !self.live.is_empty() {
                            let at = (ordinal % self.live.len() as u64) as usize;
                            let old = self.delete_per_op(w, session, at, &mut out);
                            let vals = [a, b, old.get(2), old.get(3), old.get(4)];
                            self.insert_per_op(w, session, vals, &mut out);
                            out.ops.2 += 1;
                        }
                    }
                }
            }
            out.seconds = ticks_to_seconds(session.elapsed_ticks() - t0);
            out.io = session.stats().since(&io0);
            self.rows_touched += out.rows_applied;
            w.config.mutation_epoch += 1;
            session.trace_event(TraceEventKind::MutationBatch {
                rows: out.rows_applied,
                inserted: out.ops.0,
                deleted: out.ops.1,
                updated: out.ops.2,
            });
            out
        }

        fn insert_per_op(
            &mut self,
            w: &mut Workload,
            session: &Session,
            vals: [i64; 5],
            out: &mut AppliedBatch,
        ) {
            let row = Row::from_slice(&vals);
            let rid = w.db.table_mut(w.table).heap.append_charged(&row, session).unwrap();
            for idx in self.index_ids(w) {
                let key = w.db.index(idx).key_of(&row);
                w.db.index_def_mut(idx).tree.insert(key, rid, session);
            }
            self.live.push(rid);
            out.inserted.push((vals[0], vals[1]));
            out.rows_applied += 1;
        }

        fn delete_per_op(
            &mut self,
            w: &mut Workload,
            session: &Session,
            at: usize,
            out: &mut AppliedBatch,
        ) -> Row {
            let rid = self.live.swap_remove(at);
            let row = w.db.table(w.table).heap.fetch(rid, session, AccessKind::Random).unwrap();
            for idx in self.index_ids(w) {
                let key = w.db.index(idx).key_of(&row);
                assert!(w.db.index_def_mut(idx).tree.delete(key, rid, session));
            }
            w.db.table_mut(w.table).heap.delete_charged(rid, session).unwrap();
            out.deleted.push((row.get(COL_A), row.get(COL_B)));
            out.rows_applied += 1;
            row
        }
    }

    /// Everything a churned workload and the session that paid for it
    /// expose.
    #[derive(PartialEq)]
    struct Churned {
        ticks: u64,
        stats: IoStats,
        events: u64,
        indexes: [Vec<(Key, Rid)>; 5],
        heap: Vec<(Rid, Row)>,
        live: Vec<Rid>,
    }

    impl Churned {
        fn of(w: &Workload, driver: &ChurnDriver, s: &Session) -> Self {
            let ix = &w.indexes;
            let mut heap = Vec::new();
            let quiet = Session::with_pool_pages(0);
            w.db.table(w.table).heap.scan(&quiet, |rid, row| heap.push((rid, *row)));
            Churned {
                ticks: s.elapsed_ticks(),
                stats: s.stats(),
                events: s.charge_events(),
                indexes: [ix.a, ix.b, ix.c, ix.ab, ix.ba]
                    .map(|id| w.db.index(id).tree.collect_all()),
                heap,
                live: driver.live.clone(),
            }
        }
    }

    /// The phased applier against the per-op reference, bit for bit: every
    /// `AppliedBatch`, then the clock, counters, charge events, the five
    /// indexes, the heap rows and the live list, and the whole trace of a
    /// full-detail traced session.  Over three seeds, drift up and down,
    /// and a delete-only stream that empties the table; the pool is far
    /// smaller than the table's pages, so the replay order decides hits.
    #[test]
    fn phased_batches_charge_what_the_per_op_applier_charges() {
        let streams = |w: &Workload| {
            let base = ChurnConfig { batch_ops: 300, ..ChurnConfig::for_workload(w) };
            [
                (base, 4),
                (base.with_drift(40), 4),
                (base.with_drift_down(70), 4),
                (ChurnConfig { insert_pct: 0, delete_pct: 100, batch_ops: 400, ..base }, 3),
            ]
        };
        for seed in [5, 23, 71] {
            for (cfg, batches) in streams(&small_workload(seed)) {
                let run = |phased: bool| {
                    let mut w = small_workload(seed);
                    let mut driver = ChurnDriver::new(&w, cfg);
                    let s = Session::with_pool_pages(12);
                    let sink = Arc::new(TraceSink::memory(TraceDetail::Full));
                    s.attach_tracer(Arc::clone(&sink), "churn");
                    let applied: Vec<AppliedBatch> = (0..batches)
                        .map(|_| {
                            if phased {
                                driver.apply_batch(&mut w, &s)
                            } else {
                                driver.apply_batch_per_op(&mut w, &s)
                            }
                        })
                        .collect();
                    s.flush_io_window();
                    let trace: Vec<(u32, u64, TraceEventKind)> =
                        sink.events().into_iter().map(|e| (e.track, e.ticks, e.kind)).collect();
                    assert_eq!(sink.dropped(), 0);
                    (applied, Churned::of(&w, &driver, &s), trace, w.config.mutation_epoch)
                };
                let label = format!("seed {seed}, {cfg:?}");
                let (want_batches, want_state, want_trace, want_epoch) = run(false);
                let (batches, state, trace, epoch) = run(true);
                assert_eq!(batches, want_batches, "{label}: applied batches");
                assert!(state == want_state, "{label}: churned state differs");
                assert_eq!(trace.len(), want_trace.len(), "{label}: trace length");
                assert!(trace == want_trace, "{label}: trace events differ");
                assert_eq!(epoch, want_epoch, "{label}: mutation epoch");
                if cfg.delete_pct == 100 {
                    assert!(state.live.is_empty(), "{label}: the delete-only stream empties it");
                    assert!(batches.last().is_some_and(|b| b.ops.1 < cfg.batch_ops as u64));
                }
            }
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_seed_and_step() {
        let cfg = ChurnConfig { domain: 1 << 10, ..ChurnConfig::for_workload(&small_workload(3)) };
        let p1 = ChurnPlan::new(cfg);
        let p2 = ChurnPlan::new(cfg);
        // Same (seed, step) -> same ops, regardless of call order.
        let b5 = p1.batch(5);
        assert_eq!(p1.batch(0), p2.batch(0));
        assert_eq!(p2.batch(5), b5);
        assert_eq!(p1.batch(5), b5);
        // Different steps and seeds differ.
        assert_ne!(p1.batch(0), p1.batch(1));
        let other = ChurnPlan::new(ChurnConfig { seed: cfg.seed ^ 1, ..cfg });
        assert_ne!(other.batch(0), p1.batch(0));
    }

    #[test]
    fn drift_shifts_inserted_values_upward() {
        let base = ChurnConfig {
            domain: 1 << 12,
            seed: 7,
            batch_ops: 4096,
            insert_pct: 100,
            delete_pct: 0,
            drift_hundredths: 0,
            drift_down: false,
        };
        let mean_a = |cfg: ChurnConfig| {
            let ops = ChurnPlan::new(cfg).batch(0);
            let mut sum = 0i64;
            for op in &ops {
                if let ChurnOp::Insert { a, .. } = op {
                    sum += a;
                }
            }
            sum as f64 / ops.len() as f64
        };
        let undrifted = mean_a(base);
        let drifted = mean_a(base.with_drift(50));
        let domain = base.domain as f64;
        assert!((undrifted - domain / 2.0).abs() < domain / 16.0, "no-drift mean {undrifted}");
        assert!((drifted - domain * 0.75).abs() < domain / 16.0, "drifted mean {drifted}");
        // And no drifted value lands in the lower half.
        for op in ChurnPlan::new(base.with_drift(50)).batch(1) {
            if let ChurnOp::Insert { a, .. } = op {
                assert!(a >= (base.domain / 2) as i64);
            }
        }
        // Downward drift mirrors it: mass concentrates in the lower half.
        let down = mean_a(base.with_drift_down(50));
        assert!((down - domain * 0.25).abs() < domain / 16.0, "down-drifted mean {down}");
        for op in ChurnPlan::new(base.with_drift_down(50)).batch(1) {
            if let ChurnOp::Insert { a, .. } = op {
                assert!(a < (base.domain / 2) as i64);
            }
        }
    }

    #[test]
    fn applied_batches_charge_the_session_and_bump_the_epoch() {
        let mut w = small_workload(11);
        let mut driver = ChurnDriver::new(&w, ChurnConfig::for_workload(&w));
        let s = Session::with_pool_pages(64);
        let batch = driver.apply_batch(&mut w, &s);
        assert!(batch.seconds > 0.0, "mutation work must land on the clock");
        assert!(batch.io.page_writes > 0, "mutations dirty pages");
        assert_eq!(batch.seconds, s.elapsed());
        assert_eq!(w.config.mutation_epoch, 1);
        assert_eq!(batch.rows_applied, batch.inserted.len() as u64 + batch.deleted.len() as u64);
        driver.apply_batch(&mut w, &s);
        assert_eq!(w.config.mutation_epoch, 2);
    }

    #[test]
    fn indexes_stay_consistent_with_the_heap_under_churn() {
        let mut w = small_workload(13);
        let cfg = ChurnConfig { batch_ops: 512, ..ChurnConfig::for_workload(&w) }.with_drift(30);
        let mut driver = ChurnDriver::new(&w, cfg);
        let s = Session::with_pool_pages(64);
        for _ in 0..4 {
            driver.apply_batch(&mut w, &s);
        }
        // Every index: invariants hold, entry count equals live rows, and
        // every entry's key matches the row it points at.
        let heap = &w.db.table(w.table).heap;
        let check = Session::with_pool_pages(0);
        for idx in [w.indexes.a, w.indexes.b, w.indexes.c, w.indexes.ab, w.indexes.ba] {
            let def = w.db.index(idx);
            def.tree.check_invariants().unwrap();
            assert_eq!(def.tree.len(), heap.row_count(), "{}", def.name);
            for (key, rid) in def.tree.collect_all() {
                let row = heap.fetch(rid, &check, AccessKind::Random).unwrap();
                assert_eq!(key, def.key_of(&row), "{} at {rid}", def.name);
            }
        }
        assert_eq!(driver.live_rows(), heap.row_count());
    }

    /// An index that lost its entries fails the next delete with an error
    /// that names it, whichever share maintains it, instead of drifting
    /// further from the heap.
    #[test]
    fn a_delete_that_finds_no_index_entry_is_an_error() {
        // `b` on the calling thread's share, `ba` on the helper's.
        for k in [1, 4] {
            let mut w = small_workload(29);
            let cfg = ChurnConfig {
                insert_pct: 0,
                delete_pct: 100,
                batch_ops: 8,
                ..ChurnConfig::for_workload(&w)
            };
            let mut driver = ChurnDriver::new(&w, cfg);
            let def = w.db.index_def_mut(driver.index_ids(&w)[k]);
            let name = def.name.clone();
            let quiet = Session::with_pool_pages(0);
            for (key, rid) in def.tree.collect_all() {
                def.tree.delete(key, rid, &quiet);
            }
            match driver.try_apply_batch(&mut w, &Session::with_pool_pages(12)) {
                Err(StorageError::IndexDrift { index, insert: false, .. }) => {
                    assert_eq!(index, name)
                }
                other => panic!("{name}: want a missing delete, got {other:?}"),
            }
        }
    }

    #[test]
    fn replaying_a_plan_is_deterministic() {
        let build = || small_workload(17);
        let run = |mut w: Workload| {
            let cfg = ChurnConfig::for_workload(&w).with_drift(40);
            let mut driver = ChurnDriver::new(&w, cfg);
            let s = Session::with_pool_pages(64);
            for _ in 0..3 {
                driver.apply_batch(&mut w, &s);
            }
            let idx_entries: Vec<(Key, Rid)> = w.db.index(w.indexes.ab).tree.collect_all();
            (s.elapsed_ticks(), s.stats(), w.db.table(w.table).heap.row_count(), idx_entries)
        };
        assert_eq!(run(build()), run(build()));
    }

    #[test]
    fn fraction_touched_tracks_applied_work() {
        let mut w = small_workload(19);
        let cfg = ChurnConfig { batch_ops: 128, ..ChurnConfig::for_workload(&w) };
        let mut driver = ChurnDriver::new(&w, cfg);
        let s = Session::with_pool_pages(64);
        assert_eq!(driver.fraction_touched(), 0.0);
        let batches = driver.apply_until_fraction(&mut w, &s, 0.5);
        assert!(!batches.is_empty());
        let touched: u64 = batches.iter().map(|b| b.rows_applied).sum();
        assert!((driver.fraction_touched() - touched as f64 / (1 << 10) as f64).abs() < 1e-12);
        assert!(driver.fraction_touched() >= 0.5);
        assert!(driver.fraction_touched() < 0.75, "overshoot bounded by one batch");
    }
}
