//! Plan execution: the one interpreter that turns a [`PlanSpec`] into rows.
//!
//! [`run`] walks the plan tree, wiring the physical operators in
//! [`crate::ops`] together and pushing output [`RowBatch`]es into a
//! caller-provided sink.  All costs land on the [`Session`]'s simulated
//! clock; the caller reads elapsed time and I/O statistics from the
//! returned [`ExecStats`] (or the session) — exactly the measurement the
//! paper's robustness maps are built from.
//!
//! Rows move between operators in batches of [`crate::batch::BATCH_ROWS`],
//! on every edge: sort and hash aggregation take their child's batches
//! whole and write their spill pages while pushing them, into the pool the
//! child reads through.  A `controller` arms the cardinality checkpoints of
//! [`crate::ops::adaptive`]; a static run passes `None`, and the
//! checkpoints are wedges inside the single arm of each plan shape.
//!
//! A run is *read* ([`run`], [`run_collect`]) or *counted* ([`run_count`],
//! what every map cell and served query is).  In a counted run nobody
//! reads the root's rows, so the root builds none: its output columns
//! resolve to none, its kernel's [`BatchEmitter`] counts rows without
//! gathering, a root sort or aggregation finishes without computing an
//! order, and a root join builds no output row.  Children are always
//! read — their parent consumes every column.  Emission is charge-free,
//! and the final pass of a sort or aggregation and a join's output loop
//! issue the same charge calls either way, so the two runs are
//! charge-identical.
//!
//! Every plan's charges are pinned by the golden ledger
//! (`tests/golden/exec_ledger.txt`, asserted by `tests/exec_ledger.rs`
//! through both a counted and a read run).

use std::cell::{Cell, RefCell};

use robustmap_obs::trace::TraceEventKind;
use robustmap_storage::{
    ticks_to_seconds, AccessKind, Database, FileId, IndexId, IoStats, PageId, Row, Session,
    StorageError, TableId, MAX_COLUMNS,
};

use crate::batch::{BatchEmitter, RowBatch};
use crate::expr::Predicate;
use crate::ops;
use crate::ops::adaptive::{observe, SwitchController, SwitchEvent};
use crate::ops::sort::PackedRows;
use crate::plan::{AggFn, CheckpointKind, IndexRangeSpec, JoinAlgo, PlanSpec, Projection};

/// Errors raised during plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The storage layer rejected an access.
    Storage(StorageError),
    /// The plan is malformed (bad column counts, unknown objects, ...).
    BadPlan(String),
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::BadPlan(msg) => write!(f, "bad plan: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-operator execution record (label, output rows, inclusive clock
/// ticks — children included).
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Operator synopsis.
    pub label: String,
    /// Nesting depth in the plan tree (0 = root).
    pub depth: usize,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Inclusive clock ticks (includes children): the exact reading.
    pub ticks: u64,
}

/// Summary of one plan execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecStats {
    /// Rows the plan produced: delivered to the sink of a read run,
    /// counted in a counted one.
    pub rows_out: u64,
    /// Clock ticks (picoseconds) for the whole plan: the exact reading,
    /// the one equivalence suites compare.
    pub ticks: u64,
    /// Simulated seconds for the whole plan: `ticks` as seconds.
    pub seconds: f64,
    /// I/O and CPU counters for the whole plan.
    pub io: IoStats,
    /// Whether any operator spilled to disk.
    pub spilled: bool,
    /// Per-operator breakdown, in completion order.
    pub operators: Vec<OpStats>,
    /// Bails, in firing order.  Empty for a static run and for a
    /// controller that never bailed — such a run is charge-identical to
    /// the static one.
    pub switches: Vec<SwitchEvent>,
}

/// Execution context: the database, the charging session, the query's
/// memory grant, and per-run bookkeeping (spill flag, operator records,
/// switch events), which [`run`] resets on entry.
pub struct ExecCtx<'a> {
    /// The (read-only) database.
    pub db: &'a Database,
    /// The session all work is charged to.
    pub session: &'a Session,
    /// Memory grant for memory-intensive operators, in bytes (the paper
    /// hints memory allocation explicitly).
    pub memory_bytes: usize,
    temp_base: u32,
    spilled: Cell<bool>,
    op_stats: RefCell<Vec<OpStats>>,
    switches: RefCell<Vec<SwitchEvent>>,
}

impl<'a> ExecCtx<'a> {
    /// A context with the given memory grant.
    pub fn new(db: &'a Database, session: &'a Session, memory_bytes: usize) -> Self {
        ExecCtx {
            db,
            session,
            memory_bytes,
            temp_base: db.temp_file_base(),
            spilled: Cell::new(false),
            op_stats: RefCell::new(Vec::new()),
            switches: RefCell::new(Vec::new()),
        }
    }

    /// Allocate a file id for a temporary (spill) file; never collides
    /// with catalog objects.  Allocation goes through the session's pool
    /// — one central counter per (shared) buffer pool — so interleaved
    /// spills from concurrently served queries can never receive the same
    /// id.  On a private session the sequence is `temp_base + 0, 1, ...`,
    /// exactly the pre-refactor per-context numbering.
    pub fn alloc_temp_file(&self) -> FileId {
        self.session.alloc_temp_file(self.temp_base)
    }

    /// Write `pages` pages of a fresh temp file, read them back in order
    /// and drop the file from the pool: what a spilled hash partition or
    /// input costs on its way out and back in.
    pub(crate) fn spill_round_trip(&self, pages: u32) {
        let file = self.alloc_temp_file();
        for p in 0..pages {
            self.session.write_page(PageId::new(file, p));
        }
        self.read_back_and_drop(file, pages);
    }

    /// Read pages `0..pages` of the temp file `file` back in order, then
    /// drop them from the pool: how every spilled run, partition and
    /// aggregation state comes back in.
    pub(crate) fn read_back_and_drop(&self, file: FileId, pages: u32) {
        for p in 0..pages {
            self.session.read_page(PageId::new(file, p), AccessKind::Sequential);
        }
        self.session.invalidate_file(file, pages);
    }

    /// Record that some operator spilled.
    pub fn note_spill(&self) {
        self.spilled.set(true);
    }

    /// Whether any operator spilled so far in the current run.
    pub fn spilled(&self) -> bool {
        self.spilled.get()
    }

    fn record_op(&self, label: String, depth: usize, rows_out: u64, ticks: u64) {
        self.op_stats.borrow_mut().push(OpStats { label, depth, rows_out, ticks });
    }

    pub(crate) fn record_switch(&self, event: SwitchEvent) {
        self.switches.borrow_mut().push(event);
    }
}

/// Execute `plan` under `controller` (`None` is a static run), pushing
/// every output batch into `sink`.  Returns the execution summary;
/// timings/IO are also observable on the session.
pub fn run(
    plan: &PlanSpec,
    ctx: &ExecCtx<'_>,
    controller: Option<&dyn SwitchController>,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<ExecStats, ExecError> {
    run_as(plan, ctx, controller, Output::Read, sink)
}

/// Whether anyone reads a node's rows.  Only the root of a counted run is
/// not read; [`shape`] is the one place that decides what that saves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Output {
    /// The consumer reads every output column of every row.
    Read,
    /// The consumer only counts the rows.
    Counted,
}

/// What [`run`] and [`run_count`] both run: `output` says whether the
/// root's rows are read.
fn run_as(
    plan: &PlanSpec,
    ctx: &ExecCtx<'_>,
    controller: Option<&dyn SwitchController>,
    output: Output,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<ExecStats, ExecError> {
    // A context may be reused; a previous run (failed ones included) must
    // not leak its records into this one.
    ctx.spilled.set(false);
    ctx.op_stats.borrow_mut().clear();
    ctx.switches.borrow_mut().clear();
    check_refs(plan, ctx.db)?;
    let t0 = ctx.session.elapsed_ticks();
    let io0 = ctx.session.stats();
    let rows = node(plan, ctx, controller, 0, output, sink)?;
    let ticks = ctx.session.elapsed_ticks() - t0;
    Ok(ExecStats {
        rows_out: rows,
        ticks,
        seconds: ticks_to_seconds(ticks),
        io: ctx.session.stats().since(&io0),
        spilled: ctx.spilled(),
        operators: ctx.op_stats.take(),
        switches: ctx.switches.take(),
    })
}

/// [`run`] with nobody reading the output: the root counts its rows and
/// builds none of them (see the module docs), charge for charge what
/// [`run`] charges.  The entry point every map cell, served query and
/// layer probe measures through.
pub fn run_count(
    plan: &PlanSpec,
    ctx: &ExecCtx<'_>,
    controller: Option<&dyn SwitchController>,
) -> Result<ExecStats, ExecError> {
    run_as(plan, ctx, controller, Output::Counted, &mut |_| {})
}

/// [`run`], collecting all output rows (tests and small results only).
pub fn run_collect(
    plan: &PlanSpec,
    ctx: &ExecCtx<'_>,
    controller: Option<&dyn SwitchController>,
) -> Result<(ExecStats, Vec<Row>), ExecError> {
    let mut rows = Vec::new();
    let stats = run(plan, ctx, controller, &mut |b| rows.extend((0..b.len()).map(|i| b.row(i))))?;
    Ok((stats, rows))
}

/// `Err(BadPlan)` if `plan` names a table or an index `db` does not have,
/// bounds an index range with keys of another arity than the index's, or
/// a leaf of it names a column its input does not have: predicates,
/// residuals and projections against the table's arity, key filters and
/// covering projections against the key's.  [`Database::table`] and
/// [`Database::index`] index unchecked, `Tree::seek` asserts its key's
/// arity, and the scan kernels read column positions unchecked, so this
/// runs before the first operator does: a bad reference is a typed error
/// with nothing charged, not a panic half-way through a burst.
fn check_refs(plan: &PlanSpec, db: &Database) -> Result<(), ExecError> {
    let known = |what: &str, id: u32, count: usize| {
        let unknown = || ExecError::BadPlan(format!("unknown {what} #{id}"));
        ((id as usize) < count).then_some(()).ok_or_else(unknown)
    };
    // The arity of a table's rows and of an index's keys, the id checked
    // on the way; an index that exists is on a table that does.
    let row_arity = |t: TableId| {
        known("table", t.0, db.table_count()).map(|()| db.table(t).heap.schema().arity())
    };
    let key_arity =
        |i: IndexId| known("index", i.0, db.index_count()).map(|()| db.index(i).tree.key_arity());
    // The key arity of a range's index, both bounds checked against it.
    let range = |scan: &IndexRangeSpec| {
        let arity = key_arity(scan.index)?;
        match [scan.range.lo, scan.range.hi].iter().find(|bound| bound.arity() != arity) {
            Some(bound) => Err(ExecError::BadPlan(format!(
                "a {}-column range bound on index #{}, whose keys have {arity} columns",
                bound.arity(),
                scan.index.0
            ))),
            None => Ok(arity),
        }
    };
    let fetched_arity = |i: IndexId| db.table(db.index(i).table).heap.schema().arity();
    let pred = |what: &str, p: &Predicate, arity: usize| {
        check_cols(what, p.terms().iter().map(|term| term.col), arity)
    };
    match plan {
        PlanSpec::TableScan { table, pred: p, project }
        | PlanSpec::ParallelTableScan { table, pred: p, project, .. } => {
            let arity = row_arity(*table)?;
            pred("predicate", p, arity)?;
            check_projection(project, arity)
        }
        PlanSpec::IndexFetch { scan, key_filter, residual, project, .. } => {
            pred("key filter", key_filter, range(scan)?)?;
            let arity = fetched_arity(scan.index);
            pred("residual", residual, arity)?;
            check_projection(project, arity)
        }
        PlanSpec::CoveringIndexScan { scan, residual, project } => {
            let arity = range(scan)?;
            pred("residual", residual, arity)?;
            check_projection(project, arity)
        }
        PlanSpec::Mdam { index, project, .. } => check_projection(project, key_arity(*index)?),
        PlanSpec::IndexIntersect { left, right, residual, project, .. } => {
            range(left).and(range(right))?;
            let arity = fetched_arity(left.index);
            pred("residual", residual, arity)?;
            check_projection(project, arity)
        }
        PlanSpec::CoveringRidJoin { left, right, project, .. } => {
            check_projection(project, range(left)? + range(right)?)
        }
        PlanSpec::Join { left, right, .. } => check_refs(left, db).and(check_refs(right, db)),
        PlanSpec::Sort { input, .. } | PlanSpec::HashAgg { input, .. } => check_refs(input, db),
    }
}

/// Output arity of a plan (what its sink receives per row) — sizes the
/// [`RowBatch`] columns of operators that re-emit a child's rows.
fn plan_out_arity(plan: &PlanSpec, db: &Database) -> usize {
    match plan {
        PlanSpec::TableScan { table, project, .. }
        | PlanSpec::ParallelTableScan { table, project, .. } => {
            project.resolve(db.table(*table).heap.schema().arity()).len()
        }
        PlanSpec::IndexFetch { scan: IndexRangeSpec { index, .. }, project, .. }
        | PlanSpec::IndexIntersect { left: IndexRangeSpec { index, .. }, project, .. } => {
            project.resolve(db.table(db.index(*index).table).heap.schema().arity()).len()
        }
        PlanSpec::CoveringIndexScan { scan: IndexRangeSpec { index, .. }, project, .. }
        | PlanSpec::Mdam { index, project, .. } => {
            project.resolve(db.index(*index).tree.key_arity()).len()
        }
        PlanSpec::CoveringRidJoin { left, right, project, .. } => {
            let arity =
                db.index(left.index).tree.key_arity() + db.index(right.index).tree.key_arity();
            project.resolve(arity).len()
        }
        PlanSpec::Join { left, right, project, .. } => {
            project.resolve(plan_out_arity(left, db) + plan_out_arity(right, db)).len()
        }
        PlanSpec::Sort { input, .. } => plan_out_arity(input, db),
        PlanSpec::HashAgg { group_cols, aggs, .. } => group_cols.len() + aggs.len(),
    }
}

/// What running one plan shape came to.
enum Outcome {
    /// The shape ran to completion and emitted this many rows.
    Rows(u64),
    /// A controller abandoned the shape before it emitted anything; run
    /// this plan in its place.
    Bail(PlanSpec),
}

/// Run one plan node: the operator span, the per-operator record, and —
/// when a controller bails — the hand-over to the replacement plan, whose
/// output is read or counted like the plan it replaces.
fn node(
    plan: &PlanSpec,
    ctx: &ExecCtx<'_>,
    controller: Option<&dyn SwitchController>,
    depth: usize,
    output: Output,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    // Charge-free operator span: tracing reads the clock, never advances
    // it.  The end event is emitted on the error and bail paths too
    // (rows = 0), so every span closes.
    let traced = ctx.session.is_traced();
    let name = plan.synopsis();
    if traced {
        ctx.session.flush_io_window();
        ctx.session
            .trace_event(TraceEventKind::OpBegin { name: name.clone(), depth: depth as u32 });
    }
    let t0 = ctx.session.elapsed_ticks();
    let result = shape(plan, ctx, controller, depth, output, sink);
    if traced {
        ctx.session.flush_io_window();
        ctx.session.trace_event(TraceEventKind::OpEnd {
            depth: depth as u32,
            rows: if let Ok(Outcome::Rows(n)) = &result { *n } else { 0 },
        });
    }
    match result? {
        Outcome::Rows(rows) => {
            ctx.record_op(name, depth, rows, ctx.session.elapsed_ticks() - t0);
            Ok(rows)
        }
        Outcome::Bail(alt) => {
            // Nothing is rolled back: the sunk prefix stays on the clock,
            // recorded under the abandoned operator's label with zero
            // output.  The replacement is the hedge — there is nothing
            // left to hedge with — so it runs with switching disabled.
            ctx.record_op(
                format!("{name} [abandoned]"),
                depth,
                0,
                ctx.session.elapsed_ticks() - t0,
            );
            check_refs(&alt, ctx.db)?;
            node(&alt, ctx, None, depth, output, sink)
        }
    }
}

/// Run `plan` to completion and materialise its output packed (collection
/// is charge-free).
fn materialise(
    plan: &PlanSpec,
    ctx: &ExecCtx<'_>,
    controller: Option<&dyn SwitchController>,
    depth: usize,
) -> Result<PackedRows, ExecError> {
    let mut rows = PackedRows::default();
    node(plan, ctx, controller, depth, Output::Read, &mut |b| rows.extend_from_batch(b))?;
    Ok(rows)
}

/// Re-emit columns `cols` of the rows a blocking operator's `finish`
/// produces as batches — or, when they are only counted, let it finish
/// without producing them.
fn emit_rows(
    cols: &[usize],
    output: Output,
    sink: &mut dyn FnMut(&RowBatch),
    finish: impl FnOnce(Option<ops::RowSink<'_>>) -> Result<u64, ExecError>,
) -> Result<u64, ExecError> {
    if output == Output::Counted {
        return finish(None);
    }
    let mut emitter = BatchEmitter::new(cols.len());
    let produced = finish(Some(&mut |row| emitter.push_projected_slice(row, cols, sink)))?;
    emitter.flush(sink);
    Ok(produced)
}

/// `Err(BadPlan)` if one of an operator's column references does not exist
/// in the `arity` columns its input produces.
fn check_cols(
    what: &str,
    cols: impl IntoIterator<Item = usize>,
    arity: usize,
) -> Result<(), ExecError> {
    match cols.into_iter().find(|&c| c >= arity) {
        Some(c) => Err(ExecError::BadPlan(format!(
            "{what} column {c} does not exist in a {arity}-column input"
        ))),
        None => Ok(()),
    }
}

/// [`check_cols`] for a projection ([`Projection::All`] names no column).
fn check_projection(project: &Projection, arity: usize) -> Result<(), ExecError> {
    match project {
        Projection::All => Ok(()),
        Projection::Columns(cols) => check_cols("projection", cols.iter().copied(), arity),
    }
}

/// `Err(BadPlan)` if an operator would build rows wider than a [`Row`].
fn check_width(what: &str, arity: usize) -> Result<(), ExecError> {
    if arity > MAX_COLUMNS {
        return Err(ExecError::BadPlan(format!(
            "{what} builds {arity}-column rows; the limit is {MAX_COLUMNS}"
        )));
    }
    Ok(())
}

/// The interpreter proper: one arm per plan shape.  Every charge a plan
/// makes is issued here or in the operator the arm calls, and none
/// depends on `controller` (unless it bails) or `output`; a checkpoint
/// sits between the charge that produced a materialisation and the charge
/// that consumes it.
fn shape(
    plan: &PlanSpec,
    ctx: &ExecCtx<'_>,
    controller: Option<&dyn SwitchController>,
    depth: usize,
    output: Output,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<Outcome, ExecError> {
    // The one place an arm's output columns are resolved, as positions in
    // the `arity` columns it gathers from: none when the rows are only
    // counted, so the arm's emitter counts them without gathering.
    let out_cols = |project: &Projection, arity: usize| match output {
        Output::Read => project.resolve(arity),
        Output::Counted => Vec::new(),
    };
    let rows = match plan {
        PlanSpec::TableScan { table, pred, project } => {
            let table = ctx.db.table(*table);
            let cols = out_cols(project, table.heap.schema().arity());
            ops::table_scan::run(table, pred, &cols, ctx.session, sink)
        }
        PlanSpec::IndexFetch { scan, key_filter, fetch, residual, project } => {
            let index = ctx.db.index(scan.index);
            let rids = ops::index_scan::collect_rids_filtered(
                index,
                &scan.range,
                key_filter,
                ctx.session,
            );
            if let Some(alt) = observe(ctx, controller, CheckpointKind::RidFeed, rids.len() as u64) {
                return Ok(Outcome::Bail(alt));
            }
            let heap = &ctx.db.table(index.table).heap;
            let cols = out_cols(project, heap.schema().arity());
            ops::fetch::run(heap, rids, fetch, residual, &cols, ctx.session, sink)?
        }
        PlanSpec::CoveringIndexScan { scan, residual, project } => {
            let index = ctx.db.index(scan.index);
            let cols = out_cols(project, index.tree.key_arity());
            let range = &scan.range;
            ops::index_scan::run_covering(index, range, residual, &cols, ctx.session, sink)
        }
        PlanSpec::Mdam { index, col_ranges, project } => {
            let idx = ctx.db.index(*index);
            let proj = out_cols(project, idx.tree.key_arity());
            let mut emitter = BatchEmitter::new(proj.len());
            if controller.is_none() {
                // Nobody can abandon the scan: stream, hold nothing.
                ops::mdam::run(idx, col_ranges, ctx.session, &mut |key| {
                    emitter.push_projected_slice(key, &proj, sink);
                    true
                })?;
            } else {
                // Hold the output back (charge-free, like every emission)
                // so a bail discards it instead of duplicating rows ahead
                // of the fallback plan's own output.
                let mut held = PackedRows::default();
                let mut alt: Option<PlanSpec> = None;
                ops::mdam::run(idx, col_ranges, ctx.session, &mut |key| {
                    held.push(key);
                    let n = held.len() as u64;
                    if n.is_power_of_two() {
                        alt = observe(ctx, controller, CheckpointKind::ScanOut, n);
                    }
                    alt.is_none()
                })?;
                if let Some(a) = alt {
                    return Ok(Outcome::Bail(a));
                }
                for i in 0..held.len() {
                    emitter.push_projected_slice(held.row(i), &proj, sink);
                }
            }
            emitter.flush(sink);
            emitter.produced()
        }
        PlanSpec::IndexIntersect { left, right, algo, fetch, residual, project } => {
            let li = ctx.db.index(left.index);
            let ri = ctx.db.index(right.index);
            if li.table != ri.table {
                return Err(ExecError::BadPlan(
                    "index intersection across different tables".into(),
                ));
            }
            let lrids = ops::index_scan::collect_rids(li, &left.range, ctx.session);
            let rrids = ops::index_scan::collect_rids(ri, &right.range, ctx.session);
            let heap = &ctx.db.table(li.table).heap;
            let surviving = ops::rid_join::intersect_rids(lrids, rrids, *algo, heap.span(), ctx);
            let survivors = surviving.len() as u64;
            if let Some(alt) = observe(ctx, controller, CheckpointKind::IntersectOut, survivors) {
                return Ok(Outcome::Bail(alt));
            }
            let cols = out_cols(project, heap.schema().arity());
            ops::fetch::run(heap, surviving, fetch, residual, &cols, ctx.session, sink)?
        }
        PlanSpec::CoveringRidJoin { left, right, algo, project } => {
            let li = ctx.db.index(left.index);
            let ri = ctx.db.index(right.index);
            if li.table != ri.table {
                return Err(ExecError::BadPlan("covering rid join across different tables".into()));
            }
            let lentries = ops::index_scan::collect_entries(li, &left.range, ctx.session);
            let rentries = ops::index_scan::collect_entries(ri, &right.range, ctx.session);
            let arity = [li.tree.key_arity(), ri.tree.key_arity()];
            let proj = out_cols(project, arity[0] + arity[1]);
            let mut emitter = BatchEmitter::new(proj.len());
            let span = ctx.db.table(li.table).heap.span();
            ops::rid_join::covering_join(lentries, rentries, arity, *algo, span, ctx, &mut |row| {
                emitter.push_projected_slice(row.values(), &proj, sink);
            });
            emitter.flush(sink);
            emitter.produced()
        }
        PlanSpec::Join { left, right, left_key, right_key, algo, memory_bytes, project } => {
            let (larity, rarity) = (plan_out_arity(left, ctx.db), plan_out_arity(right, ctx.db));
            check_cols("join left key", [*left_key], larity)?;
            check_cols("join right key", [*right_key], rarity)?;
            check_width("join", larity + rarity)?;
            check_projection(project, larity + rarity)?;
            let lrows = materialise(left, ctx, controller, depth + 1)?;
            let rrows = materialise(right, ctx, controller, depth + 1)?;
            let cols = out_cols(project, larity + rarity);
            emit_rows(&cols, output, sink, |out| match *algo {
                JoinAlgo::SortMerge => ops::join::sort_merge_join(
                    lrows,
                    rrows,
                    *left_key,
                    *right_key,
                    *memory_bytes,
                    ctx,
                    out,
                ),
                JoinAlgo::Hash { build_left } => {
                    let (b, p, bk, pk, swap) = if build_left {
                        (lrows, rrows, *left_key, *right_key, false)
                    } else {
                        (rrows, lrows, *right_key, *left_key, true)
                    };
                    ops::join::hash_join(b, p, bk, pk, *memory_bytes, swap, ctx, out)
                }
            })?
        }
        PlanSpec::ParallelTableScan { table, pred, project, dop, skew_permille } => {
            let table = ctx.db.table(*table);
            let cols = out_cols(project, table.heap.schema().arity());
            ops::parallel_scan::run(
                table,
                pred,
                &cols,
                *dop,
                *skew_permille as f64 / 1000.0,
                ctx.session,
                sink,
            )?
        }
        PlanSpec::Sort { input, key_cols, mode, memory_bytes } => {
            let arity = plan_out_arity(input, ctx.db);
            if key_cols.is_empty() {
                return Err(ExecError::BadPlan("sort without key columns".into()));
            }
            check_cols("sort key", key_cols.iter().copied(), arity)?;
            let mut sorter =
                ops::sort::ExternalSorter::new(ctx, key_cols.clone(), *mode, *memory_bytes);
            let push = &mut |b: &RowBatch| sorter.push(b);
            node(input, ctx, controller, depth + 1, Output::Read, push)?;
            let cols = out_cols(&Projection::All, arity);
            emit_rows(&cols, output, sink, |out| Ok(sorter.finish(out)))?
        }
        PlanSpec::HashAgg { input, group_cols, aggs, mode, memory_bytes } => {
            let arity = plan_out_arity(input, ctx.db);
            check_cols("group-by", group_cols.iter().copied(), arity)?;
            let agg_inputs = aggs.iter().filter_map(|agg| match agg {
                AggFn::CountStar => None,
                AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) => Some(*c),
            });
            check_cols("aggregate input", agg_inputs, arity)?;
            check_width("aggregation", group_cols.len() + aggs.len())?;
            let mut agg = ops::agg::HashAggregator::new(
                ctx,
                group_cols.clone(),
                aggs.clone(),
                *mode,
                *memory_bytes,
            );
            let push = &mut |b: &RowBatch| agg.push(b);
            node(input, ctx, controller, depth + 1, Output::Read, push)?;
            let cols = out_cols(&Projection::All, group_cols.len() + aggs.len());
            emit_rows(&cols, output, sink, |out| Ok(agg.finish(out)))?
        }
    };
    Ok(Outcome::Rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColRange;
    use crate::ops::testutil::demo_db;
    use crate::expr::Predicate;
    use crate::plan::{
        AggFn, FetchKind, ImprovedFetchConfig, IntersectAlgo, KeyRange, Projection, SpillMode,
    };

    /// Two contexts spilling against one shared pool must never receive
    /// the same temp file id, no matter how their allocations interleave —
    /// the collision the central allocator exists to prevent.  (With the
    /// old per-context counters, both sequences below would have been
    /// `base+0, base+1, ...`.)
    #[test]
    fn interleaved_spills_never_share_temp_files() {
        use robustmap_storage::{CostModel, EvictionPolicy, SharedBufferPool};
        use std::sync::Arc;
        let (db, _t) = demo_db(64);
        let pool = Arc::new(SharedBufferPool::new(16, EvictionPolicy::Lru));
        let s1 = Session::on_shared(CostModel::hdd_2009(), Arc::clone(&pool));
        let s2 = Session::on_shared(CostModel::hdd_2009(), Arc::clone(&pool));
        let ctx1 = ExecCtx::new(&db, &s1, 1 << 20);
        let ctx2 = ExecCtx::new(&db, &s2, 1 << 20);
        let mut seen = std::collections::HashSet::new();
        for _round in 0..5 {
            // The schedule of two interleaved external sorts: each query
            // alternately allocates a run file.
            for ctx in [&ctx1, &ctx2] {
                let id = ctx.alloc_temp_file();
                assert!(id.0 >= db.temp_file_base());
                assert!(seen.insert(id), "temp file {id:?} allocated twice");
            }
        }
        assert_eq!(seen.len(), 10);
    }

    /// All plans answering `SELECT * FROM demo WHERE a <= ca AND b <= cb`
    /// must agree, whatever the physical shape.
    #[test]
    fn all_two_predicate_plans_agree() {
        let n = 2048i64;
        let (mut db, t) = demo_db(n);
        let idx_a = db.create_index("idx_a", t, &[0]).unwrap();
        let idx_b = db.create_index("idx_b", t, &[1]).unwrap();
        let idx_ab = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let (ca, cb) = (511i64, 1023i64);
        let pred = Predicate::all_of(vec![ColRange::at_most(0, ca), ColRange::at_most(1, cb)]);
        let improved = FetchKind::Improved(ImprovedFetchConfig::default());

        let plans: Vec<PlanSpec> = vec![
            PlanSpec::TableScan { table: t, pred: pred.clone(), project: Projection::All },
            PlanSpec::IndexFetch {
                scan: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ca, 1) },
                key_filter: Predicate::always_true(),
                fetch: improved,
                residual: Predicate::single(ColRange::at_most(1, cb)),
                project: Projection::All,
            },
            PlanSpec::IndexFetch {
                scan: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, cb, 1) },
                key_filter: Predicate::always_true(),
                fetch: FetchKind::Traditional,
                residual: Predicate::single(ColRange::at_most(0, ca)),
                project: Projection::All,
            },
            PlanSpec::IndexIntersect {
                left: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ca, 1) },
                right: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, cb, 1) },
                algo: IntersectAlgo::MergeJoin,
                fetch: improved,
                residual: Predicate::always_true(),
                project: Projection::All,
            },
            PlanSpec::IndexIntersect {
                left: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, cb, 1) },
                right: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ca, 1) },
                algo: IntersectAlgo::HashJoin { build_left: false },
                fetch: FetchKind::BitmapSorted,
                residual: Predicate::always_true(),
                project: Projection::All,
            },
        ];

        let mut reference: Option<Vec<Vec<i64>>> = None;
        for plan in &plans {
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            let (stats, rows) = run_collect(plan, &ctx, None).unwrap();
            let mut rows: Vec<Vec<i64>> = rows.iter().map(|r| r.values().to_vec()).collect();
            rows.sort();
            assert_eq!(stats.rows_out as usize, rows.len());
            match &reference {
                None => reference = Some(rows),
                Some(want) => assert_eq!(&rows, want, "plan {} disagrees", plan.synopsis()),
            }
        }
        // Covering plan in key space: project (a, b) and compare counts.
        let s = Session::with_pool_pages(256);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let covering = PlanSpec::CoveringIndexScan {
            scan: IndexRangeSpec { index: idx_ab, range: KeyRange::on_leading(i64::MIN, ca, 2) },
            residual: Predicate::single(ColRange::at_most(1, cb)),
            project: Projection::All,
        };
        let (stats, _) = run_collect(&covering, &ctx, None).unwrap();
        assert_eq!(stats.rows_out as usize, reference.unwrap().len());
        // MDAM over the same index agrees too.
        let mdam = PlanSpec::Mdam {
            index: idx_ab,
            col_ranges: vec![(i64::MIN, ca), (i64::MIN, cb)],
            project: Projection::All,
        };
        let ctx2 = ExecCtx::new(&db, &s, 1 << 20);
        let (mstats, _) = run_collect(&mdam, &ctx2, None).unwrap();
        assert_eq!(mstats.rows_out, stats.rows_out);
    }

    #[test]
    fn covering_rid_join_covers_two_columns() {
        let n = 1024i64;
        let (mut db, t) = demo_db(n);
        let idx_a = db.create_index("idx_a", t, &[0]).unwrap();
        let idx_c = db.create_index("idx_c", t, &[2]).unwrap();
        // SELECT a, c WHERE a <= 99 — no single-column index covers (a, c).
        let plan = PlanSpec::CoveringRidJoin {
            left: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, 99, 1) },
            right: IndexRangeSpec { index: idx_c, range: KeyRange::full(1) },
            algo: IntersectAlgo::HashJoin { build_left: true },
            project: Projection::All,
        };
        let s = Session::with_pool_pages(256);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let (stats, rows) = run_collect(&plan, &ctx, None).unwrap();
        assert_eq!(stats.rows_out, 100);
        // Verify against the base table: c = 7 * row_number and matches a.
        let truth: std::collections::BTreeSet<(i64, i64)> = {
            let s2 = Session::with_pool_pages(0);
            let mut set = std::collections::BTreeSet::new();
            db.table(t).heap.scan(&s2, |_, row| {
                if row.get(0) <= 99 {
                    set.insert((row.get(0), row.get(2)));
                }
            });
            set
        };
        let got: std::collections::BTreeSet<(i64, i64)> =
            rows.iter().map(|r| (r.get(0), r.get(1))).collect();
        assert_eq!(got, truth);
    }

    #[test]
    fn sort_plan_orders_output() {
        let (mut db, t) = demo_db(512);
        let _ = db.create_index("idx_a", t, &[0]).unwrap();
        let plan = PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: t,
                pred: Predicate::always_true(),
                project: Projection::Columns(vec![1, 2]),
            }),
            key_cols: vec![0],
            mode: SpillMode::Graceful,
            memory_bytes: 1 << 20,
        };
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let (stats, rows) = run_collect(&plan, &ctx, None).unwrap();
        assert_eq!(stats.rows_out, 512);
        assert!(rows.windows(2).all(|w| w[0].get(0) <= w[1].get(0)));
        // Two operators recorded: Sort and its child TableScan.
        assert_eq!(stats.operators.len(), 2);
        assert_eq!(stats.operators[0].depth, 1); // child finishes first
        assert_eq!(stats.operators[1].depth, 0);
    }

    #[test]
    fn agg_plan_counts_groups() {
        let (db, t) = demo_db(1000);
        let plan = PlanSpec::HashAgg {
            input: Box::new(PlanSpec::TableScan {
                table: t,
                pred: Predicate::always_true(),
                project: Projection::Columns(vec![0]),
            }),
            group_cols: vec![],
            aggs: vec![AggFn::CountStar, AggFn::Max(0)],
            mode: SpillMode::Graceful,
            memory_bytes: 1 << 20,
        };
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let (_, rows) = run_collect(&plan, &ctx, None).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values(), &[1000, 999]);
    }

    /// A counted join builds no output row, yet charges what a read one
    /// does: sort-merge and hash on either side, in memory and spilling.
    #[test]
    fn a_counted_join_charges_like_a_read_join() {
        let (db, t) = demo_db(3000);
        let scan = |pred| {
            Box::new(PlanSpec::TableScan { table: t, pred, project: Projection::Columns(vec![0, 2]) })
        };
        for algo in
            [JoinAlgo::SortMerge, JoinAlgo::Hash { build_left: true }, JoinAlgo::Hash { build_left: false }]
        {
            for memory_bytes in [1 << 20, 2048] {
                let plan = PlanSpec::Join {
                    left: scan(Predicate::always_true()),
                    right: scan(Predicate::single(ColRange::at_most(0, 1999))),
                    left_key: 0,
                    right_key: 0,
                    algo,
                    memory_bytes,
                    project: Projection::Columns(vec![3, 0]),
                };
                let label = format!("{algo:?}, {memory_bytes} bytes");
                let run_on = |read: bool| {
                    let s = Session::with_pool_pages(64);
                    let ctx = ExecCtx::new(&db, &s, memory_bytes);
                    let stats = if read {
                        let (stats, rows) = run_collect(&plan, &ctx, None).unwrap();
                        assert_eq!(rows.len() as u64, stats.rows_out, "{label}");
                        stats
                    } else {
                        run_count(&plan, &ctx, None).unwrap()
                    };
                    (stats.rows_out, stats.ticks, stats.io, stats.spilled, s.charge_events())
                };
                let counted = run_on(false);
                assert_eq!(counted, run_on(true), "{label}");
                assert_eq!((counted.0, counted.3), (2000, memory_bytes == 2048), "{label}");
            }
        }
    }

    #[test]
    fn exec_stats_reflect_session_deltas() {
        let (db, t) = demo_db(256);
        let plan = PlanSpec::TableScan {
            table: t,
            pred: Predicate::always_true(),
            project: Projection::All,
        };
        let s = Session::with_pool_pages(64);
        // Pre-charge some unrelated work; stats must only cover the plan.
        s.charge_rows(1_000_000);
        let before = s.elapsed_ticks();
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let stats = run_count(&plan, &ctx, None).unwrap();
        assert_eq!(stats.rows_out, 256);
        assert_eq!(stats.ticks, s.elapsed_ticks() - before);
        assert_eq!(stats.seconds, ticks_to_seconds(stats.ticks));
        assert_eq!(stats.io.cpu_rows, 256);
        assert!(!stats.spilled);
    }

    #[test]
    fn cross_table_intersection_is_rejected() {
        let (mut db, t1) = demo_db(64);
        let schema = robustmap_storage::Schema::new(vec![("x", robustmap_storage::ColumnType::Int)]);
        let t2 = db.create_table("other", schema);
        for i in 0..64 {
            db.insert_row(t2, &Row::from_slice(&[i])).unwrap();
        }
        let i1 = db.create_index("i1", t1, &[0]).unwrap();
        let i2 = db.create_index("i2", t2, &[0]).unwrap();
        let plan = PlanSpec::IndexIntersect {
            left: IndexRangeSpec { index: i1, range: KeyRange::full(1) },
            right: IndexRangeSpec { index: i2, range: KeyRange::full(1) },
            algo: IntersectAlgo::MergeJoin,
            fetch: FetchKind::Traditional,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        assert!(matches!(run_count(&plan, &ctx, None), Err(ExecError::BadPlan(_))));
    }

    /// A blocking operator that names a column its input does not produce
    /// (or no sort key at all, or rows wider than a `Row`), and any leaf
    /// that names a table or an index the database does not have, is a
    /// typed error raised before anything runs: nothing is charged.
    #[test]
    fn malformed_blocking_plans_are_rejected_before_any_charge() {
        let (mut db, t) = demo_db(64);
        let idx = db.create_index("idx_a", t, &[0]).unwrap();
        let (no_table, no_index) = (TableId(7), IndexId(u32::MAX));
        let range = |index| IndexRangeSpec { index, range: KeyRange::full(1) };
        let (all, star) = (Predicate::always_true, || Projection::All);
        let ghost = PlanSpec::TableScan { table: no_table, pred: all(), project: star() };
        let scan = |cols: Vec<usize>| {
            Box::new(PlanSpec::TableScan {
                table: t,
                pred: Predicate::always_true(),
                project: Projection::Columns(cols),
            })
        };
        let sort = |key_cols: Vec<usize>| PlanSpec::Sort {
            input: scan(vec![0, 1]),
            key_cols,
            mode: SpillMode::Graceful,
            memory_bytes: 1 << 20,
        };
        let join = |left: Vec<usize>, left_key: usize, right_key: usize, algo: JoinAlgo| {
            PlanSpec::Join {
                left: scan(left),
                right: scan(vec![0, 1]),
                left_key,
                right_key,
                algo,
                memory_bytes: 1 << 20,
                project: Projection::All,
            }
        };
        let agg = |group_cols: Vec<usize>, aggs: Vec<AggFn>| PlanSpec::HashAgg {
            input: scan(vec![0, 1]),
            group_cols,
            aggs,
            mode: SpillMode::Graceful,
            memory_bytes: 1 << 20,
        };
        let hash = JoinAlgo::Hash { build_left: true };
        let bad = [
            sort(vec![]),
            sort(vec![2]),
            sort(vec![0, 7]),
            join(vec![0, 1], 2, 0, JoinAlgo::SortMerge),
            join(vec![0, 1], 0, 2, JoinAlgo::SortMerge),
            join(vec![0, 1], 2, 0, hash),
            join(vec![0, 1], 0, 2, hash),
            join(vec![0, 1, 2, 0, 1, 2, 0], 0, 0, hash), // 7 + 2 columns
            PlanSpec::Join {
                left: scan(vec![0, 1]),
                right: scan(vec![0, 1]),
                left_key: 0,
                right_key: 0,
                algo: hash,
                memory_bytes: 1 << 20,
                project: Projection::Columns(vec![4]), // 2 + 2 columns
            },
            agg(vec![2], vec![AggFn::CountStar]),
            agg(vec![0], vec![AggFn::Sum(2)]),
            agg(vec![0], vec![AggFn::Min(9)]),
            agg(vec![], vec![AggFn::Max(2)]),
            agg(vec![0, 1], vec![AggFn::CountStar; 7]), // 2 + 7 columns
            // One unknown id per leaf shape, and one below a sort.
            ghost.clone(),
            PlanSpec::ParallelTableScan {
                table: no_table,
                pred: all(),
                project: star(),
                dop: 2,
                skew_permille: 0,
            },
            PlanSpec::IndexFetch {
                scan: range(no_index),
                key_filter: all(),
                fetch: FetchKind::Traditional,
                residual: all(),
                project: star(),
            },
            PlanSpec::CoveringIndexScan { scan: range(no_index), residual: all(), project: star() },
            PlanSpec::Mdam { index: no_index, col_ranges: vec![(0, 9)], project: star() },
            PlanSpec::IndexIntersect {
                left: range(idx),
                right: range(no_index),
                algo: IntersectAlgo::MergeJoin,
                fetch: FetchKind::Traditional,
                residual: all(),
                project: star(),
            },
            PlanSpec::CoveringRidJoin {
                left: range(no_index),
                right: range(idx),
                algo: IntersectAlgo::MergeJoin,
                project: star(),
            },
            PlanSpec::Sort {
                input: Box::new(ghost),
                key_cols: vec![0],
                mode: SpillMode::Graceful,
                memory_bytes: 1 << 20,
            },
        ];
        assert_rejected_uncharged(&db, &bad);
        // The widest rows that do fit still run.
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let widest = join(vec![0, 1, 2, 0, 1, 2], 5, 1, hash);
        assert!(run_count(&widest, &ctx, None).is_ok());
    }

    /// Every plan of `bad` is a `BadPlan` raised before anything ran.
    fn assert_rejected_uncharged(db: &Database, bad: &[PlanSpec]) {
        for plan in bad {
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(db, &s, 1 << 20);
            let got = run_count(plan, &ctx, None);
            assert!(matches!(got, Err(ExecError::BadPlan(_))), "{}: {got:?}", plan.synopsis());
            assert_eq!((s.elapsed_ticks(), s.stats()), (0, IoStats::default()), "{}", plan.synopsis());
        }
    }

    /// The three-column demo table with an index on `a` and one on `(a, b)`:
    /// column 3 is the first a row does not have, column 2 the first an
    /// `(a, b)` key does not.
    fn indexed_demo_db() -> (Database, TableId, IndexRangeSpec, IndexRangeSpec) {
        let (mut db, t) = demo_db(64);
        let a = db.create_index("idx_a", t, &[0]).unwrap();
        let ab = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let a = IndexRangeSpec { index: a, range: KeyRange::full(1) };
        let ab = IndexRangeSpec { index: ab, range: KeyRange::full(2) };
        (db, t, a, ab)
    }

    fn on(col: usize) -> Predicate {
        Predicate::single(ColRange::at_most(col, 10))
    }

    fn cols(cols: &[usize]) -> Projection {
        Projection::Columns(cols.to_vec())
    }

    #[test]
    fn table_scan_rejects_a_missing_column() {
        let (db, table, ..) = indexed_demo_db();
        let scan = |pred, project| PlanSpec::TableScan { table, pred, project };
        let bad = [scan(on(9), cols(&[0])), scan(on(0), cols(&[9])), scan(on(2), cols(&[0, 3]))];
        assert_rejected_uncharged(&db, &bad);
    }

    #[test]
    fn parallel_table_scan_rejects_a_missing_column() {
        let (db, table, ..) = indexed_demo_db();
        let scan = |pred, project| PlanSpec::ParallelTableScan {
            table,
            pred,
            project,
            dop: 2,
            skew_permille: 0,
        };
        assert_rejected_uncharged(&db, &[scan(on(3), cols(&[0])), scan(on(0), cols(&[3]))]);
    }

    #[test]
    fn index_fetch_rejects_a_missing_column() {
        let (db, _, a, ab) = indexed_demo_db();
        let fetch = |scan, key_filter, residual, project| PlanSpec::IndexFetch {
            scan,
            key_filter,
            fetch: FetchKind::Traditional,
            residual,
            project,
        };
        let bad = [
            fetch(a, on(1), on(0), cols(&[0])), // the key has one column
            fetch(ab, on(2), on(0), cols(&[0])),
            fetch(ab, on(1), on(3), cols(&[0])),
            fetch(ab, on(1), on(2), cols(&[3])),
        ];
        assert_rejected_uncharged(&db, &bad);
    }

    #[test]
    fn index_intersect_rejects_a_missing_column() {
        let (db, _, a, ab) = indexed_demo_db();
        let intersect = |residual, project| PlanSpec::IndexIntersect {
            left: a,
            right: ab,
            algo: IntersectAlgo::MergeJoin,
            fetch: FetchKind::Traditional,
            residual,
            project,
        };
        assert_rejected_uncharged(&db, &[intersect(on(3), cols(&[0])), intersect(on(2), cols(&[5]))]);
    }

    #[test]
    fn covering_index_scan_rejects_a_column_the_key_lacks() {
        let (db, _, _, ab) = indexed_demo_db();
        let scan = |residual, project| PlanSpec::CoveringIndexScan { scan: ab, residual, project };
        // Column 2 is in the table, not in the `(a, b)` key.
        assert_rejected_uncharged(&db, &[scan(on(2), cols(&[0])), scan(on(1), cols(&[2]))]);
    }

    #[test]
    fn covering_rid_join_rejects_a_column_the_keys_lack() {
        let (db, _, a, ab) = indexed_demo_db();
        let join = |project| PlanSpec::CoveringRidJoin {
            left: a,
            right: ab,
            algo: IntersectAlgo::MergeJoin,
            project,
        };
        // One key column and two: positions 0..3.
        assert_rejected_uncharged(&db, &[join(cols(&[3]))]);
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        assert_eq!(run_count(&join(cols(&[2, 0])), &ctx, None).unwrap().rows_out, 64);
    }

    /// A range bounded by keys of another arity than its index's (which
    /// `Tree::seek` asserts on) is rejected in every shape that scans a
    /// range, on either side of the two-index shapes, whichever bound is
    /// off.
    #[test]
    fn index_ranges_reject_a_bound_of_another_arity() {
        let (db, _, a, ab) = indexed_demo_db();
        let wide = IndexRangeSpec { range: KeyRange::full(2), ..a };
        let narrow = IndexRangeSpec { range: KeyRange::full(1), ..ab };
        let wide_hi = IndexRangeSpec { range: KeyRange { hi: ab.range.hi, ..a.range }, ..a };
        let fetch = |scan| PlanSpec::IndexFetch {
            scan,
            key_filter: Predicate::always_true(),
            fetch: FetchKind::Traditional,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let intersect = |left, right| PlanSpec::IndexIntersect {
            left,
            right,
            algo: IntersectAlgo::MergeJoin,
            fetch: FetchKind::Traditional,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let join = |left, right| PlanSpec::CoveringRidJoin {
            left,
            right,
            algo: IntersectAlgo::MergeJoin,
            project: Projection::All,
        };
        let covering = |scan| PlanSpec::CoveringIndexScan {
            scan,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let bad = [
            fetch(wide),
            fetch(wide_hi),
            covering(narrow),
            intersect(wide, ab),
            intersect(a, narrow),
            join(wide_hi, ab),
            join(a, narrow),
        ];
        assert_rejected_uncharged(&db, &bad);
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        assert_eq!(run_count(&join(a, ab), &ctx, None).unwrap().rows_out, 64);
    }

    #[test]
    fn mdam_rejects_a_column_the_key_lacks() {
        let (db, _, _, ab) = indexed_demo_db();
        let mdam = |project| PlanSpec::Mdam {
            index: ab.index,
            col_ranges: vec![(0, 63), (0, 63)],
            project,
        };
        assert_rejected_uncharged(&db, &[mdam(cols(&[5])), mdam(cols(&[0, 2]))]);
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        assert_eq!(run_count(&mdam(cols(&[1, 0])), &ctx, None).unwrap().rows_out, 64);
    }

    /// Per-run bookkeeping must not leak across runs on one context: not
    /// the operator records of a run that failed half-way, not the spill
    /// flag of a run that spilled.
    #[test]
    fn a_reused_context_starts_every_run_clean() {
        let (mut db, t1) = demo_db(512);
        let schema = robustmap_storage::Schema::new(vec![("x", robustmap_storage::ColumnType::Int)]);
        let t2 = db.create_table("other", schema);
        db.insert_row(t2, &Row::from_slice(&[0])).unwrap();
        let i1 = db.create_index("i1", t1, &[0]).unwrap();
        let i2 = db.create_index("i2", t2, &[0]).unwrap();
        let scan = PlanSpec::TableScan {
            table: t1,
            pred: Predicate::always_true(),
            project: Projection::All,
        };
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);

        // Fails in the right child, after the left child recorded itself.
        let failing = PlanSpec::Join {
            left: Box::new(scan.clone()),
            right: Box::new(PlanSpec::IndexIntersect {
                left: IndexRangeSpec { index: i1, range: KeyRange::full(1) },
                right: IndexRangeSpec { index: i2, range: KeyRange::full(1) },
                algo: IntersectAlgo::MergeJoin,
                fetch: FetchKind::Traditional,
                residual: Predicate::always_true(),
                project: Projection::All,
            }),
            left_key: 0,
            right_key: 0,
            algo: JoinAlgo::SortMerge,
            memory_bytes: 1 << 20,
            project: Projection::All,
        };
        assert!(matches!(
            run_count(&failing, &ctx, None),
            Err(ExecError::BadPlan(_))
        ));

        let spilling = PlanSpec::Sort {
            input: Box::new(scan.clone()),
            key_cols: vec![1],
            mode: SpillMode::Abrupt,
            memory_bytes: 4096,
        };
        let stats = run_count(&spilling, &ctx, None).unwrap();
        assert!(stats.spilled);
        assert_eq!(stats.operators.len(), 2, "the failed run's records leaked");

        let stats = run_count(&scan, &ctx, None).unwrap();
        assert_eq!(stats.operators.len(), 1);
        assert_eq!(stats.operators[0].label, scan.synopsis());
        assert!(!stats.spilled, "the previous run's spill flag leaked");
    }
}
