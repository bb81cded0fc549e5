//! Batched (vectorized) execution primitives.
//!
//! The interpreter in [`crate::exec`] moves rows between operators in
//! columnar [`RowBatch`] chunks of up to [`BATCH_ROWS`] rows, so the
//! real-time interpreter overhead (per-row `Row` materialisation, virtual
//! sink dispatch, full-row reads) is amortised.  Every edge of every
//! plan runs at that one size:
//!
//! * kernels group their charges by what the *data* gives them — a heap
//!   page, an index leaf, a run of rids on one page — never by
//!   [`RowBatch`];
//! * batching only moves work that is *free* on the simulated clock:
//!   gathering, projection, sink dispatch, and intermediate-row copies;
//! * every operator whose rows are read emits through a [`BatchEmitter`],
//!   which hands its batch to the sink the moment it is full.  Sort and
//!   hash aggregation take those batches whole and write their spill
//!   pages while pushing them, so where those writes fall among their
//!   child's page requests is fixed by the one size.  The root of a
//!   counted run ([`crate::run_count`]) is not read: its emitter gathers
//!   no column (a batch of no columns still counts its rows), and a root
//!   sort or aggregation emits nothing at all.  Neither moves the clock,
//!   since emission is charge-free.
//!
//! Heap rows — a table scan's page, a parallel scan worker's page, a
//! fetch's run of rids on one page — go through one kernel,
//! [`BatchEmitter::filter`].  A heap page stores its rows column by column,
//! so the kernel evaluates a conjunction a term at a time: the first term
//! over its column writes the slots that pass to a `u16` selection vector,
//! and each further term reads its column at the selected slots and keeps
//! those that pass.  A page that deletes left holey, read whole, runs its
//! first term over the whole column too, each slot's live bit ANDed into
//! its pass; only a rid set's group of some of its live slots fills the
//! vector from the group's mask.  A row is compared on a term only if it
//! passed every term before, so the comparisons the kernel counts are
//! exactly the short circuit's.  The selected rows' projected columns are
//! then gathered a column at a time straight into the batch.  The kernel reads no column
//! the predicate and the projection do not name.  It charges nothing; each
//! caller charges what it reports ([`Filtered`]) in its own calls.  It is
//! inlined, and each kind of [`Records`] has its own call of it in every
//! reader: a call that could take two kinds compiles both loops into one.
//!
//! `tests/exec_ledger.rs` pins every plan's charges, the blocking edges at
//! pools of a few pages among them.

use robustmap_storage::{HeapPage, Row, Slots, PAGE_SIZE};

use crate::expr::{ColRange, Predicate};

/// Rows per [`RowBatch`] flowing between operators: amortises interpreter
/// overhead without hurting cache residency.
pub const BATCH_ROWS: usize = 1024;

/// Entries of the selection vector: a power of two, so an index taken
/// modulo it needs no bounds check, and no fewer than the rows of a batch
/// or the slots of any page — a slot takes at least four of a page's bytes.
const SEL: usize = PAGE_SIZE / 4;
const _: () = assert!(SEL.is_power_of_two() && BATCH_ROWS <= SEL);

/// A selection vector: slots of one page, in order.
type SlotVector = Box<[u16; SEL]>;

/// A columnar chunk of rows: one [`BATCH_ROWS`]-long `i64` buffer per
/// output column, of which the first [`RowBatch::len`] entries are rows.
///
/// Batches are reused (emptied, not reallocated) by the emitting operator,
/// so a sink must copy out anything it wants to keep.
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    cols: Vec<[i64; BATCH_ROWS]>,
    rows: usize,
}

impl RowBatch {
    /// An empty batch of the given arity.
    pub fn new(arity: usize) -> Self {
        RowBatch { cols: vec![[0; BATCH_ROWS]; arity], rows: 0 }
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the batch holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `c`'s rows as a slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[i64] {
        &self.cols[c][..self.rows]
    }

    /// Materialise row `i` (gathers across columns); panics unless
    /// `i < len()`.
    #[inline]
    pub fn row(&self, i: usize) -> Row {
        assert!(i < self.rows, "row {i} of a batch of {} rows", self.rows);
        let mut row = Row::empty();
        for col in &self.cols {
            row.push(col[i]);
        }
        row
    }
}

/// The rows of one heap page that a filter reads.
#[derive(Clone, Copy)]
pub enum Records<'r> {
    /// Every written slot of a page without a dead one.
    Page(HeapPage<'r>),
    /// Every live slot of a holey page, in slot order: `mask` is the page's
    /// live-slot mask, `live` its set bits.  The first term runs over the
    /// whole column, as on a [`Records::Page`], with the live bit ANDed in.
    Holey { page: HeapPage<'r>, mask: &'r [u64], live: usize },
    /// The `live` slots set in `mask` (bit `s` of word `s / 64`), in slot
    /// order: a rid set's page group of a holey page's live slots, short of
    /// all of them.  Every set bit is a live slot of the page.
    Masked { page: HeapPage<'r>, mask: &'r [u64], live: usize },
    /// The slots listed, in list order, a slot as often as it is listed:
    /// a fetch's run of rids on the page.  Every one is a live slot.
    Listed { page: HeapPage<'r>, slots: &'r [u16] },
}

/// What one [`BatchEmitter::filter`] call read: `live` rows, the
/// `compares` a short-circuiting [`Predicate::eval`] makes on them (none
/// for `TRUE`), and the `selected` ones that passed and were emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Filtered {
    pub live: u64,
    pub compares: u64,
    pub selected: u64,
}

/// Accumulates output rows into a [`RowBatch`] and flushes it to a batch
/// sink whenever it reaches [`BATCH_ROWS`] rows (and once more at the end,
/// for the final partial batch).  Emission is charge-free.
pub struct BatchEmitter {
    batch: RowBatch,
    flushed: u64,
    /// The selection vector of [`BatchEmitter::filter`] and a spare that
    /// a term refines it into, allocated by its first call (on the heap: a
    /// served query's thread stack stays small).
    sel: Option<(SlotVector, SlotVector)>,
}

impl BatchEmitter {
    /// An emitter producing batches with `arity` columns.
    pub fn new(arity: usize) -> Self {
        BatchEmitter { batch: RowBatch::new(arity), flushed: 0, sel: None }
    }

    /// Rows emitted so far.
    pub fn produced(&self) -> u64 {
        self.flushed + self.batch.rows as u64
    }

    /// Emit one row by gathering `proj` positions out of a value slice.
    #[inline]
    pub fn push_projected_slice(
        &mut self,
        vals: &[i64],
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) {
        debug_assert_eq!(proj.len(), self.batch.arity());
        let at = self.batch.rows;
        for (col, &src) in self.batch.cols.iter_mut().zip(proj) {
            col[at] = vals[src];
        }
        self.batch.rows += 1;
        if self.batch.rows == BATCH_ROWS {
            self.flush(sink);
        }
    }

    /// Emit columns `proj` of a heap page's live rows that pass `pred`, in
    /// slot order: [`BatchEmitter::filter`] of the whole page, or of every
    /// live slot if it is holey — each kind its own call of the kernel.
    #[inline(always)]
    pub fn filter_page(
        &mut self,
        pred: &Predicate,
        page: HeapPage<'_>,
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) -> Filtered {
        match page.mask() {
            None => self.filter(pred, Records::Page(page), proj, sink),
            Some(mask) => {
                let live = mask.iter().map(|w| w.count_ones() as usize).sum();
                self.filter(pred, Records::Holey { page, mask, live }, proj, sink)
            }
        }
    }

    /// Emit columns `proj` of the `records` that pass `pred`, in order —
    /// the one loop that evaluates a predicate over heap rows.  Charges
    /// nothing: the caller charges what it returns.  Inlined, because a
    /// fetch's rid run is mostly one row, which a call's set-up outweighs.
    #[inline(always)]
    pub fn filter(
        &mut self,
        pred: &Predicate,
        records: Records<'_>,
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) -> Filtered {
        let (mut sel, mut spare) =
            self.sel.take().unwrap_or_else(|| (Box::new([0; SEL]), Box::new([0; SEL])));
        let out = match records {
            Records::Page(page) => {
                let (vectors, live) = ((&mut sel, &mut spare), page.slot_count());
                self.whole(pred, page, None, live, vectors, proj, sink)
            }
            Records::Holey { page, mask, live } => {
                let vectors = (&mut sel, &mut spare);
                self.whole(pred, page, Some(mask), live, vectors, proj, sink)
            }
            Records::Masked { page, mask, live } => {
                let filled = fill(&mut sel, Slots::new(mask).map(|slot| slot as u16));
                debug_assert_eq!(filled, live);
                let (picked, compares) = refine(&mut sel, &mut spare, filled, page, pred.terms());
                self.gather(&sel[..picked], page, proj, sink);
                Filtered { live: live as u64, compares, selected: picked as u64 }
            }
            Records::Listed { page, slots } => {
                let mut out = Filtered { live: slots.len() as u64, compares: 0, selected: 0 };
                for chunk in slots.chunks(BATCH_ROWS) {
                    sel[..chunk.len()].copy_from_slice(chunk);
                    let (picked, compares) =
                        refine(&mut sel, &mut spare, chunk.len(), page, pred.terms());
                    self.gather(&sel[..picked], page, proj, sink);
                    out.compares += compares;
                    out.selected += picked as u64;
                }
                out
            }
        };
        self.sel = Some((sel, spare));
        out
    }

    /// [`BatchEmitter::filter`] of a page read whole: every slot of a page
    /// without a dead one, or the `live` slots `mask` marks.  The first
    /// term runs over its column, the live bit ANDed in on a holey page;
    /// `TRUE` fills the vector with the slots.
    #[inline(always)]
    fn whole(
        &mut self,
        pred: &Predicate,
        page: HeapPage<'_>,
        mask: Option<&[u64]>,
        live: usize,
        (sel, spare): (&mut SlotVector, &mut SlotVector),
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) -> Filtered {
        let n = page.slot_count();
        let (picked, compares) = match (pred.terms().split_first(), mask) {
            (None, None) => (fill(sel, 0..n as u16), 0),
            (None, Some(mask)) => (fill(sel, Slots::new(mask).map(|slot| slot as u16)), 0),
            (Some((t, _)), None) => (first(sel, page.column(t.col), t), n as u64),
            (Some((t, _)), Some(mask)) => {
                (first_live(sel, page.column(t.col), mask, t), live as u64)
            }
        };
        let rest = pred.terms().get(1..).unwrap_or_default();
        let (picked, more) = refine(sel, spare, picked, page, rest);
        self.gather(&sel[..picked], page, proj, sink);
        Filtered { live: live as u64, compares: compares + more, selected: picked as u64 }
    }

    /// Emit the rows of the page at slots `sel`, a column at a time,
    /// splitting where the batch fills.
    #[inline(always)]
    fn gather(
        &mut self,
        mut sel: &[u16],
        page: HeapPage<'_>,
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) {
        while !sel.is_empty() {
            let rows = self.batch.rows;
            let (now, later) = sel.split_at((BATCH_ROWS - rows).min(sel.len()));
            for (col, &src) in self.batch.cols.iter_mut().zip(proj) {
                let values = page.column(src);
                for (cell, &slot) in col[rows..rows + now.len()].iter_mut().zip(now) {
                    *cell = values[usize::from(slot)];
                }
            }
            self.batch.rows += now.len();
            if self.batch.rows == BATCH_ROWS {
                self.flush(sink);
            }
            sel = later;
        }
    }

    /// Flush the pending partial batch, if any.
    pub fn flush(&mut self, sink: &mut dyn FnMut(&RowBatch)) {
        if !self.batch.is_empty() {
            sink(&self.batch);
            self.flushed += self.batch.rows as u64;
            self.batch.rows = 0;
        }
    }
}

/// Write `slots` to the front of `sel`; how many there were.
#[inline(always)]
fn fill(sel: &mut [u16; SEL], slots: impl Iterator<Item = u16>) -> usize {
    let mut n = 0;
    for slot in slots {
        sel[n % SEL] = slot;
        n += 1;
    }
    n
}

/// Write to the front of `sel` the slots of `col` whose value `t` admits,
/// in order; how many it admits.  Branch-free: every slot is written, and
/// only a pass advances.
#[inline(always)]
fn first(sel: &mut [u16; SEL], col: &[i64], t: &ColRange) -> usize {
    let mut picked = 0;
    for (slot, &v) in col.iter().enumerate() {
        sel[picked % SEL] = slot as u16;
        picked += usize::from(t.admits(v));
    }
    picked
}

/// [`first`] over a holey page's column: a slot is admitted if `t` admits
/// its value and `mask` marks it live.
#[inline(always)]
fn first_live(sel: &mut [u16; SEL], col: &[i64], mask: &[u64], t: &ColRange) -> usize {
    debug_assert!(col.len() <= mask.len() * 64, "a mask shorter than its page");
    let mut picked = 0;
    for (word, (values, &live)) in col.chunks(64).zip(mask).enumerate() {
        for (bit, &v) in values.iter().enumerate() {
            sel[picked % SEL] = (word * 64 + bit) as u16;
            picked += usize::from(t.admits(v)) & (live >> bit) as usize;
        }
    }
    picked
}

/// Narrow the `picked` slots at the front of `sel` to those every term of
/// `terms` admits, a term at a time, each term reading its column at the
/// slots the terms before it kept; the slots kept and the comparisons made
/// — one a slot a term reads it for.  A term writes the slots it keeps to
/// `spare`, and the two then swap: read and written in place, the vector's
/// loads waited on its stores.
#[inline(always)]
fn refine(
    sel: &mut SlotVector,
    spare: &mut SlotVector,
    mut picked: usize,
    page: HeapPage<'_>,
    terms: &[ColRange],
) -> (usize, u64) {
    let mut compares = 0;
    for t in terms {
        compares += picked as u64;
        let col = page.column(t.col);
        let mut kept = 0;
        for &slot in &sel[..picked] {
            spare[kept % SEL] = slot;
            kept += usize::from(t.admits(col[usize::from(slot)]));
        }
        std::mem::swap(sel, spare);
        picked = kept;
    }
    (picked, compares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_storage::{ColumnType, FileId, HeapFile, Rid, Schema};

    #[test]
    fn emitter_flushes_when_full_and_at_end() {
        let mut em = BatchEmitter::new(2);
        let mut sizes = Vec::new();
        let mut rows = Vec::new();
        let mut sink = |b: &RowBatch| {
            sizes.push(b.len());
            for i in 0..b.len() {
                rows.push(b.row(i).values().to_vec());
            }
        };
        let n = 2 * BATCH_ROWS as i64 + 7;
        for i in 0..n {
            em.push_projected_slice(&[i, 10 + i, 20 + i], &[2, 0], &mut sink);
        }
        em.flush(&mut sink);
        em.flush(&mut sink); // idempotent on empty
        assert_eq!(em.produced(), n as u64);
        assert_eq!(sizes, vec![BATCH_ROWS, BATCH_ROWS, 7]);
        assert_eq!(rows[BATCH_ROWS + 4], vec![20 + BATCH_ROWS as i64 + 4, BATCH_ROWS as i64 + 4]);
    }

    /// A heap of `n` rows `[i, i % 3, -i]`, every fifth row deleted if
    /// `holey`.
    fn heap_of(n: i64, holey: bool) -> HeapFile {
        let int = ColumnType::Int;
        let schema = Schema::new(vec![("a", int), ("b", int), ("c", int)]);
        let mut heap = HeapFile::new(FileId(0), schema);
        for i in 0..n {
            heap.append(&Row::from_slice(&[i, i % 3, -i])).unwrap();
        }
        for i in (2..n).step_by(5).filter(|_| holey) {
            let per_page = heap.rows_per_page() as i64;
            heap.delete(Rid::new((i / per_page) as u32, (i % per_page) as u32)).unwrap();
        }
        heap
    }

    /// Filter `records` with `pred` into an emitter that already holds five
    /// rows; what the kernel reports, the batch sizes and the rows.
    fn read(pred: &Predicate, records: Records<'_>) -> (Filtered, Vec<usize>, Vec<Row>) {
        let (mut sizes, mut rows) = (Vec::new(), Vec::new());
        let mut sink = |b: &RowBatch| {
            sizes.push(b.len());
            rows.extend((0..b.len()).map(|i| b.row(i)));
        };
        let mut em = BatchEmitter::new(2);
        for i in 0..5 {
            em.push_projected_slice(&[i, i], &[0, 1], &mut sink);
        }
        let got = em.filter(pred, records, &[2, 0], &mut sink);
        em.flush(&mut sink);
        (got, sizes, rows)
    }

    /// The kernel's batches split exactly where row-by-row pushes split
    /// them, whatever the emitter already held: a run listing one page's
    /// live slots over and over, in chunks of a batch.
    #[test]
    fn filter_splits_at_batch_boundaries() {
        let heap = heap_of(300, true);
        let page = heap.resolve(0).unwrap();
        let live: Vec<u16> = page.live_slots().map(|slot| slot as u16).collect();
        let slots: Vec<u16> = (0..3000).map(|i| live[i * 7 % live.len()]).collect();
        let pred = Predicate::single(ColRange::at_most(1, 1));
        let mut want = (Vec::new(), Vec::new());
        let mut sink = |b: &RowBatch| {
            want.0.push(b.len());
            want.1.extend((0..b.len()).map(|i| b.row(i)));
        };
        let mut em = BatchEmitter::new(2);
        for i in 0..5 {
            em.push_projected_slice(&[i, i], &[0, 1], &mut sink);
        }
        for &slot in &slots {
            let row = page.column(0)[usize::from(slot)];
            if row % 3 <= 1 {
                em.push_projected_slice(&[row, row % 3, -row], &[2, 0], &mut sink);
            }
        }
        em.flush(&mut sink);
        let (got, sizes, rows) = read(&pred, Records::Listed { page, slots: &slots });
        assert_eq!(got, Filtered { live: 3000, compares: 3000, selected: rows.len() as u64 - 5 });
        assert_eq!((sizes, rows), want);
        assert!(want.0.len() > 1);
    }

    /// A holey page reads, whole or under its own mask or a narrower one,
    /// as its set slots listed; a whole page as every slot listed.
    #[test]
    fn masked_and_whole_pages_read_as_their_slots_listed() {
        let heap = heap_of(900, true);
        let preds = [
            Predicate::always_true(),
            Predicate::single(ColRange::at_most(1, 1)),
            Predicate::all_of(vec![ColRange::at_most(1, 1), ColRange::at_least(0, 40)]),
        ];
        let pristine = heap_of(300, false);
        let whole = pristine.resolve(0).unwrap();
        assert!(whole.mask().is_none());
        let all: Vec<u16> = (0..whole.slot_count() as u16).collect();
        for pred in &preds {
            let want = read(pred, Records::Listed { page: whole, slots: &all });
            assert_eq!(read(pred, Records::Page(whole)), want, "{pred}");
        }
        let page = heap.resolve(1).unwrap();
        let own = page.mask().expect("a holey page");
        let narrower: Vec<u64> = own.iter().map(|w| w & 0x5555_5555_5555_5555).collect();
        for mask in [own, &narrower] {
            let slots: Vec<u16> = Slots::new(mask).map(|s| s as u16).collect();
            for pred in &preds {
                let want = read(pred, Records::Listed { page, slots: &slots });
                let live = slots.len();
                assert_eq!(read(pred, Records::Masked { page, mask, live }), want, "{pred}");
                if mask == own {
                    assert_eq!(read(pred, Records::Holey { page, mask, live }), want, "{pred}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row 3 of a batch of 3 rows")]
    fn a_row_past_the_batch_panics() {
        let mut em = BatchEmitter::new(1);
        let mut held = None;
        for v in 0..3 {
            em.push_projected_slice(&[v], &[0], &mut |_| {});
        }
        em.flush(&mut |b| held = Some(b.clone()));
        let batch = held.expect("a flushed batch");
        assert_eq!(batch.col(0), &[0, 1, 2]);
        batch.row(batch.len());
    }
}
