//! External merge sort with graceful and abrupt spill modes.
//!
//! Section 4 of the paper predicts: "some implementations of sorting spill
//! their entire input to disk if the input size exceeds the memory size by
//! merely a single record.  Those sort implementations lacking graceful
//! degradation will show discontinuous execution costs."  This module
//! implements both disciplines so the discontinuity can be mapped:
//!
//! * [`SpillMode::Abrupt`] — the classic fill-and-spill sort: once the input
//!   no longer fits, *every* row (including the ones that were happily in
//!   memory) is written to sorted runs and merged back.  I/O jumps from zero
//!   to ~2N pages at `N = M + 1`.
//! * [`SpillMode::Graceful`] — replacement selection: a row only reaches
//!   disk when a new row forces it out, and whatever is still in memory at
//!   end of input is merged directly from memory.  I/O grows continuously
//!   as `~2(N - M)` pages.
//!
//! Merging honours a fan-in limit derived from the memory grant; run counts
//! beyond it trigger intermediate merge passes (more I/O), another
//! real-world robustness cliff.
//!
//! ## Internal representation
//!
//! Rows order by `(projected key columns, full row)`.  Every sort charge is
//! analytic — `log2 M` comparisons per push, `n ceil(log2 n)` per run sort,
//! `log2 k` comparisons and one row per merged row, pages from run lengths
//! — so a physical merge has two observable outputs, the final order and
//! the charge stream, and the sorter produces them separately:
//!
//! * **Accounting.**  A run is two lengths (`SortedRun`), not a copy of
//!   its rows.  Forming, writing, reading back and merging runs issue the
//!   charges of a k-way external merge sort and move no row.  The per-row
//!   charges — a push's comparisons, a merged row's comparisons and row —
//!   are one charge event each, and a run of them is one
//!   `Session::charge_each`, which charges and yields exactly as the
//!   call-by-call loop would, so served slices keep their length and end
//!   at the same row.  A push's comparisons are owed until the next call
//!   that touches the session (a charge or a spill file's allocation).
//! * **Order.**  Every row is appended once, on arrival, to one packed
//!   store — in both modes — and the store is ordered once
//!   (`sorted_order`: a radix sort of 16-byte `(first key value, row
//!   index)` handles, then a comparison sort inside each group of equal
//!   first key values, row index last, so bit-identical rows rank in
//!   arrival order).  Items that compare equal are bit-identical rows, so
//!   this is the sequence any merge under the same order produces.  A
//!   streamed sort orders its store at the final pass and emits through
//!   the handles — or, finished without a sink (the root of a counted
//!   run), issues the final pass's charges and orders nothing.  A sort
//!   handed its whole input ([`ExternalSorter::sort_all`]) orders it
//!   first and returns the rows with their order, copying none.
//! * **Physical.**  The replacement-selection window: which row closes a
//!   run depends on the window's actual minimum, so run *lengths* depend
//!   on it.  There are two windows, picked by how the input arrives; each
//!   emits the minimum of the classic all-heap window's multiset, so run
//!   formation is the classic algorithm's.  A streamed sort's window is
//!   handles into the store: a sorted *base* array consumed by a cursor
//!   (the handles promoted when the previous run closed — for the first
//!   run, the rows that filled the memory, so a sort that never spills
//!   never builds a window) plus a small heap of the handles that joined
//!   the current run mid-flight, whose sift-down picks its way by integer
//!   compares on the inline first key value instead of branching on them.
//!   A sort that knows its whole input knows every row's rank in the final
//!   order, and its window is a bitmap over ranks (`RankWindow`): emitting
//!   is the next set bit after the rank last emitted, and a newcomer joins
//!   the open run iff it ranks above that row.

use std::cell::Cell;

use robustmap_storage::radix::radix_sort_by_u64_key;
use robustmap_storage::{CpuCharge, PageId, PAGE_SIZE};

use crate::batch::RowBatch;
use crate::exec::ExecCtx;
use crate::ops::RowSink;
use crate::plan::SpillMode;

/// The full sort order: projected key columns, then the entire row (the
/// tie-break that keeps output deterministic under duplicate keys).
/// Operates on value slices, which compare exactly like `Row::values()`.
fn keyed_cmp(a: &[i64], b: &[i64], key_cols: &[usize]) -> std::cmp::Ordering {
    for &c in key_cols {
        match a[c].cmp(&b[c]) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    a.cmp(b)
}

/// Rows of one fixed arity packed end-to-end as bare `i64` words.  A
/// sorter, aggregation or join sees a single operator output, so every row
/// (or group key) it holds has the same arity; packing stores `arity * 8`
/// bytes per row instead of a 72-byte [`robustmap_storage::Row`], which
/// shrinks the sorter's store, an aggregation's group keys and a join's
/// inputs by ~4x for typical inputs.  Purely an in-memory layout: the
/// rows, their order, and all simulated charges are unchanged.
#[derive(Debug, Default)]
pub struct PackedRows {
    vals: Vec<i64>,
    arity: usize,
    len: usize,
}

impl PackedRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Columns per row (0 until the first row).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Append one row; all rows must share an arity.
    pub fn push(&mut self, row: &[i64]) {
        debug_assert!(self.len == 0 || row.len() == self.arity, "mixed-arity packed rows");
        self.arity = row.len();
        self.vals.extend_from_slice(row);
        self.len += 1;
    }

    /// Append every row of a columnar batch (a transposition; the same
    /// rows in the same order as pushing `batch.row(i).values()` one by
    /// one, without building a `Row` per row).
    pub fn extend_from_batch(&mut self, batch: &RowBatch) {
        let (arity, n) = (batch.arity(), batch.len());
        if n == 0 {
            return;
        }
        debug_assert!(self.len == 0 || arity == self.arity, "mixed-arity packed rows");
        self.arity = arity;
        let at = self.vals.len();
        self.vals.resize(at + n * arity, 0);
        for c in 0..arity {
            let cells = self.vals[at + c..].iter_mut().step_by(arity);
            for (cell, &v) in cells.zip(batch.col(c)) {
                *cell = v;
            }
        }
        self.len += n;
    }

    /// Row `i` as a value slice (compares like `Row::values()`).
    pub fn row(&self, i: usize) -> &[i64] {
        &self.vals[i * self.arity..(i + 1) * self.arity]
    }
}

/// A light heap/sort element: the leading key value inline (the decisive
/// comparison in almost every sift) and the row's index in its store.
/// Opaque outside the crate, where it only names the element type of the
/// radix scratch [`ExternalSorter::sort_all`] takes.
#[derive(Debug, Clone, Copy)]
pub struct Handle {
    pub(crate) key0: i64,
    pub(crate) slot: u32,
}

/// `a < b` in the full sort order, for handles into `rows`: the inline
/// leading key values decide; a tie falls to the stored rows.
fn handle_less<'s>(
    rows: &'s PackedRows,
    key_cols: &'s [usize],
) -> impl Fn(Handle, Handle) -> bool + 's {
    move |a, b| match a.key0.cmp(&b.key0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => {
            keyed_cmp(rows.row(a.slot as usize), rows.row(b.slot as usize), key_cols)
                == std::cmp::Ordering::Less
        }
    }
}

/// Put `order`, handles into `rows`, in the full sort order — the one
/// place an order is computed.  Sorting moves 16-byte handles instead of
/// rows: a stable radix sort on the leading key value (its sign bit
/// flipped, which maps `i64` order onto `u64` order) through the caller's
/// `scratch`, then the full comparison only inside groups that tie on it,
/// bit-identical rows by store index.  So the order is total, and equal
/// rows rank in arrival order, which the rank window relies on.
fn sort_handles(
    order: &mut Vec<Handle>,
    scratch: &mut Vec<Handle>,
    rows: &PackedRows,
    key_cols: &[usize],
) {
    radix_sort_by_u64_key(order, scratch, |h| h.key0 as u64 ^ (1 << 63));
    for ties in order.chunk_by_mut(|a, b| a.key0 == b.key0) {
        ties.sort_unstable_by(|a, b| {
            keyed_cmp(rows.row(a.slot as usize), rows.row(b.slot as usize), key_cols)
                .then(a.slot.cmp(&b.slot))
        });
    }
}

/// Every row of `rows` in the full sort order, as handles into it, sorted
/// through `scratch`.  With no key column the order is the whole row's,
/// compared throughout.
pub(crate) fn sorted_order(
    rows: &PackedRows,
    key_cols: &[usize],
    scratch: &mut Vec<Handle>,
) -> Vec<Handle> {
    let mut order: Vec<Handle> = (0..rows.len())
        .map(|i| Handle { key0: key_cols.first().map_or(0, |&c| rows.row(i)[c]), slot: i as u32 })
        .collect();
    sort_handles(&mut order, scratch, rows, key_cols);
    order
}

/// Minimal 4-ary min-heap of handles with an external comparator
/// (`std::collections::BinaryHeap` cannot borrow the row storage its
/// comparisons need).  Four children per node halves the sift depth of a
/// binary heap and puts all siblings on one cache line.  Every pop returns
/// the minimum of the current multiset, so for the total orders used here
/// the pop *sequence* is independent of the heap's shape; elements that
/// compare equal may surface in any order, which is harmless because
/// fully-equal sort items are bit-identical rows.
fn heap_push(heap: &mut Vec<Handle>, item: Handle, less: &impl Fn(Handle, Handle) -> bool) {
    heap.push(item);
    let hole = heap.len() - 1;
    sift_up(heap, hole, item, less);
}

/// Fill the hole at `i` with `item`, moved rootwards past every ancestor
/// it sorts below.
fn sift_up(heap: &mut [Handle], mut i: usize, item: Handle, less: &impl Fn(Handle, Handle) -> bool) {
    while i > 0 {
        let parent = (i - 1) / 4;
        if !less(item, heap[parent]) {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
}

/// Pop the minimum.  A sift-down that asks "is the displaced element
/// smaller than this child?" at every level mispredicts about once a
/// level on random keys, and that — not the comparison count — is what a
/// pop costs.  So the hole left by the root walks to a leaf along the
/// smallest child without asking: among four siblings the smallest
/// leading key value is picked by compares used as integers (no branch),
/// and only a tie on it — rare, and predicted so — falls to `less` on the
/// stored rows.  The displaced last element then sifts up from the leaf,
/// where it nearly always belongs.
fn heap_pop(heap: &mut Vec<Handle>, less: &impl Fn(Handle, Handle) -> bool) -> Option<Handle> {
    let last = heap.pop()?;
    let Some(&top) = heap.first() else { return Some(last) };
    let smallest = |heap: &[Handle], children: std::ops::Range<usize>| {
        children.reduce(|m, c| if less(heap[c], heap[m]) { c } else { m }).expect("a child")
    };
    let mut hole = 0;
    loop {
        let first = 4 * hole + 1;
        let child = if let Some(&[a, b, c, d]) = heap.get(first..first + 4) {
            let ab = if b.key0 < a.key0 { (b.key0, 1) } else { (a.key0, 0) };
            let cd = if d.key0 < c.key0 { (d.key0, 3) } else { (c.key0, 2) };
            let (min, at) = if cd.0 < ab.0 { cd } else { ab };
            let tied = [a, b, c, d].iter().filter(|h| h.key0 == min).count();
            if tied == 1 { first + at } else { smallest(heap, first..first + 4) }
        } else if first < heap.len() {
            smallest(heap, first..heap.len())
        } else {
            break;
        };
        heap[hole] = heap[child];
        hole = child;
    }
    sift_up(heap, hole, last, less);
    Some(top)
}

/// The replacement-selection window of a sorter that holds its whole
/// input: the rows in memory as a bitmap over their ranks in the final
/// order.  The open run's window is the ranks at and above `next`, one
/// past the rank last emitted; the rows parked for the next run are the
/// ranks below it — they ranked below an emitted row, and `next` only
/// grows while the run is open.
struct RankWindow {
    /// Bit `r % 64` of word `r / 64`: the row of rank `r` is in memory.
    words: Vec<u64>,
    /// Bit `w % 64` of summary word `w / 64`: `words[w]` is not zero.
    summary: Vec<u64>,
    next: usize,
}

impl RankWindow {
    fn new(rows: usize) -> Self {
        let words = rows.div_ceil(64);
        RankWindow { words: vec![0; words], summary: vec![0; words.div_ceil(64)], next: 0 }
    }

    fn insert(&mut self, rank: usize) {
        let w = rank / 64;
        self.words[w] |= 1 << (rank % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// The first word at or after `w` that holds a rank.
    fn next_word(&self, w: usize) -> Option<usize> {
        let mut s = w / 64;
        let mut bits = self.summary.get(s)? & (!0u64 << (w % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        Some(s * 64 + bits.trailing_zeros() as usize)
    }

    /// Take the open run's smallest rank out of the window; false if the
    /// open run has none left.
    fn emit(&mut self) -> bool {
        let mut w = self.next / 64;
        let Some(&word) = self.words.get(w) else { return false };
        let mut bits = word & (!0u64 << (self.next % 64));
        if bits == 0 {
            let Some(at) = self.next_word(w + 1) else { return false };
            (w, bits) = (at, self.words[at]);
        }
        let bit = bits.trailing_zeros() as usize;
        self.words[w] &= !(1 << bit);
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.next = w * 64 + bit + 1;
        true
    }

    /// Rows parked below the open run.
    fn parked(&self) -> usize {
        let (w, bit) = (self.next / 64, self.next % 64);
        let whole: u32 = self.words[..w].iter().map(|word| word.count_ones()).sum();
        let part = self.words.get(w).map_or(0, |word| (word & ((1 << bit) - 1)).count_ones());
        (whole + part) as usize
    }
}

/// A sorter's whole input and its order: [`ExternalSorter::sort_all`]'s
/// result.  The rows stay where they arrived; `order` holds a handle per
/// row, in the full sort order.
pub struct SortedRows {
    pub rows: PackedRows,
    pub(crate) order: Vec<Handle>,
}

impl SortedRows {
    /// The rows in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &[i64]> + '_ {
        self.order.iter().map(|h| self.rows.row(h.slot as usize))
    }
}

/// One sorted run, as the accounting sees it: `rows` rows, of which the
/// first `disk_rows` were written to (and must be read back from) the
/// simulated disk.  The rows themselves are in the sorter's store.
#[derive(Debug)]
struct SortedRun {
    rows: usize,
    disk_rows: usize,
}

/// An external sorter, either fed whole batches via [`ExternalSorter::push`]
/// and drained by [`ExternalSorter::finish`], or handed its whole input
/// at once by [`ExternalSorter::sort_all`].
pub struct ExternalSorter<'a, 'b> {
    ctx: &'a ExecCtx<'b>,
    key_cols: Vec<usize>,
    mode: SpillMode,
    memory_rows: usize,
    rows_per_page: usize,
    // Every row, in arrival order.  Ordered once, at the end.
    store: PackedRows,
    // Abrupt state: how many of the store's last rows form the buffer
    // that fills and spills wholesale.
    buffered: usize,
    // Graceful state of a streamed sort: replacement selection, over
    // handles into the store.  The current run's window is a sorted `base`
    // consumed from `cursor` (promoted when the previous run closed) plus a
    // heap of the handles that joined the run in flight; `pending` collects
    // the next run's.  All three stay empty until a row arrives to a full
    // memory, and in `sort_all`, whose window is a `RankWindow`.
    base: Vec<Handle>,
    cursor: usize,
    current: Vec<Handle>,
    pending: Vec<Handle>,
    // The radix sort's second buffer, kept across every promotion and the
    // final order.
    scratch: Vec<Handle>,
    // Rows admitted whose push comparisons are not charged yet: settled
    // before the next call that touches the session, and at the end of
    // each admission.
    owed: Cell<u64>,
    // Rows emitted into the open run so far.
    open_rows: usize,
    // Rows emitted into the open run's current (incomplete) page —
    // `open_rows % rows_per_page` kept incrementally so the hot emit path
    // avoids a division by a runtime divisor.
    page_fill: usize,
    runs: Vec<SortedRun>,
    spilled: bool,
}

/// Bytes a buffered row is accounted as (payload + bookkeeping).
const ROW_BYTES: usize = 80;

/// How many rows a sort holds in memory under a grant of `memory_bytes` —
/// the input size at which spilling starts.  Exposed so experiments can
/// place sweep points on either side of the spill threshold without
/// duplicating the row-accounting constant.
pub fn sort_capacity_rows(memory_bytes: usize) -> usize {
    (memory_bytes / ROW_BYTES).max(2)
}

/// `ceil(log2 n)` for `n >= 1`: comparisons per row of sorting `n` rows or
/// merging `n` runs.
fn ceil_log2(n: usize) -> u64 {
    (usize::BITS - (n - 1).leading_zeros()) as u64
}

impl<'a, 'b> ExternalSorter<'a, 'b> {
    /// A sorter ordering rows by `key_cols` (at least one column) under
    /// the given spill mode and memory grant.
    pub fn new(
        ctx: &'a ExecCtx<'b>,
        key_cols: Vec<usize>,
        mode: SpillMode,
        memory_bytes: usize,
    ) -> Self {
        let memory_rows = sort_capacity_rows(memory_bytes);
        ExternalSorter {
            ctx,
            key_cols,
            mode,
            memory_rows,
            rows_per_page: (PAGE_SIZE / ROW_BYTES).max(1),
            store: PackedRows::default(),
            buffered: 0,
            base: Vec::new(),
            cursor: 0,
            current: Vec::new(),
            pending: Vec::new(),
            scratch: Vec::new(),
            owed: Cell::new(0),
            open_rows: 0,
            page_fill: 0,
            runs: Vec::new(),
            spilled: false,
        }
    }

    /// Whether any row reached the simulated disk.
    pub fn spilled(&self) -> bool {
        self.spilled
    }

    /// Number of runs created so far (in-memory content not included).
    pub fn run_count(&self) -> usize {
        self.runs.len() + usize::from(self.open_rows != 0)
    }

    fn handle(&self, slot: usize) -> Handle {
        Handle { key0: self.store.row(slot)[self.key_cols[0]], slot: slot as u32 }
    }

    /// Accept a batch of input rows: appended to the store whole, then
    /// admitted one by one, in row order.
    pub fn push(&mut self, batch: &RowBatch) {
        let first = self.store.len();
        self.store.extend_from_batch(batch);
        self.admit(first);
    }

    /// Sort a whole input — a sort-merge join's materialised side — taken
    /// as the store instead of copied into it.  The order is computed
    /// first, off the clock; then the rows are admitted in arrival order
    /// and the finish is charged, call for call as `push` of the same rows
    /// and `finish` would, and the rows come back with their order instead
    /// of through a sink.  The sorter must not hold a row yet.  The order
    /// is sorted through `scratch`, which a caller sorting several inputs
    /// shares between them.
    pub fn sort_all(mut self, rows: PackedRows, scratch: &mut Vec<Handle>) -> SortedRows {
        let (order, parked) = self.admit_all(rows, scratch);
        let log_k = self.close(parked);
        self.final_pass(log_k, None);
        SortedRows { rows: self.store, order }
    }

    /// Take `rows` as the store, order it (through `scratch`), and admit
    /// every row.  Returns the order and the rows parked at the end.
    fn admit_all(&mut self, rows: PackedRows, scratch: &mut Vec<Handle>) -> (Vec<Handle>, usize) {
        assert!(self.store.is_empty(), "sort_all on a sorter that holds rows");
        self.store = rows;
        let order = sorted_order(&self.store, &self.key_cols, scratch);
        let parked = match self.mode {
            SpillMode::Abrupt => {
                self.admit(0);
                0
            }
            SpillMode::Graceful => self.admit_ranked(&order),
        };
        (order, parked)
    }

    /// `~log2(M)` comparisons of heap / buffer maintenance, charged per
    /// admitted row.
    fn push_compares(&self) -> u64 {
        (usize::BITS - self.memory_rows.leading_zeros()) as u64
    }

    /// Charge the push comparisons owed, one call per row, in one
    /// [`robustmap_storage::Session::charge_each`].
    fn settle(&self) {
        let rows = self.owed.take();
        self.ctx.session.charge_each(rows, &[CpuCharge::Compares(self.push_compares())]);
    }

    /// Admit the stored rows from slot `first` on, in arrival order: each
    /// is charged its push comparisons, then whatever spill its arrival
    /// causes.  The comparisons are owed until the next charge, so a run
    /// of rows that spill nothing is charged in one call.
    fn admit(&mut self, first: usize) {
        for slot in first..self.store.len() {
            self.owed.set(self.owed.get() + 1);
            match self.mode {
                SpillMode::Abrupt => {
                    self.buffered += 1;
                    if self.buffered >= self.memory_rows {
                        self.spill_buffer_as_run();
                    }
                }
                // Until the memory is full there is no window to maintain.
                SpillMode::Graceful => {
                    if slot >= self.memory_rows {
                        self.replace_window_min(slot);
                    }
                }
            }
        }
        self.settle();
    }

    /// Abrupt spill: the whole buffer is sorted and written out as one
    /// run — on the clock; its rows already sit in the store.
    fn spill_buffer_as_run(&mut self) {
        let rows = std::mem::take(&mut self.buffered);
        if rows == 0 {
            return;
        }
        self.spilled = true;
        self.settle();
        self.ctx.session.charge_compares(rows as u64 * ceil_log2(rows));
        self.write_run_pages(rows);
        self.runs.push(SortedRun { rows, disk_rows: rows });
        self.ctx.note_spill();
    }

    /// The parked handles become the next run's window: a fresh sorted
    /// base.
    fn promote_pending(&mut self) {
        std::mem::swap(&mut self.base, &mut self.pending);
        self.pending.clear();
        sort_handles(&mut self.base, &mut self.scratch, &self.store, &self.key_cols);
        self.cursor = 0;
    }

    /// Remove the window minimum — the base head or the joiner heap's top;
    /// a tie between the two means bit-identical rows, so either may win —
    /// as the open run's next row, charging any completed page.  `None` if
    /// the window is empty.
    fn emit_window_min(&mut self) -> Option<Handle> {
        let less = handle_less(&self.store, &self.key_cols);
        let min = match (self.base.get(self.cursor), self.current.first()) {
            (None, None) => return None,
            (Some(&b), top) if top.is_none_or(|&h| !less(h, b)) => {
                self.cursor += 1;
                b
            }
            _ => heap_pop(&mut self.current, &less).expect("heap checked non-empty"),
        };
        drop(less);
        self.count_emission();
        Some(min)
    }

    /// One row written to the open run, in either window: a page charged
    /// each time one fills.
    fn count_emission(&mut self) {
        self.open_rows += 1;
        self.page_fill += 1;
        if self.page_fill == self.rows_per_page {
            self.page_fill = 0;
            self.charge_run_write(1);
        }
    }

    /// Replacement selection, for the row in `slot`, which arrived to a
    /// full memory: the window's minimum goes to disk and the newcomer is
    /// admitted.  The window is the union of `base[cursor..]` (sorted once
    /// when the run opened) and the joiner heap, so the common emission —
    /// the run's minimum is the base head — is a cursor advance instead
    /// of a full-depth heap pop, and closing a run sorts the parked
    /// handles wholesale instead of re-heapifying them one by one.  Which
    /// rows land in which run is exactly the classic algorithm's: both
    /// maintain the same window multiset and always emit its minimum.
    /// Simulated charges are analytic per push, so they are bit-identical
    /// too.
    fn replace_window_min(&mut self, slot: usize) {
        let newcomer = self.handle(slot);
        if !self.spilled {
            // The first row to find the memory full: the rows that fill
            // it are the first run's window, built like every later one.
            self.pending = (0..newcomer.slot as usize).map(|i| self.handle(i)).collect();
            self.promote_pending();
        }
        self.spilled = true;
        self.ctx.note_spill();
        let joins = match self.emit_window_min() {
            // Below the row just written: it starts the next run.
            Some(min) => !handle_less(&self.store, &self.key_cols)(newcomer, min),
            // Window empty: close this run, promote the parked rows, and
            // admit the newcomer without emitting.
            None => {
                self.close_open_run();
                self.promote_pending();
                true
            }
        };
        if joins {
            heap_push(&mut self.current, newcomer, &handle_less(&self.store, &self.key_cols));
        } else {
            self.pending.push(newcomer);
        }
    }

    /// Replacement selection over the whole store, whose `order` is known:
    /// the same emissions, runs and charges as `admit` with the handle
    /// window, with a `RankWindow` for the window.  The open run's minimum
    /// is the next rank in the window above the one last emitted, and a
    /// newcomer joins the open run iff it ranks above the row just emitted
    /// — which is the handle window's `!less(newcomer, min)`, because the
    /// newcomer arrived after `min`, so a bit-identical newcomer ranks
    /// above it.  Returns the rows parked at the end.
    fn admit_ranked(&mut self, order: &[Handle]) -> usize {
        let mut rank = vec![0u32; order.len()];
        for (r, h) in order.iter().enumerate() {
            rank[h.slot as usize] = r as u32;
        }
        let mut window = RankWindow::new(order.len());
        for (slot, &r) in rank.iter().enumerate() {
            self.owed.set(self.owed.get() + 1);
            if slot >= self.memory_rows {
                self.spilled = true;
                self.ctx.note_spill();
                if window.emit() {
                    self.count_emission();
                } else {
                    // The open run is empty: close it, and the parked rows
                    // are the next run's window.
                    self.close_open_run();
                    window.next = 0;
                }
            }
            window.insert(r as usize);
        }
        self.settle();
        window.parked()
    }

    fn close_open_run(&mut self) {
        let rows = std::mem::take(&mut self.open_rows);
        if rows == 0 {
            return;
        }
        // Charge the final partial page of the run.
        if self.page_fill != 0 {
            self.page_fill = 0;
            self.charge_run_write(1);
        }
        self.runs.push(SortedRun { rows, disk_rows: rows });
    }

    fn charge_run_write(&self, pages: u32) {
        self.settle();
        let file = self.ctx.alloc_temp_file();
        for p in 0..pages {
            self.ctx.session.write_page(PageId::new(file, p));
        }
    }

    fn write_run_pages(&self, rows: usize) {
        self.charge_run_write(rows.div_ceil(self.rows_per_page) as u32);
    }

    /// Finish: produce the fully sorted output into `sink` — or, with no
    /// sink, charge what producing it charges without computing the order.
    /// Returns rows emitted.
    pub fn finish(mut self, sink: Option<RowSink<'_>>) -> u64 {
        let log_k = self.close(self.pending.len());
        self.final_pass(log_k, sink)
    }

    /// Every charge of the finish ahead of its final pass, `parked` rows
    /// waiting for a Graceful run that never opened.  Returns the `log2 k`
    /// comparisons per row of the final merge, `None` for an in-memory
    /// sort.
    fn close(&mut self, parked: usize) -> Option<u64> {
        match self.mode {
            SpillMode::Abrupt => {
                if !self.spilled {
                    // Everything fit: a single in-memory sort, zero I/O.
                    let n = self.buffered;
                    if n > 1 {
                        self.ctx.session.charge_compares(n as u64 * ceil_log2(n));
                    }
                    return None;
                }
                // The paper's "spill everything" pathology: the last
                // partial buffer is written out too.
                self.spill_buffer_as_run();
            }
            SpillMode::Graceful => {
                // Whatever is still in memory becomes in-memory runs that
                // merge without ever touching disk.
                self.close_graceful_tails(parked);
            }
        }
        Some(self.merge_runs())
    }

    /// Graceful finish: the rows still in memory become runs that merge
    /// without touching disk — the window as the (unwritten) tail of the
    /// open run, the `parked` rows as a final short run.
    fn close_graceful_tails(&mut self, parked: usize) {
        let disk_rows = self.open_rows;
        if self.page_fill != 0 {
            self.page_fill = 0;
            self.charge_run_write(1);
        }
        // The open run is every row neither in a closed run nor parked.
        let closed: usize = self.runs.iter().map(|run| run.rows).sum();
        let rows = self.store.len() - closed - parked;
        if rows != 0 {
            self.runs.push(SortedRun { rows, disk_rows });
        }
        if parked != 0 {
            self.ctx.session.charge_compares(parked as u64 * ceil_log2(parked).max(1));
            self.runs.push(SortedRun { rows: parked, disk_rows: 0 });
        }
    }

    /// Merge the runs under the fan-in limit: intermediate passes (which
    /// rewrite the data) and the final pass's reads, on the clock only.
    /// Returns the final pass's `log2 k`.
    fn merge_runs(&mut self) -> u64 {
        let session = self.ctx.session;
        let fan_in = (self.ctx.memory_bytes / PAGE_SIZE).clamp(2, 64);
        // Intermediate passes until one final merge can cover all runs.
        while self.runs.len() > fan_in {
            let mut next = Vec::with_capacity(self.runs.len().div_ceil(fan_in));
            for group in self.runs.chunks(fan_in) {
                let log_k = self.charge_group_reads(group);
                let rows: usize = group.iter().map(|run| run.rows).sum();
                session.charge_each(rows as u64, &[CpuCharge::Compares(log_k), CpuCharge::Rows(1)]);
                self.write_run_pages(rows);
                self.ctx.note_spill();
                next.push(SortedRun { rows, disk_rows: rows });
            }
            self.runs = next;
        }
        self.charge_group_reads(&self.runs)
    }

    /// The final pass over every stored row: `log_k` comparisons (for a
    /// merge) and a row charged a row at a time, one call each, so a served
    /// slice ends where it would after any row.  With a sink the store is
    /// ordered once and emitted in that order, each row charged before it
    /// is emitted; without one — the rows are only counted — the order is
    /// never computed, and the rows are charged in one `charge_each`.
    /// Returns the rows.
    fn final_pass(&mut self, log_k: Option<u64>, sink: Option<RowSink<'_>>) -> u64 {
        let session = self.ctx.session;
        let rows = self.store.len() as u64;
        let each: &[CpuCharge] = match log_k {
            Some(log_k) => &[CpuCharge::Compares(log_k), CpuCharge::Rows(1)],
            None => &[CpuCharge::Rows(1)],
        };
        match sink {
            Some(sink) => {
                for h in sorted_order(&self.store, &self.key_cols, &mut self.scratch) {
                    session.charge_each(1, each);
                    sink(self.store.row(h.slot as usize));
                }
            }
            None => session.charge_each(rows, each),
        }
        rows
    }

    /// Charge reading back each run's disk prefix ahead of a k-way merge
    /// of `group`; returns the `log2(k)` comparisons each merged row costs.
    fn charge_group_reads(&self, group: &[SortedRun]) -> u64 {
        for run in group {
            let pages = run.disk_rows.div_ceil(self.rows_per_page) as u32;
            self.ctx.read_back_and_drop(self.ctx.alloc_temp_file(), pages);
        }
        ceil_log2(group.len().max(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecCtx;
    use crate::ops::testutil::{demo_db, feed};
    use proptest::prelude::*;
    use robustmap_storage::{Row, Session};

    fn sort_all(
        rows: &[Row],
        mode: SpillMode,
        memory_bytes: usize,
    ) -> (Vec<Vec<i64>>, robustmap_storage::IoStats, bool) {
        let (db, _) = demo_db(4);
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, memory_bytes);
        let mut sorter = ExternalSorter::new(&ctx, vec![0], mode, memory_bytes);
        feed(rows.iter().map(Row::values), &mut |b| sorter.push(b));
        let mut out = Vec::new();
        let n = sorter.finish(Some(&mut |r| out.push(r.to_vec())));
        assert_eq!(n as usize, rows.len());
        (out, s.stats(), ctx.spilled())
    }

    fn scrambled(n: i64) -> Vec<Row> {
        (0..n).map(|i| Row::from_slice(&[(i * 7919) % n, i])).collect()
    }

    #[test]
    fn in_memory_sort_is_correct_and_io_free() {
        for mode in [SpillMode::Abrupt, SpillMode::Graceful] {
            let rows = scrambled(500);
            let (out, io, spilled) = sort_all(&rows, mode, 1 << 20);
            assert!(!spilled, "{mode:?} must not spill");
            assert_eq!(io.page_writes, 0);
            let keys: Vec<i64> = out.iter().map(|r| r[0]).collect();
            assert_eq!(keys, (0..500).collect::<Vec<_>>(), "{mode:?}");
        }
    }

    #[test]
    fn spilling_sort_is_still_correct() {
        for mode in [SpillMode::Abrupt, SpillMode::Graceful] {
            let rows = scrambled(5000);
            let (out, io, spilled) = sort_all(&rows, mode, 8 * 1024); // ~100 rows of memory
            assert!(spilled, "{mode:?} must spill");
            assert!(io.page_writes > 0);
            let keys: Vec<i64> = out.iter().map(|r| r[0]).collect();
            assert_eq!(keys, (0..5000).collect::<Vec<_>>(), "{mode:?}");
        }
    }

    #[test]
    fn duplicate_keys_are_stable_under_full_row_tiebreak() {
        let rows: Vec<Row> =
            (0..100).map(|i| Row::from_slice(&[i % 5, 99 - i])).collect();
        let (out, _, _) = sort_all(&rows, SpillMode::Graceful, 1 << 20);
        // Sorted by key, then by the remaining column.
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn multi_column_keys_sort_lexicographically() {
        let rows: Vec<Row> =
            (0..200).map(|i| Row::from_slice(&[i % 4, (i * 13) % 17, i])).collect();
        for mode in [SpillMode::Abrupt, SpillMode::Graceful] {
            let (db, _) = demo_db(4);
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, 2048);
            let mut sorter = ExternalSorter::new(&ctx, vec![0, 1], mode, 2048);
            feed(rows.iter().map(Row::values), &mut |b| sorter.push(b));
            let mut out: Vec<Vec<i64>> = Vec::new();
            sorter.finish(Some(&mut |r| out.push(r.to_vec())));
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "{mode:?}");
            assert_eq!(out.len(), rows.len());
        }
    }

    #[test]
    fn abrupt_spills_everything_graceful_spills_overflow() {
        // Memory fits ~102 rows; input is just over the cliff.
        let memory = 8 * 1024;
        let m = memory / ROW_BYTES;
        let rows = scrambled(m as i64 + 8);
        let (_, io_abrupt, _) = sort_all(&rows, SpillMode::Abrupt, memory);
        let (_, io_graceful, _) = sort_all(&rows, SpillMode::Graceful, memory);
        // Abrupt wrote the entire input; graceful wrote only the overflow.
        assert!(
            io_abrupt.page_writes >= 2 * io_graceful.page_writes.max(1),
            "abrupt {} vs graceful {}",
            io_abrupt.page_writes,
            io_graceful.page_writes
        );
    }

    #[test]
    fn graceful_just_below_threshold_is_io_free() {
        let memory = 8 * 1024;
        let m = memory / ROW_BYTES;
        let rows = scrambled(m as i64 - 1);
        let (_, io, spilled) = sort_all(&rows, SpillMode::Graceful, memory);
        assert!(!spilled);
        assert_eq!(io.page_writes, 0);
    }

    #[test]
    fn replacement_selection_builds_long_runs() {
        // Random input: replacement selection's runs average ~2M, so it
        // needs roughly half as many runs as fill-and-spill.
        let memory = 8 * 1024;
        let (db, _) = demo_db(4);
        let rows = scrambled(20_000);
        let runs_of = |mode| {
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, memory);
            let mut sorter = ExternalSorter::new(&ctx, vec![0], mode, memory);
            feed(rows.iter().map(Row::values), &mut |b| sorter.push(b));
            let rc = sorter.run_count();
            sorter.finish(None);
            rc
        };
        let abrupt_runs = runs_of(SpillMode::Abrupt);
        let graceful_runs = runs_of(SpillMode::Graceful);
        assert!(
            (graceful_runs as f64) < abrupt_runs as f64 * 0.75,
            "graceful {graceful_runs} vs abrupt {abrupt_runs}"
        );
    }

    /// Charges of sorts whose merges run several levels deep, pinned
    /// against counters printed by the row-moving k-way merge this sorter's
    /// accounting replaced — the clock is their closed form — (the golden ledger's spilling
    /// sorts stop at one intermediate level).  A 160-byte grant holds two
    /// rows, so 10 000 rows make 5 000 Abrupt runs, merged 64-way in two
    /// intermediate levels (5 000 -> 79 -> 2).  Replacement selection
    /// cannot be driven that deep with 10 000 rows (a promoted window
    /// admits one row more than the grant, so even a descending input
    /// makes runs of 2, 3, 4, ... rows): its two inputs reach one level
    /// with about 100 and 140 ragged runs.  The join sorts both inputs
    /// under a context whose 2 KiB grant merges two-way, which leaves a
    /// lone run at the end of most of its levels.
    #[test]
    fn deep_merge_charges_are_pinned() {
        let (db, _) = demo_db(4);
        // (counters, temp files allocated)
        let measure = |ctx_bytes: usize, run: &dyn Fn(&ExecCtx<'_>)| {
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, ctx_bytes);
            run(&ctx);
            assert_eq!(s.elapsed_ticks(), s.costs().of(&s.stats()));
            (s.stats(), ctx.alloc_temp_file().0 - db.temp_file_base())
        };
        let io = |pages: u64, cpu_rows: u64, cpu_compares: u64| robustmap_storage::IoStats {
            seq_reads: pages,
            page_writes: pages,
            cpu_rows,
            cpu_compares,
            ..Default::default()
        };
        let descending: Vec<Row> = (0..10_000).map(|i| Row::from_slice(&[-i, i])).collect();
        for (name, mode, rows, want) in [
            ("abrupt", SpillMode::Abrupt, scrambled(10_000), (io(5256, 30_000, 156_336), 10_162)),
            ("graceful", SpillMode::Graceful, scrambled(10_000), (io(247, 20_000, 90_015), 252)),
            ("graceful, descending", SpillMode::Graceful, descending, (io(277, 20_000, 97_816), 323)),
        ] {
            let got = measure(1 << 20, &|ctx| {
                let mut sorter = ExternalSorter::new(ctx, vec![0], mode, 160);
                feed(rows.iter().map(Row::values), &mut |b| sorter.push(b));
                assert_eq!(sorter.finish(None), 10_000);
            });
            assert_eq!(got, want, "{name}");
        }
        let side = |n: i64, m: i64| {
            let mut rows = PackedRows::default();
            for i in 0..n {
                rows.push(&[(i * 7919) % m, i]);
            }
            rows
        };
        let got = measure(2048, &|ctx| {
            let joined = crate::ops::join::sort_merge_join(
                side(3000, 97),
                side(2000, 89),
                0,
                0,
                2048,
                ctx,
                None,
            );
            assert_eq!(joined, Ok(61_843));
        });
        assert_eq!(got, (io(370, 91_843, 50_246), 338), "sort-merge join");
    }

    /// Textbook replacement selection — one heap of `(run, key, row)` over a
    /// memory of `m` rows — with this sorter's one quirk: a row that finds
    /// the window empty closes the run and is admitted without an emission.
    /// Returns each run as `(rows, rows on disk)` and how many rows of the
    /// last one were parked for a run that never opened.
    fn textbook_runs(rows: &[[i64; 2]], k: usize, m: usize) -> (Vec<(usize, usize)>, usize) {
        use std::cmp::Reverse;
        let mut heap = std::collections::BinaryHeap::new();
        let (mut run, mut written, mut runs) = (0, 0, Vec::new());
        for &row in rows {
            match heap.peek() {
                _ if heap.len() < m => heap.push(Reverse((run, row[k], row))),
                Some(&Reverse((r, key, min))) if r == run => {
                    heap.pop();
                    written += 1;
                    heap.push(Reverse((run + usize::from((row[k], row) < (key, min)), row[k], row)));
                }
                _ => {
                    runs.push((written, written));
                    (run, written) = (run + 1, 0);
                    heap.push(Reverse((run, row[k], row)));
                }
            }
        }
        let parked = heap.iter().filter(|Reverse((r, ..))| *r != run).count();
        if written + heap.len() != parked {
            runs.push((written + heap.len() - parked, written));
        }
        if parked != 0 {
            runs.push((parked, 0));
        }
        (runs, parked)
    }

    /// What those runs cost: a page per 51 rows written, `bits(m)` compares
    /// a push, a sort of the parked rows, and a 64-way merge.
    fn textbook_charges(n: usize, m: usize, runs: &[(usize, usize)], parked: usize) -> (u64, u64) {
        let rpp = PAGE_SIZE / ROW_BYTES;
        let mut writes: usize = runs.iter().map(|run| run.1.div_ceil(rpp)).sum();
        let mut compares = n as u64 * (usize::BITS - m.leading_zeros()) as u64;
        if parked != 0 {
            compares += parked as u64 * ceil_log2(parked).max(1);
        }
        let mut level: Vec<usize> = runs.iter().map(|run| run.0).collect();
        while level.len() > 64 {
            let merged = level.chunks(64).map(|group| {
                let rows: usize = group.iter().sum();
                compares += rows as u64 * ceil_log2(group.len().max(2));
                writes += rows.div_ceil(rpp);
                rows
            });
            level = merged.collect();
        }
        if !level.is_empty() {
            compares += n as u64 * ceil_log2(level.len().max(2));
        }
        (writes as u64, compares)
    }

    fn key_cell() -> impl Strategy<Value = i64> {
        prop_oneof![any::<i64>(), -3i64..3, Just(i64::MIN), Just(i64::MAX)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Run formation — the one part of the sorter that stays physical
        /// — is the textbook's in both windows, the handle window of a
        /// batched `push` and the rank window of `sort_all`: run lengths,
        /// pages written, comparisons charged and output, on keys at both
        /// extremes, heavy leading-key duplicates, bit-identical rows and
        /// leading-key ties with different payloads, in arrival, ascending
        /// and descending order.  At 8 193 rows the rank bitmap has 129
        /// words under three summary words, so an emission at 2 rows of
        /// memory jumps across summary words, and those runs outnumber
        /// one 64-way merge.
        #[test]
        fn run_formation_is_the_textbooks(
            pool in prop::collection::vec((key_cell(), -2i64..2), 8193),
        ) {
            let (db, _) = demo_db(4);
            let arrival: Vec<[i64; 2]> = pool.iter().map(|&(a, b)| [a, b]).collect();
            for k in [0, 1] {
                let mut ascending = arrival.clone();
                ascending.sort_by_key(|row| (row[k], *row));
                let descending: Vec<_> = ascending.iter().rev().copied().collect();
                for (order, input) in [("arrival", &arrival), ("ascending", &ascending), ("descending", &descending)] {
                    for m in [2, 3, 25, 101, 102, 103] {
                        for (n, whole) in [0, 1, m, m + 1, 8193].into_iter().flat_map(|n| [(n, false), (n, true)]) {
                            let window = if whole { "sort_all" } else { "push" };
                            let case = format!("{window}, key {k}, {order}, {m} rows of memory, {n} rows");
                            let s = Session::with_pool_pages(64);
                            let ctx = ExecCtx::new(&db, &s, 1 << 20);
                            let mut sorter = ExternalSorter::new(&ctx, vec![k], SpillMode::Graceful, m * ROW_BYTES);
                            let mut out = Vec::with_capacity(n);
                            let mut sink = |row: &[i64]| out.push([row[0], row[1]]);
                            // What `sort_all` and `finish` do, with the
                            // runs read before they merge.
                            let order = if whole {
                                let mut rows = PackedRows::default();
                                input[..n].iter().for_each(|row| rows.push(row));
                                let (order, parked) = sorter.admit_all(rows, &mut Vec::new());
                                sorter.close_graceful_tails(parked);
                                Some(order)
                            } else {
                                feed(input[..n].iter().map(|row| &row[..]), &mut |b| sorter.push(b));
                                sorter.close_graceful_tails(sorter.pending.len());
                                None
                            };
                            let runs: Vec<_> = sorter.runs.iter().map(|run| (run.rows, run.disk_rows)).collect();
                            let log_k = sorter.merge_runs();
                            match order {
                                Some(order) => {
                                    sorter.final_pass(Some(log_k), None);
                                    order.iter().for_each(|h| sink(sorter.store.row(h.slot as usize)));
                                }
                                None => _ = sorter.final_pass(Some(log_k), Some(&mut sink)),
                            }
                            let (want_runs, parked) = textbook_runs(&input[..n], k, m);
                            prop_assert_eq!(&runs, &want_runs, "{}", case);
                            let (writes, compares) = textbook_charges(n, m, &runs, parked);
                            prop_assert_eq!((s.stats().page_writes, s.stats().cpu_compares), (writes, compares), "{}", case);
                            prop_assert!(out == ascending_prefix(&input[..n], k), "{}: output out of order", case);
                        }
                    }
                }
            }
        }
    }

    fn ascending_prefix(rows: &[[i64; 2]], k: usize) -> Vec<[i64; 2]> {
        let mut sorted = rows.to_vec();
        sorted.sort_by_key(|row| (row[k], *row));
        sorted
    }

    #[test]
    fn empty_input() {
        let (out, io, _) = sort_all(&[], SpillMode::Abrupt, 1024);
        assert!(out.is_empty());
        assert_eq!(io.page_writes, 0);
        let (out, _, _) = sort_all(&[], SpillMode::Graceful, 1024);
        assert!(out.is_empty());
    }
}
