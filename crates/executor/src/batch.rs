//! Batched (vectorized) execution primitives.
//!
//! The interpreter in [`crate::exec`] moves rows between operators in
//! columnar [`RowBatch`] chunks of up to [`BATCH_ROWS`] rows, so the
//! real-time interpreter overhead (per-row `Row` materialisation, virtual
//! sink dispatch, full-row decoding) is amortised.  Every edge of every
//! plan runs at that one size:
//!
//! * kernels group their charges by what the *data* gives them — a heap
//!   page, an index leaf, a run of rids on one page — never by
//!   [`RowBatch`];
//! * batching only moves work that is *free* on the simulated clock:
//!   decoding, projection, sink dispatch, and intermediate-row copies;
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
//! Heap records — a table scan's page, a parallel scan worker's page, a
//! fetch's run of rids on one page — go through one kernel,
//! [`BatchEmitter::filter`]: the predicate's verdicts on up to
//! [`BATCH_ROWS`] records become a `u16` selection vector, and the
//! selected rows' projected columns are gathered a column at a time
//! straight into the batch.  The kernel charges nothing; each caller
//! charges what it reports ([`Filtered`]) in its own calls.  It is inlined,
//! and each kind of [`Records`] has its own call of it in every reader: a
//! call that could take two kinds compiles both loops into one.
//!
//! `tests/exec_ledger.rs` pins every plan's charges, the blocking edges at
//! pools of a few pages among them.

use robustmap_storage::{HeapFile, HeapPage, Row, Slots};

use crate::expr::Predicate;

/// Rows per [`RowBatch`] flowing between operators: amortises interpreter
/// overhead without hurting cache residency.
pub const BATCH_ROWS: usize = 1024;

// A masked area's chunks of BATCH_ROWS slots are whole words of its mask.
const _: () = assert!(BATCH_ROWS.is_multiple_of(64));

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

/// Read column `col` of a row stored as little-endian `i64`s (the heap's
/// record encoding) without decoding the whole row.
#[inline]
fn col_from_bytes(bytes: &[u8], col: usize) -> i64 {
    let at = col * 8;
    i64::from_le_bytes(bytes[at..at + 8].try_into().expect("column in record"))
}

/// The records of one heap page or one rid run, in slot or rid order.
///
/// A page the heap keeps in the append layout of `width`-byte records is
/// read by arithmetic, record `i` of `n` the `width` bytes at `(n − 1 − i)
/// · width` of its record area: all of it ([`HeapPage::packed`]), or, on a
/// holey page ([`HeapFile::holey`]), the slots a mask marks.  Any other
/// page's records are listed one by one through its slot directory.
#[derive(Clone, Copy)]
pub enum Records<'r> {
    /// Every record of an append-layout page's record area.
    Packed { area: &'r [u8], width: usize },
    /// The `live` records of the slots set in `mask` (bit `s` of word
    /// `s / 64`), in slot order: a holey page's live slots, or a rid set's
    /// page group of them.  Every set bit is below the area's `n` records,
    /// and `live` is the number set.
    Masked { area: &'r [u8], width: usize, mask: &'r [u64], live: usize },
    /// The records one by one.
    Listed(&'r [&'r [u8]]),
}

/// What one [`BatchEmitter::filter`] call read: `live` records, the
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
    /// The selection vector of [`BatchEmitter::filter`], allocated by its
    /// first call (on the heap: a served query's thread stack stays small).
    sel: Vec<u16>,
}

impl BatchEmitter {
    /// An emitter producing batches with `arity` columns.
    pub fn new(arity: usize) -> Self {
        BatchEmitter { batch: RowBatch::new(arity), flushed: 0, sel: Vec::new() }
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

    /// Emit columns `proj` of heap page `page_no`'s live records that pass
    /// `pred`, in slot order: [`BatchEmitter::filter`] of the page's record
    /// area, of its area under its live-slot mask if it is holey, or of its
    /// records listed into `listed` through its directory — each kind its
    /// own call of the kernel.
    #[inline(always)]
    pub fn filter_page<'h>(
        &mut self,
        pred: &Predicate,
        heap: &'h HeapFile,
        (page_no, page): (u32, HeapPage<'h>),
        listed: &mut Vec<&'h [u8]>,
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) -> Filtered {
        if let Some((area, width)) = page.packed() {
            return self.filter(pred, Records::Packed { area, width }, proj, sink);
        }
        if let Some((area, width, mask)) = heap.holey(page_no) {
            let live = mask.iter().map(|w| w.count_ones() as usize).sum();
            return self.filter(pred, Records::Masked { area, width, mask, live }, proj, sink);
        }
        listed.clear();
        listed.extend(page.records());
        self.filter(pred, Records::Listed(listed), proj, sink)
    }

    /// Emit columns `proj` of the `records` that pass `pred`, in order —
    /// the one loop that evaluates a predicate over heap records.  Charges
    /// nothing: the caller charges what it returns.  Inlined, because a
    /// fetch's rid run is mostly one record, which a call's set-up outweighs.
    #[inline(always)]
    pub fn filter(
        &mut self,
        pred: &Predicate,
        records: Records<'_>,
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) -> Filtered {
        match records {
            Records::Packed { area, width } => {
                let n = area.len() / width;
                // A position is a record's slot less the chunk's first,
                // slot 0 on top.
                let chunk = move |from: usize, len: usize| {
                    let top = (n - from) * width;
                    (0..len).zip(area[top - len * width..top].chunks_exact(width).rev())
                };
                self.filter_with(pred, n, n, chunk, at(area, width), proj, sink)
            }
            Records::Masked { area, width, mask, live } => {
                let n = area.len() / width;
                // A chunk is a run of BATCH_ROWS slots — whole words of the
                // mask — of which only the set bits' records are read, a
                // position again a slot less the chunk's first.
                let chunk = move |from: usize, len: usize| {
                    Slots::new(&mask[from / 64..(from + len) / 64]).map(move |slot| {
                        let slot = slot as usize;
                        let pos = (n - 1 - from - slot) * width;
                        (slot, &area[pos..pos + width])
                    })
                };
                self.filter_with(pred, live, mask.len() * 64, chunk, at(area, width), proj, sink)
            }
            Records::Listed(records) => {
                // A position is a record's index from the chunk's first.
                let chunk = move |from: usize, len: usize| {
                    (0..len).zip(records[from..from + len].iter().copied())
                };
                let at = move |from: usize, pos: usize, c| col_from_bytes(records[from + pos], c);
                self.filter_with(pred, records.len(), records.len(), chunk, at, proj, sink)
            }
        }
    }

    /// [`BatchEmitter::filter`] over `live` records at positions `0 ..
    /// span`, [`BATCH_ROWS`] positions a selection vector: `chunk(from,
    /// len)` yields the records at positions `from .. from + len` in order,
    /// each with its position less `from`, and `at(from, that, column)`
    /// reads a selected one's column.  A position in the vector is below
    /// [`BATCH_ROWS`] whatever the area's size.
    #[inline(always)]
    fn filter_with<'r, C: Iterator<Item = (usize, &'r [u8])>>(
        &mut self,
        pred: &Predicate,
        live: usize,
        span: usize,
        chunk: impl Fn(usize, usize) -> C,
        at: impl Fn(usize, usize, usize) -> i64 + Copy,
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) -> Filtered {
        let mut out = Filtered { live: live as u64, compares: 0, selected: 0 };
        self.sel.resize(BATCH_ROWS, 0);
        for from in (0..span).step_by(BATCH_ROWS) {
            let at = move |pos: usize, c: usize| at(from, pos, c);
            let sel = (&mut self.sel[..]).try_into().expect("a selection vector");
            let chunk = chunk(from, (span - from).min(BATCH_ROWS));
            // Branch-free: every record is written to the vector, and only
            // a pass advances it.  `compares` replays the short circuit.
            let (picked, compares) = match *pred.terms() {
                [] => select(sel, chunk, |_| (0, true)),
                [t] => select(sel, chunk, move |r: &[u8]| (1, t.admits(col_from_bytes(r, t.col)))),
                [t, u] => select(sel, chunk, move |r: &[u8]| {
                    let first = t.admits(col_from_bytes(r, t.col));
                    (1 + u64::from(first), first & u.admits(col_from_bytes(r, u.col)))
                }),
                ref terms => select(sel, chunk, move |r: &[u8]| {
                    let (mut alive, mut compares) = (true, 0);
                    for t in terms {
                        compares += u64::from(alive);
                        alive &= t.admits(col_from_bytes(r, t.col));
                    }
                    (compares, alive)
                }),
            };
            out.compares += compares;
            out.selected += picked as u64;
            self.gather(picked, at, proj, sink);
        }
        out
    }

    /// Emit the first `picked` rows of the selection vector, a column at a
    /// time, splitting where the batch fills.
    #[inline(always)]
    fn gather(
        &mut self,
        picked: usize,
        at: impl Fn(usize, usize) -> i64,
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) {
        let mut done = 0;
        while done < picked {
            let rows = self.batch.rows;
            let m = (picked - done).min(BATCH_ROWS - rows);
            let sel = &self.sel[done..done + m];
            for (col, &src) in self.batch.cols.iter_mut().zip(proj) {
                for (cell, &i) in col[rows..rows + m].iter_mut().zip(sel) {
                    *cell = at(usize::from(i), src);
                }
            }
            self.batch.rows += m;
            if self.batch.rows == BATCH_ROWS {
                self.flush(sink);
            }
            done += m;
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

/// How the kernel reads a selected record's column out of an area of
/// `width`-byte records, slot 0 on top, given the chunk's first slot and
/// the record's slot less it.
#[inline(always)]
fn at(area: &[u8], width: usize) -> impl Fn(usize, usize, usize) -> i64 + Copy + '_ {
    let n = area.len() / width;
    move |from: usize, pos: usize, c: usize| {
        let at = (n - 1 - from - pos) * width;
        col_from_bytes(&area[at..at + width], c)
    }
}

/// Write the position of each of at most [`BATCH_ROWS`] records to `sel`
/// and advance past those `test` passes; the number passed and the
/// comparisons `test` counted.
fn select<'r>(
    sel: &mut [u16; BATCH_ROWS],
    records: impl Iterator<Item = (usize, &'r [u8])>,
    test: impl Fn(&'r [u8]) -> (u64, bool),
) -> (usize, u64) {
    let (mut picked, mut compares) = (0, 0);
    for (pos, record) in records {
        let (c, pass) = test(record);
        // `picked` is below the records seen, so below BATCH_ROWS, and so
        // is a position.
        sel[picked % BATCH_ROWS] = pos as u16;
        picked += usize::from(pass);
        compares += c;
    }
    (picked, compares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColRange;

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

    /// The kernel's batches split exactly where row-by-row pushes split
    /// them, whatever the emitter already held.
    #[test]
    fn filter_splits_at_batch_boundaries() {
        let values: Vec<[i64; 3]> = (0..3000).map(|i| [i, i % 3, -i]).collect();
        let encoded: Vec<Vec<u8>> =
            values.iter().map(|v| v.iter().flat_map(|c| c.to_le_bytes()).collect()).collect();
        let records: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let pred = Predicate::single(ColRange::at_most(1, 1));
        let run = |bulk: bool| {
            let (mut sizes, mut rows) = (Vec::new(), Vec::new());
            let mut sink = |b: &RowBatch| {
                sizes.push(b.len());
                rows.extend((0..b.len()).map(|i| b.row(i).values().to_vec()));
            };
            let mut em = BatchEmitter::new(2);
            for i in 0..5 {
                em.push_projected_slice(&[i, i], &[0, 1], &mut sink);
            }
            if bulk {
                let got = em.filter(&pred, Records::Listed(&records), &[2, 0], &mut sink);
                assert_eq!(got, Filtered { live: 3000, compares: 3000, selected: 2000 });
            } else {
                for v in values.iter().filter(|v| v[1] <= 1) {
                    em.push_projected_slice(v, &[2, 0], &mut sink);
                }
            }
            em.flush(&mut sink);
            (em.produced(), sizes, rows)
        };
        let want = run(false);
        assert_eq!(want.1, vec![BATCH_ROWS, 981]);
        assert_eq!(run(true), want);
    }

    /// A masked area reads as its set slots' records listed, most of them
    /// set or few, over more records than a selection vector holds.
    #[test]
    fn masked_records_read_as_their_slots_listed() {
        let n: usize = 4000;
        let values: Vec<[i64; 2]> = (0..n as i64).map(|i| [i, i % 3]).collect();
        // Slot 0 on top, as appending lays records out.
        let area: Vec<u8> =
            values.iter().rev().flat_map(|v| v.iter().flat_map(|c| c.to_le_bytes())).collect();
        let pred = Predicate::single(ColRange::at_most(1, 1));
        for keep in [|s: usize| s % 5 != 2, |s: usize| s.is_multiple_of(3)] {
            let mut mask = vec![0u64; n.div_ceil(64)];
            for slot in (0..n).filter(|&s| keep(s)) {
                mask[slot / 64] |= 1 << (slot % 64);
            }
            let read = |records: Records<'_>| {
                let (mut em, mut rows) = (BatchEmitter::new(2), Vec::new());
                let mut sink = |b: &RowBatch| rows.extend((0..b.len()).map(|i| b.row(i)));
                let got = em.filter(&pred, records, &[1, 0], &mut sink);
                em.flush(&mut sink);
                (got, rows)
            };
            let listed: Vec<&[u8]> =
                (0..n).filter(|&s| keep(s)).map(|s| &area[(n - 1 - s) * 16..][..16]).collect();
            let want = read(Records::Listed(&listed));
            let live = listed.len();
            let masked = Records::Masked { area: &area, width: 16, mask: &mask, live };
            assert_eq!(read(masked), want);
            assert!(want.0.live > BATCH_ROWS as u64);
        }
    }

    /// An area over 64 KiB reads right, packed and under a mask of every
    /// slot: 3 000 records of 24 bytes emit `[-i, i]` for record `i`.
    #[test]
    fn an_area_over_64_kib_emits_its_rows() {
        let n: usize = 3000;
        let area: Vec<u8> = (0..n as i64)
            .rev()
            .flat_map(|i| [i, i % 3, -i].into_iter().flat_map(i64::to_le_bytes))
            .collect();
        assert!(area.len() > 1 << 16);
        let mut mask = vec![u64::MAX; n / 64];
        mask.push((1 << (n % 64)) - 1);
        let pred = Predicate::single(ColRange::at_least(0, 0));
        let want: Vec<Vec<i64>> = (0..n as i64).map(|i| vec![-i, i]).collect();
        let packed = Records::Packed { area: &area, width: 24 };
        let masked = Records::Masked { area: &area, width: 24, mask: &mask, live: n };
        for records in [packed, masked] {
            let (mut em, mut rows) = (BatchEmitter::new(2), Vec::new());
            let mut sink =
                |b: &RowBatch| rows.extend((0..b.len()).map(|i| b.row(i).values().to_vec()));
            let got = em.filter(&pred, records, &[2, 0], &mut sink);
            em.flush(&mut sink);
            let all = n as u64;
            assert_eq!(got, Filtered { live: all, compares: all, selected: all });
            assert_eq!(rows, want);
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

    #[test]
    fn col_from_bytes_reads_encoded_records() {
        let vals: [i64; 3] = [42, -7, i64::MIN];
        let mut bytes = Vec::new();
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(col_from_bytes(&bytes, i), v);
        }
    }
}
