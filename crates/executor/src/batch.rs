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
//! `tests/exec_ledger.rs` pins every plan's charges, the blocking edges at
//! pools of a few pages among them.

use robustmap_storage::Row;

/// Rows per [`RowBatch`] flowing between operators: amortises interpreter
/// overhead without hurting cache residency.
pub const BATCH_ROWS: usize = 1024;

/// A columnar chunk of rows: one `Vec<i64>` per output column.
///
/// All columns have the same length.  Batches are reused (cleared, not
/// reallocated) by the emitting operator, so a sink must copy out anything
/// it wants to keep.
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    cols: Vec<Vec<i64>>,
    rows: usize,
}

impl RowBatch {
    /// An empty batch of the given arity.
    pub fn new(arity: usize) -> Self {
        RowBatch { cols: vec![Vec::new(); arity], rows: 0 }
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

    /// Column `c` as a slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[i64] {
        &self.cols[c]
    }

    /// Materialise row `i` (gathers across columns).
    #[inline]
    pub fn row(&self, i: usize) -> Row {
        let mut row = Row::empty();
        for col in &self.cols {
            row.push(col[i]);
        }
        row
    }

    /// Remove all rows, keeping column allocations.
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.rows = 0;
    }
}

/// A selection bitmap over the rows of one batch (or one heap page).
///
/// Stored as 64-bit words; bit `i` set means row `i` survives.  The
/// branch-free predicate evaluator ([`crate::expr::Predicate::eval_batch_free`])
/// clears bits with masked stores instead of conditional jumps.
#[derive(Debug, Default)]
pub struct Selection {
    words: Vec<u64>,
    len: usize,
}

impl Selection {
    /// An empty selection.
    pub fn new() -> Self {
        Selection::default()
    }

    /// Resize to `n` rows with every bit set.
    pub fn reset_ones(&mut self, n: usize) {
        let nwords = n.div_ceil(64);
        self.words.clear();
        self.words.resize(nwords, u64::MAX);
        if !n.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        self.len = n;
    }

    /// Number of rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the selection covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether row `i` is selected.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Keep row `i` only if `keep` (branch-free masked clear).
    #[inline]
    pub fn mask(&mut self, i: usize, keep: bool) {
        self.words[i / 64] &= !(((!keep) as u64) << (i % 64));
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Call `f` with every selected row index, ascending.
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }
}

/// Read column `col` of a row stored as little-endian `i64`s (the heap's
/// record encoding) without decoding the whole row.
#[inline]
pub fn col_from_bytes(bytes: &[u8], col: usize) -> i64 {
    let at = col * 8;
    i64::from_le_bytes(bytes[at..at + 8].try_into().expect("column in record"))
}

/// Accumulates output rows into a [`RowBatch`] and flushes it to a batch
/// sink whenever it reaches [`BATCH_ROWS`] rows (and once more at the end,
/// for the final partial batch).  Emission is charge-free.
pub struct BatchEmitter {
    batch: RowBatch,
    produced: u64,
}

impl BatchEmitter {
    /// An emitter producing batches with `arity` columns.
    pub fn new(arity: usize) -> Self {
        BatchEmitter { batch: RowBatch::new(arity), produced: 0 }
    }

    /// Rows emitted so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    #[inline]
    fn row_done(&mut self, sink: &mut dyn FnMut(&RowBatch)) {
        self.batch.rows += 1;
        self.produced += 1;
        if self.batch.rows >= BATCH_ROWS {
            self.flush(sink);
        }
    }

    /// Emit one row by gathering `proj` columns out of an encoded record.
    #[inline]
    pub fn push_projected_bytes(
        &mut self,
        bytes: &[u8],
        proj: &[usize],
        sink: &mut dyn FnMut(&RowBatch),
    ) {
        debug_assert_eq!(proj.len(), self.batch.arity());
        for (col, &src) in self.batch.cols.iter_mut().zip(proj) {
            col.push(col_from_bytes(bytes, src));
        }
        self.row_done(sink);
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
        for (col, &src) in self.batch.cols.iter_mut().zip(proj) {
            col.push(vals[src]);
        }
        self.row_done(sink);
    }

    /// Flush the pending partial batch, if any.
    pub fn flush(&mut self, sink: &mut dyn FnMut(&RowBatch)) {
        if !self.batch.is_empty() {
            sink(&self.batch);
            self.batch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_bit_ops() {
        let mut s = Selection::new();
        for n in [0usize, 1, 63, 64, 65, 130] {
            s.reset_ones(n);
            assert_eq!(s.len(), n);
            assert_eq!(s.count(), n, "n={n}");
            if n > 0 {
                s.mask(0, false);
                s.mask(n - 1, false);
                s.mask(n / 2, true);
                let expect = n.saturating_sub(2);
                assert_eq!(s.count(), expect, "n={n}");
                let mut seen = Vec::new();
                s.for_each_set(|i| seen.push(i));
                assert_eq!(seen.len(), s.count());
                assert!(seen.iter().all(|&i| s.get(i)));
                assert!(seen.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

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
