//! Column pages: the on-"disk" unit of a heap.
//!
//! A page holds its rows column by column (PAX, Ailamaki et al., VLDB
//! 2001): a page of a `k`-column schema has room for
//! [`ColumnPage::capacity`]`(k)` rows, and column `c` of slot `s` is value
//! `c · capacity + s` of the page, at a fixed offset whatever else the page
//! holds.  The capacity is what a slotted page of `8k`-byte records fits —
//! a 4-byte header, 4 bytes of slot entry a record — so the rows a page
//! holds, and so every rid and page id, are those of a row-major heap.  A
//! scan that compares one column reads that column's values and no other.
//!
//! A page only appends: a slot never moves and is never reused, so a rid
//! is stable.  Which slots still hold a row is not the page's business but
//! the heap's, which keeps a live-slot mask for each page a delete touched
//! ([`crate::HeapFile`]).
//!
//! ## Image
//!
//! A page persists as [`PAGE_SIZE`] bytes of little-endian 64-bit words:
//!
//! ```text
//! slot count · live mask (capacity / 64 words, rounded up) ·
//! column 0 (capacity words) · column 1 · … · zeros to the page's end
//! ```
//!
//! A slot's bit in the mask is set iff it holds a row; the words of slots
//! past the count are zero.  [`ColumnPage::from_image`] takes exactly the
//! images [`ColumnPage::write_image`] writes and refuses every other.

use crate::schema::{Row, MAX_COLUMNS};

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Bytes of page header and of slot entry a row the capacity rule counts.
const HEADER_BYTES: usize = 4;
const SLOT_BYTES: usize = 4;

/// A page of fixed-width `i64` columns.
#[derive(Clone)]
pub struct ColumnPage {
    /// Column `c` of slot `s` at `c · capacity + s`; a slot past the count
    /// is zero in every column.
    vals: Box<[i64]>,
    capacity: u16,
    slots: u16,
}

impl ColumnPage {
    /// Rows a page of a `columns`-column schema holds: `(PAGE_SIZE − 4) /
    /// (8 · columns + 4)`, 186 for the five-column lineitem table.
    pub const fn capacity(columns: usize) -> usize {
        (PAGE_SIZE - HEADER_BYTES) / (columns * 8 + SLOT_BYTES)
    }

    /// Words of live mask a page of `capacity` slots carries in its image.
    pub const fn mask_words(capacity: usize) -> usize {
        capacity.div_ceil(64)
    }

    /// An empty page of a `columns`-column schema.
    pub fn new(columns: usize) -> Self {
        assert!(columns <= MAX_COLUMNS, "too many columns");
        let capacity = Self::capacity(columns);
        ColumnPage { vals: vec![0; columns * capacity].into(), capacity: capacity as u16, slots: 0 }
    }

    /// Number of slots written: one more than the largest slot id.
    #[inline]
    pub fn slot_count(&self) -> usize {
        usize::from(self.slots)
    }

    /// Whether every slot is written.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.slots == self.capacity
    }

    #[inline]
    fn columns(&self) -> usize {
        self.vals.len() / usize::from(self.capacity)
    }

    /// Write `vals`, one per column, to the next slot and return it, or
    /// `None` if the page is full.
    ///
    /// # Panics
    /// Panics unless `vals` has one value per column.
    pub fn push(&mut self, vals: &[i64]) -> Option<usize> {
        assert_eq!(vals.len(), self.columns(), "one value per column");
        if self.is_full() {
            return None;
        }
        let (slot, capacity) = (self.slot_count(), usize::from(self.capacity));
        for (c, &v) in vals.iter().enumerate() {
            self.vals[c * capacity + slot] = v;
        }
        self.slots += 1;
        Some(slot)
    }

    /// Column `c`'s values of slots `0 .. slot_count()`, live or not.
    #[inline]
    pub fn column(&self, c: usize) -> &[i64] {
        let at = c * usize::from(self.capacity);
        &self.vals[at..at + self.slot_count()]
    }

    /// Slot `slot`'s values as a row; panics past the slot count.
    pub fn row(&self, slot: usize) -> Row {
        assert!(slot < self.slot_count(), "slot {slot} of {}", self.slot_count());
        let capacity = usize::from(self.capacity);
        let mut row = Row::empty();
        for c in 0..self.columns() {
            row.push(self.vals[c * capacity + slot]);
        }
        row
    }

    /// Append the page's image to `out`, with `live` as its live mask
    /// ([`ColumnPage::mask_words`] words), or every written slot live.
    pub fn write_image(&self, live: Option<&[u64]>, out: &mut Vec<u8>) {
        let (start, capacity) = (out.len(), usize::from(self.capacity));
        let words = Self::mask_words(capacity);
        out.extend_from_slice(&u64::from(self.slots).to_le_bytes());
        for i in 0..words {
            let word = live.map_or_else(|| low_bits(self.slot_count(), i), |live| live[i]);
            out.extend_from_slice(&word.to_le_bytes());
        }
        for v in self.vals.iter() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.resize(start + PAGE_SIZE, 0);
    }

    /// The page an image of a `columns`-column page holds, its live mask
    /// written to `live` (which must have [`ColumnPage::mask_words`]
    /// words), or `None` unless the image is one
    /// [`ColumnPage::write_image`] writes: a slot count within the
    /// capacity, no live bit and no value past it, zeros after the columns.
    pub fn from_image(image: &[u8; PAGE_SIZE], columns: usize, live: &mut [u64]) -> Option<Self> {
        let mut page = ColumnPage::new(columns);
        let capacity = usize::from(page.capacity);
        let words = Self::mask_words(capacity);
        let mut at =
            image.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().expect("a word")));
        let slots = usize::try_from(at.next()?).ok().filter(|&n| n <= capacity)?;
        for (i, word) in live[..words].iter_mut().enumerate() {
            *word = at.next()?;
            if *word & !low_bits(slots, i) != 0 {
                return None;
            }
        }
        for (i, v) in page.vals.iter_mut().enumerate() {
            *v = at.next()? as i64;
            if i % capacity >= slots && *v != 0 {
                return None;
            }
        }
        page.slots = slots as u16;
        at.all(|w| w == 0).then_some(page)
    }
}

/// Word `i` of a mask whose first `n` bits are set.
#[inline]
pub(crate) fn low_bits(n: usize, i: usize) -> u64 {
    match n.saturating_sub(i * 64) {
        0 => 0,
        k if k >= 64 => u64::MAX,
        k => (1 << k) - 1,
    }
}

impl std::fmt::Debug for ColumnPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnPage")
            .field("columns", &self.columns())
            .field("slots", &self.slots)
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Header, mask and columns fit the page at every schema width, and
    /// the capacity is a slotted page's.
    #[test]
    fn every_width_fits_its_image_in_the_page() {
        assert_eq!(ColumnPage::capacity(5), 186);
        for columns in 0..=MAX_COLUMNS {
            let capacity = ColumnPage::capacity(columns);
            let words = 1 + ColumnPage::mask_words(capacity) + columns * capacity;
            assert!(words * 8 <= PAGE_SIZE, "{columns} columns");
            assert!(capacity < 1 << 15, "a slot fits a u16 with room");
        }
    }

    #[test]
    fn columns_sit_at_fixed_offsets() {
        let mut p = ColumnPage::new(3);
        for i in 0..10 {
            assert_eq!(p.push(&[i, -i, 100 + i]), Some(i as usize));
        }
        assert_eq!(p.slot_count(), 10);
        assert_eq!(p.column(1), &(0..10).map(|i| -i).collect::<Vec<_>>()[..]);
        assert_eq!(p.row(4).values(), &[4, -4, 104]);
        let capacity = ColumnPage::capacity(3);
        assert_eq!(p.vals[2 * capacity + 7], 107, "column 2, slot 7");
    }

    #[test]
    fn a_full_page_takes_no_more_rows() {
        let mut p = ColumnPage::new(5);
        while p.push(&[1, 2, 3, 4, 5]).is_some() {}
        assert!(p.is_full());
        assert_eq!(p.slot_count(), 186);
        assert_eq!(p.push(&[0; 5]), None);
    }

    #[test]
    #[should_panic(expected = "one value per column")]
    fn a_row_of_another_width_panics() {
        ColumnPage::new(2).push(&[1]);
    }

    /// An image reads back as the page and mask written, and every edit of
    /// it that no page writes is refused.
    #[test]
    fn images_round_trip_and_nothing_else_loads() {
        let mut p = ColumnPage::new(2);
        for i in 0..70 {
            p.push(&[i, i64::MIN + i]).unwrap();
        }
        let capacity = ColumnPage::capacity(2);
        let words = ColumnPage::mask_words(capacity);
        let mut holey = vec![0u64; words];
        (holey[0], holey[1]) = (!0b100, (1 << 6) - 1);
        let full: Vec<u64> = (0..words).map(|i| low_bits(70, i)).collect();
        for live in [None, Some(&holey[..])] {
            let mut image = Vec::new();
            p.write_image(live, &mut image);
            let image: [u8; PAGE_SIZE] = image.try_into().unwrap();
            let mut mask = vec![0; words];
            let back = ColumnPage::from_image(&image, 2, &mut mask).expect("an image written");
            assert_eq!(back.slot_count(), 70);
            assert_eq!((back.column(0), back.column(1)), (p.column(0), p.column(1)));
            assert_eq!(mask, live.unwrap_or(&full));
            let loads = |at: usize, v: u64| {
                let mut edited = image;
                edited[at..at + 8].copy_from_slice(&v.to_le_bytes());
                ColumnPage::from_image(&edited, 2, &mut vec![0; words]).is_some()
            };
            assert!(!loads(0, capacity as u64 + 1), "a slot count past the capacity");
            assert!(!loads(8 + 8, 1 << 6), "a live bit past the slot count");
            assert!(!loads((1 + words + 70) * 8, 1), "a value past the slot count");
            assert!(!loads((1 + words + 2 * capacity) * 8, 1), "a word past the columns");
            assert!(loads((1 + words) * 8, 5), "a written slot's value is any value");
        }
        let empty = ColumnPage::from_image(&[0; PAGE_SIZE], 2, &mut vec![0; words]);
        assert_eq!(empty.map(|p| p.slot_count()), Some(0));
    }
}
