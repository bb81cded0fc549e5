//! Slotted pages: the on-"disk" unit of storage.
//!
//! A page is a real 8 KiB byte buffer with the classic slotted layout:
//!
//! ```text
//! +--------+---------------------+ ... free ... +----------+----------+
//! | header | slot 0 | slot 1 | …                | record 1 | record 0 |
//! +--------+---------------------+--------------+----------+----------+
//!           slots grow upward -->      <-- record heap grows downward
//! ```
//!
//! The header stores the slot count and the offset of the lowest record
//! byte.  Each slot is a `(offset, len)` pair; a deleted slot keeps its id
//! (so row ids remain stable) with `len == DEAD`.

use crate::StorageError;

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;

const HEADER_BYTES: usize = 4; // n_slots: u16, free_low: u16
const SLOT_BYTES: usize = 4; // offset: u16, len: u16
const DEAD: u16 = u16::MAX;

/// A slotted page over a fixed 8 KiB buffer.
///
/// Records are opaque byte strings up to [`SlottedPage::MAX_RECORD`] bytes.
/// Slot ids are stable across deletions; space from deleted records is
/// reclaimed by [`SlottedPage::compact`].
pub struct SlottedPage {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl SlottedPage {
    /// Largest record that fits in an otherwise empty page.
    pub const MAX_RECORD: usize = PAGE_SIZE - HEADER_BYTES - SLOT_BYTES;

    /// Create an empty page.
    pub fn new() -> Self {
        let mut page = SlottedPage {
            buf: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().expect("exact size"),
        };
        page.set_n_slots(0);
        page.set_free_low(PAGE_SIZE as u16);
        page
    }

    #[inline]
    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.buf[at], self.buf[at + 1]])
    }

    #[inline]
    fn write_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn n_slots(&self) -> usize {
        self.read_u16(0) as usize
    }

    fn set_n_slots(&mut self, n: usize) {
        self.write_u16(0, n as u16);
    }

    /// Offset of the lowest used record byte (records live in
    /// `free_low..PAGE_SIZE`).
    #[inline]
    fn free_low(&self) -> usize {
        self.read_u16(2) as usize
    }

    fn set_free_low(&mut self, v: u16) {
        self.write_u16(2, v);
    }

    #[inline]
    fn slot_at(&self, slot: usize) -> (u16, u16) {
        let base = HEADER_BYTES + slot * SLOT_BYTES;
        (self.read_u16(base), self.read_u16(base + 2))
    }

    fn set_slot(&mut self, slot: usize, offset: u16, len: u16) {
        let base = HEADER_BYTES + slot * SLOT_BYTES;
        self.write_u16(base, offset);
        self.write_u16(base + 2, len);
    }

    /// Number of live (non-deleted) records.
    pub fn live_records(&self) -> usize {
        (0..self.n_slots()).filter(|&s| self.slot_at(s).1 != DEAD).count()
    }

    /// Bytes available for a new record (including its slot entry),
    /// without compaction.
    pub fn free_space(&self) -> usize {
        let slots_end = HEADER_BYTES + self.n_slots() * SLOT_BYTES;
        self.free_low().saturating_sub(slots_end)
    }

    /// Whether a record of `len` bytes can be inserted without compaction.
    pub fn fits(&self, len: usize) -> bool {
        len <= Self::MAX_RECORD && self.free_space() >= len + SLOT_BYTES
    }

    /// Insert a record, returning its slot id.
    ///
    /// Fails with [`StorageError::RecordTooLarge`] if the record cannot fit
    /// even after compaction would run; callers that fill pages greedily
    /// should test [`SlottedPage::fits`] first.
    pub fn insert(&mut self, record: &[u8]) -> Result<usize, StorageError> {
        if !self.fits(record.len()) {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                cap: self.free_space().saturating_sub(SLOT_BYTES),
            });
        }
        let slot = self.n_slots();
        let new_low = self.free_low() - record.len();
        self.buf[new_low..new_low + record.len()].copy_from_slice(record);
        self.set_free_low(new_low as u16);
        self.set_n_slots(slot + 1);
        self.set_slot(slot, new_low as u16, record.len() as u16);
        Ok(slot)
    }

    /// Read the record in `slot`, or `None` if the slot is out of range or
    /// deleted.
    pub fn get(&self, slot: usize) -> Option<&[u8]> {
        if slot >= self.n_slots() {
            return None;
        }
        let (offset, len) = self.slot_at(slot);
        if len == DEAD {
            return None;
        }
        Some(&self.buf[offset as usize..offset as usize + len as usize])
    }

    /// Delete the record in `slot`.  The slot id stays allocated (rids are
    /// stable); the bytes are reclaimed by the next [`SlottedPage::compact`].
    pub fn delete(&mut self, slot: usize) -> Result<(), StorageError> {
        if slot >= self.n_slots() || self.slot_at(slot).1 == DEAD {
            return Err(StorageError::InvalidRid(crate::heap::Rid::new(0, slot as u32)));
        }
        self.set_slot(slot, 0, DEAD);
        Ok(())
    }

    /// Compact the record heap, squeezing out space left by deletions.
    /// Slot ids (and therefore rids) are preserved.
    pub fn compact(&mut self) {
        let n = self.n_slots();
        let mut records: Vec<(usize, Vec<u8>)> = Vec::with_capacity(n);
        for slot in 0..n {
            if let Some(bytes) = self.get(slot) {
                records.push((slot, bytes.to_vec()));
            }
        }
        let mut low = PAGE_SIZE;
        for (slot, bytes) in &records {
            low -= bytes.len();
            self.buf[low..low + bytes.len()].copy_from_slice(bytes);
            self.set_slot(*slot, low as u16, bytes.len() as u16);
        }
        self.set_free_low(low as u16);
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        (0..self.n_slots()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// The record area of a page whose directory is exactly what appending
    /// `width`-byte records writes — every slot live and `width` long,
    /// slot `s` at `PAGE_SIZE − (s+1)·width` — so slot `s` is the
    /// `width` bytes at `(n−1−s)·width` of the returned `n·width` bytes.
    /// `None` for any other directory (a tombstone, a compaction after a
    /// delete, an image from elsewhere) and for `width` 0.  Checked on
    /// every call, one XOR-fold of the directory against that sequence.
    pub fn fixed_records(&self, width: usize) -> Option<&[u8]> {
        let n = self.n_slots();
        if !(1..=Self::MAX_RECORD).contains(&width) {
            return None;
        }
        let low = PAGE_SIZE.checked_sub(n * width)?;
        let dir_end = HEADER_BYTES + n * SLOT_BYTES;
        if dir_end > low {
            return None;
        }
        // Slot `s` reads `(offset, len)` as one little-endian u32, and the
        // offsets step down by `width`.
        let mut want = (PAGE_SIZE - width) as u32 | (width as u32) << 16;
        let mut diff = 0;
        for entry in self.buf[HEADER_BYTES..dir_end].chunks_exact(SLOT_BYTES) {
            diff |= u32::from_le_bytes(entry.try_into().expect("slot entry")) ^ want;
            want = want.wrapping_sub(width as u32);
        }
        (diff == 0).then(|| &self.buf[low..])
    }

    /// The raw page image (serialization: the workload cache persists heap
    /// pages byte-for-byte, so a reloaded heap is bit-identical).
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// Reconstruct a page from a raw image previously obtained via
    /// [`SlottedPage::as_bytes`].  Any 8 KiB is accepted; an image that
    /// did not come from a page of this process is checked with
    /// [`SlottedPage::is_well_formed`] before anything else reads it
    /// ([`crate::HeapFile::from_pages`] does).
    pub fn from_bytes(bytes: &[u8; PAGE_SIZE]) -> Self {
        SlottedPage { buf: Box::new(*bytes) }
    }

    /// Whether the slot directory lies below the record heap and every
    /// live slot points inside it — what every other accessor assumes.
    pub fn is_well_formed(&self) -> bool {
        let (n, low) = (self.n_slots(), self.free_low());
        HEADER_BYTES + n * SLOT_BYTES <= low
            && low <= PAGE_SIZE
            && (0..n).map(|s| self.slot_at(s)).all(|(offset, len)| {
                len == DEAD || (offset as usize >= low && offset as usize + len as usize <= PAGE_SIZE)
            })
    }
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SlottedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlottedPage")
            .field("slots", &self.n_slots())
            .field("live", &self.live_records())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_page_has_full_free_space() {
        let p = SlottedPage::new();
        assert_eq!(p.n_slots(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_BYTES);
        assert!(p.fits(SlottedPage::MAX_RECORD));
        assert!(!p.fits(SlottedPage::MAX_RECORD + 1));
    }

    #[test]
    fn insert_then_get_roundtrips() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let p = SlottedPage::new();
        assert_eq!(p.get(0), None);
        assert_eq!(p.get(100), None);
    }

    #[test]
    fn delete_keeps_slot_ids_stable() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"aaa").unwrap();
        let b = p.insert(b"bbb").unwrap();
        let c = p.insert(b"ccc").unwrap();
        p.delete(b).unwrap();
        assert_eq!(p.get(a), Some(&b"aaa"[..]));
        assert_eq!(p.get(b), None);
        assert_eq!(p.get(c), Some(&b"ccc"[..]));
        assert_eq!(p.live_records(), 2);
        assert_eq!(p.n_slots(), 3);
    }

    #[test]
    fn delete_twice_errors() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"x").unwrap();
        p.delete(a).unwrap();
        assert!(p.delete(a).is_err());
        assert!(p.delete(42).is_err());
    }

    #[test]
    fn compact_reclaims_space_and_preserves_records() {
        let mut p = SlottedPage::new();
        let mut slots = Vec::new();
        for i in 0..10u8 {
            slots.push(p.insert(&[i; 100]).unwrap());
        }
        let free_before = p.free_space();
        for &s in slots.iter().step_by(2) {
            p.delete(s).unwrap();
        }
        p.compact();
        assert!(p.free_space() >= free_before + 5 * 100);
        for (i, &s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(p.get(s), None);
            } else {
                assert_eq!(p.get(s), Some(&[i as u8; 100][..]));
            }
        }
    }

    #[test]
    fn fill_page_until_full() {
        let mut p = SlottedPage::new();
        let rec = [7u8; 64];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        // 64-byte records + 4-byte slots: roughly PAGE_SIZE / 68 records.
        assert!(n >= (PAGE_SIZE - HEADER_BYTES) / (rec.len() + SLOT_BYTES) - 1);
        assert!(p.insert(&rec).is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = SlottedPage::new();
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(p.insert(&huge), Err(StorageError::RecordTooLarge { .. })));
    }

    #[test]
    fn well_formedness_rejects_directories_that_leave_the_page() {
        let mut p = SlottedPage::new();
        assert!(p.is_well_formed());
        let a = p.insert(b"aaaa").unwrap();
        p.insert(b"bb").unwrap();
        p.delete(a).unwrap();
        p.compact();
        assert!(p.is_well_formed(), "tombstones and compaction keep a page well formed");
        let edit = |at: usize, v: u16| {
            let mut image = *p.as_bytes();
            image[at..at + 2].copy_from_slice(&v.to_le_bytes());
            SlottedPage::from_bytes(&image)
        };
        assert!(!edit(0, u16::MAX).is_well_formed(), "slot count past the page");
        assert!(!edit(2, 4).is_well_formed(), "record heap starting inside the directory");
        assert!(!edit(2, PAGE_SIZE as u16 + 1).is_well_formed(), "record heap past the page");
        let slot1 = HEADER_BYTES + SLOT_BYTES;
        assert!(!edit(slot1, 0).is_well_formed(), "record inside the directory");
        assert!(!edit(slot1 + 2, 9000).is_well_formed(), "record running off the page");
    }

    #[test]
    fn fixed_records_are_the_append_layout_and_nothing_else() {
        let width = 24;
        let mut p = SlottedPage::new();
        assert_eq!(p.fixed_records(width), Some(&[][..]), "an empty page");
        for i in 0..50u8 {
            p.insert(&[i; 24]).unwrap();
        }
        let area = p.fixed_records(width).expect("a page written by appends");
        let n = area.len() / width;
        let packed: Vec<&[u8]> = (0..n).map(|s| &area[(n - 1 - s) * width..][..width]).collect();
        let listed: Vec<&[u8]> = p.iter().map(|(_, r)| r).collect();
        assert_eq!(packed, listed);
        assert_eq!(p.fixed_records(16), None, "a different width");
        assert_eq!(p.fixed_records(0), None, "width 0");

        let mut image = *p.as_bytes();
        let slot1 = HEADER_BYTES + SLOT_BYTES;
        let (dir0, dir1) = image[HEADER_BYTES..slot1 + SLOT_BYTES].split_at_mut(SLOT_BYTES);
        dir0.swap_with_slice(dir1);
        let swapped = SlottedPage::from_bytes(&image);
        assert!(swapped.is_well_formed());
        assert_eq!(swapped.fixed_records(width), None, "two directory entries swapped");

        let mut tombstoned = SlottedPage::from_bytes(p.as_bytes());
        tombstoned.delete(7).unwrap();
        assert_eq!(tombstoned.fixed_records(width), None, "a tombstone");
        tombstoned.compact();
        assert_eq!(tombstoned.fixed_records(width), None, "compacted after a delete");
    }

    #[test]
    fn iter_yields_live_records_in_slot_order() {
        let mut p = SlottedPage::new();
        p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        p.insert(b"c").unwrap();
        p.delete(b).unwrap();
        let got: Vec<(usize, &[u8])> = p.iter().collect();
        assert_eq!(got, vec![(0, &b"a"[..]), (2, &b"c"[..])]);
    }
}
