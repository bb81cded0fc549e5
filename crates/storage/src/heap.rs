//! Heap files: a table's main storage structure.
//!
//! The paper's "table scan" plan is a scan of the main storage structure
//! (in one measured system, literally "a clustered index organized on an
//! entirely unrelated column" — §3.3).  A heap file is a sequence of
//! slotted pages; rows are addressed by [`Rid`] (page number, slot).
//!
//! Readers resolve a rid through the heap, not through a page's slot
//! directory: the heap keeps, per page, its slot count while the page is
//! still in the schema's append layout ([`SlottedPage::fixed_records`]),
//! so a record on such a page is found by arithmetic
//! ([`HeapFile::resolve`]).  A delete does not take a page out of that
//! layout — the heap never compacts, so a tombstone's neighbours never
//! move — it makes the page *holey*: the heap flags it and, from its first
//! delete on, keeps a mask of its live slots.  Scans and fetches read a
//! holey page's live records from its record area under the mask
//! ([`HeapFile::holey`]); a single record on it is looked up through the
//! directory.  A heap without tombstones keeps no mask, and a foreign
//! image that neither layout fits is read through the directory only.
//! The heap keeps the rid span too ([`RidSpan`]), the bound a
//! [`crate::RidSet`] is sized by.

use crate::buffer::{FileId, PageId};
use crate::charge::ChargeSink;
use crate::page::{SlottedPage, PAGE_SIZE};
use crate::schema::{Row, Schema};
use crate::session::Session;
use crate::sim::AccessKind;
use crate::{Result, StorageError};

/// A row id: physical address of a row inside one heap file.
///
/// Rids order by `(page, slot)`, i.e. physical order — sorting a rid list
/// converts random fetches into in-order fetches, which is the mechanism
/// behind the paper's "improved index scan" and System B's bitmap fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page number within the heap file.
    pub page: u32,
    /// Slot within the page.
    pub slot: u32,
}

impl Rid {
    /// Construct a rid.
    pub fn new(page: u32, slot: u32) -> Self {
        Rid { page, slot }
    }

    /// Integer encoding that preserves `(page, slot)` order: the two 32-bit
    /// halves packed.  It is what a rid list is sorted by; the rid set packs
    /// tighter, to the slot width of the list it holds ([`crate::RidSet`]).
    #[inline]
    pub fn to_u64(self) -> u64 {
        ((self.page as u64) << 32) | self.slot as u64
    }
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.page, self.slot)
    }
}

/// The rids a heap holds or has held: every `(page, slot)` with `page <
/// pages` and `slot < slots`, `slots` being the largest slot count of any
/// page.  Slot ids are never reused, so the span only grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RidSpan {
    /// Pages of the heap.
    pub pages: u32,
    /// The largest slot count of any page.
    pub slots: u32,
}

impl RidSpan {
    /// Whether `rid` lies inside the span.
    #[inline]
    pub fn contains(self, rid: Rid) -> bool {
        rid.page < self.pages && rid.slot < self.slots
    }
}

/// `HeapFile::packed` of a page that is not in the append layout.
const UNPACKED: u16 = u16::MAX;

/// The flag `HeapFile::packed` carries beside the slot count of a page in
/// the append layout once a slot below the count is dead.  `UNPACKED` has
/// it too: either way [`HeapFile::resolve`] reads through the directory.
const HOLEY: u16 = 1 << 15;

/// One heap page, resolved for reading by [`HeapFile::resolve`]: a record
/// is found by arithmetic on a page in the append layout with every slot
/// live, and through the slot directory on any other — a holey page among
/// them, whose area [`HeapFile::holey`] hands out.
#[derive(Clone, Copy)]
pub struct HeapPage<'h>(Layout<'h>);

#[derive(Clone, Copy)]
enum Layout<'h> {
    /// `n` records of `width` bytes, slot `s` at `PAGE_SIZE − (s+1)·width`.
    Packed { bytes: &'h [u8; PAGE_SIZE], n: usize, width: usize },
    Directory(&'h SlottedPage),
}

impl<'h> HeapPage<'h> {
    /// The record in `slot`, or `None` if the slot is out of range or
    /// deleted.
    #[inline]
    pub fn record(self, slot: u32) -> Option<&'h [u8]> {
        let slot = slot as usize;
        match self.0 {
            Layout::Packed { bytes, n, width } => {
                (slot < n).then(|| &bytes[PAGE_SIZE - (slot + 1) * width..][..width])
            }
            Layout::Directory(page) => page.get(slot),
        }
    }

    /// A page in the append layout with every slot live as its record
    /// area and record width: record `i` of `n` is the `width` bytes at
    /// `(n − 1 − i) · width`.  `None` for any other page.
    #[inline]
    pub fn packed(self) -> Option<(&'h [u8], usize)> {
        match self.0 {
            Layout::Packed { bytes, n, width } => Some((&bytes[PAGE_SIZE - n * width..], width)),
            Layout::Directory(_) => None,
        }
    }

    /// The live records in slot order.
    pub fn records(self) -> impl Iterator<Item = &'h [u8]> {
        let slots = match self.0 {
            Layout::Packed { n, .. } => n,
            Layout::Directory(page) => page.slot_count(),
        };
        (0..slots as u32).filter_map(move |slot| self.record(slot))
    }
}

/// The live-slot masks of a heap's holey pages, `per_page` words a page,
/// page `p`'s at `p · per_page`: bit `s` of word `s / 64` is set exactly
/// while slot `s` holds a record.  Empty until a page turns holey, and
/// grown to cover a page when it does; the words of a page that is not
/// holey are zero and never read.
struct LiveMasks {
    words: Vec<u64>,
    per_page: usize,
}

impl LiveMasks {
    /// Masks of `width`-byte records: a bit for the most a page holds, a
    /// slot entry each.
    fn new(width: usize) -> Self {
        LiveMasks { words: Vec::new(), per_page: ((PAGE_SIZE - 4) / (width + 4)).div_ceil(64) }
    }

    #[inline]
    fn of(&self, page_no: usize) -> &[u64] {
        &self.words[page_no * self.per_page..][..self.per_page]
    }

    /// Page `page_no`'s mask, the masks grown to cover it.
    fn of_mut(&mut self, page_no: usize) -> &mut [u64] {
        let end = (page_no + 1) * self.per_page;
        if self.words.len() < end {
            self.words.resize(end, 0);
        }
        &mut self.words[end - self.per_page..end]
    }
}

/// A heap file: append-oriented row storage over slotted pages.
pub struct HeapFile {
    file: FileId,
    schema: Schema,
    pages: Vec<SlottedPage>,
    /// Per page: its slot count while it is in the append layout of
    /// `schema.row_bytes()`-byte records, with `HOLEY` set once a slot
    /// below the count is dead; `UNPACKED` for a page in no such layout.
    /// `append` and `delete` keep it; `from_pages` folds each page once.
    packed: Vec<u16>,
    /// The live-slot masks of the holey pages.
    live: LiveMasks,
    /// The largest slot count of any page ([`RidSpan::slots`]).
    max_slots: u32,
    row_count: u64,
    encode_buf: Vec<u8>,
}

impl HeapFile {
    /// Create an empty heap file identified by `file` in the buffer pool's
    /// page-id space.
    pub fn new(file: FileId, schema: Schema) -> Self {
        HeapFile {
            file,
            live: LiveMasks::new(schema.row_bytes()),
            schema,
            pages: Vec::new(),
            packed: Vec::new(),
            max_slots: 0,
            row_count: 0,
            encode_buf: Vec::new(),
        }
    }

    /// What `packed` holds for `page_no`, and its mask if it is holey: one
    /// fold of its directory, and a second where the first refuses.
    fn fold(&mut self, page_no: usize) -> u16 {
        let (page, width) = (&self.pages[page_no], self.schema.row_bytes());
        if let Some(area) = page.fixed_records(width) {
            return (area.len() / width) as u16;
        }
        // The masks grow only for a page that is holey.
        let mut live = [0; PAGE_SIZE / 64];
        let live = &mut live[..self.live.per_page];
        let Some(area) = page.holey_records(width, live) else {
            return UNPACKED;
        };
        let n = area.len() / width;
        self.live.of_mut(page_no).copy_from_slice(live);
        HOLEY | n as u16
    }

    /// The schema rows must match.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The heap's file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Number of pages.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Rows that fit a page for this schema (used for cost reasoning).
    pub fn rows_per_page(&self) -> usize {
        // slot entry = 4 bytes, header = 4 bytes
        (PAGE_SIZE - 4) / (self.schema.row_bytes() + 4)
    }

    /// Append a row (load path; not charged to any session, as the paper's
    /// maps measure query time on pre-built databases).
    pub fn append(&mut self, row: &Row) -> Result<Rid> {
        if row.arity() != self.schema.arity() {
            return Err(StorageError::SchemaMismatch(format!(
                "row arity {} vs schema {}",
                row.arity(),
                self.schema.arity()
            )));
        }
        let mut buf = std::mem::take(&mut self.encode_buf);
        self.schema.encode_row(row, &mut buf);
        if self.pages.last().is_none_or(|p| !p.fits(buf.len())) {
            // An empty page is in the append layout of any width.
            self.packed.push(0);
            self.pages.push(SlottedPage::new());
        }
        let page_no = self.pages.len() - 1;
        let slot = self.pages[page_no].insert(&buf)?;
        // The record lands at the next offset down: an append-layout page
        // stays one, and a holey page's new slot is live.
        let state = &mut self.packed[page_no];
        if *state & HOLEY == 0 {
            *state += 1;
        } else if *state != UNPACKED {
            *state += 1;
            self.live.of_mut(page_no)[slot / 64] |= 1 << (slot % 64);
        }
        self.max_slots = self.max_slots.max(slot as u32 + 1);
        self.encode_buf = buf;
        self.row_count += 1;
        Ok(Rid::new(page_no as u32, slot as u32))
    }

    /// Page id of heap page `page_no`.
    pub fn page_id(&self, page_no: u32) -> PageId {
        PageId::new(self.file, page_no)
    }

    /// Borrow heap page `page_no` (serialization path: the workload cache
    /// persists raw page images).
    pub fn page(&self, page_no: u32) -> Option<&SlottedPage> {
        self.pages.get(page_no as usize)
    }

    /// Reassemble a heap file from raw pages (inverse of persisting
    /// [`HeapFile::page`] images), or `None` if a page's slot directory
    /// points outside the page — images come from disk, and every accessor
    /// indexes by the directory.  The row count is recomputed from the
    /// pages' live records, so a reloaded heap reports exactly what the
    /// original did.
    pub fn from_pages(file: FileId, schema: Schema, pages: Vec<SlottedPage>) -> Option<Self> {
        if !pages.iter().all(SlottedPage::is_well_formed) {
            return None;
        }
        let row_count = pages.iter().map(|p| p.live_records() as u64).sum();
        let max_slots = pages.iter().map(|p| p.slot_count() as u32).max().unwrap_or(0);
        let mut heap = HeapFile::new(file, schema);
        heap.pages = pages;
        heap.packed = (0..heap.pages.len()).map(|page_no| heap.fold(page_no)).collect();
        heap.max_slots = max_slots;
        heap.row_count = row_count;
        Some(heap)
    }

    /// The rids this heap holds or has held: its page count and the
    /// largest slot count of any page.
    pub fn span(&self) -> RidSpan {
        RidSpan { pages: self.page_count(), slots: self.max_slots }
    }

    /// Heap page `page_no` resolved for reading, or `None` past the last
    /// page.  Reads no byte of the page: whether it is in the append layout
    /// is kept by the heap, not re-checked.
    #[inline]
    pub fn resolve(&self, page_no: u32) -> Option<HeapPage<'_>> {
        let page = self.pages.get(page_no as usize)?;
        Some(HeapPage(match self.packed[page_no as usize] {
            n if n & HOLEY != 0 => Layout::Directory(page),
            n => Layout::Packed {
                bytes: page.as_bytes(),
                n: usize::from(n),
                width: self.schema.row_bytes(),
            },
        }))
    }

    /// Heap page `page_no` if it is holey — in the append layout with a
    /// slot below its count dead — as its record area, its record width
    /// and its live-slot mask: slot `s` is live iff bit `s` of word `s / 64`
    /// is set, and its record is the `width` bytes at `(n − 1 − s) · width`
    /// of the `n · width`-byte area.  `None` for any other page, and past
    /// the last.  [`HeapFile::resolve`] reads a holey page through its
    /// directory; this is the way to read it by arithmetic.
    #[inline]
    pub fn holey(&self, page_no: u32) -> Option<(&[u8], usize, &[u64])> {
        let page_no = page_no as usize;
        let state = *self.packed.get(page_no)?;
        if state & HOLEY == 0 || state == UNPACKED {
            return None;
        }
        let (width, n) = (self.schema.row_bytes(), usize::from(state & !HOLEY));
        let area = &self.pages[page_no].as_bytes()[PAGE_SIZE - n * width..];
        Some((area, width, self.live.of(page_no)))
    }

    /// The pages of `page_range` that exist, resolved, with their numbers.
    pub fn resolve_range(
        &self,
        page_range: std::ops::Range<u32>,
    ) -> impl Iterator<Item = (u32, HeapPage<'_>)> + '_ {
        let end = page_range.end.min(self.page_count());
        let pages = page_range.start.min(end)..end;
        pages.filter_map(|page_no| Some((page_no, self.resolve(page_no)?)))
    }

    /// Fetch one row by rid, charging `session` one page access of `kind`.
    pub fn fetch<S: ChargeSink>(&self, rid: Rid, session: &S, kind: AccessKind) -> Result<Row> {
        let page = self.resolve(rid.page).ok_or(StorageError::InvalidRid(rid))?;
        session.read_page(self.page_id(rid.page), kind);
        session.charge_rows(1);
        let bytes = page.record(rid.slot).ok_or(StorageError::InvalidRid(rid))?;
        self.schema.decode_row(bytes)
    }

    /// Full scan: calls `f(rid, row)` for every live row in physical order,
    /// charging sequential page reads and per-row CPU.  Returns the number
    /// of rows visited.
    pub fn scan<F: FnMut(Rid, &Row)>(&self, session: &Session, mut f: F) -> u64 {
        let mut visited = 0u64;
        for (page_no, page) in self.pages.iter().enumerate() {
            session.read_page(self.page_id(page_no as u32), AccessKind::Sequential);
            for (slot, bytes) in page.iter() {
                let row = self.schema.decode_row(bytes).expect("stored rows are valid");
                f(Rid::new(page_no as u32, slot as u32), &row);
                visited += 1;
            }
            session.charge_rows(page.live_records() as u64);
        }
        visited
    }

    /// Visit every live row in physical order outside any session: nothing
    /// is charged, and a record that does not decode under the schema is
    /// an error, not a panic.  The workload cache reads a stored heap back
    /// through this, which makes it the validation of every cached record.
    pub fn try_for_each_row<F: FnMut(Rid, &Row)>(&self, mut f: F) -> Result<()> {
        for (page_no, page) in self.pages.iter().enumerate() {
            for (slot, bytes) in page.iter() {
                f(Rid::new(page_no as u32, slot as u32), &self.schema.decode_row(bytes)?);
            }
        }
        Ok(())
    }

    /// Scan only pages in `page_range` (used by the improved fetch when it
    /// switches to scan mode over a dense cluster of qualifying pages).
    pub fn scan_pages<F: FnMut(Rid, &Row)>(
        &self,
        page_range: std::ops::Range<u32>,
        session: &Session,
        kind: AccessKind,
        mut f: F,
    ) -> u64 {
        let mut visited = 0u64;
        let end = page_range.end.min(self.page_count());
        for page_no in page_range.start.min(end)..end {
            let page = &self.pages[page_no as usize];
            session.read_page(self.page_id(page_no), kind);
            for (slot, bytes) in page.iter() {
                let row = self.schema.decode_row(bytes).expect("stored rows are valid");
                f(Rid::new(page_no, slot as u32), &row);
                visited += 1;
            }
            session.charge_rows(page.live_records() as u64);
        }
        visited
    }

    /// Delete a row (used by tests exercising slot stability).
    pub fn delete(&mut self, rid: Rid) -> Result<()> {
        let page = self
            .pages
            .get_mut(rid.page as usize)
            .ok_or(StorageError::InvalidRid(rid))?;
        let slot = rid.slot as usize;
        page.delete(slot).map_err(|_| StorageError::InvalidRid(rid))?;
        // A tombstone keeps the append layout: the page's first one starts
        // its mask with every slot below the count live.
        let page_no = rid.page as usize;
        let state = self.packed[page_no];
        if state != UNPACKED {
            let mask = self.live.of_mut(page_no);
            if state & HOLEY == 0 {
                let n = usize::from(state);
                for (i, word) in mask.iter_mut().enumerate() {
                    let bits = n.saturating_sub(i * 64).min(64) as u32;
                    *word = u64::MAX.checked_shr(64 - bits).unwrap_or(0);
                }
                self.packed[page_no] = state | HOLEY;
            }
            mask[slot / 64] &= !(1 << (slot % 64));
        }
        self.row_count -= 1;
        Ok(())
    }

    /// Append a row on the charged mutation path: one random read of the
    /// target page (to pin it), one page write (the dirtied page), and one
    /// row of CPU.  This is the churn engine's entry point — unlike
    /// [`HeapFile::append`], the work lands on the simulated clock.
    pub fn append_charged<S: ChargeSink>(&mut self, row: &Row, session: &S) -> Result<Rid> {
        let rid = self.append(row)?;
        let pid = self.page_id(rid.page);
        session.read_page(pid, AccessKind::Random);
        session.write_page(pid);
        session.charge_rows(1);
        Ok(rid)
    }

    /// Delete a row on the charged mutation path: the caller has typically
    /// already fetched the victim (its own charge); tombstoning dirties the
    /// page, so we charge one page write plus one row of CPU.
    pub fn delete_charged<S: ChargeSink>(&mut self, rid: Rid, session: &S) -> Result<()> {
        self.delete(rid)?;
        session.write_page(self.page_id(rid.page));
        session.charge_rows(1);
        Ok(())
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("file", &self.file)
            .field("rows", &self.row_count)
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn schema2() -> Schema {
        Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)])
    }

    fn build(n: i64) -> HeapFile {
        let mut h = HeapFile::new(FileId(0), schema2());
        for i in 0..n {
            h.append(&Row::from_slice(&[i, i * 10])).unwrap();
        }
        h
    }

    #[test]
    fn rid_u64_preserves_order() {
        let rids = [Rid::new(0, 0), Rid::new(0, 5), Rid::new(1, 0), Rid::new(3, 2)];
        for w in rids.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[0].to_u64() < w[1].to_u64());
        }
    }

    #[test]
    fn append_fills_pages_in_order() {
        let h = build(1000);
        assert_eq!(h.row_count(), 1000);
        let expected_pages = (1000 + h.rows_per_page() as i64 - 1) / h.rows_per_page() as i64;
        assert_eq!(h.page_count() as i64, expected_pages);
    }

    #[test]
    fn scan_visits_all_rows_in_order() {
        let h = build(500);
        let s = Session::with_pool_pages(4);
        let mut seen = Vec::new();
        let n = h.scan(&s, |_, row| seen.push(row.get(0)));
        assert_eq!(n, 500);
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
        // One sequential read per page, none random.
        assert_eq!(s.stats().seq_reads as u32, h.page_count());
        assert_eq!(s.stats().random_reads, 0);
        assert_eq!(s.stats().cpu_rows, 500);
    }

    #[test]
    fn fetch_returns_the_right_row_and_charges_random() {
        let mut h = HeapFile::new(FileId(0), schema2());
        let mut rids = Vec::new();
        for i in 0..300 {
            rids.push(h.append(&Row::from_slice(&[i, -i])).unwrap());
        }
        let s = Session::with_pool_pages(0);
        let row = h.fetch(rids[250], &s, AccessKind::Random).unwrap();
        assert_eq!(row.values(), &[250, -250]);
        assert_eq!(s.stats().random_reads, 1);
    }

    #[test]
    fn fetch_invalid_rid_errors() {
        let h = build(10);
        let s = Session::with_pool_pages(0);
        assert!(h.fetch(Rid::new(99, 0), &s, AccessKind::Random).is_err());
        assert!(h.fetch(Rid::new(0, 9999), &s, AccessKind::Random).is_err());
    }

    #[test]
    fn try_for_each_row_visits_what_scan_visits_and_rejects_foreign_records() {
        let mut h = build(500);
        h.delete(Rid::new(0, 3)).unwrap();
        let s = Session::with_pool_pages(0);
        let mut scanned = Vec::new();
        h.scan(&s, |rid, row| scanned.push((rid, *row)));
        let mut read = Vec::new();
        h.try_for_each_row(|rid, row| read.push((rid, *row))).unwrap();
        assert_eq!(read, scanned);
        // A page of records of another width decodes under no two-column schema.
        let mut page = SlottedPage::new();
        page.insert(&[0u8; 15]).unwrap();
        let foreign = HeapFile::from_pages(FileId(0), schema2(), vec![page]).unwrap();
        assert!(foreign.try_for_each_row(|_, _| {}).is_err());
        // A page whose directory leaves the page makes no heap at all.
        let mut image = *SlottedPage::new().as_bytes();
        image[0] = 0xff;
        let torn = vec![SlottedPage::from_bytes(&image)];
        assert!(HeapFile::from_pages(FileId(0), schema2(), torn).is_none());
    }

    #[test]
    fn scan_pages_subrange() {
        let h = build(1000);
        let s = Session::with_pool_pages(0);
        let mut count = 0u64;
        let visited = h.scan_pages(0..2, &s, AccessKind::SinglePage, |_, _| count += 1);
        assert_eq!(visited, count);
        // The first two pages are full; only the last page of the heap is
        // partially filled.
        assert_eq!(visited, 2 * h.rows_per_page() as u64);
        assert_eq!(s.stats().single_reads, 2);
    }

    #[test]
    fn delete_hides_row_from_scan() {
        let mut h = build(100);
        let victim = Rid::new(0, 10);
        h.delete(victim).unwrap();
        let s = Session::with_pool_pages(0);
        let mut seen = 0;
        h.scan(&s, |rid, _| {
            assert_ne!(rid, victim);
            seen += 1;
        });
        assert_eq!(seen, 99);
        assert_eq!(h.row_count(), 99);
    }

    #[test]
    fn append_wrong_arity_errors() {
        let mut h = HeapFile::new(FileId(0), schema2());
        assert!(h.append(&Row::from_slice(&[1])).is_err());
        assert!(h.append(&Row::from_slice(&[1, 2, 3])).is_err());
    }
}
