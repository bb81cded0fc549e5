//! Heap files: a table's main storage structure.
//!
//! The paper's "table scan" plan is a scan of the main storage structure
//! (in one measured system, literally "a clustered index organized on an
//! entirely unrelated column" — §3.3).  A heap file is a sequence of
//! column pages ([`ColumnPage`]); rows are addressed by [`Rid`] (page
//! number, slot).
//!
//! A page only appends, so a rid never moves.  A delete leaves the row's
//! values where they are and makes the page *holey*: the heap flags it and,
//! from its first delete on, keeps a mask of its live slots.  Readers take
//! a page through [`HeapFile::resolve`], whose [`HeapPage`] carries the
//! mask beside the columns.  A heap without tombstones keeps no mask.  The
//! heap keeps the rid span too ([`RidSpan`]), the bound a
//! [`crate::RidSet`] is sized by.

use crate::buffer::{FileId, PageId};
use crate::charge::ChargeSink;
use crate::page::{low_bits, ColumnPage, PAGE_SIZE};
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

/// One heap page, resolved for reading by [`HeapFile::resolve`]: its
/// columns, and its live-slot mask if a delete made it holey.
#[derive(Clone, Copy)]
pub struct HeapPage<'h> {
    page: &'h ColumnPage,
    live: Option<&'h [u64]>,
}

impl<'h> HeapPage<'h> {
    /// Number of slots written, live or not.
    #[inline]
    pub fn slot_count(self) -> usize {
        self.page.slot_count()
    }

    /// Column `c`'s values of slots `0 .. slot_count()`, dead slots' too.
    #[inline]
    pub fn column(self, c: usize) -> &'h [i64] {
        self.page.column(c)
    }

    /// The live-slot mask of a holey page — slot `s` is live iff bit `s %
    /// 64` of word `s / 64` is set —, or `None` when every written slot is.
    #[inline]
    pub fn mask(self) -> Option<&'h [u64]> {
        self.live
    }

    /// Whether `slot` holds a row.
    #[inline]
    pub fn is_live(self, slot: u32) -> bool {
        let slot = slot as usize;
        slot < self.slot_count()
            && self.live.is_none_or(|live| (live[slot / 64] >> (slot % 64)) & 1 == 1)
    }

    /// The live slots in order.
    pub fn live_slots(self) -> impl Iterator<Item = u32> + 'h {
        (0..self.slot_count() as u32).filter(move |&slot| self.is_live(slot))
    }

    /// The row in `slot`, or `None` if the slot is out of range or deleted.
    #[inline]
    pub fn row(self, slot: u32) -> Option<Row> {
        self.is_live(slot).then(|| self.page.row(slot as usize))
    }
}

/// The live-slot masks of a heap's holey pages, `per_page` words a page,
/// page `p`'s at `p · per_page`: bit `s` of word `s / 64` is set exactly
/// while slot `s` holds a row.  Empty until a page turns holey, and grown
/// to cover a page when it does; the words of a page that is not holey are
/// zero and never read.
struct LiveMasks {
    words: Vec<u64>,
    per_page: usize,
}

impl LiveMasks {
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

/// A heap file: append-oriented row storage over column pages.
pub struct HeapFile {
    file: FileId,
    schema: Schema,
    pages: Vec<ColumnPage>,
    /// Per page: whether a written slot of it is dead, its mask then kept
    /// in `live`.  `append`, `append_pages`, `delete` and `push_image`
    /// keep it.
    holey: Vec<bool>,
    /// The live-slot masks of the holey pages.
    live: LiveMasks,
    /// The largest slot count of any page ([`RidSpan::slots`]).
    max_slots: u32,
    row_count: u64,
}

impl HeapFile {
    /// Create an empty heap file identified by `file` in the buffer pool's
    /// page-id space.
    pub fn new(file: FileId, schema: Schema) -> Self {
        let per_page = ColumnPage::mask_words(ColumnPage::capacity(schema.arity()));
        HeapFile {
            file,
            schema,
            pages: Vec::new(),
            holey: Vec::new(),
            live: LiveMasks { words: Vec::new(), per_page },
            max_slots: 0,
            row_count: 0,
        }
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
        ColumnPage::capacity(self.schema.arity())
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
        if self.pages.last().is_none_or(ColumnPage::is_full) {
            self.pages.push(ColumnPage::new(self.schema.arity()));
            self.holey.push(false);
        }
        let page_no = self.pages.len() - 1;
        let slot = self.pages[page_no].push(row.values()).expect("a page with room");
        // A holey page's new slot is live.
        if self.holey[page_no] {
            self.live.of_mut(page_no)[slot / 64] |= 1 << (slot % 64);
        }
        self.max_slots = self.max_slots.max(slot as u32 + 1);
        self.row_count += 1;
        Ok(Rid::new(page_no as u32, slot as u32))
    }

    /// Append `rows` rows as whole pages (the load path, uncharged like
    /// [`HeapFile::append`]) and return their rids: `fill(c, first, values)`
    /// writes column `c` of the run's rows `first .. first + values.len()`,
    /// one call a column of each page (`ColumnPage::filled`).  The heap
    /// then holds what `rows` appends of the same rows would make it hold,
    /// page for page.
    ///
    /// # Panics
    /// Panics if the heap's last page has room: a run starts a page.
    pub fn append_pages(
        &mut self,
        rows: usize,
        mut fill: impl FnMut(usize, usize, &mut [i64]),
    ) -> Vec<Rid> {
        assert!(self.pages.last().is_none_or(ColumnPage::is_full), "a run starts a page");
        let (columns, capacity) = (self.schema.arity(), self.rows_per_page());
        let mut rids = Vec::with_capacity(rows);
        self.pages.reserve(rows.div_ceil(capacity));
        for first in (0..rows).step_by(capacity) {
            let slots = capacity.min(rows - first);
            let page_no = self.pages.len() as u32;
            self.pages.push(ColumnPage::filled(columns, slots, |c, vals| fill(c, first, vals)));
            self.holey.push(false);
            self.max_slots = self.max_slots.max(slots as u32);
            rids.extend((0..slots as u32).map(|slot| Rid::new(page_no, slot)));
        }
        self.row_count += rows as u64;
        rids
    }

    /// Page id of heap page `page_no`.
    pub fn page_id(&self, page_no: u32) -> PageId {
        PageId::new(self.file, page_no)
    }

    /// Append heap page `page_no`'s image ([`ColumnPage::write_image`],
    /// with its live mask) to `out`: what the workload cache persists.
    ///
    /// # Panics
    /// Panics if there is no such page.
    pub fn write_image(&self, page_no: u32, out: &mut Vec<u8>) {
        let page = self.resolve(page_no).expect("a page of the heap");
        page.page.write_image(page.live, out);
    }

    /// Append the page an image holds (the inverse of
    /// [`HeapFile::write_image`]) and return its number, or `None`, the
    /// heap unchanged, unless the image is one a page of this schema
    /// writes.  The row count and the rid span grow by the page's.
    pub fn push_image(&mut self, image: &[u8; PAGE_SIZE]) -> Option<u32> {
        let mut live = [0; ColumnPage::mask_words(ColumnPage::capacity(0))];
        let live = &mut live[..self.live.per_page];
        let page = ColumnPage::from_image(image, self.schema.arity(), live)?;
        let (page_no, n) = (self.pages.len(), page.slot_count());
        let holey = live.iter().enumerate().any(|(i, &w)| w != low_bits(n, i));
        if holey {
            self.live.of_mut(page_no).copy_from_slice(live);
        }
        self.row_count += live.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        self.max_slots = self.max_slots.max(n as u32);
        self.pages.push(page);
        self.holey.push(holey);
        Some(page_no as u32)
    }

    /// The rids this heap holds or has held: its page count and the
    /// largest slot count of any page.
    pub fn span(&self) -> RidSpan {
        RidSpan { pages: self.page_count(), slots: self.max_slots }
    }

    /// Heap page `page_no` resolved for reading, or `None` past the last
    /// page.
    #[inline]
    pub fn resolve(&self, page_no: u32) -> Option<HeapPage<'_>> {
        let p = page_no as usize;
        let page = self.pages.get(p)?;
        Some(HeapPage { page, live: self.holey[p].then(|| self.live.of(p)) })
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
        page.row(rid.slot).ok_or(StorageError::InvalidRid(rid))
    }

    /// Full scan: calls `f(rid, row)` for every live row in physical order,
    /// charging sequential page reads and per-row CPU.  Returns the number
    /// of rows visited.
    pub fn scan<F: FnMut(Rid, &Row)>(&self, session: &Session, f: F) -> u64 {
        self.scan_pages(0..self.page_count(), session, AccessKind::Sequential, f)
    }

    /// Scan only pages in `page_range`, each read as `kind` (used by the
    /// improved fetch when it switches to scan mode over a dense cluster of
    /// qualifying pages).
    pub fn scan_pages<F: FnMut(Rid, &Row)>(
        &self,
        page_range: std::ops::Range<u32>,
        session: &Session,
        kind: AccessKind,
        mut f: F,
    ) -> u64 {
        let mut visited = 0u64;
        for (page_no, page) in self.resolve_range(page_range) {
            session.read_page(self.page_id(page_no), kind);
            let mut live = 0;
            for slot in page.live_slots() {
                f(Rid::new(page_no, slot), &page.page.row(slot as usize));
                live += 1;
            }
            session.charge_rows(live);
            visited += live;
        }
        visited
    }

    /// Delete a row.  Its values stay where they are; the page's first
    /// delete starts its mask with every written slot live.
    pub fn delete(&mut self, rid: Rid) -> Result<()> {
        if !self.resolve(rid.page).is_some_and(|page| page.is_live(rid.slot)) {
            return Err(StorageError::InvalidRid(rid));
        }
        let (page_no, slot) = (rid.page as usize, rid.slot as usize);
        let n = self.pages[page_no].slot_count();
        let mask = self.live.of_mut(page_no);
        if !self.holey[page_no] {
            for (i, word) in mask.iter_mut().enumerate() {
                *word = low_bits(n, i);
            }
            self.holey[page_no] = true;
        }
        mask[slot / 64] &= !(1 << (slot % 64));
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

    /// Images of a heap with tombstones rebuild it — rows, rids, counts,
    /// span and masks — and an image no page of the schema writes adds no
    /// page.
    #[test]
    fn images_rebuild_the_heap_and_foreign_images_are_refused() {
        let mut h = build(1000);
        for rid in [Rid::new(0, 3), Rid::new(1, 0), Rid::new(1, 127)] {
            h.delete(rid).unwrap();
        }
        h.append(&Row::from_slice(&[-1, -1])).unwrap();
        let image = |h: &HeapFile, p| {
            let mut image = Vec::new();
            h.write_image(p, &mut image);
            <[u8; PAGE_SIZE]>::try_from(image).unwrap()
        };
        let mut rebuilt = HeapFile::new(FileId(0), schema2());
        for p in 0..h.page_count() {
            assert_eq!(rebuilt.push_image(&image(&h, p)), Some(p));
        }
        let rows = |h: &HeapFile| {
            let mut rows = Vec::new();
            h.scan(&Session::with_pool_pages(0), |rid, row| rows.push((rid, *row)));
            rows
        };
        assert_eq!(rows(&rebuilt), rows(&h));
        assert_eq!((rebuilt.row_count(), rebuilt.span()), (h.row_count(), h.span()));
        for p in 0..h.page_count() {
            assert_eq!(rebuilt.resolve(p).unwrap().mask(), h.resolve(p).unwrap().mask());
        }
        assert!(rebuilt.resolve(1).unwrap().mask().is_some());
        assert!(rebuilt.resolve(h.page_count() - 1).unwrap().mask().is_none());
        // A full page of one column holds more slots than a page of two.
        let mut narrow = HeapFile::new(FileId(0), Schema::new(vec![("a", ColumnType::Int)]));
        for i in 0..=h.rows_per_page() as i64 {
            narrow.append(&Row::from_slice(&[i])).unwrap();
        }
        assert_eq!(rebuilt.push_image(&image(&narrow, 0)), None);
        assert_eq!(rebuilt.page_count(), h.page_count(), "a refused image adds no page");
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
        assert_eq!(h.delete(victim), Err(StorageError::InvalidRid(victim)), "deleted twice");
        assert!(h.delete(Rid::new(0, 100)).is_err(), "a slot never written");
    }

    /// A delete keeps every rid: the page's other slots read what they did,
    /// and an append after it lands on the next slot, live.
    #[test]
    fn a_holey_page_keeps_its_rids_and_takes_appends() {
        let mut h = build(10);
        h.delete(Rid::new(0, 9)).unwrap();
        h.delete(Rid::new(0, 0)).unwrap();
        assert_eq!(h.append(&Row::from_slice(&[-5, -50])).unwrap(), Rid::new(0, 10));
        let page = h.resolve(0).unwrap();
        let live: Vec<u32> = page.live_slots().collect();
        assert_eq!(live, (1..9).chain([10]).collect::<Vec<_>>());
        assert_eq!(page.row(10).unwrap().values(), &[-5, -50]);
        assert_eq!(page.row(9), None);
        assert_eq!(page.column(0)[9], 9, "a deleted row's values stay in place");
    }

    #[test]
    fn append_wrong_arity_errors() {
        let mut h = HeapFile::new(FileId(0), schema2());
        assert!(h.append(&Row::from_slice(&[1])).is_err());
        assert!(h.append(&Row::from_slice(&[1, 2, 3])).is_err());
    }
}
