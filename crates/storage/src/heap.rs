//! Heap files: a table's main storage structure.
//!
//! The paper's "table scan" plan is a scan of the main storage structure
//! (in one measured system, literally "a clustered index organized on an
//! entirely unrelated column" — §3.3).  A heap file is a sequence of
//! slotted pages; rows are addressed by [`Rid`] (page number, slot).

use crate::buffer::{FileId, PageId};
use crate::page::SlottedPage;
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

/// A heap file: append-oriented row storage over slotted pages.
pub struct HeapFile {
    file: FileId,
    schema: Schema,
    pages: Vec<SlottedPage>,
    row_count: u64,
    encode_buf: Vec<u8>,
}

impl HeapFile {
    /// Create an empty heap file identified by `file` in the buffer pool's
    /// page-id space.
    pub fn new(file: FileId, schema: Schema) -> Self {
        HeapFile { file, schema, pages: Vec::new(), row_count: 0, encode_buf: Vec::new() }
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
        (crate::page::PAGE_SIZE - 4) / (self.schema.row_bytes() + 4)
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
            self.pages.push(SlottedPage::new());
        }
        let page_no = (self.pages.len() - 1) as u32;
        let slot = self.pages.last_mut().expect("page exists").insert(&buf)?;
        self.encode_buf = buf;
        self.row_count += 1;
        Ok(Rid::new(page_no, slot as u32))
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
        Some(HeapFile { file, schema, pages, row_count, encode_buf: Vec::new() })
    }

    /// Fetch one row by rid, charging `session` one page access of `kind`.
    pub fn fetch(&self, rid: Rid, session: &Session, kind: AccessKind) -> Result<Row> {
        let page = self
            .pages
            .get(rid.page as usize)
            .ok_or(StorageError::InvalidRid(rid))?;
        session.read_page(self.page_id(rid.page), kind);
        session.charge_rows(1);
        let bytes = page.get(rid.slot as usize).ok_or(StorageError::InvalidRid(rid))?;
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
        page.delete(rid.slot as usize)
            .map_err(|_| StorageError::InvalidRid(rid))?;
        self.row_count -= 1;
        Ok(())
    }

    /// Append a row on the charged mutation path: one random read of the
    /// target page (to pin it), one page write (the dirtied page), and one
    /// row of CPU.  This is the churn engine's entry point — unlike
    /// [`HeapFile::append`], the work lands on the simulated clock.
    pub fn append_charged(&mut self, row: &Row, session: &Session) -> Result<Rid> {
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
    pub fn delete_charged(&mut self, rid: Rid, session: &Session) -> Result<()> {
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
