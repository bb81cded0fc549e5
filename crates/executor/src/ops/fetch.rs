//! Row fetch disciplines: how a plan turns rids into rows.
//!
//! Figure 1 of the paper contrasts three plans for a simple selection, and
//! the *fetch* is what separates them:
//!
//! * the **traditional index scan** fetches each qualifying row with a
//!   random page read, in key order — excellent for a handful of rows,
//!   catastrophic ("multiple orders of magnitude" worse than a table scan)
//!   for large results;
//! * the **improved index scan** first sorts the rids into physical order
//!   and then sweeps the heap front-to-back, letting sequential read-ahead
//!   absorb small gaps and short seeks absorb medium ones — low latency for
//!   small results *and* scan-like bandwidth for large ones;
//! * **System B** (Figure 8) sorts rids "very efficiently using a bitmap"
//!   and fetches in physical order, but without the read-ahead regime.
//!
//! All three really fetch every row; they differ only in visit order and in
//! the access kinds they are charged.
//!
//! Physical order is read off a [`RidSet`] — the bitmap System B is charged
//! for is the structure both sweeps walk, page group by page group — unless
//! the list is one the set is not built for (short, sparse over its span,
//! or a multiset the improved fetch must fetch repeat by repeat): `Ordered`
//! makes that choice from the list alone and `sort_list` is the one
//! place a rid list is sorted.  The charges are analytic either way.

use robustmap_storage::heap::Rid;
use robustmap_storage::{AccessKind, HeapFile, RidSet, Session, StorageError};

use crate::batch::{BatchEmitter, Records, RowBatch};
use crate::exec::ExecError;
use crate::expr::Predicate;
use crate::plan::{FetchKind, ImprovedFetchConfig};

/// Comparisons a comparison sort of `n` items is charged: `n ⌈log2 n⌉`.
/// What really orders the items is [`Ordered`]'s business, not the clock's.
pub(crate) fn sort_compares(n: u64) -> u64 {
    n * (64 - n.saturating_sub(1).leading_zeros()) as u64
}

/// A rid list in physical order: as a [`RidSet`] when the list is one the
/// set is built for, otherwise as the list itself, sorted.
pub(crate) enum Ordered {
    /// Every rid of the list, each once.
    Set(RidSet),
    /// The list sorted; its duplicates, if any, adjacent.
    List(Vec<Rid>),
}

impl Ordered {
    /// Order `rids`, keeping duplicates: a list that holds one is a
    /// multiset, which the set cannot say, and stays a list — like a list
    /// [`RidSet::build`] refuses (short, or sparse over its span).
    pub(crate) fn of(mut rids: Vec<Rid>) -> Ordered {
        match RidSet::build(&rids) {
            Some(set) if set.len() == rids.len() => Ordered::Set(set),
            _ => {
                sort_list(&mut rids);
                Ordered::List(rids)
            }
        }
    }

    /// The rids in order, as a list.
    pub(crate) fn into_list(self) -> Vec<Rid> {
        match self {
            Ordered::Set(set) => set.iter().collect(),
            Ordered::List(rids) => rids,
        }
    }

    /// The largest rid.
    pub(crate) fn last(&self) -> Option<Rid> {
        match self {
            Ordered::Set(set) => set.last(),
            Ordered::List(rids) => rids.last().copied(),
        }
    }

    /// How many of the rids are `<= m`.
    pub(crate) fn through(&self, m: Rid) -> usize {
        match self {
            Ordered::Set(set) => set.ranks().rank(m) + usize::from(set.contains(m)),
            Ordered::List(rids) => rids.partition_point(|&rid| rid <= m),
        }
    }
}

/// The fall-through: sort a rid list the set was not built for (rids order
/// by their u64 encoding; short lists take the standard library's sort).
pub(crate) fn sort_list(rids: &mut Vec<Rid>) {
    robustmap_storage::radix::radix_sort_by_u64_key(rids, |r| r.to_u64());
}

/// What the runs of one fetch share: the heap, the residual every row goes
/// through and the columns gathered from the survivors, the emitter, and
/// scratch for a run's records.
struct Fetcher<'a, 'h> {
    heap: &'h HeapFile,
    residual: &'a Predicate,
    proj: &'a [usize],
    emitter: BatchEmitter,
    session: &'a Session,
    sink: &'a mut dyn FnMut(&RowBatch),
    records: Vec<&'h [u8]>,
}

impl<'a, 'h> Fetcher<'a, 'h> {
    fn new(
        heap: &'h HeapFile,
        residual: &'a Predicate,
        proj: &'a [usize],
        session: &'a Session,
        sink: &'a mut dyn FnMut(&RowBatch),
    ) -> Self {
        let emitter = BatchEmitter::new(proj.len());
        Fetcher { heap, residual, proj, emitter, session, sink, records: Vec::new() }
    }

    /// Fetch the rids `slots` of heap page `page_no`: what
    /// [`HeapFile::fetch`] with the residual evaluated on each row charges —
    /// a page request and a row per rid, the residual's comparisons — in
    /// one call each.  The page requests go first, ahead of any emission,
    /// so the run's repeats are hits on the page its first request left
    /// resident, whatever the sink does.  Each slot is looked up once; the
    /// records go through the scans' kernel, [`BatchEmitter::filter`].
    ///
    /// A page that does not exist is rejected, with the run's first rid,
    /// before the run charges anything.  A rid whose slot is empty ends the
    /// run with `InvalidRid`: the rows before it are fetched and charged in
    /// full, and the dangling rid itself is charged its request and its row
    /// (the slot is found empty only after the page was read), nothing
    /// after it.
    #[inline]
    fn page_run(
        &mut self,
        page_no: u32,
        mut slots: impl Iterator<Item = u32>,
    ) -> Result<(), ExecError> {
        let Some(page) = self.heap.page(page_no) else {
            let first = slots.next().expect("a run holds a rid");
            return Err(StorageError::InvalidRid(Rid::new(page_no, first)).into());
        };
        self.records.clear();
        let mut dangling = None;
        for slot in slots {
            match page.get(slot as usize) {
                Some(bytes) => self.records.push(bytes),
                None => {
                    dangling = Some(Rid::new(page_no, slot));
                    break;
                }
            }
        }
        let requested = (self.records.len() + usize::from(dangling.is_some())) as u64;
        self.session.read_page_run(self.heap.page_id(page_no), AccessKind::Random, requested);
        self.session.charge_rows_as(requested, requested);
        let records = Records::Listed(&self.records);
        let got = self.emitter.filter(self.residual, records, self.proj, self.sink);
        if !self.residual.is_true() {
            self.session.charge_compares_as(got.compares, got.live);
        }
        match dangling {
            Some(rid) => Err(StorageError::InvalidRid(rid).into()),
            None => Ok(()),
        }
    }

    /// Flush the last batch; the rows produced.
    fn finish(mut self) -> u64 {
        self.emitter.flush(self.sink);
        self.emitter.produced()
    }
}

/// The runs of a rid list: each maximal stretch of rids on one page, as
/// the page number and the slots in list order.
fn runs(rids: &[Rid]) -> impl Iterator<Item = (u32, impl Iterator<Item = u32> + '_)> {
    rids.chunk_by(|a, b| a.page == b.page).map(|run| (run[0].page, run.iter().map(|rid| rid.slot)))
}

/// Fetch `rids` with the discipline `kind` names, and push columns `proj`
/// of the rows that pass `residual` to `sink`.  Consumes the rid list (the
/// improved and bitmap fetches put it in physical order).
pub fn run(
    heap: &HeapFile,
    rids: Vec<Rid>,
    kind: &FetchKind,
    residual: &Predicate,
    proj: &[usize],
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    match kind {
        FetchKind::Traditional => traditional(heap, &rids, residual, proj, session, sink),
        FetchKind::Improved(cfg) => improved(heap, rids, cfg, residual, proj, session, sink),
        FetchKind::BitmapSorted => bitmap_sorted(heap, rids, residual, proj, session, sink),
    }
}

/// Fetch rows in the order given (key order from the index), one random
/// page read per row — the traditional index scan.
pub fn traditional(
    heap: &HeapFile,
    rids: &[Rid],
    residual: &Predicate,
    proj: &[usize],
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    let mut fetcher = Fetcher::new(heap, residual, proj, session, sink);
    // Key order scatters the rids, so most runs are one rid long.
    for (page_no, slots) in runs(rids) {
        fetcher.page_run(page_no, slots)?;
    }
    Ok(fetcher.finish())
}

/// The improved index scan's fetch: put the rids in physical order, then
/// sweep the heap with gap-dependent access costs (see
/// [`ImprovedFetchConfig`]).
///
/// Consumes the rid list (the caller has no further use for the unsorted
/// order).
pub fn improved(
    heap: &HeapFile,
    rids: Vec<Rid>,
    cfg: &ImprovedFetchConfig,
    residual: &Predicate,
    proj: &[usize],
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    let n = rids.len() as u64;
    if n > 0 {
        session.charge_compares(sort_compares(n));
    }
    // The charge above is the contract: a comparison sort, duplicates kept.
    let ordered = Ordered::of(rids);
    let fetcher = Fetcher::new(heap, residual, proj, session, sink);
    fetch_in_physical_order(&ordered, Some(cfg), fetcher)
}

/// System B's bitmap-sorted fetch: rids are deduplicated and ordered by a
/// bitmap (one hash-insert per rid — cheaper than a comparison sort), then
/// fetched in physical order with short seeks but no sequential read-ahead
/// regime.
///
/// Consumes the rid list, like [`improved`].
pub fn bitmap_sorted(
    heap: &HeapFile,
    mut rids: Vec<Rid>,
    residual: &Predicate,
    proj: &[usize],
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    // One insert per rid given — and the bitmap is real: the sweep below
    // reads its page groups.  A list the set is not built for is sorted
    // and deduplicated instead, which enumerates the same.
    session.charge_hashes(rids.len() as u64);
    let ordered = match RidSet::build(&rids) {
        Some(set) => Ordered::Set(set),
        None => {
            sort_list(&mut rids);
            rids.dedup();
            Ordered::List(rids)
        }
    };
    let fetcher = Fetcher::new(heap, residual, proj, session, sink);
    fetch_in_physical_order(&ordered, None, fetcher)
}

/// Shared physical-order sweep.  `cfg` enables the improved scan's
/// sequential read-ahead regime; `None` (bitmap fetch) uses only the short
/// seek / random distinction with the default prefetch gap.
fn fetch_in_physical_order(
    rids: &Ordered,
    cfg: Option<&ImprovedFetchConfig>,
    fetcher: Fetcher<'_, '_>,
) -> Result<u64, ExecError> {
    match rids {
        Ordered::Set(set) => sweep(set.pages(), cfg, fetcher),
        Ordered::List(list) => sweep(runs(list), cfg, fetcher),
    }
}

/// The sweep over `pages`: page numbers ascending, each with the slots to
/// fetch from it — a set's page groups, or a sorted list's runs.
fn sweep<S: Iterator<Item = u32>>(
    pages: impl Iterator<Item = (u32, S)>,
    cfg: Option<&ImprovedFetchConfig>,
    mut fetcher: Fetcher<'_, '_>,
) -> Result<u64, ExecError> {
    let prefetch_gap = cfg.map_or(ImprovedFetchConfig::default().prefetch_gap, |c| c.prefetch_gap);
    let scan_gap = cfg.map(|c| c.scan_gap);
    let (heap, session) = (fetcher.heap, fetcher.session);
    let mut prev_page: Option<u32> = None;
    // One page transition and one set of charges per page.
    for (page_no, slots) in pages {
        debug_assert!(prev_page.is_none_or(|p| p < page_no), "pages must be in physical order");
        let page_id = heap.page_id(page_no);
        match prev_page {
            Some(p) => {
                let gap = page_no - p;
                match scan_gap {
                    Some(sg) if gap <= sg => {
                        // Read-ahead covers the gap: intervening pages are
                        // read too, all at sequential cost.
                        for skipped in p + 1..=page_no {
                            session.read_page(heap.page_id(skipped), AccessKind::Sequential);
                        }
                    }
                    _ if gap <= prefetch_gap => {
                        session.read_page(page_id, AccessKind::SinglePage);
                    }
                    _ => {
                        session.read_page(page_id, AccessKind::Random);
                    }
                }
            }
            None => {
                // First page: a seek.
                session.read_page(page_id, AccessKind::Random);
            }
        }
        prev_page = Some(page_no);
        // The transition is charged before a missing page is rejected.
        fetcher.page_run(page_no, slots)?;
    }
    Ok(fetcher.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColRange;
    use crate::ops::index_scan::collect_rids;
    use crate::ops::testutil::{collect, demo_db};
    use crate::plan::{KeyRange, Projection};
    use robustmap_storage::Row;

    /// All fetch disciplines over the same rid set: shared setup.
    fn setup(n: i64, hi: i64) -> (robustmap_storage::Database, robustmap_storage::TableId, Vec<Rid>)
    {
        let (mut db, t) = demo_db(n);
        let idx = db.create_index("idx_a", t, &[0]).unwrap();
        let s = Session::with_pool_pages(64);
        let rids = collect_rids(db.index(idx), &KeyRange::on_leading(0, hi, 1), &s);
        (db, t, rids)
    }

    fn improved_kind() -> FetchKind {
        FetchKind::Improved(ImprovedFetchConfig::default())
    }

    /// Fetch `rids` with `kind` on `s`, collecting the rows.
    fn fetch(
        heap: &HeapFile,
        rids: &[Rid],
        kind: &FetchKind,
        residual: &Predicate,
        project: &Projection,
        s: &Session,
    ) -> (u64, Vec<Row>) {
        let proj = project.resolve(heap.schema().arity());
        collect(|sink| run(heap, rids.to_vec(), kind, residual, &proj, s, sink).unwrap())
    }

    fn fetch_all(heap: &HeapFile, rids: &[Rid], kind: &FetchKind, s: &Session) -> (u64, Vec<Row>) {
        fetch(heap, rids, kind, &Predicate::always_true(), &Projection::All, s)
    }

    #[test]
    fn all_disciplines_return_the_same_rows() {
        let (db, t, rids) = setup(512, 199);
        let heap = &db.table(t).heap;
        let sorted = |kind: &FetchKind| {
            let (n, rows) = fetch_all(heap, &rids, kind, &Session::with_pool_pages(64));
            let mut rows: Vec<Vec<i64>> = rows.iter().map(|r| r.values().to_vec()).collect();
            rows.sort();
            (n, rows)
        };
        let (n1, r1) = sorted(&FetchKind::Traditional);
        let (n2, r2) = sorted(&improved_kind());
        let (n3, r3) = sorted(&FetchKind::BitmapSorted);
        assert_eq!(n1, 200);
        assert_eq!(n1, n2);
        assert_eq!(n2, n3);
        assert_eq!(r1, r2);
        assert_eq!(r2, r3);
    }

    #[test]
    fn residual_filters_fetched_rows() {
        let (db, t, rids) = setup(512, 255);
        let heap = &db.table(t).heap;
        let s = Session::with_pool_pages(64);
        let residual = Predicate::single(ColRange::at_most(1, 127));
        let (n, rows) = fetch(heap, &rids, &improved_kind(), &residual, &Projection::All, &s);
        assert_eq!(n as usize, rows.len());
        // Both predicates have selectivity 1/2 over permutations of 0..512.
        let truth = {
            let s2 = Session::with_pool_pages(0);
            let mut c = 0;
            heap.scan(&s2, |_, row| {
                if row.get(0) <= 255 && row.get(1) <= 127 {
                    c += 1;
                }
            });
            c
        };
        assert_eq!(n, truth);
    }

    #[test]
    fn traditional_pays_random_reads_per_row() {
        // 64Ki rows span ~225 heap pages; an 8-page pool cannot absorb
        // key-ordered fetches that scatter across all of them.
        let (db, t, rids) = setup(65_536, 2047);
        let heap = &db.table(t).heap;
        let s = Session::with_pool_pages(8); // tiny pool: mostly misses
        fetch_all(heap, &rids, &FetchKind::Traditional, &s);
        let stats = s.stats();
        // Key-ordered rids land on scattered pages: overwhelmingly random.
        assert!(stats.random_reads > (rids.len() as u64) / 2, "stats: {stats:?}");
    }

    #[test]
    fn improved_fetch_is_cheaper_than_traditional_at_high_selectivity() {
        let (db, t, rids) = setup(4096, 2047); // half the table
        let heap = &db.table(t).heap;
        let cost = |kind: &FetchKind| {
            let s = Session::with_pool_pages(64);
            fetch_all(heap, &rids, kind, &s);
            s.elapsed()
        };
        let t_trad = cost(&FetchKind::Traditional);
        let t_impr = cost(&improved_kind());
        assert!(
            t_impr * 5.0 < t_trad,
            "improved {t_impr} should be much cheaper than traditional {t_trad}"
        );
    }

    #[test]
    fn improved_switches_to_sequential_when_dense() {
        let (db, t, rids) = setup(4096, 4095); // everything qualifies
        let heap = &db.table(t).heap;
        let s = Session::with_pool_pages(64);
        fetch_all(heap, &rids, &improved_kind(), &s);
        let stats = s.stats();
        // Dense rid set: nearly all page reads ride the read-ahead regime.
        assert!(stats.seq_reads > stats.random_reads * 10, "stats: {stats:?}");
        assert!(stats.seq_reads > stats.single_reads * 10, "stats: {stats:?}");
    }

    #[test]
    fn bitmap_fetch_never_uses_readahead() {
        let (db, t, rids) = setup(4096, 4095);
        let heap = &db.table(t).heap;
        let s = Session::with_pool_pages(64);
        fetch_all(heap, &rids, &FetchKind::BitmapSorted, &s);
        let stats = s.stats();
        // Physical order, but every new page is an individual read.
        assert_eq!(stats.seq_reads, 0, "stats: {stats:?}");
        assert!(stats.single_reads > 0);
    }

    /// The traditional fetch reads exactly like `HeapFile::fetch` +
    /// `Predicate::eval` per rid: rows, clock, charge events, counters.
    #[test]
    fn traditional_fetch_reads_like_the_heap_fetch() {
        let (db, t, rids) = setup(4096, 1023);
        let heap = &db.table(t).heap;
        let residual = Predicate::single(ColRange::at_most(1, 2047));
        let proj = Projection::Columns(vec![1, 0]);
        let s = Session::with_pool_pages(64);
        let (n, rows) = fetch(heap, &rids, &FetchKind::Traditional, &residual, &proj, &s);
        let got = (n, rows, s.elapsed_ticks(), s.charge_events(), s.stats());
        let reference = {
            let s = Session::with_pool_pages(64);
            let mut rows = Vec::new();
            for &rid in &rids {
                let row = heap.fetch(rid, &s, AccessKind::Random).unwrap();
                if residual.eval(&row, &s) {
                    rows.push(proj.apply(&row));
                }
            }
            (rows.len() as u64, rows, s.elapsed_ticks(), s.charge_events(), s.stats())
        };
        assert_eq!(got, reference);
    }

    /// A rid whose row was deleted under it (a tombstoned slot) fails the
    /// fetch, and the failed query has been charged what fetching row by
    /// row charges: the rows before the dangling rid in full, the dangling
    /// rid's own page request and row (the slot is found empty after the
    /// page was read), and nothing for the rids after it — wherever in its
    /// page's run the rid falls, in every discipline.
    #[test]
    fn a_dangling_rid_is_not_charged_for_its_successors() {
        let (pristine, t) = demo_db(2048);
        let per_page = pristine.table(t).heap.rows_per_page() as u32;
        // Every row of pages 3 and 4, in physical order.
        let rids: Vec<Rid> =
            (3..5).flat_map(|page| (0..per_page).map(move |slot| Rid::new(page, slot))).collect();
        let n = rids.len() as u64;
        let residual = Predicate::single(ColRange::at_least(0, 0)); // one comparison a row
        for dangling_slot in [0, per_page / 2, per_page - 1] {
            let (mut db, t) = demo_db(2048);
            let victim = Rid::new(3, dangling_slot);
            db.table_mut(t).heap.delete(victim).unwrap();
            let heap = &db.table(t).heap;
            let fetched = u64::from(dangling_slot);
            for (kind, sort_compares, hashes) in [
                (FetchKind::Traditional, 0, 0),
                (improved_kind(), sort_compares(n), 0),
                (FetchKind::BitmapSorted, 0, n),
            ] {
                let s = Session::with_pool_pages(64);
                let mut emitted = 0;
                let mut sink = |b: &RowBatch| emitted += b.len() as u64;
                let got = run(heap, rids.clone(), &kind, &residual, &[0, 1, 2], &s, &mut sink);
                assert_eq!(got, Err(StorageError::InvalidRid(victim).into()), "{kind:?}");
                let want = robustmap_storage::IoStats {
                    // The page is read once; the traditional fetch's first
                    // request is that read, the sweeps seek to it first.
                    random_reads: 1,
                    buffer_hits: fetched + u64::from(kind != FetchKind::Traditional),
                    cpu_rows: fetched + 1,
                    cpu_compares: sort_compares + fetched,
                    cpu_hashes: hashes,
                    ..Default::default()
                };
                assert_eq!(s.stats(), want, "{kind:?}, slot {dangling_slot} dangling");
                assert_eq!(s.elapsed_ticks(), s.costs().of(&want));
            }
        }
    }

    #[test]
    fn empty_rid_list_is_free() {
        let (db, t, _) = setup(64, 0);
        let heap = &db.table(t).heap;
        let s = Session::with_pool_pages(64);
        let (n, _) = fetch_all(heap, &[], &improved_kind(), &s);
        assert_eq!(n, 0);
        assert_eq!(s.stats().pages_read(), 0);
    }

    /// The bitmap fetch visits rids in the order a rid bitmap enumerates
    /// them — sorted, each once — and still charges one hash per rid given.
    #[test]
    fn bitmap_fetch_order_is_bitmap_iteration_order() {
        let (db, t, rids) = setup(8192, 5000);
        let heap = &db.table(t).heap;
        // Key order scatters the rids over the heap; repeat every third.
        let mut given = rids.clone();
        given.extend(rids.iter().step_by(3));
        given.extend(rids.iter().rev().step_by(7));
        assert!(given.len() > 4096 && given.len() > rids.len());

        let s = Session::with_pool_pages(64);
        let (n, rows) = fetch_all(heap, &given, &FetchKind::BitmapSorted, &s);
        assert_eq!(s.stats().cpu_hashes, given.len() as u64);

        let quiet = Session::with_pool_pages(0);
        let want: Vec<Row> = RidSet::build(&given)
            .expect("dense and long: a set")
            .iter()
            .map(|rid| heap.fetch(rid, &quiet, AccessKind::Random).unwrap())
            .collect();
        assert_eq!(n as usize, rids.len());
        assert_eq!(rows, want);
    }

    /// What a fetch did, in eight counters: the result, rows emitted, an
    /// order-sensitive digest of them, charge events, and the `IoStats`
    /// fields in declaration order.
    type Reading = (Result<u64, ExecError>, u64, i64, u64, [u64; 8]);

    fn read(heap: &HeapFile, rids: &[Rid], kind: &FetchKind) -> Reading {
        let s = Session::with_pool_pages(16);
        let residual = Predicate::single(ColRange::at_least(1, 100));
        let (mut emitted, mut digest) = (0u64, 0i64);
        let mut sink = |b: &RowBatch| {
            for i in 0..b.len() {
                emitted += 1;
                digest = digest.wrapping_mul(31).wrapping_add(b.row(i).get(2));
            }
        };
        let got = run(heap, rids.to_vec(), kind, &residual, &[0, 1, 2], &s, &mut sink);
        let io = s.stats();
        let io = [
            io.seq_reads,
            io.single_reads,
            io.random_reads,
            io.page_writes,
            io.buffer_hits,
            io.cpu_rows,
            io.cpu_compares,
            io.cpu_hashes,
        ];
        (got, emitted, digest, s.charge_events(), io)
    }

    /// Lists the set was not the obvious fit for read exactly as they did
    /// when every list was sorted: a multiset (the improved fetch fetches a
    /// repeat again, the bitmap fetch once), a tombstoned slot in the
    /// middle of a page of a scattered list, a rid on a page past the
    /// heap — each long enough to become a set and too short to — and a
    /// long list that one far rid makes sparse.  The
    /// readings are the parent commit's, taken before the set existed.
    #[test]
    fn edge_lists_read_as_they_did_before_the_set() {
        let (mut db, t) = demo_db(16_384);
        let per_page = db.table(t).heap.rows_per_page() as u32;
        // The last page is part full: scatter over the ones before it.
        let pages = db.table(t).heap.page_count() - 1;
        let victim = Rid::new(5, per_page / 2);
        db.table_mut(t).heap.delete(victim).unwrap();
        let heap = &db.table(t).heap;
        // `n` rids scattered over the first `over` pages, the victim's
        // slot left out.
        let scattered = |n: u32, over: u32| -> Vec<Rid> {
            (0..n)
                .map(|i| {
                    let at = i.wrapping_mul(2_654_435_761) % (over * per_page);
                    Rid::new(at / per_page, at % per_page)
                })
                .filter(|&rid| rid != victim)
                .collect()
        };
        let with_repeats = |mut rids: Vec<Rid>| {
            let n = rids.len();
            rids.extend_from_within(..n / 3);
            rids.extend_from_within(n / 2..n / 2 + n / 5);
            rids
        };
        let with = |mut rids: Vec<Rid>, extra: Rid| {
            let at = rids.len() * 2 / 3;
            rids.insert(at, extra);
            rids
        };
        let past = Rid::new(pages + 4, 1);
        let far = Rid::new(u32::MAX - 1, 0);
        let lists: [(&str, Vec<Rid>); 7] = [
            ("repeats, long", with_repeats(scattered(900, pages))),
            ("repeats, short", with_repeats(scattered(30, pages))),
            ("dangling, long", with(scattered(900, pages), victim)),
            ("dangling, short", with(scattered(30, 8), victim)),
            ("past the heap, long", with(scattered(900, pages), past)),
            ("past the heap, short", with(scattered(30, pages), past)),
            ("far past the heap, long and so sparse", with(scattered(900, pages), far)),
        ];
        let kinds = [FetchKind::Traditional, improved_kind(), FetchKind::BitmapSorted];
        let invalid = |page, slot| ExecError::from(StorageError::InvalidRid(Rid::new(page, slot)));
        #[rustfmt::skip]
        let want: [[Reading; 3]; 7] = [
            // repeats, long (1380 rids)
            [
                (Ok(1368), 1368, -8634093700175121141, 4140, [0, 0, 1372, 0, 8, 1380, 1380, 0]),
                (Ok(1368), 1368, 6744392589901611213, 4197, [55, 0, 1, 0, 1380, 1380, 16560, 0]),
                (Ok(893), 893, 4490416391609329909, 2757, [0, 55, 1, 0, 900, 900, 900, 1380]),
            ],
            // repeats, short (46 rids)
            [
                (Ok(44), 44, -7305739492769793953, 138, [0, 0, 42, 0, 4, 46, 46, 0]),
                (Ok(44), 44, -3572066554325966347, 193, [53, 0, 1, 0, 46, 46, 322, 0]),
                (Ok(29), 29, -8085550160945191631, 117, [0, 25, 1, 0, 30, 30, 30, 46]),
            ],
            // dangling, long (901 rids)
            [
                (Err(invalid(5, 146)), 0, 0, 1802, [0, 0, 600, 0, 1, 601, 600, 0]),
                (Err(invalid(5, 146)), 0, 0, 273, [5, 0, 1, 0, 89, 89, 9098, 0]),
                (Err(invalid(5, 146)), 0, 0, 273, [0, 5, 1, 0, 89, 89, 88, 901]),
            ],
            // dangling, short (31 rids)
            [
                (Err(invalid(5, 146)), 0, 0, 62, [0, 0, 4, 0, 17, 21, 20, 0]),
                (Err(invalid(5, 146)), 0, 0, 75, [5, 0, 1, 0, 23, 23, 177, 0]),
                (Err(invalid(5, 146)), 0, 0, 73, [0, 3, 1, 0, 23, 23, 22, 31]),
            ],
            // past the heap, long (901 rids)
            [
                (Err(invalid(60, 1)), 0, 0, 1800, [0, 0, 600, 0, 0, 600, 600, 0]),
                (Err(invalid(60, 1)), 0, 0, 2758, [55, 1, 1, 0, 900, 900, 9910, 0]),
                (Err(invalid(60, 1)), 0, 0, 2758, [0, 56, 1, 0, 900, 900, 900, 901]),
            ],
            // past the heap, short (31 rids)
            [
                (Err(invalid(60, 1)), 0, 0, 60, [0, 0, 20, 0, 0, 20, 20, 0]),
                (Err(invalid(60, 1)), 0, 0, 146, [53, 1, 1, 0, 30, 30, 185, 0]),
                (Err(invalid(60, 1)), 0, 0, 118, [0, 26, 1, 0, 30, 30, 30, 31]),
            ],
            // far past the heap, long and so sparse (901 rids)
            [
                (Err(invalid(4294967294, 0)), 0, 0, 1800, [0, 0, 600, 0, 0, 600, 600, 0]),
                (Err(invalid(4294967294, 0)), 0, 0, 2758, [55, 0, 2, 0, 900, 900, 9910, 0]),
                (Err(invalid(4294967294, 0)), 0, 0, 2758, [0, 55, 2, 0, 900, 900, 900, 901]),
            ],
        ];
        for ((name, rids), want) in lists.iter().zip(&want) {
            for (kind, want) in kinds.iter().zip(want) {
                assert_eq!(&read(heap, rids, kind), want, "{name}, {kind:?}");
            }
        }
    }
}
