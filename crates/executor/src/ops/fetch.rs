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

use robustmap_storage::heap::Rid;
use robustmap_storage::{AccessKind, HeapFile, PageId, Session, SlottedPage, StorageError};

use crate::batch::{col_from_bytes, radix_sort_by_u64_key, BatchEmitter, ExecConfig, RowBatch};
use crate::exec::ExecError;
use crate::expr::Predicate;
use crate::plan::{FetchKind, ImprovedFetchConfig, Projection};

/// Fetch one run of rids on the same heap page: what [`HeapFile::fetch`]
/// with the residual evaluated on each row charges — a page request and a
/// row per rid, the residual's comparisons — in one call each.  The page
/// requests go first, ahead of any emission, so the run's repeats are hits
/// on the page its first request left resident, whatever the sink does.
///
/// A rid whose slot is empty ends the run with `InvalidRid`: the rows
/// before it are fetched and charged in full, and the dangling rid itself
/// is charged its request and its row (the slot is found empty only after
/// the page was read), nothing after it.
#[allow(clippy::too_many_arguments)]
#[inline]
fn fetch_run(
    page: &SlottedPage,
    page_id: PageId,
    run: &[Rid],
    residual: &Predicate,
    proj: &[usize],
    emitter: &mut BatchEmitter,
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<(), ExecError> {
    let record = |rid: &Rid| page.get(rid.slot as usize);
    let live = run.iter().position(|rid| record(rid).is_none()).unwrap_or(run.len());
    let dangling = run.get(live);
    let requested = (live + usize::from(dangling.is_some())) as u64;
    session.read_page_run(page_id, AccessKind::Random, requested);
    session.charge_rows_as(requested, requested);
    residual.filter_run(
        run[..live].iter().map(|rid| record(rid).expect("slot checked above")),
        |bytes, c| col_from_bytes(bytes, c),
        session,
        |bytes| emitter.push_projected_bytes(bytes, proj, sink),
    );
    match dangling {
        Some(&rid) => Err(StorageError::InvalidRid(rid).into()),
        None => Ok(()),
    }
}

/// Fetch `rids` with the discipline `kind` names.  Consumes the rid list
/// (the improved and bitmap fetches sort it in place).
pub fn run(
    heap: &HeapFile,
    rids: Vec<Rid>,
    kind: &FetchKind,
    residual: &Predicate,
    project: &Projection,
    cfg: &ExecConfig,
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    match kind {
        FetchKind::Traditional => traditional(heap, &rids, residual, project, cfg, session, sink),
        FetchKind::Improved(icfg) => {
            improved(heap, rids, icfg, residual, project, cfg, session, sink)
        }
        FetchKind::BitmapSorted => bitmap_sorted(heap, rids, residual, project, cfg, session, sink),
    }
}

/// Fetch rows in the order given (key order from the index), one random
/// page read per row — the traditional index scan.
pub fn traditional(
    heap: &HeapFile,
    rids: &[Rid],
    residual: &Predicate,
    project: &Projection,
    cfg: &ExecConfig,
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    let proj = project.resolve(heap.schema().arity());
    let mut emitter = BatchEmitter::new(proj.len(), cfg.batch_rows);
    // Key order scatters the rids, so most runs are one rid long.
    for run in rids.chunk_by(|a, b| a.page == b.page) {
        // A page that does not exist is rejected before any charge.
        let page = heap.page(run[0].page).ok_or(StorageError::InvalidRid(run[0]))?;
        let page_id = heap.page_id(run[0].page);
        fetch_run(page, page_id, run, residual, &proj, &mut emitter, session, sink)?;
    }
    emitter.flush(sink);
    Ok(emitter.produced())
}

/// The improved index scan's fetch: sort rids into physical order, then
/// sweep the heap with gap-dependent access costs (see
/// [`ImprovedFetchConfig`]).
///
/// Consumes the rid list (it must be sorted in place; the caller has no
/// further use for the unsorted order).
pub fn improved(
    heap: &HeapFile,
    mut rids: Vec<Rid>,
    cfg: &ImprovedFetchConfig,
    residual: &Predicate,
    project: &Projection,
    exec_cfg: &ExecConfig,
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    let n = rids.len() as u64;
    if n > 0 {
        // Sort cost: n log2 n comparisons.
        session.charge_compares(n * (64 - (n - 1).leading_zeros()) as u64);
    }
    // The simulated cost above is the contract; the real sort is free to be
    // a radix sort (rids order by their u64 encoding).
    radix_sort_by_u64_key(&mut rids, |r| r.to_u64());
    fetch_in_physical_order(heap, &rids, Some(cfg), residual, project, exec_cfg, session, sink)
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
    project: &Projection,
    cfg: &ExecConfig,
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    session.charge_hashes(rids.len() as u64);
    // The charge above is the contract; a bitmap enumerates its rids sorted
    // and without duplicates, and that sequence is all the fetch needs.
    radix_sort_by_u64_key(&mut rids, |r| r.to_u64());
    rids.dedup();
    fetch_in_physical_order(heap, &rids, None, residual, project, cfg, session, sink)
}

/// Shared physical-order sweep.  `cfg` enables the improved scan's
/// sequential read-ahead regime; `None` (bitmap fetch) uses only the short
/// seek / random distinction with the default prefetch gap.
#[allow(clippy::too_many_arguments)]
fn fetch_in_physical_order(
    heap: &HeapFile,
    rids: &[Rid],
    cfg: Option<&ImprovedFetchConfig>,
    residual: &Predicate,
    project: &Projection,
    exec_cfg: &ExecConfig,
    session: &Session,
    sink: &mut dyn FnMut(&RowBatch),
) -> Result<u64, ExecError> {
    debug_assert!(rids.windows(2).all(|w| w[0] <= w[1]), "rids must be in physical order");
    let prefetch_gap = cfg.map_or(ImprovedFetchConfig::default().prefetch_gap, |c| c.prefetch_gap);
    let scan_gap = cfg.map(|c| c.scan_gap);
    let proj = project.resolve(heap.schema().arity());
    let mut emitter = BatchEmitter::new(proj.len(), exec_cfg.batch_rows);
    let mut prev_page: Option<u32> = None;
    // One page transition and one set of charges per run of rids on the
    // same page.
    for run in rids.chunk_by(|a, b| a.page == b.page) {
        let page_no = run[0].page;
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
        let page = heap.page(page_no).ok_or(StorageError::InvalidRid(run[0]))?;
        fetch_run(page, page_id, run, residual, &proj, &mut emitter, session, sink)?;
    }
    emitter.flush(sink);
    Ok(emitter.produced())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColRange;
    use crate::ops::index_scan::collect_rids;
    use crate::ops::testutil::{collect, demo_db};
    use crate::plan::KeyRange;
    use robustmap_storage::Row;

    /// All fetch disciplines over the same rid set: shared setup.
    fn setup(n: i64, hi: i64) -> (robustmap_storage::Database, robustmap_storage::TableId, Vec<Rid>)
    {
        let (mut db, t) = demo_db(n);
        let idx = db.create_index("idx_a", t, &[0]).unwrap();
        let s = Session::with_pool_pages(64);
        let rids = collect_rids(
            db.index(idx),
            &KeyRange::on_leading(0, hi, 1),
            &s,
            AccessKind::Sequential,
        );
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
        batch_rows: usize,
        s: &Session,
    ) -> (u64, Vec<Row>) {
        let cfg = ExecConfig::with_batch_rows(batch_rows);
        collect(|sink| run(heap, rids.to_vec(), kind, residual, project, &cfg, s, sink).unwrap())
    }

    fn fetch_all(heap: &HeapFile, rids: &[Rid], kind: &FetchKind, s: &Session) -> (u64, Vec<Row>) {
        fetch(heap, rids, kind, &Predicate::always_true(), &Projection::All, 1024, s)
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
        let (n, rows) = fetch(heap, &rids, &improved_kind(), &residual, &Projection::All, 1024, &s);
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

    /// Every discipline reads the same — clock, charge events, counters —
    /// at every batch size, and the traditional fetch reads exactly like
    /// `HeapFile::fetch` + `Predicate::eval` per rid.
    #[test]
    fn fetch_disciplines_are_identical_at_every_batch_size() {
        let (db, t, rids) = setup(4096, 1023);
        let heap = &db.table(t).heap;
        let residual = Predicate::single(ColRange::at_most(1, 2047));
        let proj = Projection::Columns(vec![1, 0]);
        let run_at = |kind: &FetchKind, batch_rows: usize| {
            let s = Session::with_pool_pages(64);
            let (n, rows) = fetch(heap, &rids, kind, &residual, &proj, batch_rows, &s);
            (n, rows, s.elapsed_ticks(), s.charge_events(), s.stats())
        };
        for kind in [FetchKind::Traditional, improved_kind(), FetchKind::BitmapSorted] {
            let want = run_at(&kind, 1);
            for batch_rows in [100usize, 1024] {
                assert_eq!(run_at(&kind, batch_rows), want, "{kind:?} @ batch {batch_rows}");
            }
        }
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
        assert_eq!(run_at(&FetchKind::Traditional, 100), reference);
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
                (improved_kind(), n * u64::from(64 - (n - 1).leading_zeros()), 0),
                (FetchKind::BitmapSorted, 0, n),
            ] {
                let s = Session::with_pool_pages(64);
                let cfg = ExecConfig::default();
                let mut emitted = 0;
                let mut sink = |b: &RowBatch| emitted += b.len() as u64;
                let got =
                    run(heap, rids.clone(), &kind, &residual, &Projection::All, &cfg, &s, &mut sink);
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
        let want: Vec<Row> = robustmap_storage::RidBitmap::from_rids(given.iter().copied())
            .iter_rids()
            .map(|rid| heap.fetch(rid, &quiet, AccessKind::Random).unwrap())
            .collect();
        assert_eq!(n as usize, rids.len());
        assert_eq!(rows, want);
    }
}
