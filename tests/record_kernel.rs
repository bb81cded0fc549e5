//! The heap-row kernel against the row-at-a-time heap.
//!
//! The table scan, the parallel scan and the fetch's residual all filter
//! heap rows through one kernel, `BatchEmitter::filter`, which evaluates a
//! conjunction a term at a time over a page's columns: over all of a page,
//! under a holey page's live-slot mask, or at a fetch run's slots.  This suite
//! holds every caller to what `HeapFile::scan` / `HeapFile::fetch` with
//! `Predicate::eval` on each row produce and charge — rows in order,
//! `IoStats`, clock ticks and charge events — over predicates of zero to
//! three terms (empty and full ranges among them), four projections, and
//! three heaps: as appended, tombstoned, and the tombstoned one rebuilt
//! from its page images.  Selectivities 0, about ½ and 1 run
//! over more than three batch boundaries.
//!
//! The improved and the bitmap fetch sweep a rid set page group by page
//! group; they are held to `HeapFile::fetch` in physical order with the
//! sweep's page transitions, over rid lists whose groups are part of a
//! page's live slots, all of them, or hold a deleted or never-written slot.

use robustmap::executor::batch::BATCH_ROWS;
use robustmap::executor::ops::{fetch, parallel_scan, table_scan};
use robustmap::executor::{ColRange, ExecError, ImprovedFetchConfig, Predicate, RowBatch};
use robustmap::storage::{
    AccessKind, BufferPool, ColumnType, FileId, HeapFile, IoStats, Rid, Row, Schema, Session,
    StorageError, Table,
};

const ROWS: i64 = 4500;
const POOL: usize = 4;

/// What a run produced and charged.
#[derive(Debug, PartialEq)]
struct Reading {
    rows: Vec<Row>,
    io: IoStats,
    ticks: u64,
    events: u64,
}

impl Reading {
    fn of(rows: Vec<Row>, s: &Session) -> Reading {
        Reading { rows, io: s.stats(), ticks: s.elapsed_ticks(), events: s.charge_events() }
    }
}

/// Rows the tombstoned heap takes after its deletes.
const LATE_ROWS: i64 = 500;

/// The three heaps: as appended (`a`, `b` permutations of `0..ROWS`,
/// `c` the row number); with every seventh row and all of page 2
/// tombstoned before the last `LATE_ROWS` rows were appended, so the page
/// that was last then takes appends after its first delete; and the second
/// rebuilt from its page images, masks and all.
fn heaps() -> Vec<(&'static str, HeapFile)> {
    let int = ColumnType::Int;
    let schema = Schema::new(vec![("a", int), ("b", int), ("c", int)]);
    let empty = || HeapFile::new(FileId(0), schema.clone());
    let append = |heap: &mut HeapFile, rows: std::ops::Range<i64>| {
        for i in rows {
            heap.append(&Row::from_slice(&[(i * 7919) % ROWS, (i * 104_729) % ROWS, i])).unwrap();
        }
    };
    let mut pristine = empty();
    append(&mut pristine, 0..ROWS);
    let mut tombstoned = empty();
    append(&mut tombstoned, 0..ROWS - LATE_ROWS);
    let early_pages = tombstoned.page_count();
    let victims: Vec<Rid> = live_rids(&tombstoned)
        .into_iter()
        .enumerate()
        .filter(|&(i, rid)| i % 7 == 3 || rid.page == 2)
        .map(|(_, rid)| rid)
        .collect();
    for rid in victims {
        tombstoned.delete(rid).unwrap();
    }
    let slots = |heap: &HeapFile| heap.resolve(early_pages - 1).unwrap().slot_count();
    let last = slots(&tombstoned);
    append(&mut tombstoned, ROWS - LATE_ROWS..ROWS);
    assert!(slots(&tombstoned) > last, "appends after a delete");
    assert!(tombstoned.page_count() > early_pages);
    let mut reloaded = empty();
    for p in 0..tombstoned.page_count() {
        let mut image = Vec::new();
        tombstoned.write_image(p, &mut image);
        reloaded.push_image(&image.try_into().unwrap()).expect("an image the heap wrote");
    }
    assert!(reloaded.resolve(early_pages - 1).unwrap().mask().is_some());
    vec![("pristine", pristine), ("tombstoned", tombstoned), ("reloaded", reloaded)]
}

fn live_rids(heap: &HeapFile) -> Vec<Rid> {
    let mut rids = Vec::new();
    heap.scan(&Session::with_pool_pages(0), |rid, _| rids.push(rid));
    rids
}

/// Predicates of zero to three terms at selectivity 0, about ½ and 1.
fn predicates() -> Vec<Predicate> {
    let half = ROWS / 2;
    let any = |c| ColRange::between(c, i64::MIN, i64::MAX);
    vec![
        Predicate::always_true(),
        Predicate::single(ColRange::at_most(0, -1)),
        Predicate::single(ColRange::at_most(0, half)),
        Predicate::single(any(1)),
        Predicate::all_of(vec![ColRange::at_least(1, half), ColRange::at_most(0, ROWS)]),
        Predicate::all_of(vec![any(2), ColRange::between(1, 5, 4)]),
        Predicate::all_of(vec![any(0), any(1), any(2)]),
        Predicate::all_of(vec![ColRange::at_most(0, half), ColRange::at_least(1, 10), any(2)]),
        Predicate::all_of(vec![any(2), ColRange::at_most(1, ROWS), ColRange::between(0, 1, 0)]),
    ]
}

/// No column, one, all of them, and one twice.
const PROJECTIONS: [&[usize]; 4] = [&[], &[2], &[0, 1, 2], &[1, 0, 1]];

/// Collect a kernel's batches as rows, checking that every batch but the
/// last is full.
fn collect(run: impl FnOnce(&mut dyn FnMut(&RowBatch))) -> Vec<Row> {
    let mut sizes = Vec::new();
    let mut rows = Vec::new();
    run(&mut |b: &RowBatch| {
        sizes.push(b.len());
        rows.extend((0..b.len()).map(|i| b.row(i)));
    });
    if let Some((_, full)) = sizes.split_last() {
        assert!(full.iter().all(|&n| n == BATCH_ROWS), "batches of {sizes:?}");
    }
    rows
}

/// `HeapFile::scan` with `Predicate::eval` on each row.
fn heap_scan(heap: &HeapFile, pred: &Predicate, proj: &[usize]) -> Reading {
    let s = Session::with_pool_pages(POOL);
    let mut rows = Vec::new();
    heap.scan(&s, |_, row| {
        if pred.eval(row, &s) {
            rows.push(row.project(proj));
        }
    });
    Reading::of(rows, &s)
}

/// The parallel scan's accounting over `HeapFile::scan_pages`: the pages
/// split as `parallel_scan::run` splits them without skew, each worker on
/// its own pool and clock charged the full term count a match and one
/// comparison a miss, the query its summed counters and the slowest worker
/// plus a start-up per worker.
fn heap_parallel_scan(heap: &HeapFile, pred: &Predicate, proj: &[usize], dop: u32) -> Reading {
    let s = Session::with_pool_pages(POOL);
    let pages = heap.page_count();
    let dop = dop.min(pages.max(1));
    let w0 = (pages as f64 / dop as f64).round() as u32;
    let rest = if dop > 1 { ((pages - w0) as f64 / (dop - 1) as f64).round() as u32 } else { 0 };
    let (mut rows, mut makespan, mut start) = (Vec::new(), 0, 0);
    for worker in 0..dop {
        let end = match worker {
            0 => w0,
            w if w == dop - 1 => pages,
            _ => start + rest,
        };
        let ws = Session::new(
            s.model().clone(),
            BufferPool::new(s.pool_capacity() / dop as usize, Default::default()),
        );
        let (mut live, mut matched) = (0, 0);
        heap.scan_pages(start..end, &ws, AccessKind::Sequential, |_, row| {
            live += 1;
            if pred.eval_free(row) {
                matched += 1;
                rows.push(row.project(proj));
            }
        });
        ws.charge_compares(matched * pred.terms().len().max(1) as u64 + (live - matched));
        makespan = makespan.max(ws.elapsed_ticks());
        s.clock().add_counters(&ws.stats());
        start = end;
    }
    s.clock().advance(makespan + s.costs().parallel_startup * u64::from(dop));
    Reading::of(rows, &s)
}

/// `HeapFile::fetch` with the residual's `Predicate::eval` on each row.
fn heap_fetch(heap: &HeapFile, rids: &[Rid], residual: &Predicate, proj: &[usize]) -> Reading {
    let s = Session::with_pool_pages(POOL);
    let mut rows = Vec::new();
    for &rid in rids {
        let row = heap.fetch(rid, &s, AccessKind::Random).unwrap();
        if residual.eval(&row, &s) {
            rows.push(row.project(proj));
        }
    }
    Reading::of(rows, &s)
}

/// A fetch order with every kind of run: the live rids in `b` order (runs
/// of one), then in physical order (a run a page), then one page's rids
/// five times over (a run longer than a batch).
fn fetch_order(heap: &HeapFile) -> Vec<Rid> {
    let live = live_rids(heap);
    let mut by_b: Vec<(i64, Rid)> = Vec::new();
    heap.scan(&Session::with_pool_pages(0), |rid, row| by_b.push((row.get(1), rid)));
    by_b.sort_unstable();
    let page1: Vec<Rid> = live.iter().copied().filter(|rid| rid.page == 1).collect();
    let mut rids: Vec<Rid> = by_b.into_iter().map(|(_, rid)| rid).collect();
    rids.extend(&live);
    for _ in 0..5 {
        rids.extend(&page1);
    }
    assert!(page1.len() * 5 > BATCH_ROWS);
    rids
}

#[test]
fn scans_and_fetches_read_what_the_row_at_a_time_heap_reads() {
    for (name, heap) in heaps() {
        let rids = fetch_order(&heap);
        let table = Table { name: name.to_string(), heap };
        let heap = &table.heap;
        assert!(heap.row_count() > 3 * BATCH_ROWS as u64, "{name}: more than three batches");
        for pred in predicates() {
            for proj in PROJECTIONS {
                let case = format!("{name}, {pred}, columns {proj:?}");

                let s = Session::with_pool_pages(POOL);
                let rows = collect(|sink| {
                    table_scan::run(&table, &pred, proj, &s, sink);
                });
                assert_eq!(Reading::of(rows, &s), heap_scan(heap, &pred, proj), "scan: {case}");

                for dop in [1, 3] {
                    let s = Session::with_pool_pages(POOL);
                    let rows = collect(|sink| {
                        parallel_scan::run(&table, &pred, proj, dop, 0.0, &s, sink).unwrap();
                    });
                    let want = heap_parallel_scan(heap, &pred, proj, dop);
                    assert_eq!(Reading::of(rows, &s), want, "parallel scan, dop {dop}: {case}");
                }

                let s = Session::with_pool_pages(POOL);
                let rows = collect(|sink| {
                    fetch::traditional(heap, &rids, &pred, proj, &s, sink).unwrap();
                });
                let want = heap_fetch(heap, &rids, &pred, proj);
                assert_eq!(Reading::of(rows, &s), want, "traditional fetch: {case}");
            }
        }
    }
}

/// `ceil(log2 n)` comparisons a rid, what the improved fetch charges for
/// ordering `n` rids.
fn sort_compares(n: u64) -> u64 {
    n * u64::from(64 - n.saturating_sub(1).leading_zeros())
}

/// The improved fetch (`cfg`) or the bitmap fetch (`None`) as
/// `HeapFile::fetch` with the residual's `Predicate::eval` on each row,
/// over `rids` (no rid twice) in physical order: the ordering's charge,
/// then per page the sweep's transition — the first page a seek, a gap
/// read ahead sequentially page by page (improved only), a short gap a
/// single-page read, a long one a seek — and the page's rids fetched one
/// by one.  The first rid that does not resolve ends the sweep; it is
/// returned with what was read and charged up to it.
fn heap_sweep(
    heap: &HeapFile,
    rids: &[Rid],
    cfg: Option<ImprovedFetchConfig>,
    residual: &Predicate,
    proj: &[usize],
) -> (Option<Rid>, Reading) {
    let s = Session::with_pool_pages(POOL);
    let n = rids.len() as u64;
    match cfg {
        Some(_) => s.charge_compares(sort_compares(n)),
        None => s.charge_hashes(n),
    }
    let prefetch_gap = cfg.unwrap_or_default().prefetch_gap;
    let mut sorted = rids.to_vec();
    sorted.sort_unstable();
    let (mut rows, mut prev, mut dangling) = (Vec::new(), None, None);
    'pages: for run in sorted.chunk_by(|a, b| a.page == b.page) {
        let page = run[0].page;
        match prev {
            None => s.read_page(heap.page_id(page), AccessKind::Random),
            Some(p) => match cfg {
                Some(cfg) if page - p <= cfg.scan_gap => {
                    for skipped in p + 1..=page {
                        s.read_page(heap.page_id(skipped), AccessKind::Sequential);
                    }
                }
                _ if page - p <= prefetch_gap => {
                    s.read_page(heap.page_id(page), AccessKind::SinglePage);
                }
                _ => s.read_page(heap.page_id(page), AccessKind::Random),
            },
        }
        prev = Some(page);
        for &rid in run {
            match heap.fetch(rid, &s, AccessKind::Random) {
                Ok(row) if residual.eval(&row, &s) => rows.push(row.project(proj)),
                Ok(_) => {}
                Err(_) => {
                    dangling = Some(rid);
                    break 'pages;
                }
            }
        }
    }
    (dangling, Reading::of(rows, &s))
}

/// The slots below a page's slot count whose row was deleted, and the
/// slot past the last page's count.
fn dead_rids(heap: &HeapFile) -> Vec<Rid> {
    let slots = |p| heap.resolve(p).unwrap().slot_count() as u32;
    let mut dead: Vec<Rid> = (0..heap.page_count())
        .flat_map(|p| (0..slots(p)).map(move |s| Rid::new(p, s)))
        .filter(|&rid| !heap.resolve(rid.page).unwrap().is_live(rid.slot))
        .collect();
    let last = heap.page_count() - 1;
    dead.push(Rid::new(last, slots(last)));
    dead
}

/// Rid lists in key order (`b`), each long enough to become a rid set:
/// every live rid (each group a page's live slots), two of every three
/// (groups part of them), pages whole and part-taken alternately, and
/// those with one dead rid put on a page in the middle of the heap, on the
/// last page, and — on a heap with tombstones — on a fully deleted page.
fn sweep_lists(heap: &HeapFile) -> Vec<(String, Vec<Rid>)> {
    let mut by_b: Vec<(i64, Rid)> = Vec::new();
    heap.scan(&Session::with_pool_pages(0), |rid, row| by_b.push((row.get(1), rid)));
    by_b.sort_unstable();
    let live: Vec<Rid> = by_b.into_iter().map(|(_, rid)| rid).collect();
    let two_of_three: Vec<Rid> = live.iter().copied().filter(|rid| rid.slot % 3 != 1).collect();
    let alternate: Vec<Rid> =
        live.iter().copied().filter(|rid| rid.page % 2 == 0 || rid.slot % 4 == 0).collect();
    let mut lists = vec![
        ("every live rid".to_string(), live),
        ("two of every three".to_string(), two_of_three.clone()),
        ("whole and part pages".to_string(), alternate.clone()),
    ];
    let dead = dead_rids(heap);
    let middle = heap.page_count() / 2;
    let mut picks: Vec<Rid> = Vec::new();
    picks.extend(dead.iter().filter(|rid| rid.page >= middle).take(1));
    picks.extend(dead.last());
    picks.extend(dead.iter().filter(|rid| rid.page == 2).take(1));
    picks.dedup();
    let bases = [("two of every three", &two_of_three), ("whole and part pages", &alternate)];
    for victim in picks {
        for (name, base) in bases {
            let mut rids = base.clone();
            rids.insert(rids.len() / 3, victim);
            lists.push((format!("{name} with {victim} dead"), rids));
        }
    }
    lists
}

/// The improved fetch (`cfg`) or the bitmap fetch (`None`) of `rids`: its
/// result, the sizes of the batches it handed over, and its reading.
fn fetch_sweep(
    heap: &HeapFile,
    rids: &[Rid],
    cfg: Option<ImprovedFetchConfig>,
    pred: &Predicate,
    proj: &[usize],
) -> (Result<u64, ExecError>, Vec<usize>, Reading) {
    let s = Session::with_pool_pages(POOL);
    let (mut sizes, mut rows) = (Vec::new(), Vec::new());
    let mut sink = |b: &RowBatch| {
        sizes.push(b.len());
        rows.extend((0..b.len()).map(|i| b.row(i)));
    };
    let rids = rids.to_vec();
    let got = match cfg {
        Some(cfg) => fetch::improved(heap, rids, &cfg, pred, proj, &s, &mut sink),
        None => fetch::bitmap_sorted(heap, rids, pred, proj, &s, &mut sink),
    };
    (got, sizes, Reading::of(rows, &s))
}

#[test]
fn set_sweeps_read_what_the_row_at_a_time_heap_reads() {
    for (name, heap) in heaps() {
        let lists = sweep_lists(&heap);
        assert!(lists.iter().any(|(list, _)| list.contains("dead")), "{name}: a dead rid");
        for (list, rids) in &lists {
            assert!(rids.len() >= 64, "{name}, {list}: long enough for a set");
            for pred in predicates() {
                // The gather is the scans'; two projections are enough here.
                for proj in [PROJECTIONS[0], PROJECTIONS[3]] {
                    for cfg in [Some(ImprovedFetchConfig::default()), None] {
                        let case = format!("{name}, {list}, {pred}, columns {proj:?}, {cfg:?}");
                        let (got, sizes, reading) = fetch_sweep(&heap, rids, cfg, &pred, proj);
                        let (dangling, mut want) = heap_sweep(&heap, rids, cfg, &pred, proj);
                        let full = |sizes: &[usize]| sizes.iter().all(|&n| n == BATCH_ROWS);
                        match dangling {
                            None => {
                                assert_eq!(got, Ok(want.rows.len() as u64), "{case}");
                                assert!(full(sizes.split_last().map_or(&[], |(_, f)| f)), "{case}");
                            }
                            Some(rid) => {
                                // A failed fetch hands over its full batches only.
                                let err = ExecError::from(StorageError::InvalidRid(rid));
                                assert_eq!(got, Err(err), "{case}");
                                assert!(full(&sizes), "{case}: {sizes:?}");
                                want.rows.truncate(want.rows.len() / BATCH_ROWS * BATCH_ROWS);
                            }
                        }
                        assert_eq!(reading, want, "{case}");
                    }
                }
            }
        }
    }
}
