//! The heap-record kernel against the row-at-a-time heap.
//!
//! The table scan, the parallel scan and the fetch's residual all filter
//! heap records through one kernel, `BatchEmitter::filter`, which reads a
//! page straight from its record area when the slot directory is exactly
//! what appending wrote and through the directory otherwise.  This suite
//! holds every caller to what `HeapFile::scan` / `HeapFile::fetch` with
//! `Predicate::eval` on each row produce and charge — rows in order,
//! `IoStats`, clock ticks and charge events — over predicates of zero to
//! three terms (empty and full ranges among them), four projections, and
//! three heaps: as appended, tombstoned, and reassembled from page images
//! with two directory entries swapped.  Selectivities 0, about ½ and 1 run
//! over more than three batch boundaries.

use robustmap::executor::batch::BATCH_ROWS;
use robustmap::executor::ops::{fetch, parallel_scan, table_scan};
use robustmap::executor::{ColRange, Predicate, RowBatch};
use robustmap::storage::{
    AccessKind, BufferPool, ColumnType, FileId, HeapFile, IoStats, Rid, Row, Schema, Session,
    SlottedPage, Table,
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

/// The three heaps: as appended (`a`, `b` permutations of `0..ROWS`,
/// `c` the row number), with every seventh row and all of page 2
/// tombstoned, and rebuilt from images of the first whose pages 0, 3, 6, …
/// have their first two directory entries swapped.
fn heaps() -> Vec<(&'static str, HeapFile)> {
    let build = || {
        let int = ColumnType::Int;
        let mut heap = HeapFile::new(FileId(0), Schema::new(vec![("a", int), ("b", int), ("c", int)]));
        for i in 0..ROWS {
            heap.append(&Row::from_slice(&[(i * 7919) % ROWS, (i * 104_729) % ROWS, i])).unwrap();
        }
        heap
    };
    let pristine = build();
    let mut tombstoned = build();
    let victims: Vec<Rid> = live_rids(&tombstoned)
        .into_iter()
        .enumerate()
        .filter(|&(i, rid)| i % 7 == 3 || rid.page == 2)
        .map(|(_, rid)| rid)
        .collect();
    for rid in victims {
        tombstoned.delete(rid).unwrap();
    }
    let pages = (0..pristine.page_count())
        .map(|p| {
            let mut image = *pristine.page(p).unwrap().as_bytes();
            if p % 3 == 0 {
                // The slot directory starts after the 4-byte page header.
                let (first, second) = image[4..12].split_at_mut(4);
                first.swap_with_slice(second);
            }
            SlottedPage::from_bytes(&image)
        })
        .collect();
    let schema = pristine.schema().clone();
    let swapped = HeapFile::from_pages(pristine.file_id(), schema, pages).expect("well formed");
    assert!(swapped.page(0).unwrap().fixed_records(24).is_none());
    assert!(swapped.page(1).unwrap().fixed_records(24).is_some());
    vec![("pristine", pristine), ("tombstoned", tombstoned), ("swapped", swapped)]
}

fn live_rids(heap: &HeapFile) -> Vec<Rid> {
    let mut rids = Vec::new();
    heap.try_for_each_row(|rid, _| rids.push(rid)).unwrap();
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
    heap.try_for_each_row(|rid, row| by_b.push((row.get(1), rid))).unwrap();
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
