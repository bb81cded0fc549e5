//! Criterion micro-benchmarks of the substrate: the structures and
//! operators whose (real) speed determines how large a robustness map one
//! can afford to sweep.  The `pool/*`, `btree/range_scan_full` and
//! `fetch/improved_dense` rows are the micro view of the storage read path
//! (docs/DESIGN.md "Storage read path"): one row per mechanism, re-runnable
//! without the full `benchmark/run.sh`.  The `ridset/*` rows are the rid
//! set's: built over the heap's span, built and walked in physical order,
//! ANDed and probed at 2^18 rids, and the ordering of a list the set
//! refuses.  The
//! `sort/*_multipass_64k`, `join/sort_merge_64k` and `exec/materialise_64k`
//! rows do the same for the blocking operators (docs/DESIGN.md "Blocking
//! operators"): the sorter that charges for the merge and orders once, the
//! join that merges handle orders, and the packed blocking edges;
//! `sort/graceful_{window,fits}_*` and `agg/hash_*` for the blocking
//! operators' own batch push (the streamed handle window, the packed group
//! table), and `sort/sort_all_128k` for a sorter handed its whole input
//! (the rank window).  The `scan/*` rows, with
//! `fetch/{improved,bitmap}` and `btree/range_scan_full`, are the kernels
//! that charge per page, leaf or rid run (`scan/mdam_64k` where every
//! skip lands on the next entry, `scan/mdam_dup_prefix_64k` where skips
//! are seeks, `btree/key_padded_hi` the skip target's constructor;
//! `scan/table_scan_read_64k` gathers its rows into batches, which the
//! counted `scan/table_scan_64k` never does, and
//! `scan/table_scan_tombstoned_64k` reads every page through its slot
//! directory); `fetch/improved_dense_served` is
//! the same fetch as a served query runs it (shared pool behind its lock,
//! yield hook armed).  The `serve/*` rows are the
//! scheduler's: the same burst sliced and unsliced (the difference, over the
//! extra slices, is the price of a baton handoff) and served one query at a
//! time (every handoff is to the yielder itself, which costs no wake).
//! `exec/catalog_{count,read}_64k` run the fifteen catalog plans once
//! counted (`run_count`: the root builds no row) and once read
//! (`run_collect`), and `sort/abrupt_root_count_128k` is a counted root
//! sort, which computes no order (docs/DESIGN.md "Counted runs").  The
//! `setup/*` rows are what every binary pays before its first cell: a table
//! built, its cache file stored, and the file loaded back, at 2^17 rows.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use robustmap_core::{build_map2d, serve_concurrent, Grid2D, MeasureConfig, ServeConfig};
use robustmap_executor::ops::sort::{ExternalSorter, PackedRows};
use robustmap_executor::{
    run, run_collect, run_count, AggFn, ColRange, ExecCtx, FetchKind, ImprovedFetchConfig,
    IndexRangeSpec, JoinAlgo, KeyRange, PlanSpec, Predicate, Projection, SpillMode,
};
use robustmap_storage::btree::{BTree, Key};
use robustmap_storage::heap::Rid;
use robustmap_storage::radix::radix_sort_by_u64_key;
use robustmap_storage::{
    AccessKind, CostModel, EvictionPolicy, FileId, PageId, RidSet, RidSpan, Session,
    SharedBufferPool,
};
use robustmap_systems::{two_predicate_plans, AdmissionConfig, SystemId};
use robustmap_workload::gen::PredicateDistribution;
use robustmap_workload::{cache, TableBuilder, Workload, WorkloadConfig};

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    let entries: Vec<(Key, Rid)> =
        (0..100_000i64).map(|i| (Key::single(i), Rid::new((i / 200) as u32, (i % 200) as u32))).collect();
    group.bench_function("bulk_load_100k", |b| {
        b.iter(|| BTree::bulk_load(FileId(0), 1, entries.iter().copied(), 0.9))
    });
    let tree = BTree::bulk_load(FileId(0), 1, entries.iter().copied(), 0.9);
    let session = Session::with_pool_pages(1 << 16);
    group.bench_function("point_lookup", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            tree.get_first(&Key::single(k), &session)
        })
    });
    group.bench_function("range_scan_1k", |b| {
        b.iter(|| {
            let mut n = 0u64;
            tree.scan_range(
                &Key::single(40_000),
                &Key::single(40_999),
                &session,
                AccessKind::Sequential,
                |_| n += 1,
            );
            n
        })
    });
    group.bench_function("range_scan_full", |b| {
        b.iter(|| {
            tree.scan_range(
                &Key::single(i64::MIN),
                &Key::single(i64::MAX),
                &session,
                AccessKind::Sequential,
                |_| {},
            )
        })
    });
    // 2^16 prefix-padded keys an iteration, the prefix length hidden from
    // the compiler as MDAM's violating column is: a skip target a key.
    group.bench_function("key_padded_hi", |b| {
        let prefix = [7i64, 11, 13];
        b.iter(|| {
            (0..1usize << 16).fold(0, |acc, i| {
                let key = Key::padded_hi(black_box(&prefix[..1 + i % 2]), 3);
                acc ^ key.get(1) ^ key.get(2)
            })
        })
    });
    group.bench_function("insert_delete_cycle", |b| {
        let mut tree = BTree::new(FileId(1), 1);
        for i in 0..10_000i64 {
            tree.insert(Key::single(i), Rid::new(0, i as u32), &session);
        }
        let mut i = 0i64;
        b.iter(|| {
            let k = (i * 31) % 10_000;
            tree.delete(Key::single(k), Rid::new(0, k as u32), &session);
            tree.insert(Key::single(k), Rid::new(0, k as u32), &session);
            i += 1;
        })
    });
    group.finish();
}

/// Page requests through a private session, 2^20 an iteration: the repeat
/// of the previous page (answered by the pool's last-page memo) and a cycle
/// over resident pages (a hash probe and an LRU splice each), neither
/// taking a lock.
fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    let session = Session::with_pool_pages(1024);
    for (name, pages) in [("same_page_hit", 1u32), ("resident_cycle_512", 512)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for i in 0..1u32 << 20 {
                    session.read_page(PageId::new(FileId(9), i % pages), AccessKind::Random);
                }
            })
        });
    }
    group.finish();
}

/// `n` distinct rids in index-key order — pages and slots scattered — over
/// a heap of `pages` pages at 186 rows a page, as in the benchmark's table.
fn scattered_rids(n: u32, pages: u32, step: u32) -> Vec<Rid> {
    let universe = pages * 186;
    (0..universe.next_power_of_two())
        .map(|i| i.wrapping_mul(step) % universe.next_power_of_two())
        .filter(|&at| at < universe)
        .take(n as usize)
        .map(|at| Rid::new(at / 186, at % 186))
        .collect()
}

/// Put a rid list in physical order the way the fetches do and walk it:
/// through the set's page groups, or — a list the set refuses — by the
/// sort.
fn order(rids: &[Rid], span: RidSpan) -> u64 {
    match RidSet::build(rids, span) {
        Some(set) => {
            set.pages().map(|(page, slots)| page as u64 + slots.map(u64::from).sum::<u64>()).sum()
        }
        None => {
            let mut list = rids.to_vec();
            radix_sort_by_u64_key(&mut list, |r| r.to_u64());
            list.iter().map(|r| (r.page + r.slot) as u64).sum()
        }
    }
}

/// The rid set over the benchmark table's shape: 2^18 rows on 1 410 pages
/// (45 KB of words), every row's rid in key order; half of them twice over
/// for the AND; and 4 096 rids across a heap four times the size — 5.5
/// words a rid, so the set refuses and the list is sorted.
fn bench_ridset(c: &mut Criterion) {
    let mut group = c.benchmark_group("ridset");
    let all = scattered_rids(1 << 18, 1410, 2_654_435_761);
    let (left, right) =
        (scattered_rids(1 << 17, 1410, 2_654_435_761), scattered_rids(1 << 17, 1410, 40_503));
    let sparse = scattered_rids(1 << 12, 5640, 2_654_435_761);
    let (span, big) = (RidSpan { pages: 1410, slots: 186 }, RidSpan { pages: 5640, slots: 186 });
    assert!(RidSet::build(&sparse, big).is_none());
    group.bench_function("build_256k", |b| b.iter(|| RidSet::build(&all, span)));
    group.bench_function("order_256k", |b| b.iter(|| order(&all, span)));
    group.bench_function("order_4k", |b| b.iter(|| order(&sparse, big)));
    let (l, r) = (RidSet::build(&left, span).unwrap(), RidSet::build(&right, span).unwrap());
    group.bench_function("and_256k", |b| b.iter(|| l.and(&r).len()));
    group.bench_function("probe_256k", |b| {
        b.iter(|| all.iter().filter(|&&rid| l.contains(rid)).count())
    });
    group.finish();
}

fn bench_fetch_disciplines(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let t = w.cal_a.threshold(1.0 / 16.0);
    let mut group = c.benchmark_group("fetch");
    group.sample_size(20);
    let improved = || FetchKind::Improved(ImprovedFetchConfig::default());
    for (name, fetch, hi, served) in [
        ("traditional", FetchKind::Traditional, t, false),
        ("improved", improved(), t, false),
        ("bitmap", FetchKind::BitmapSorted, t, false),
        // Every row qualifies: each heap page is one long run of rids.
        ("improved_dense", improved(), i64::MAX, false),
        // ... on a shared pool with a yield hook armed, as `core::serve`
        // runs a query: every pool request takes the pool's lock and every
        // charge call checks the quantum.
        ("improved_dense_served", improved(), i64::MAX, true),
    ] {
        let plan = PlanSpec::IndexFetch {
            scan: IndexRangeSpec { index: w.indexes.a, range: KeyRange::on_leading(i64::MIN, hi, 1) },
            key_filter: Predicate::always_true(),
            fetch,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let s = if served {
                    let pool = std::sync::Arc::new(SharedBufferPool::new(256, EvictionPolicy::Lru));
                    let s = Session::on_shared(CostModel::hdd_2009(), pool);
                    s.install_yield_hook(1024, Box::new(|_| {}));
                    s
                } else {
                    Session::with_pool_pages(256)
                };
                let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                run_count(&plan, &ctx, None).unwrap().rows_out
            })
        });
    }
    group.finish();
}

/// The scans that touch every row or entry they pass: a table scan under a
/// two-term predicate, a covering index scan with a residual, and MDAM
/// over the two-column index with a selective second column — over the
/// permutation table, where every prefix is distinct and a skip lands on
/// the next entry, and over a uniform one, where sixteen entries share a
/// prefix, the probe window fails and the skip is a seek.
fn bench_scan_kernels(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let dup = TableBuilder::build_cached(WorkloadConfig {
        predicate_dist: PredicateDistribution::Uniform,
        ..WorkloadConfig::with_rows(1 << 16)
    });
    let thresholds = |w: &Workload| (w.cal_a.threshold(0.5), w.cal_b.threshold(1.0 / 16.0));
    let (ta, tb) = thresholds(&w);
    let mdam = |w: &Workload| {
        let (ta, tb) = thresholds(w);
        PlanSpec::Mdam {
            index: w.indexes.ab,
            col_ranges: vec![(i64::MIN, ta), (i64::MIN, tb)],
            project: Projection::All,
        }
    };
    // Slot 0 of every page tombstoned: no page is as appending wrote it,
    // so every page is read through its slot directory.
    let mut tombstoned = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let heap = &mut tombstoned.db.table_mut(tombstoned.table).heap;
    for page in 0..heap.page_count() {
        heap.delete(Rid::new(page, 0)).expect("a live slot 0");
    }
    let two_terms = |w: &Workload| PlanSpec::TableScan {
        table: w.table,
        pred: Predicate::all_of(vec![ColRange::at_most(0, ta), ColRange::at_most(1, tb)]),
        project: Projection::Columns(vec![2]),
    };
    let mut group = c.benchmark_group("scan");
    group.sample_size(20);
    // A read root: the rows are gathered into batches, as every scan under
    // a join, sort or aggregation gathers them.
    group.bench_function("table_scan_read_64k", |b| {
        let plan = PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(0, ta)),
            project: Projection::Columns(vec![2, 0]),
        };
        b.iter(|| {
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            let mut sum = 0i64;
            run(&plan, &ctx, None, &mut |batch| sum = sum.wrapping_add(batch.col(0)[0])).unwrap();
            sum
        })
    });
    for (name, w, plan) in [
        ("table_scan_64k", &w, two_terms(&w)),
        ("table_scan_tombstoned_64k", &tombstoned, two_terms(&tombstoned)),
        (
            "covering_residual_64k",
            &w,
            PlanSpec::CoveringIndexScan {
                scan: IndexRangeSpec { index: w.indexes.ab, range: KeyRange::full(2) },
                residual: Predicate::single(ColRange::at_most(1, tb)),
                project: Projection::All,
            },
        ),
        ("mdam_64k", &w, mdam(&w)),
        ("mdam_dup_prefix_64k", &dup, mdam(&dup)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let s = Session::with_pool_pages(256);
                let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                run_count(&plan, &ctx, None).unwrap().rows_out
            })
        });
    }
    group.finish();
}

fn bench_sort_modes(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    // A quarter of the table under a 128 KiB grant (a single merge), and
    // all 2^16 rows under 4 KiB: far more runs than one 64-way merge takes.
    for (name, mode, sel, memory_bytes) in [
        ("abrupt", SpillMode::Abrupt, 0.25, 1 << 17),
        ("graceful", SpillMode::Graceful, 0.25, 1 << 17),
        ("abrupt_multipass_64k", SpillMode::Abrupt, 1.0, 4096),
        ("graceful_multipass_64k", SpillMode::Graceful, 1.0, 4096),
    ] {
        let plan = PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(0, w.cal_a.threshold(sel))),
                project: Projection::Columns(vec![2]),
            }),
            key_cols: vec![0],
            mode,
            memory_bytes,
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let s = Session::with_pool_pages(256);
                let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                run_count(&plan, &ctx, None).unwrap().rows_out
            })
        });
    }
    group.finish();
}

/// The blocking operators' own batch push over all 2^17 rows of the
/// benchmark's table: replacement selection at windows of 51, 3 276 and
/// 52 428 rows (grants of 4 KiB, 256 KiB and 4 MiB — the sort maps' ends
/// and the grant a sort-merge join's inputs get) and with a grant the input
/// fits, where no window is ever built; hash aggregation into one group
/// per row, with a grant that holds every group and with one that holds
/// 2 048 of them and spills the rest.
fn bench_blocking_push(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 17));
    let input = || {
        Box::new(PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::always_true(),
            project: Projection::Columns(vec![2, 0]),
        })
    };
    let sort = |mode, memory_bytes| PlanSpec::Sort {
        input: input(),
        key_cols: vec![0],
        mode,
        memory_bytes,
    };
    let agg = |memory_bytes| PlanSpec::HashAgg {
        input: input(),
        group_cols: vec![0],
        aggs: vec![AggFn::CountStar],
        mode: SpillMode::Graceful,
        memory_bytes,
    };
    for (group, name, plan) in [
        ("sort", "graceful_window_51_128k", sort(SpillMode::Graceful, 4 << 10)),
        ("sort", "graceful_window_3276_128k", sort(SpillMode::Graceful, 256 << 10)),
        ("sort", "graceful_window_52k_128k", sort(SpillMode::Graceful, 4 << 20)),
        ("sort", "graceful_fits_128k", sort(SpillMode::Graceful, 16 << 20)),
        // Three runs merged; counted, so the final pass orders nothing.
        ("sort", "abrupt_root_count_128k", sort(SpillMode::Abrupt, 4 << 20)),
        ("agg", "hash_unique_128k", agg(64 << 20)),
        ("agg", "hash_spill_128k", agg(256 << 10)),
    ] {
        let mut group = c.benchmark_group(group);
        group.sample_size(10);
        group.bench_function(name, |b| {
            b.iter(|| {
                let s = Session::with_pool_pages(256);
                let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                run_count(&plan, &ctx, None).unwrap().rows_out
            })
        });
        group.finish();
    }
    // The same rows handed to a sorter whole at the same 256 KiB grant — a
    // sort-merge join's input at its half-grant: the rank window, with the
    // scan that materialises the input outside the measurement.
    let scan = input();
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    group.bench_function("sort_all_128k", |b| {
        b.iter_batched(
            || {
                let s = Session::with_pool_pages(256);
                let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                let mut rows = PackedRows::default();
                run(&scan, &ctx, None, &mut |batch| rows.extend_from_batch(batch)).unwrap();
                rows
            },
            |rows| {
                let s = Session::with_pool_pages(256);
                let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                ExternalSorter::new(&ctx, vec![0], SpillMode::Graceful, 256 << 10).sort_all(rows).rows.len()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The blocking edges: both inputs of a sort-merge join materialised,
/// sorted and merged (2^16 x 2^16 rows, 1:1 on `c`), and one input
/// materialised on its own — a scan's batches transposed into packed rows,
/// which is all `exec::materialise` does.
fn bench_blocking_edges(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let side = |col: usize| PlanSpec::TableScan {
        table: w.table,
        pred: Predicate::always_true(),
        project: Projection::Columns(vec![2, col]),
    };
    let join = PlanSpec::Join {
        left: Box::new(side(0)),
        right: Box::new(side(1)),
        left_key: 0,
        right_key: 0,
        algo: JoinAlgo::SortMerge,
        memory_bytes: 4 << 20,
        project: Projection::All,
    };
    let mut group = c.benchmark_group("join");
    group.sample_size(10);
    group.bench_function("sort_merge_64k", |b| {
        b.iter(|| {
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            run_count(&join, &ctx, None).unwrap().rows_out
        })
    });
    group.finish();
    let mut group = c.benchmark_group("exec");
    group.sample_size(10);
    let input = side(0);
    group.bench_function("materialise_64k", |b| {
        b.iter(|| {
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            let mut rows = PackedRows::default();
            run(&input, &ctx, None, &mut |batch| rows.extend_from_batch(batch)).unwrap();
            rows
        })
    });
    group.finish();
}

/// The 15-plan catalog at the serving point (0.15, 0.4), every plan run
/// once an iteration: counted, as a map cell runs it, and read, its rows
/// collected.
fn bench_catalog(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let specs: Vec<PlanSpec> = SystemId::all()
        .into_iter()
        .flat_map(|s| two_predicate_plans(s, &w))
        .map(|p| p.build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4)))
        .collect();
    let mut group = c.benchmark_group("exec");
    group.sample_size(10);
    group.bench_function("catalog_count_64k", |b| {
        b.iter(|| {
            let s = Session::with_pool_pages(1024);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            let count = |spec| run_count(spec, &ctx, None).unwrap().rows_out;
            specs.iter().map(count).sum::<u64>()
        })
    });
    group.bench_function("catalog_read_64k", |b| {
        b.iter(|| {
            let s = Session::with_pool_pages(1024);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            let read = |spec| run_collect(spec, &ctx, None).unwrap().1.len();
            specs.iter().map(read).sum::<usize>()
        })
    });
    group.finish();
}

/// The 15-plan catalog at one selectivity point, repeated to the
/// concurrency level as `ext_concurrency` builds its bursts, served over a
/// pool that holds the whole table.
fn bench_serve(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let specs: Vec<PlanSpec> = SystemId::all()
        .into_iter()
        .flat_map(|s| two_predicate_plans(s, &w))
        .map(|p| p.build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4)))
        .collect();
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    for (name, level, quantum) in [
        ("catalog_l64_q1024", 64usize, 1024u64),
        ("catalog_l64_q0", 64, 0),
        ("catalog_l1_q1024", 1, 1024),
    ] {
        let len = specs.len() * level.div_ceil(specs.len());
        let burst: Vec<PlanSpec> = (0..len).map(|j| specs[j % specs.len()].clone()).collect();
        let cfg = ServeConfig {
            pool_pages: w.heap_pages() as usize * 2,
            quantum,
            admission: AdmissionConfig { max_in_flight: level, ..AdmissionConfig::default() },
            ..ServeConfig::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| serve_concurrent(&w.db, &burst, &cfg).completion_order.len())
        });
    }
    group.finish();
}

fn bench_map_builder(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 14));
    let plans = two_predicate_plans(SystemId::A, &w);
    let mut group = c.benchmark_group("map_builder");
    group.sample_size(10);
    group.bench_function("system_a_9x9", |b| {
        b.iter_batched(
            || Grid2D::pow2(8),
            |grid| build_map2d(&w, &plans, &grid, &MeasureConfig::default()),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// One set-up round, step by step, on a configuration no other target
/// uses (its cache file is this group's own, and is removed at the end).
fn bench_setup(c: &mut Criterion) {
    let config = WorkloadConfig { seed: 0x5E70_B001, ..WorkloadConfig::with_rows(1 << 17) };
    let w = TableBuilder::build(config.clone());
    let mut group = c.benchmark_group("setup");
    group.sample_size(10);
    group.bench_function("build_128k", |b| b.iter(|| TableBuilder::build(config.clone())));
    group.bench_function("store_128k", |b| b.iter(|| cache::store(&w)));
    group.bench_function("load_128k", |b| b.iter(|| cache::load(&config).map(|w| w.rows())));
    group.finish();
    if let Some(path) = cache::cache_path(&config) {
        let _ = std::fs::remove_file(path);
    }
}

criterion_group!(
    benches,
    bench_setup,
    bench_btree,
    bench_pool,
    bench_ridset,
    bench_fetch_disciplines,
    bench_scan_kernels,
    bench_sort_modes,
    bench_blocking_push,
    bench_blocking_edges,
    bench_catalog,
    bench_serve,
    bench_map_builder
);
criterion_main!(benches);
