//! Criterion micro-benchmarks of the substrate: the structures and
//! operators whose (real) speed determines how large a robustness map one
//! can afford to sweep.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use robustmap_core::{build_map2d, Grid2D, MeasureConfig};
use robustmap_executor::{
    run_count, ColRange, ExecCtx, FetchKind, ImprovedFetchConfig, IndexRangeSpec, KeyRange,
    PlanSpec, Predicate, Projection, RunOpts, SpillMode,
};
use robustmap_storage::btree::{BTree, Key};
use robustmap_storage::heap::Rid;
use robustmap_storage::{FileId, RidBitmap, Session};
use robustmap_systems::{two_predicate_plans, SystemId};
use robustmap_workload::{TableBuilder, WorkloadConfig};

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    let entries: Vec<(Key, Rid)> =
        (0..100_000i64).map(|i| (Key::single(i), Rid::new((i / 200) as u32, (i % 200) as u32))).collect();
    group.bench_function("bulk_load_100k", |b| {
        b.iter(|| BTree::bulk_load(FileId(0), 1, &entries, 0.9))
    });
    let tree = BTree::bulk_load(FileId(0), 1, &entries, 0.9);
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
                robustmap_storage::AccessKind::Sequential,
                |_| n += 1,
            );
            n
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

fn bench_bitmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap");
    let a: RidBitmap = (0..200_000u64).filter(|x| x % 3 == 0).collect();
    let b_set: RidBitmap = (0..200_000u64).filter(|x| x % 5 == 0).collect();
    group.bench_function("and_200k", |bch| bch.iter(|| a.and(&b_set).count()));
    group.bench_function("iter_sorted", |bch| {
        bch.iter(|| a.iter().fold(0u64, |acc, x| acc.wrapping_add(x)))
    });
    group.finish();
}

fn bench_fetch_disciplines(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let t = w.cal_a.threshold(1.0 / 16.0);
    let mut group = c.benchmark_group("fetch");
    group.sample_size(20);
    for (name, fetch) in [
        ("traditional", FetchKind::Traditional),
        ("improved", FetchKind::Improved(ImprovedFetchConfig::default())),
        ("bitmap", FetchKind::BitmapSorted),
    ] {
        let plan = PlanSpec::IndexFetch {
            scan: IndexRangeSpec { index: w.indexes.a, range: KeyRange::on_leading(i64::MIN, t, 1) },
            key_filter: Predicate::always_true(),
            fetch,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let s = Session::with_pool_pages(256);
                let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                run_count(&plan, &ctx, RunOpts::default()).unwrap().rows_out
            })
        });
    }
    group.finish();
}

fn bench_sort_modes(c: &mut Criterion) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    for (name, mode) in [("abrupt", SpillMode::Abrupt), ("graceful", SpillMode::Graceful)] {
        let plan = PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(0, w.cal_a.threshold(0.25))),
                project: Projection::Columns(vec![2]),
            }),
            key_cols: vec![0],
            mode,
            memory_bytes: 1 << 17,
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let s = Session::with_pool_pages(256);
                let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                run_count(&plan, &ctx, RunOpts::default()).unwrap().rows_out
            })
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

criterion_group!(
    benches,
    bench_btree,
    bench_bitmap,
    bench_fetch_disciplines,
    bench_sort_modes,
    bench_map_builder
);
criterion_main!(benches);
