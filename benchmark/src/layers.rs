//! The per-layer ledger: small probes that time calls into each layer's
//! public functions on one probe table, the same in every traced run.
//!
//! Each probe is a handful of milliseconds of one layer's work, repeated
//! and reported as a median, so the ledger says which layer a change
//! moved.  The end-to-end workloads say whether that mattered.

use std::sync::Arc;
use std::time::Instant;

use robustmap_core::{
    build_map1d, build_map2d, Grid1D, Grid2D, MeasureConfig, Measurement, ServeConfig, SweepArena,
};
use robustmap_executor::{
    ColRange, FetchKind, ImprovedFetchConfig, IndexRangeSpec, IntersectAlgo, JoinAlgo, KeyRange,
    PlanSpec, Predicate, Projection, SpillMode,
};
use robustmap_obs::{TraceDetail, TraceSink};
use robustmap_storage::{AccessKind, CostModel, Key, Rid, Session};
use robustmap_systems::choice::Joint;
use robustmap_systems::{
    single_predicate_plans, CatalogStats, ChoicePolicy, Chooser, Maintained, RobustConfig,
    SinglePredPlanSet,
};
use robustmap_workload::{
    JointHistogram, JointHistogramConfig, MaintainedJoint, Workload, COL_A, COL_B,
};

use crate::env::{splitmix, CpuSet};
use crate::report::Metrics;
use crate::spans::{Layer, Recorder, Span};
use crate::stats::{highest_supported_percentile, median};
use crate::workloads::blocking_atlas::{agg_plan, join_plan, sort_plan};
use crate::workloads::churn_choice::{decide_all, Churn, CHURN_BATCHES};
use crate::workloads::scan_atlas::{analyse, catalog, render};
use crate::workloads::serve_burst::{burst_for, serve_config, serve_watched, LEVELS, SEL_A, SEL_B};
use crate::workloads::{grid_specs, measure_config, sweep, sweep_threads};

/// Rows of the probe table.
pub const ROWS: u64 = 1 << 16;

/// Repetitions a timed probe takes its median over.
const REPS: usize = 3;

/// Median seconds of `REPS` runs of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Run `f` with the calling thread — and whatever it spawns meanwhile —
/// pinned to one CPU, as `serve_burst` runs: the scheduler's handoffs are
/// ten times dearer and far less steady across CPUs.
pub fn pinned<T>(original: &CpuSet, f: impl FnOnce() -> T) -> Result<T, String> {
    let one = original.last_only().ok_or("empty affinity mask")?;
    one.apply()?;
    let out = f();
    original.apply()?;
    Ok(out)
}

/// Every per-layer metric that is measured on the probe table.  `w` is
/// consumed: the write-path probes mutate it last.
pub fn probe_all(
    mut w: Workload,
    rec: &Recorder,
    affinity: &CpuSet,
    m: &mut Metrics,
) -> Result<(), String> {
    let _span = rec.enter(Layer::Driver, "layer probes");
    executor(&w, rec, m);
    storage_reads(&w, rec, m);
    core_measure(&w, rec, m);
    systems_and_stats(&w, rec, m);
    let shared = Arc::new(w);
    core_serve(&shared, rec, affinity, m)?;
    w = Arc::try_unwrap(shared).map_err(|_| "a served burst still holds the probe table")?;
    writes(&mut w, rec, m);
    Ok(())
}

// ------------------------------------------------------------- executor

/// One-family plans at selectivity 1/16 and 1, measured on one thread.
/// Throughput is modelled `cpu_rows` per host second: the rows the
/// operator is charged for, over the real time it took to process them.
fn executor(w: &Workload, rec: &Recorder, m: &mut Metrics) {
    let _span = rec.enter(Layer::Executor, "executor probes");
    let idx = w.indexes;
    let improved = FetchKind::Improved(ImprovedFetchConfig::default());
    let big = 64 << 20;
    let small = 64 << 10;
    let at = |sel: f64| (w.cal_a.threshold(sel), w.cal_b.threshold(sel));
    let on_a = |ta: i64| IndexRangeSpec {
        index: idx.a,
        range: KeyRange::on_leading(i64::MIN, ta, 1),
    };
    let fetch = |ta: i64, kind: FetchKind| PlanSpec::IndexFetch {
        scan: on_a(ta),
        key_filter: Predicate::always_true(),
        fetch: kind,
        residual: Predicate::always_true(),
        project: Projection::All,
    };
    type Family<'a> = (&'static str, Box<dyn Fn(f64) -> PlanSpec + 'a>);
    let families: Vec<Family<'_>> = vec![
        (
            "executor.table_scan_rows_per_s",
            Box::new(|s| PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(COL_A, at(s).0)),
                project: Projection::All,
            }),
        ),
        (
            "executor.index_fetch_traditional_rows_per_s",
            Box::new(|s| fetch(at(s).0, FetchKind::Traditional)),
        ),
        (
            "executor.index_fetch_improved_rows_per_s",
            Box::new(|s| fetch(at(s).0, improved)),
        ),
        (
            "executor.index_fetch_bitmap_rows_per_s",
            Box::new(|s| fetch(at(s).0, FetchKind::BitmapSorted)),
        ),
        (
            "executor.covering_scan_rows_per_s",
            Box::new(|s| PlanSpec::CoveringIndexScan {
                scan: IndexRangeSpec {
                    index: idx.ab,
                    range: KeyRange::on_leading(i64::MIN, at(s).0, 2),
                },
                residual: Predicate::always_true(),
                project: Projection::All,
            }),
        ),
        (
            "executor.mdam_rows_per_s",
            Box::new(|s| PlanSpec::Mdam {
                index: idx.ab,
                col_ranges: vec![(i64::MIN, at(s).0), (i64::MIN, at(0.5).1)],
                project: Projection::All,
            }),
        ),
        (
            "executor.index_intersect_rows_per_s",
            Box::new(|s| PlanSpec::IndexIntersect {
                left: on_a(at(s).0),
                right: IndexRangeSpec {
                    index: idx.b,
                    range: KeyRange::on_leading(i64::MIN, at(0.5).1, 1),
                },
                algo: IntersectAlgo::MergeJoin,
                fetch: improved,
                residual: Predicate::always_true(),
                project: Projection::All,
            }),
        ),
        (
            "executor.parallel_scan_rows_per_s",
            Box::new(|s| PlanSpec::ParallelTableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(COL_A, at(s).0)),
                project: Projection::All,
                dop: 4,
                skew_permille: 0,
            }),
        ),
        (
            "executor.sort_inmem_rows_per_s",
            Box::new(|s| sort_plan(w, at(s).0, SpillMode::Graceful, big)),
        ),
        (
            "executor.sort_spill_rows_per_s",
            Box::new(|s| sort_plan(w, at(s).0, SpillMode::Abrupt, small)),
        ),
        (
            "executor.hash_join_rows_per_s",
            Box::new(|s| {
                join_plan(
                    w,
                    at(s).0,
                    at(s).1,
                    JoinAlgo::Hash { build_left: true },
                    big,
                )
            }),
        ),
        (
            "executor.merge_join_rows_per_s",
            Box::new(|s| join_plan(w, at(s).0, at(s).1, JoinAlgo::SortMerge, big)),
        ),
        (
            "executor.hash_agg_rows_per_s",
            Box::new(|s| agg_plan(w, at(s).0, big)),
        ),
    ];
    let cfg = MeasureConfig {
        threads: 1,
        ..MeasureConfig::default()
    };
    let mut arena = SweepArena::new(&cfg);
    let mut sim_cpu_rows = 0u64;
    for (name, build) in &families {
        let specs = [build(1.0 / 16.0), build(1.0)];
        let mut rows_once = 0u64;
        let rates: Vec<f64> = (0..REPS)
            .map(|_| {
                let _s = rec.enter(Layer::Executor, "SweepArena::measure");
                let t0 = Instant::now();
                rows_once = specs
                    .iter()
                    .map(|s| arena.measure(&w.db, s).io.cpu_rows)
                    .sum();
                rows_once as f64 / t0.elapsed().as_secs_f64()
            })
            .collect();
        sim_cpu_rows += rows_once;
        m.set(name, median(&rates));
    }
    m.set("executor.sim_cpu_rows", sim_cpu_rows as f64);
}

// -------------------------------------------------------------- storage

fn storage_reads(w: &Workload, rec: &Recorder, m: &mut Metrics) {
    let _span = rec.enter(Layer::Storage, "storage read probes");
    let tree = &w.db.index(w.indexes.a).tree;
    let heap = &w.db.table(w.table).heap;
    let session = Session::with_pool_pages(1024);

    const LOOKUPS: u64 = 100_000;
    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Storage, "BTree::get_first");
        let mut state = 7u64;
        let mut found = 0u64;
        for _ in 0..LOOKUPS {
            // Column `a` is a permutation of 0..rows: every key exists.
            let key = Key::single((splitmix(&mut state) % w.rows()) as i64);
            found += u64::from(tree.get_first(&key, &session).is_some());
        }
        assert_eq!(found, LOOKUPS, "a permutation column holds every key");
    });
    m.set("storage.btree_lookups_per_s", LOOKUPS as f64 / secs);

    const SCANS: u64 = 16;
    let (lo, hi) = (Key::padded_lo(&[], 1), Key::padded_hi(&[], 1));
    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Storage, "BTree::scan_range");
        for _ in 0..SCANS {
            let mut acc = 0u64;
            let n = tree.scan_range(&lo, &hi, &session, AccessKind::Sequential, |(_, rid)| {
                acc = acc.wrapping_add(rid.to_u64());
            });
            assert_eq!(n, tree.len());
            std::hint::black_box(acc);
        }
    });
    m.set(
        "storage.btree_scan_entries_per_s",
        (SCANS * tree.len()) as f64 / secs,
    );

    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Storage, "HeapFile::scan");
        for _ in 0..SCANS {
            let mut acc = 0i64;
            let n = heap.scan(&session, |_, row| acc = acc.wrapping_add(row.get(COL_B)));
            assert_eq!(n, w.rows());
            std::hint::black_box(acc);
        }
    });
    m.set(
        "storage.heap_scan_rows_per_s",
        (SCANS * w.rows()) as f64 / secs,
    );
}

/// The write path, on a table nobody reads afterwards: fresh B-tree
/// entries inserted and deleted again, then a half-table churn with
/// the statistics maintained batch by batch.
fn writes(w: &mut Workload, rec: &Recorder, m: &mut Metrics) {
    let _span = rec.enter(Layer::Storage, "write probes");
    const ENTRIES: u64 = 40_000;
    let rows = w.rows() as i64;
    let session = Session::with_pool_pages(1024);
    let index_a = w.indexes.a;
    let tree = &mut w.db.index_def_mut(index_a).tree;
    // Keys scattered through the existing domain, under rids no row has.
    let entry = |i: u64| {
        let mut state = i;
        let key = (splitmix(&mut state) % rows as u64) as i64;
        (Key::single(key), Rid::new(u32::MAX - 1, i as u32))
    };
    let before = tree.len();
    let t0 = Instant::now();
    {
        let _s = rec.enter(Layer::Storage, "BTree::insert+delete");
        for i in 0..ENTRIES {
            let (key, rid) = entry(i);
            assert!(tree.insert(key, rid, &session), "entry {i} is new");
        }
        for i in 0..ENTRIES {
            let (key, rid) = entry(i);
            assert!(tree.delete(key, rid, &session), "entry {i} was inserted");
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(tree.len(), before);
    m.set("storage.btree_write_ops_per_s", (2 * ENTRIES) as f64 / secs);

    let joint = JointHistogram::from_workload(w, &JointHistogramConfig::default());
    let mut maintained = MaintainedJoint::new(joint);
    let mut maint_us = Vec::new();
    let mut rows_applied = 0u64;
    let mut churn = Churn::new(w, rec);
    let t0 = Instant::now();
    for _ in 0..CHURN_BATCHES {
        let batch = churn.apply_batch(w, rec);
        let _s = rec.enter(Layer::Workload, "MaintainedJoint::apply");
        let t = Instant::now();
        maintained.apply(&batch);
        maint_us.push(t.elapsed().as_secs_f64() * 1e6);
        rows_applied += batch.rows_applied;
    }
    let churn_secs = t0.elapsed().as_secs_f64() - maint_us.iter().sum::<f64>() * 1e-6;
    m.set(
        "workload.churn_rows_per_s",
        rows_applied as f64 / churn_secs,
    );
    m.set("workload.stats_maint_us_per_batch", median(&maint_us));

    // Decisions from the maintained statistics need the churn to have run.
    let plans = catalog(w);
    let stats = CatalogStats::of(w);
    let model = CostModel::hdd_2009();
    let robust = ChoicePolicy::Robust(RobustConfig::default());
    let chooser = Chooser {
        plans: &plans,
        stats: &stats,
        model: &model,
        policy: robust,
    };
    let (ta, tb) = decision_axes(w);
    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Systems, "Chooser::choose");
        std::hint::black_box(decide_all(
            &chooser,
            &Maintained::new(&maintained),
            &ta,
            &tb,
        ));
    });
    m.set(
        "systems.choose_maintained_per_s",
        (ta.len() * tb.len()) as f64 / secs,
    );
}

// ----------------------------------------------------------------- core

/// Cell spans of one traced sweep, as milliseconds.
fn cell_ms(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == Layer::Executor && s.tag.is_some())
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

fn core_measure(w: &Workload, rec: &Recorder, m: &mut Metrics) {
    let _span = rec.enter(Layer::Core, "core.measure probes");
    let plans = catalog(w);
    let grid = Grid2D::pow2(8);
    let cfg = measure_config(sweep_threads());
    let cells = (plans.len() * grid.cells()) as f64;

    // The sweep engine as the figures use it, with the CPU it burned.
    let mut map = None;
    let mut requests_per_cpu_s = Vec::new();
    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Core, "build_map2d");
        let cpu0 = crate::env::process_cpu_seconds();
        let built = build_map2d(w, &plans, &grid, &cfg);
        let cpu = crate::env::process_cpu_seconds() - cpu0;
        let requests: u64 = (0..built.plan_count())
            .flat_map(|p| built.plan_grid(p).iter().map(|c| c.io.page_requests()))
            .sum();
        requests_per_cpu_s.push(requests as f64 / cpu);
        map = Some(built);
    });
    let map = map.expect("REPS > 0");
    m.set("core.measure.cells_per_s", cells / secs);
    m.set(
        "storage.page_requests_per_cpu_s",
        median(&requests_per_cpu_s),
    );

    // The same cells one at a time on one thread, each under a span of a
    // private recorder: the distribution of a cell's host time.
    let ta: Vec<i64> = grid.sel_a().iter().map(|&s| w.cal_a.threshold(s)).collect();
    let tb: Vec<i64> = grid.sel_b().iter().map(|&s| w.cal_b.threshold(s)).collect();
    let specs = grid_specs(&plans, &ta, &tb);
    let serial = MeasureConfig {
        threads: 1,
        ..cfg.clone()
    };
    let cell_rec = Recorder::new(true);
    let tag = |i: usize| plans[i / grid.cells()].name.clone();
    let one_by_one = {
        let _s = rec.enter(Layer::Core, "sweep (serial, per-cell spans)");
        sweep(&w.db, &specs, &tag, &serial, &cell_rec)
    };
    let same: Vec<Measurement> = (0..map.plan_count())
        .flat_map(|p| map.plan_grid(p).to_vec())
        .collect();
    assert!(
        one_by_one == same,
        "cell-by-cell sweep must equal build_map2d"
    );
    let samples = cell_ms(&cell_rec.spans());
    m.set("core.measure.cell_p50_ms", median(&samples));
    let (label, tail) = highest_supported_percentile(&samples).expect("over a thousand cells");
    assert_eq!(
        label,
        "p99",
        "{} cell samples support exactly p99",
        samples.len()
    );
    m.set("core.measure.cell_p99_ms", tail);

    // A plan over an empty key range: arena reset, dispatch, one descent.
    let empty = PlanSpec::CoveringIndexScan {
        scan: IndexRangeSpec {
            index: w.indexes.a,
            range: KeyRange::on_leading(i64::MIN, i64::MIN, 1),
        },
        residual: Predicate::always_true(),
        project: Projection::All,
    };
    const EMPTY_CELLS: u32 = 20_000;
    let mut arena = SweepArena::new(&serial);
    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Core, "SweepArena::measure (empty range)");
        for _ in 0..EMPTY_CELLS {
            assert_eq!(arena.measure(&w.db, &empty).rows, 0);
        }
    });
    m.set(
        "core.measure.cell_overhead_us",
        secs * 1e6 / f64::from(EMPTY_CELLS),
    );

    // One thread against all sweep threads on the Figure 1 map.
    let basic = single_predicate_plans(SinglePredPlanSet::Basic, w);
    let grid1 = Grid1D::pow2(16);
    let t1 = median_secs(|| {
        let _s = rec.enter(Layer::Core, "build_map1d (1 thread)");
        std::hint::black_box(build_map1d(w, &basic, &grid1, &serial));
    });
    let mut map1 = None;
    let tn = median_secs(|| {
        let _s = rec.enter(Layer::Core, "build_map1d");
        map1 = Some(build_map1d(w, &basic, &grid1, &cfg));
    });
    m.set(
        "core.measure.parallel_efficiency",
        t1 / (sweep_threads() as f64 * tn),
    );

    let map1 = map1.expect("REPS > 0");
    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Core, "analysis");
        std::hint::black_box(analyse(&map, &map1));
    });
    m.set("core.analysis_s", secs);
    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Core, "render");
        std::hint::black_box(render(&map, &map1));
    });
    m.set("core.render_s", secs);
}

/// Baton slices of a served burst: every query's yields plus its last
/// slice.  A pure function of the burst and the quantum.
fn handoffs(report: &robustmap_core::ServeReport) -> u64 {
    report.queries.iter().map(|q| q.yields + 1).sum()
}

/// Median wall seconds and the slice count of `burst` served under `cfg`.
fn serve_timed(
    w: &Arc<Workload>,
    burst: &[PlanSpec],
    cfg: &ServeConfig,
    reps: usize,
    rec: &Recorder,
) -> Result<(f64, u64), String> {
    let mut slices = 0;
    let mut walls = Vec::new();
    for _ in 0..reps {
        let _s = rec.enter(Layer::Core, "serve_concurrent");
        let t0 = Instant::now();
        let report = serve_watched(w, burst.to_vec(), cfg.clone())?;
        walls.push(t0.elapsed().as_secs_f64());
        slices = handoffs(&report);
    }
    Ok((median(&walls), slices))
}

/// Microseconds per baton handoff: the extra wall time of slicing a burst
/// every 1024 charges over running each query to completion, per extra
/// slice.  The executor work is the same in both, so it cancels.
fn handoff_us(
    w: &Arc<Workload>,
    burst: &[PlanSpec],
    cfg: &ServeConfig,
    reps: usize,
    rec: &Recorder,
) -> Result<(f64, u64), String> {
    let (sliced_wall, sliced) = serve_timed(w, burst, cfg, reps, rec)?;
    let unsliced_cfg = ServeConfig {
        quantum: 0,
        ..cfg.clone()
    };
    let (whole_wall, whole) = serve_timed(w, burst, &unsliced_cfg, reps, rec)?;
    let extra = sliced.saturating_sub(whole).max(1);
    Ok((
        (sliced_wall - whole_wall).max(0.0) * 1e6 / extra as f64,
        sliced,
    ))
}

fn core_serve(
    w: &Arc<Workload>,
    rec: &Recorder,
    affinity: &CpuSet,
    m: &mut Metrics,
) -> Result<(), String> {
    let _span = rec.enter(Layer::Core, "core.serve probes");
    let (ta, tb) = (w.cal_a.threshold(SEL_A), w.cal_b.threshold(SEL_B));
    let specs: Vec<PlanSpec> = catalog(w).iter().map(|p| p.build(ta, tb)).collect();
    let fit_pool = w.heap_pages() as usize * 2;

    pinned(affinity, || -> Result<(), String> {
        const RATE_NAMES: [&str; 4] = [
            "core.serve.queries_per_s_c1",
            "core.serve.queries_per_s_c8",
            "core.serve.queries_per_s_c64",
            "core.serve.queries_per_s_c256",
        ];
        for (name, level) in RATE_NAMES.into_iter().zip(LEVELS) {
            let burst = burst_for(&specs, level);
            let (wall, _) = serve_timed(w, &burst, &serve_config(fit_pool, level), REPS, rec)?;
            m.set(name, burst.len() as f64 / wall);
        }
        let burst = burst_for(&specs, 64);
        let cfg = serve_config(fit_pool, 64);
        let (us, slices) = handoff_us(w, &burst, &cfg, REPS, rec)?;
        m.set("core.serve.handoff_us", us);
        m.set("core.serve.handoffs", slices as f64);

        // The cost of observation: the same burst with the program's own
        // trace sink attached, at both detail levels.
        let (plain, _) = serve_timed(w, &burst, &cfg, REPS, rec)?;
        for (name, detail) in [
            ("obs.spans_overhead_ratio", TraceDetail::Spans),
            ("obs.full_overhead_ratio", TraceDetail::Full),
        ] {
            let mut events = 0;
            let mut walls = Vec::new();
            for _ in 0..REPS {
                let sink = Arc::new(TraceSink::memory(detail));
                let traced = ServeConfig {
                    trace: Some(Arc::clone(&sink)),
                    ..cfg.clone()
                };
                let _s = rec.enter(Layer::Obs, "serve_concurrent (TraceSink::memory)");
                let t0 = Instant::now();
                serve_watched(w, burst.clone(), traced)?;
                walls.push(t0.elapsed().as_secs_f64());
                events = sink.event_count();
            }
            m.set(name, median(&walls) / plain);
            if detail == TraceDetail::Spans {
                m.set("obs.events_per_burst", events as f64);
            }
        }
        Ok(())
    })??;

    // What users without pinning pay: the same handoff across CPUs.  One
    // repetition of a small burst; informational, and slow by nature.
    let burst = burst_for(&specs, 8);
    let (us, _) = handoff_us(w, &burst, &serve_config(fit_pool, 8), 1, rec)?;
    m.set("core.serve.handoff_us_unpinned", us);
    Ok(())
}

// -------------------------------------------------- systems and workload

/// A 33 x 33 threshold grid, evenly spaced in selectivity.
fn decision_axes(w: &Workload) -> (Vec<i64>, Vec<i64>) {
    let sels = (1..=33).map(|i| f64::from(i) / 33.0);
    (
        sels.clone().map(|s| w.cal_a.threshold(s)).collect(),
        sels.map(|s| w.cal_b.threshold(s)).collect(),
    )
}

fn systems_and_stats(w: &Workload, rec: &Recorder, m: &mut Metrics) {
    let _span = rec.enter(Layer::Systems, "systems probes");
    let plans = catalog(w);
    let (ta, tb) = decision_axes(w);

    let builds = (plans.len() * ta.len() * tb.len()) as f64;
    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Systems, "TwoPredPlan::build");
        for p in &plans {
            for &a in &ta {
                for &b in &tb {
                    std::hint::black_box(p.build(a, b));
                }
            }
        }
    });
    m.set("systems.plan_build_us", secs * 1e6 / builds);

    let jcfg = JointHistogramConfig::default();
    let mut joint = None;
    let secs = median_secs(|| {
        let _s = rec.enter(Layer::Workload, "JointHistogram::from_workload");
        joint = Some(JointHistogram::from_workload(w, &jcfg));
    });
    m.set("workload.stats_build_s", secs);
    let joint = joint.expect("REPS > 0");

    let stats = CatalogStats::of(w);
    let model = CostModel::hdd_2009();
    let decisions = (ta.len() * tb.len()) as f64;
    for (name, policy) in [
        ("systems.choose_point_per_s", ChoicePolicy::Point),
        (
            "systems.choose_robust_per_s",
            ChoicePolicy::Robust(RobustConfig::default()),
        ),
    ] {
        let chooser = Chooser {
            plans: &plans,
            stats: &stats,
            model: &model,
            policy,
        };
        let secs = median_secs(|| {
            let _s = rec.enter(Layer::Systems, "Chooser::choose");
            std::hint::black_box(decide_all(&chooser, &Joint::new(&joint), &ta, &tb));
        });
        m.set(name, decisions / secs);
    }
}
