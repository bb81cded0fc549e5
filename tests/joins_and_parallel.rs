//! Integration: the general join operators and the parallel scan, composed
//! through full plans against the standard workload — the substrate behind
//! the `ext_join` and `ext_parallel` robustness maps.

use robustmap::core::{measure_plan, MeasureConfig};
use robustmap::executor::{
    run_collect, ColRange, ExecCtx, JoinAlgo, PlanSpec, Predicate, Projection,
};
use robustmap::storage::Session;
use robustmap::workload::{TableBuilder, Workload, WorkloadConfig, COL_A, COL_B, COL_C};

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

/// R(c, a) = rows with a <= ta; S(c, b) = rows with b <= tb; join on c.
/// `c` is a permutation, so the join is 1:1 where both predicates hold.
fn join_plan(w: &Workload, ta: i64, tb: i64, algo: JoinAlgo, memory: usize) -> PlanSpec {
    PlanSpec::Join {
        left: Box::new(PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(COL_A, ta)),
            project: Projection::Columns(vec![COL_C, COL_A]),
        }),
        right: Box::new(PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(COL_B, tb)),
            project: Projection::Columns(vec![COL_C, COL_B]),
        }),
        left_key: 0,
        right_key: 0,
        algo,
        memory_bytes: memory,
        project: Projection::All,
    }
}

fn reference_join(w: &Workload, ta: i64, tb: i64) -> Vec<Vec<i64>> {
    let s = Session::with_pool_pages(0);
    let mut out = Vec::new();
    w.db.table(w.table).heap.scan(&s, |_, row| {
        // Self-join on the permutation column c: a row matches itself.
        if row.get(COL_A) <= ta && row.get(COL_B) <= tb {
            out.push(vec![row.get(COL_C), row.get(COL_A), row.get(COL_C), row.get(COL_B)]);
        }
    });
    out.sort();
    out
}

#[test]
fn all_join_algorithms_agree_with_reference() {
    let w = workload();
    for (sa, sb) in [(0.25, 0.5), (1.0, 0.05), (0.01, 1.0)] {
        let ta = w.cal_a.threshold(sa);
        let tb = w.cal_b.threshold(sb);
        let want = reference_join(&w, ta, tb);
        for algo in [
            JoinAlgo::SortMerge,
            JoinAlgo::Hash { build_left: true },
            JoinAlgo::Hash { build_left: false },
        ] {
            for memory in [4096usize, 1 << 22] {
                let s = Session::with_pool_pages(256);
                let ctx = ExecCtx::new(&w.db, &s, memory);
                let plan = join_plan(&w, ta, tb, algo, memory);
                let (_, rows) = run_collect(&plan, &ctx, None).unwrap();
                let mut got: Vec<Vec<i64>> =
                    rows.iter().map(|r| r.values().to_vec()).collect();
                got.sort();
                assert_eq!(got, want, "{algo:?} with {memory}B at ({sa},{sb})");
            }
        }
    }
}

#[test]
fn hash_join_build_side_cliff_is_one_sided() {
    let w = workload();
    let memory = 64 * 1024;
    let (big, small) = (w.cal_a.threshold(1.0), w.cal_b.threshold(1.0 / 128.0));
    let cost = |algo| {
        measure_plan(
            &w.db,
            &join_plan(&w, big, small, algo, memory),
            &MeasureConfig { memory_bytes: memory, ..Default::default() },
        )
    };
    // Left input (a <= max) is large, right (b small) is tiny.
    let build_large = cost(JoinAlgo::Hash { build_left: true });
    let build_small = cost(JoinAlgo::Hash { build_left: false });
    assert!(build_large.spilled, "building the large side must spill");
    assert!(!build_small.spilled, "building the tiny side must not spill");
    assert!(
        build_large.seconds > build_small.seconds,
        "cliff: {} vs {}",
        build_large.seconds,
        build_small.seconds
    );
}

/// A grant of a few bytes asks for more grace partitions than there are
/// rows (2^20 here, against 2^14 at 64 B).  `c` is a permutation and the
/// partition hash a bijection on its low bits, so at all three grants every
/// row is alone in its partition and the charges have a closed form: one
/// page written per input row, read back from the pool.  The time must not follow the
/// partition count — the empty ones used to cost an allocation and a pool
/// sweep each, 40x the 64 B case at this size (3.7 s unoptimised).
#[test]
fn hash_join_with_a_grant_of_bytes_costs_what_its_rows_cost() {
    let w = workload();
    let all = (w.cal_a.threshold(1.0), w.cal_b.threshold(1.0));
    let n = w.rows();
    let run = |memory: usize| {
        let plan = join_plan(&w, all.0, all.1, JoinAlgo::Hash { build_left: true }, memory);
        let started = std::time::Instant::now();
        let s = Session::with_pool_pages(256);
        let ctx = ExecCtx::new(&w.db, &s, memory);
        let (_, rows) = run_collect(&plan, &ctx, None).unwrap();
        assert_eq!(rows.len() as u64, n, "{memory} B");
        (s.stats(), started.elapsed())
    };
    let (at_64, _) = run(64);
    assert_eq!(at_64.page_writes, 2 * n);
    assert_eq!(at_64.cpu_hashes, (n + n) + 2 * n + n);
    for memory in [0, 1] {
        let (stats, took) = run(memory);
        assert_eq!(stats, at_64, "{memory} B");
        assert!(took.as_secs_f64() < 2.0, "{memory} B grant took {took:?}");
    }
}

#[test]
fn sort_merge_join_cost_ignores_input_order() {
    let w = workload();
    let ta = w.cal_a.threshold(1.0 / 64.0);
    let tb = w.cal_b.threshold(0.5);
    let cfg = MeasureConfig::default();
    let c1 = measure_plan(&w.db, &join_plan(&w, ta, tb, JoinAlgo::SortMerge, 1 << 18), &cfg);
    // Swap the roles: join S with R instead.
    let swapped = PlanSpec::Join {
        left: Box::new(PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(COL_B, tb)),
            project: Projection::Columns(vec![COL_C, COL_B]),
        }),
        right: Box::new(PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(COL_A, ta)),
            project: Projection::Columns(vec![COL_C, COL_A]),
        }),
        left_key: 0,
        right_key: 0,
        algo: JoinAlgo::SortMerge,
        memory_bytes: 1 << 18,
        project: Projection::All,
    };
    let c2 = measure_plan(&w.db, &swapped, &cfg);
    assert_eq!(c1.rows, c2.rows);
    let ratio = c1.seconds / c2.seconds;
    assert!((0.95..=1.05).contains(&ratio), "sort-merge asymmetric: ratio {ratio:.3}");
}

#[test]
fn parallel_scan_plan_matches_serial_scan() {
    let w = workload();
    let t = w.cal_a.threshold(0.25);
    let serial = PlanSpec::TableScan {
        table: w.table,
        pred: Predicate::single(ColRange::at_most(COL_A, t)),
        project: Projection::Columns(vec![COL_C]),
    };
    let s = Session::with_pool_pages(256);
    let ctx = ExecCtx::new(&w.db, &s, 1 << 20);
    let (_, want) = run_collect(&serial, &ctx, None).unwrap();
    let mut want: Vec<i64> = want.iter().map(|r| r.get(0)).collect();
    want.sort_unstable();
    for (dop, skew) in [(1u32, 0u32), (4, 0), (8, 500), (16, 1000)] {
        let plan = PlanSpec::ParallelTableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(COL_A, t)),
            project: Projection::Columns(vec![COL_C]),
            dop,
            skew_permille: skew,
        };
        let s2 = Session::with_pool_pages(256);
        let ctx2 = ExecCtx::new(&w.db, &s2, 1 << 20);
        let (_, rows) = run_collect(&plan, &ctx2, None).unwrap();
        let mut got: Vec<i64> = rows.iter().map(|r| r.get(0)).collect();
        got.sort_unstable();
        assert_eq!(got, want, "dop {dop} skew {skew}");
    }
}

#[test]
fn parallel_speedup_is_monotone_in_dop() {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 16));
    let cfg = MeasureConfig::default();
    let elapsed = |dop| {
        let plan = PlanSpec::ParallelTableScan {
            table: w.table,
            pred: Predicate::always_true(),
            project: Projection::Columns(vec![COL_C]),
            dop,
            skew_permille: 0,
        };
        measure_plan(&w.db, &plan, &cfg).seconds
    };
    let times: Vec<f64> = [1u32, 2, 4, 8].iter().map(|&d| elapsed(d)).collect();
    for w in times.windows(2) {
        assert!(w[1] < w[0], "adding workers must not slow the scan: {times:?}");
    }
}
