//! Integration: every plan the three systems offer must compute the same
//! query result — the robustness maps compare *costs* of equivalent plans,
//! so equivalence is the bedrock invariant.

use robustmap::executor::{run_collect, run_count, ExecCtx};
use robustmap::storage::Session;
use robustmap::systems::{
    single_predicate_plans, two_predicate_plans, SinglePredPlanSet, SystemId,
};
use robustmap::workload::gen::PredicateDistribution;
use robustmap::workload::{TableBuilder, Workload, WorkloadConfig};

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

#[test]
fn fifteen_two_predicate_plans_agree_across_the_grid() {
    let w = workload();
    let n = w.rows();
    // A 5x5 sub-grid including both extremes.
    let sels = [1.0 / 4096.0, 1.0 / 256.0, 1.0 / 16.0, 0.25, 1.0];
    for &sa in &sels {
        for &sb in &sels {
            let (ta, ca) = w.cal_a.threshold_with_count(sa);
            let (tb, cb) = w.cal_b.threshold_with_count(sb);
            assert_eq!(ca, (n as f64 * sa).round() as u64);
            assert_eq!(cb, (n as f64 * sb).round() as u64);
            let mut expected = None;
            for sys in SystemId::all() {
                for plan in two_predicate_plans(sys, &w) {
                    let s = Session::with_pool_pages(512);
                    let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                    let stats = run_count(&plan.build(ta, tb), &ctx, None).unwrap();
                    match expected {
                        None => expected = Some(stats.rows_out),
                        Some(e) => {
                            assert_eq!(stats.rows_out, e, "{} at ({sa},{sb})", plan.name)
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn single_predicate_plans_return_identical_row_sets() {
    let w = workload();
    for sel in [1.0 / 1024.0, 1.0 / 8.0, 1.0] {
        let ta = w.cal_a.threshold(sel);
        let mut reference: Option<Vec<Vec<i64>>> = None;
        for plan in single_predicate_plans(SinglePredPlanSet::WithIndexJoins, &w) {
            let s = Session::with_pool_pages(512);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            let (_, rows) = run_collect(&plan.build(ta), &ctx, None).unwrap();
            let mut rows: Vec<Vec<i64>> = rows.iter().map(|r| r.values().to_vec()).collect();
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(want) => assert_eq!(&rows, want, "{} at sel {sel}", plan.name),
            }
        }
        // And the reference matches a direct heap filter.
        let s = Session::with_pool_pages(0);
        let mut truth: Vec<Vec<i64>> = Vec::new();
        w.db.table(w.table).heap.scan(&s, |_, row| {
            if row.get(robustmap::workload::COL_A) <= ta {
                truth.push(vec![
                    row.get(robustmap::workload::COL_A),
                    row.get(robustmap::workload::COL_C),
                ]);
            }
        });
        truth.sort();
        assert_eq!(reference.unwrap(), truth);
    }
}

#[test]
fn results_are_insensitive_to_buffer_pool_and_memory() {
    // Run-time conditions change costs, never results.
    let w = workload();
    let (ta, tb) = (w.cal_a.threshold(0.25), w.cal_b.threshold(0.5));
    for sys in SystemId::all() {
        for plan in two_predicate_plans(sys, &w) {
            let mut counts = Vec::new();
            for (pool, memory) in [(0usize, 4096usize), (64, 1 << 14), (4096, 1 << 24)] {
                let s = Session::with_pool_pages(pool);
                let ctx = ExecCtx::new(&w.db, &s, memory);
                counts.push(run_count(&plan.build(ta, tb), &ctx, None).unwrap().rows_out);
            }
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{}: counts varied with run-time conditions: {counts:?}",
                plan.name
            );
        }
    }
}

#[test]
fn empty_and_full_selectivity_edges() {
    let w = workload();
    for sys in SystemId::all() {
        for plan in two_predicate_plans(sys, &w) {
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            // Empty: a-threshold below every value.
            let stats = run_count(&plan.build(i64::MIN, i64::MAX), &ctx, None).unwrap();
            assert_eq!(stats.rows_out, 0, "{} not empty", plan.name);
            // Full: both thresholds above every value.
            let ctx2 = ExecCtx::new(&w.db, &s, 1 << 22);
            let stats = run_count(&plan.build(i64::MAX, i64::MAX), &ctx2, None).unwrap();
            assert_eq!(stats.rows_out, w.rows(), "{} not full", plan.name);
        }
    }
}

/// The headline tables are permutations: every prefix of the two-column
/// indexes is distinct, MDAM's probe always lands on the very next entry
/// and its seek never runs.  Over a uniform table (sixteen rows a value)
/// and a Zipf one (4096 values, a few of them most of the table) a prefix
/// outlasts the probe window, so the skip is a root-to-leaf seek — and
/// either way both MDAM plans return the rows the covering scan with a
/// residual returns, which are the table scan's.
#[test]
fn mdam_agrees_with_the_scans_when_prefixes_repeat() {
    for dist in [PredicateDistribution::Uniform, PredicateDistribution::ZipfHundredths(110)] {
        let config = WorkloadConfig { predicate_dist: dist, ..WorkloadConfig::with_rows(1 << 13) };
        let w = TableBuilder::build_cached(config);
        let plans = two_predicate_plans(SystemId::C, &w);
        let table_scan = &two_predicate_plans(SystemId::A, &w)[0];
        assert!(table_scan.name.starts_with("A1") && plans[3].name.starts_with("C4"));
        // Every plan's rows as sorted `(a, b)` pairs; `swapped` for the
        // plans over the `(b, a)` index.
        let pairs = |plan: &robustmap::systems::TwoPredPlan, ta, tb, swapped: bool| {
            let s = Session::with_pool_pages(0);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            let (stats, rows) = run_collect(&plan.build(ta, tb), &ctx, None).unwrap();
            let mut pairs: Vec<(i64, i64)> =
                rows.iter().map(|r| if swapped { (r.get(1), r.get(0)) } else { (r.get(0), r.get(1)) }).collect();
            pairs.sort_unstable();
            (pairs, stats.io.random_reads)
        };
        // Thresholds drawn from the values the table holds, a fixed
        // pseudo-random walk over its rows.
        let mut values = Vec::new();
        let quiet = Session::with_pool_pages(0);
        w.db.table(w.table).heap.scan(&quiet, |_, row| values.push((row.get(0), row.get(1))));
        let mut seeks_paid = 0;
        let mut at = 1usize;
        for _ in 0..12 {
            at = (at * 2_654_435_761 + 12_345) % values.len();
            let (ta, tb) = (values[at].0, values[(at * 7 + 3) % values.len()].1);
            let (want, _) = pairs(table_scan, ta, tb, false);
            for (mdam, covering, swapped) in [(&plans[0], &plans[2], false), (&plans[1], &plans[3], true)] {
                let label = format!("{dist:?} {} at ({ta}, {tb})", mdam.name);
                let (got, descents) = pairs(mdam, ta, tb, swapped);
                assert_eq!(got, pairs(covering, ta, tb, swapped).0, "{label}: vs the covering scan");
                assert_eq!(got, want, "{label}: vs the table scan");
                // A cold pool reads every node a descent visits: more
                // random reads than one descent means a skip was a seek.
                let height = w.db.index(if swapped { w.indexes.ba } else { w.indexes.ab }).tree.height();
                seeks_paid += u64::from(descents > u64::from(height));
            }
        }
        assert!(seeks_paid > 0, "{dist:?}: no MDAM run paid a seek; the test misses its path");
    }
}
