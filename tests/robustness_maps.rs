//! Integration: structural invariants of 2-D robustness maps built from
//! real measurements, and the claims of Figures 4-10 at test scale — each
//! test asserts the suite of the claim function its figure gates on.

use robustmap::core::{
    build_map2d, Grid2D, Map2D, MeasureConfig, OptimalityTolerance, RegressionSuite, RelativeMap2D,
};
use robustmap::storage::CostModel;
use robustmap::systems::{two_predicate_plans, SystemId};
use robustmap::workload::{TableBuilder, WorkloadConfig};
use robustmap_bench::paper::{
    fig10_claims, fig4_claims, fig5_claims, fig7_claims, fig8_claims, fig9_claims, ClaimSetup,
};

/// The map of `systems`' plans over a `rows`-row table, and its setup.
fn build(
    rows: u64,
    systems: &[SystemId],
    grid_exp: u32,
    cfg: MeasureConfig,
) -> (Map2D, ClaimSetup) {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(rows));
    let plans: Vec<_> = systems.iter().flat_map(|&s| two_predicate_plans(s, &w)).collect();
    (build_map2d(&w, &plans, &Grid2D::pow2(grid_exp), &cfg), ClaimSetup::of(&w, &cfg))
}

/// A pool well below the heap size, as 2009 pools were against 60M-row
/// tables: the setup the paper's I/O effects need.
fn small_pool() -> MeasureConfig {
    MeasureConfig { pool_pages: 64, ..Default::default() }
}

/// Every claim of `suite` was evaluated and held.
fn holds(suite: &RegressionSuite) {
    let held = suite.not_evaluated.is_empty() && suite.results.iter().all(|r| r.passed);
    assert!(held, "{}", suite.report());
}

#[test]
fn relative_map_invariants() {
    let (map, _) = build(1 << 13, &SystemId::all(), 8, MeasureConfig::default());
    let rel = RelativeMap2D::from_map(&map);
    let (na, nb) = rel.dims();
    for p in 0..map.plan_count() {
        for &q in rel.quotient_grid(p) {
            assert!(q >= 1.0 - 1e-12, "quotient below 1: {q}");
            assert!(q.is_finite());
        }
    }
    // The best plan at each point has quotient exactly 1.
    for ia in 0..na {
        for ib in 0..nb {
            let best = rel.best_plan_at(ia, ib);
            assert!((rel.quotient(best, ia, ib) - 1.0).abs() < 1e-12);
        }
    }
    // Union of strict optimality regions covers the grid.
    let mut covered = vec![false; na * nb];
    for p in 0..map.plan_count() {
        let region = rel.optimal_region(p, OptimalityTolerance::Factor(1.0 + 1e-9));
        for ia in 0..na {
            for ib in 0..nb {
                if region.get(ia, ib) {
                    covered[ia * nb + ib] = true;
                }
            }
        }
    }
    assert!(covered.iter().all(|&c| c), "every point needs an optimal plan");
}

#[test]
fn figure4_shape_one_dimension_dominates() {
    // The fetch-I/O regimes must separate: reading the table dwarfs a
    // handful of random fetches, and the grid floor (2^-14 of 2^17 rows)
    // reaches a handful of fetches.
    let (map, setup) = build(1 << 17, &[SystemId::A], 14, small_pool());
    holds(&fig4_claims(&map, &setup));
}

#[test]
fn figure5_merge_join_is_symmetric_hash_is_less_so() {
    // The in-memory cost model isolates the CPU mechanism (a hash join
    // builds on one fixed side) from small-cell I/O granularity.
    let cfg = MeasureConfig { model: CostModel::in_memory(), ..Default::default() };
    let (map, setup) = build(1 << 14, &[SystemId::A], 8, cfg);
    holds(&fig5_claims(&map, &setup));
}

#[test]
fn figure7_worst_quotient_grows_with_table_size() {
    let system_a = |rows| build(rows, &[SystemId::A], 12, MeasureConfig::default()).0;
    holds(&fig7_claims(&[&system_a(1 << 15), &system_a(1 << 17)]));
}

#[test]
fn figure8_bitmap_plan_beats_figure7_plan_on_worst_case() {
    let (map, setup) = build(1 << 15, &[SystemId::A, SystemId::B], 8, small_pool());
    holds(&fig8_claims(&map, &setup));
}

#[test]
fn figure9_mdam_plan_is_reasonable_everywhere() {
    let (map, setup) = build(1 << 14, &[SystemId::C], 8, small_pool());
    holds(&fig9_claims(&map, &setup));
}

#[test]
fn figure10_most_points_have_multiple_optimal_plans() {
    holds(&fig10_claims(&build(1 << 13, &SystemId::all(), 8, MeasureConfig::default()).0));
}

#[test]
fn maps_are_deterministic_across_builds_and_thread_counts() {
    let build = |threads| {
        let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 12));
        let plans = two_predicate_plans(SystemId::A, &w);
        let cfg = MeasureConfig { threads, ..Default::default() };
        build_map2d(&w, &plans, &Grid2D::pow2(6), &cfg)
    };
    let m1 = build(1);
    let m2 = build(4);
    let m3 = build(0);
    assert_eq!(m1, m2);
    assert_eq!(m2, m3);
}
