//! Integration: the paper's Figure 1 claims hold on the calibrated cost
//! model.  Each test asserts one check of `fig1_claims`, the function the
//! `fig1` figure gates on.

use std::sync::OnceLock;

use robustmap::core::{build_map1d, Grid1D, MeasureConfig, RegressionSuite};
use robustmap::systems::{single_predicate_plans, SinglePredPlanSet};
use robustmap::workload::{TableBuilder, WorkloadConfig};
use robustmap_bench::paper::{fig1_claims, ClaimSetup};

/// Figure 1's claims over a `2^-grid_exp` grid on a `rows`-row table.  The
/// pool must stay well below the table, as in the paper's setup (60M rows
/// dwarf any 2009 buffer pool), or the claims are not evaluated.
fn fig1_claims_at(rows: u64, grid_exp: u32, pool_pages: usize) -> RegressionSuite {
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(rows));
    let plans = single_predicate_plans(SinglePredPlanSet::Basic, &w);
    let cfg = MeasureConfig { pool_pages, ..Default::default() };
    let map = build_map1d(&w, &plans, &Grid1D::pow2(grid_exp), &cfg);
    fig1_claims(&map, &ClaimSetup::of(&w, &cfg))
}

/// The claims at 2^16 rows, a 2^-13 grid and a 128-page pool, swept once.
fn claims() -> &'static RegressionSuite {
    static SUITE: OnceLock<RegressionSuite> = OnceLock::new();
    SUITE.get_or_init(|| fig1_claims_at(1 << 16, 13, 128))
}

/// The check of `suite` whose name contains `key` was evaluated and held.
fn holds(suite: &RegressionSuite, key: &str) {
    let check = suite.results.iter().find(|r| r.name.contains(key));
    assert!(check.is_some_and(|r| r.passed), "{key}:\n{}", suite.report());
}

#[test]
fn break_even_table_scan_vs_traditional_near_2_to_minus_11() {
    holds(claims(), "traditional / scan break-even");
}

#[test]
fn improved_scan_is_competitive_until_about_2_to_minus_4() {
    holds(claims(), "improved / scan crossover");
}

#[test]
fn improved_scan_is_about_2_5x_table_scan_at_full_selectivity() {
    holds(claims(), "improved / scan at selectivity 1");
}

#[test]
fn traditional_scan_is_orders_of_magnitude_worse_at_full_selectivity() {
    holds(claims(), "traditional / scan at selectivity 1");
}

#[test]
fn all_fig1_cost_curves_are_monotone() {
    holds(claims(), "monotone");
}

#[test]
fn improved_scan_fails_the_flattening_check_as_the_paper_observes() {
    holds(claims(), "violates log-log flattening");
}

#[test]
fn landmarks_are_scale_free() {
    // The break-even is a fraction of the table: it holds at a quarter of
    // the rows.  The improved scan's crossover is not scale-free.
    holds(&fig1_claims_at(1 << 14, 13, 16), "traditional / scan break-even");
}
