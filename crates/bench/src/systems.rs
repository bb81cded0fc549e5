//! System-level extension experiments: the fifteen-plan catalog of
//! Systems A, B and C compared, ranked and regression-gated.
//!
//! * `ext_worst` — §3.3 opportunity 1: mapping *worst* performance.
//! * `ext_shootout` — §3.3 opportunity 2: comparing multiple systems,
//!   plus the §4 robustness-benchmark leaderboard.
//! * `ext_regression` — the §4 regression benchmark, runnable as a gate.

use robustmap_core::analysis::score::score_map2d;
use robustmap_core::render::{relative_scale, render_map2d_ansi};
use robustmap_core::report::{score_csv, score_report};
use robustmap_core::{RegressionSuite, RelativeMap2D};
use robustmap_systems::SystemId;

use crate::harness::{FigureOutput, Harness, PLAIN_CELLS};
use crate::lab::regret_svg;

/// §3.3 opportunity 1: "we have not mapped worst performance, i.e.,
/// particularly dangerous plans and the relative performance of plans
/// compared to how bad performance could be."
pub fn ext_worst(h: &Harness) -> FigureOutput {
    let all = h.map_all_systems();
    let rel = RelativeMap2D::from_map(&all);
    let (na, nb) = rel.dims();
    // Danger map: worst plan cost / best plan cost per cell.
    let mut danger = vec![0.0f64; na * nb];
    for ia in 0..na {
        for ib in 0..nb {
            let worst = (0..all.plan_count())
                .map(|p| rel.quotient(p, ia, ib))
                .fold(1.0f64, f64::max);
            danger[ia * nb + ib] = worst;
        }
    }
    let mut report = render_map2d_ansi(
        &danger,
        &rel.sel_a,
        &rel.sel_b,
        &relative_scale(),
        "Extension C: danger map — worst plan vs best plan per point",
        &PLAIN_CELLS,
    );
    let max_danger = danger.iter().copied().fold(1.0f64, f64::max);
    report.push_str(&format!(
        "a wrong plan choice can cost up to {max_danger:.0}x at the worst point\n"
    ));
    // Per-plan: how close does it get to being the worst choice?
    report.push_str("fraction of points where each plan is the worst choice:\n");
    for (p, name) in rel.plans.iter().enumerate() {
        let worst_count = (0..na * nb)
            .filter(|&c| {
                let (ia, ib) = (c / nb, c % nb);
                let q = rel.quotient(p, ia, ib);
                (0..all.plan_count()).all(|o| rel.quotient(o, ia, ib) <= q)
            })
            .count();
        report.push_str(&format!(
            "  {:<28} {:>5.1}%\n",
            name,
            worst_count as f64 / (na * nb) as f64 * 100.0
        ));
    }
    let files = vec![regret_svg(
        h,
        "ext_worst.svg",
        &danger,
        &rel.sel_a,
        &rel.sel_b,
        "Danger map: worst/best factor per point",
    )];
    FigureOutput::new(report, files)
}

/// §3.3 opportunity 2: "we have not yet compared multiple systems and
/// their available plans" — the cross-system shootout plus the §4
/// robustness-benchmark leaderboard.
pub fn ext_shootout(h: &Harness) -> FigureOutput {
    let all = h.map_all_systems();
    let rel = RelativeMap2D::from_map(&all);
    let (na, nb) = rel.dims();
    // Plan names start with their system's letter.
    let prefixes = ["A", "B", "C"];
    let mut report = String::from("Extension D: cross-system comparison (15 plans, 3 systems)\n");
    let mut wins = [0usize; 3];
    for ia in 0..na {
        for ib in 0..nb {
            let best = &all.plans[rel.best_plan_at(ia, ib)];
            wins[prefixes.iter().position(|p| best.starts_with(p)).expect("A, B or C")] += 1;
        }
    }
    let total = (na * nb) as f64;
    for (sys, wins) in SystemId::all().into_iter().zip(wins) {
        report.push_str(&format!(
            "  {} holds the best plan at {:.1}% of points\n",
            sys,
            wins as f64 / total * 100.0
        ));
    }
    // Best-achievable-per-system comparison: each system's best plan per
    // cell vs. the global best.
    for (sys, prefix) in SystemId::all().into_iter().zip(prefixes) {
        let sub = all.subset_by_prefix(prefix);
        let mut worst = 1.0f64;
        let mut sum = 0.0f64;
        for ia in 0..na {
            for ib in 0..nb {
                let best_sys = (0..sub.plan_count())
                    .map(|p| sub.get(p, ia, ib).seconds)
                    .fold(f64::INFINITY, f64::min);
                let q = best_sys / rel.best_seconds_at(ia, ib).max(1e-12);
                worst = worst.max(q);
                sum += q;
            }
        }
        report.push_str(&format!(
            "  {}: best-plan-per-point is within {:.1}x of the global best on average \
             (worst {:.1}x)\n",
            sys,
            sum / total,
            worst
        ));
    }
    // Robustness benchmark leaderboard over all 15 plans (§4), with the
    // severity-weighted cliff/knee smoothness columns.
    report.push_str("\nrobustness benchmark leaderboard (all plans):\n");
    let scores: Vec<_> =
        (0..all.plan_count()).map(|p| score_map2d(&rel, p, &all.seconds_grid(p))).collect();
    report.push_str(&score_report(&scores));
    let files = vec![
        h.write_artifact("ext_shootout.txt", &report),
        h.write_artifact("ext_shootout_scores.csv", &score_csv(&scores)),
    ];
    FigureOutput::new(report, files)
}

/// The §4 regression benchmark, run against the measured maps: named
/// pass/fail checks (monotone curves, no unexplained cliffs, bounded worst
/// cases, contiguous optimality regions) that a CI job would gate on.
pub fn ext_regression(h: &Harness) -> FigureOutput {
    let mut suite = RegressionSuite::new();
    // Baseline limits recorded for the current implementation at the
    // default scale: the flagship robust plans stay within 250x of their
    // own system's best plan anywhere (B1 ~20x, C1 ~143x at 2^20 rows;
    // the fragile fetches run into the thousands).  Tightening this limit
    // over time is §4's "track progress against these weaknesses".
    let max_worst_quotient = 250.0;
    // Figure 1's sweep (shared with `fig1` via the harness cache): all
    // curves must be monotone and cliff-free.
    let map1 = h.map1d_basic();
    suite.check_map1d(&map1);
    // 2-D checks per system, mirroring Figures 8/9: each robust plan is
    // judged against its *own* system's best (a System B plan cannot
    // regress because System C exists).
    let all = h.map_all_systems();
    suite.check_map2d(&all.subset_by_prefix("A"), &[], max_worst_quotient);
    suite.check_map2d(&all.subset_by_prefix("B"), &["B1", "B2"], max_worst_quotient);
    suite.check_map2d(&all.subset_by_prefix("C"), &["C1", "C2"], max_worst_quotient);

    let mut report = String::from("Extension K: §4 robustness regression benchmark\n");
    report.push_str(&suite.report());
    report.push_str(if suite.passed() {
        "verdict: PASS — protected against accidental regression\n"
    } else {
        "verdict: FAIL — a robustness property regressed\n"
    });
    let files = vec![h.write_artifact("ext_regression.txt", &report)];
    FigureOutput { checks: Some(suite), ..FigureOutput::new(report, files) }
}
