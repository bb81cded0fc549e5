//! Regeneration of the paper's figures (1-10).
//!
//! Every function measures the same plans over the same parameter space as
//! its figure, prints the series / statistics the figure conveys, and
//! writes CSV + SVG artifacts.  Each figure's claims live in one
//! `figN_claims` function: the figure gates on it through
//! `figN_checks.txt`, and the claim tests call it at their own scale.
//! Paper-vs-measured landmark comparisons are recorded in `EXPERIMENTS.md`.

use robustmap_core::analysis::flattening::flattening_violations_log2;
use robustmap_core::analysis::landmarks::crossovers;
use robustmap_core::analysis::monotonicity::monotonicity_violations;
use robustmap_core::analysis::symmetry::symmetry_of;
use robustmap_core::map::Series;
use robustmap_core::measure::Measurement;
use robustmap_core::render::{
    absolute_scale, heatmap_svg, line_plot_svg, map1d_to_csv, map2d_to_csv, quotients_to_csv,
    relative_scale, render_map1d_table,
};
use robustmap_core::report::{landmark_report, multi_optimal_report, relative_report};
use robustmap_core::{
    build_map1d, Grid1D, Map1D, Map2D, MeasureConfig, OptimalityTolerance, RegressionSuite,
    RelativeMap2D,
};
use robustmap_systems::{single_predicate_plans, SinglePredPlanSet};
use robustmap_workload::Workload;

use crate::harness::{FigureOutput, Harness};
use crate::lab::emit_map;

/// Claims this implementation evaluates and misses, as `(check, reason)`.
/// A figure reports such a failed check as `diverges: <reason>` and does
/// not fail the gate on it.  The claim functions never read this table, so
/// it excuses no test.
pub const PAPER_DIVERGENCES: &[(&str, &str)] = &[(
    "fig9 §3.3: C1 within 10x of the best over > 95% of space",
    "where a's range is wide and only b is selective, C1 walks the wide leading range on a \
     while System C's (b,a) plans read only the narrow range on b",
)];

/// What a run offers the claims: its table against the buffer pool, and
/// the cost of a page read.
#[derive(Debug, Clone)]
pub struct ClaimSetup {
    /// Why the paper's I/O effects cannot show — they need a table that
    /// does not fit in the pool — or `None`.
    table_fits: Option<String>,
    /// Whether a page read costs no more than a buffer hit.
    io_free: bool,
}

impl ClaimSetup {
    /// The setup of sweeping `w` under `cfg`.
    pub fn of(w: &Workload, cfg: &MeasureConfig) -> Self {
        let (heap, pool, m) = (w.heap_pages(), cfg.pool_pages, &cfg.model);
        let fits = heap as usize <= pool;
        let table_fits = fits.then(|| format!("the {heap}-page table fits the {pool}-page pool"));
        ClaimSetup { table_fits, io_free: m.random_page_read <= m.cpu_buffer_hit }
    }

    fn io(&self) -> Option<String> {
        self.table_fits.clone()
    }
}

/// `missing`, or what the grid lacks when it stops above `2^log2`.
fn reaching(missing: Option<String>, sels: &[f64], log2: f64) -> Option<String> {
    let floor = sels.first().map_or(0.0, |s| s.log2());
    missing.or_else(|| (floor > log2).then(|| format!("the grid stops at 2^{floor:.0}")))
}

type Verdict = Result<(bool, String), String>;

fn curve(map: &Map1D, plan: &str) -> Result<Vec<f64>, String> {
    map.series_named(plan).map(Series::seconds).ok_or_else(|| format!("no plan {plan:?}"))
}

fn plan(map: &Map2D, name: &str) -> Result<usize, String> {
    map.plan_index(name).ok_or_else(|| format!("no plan {name:?}"))
}

/// `name` within its own system (the map's plans sharing its first
/// letter): that system's relative map and the plan's index in it.
fn relative(map: &Map2D, name: &str) -> Result<(RelativeMap2D, usize), String> {
    let system = map.subset_by_prefix(&name[..1]);
    let p = plan(&system, name)?;
    Ok((RelativeMap2D::from_map(&system), p))
}

/// Whether `a` and `b` cross once, in `2^lo ..= 2^hi`, `b` cheaper beyond.
fn crossover_in(map: &Map1D, a: Vec<f64>, b: Vec<f64>, lo: f64, hi: f64) -> Verdict {
    let xs = crossovers(&map.sels, &a, &b);
    let [x] = xs.as_slice() else { return Err(format!("{} crossovers", xs.len())) };
    let at = x.at.log2();
    Ok(((lo..=hi).contains(&at) && !x.a_wins_after, format!("at 2^{at:.1}")))
}

/// Whether `plan`'s cost over the table scan's at selectivity 1 is `ok`.
fn over_scan(map: &Map1D, plan: &str, ok: impl Fn(f64) -> bool) -> Verdict {
    let (p, scan) = (curve(map, plan)?, curve(map, "table scan")?);
    let f = p.last().zip(scan.last()).map_or(f64::NAN, |(p, s)| p / s);
    Ok((ok(f), format!("{f:.2}x")))
}

/// The share of the space where `p` is within 1.2x of the best.
fn near_optimal(rel: &RelativeMap2D, p: usize) -> f64 {
    rel.optimal_region(p, OptimalityTolerance::Factor(1.2)).fraction()
}

/// Figure 1's claims over its single-predicate map.
pub fn fig1_claims(map: &Map1D, setup: &ClaimSetup) -> RegressionSuite {
    let mut s = RegressionSuite::new();
    let at = |plan| curve(map, plan);
    let (scan, trad, improved) = ("table scan", "traditional index scan", "improved index scan");
    let deep = reaching(setup.io(), &map.sels, -12.5);
    s.check_unless(deep, "fig1 §3.1: traditional / scan break-even in 2^-12.5..2^-9.5", || {
        crossover_in(map, at(trad)?, at(scan)?, -12.5, -9.5)
    });
    // Not scale-free: the index descent's and the first fetch's seeks are
    // fixed costs only a table larger than the pool amortises.
    let mid = reaching(setup.io(), &map.sels, -5.5);
    s.check_unless(mid, "fig1 §3.1: improved / scan crossover in 2^-5.5..2^-2.5", || {
        crossover_in(map, at(improved)?, at(scan)?, -5.5, -2.5)
    });
    s.check_unless(None, "fig1 §3.1: improved / scan at selectivity 1 in 1.8x..3.5x", || {
        over_scan(map, improved, |f| (1.8..=3.5).contains(&f))
    });
    s.check_unless(setup.io(), "fig1 §3.1: traditional / scan at selectivity 1 above 50x", || {
        over_scan(map, trad, |f| f > 50.0)
    });
    s.check_unless(None, "fig1 §3.1: the improved scan violates log-log flattening", || {
        let work: Vec<f64> = map.result_rows.iter().map(|&r| r.max(1) as f64).collect();
        let steep = flattening_violations_log2(&work, &at(improved)?, 1.25);
        Ok((!steep.is_empty(), format!("steepens at {} segment(s)", steep.len())))
    });
    s.check_unless(None, "fig1 §3.1: every cost curve is monotone (2% tolerance)", || {
        let dips = |c: &&Series| !monotonicity_violations(&map.sels, &c.seconds(), 0.02).is_empty();
        let dipping: Vec<&str> = map.series.iter().filter(dips).map(|c| &*c.plan).collect();
        Ok((dipping.is_empty(), dipping.join(", ")))
    });
    s
}

/// Figure 2's claim over its map with the rid-join plans.
pub fn fig2_claims(map: &Map1D, setup: &ClaimSetup) -> RegressionSuite {
    let mut s = RegressionSuite::new();
    let deep = reaching(setup.io(), &map.sels, -12.5);
    s.check_unless(deep, "fig2 §3.1: rid joins beat traditional from 2^-12.5..2^-9.5", || {
        let mut best = vec![f64::INFINITY; map.len()];
        for join in map.series.iter().filter(|c| c.plan.starts_with("rid join")) {
            best.iter_mut().zip(&join.points).for_each(|(b, m)| *b = b.min(m.seconds));
        }
        crossover_in(map, curve(map, "traditional index scan")?, best, -12.5, -9.5)
    });
    s
}

/// Figure 4's claim over System A's map.
pub fn fig4_claims(map: &Map2D, setup: &ClaimSetup) -> RegressionSuite {
    let mut s = RegressionSuite::new();
    s.check_unless(setup.io(), "fig4 §3.2: max spread along sel_a > 10x that along sel_b", || {
        let (grid, (na, nb)) = (map.seconds_grid(plan(map, "A2 idx(a) fetch")?), map.dims());
        let spread = |cells: &mut dyn Iterator<Item = f64>| {
            let (lo, hi) = cells.fold((f64::INFINITY, 0.0f64), |(l, h), v| (l.min(v), h.max(v)));
            hi / lo
        };
        let a = (0..nb).map(|ib| spread(&mut (0..na).map(|ia| grid[ia * nb + ib])));
        let b = (0..na).map(|ia| spread(&mut grid[ia * nb..][..nb].iter().copied()));
        let (a, b) = (a.fold(1.0, f64::max), b.fold(1.0, f64::max));
        Ok((a > 10.0 * b, format!("{a:.1}x along sel_a, {b:.2}x along sel_b")))
    });
    s
}

/// Figure 5's claims over System A's map.
pub fn fig5_claims(map: &Map2D, setup: &ClaimSetup) -> RegressionSuite {
    let mut s = RegressionSuite::new();
    let sym = |name| plan(map, name).map(|p| symmetry_of(&map.seconds_grid(p), map.sel_a.len()));
    let (merge, hash) = ("A4 merge(a,b) intersect", "A6 hash(a,b) intersect");
    s.check_unless(None, "fig5 §3.2: merge join symmetry: mean mirrored ratio < 1.05x", || {
        let m = sym(merge)?;
        let (mean, max) = (m.mean_log_ratio.exp(), m.max_log_ratio.exp());
        Ok((mean < 1.05, format!("mean {mean:.3}x, max {max:.3}x")))
    });
    // Building costs more than probing: the asymmetry shows where page reads
    // are free, or where the table (and with it the build) outgrows the pool.
    let buried = if setup.io_free { None } else { setup.io() };
    s.check_unless(buried, "fig5 §3.2: hash join symmetry: mean log-ratio > 2x merge's", || {
        let (h, m) = (sym(hash)?.mean_log_ratio, sym(merge)?.mean_log_ratio);
        Ok((h > 2.0 * m, format!("mean {:.3}x vs {:.3}x", h.exp(), m.exp())))
    });
    s
}

/// Figure 7's claim over System A's maps at one or more table sizes.
pub fn fig7_claims(maps: &[&Map2D]) -> RegressionSuite {
    let mut s = RegressionSuite::new();
    let one = (maps.len() < 2).then(|| "needs System A's map at a second table size".into());
    s.check_unless(one, "fig7 §3.3: A2's worst quotient grows with table size", || {
        let mut sizes = Vec::new();
        for map in maps {
            let (rel, a2) = relative(map, "A2 idx(a) fetch")?;
            let rows = map.plan_grid(0).iter().map(|m| m.rows).max().unwrap_or(0);
            sizes.push((rows, rel.worst_quotient(a2)));
        }
        sizes.sort_by_key(|&(rows, _)| rows);
        let grows = sizes.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1);
        let seen: Vec<String> = sizes.iter().map(|(r, q)| format!("{q:.1}x at {r} rows")).collect();
        Ok((grows, seen.join(", ")))
    });
    s
}

/// Figure 8's claims over the all-systems map.
pub fn fig8_claims(map: &Map2D, setup: &ClaimSetup) -> RegressionSuite {
    let mut s = RegressionSuite::new();
    let (b1, a2) = (relative(map, "B1 idx(a,b) bitmap fetch"), relative(map, "A2 idx(a) fetch"));
    s.check_unless(setup.io(), "fig8 §3.3: B1's worst quotient is below A2's", || {
        let ((rel_b, b), (rel_a, a)) = (b1.clone()?, a2.clone()?);
        let (b, a) = (rel_b.worst_quotient(b), rel_a.worst_quotient(a));
        Ok((b < a, format!("{b:.1}x vs {a:.1}x")))
    });
    s.check_unless(setup.io(), "fig8 §3.3: B1 near-optimal over more of space than A2", || {
        let ((rel_b, b), (rel_a, a)) = (b1?, a2?);
        let (b, a) = (near_optimal(&rel_b, b) * 100.0, near_optimal(&rel_a, a) * 100.0);
        Ok((b > a, format!("within 1.2x over {b:.1}% vs {a:.1}%")))
    });
    s
}

/// Figure 9's claims over the all-systems map.
pub fn fig9_claims(map: &Map2D, setup: &ClaimSetup) -> RegressionSuite {
    let mut s = RegressionSuite::new();
    let c1 = relative(map, "C1 mdam(a,b) covering");
    s.check_unless(setup.io(), "fig9 §3.3: C1 within 10x of the best over > 95% of space", || {
        let (rel, p) = c1.clone()?;
        let (area, worst) = (rel.area_within(p, 10.0) * 100.0, rel.worst_quotient(p));
        Ok((area > 95.0, format!("{area:.1}% (worst {worst:.1}x)")))
    });
    s.check_unless(setup.io(), "fig9 §3.3: C1 within 1.2x of the best at > 15% of points", || {
        let (rel, p) = c1?;
        let near = near_optimal(&rel, p) * 100.0;
        Ok((near > 15.0, format!("{near:.1}%")))
    });
    s
}

/// Figure 10's claim over the all-systems map, at the tightest tolerance
/// the figure reports: within 1.2x two plans share every point of the map
/// (the catalog's plans come in near-equal pairs), so at 1.2x the claim
/// could not fail.
pub fn fig10_claims(map: &Map2D) -> RegressionSuite {
    let mut s = RegressionSuite::new();
    s.check_unless(None, "fig10 §3.4: 2+ plans within 1.01x of best at > half the points", || {
        let counts =
            RelativeMap2D::from_map(map).optimal_plan_counts(OptimalityTolerance::Factor(1.01));
        let multi = counts.iter().filter(|&&c| c >= 2).count();
        Ok((multi * 2 > counts.len(), format!("{multi} of {} points", counts.len())))
    });
    s
}

/// The paper figures' checks epilogue: evaluate the figure's claims under
/// the harness's setup, excuse the [`PAPER_DIVERGENCES`] rows, and gate on
/// the suite through `<stem>_checks.txt`.
fn checked(
    h: &Harness,
    stem: &str,
    out: FigureOutput,
    claims: impl FnOnce(&ClaimSetup) -> RegressionSuite,
) -> FigureOutput {
    let mut suite = claims(&ClaimSetup::of(&h.w, &h.config.measure));
    for (name, reason) in PAPER_DIVERGENCES {
        suite.excuse(name, reason);
    }
    FigureOutput::with_checks(h, stem, "the paper's claims", suite, out.report, out.files)
}

/// Figures 3 and 6: the color legends (written as standalone SVGs and
/// printed as text).
pub fn legends(h: &Harness) -> FigureOutput {
    let mut report = String::new();
    let mut files = Vec::new();
    for (name, scale) in
        [("fig3_absolute_scale", absolute_scale()), ("fig6_relative_scale", relative_scale())]
    {
        report.push_str(&format!("{}:\n", scale.title));
        for b in scale.buckets() {
            report.push_str(&format!("  {}  {}\n", b.color.hex(), b.label));
        }
        // A 1x6 strip as the legend artifact (one cell per bucket).
        let values: Vec<f64> = scale.buckets().iter().map(|b| (b.lo + b.hi) / 2.0).collect();
        let axis: Vec<f64> = (1..=values.len()).map(|i| i as f64 / values.len() as f64).collect();
        let svg = heatmap_svg(&values, &axis, &[1.0], &scale, name);
        files.push(h.write_artifact(&format!("{name}.svg"), &svg));
    }
    FigureOutput::new(report, files)
}

/// Figure 1: single-table single-predicate selection — table scan vs.
/// traditional vs. improved index scan, absolute log-log.
pub fn fig1(h: &Harness) -> FigureOutput {
    let map = h.map1d_basic();
    let title = "Figure 1: single-predicate selection";
    let mut report = render_map1d_table(&map, &format!("{title} (absolute seconds)"));
    report.push_str(&landmark_report(&map));
    let files = vec![
        h.write_artifact("fig1.csv", &map1d_to_csv(&map)),
        h.write_artifact("fig1.svg", &line_plot_svg(&map, title, "seconds (log)")),
    ];
    checked(h, "fig1", FigureOutput::new(report, files), |s| fig1_claims(&map, s))
}

/// Figure 2: advanced selection plans — relative performance, adding the
/// covering rid-join plans.
pub fn fig2(h: &Harness) -> FigureOutput {
    let plans = single_predicate_plans(SinglePredPlanSet::WithIndexJoins, &h.w);
    let map = build_map1d(&h.w, &plans, &Grid1D::pow2(h.config.grid_exp), &h.config.measure);
    // Relative view: quotient vs. best plan at each point.
    let factors =
        |q: Vec<f64>| q.into_iter().map(|seconds| Measurement { seconds, ..Default::default() });
    let series =
        map.relative().into_iter().map(|(plan, q)| Series { plan, points: factors(q).collect() });
    let rel_map = Map1D { series: series.collect(), ..map.clone() };
    let title = "Figure 2: advanced selection plans";
    let mut report = render_map1d_table(&rel_map, &format!("{title} (factor vs. best plan)"));
    report.push_str(&landmark_report(&map));
    let files = vec![
        h.write_artifact("fig2.csv", &map1d_to_csv(&map)),
        h.write_artifact("fig2_relative.csv", &map1d_to_csv(&rel_map)),
        h.write_artifact("fig2.svg", &line_plot_svg(&rel_map, title, "factor vs best (log)")),
    ];
    checked(h, "fig2", FigureOutput::new(report, files), |s| fig2_claims(&map, s))
}

/// An absolute 2-D figure over System A's map: the map of `plans[0]`'s
/// seconds (titled `titles[0]` in the report, `titles[1]` in the SVG), its
/// range, and `<stem>.csv` of all `plans`.
fn absolute_figure(h: &Harness, stem: &str, plans: &[&str], titles: [&str; 2]) -> FigureOutput {
    let map = h.map_system_a();
    let idx: Vec<usize> = plans.iter().map(|p| map.plan_index(p).expect("System A plan")).collect();
    let (grid, csv) = (map.seconds_grid(idx[0]), map2d_to_csv(&map.subset(&idx)));
    let [title, svg_title] = titles;
    let scale = absolute_scale();
    let mut out = emit_map(h, stem, &grid, &map.sel_a, &map.sel_b, &scale, title, svg_title, csv);
    let (lo, hi) = map.seconds_range(idx[0]);
    out.report.push_str(&format!("execution time range: {lo:.3}s .. {hi:.3}s\n"));
    out
}

/// Figure 4: two-predicate single-index selection — absolute 2-D map of
/// the plan that fetches on `a` and filters `b` afterwards.
pub fn fig4(h: &Harness) -> FigureOutput {
    let title = "Figure 4: two-predicate single-index selection (absolute seconds)";
    let svg_title = "Figure 4: single-index plan, absolute seconds";
    let out = absolute_figure(h, "fig4", &["A2 idx(a) fetch"], [title, svg_title]);
    checked(h, "fig4", out, |s| fig4_claims(&h.map_system_a(), s))
}

/// Figure 5: two-index merge join — absolute 2-D map; symmetric in the two
/// selectivities, unlike the hash join.
pub fn fig5(h: &Harness) -> FigureOutput {
    let title = "Figure 5: two-index merge join (absolute seconds)";
    let svg_title = "Figure 5: two-index merge join, absolute seconds";
    let out = absolute_figure(
        h,
        "fig5",
        &["A4 merge(a,b) intersect", "A6 hash(a,b) intersect"],
        [title, svg_title],
    );
    checked(h, "fig5", out, |s| fig5_claims(&h.map_system_a(), s))
}

/// A relative 2-D figure over `plan`'s system: the map of its quotients
/// against the system's best (titled as in [`absolute_figure`]),
/// `<stem>.csv` of every plan's quotients, and the relative report.
fn relative_figure(h: &Harness, stem: &str, plan: &str, titles: [&str; 2]) -> FigureOutput {
    let rel = RelativeMap2D::from_map(&h.map_all_systems().subset_by_prefix(&plan[..1]));
    let p = rel.plans.iter().position(|name| name == plan).expect("catalog plan");
    let (grid, csv, [title, svg_title]) = (rel.quotient_grid(p), quotients_to_csv(&rel), titles);
    let scale = relative_scale();
    let mut out = emit_map(h, stem, grid, &rel.sel_a, &rel.sel_b, &scale, title, svg_title, csv);
    out.report.push_str(&relative_report(&rel));
    out
}

/// Figure 7: the Figure 4 plan relative to the best of System A's seven
/// plans.
pub fn fig7(h: &Harness) -> FigureOutput {
    let title = "Figure 7: single-index plan vs. best of 7 plans (cost factor)";
    let svg_title = "Figure 7: single-index plan vs best of 7";
    let out = relative_figure(h, "fig7", "A2 idx(a) fetch", [title, svg_title]);
    checked(h, "fig7", out, |_| fig7_claims(&[&h.map_system_a()]))
}

/// Figure 8: System B's two-column-index plan (bitmap-sorted fetch),
/// relative to the best of System B's plans.
pub fn fig8(h: &Harness) -> FigureOutput {
    let title = "Figure 8: System B two-column index + bitmap fetch (cost factor)";
    let svg_title = "Figure 8: System B bitmap-fetch plan vs best of System B";
    let out = relative_figure(h, "fig8", "B1 idx(a,b) bitmap fetch", [title, svg_title]);
    checked(h, "fig8", out, |s| fig8_claims(&h.map_all_systems(), s))
}

/// Figure 9: System C's MDAM plan over the covering two-column index,
/// relative to the best of System C's plans.
pub fn fig9(h: &Harness) -> FigureOutput {
    let title = "Figure 9: System C covering index + MDAM (cost factor)";
    let svg_title = "Figure 9: System C MDAM plan vs best of System C";
    let out = relative_figure(h, "fig9", "C1 mdam(a,b) covering", [title, svg_title]);
    checked(h, "fig9", out, |s| fig9_claims(&h.map_all_systems(), s))
}

/// Figure 10: the optimal-plans map — most points have several optimal
/// plans within a tolerance.
pub fn fig10(h: &Harness) -> FigureOutput {
    let all = h.map_all_systems();
    let rel = RelativeMap2D::from_map(&all);
    let mut report = String::from("Figure 10: optimal plans per parameter-space point\n");
    // The scale-free tolerances the paper discusses: 1%, 20%, 2x.
    for f in [1.01, 1.2, 2.0] {
        report.push_str(&multi_optimal_report(&rel, OptimalityTolerance::Factor(f)));
    }
    // Per-plan count of cells where it is (near-)optimal.
    report.push_str("cells where each plan is within 20% of the best:\n");
    for (p, name) in rel.plans.iter().enumerate() {
        report.push_str(&format!("  {:<28} {:>5.1}%\n", name, near_optimal(&rel, p) * 100.0));
    }
    let counts = rel.optimal_plan_counts(OptimalityTolerance::Factor(1.2));
    let grid: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    let title = "Figure 10: number of optimal plans per point (within 20%)";
    let svg = heatmap_svg(&grid, &rel.sel_a, &rel.sel_b, &relative_scale(), title);
    let files = vec![
        h.write_artifact("fig10.csv", &quotients_to_csv(&rel)),
        h.write_artifact("fig10.svg", &svg),
    ];
    checked(h, "fig10", FigureOutput::new(report, files), |_| fig10_claims(&all))
}
