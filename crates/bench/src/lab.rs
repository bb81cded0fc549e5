//! The shared choice lab: what every chooser-vs-chooser experiment needs
//! and the extension figures used to re-assemble by hand — side tables of
//! the correlated/Zipf family, plan catalogs and the scan / fetch plan
//! literals several figures build, a workload bound to its catalog and
//! statistics ([`Lab`]: choosers, diagonal sweeps, the `(sel_a x sel_b)`
//! map), and the N-chooser [`RegretBoard`].

use std::path::PathBuf;

use robustmap_core::render::{heatmap_svg, relative_scale, render_map2d_ansi, ColorScale};
use robustmap_core::{build_map2d, measure_batch, Grid2D, Map2D, Measurement};
use robustmap_executor::{
    ColRange, FetchKind, IndexRangeSpec, KeyRange, PlanSpec, Predicate, Projection,
};
use robustmap_systems::{
    two_predicate_plans, CatalogStats, ChoicePolicy, Chooser, RobustConfig, SystemId, TwoPredPlan,
};
use robustmap_workload::gen::PredicateDistribution;
use robustmap_workload::{TableBuilder, Workload, WorkloadConfig, COL_B};

use crate::harness::{FigureOutput, Harness, PLAIN_CELLS};

/// A second table beside the harness's: same seed, `rows` rows, predicate
/// columns drawn from `dist` (the correlated and Zipf workload families).
pub fn side_table(h: &Harness, rows: u64, dist: PredicateDistribution) -> Workload {
    TableBuilder::build_cached(WorkloadConfig {
        rows,
        seed: h.w.config.seed,
        predicate_dist: dist,
        mutation_epoch: 0,
    })
}

/// All fifteen two-predicate plans of Systems A, B and C, in map order.
pub fn full_catalog(w: &Workload) -> Vec<TwoPredPlan> {
    SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect()
}

/// A table scan keeping the rows with `col <= t`.
pub fn scan_where(w: &Workload, col: usize, t: i64, project: Projection) -> PlanSpec {
    let pred = Predicate::single(ColRange::at_most(col, t));
    PlanSpec::TableScan { table: w.table, pred, project }
}

/// Whole rows with `a <= ta`, fetched through the single-column index on
/// `a` under the given fetch discipline.
pub fn fetch_where_a(w: &Workload, ta: i64, fetch: FetchKind, residual: Predicate) -> PlanSpec {
    PlanSpec::IndexFetch {
        scan: IndexRangeSpec { index: w.indexes.a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
        key_filter: Predicate::always_true(),
        fetch,
        residual,
        project: Projection::All,
    }
}

/// The fragile plan the resource experiments stress: a traditional
/// (unsorted, row-at-a-time) fetch on `a` with an all-pass residual on `b`.
pub fn traditional_fetch(w: &Workload, ta: i64) -> PlanSpec {
    let all_b = Predicate::single(ColRange::at_most(COL_B, w.cal_b.threshold(1.0)));
    fetch_where_a(w, ta, FetchKind::Traditional, all_b)
}

/// The four plans the correlated-predicate experiments compare, in map
/// order: the robust table-scan baseline, the index-nested-loop fetch
/// (index on `a` driving row fetches, residual on `b`), the hash
/// intersect of both single-column indexes, and the covering MDAM plan.
pub const FOUR_PLANS: [&str; 4] =
    ["A1 table scan", "A2 idx(a) fetch", "A6 hash(a,b) intersect", "C1 mdam(a,b) covering"];

/// Pull [`FOUR_PLANS`] out of the systems' plan catalogs for `w`, in that
/// order.
pub fn four_plan_catalog(w: &Workload) -> Vec<TwoPredPlan> {
    let mut catalog: Vec<TwoPredPlan> = two_predicate_plans(SystemId::A, w)
        .into_iter()
        .chain(two_predicate_plans(SystemId::C, w))
        .collect();
    FOUR_PLANS
        .iter()
        .map(|name| {
            let at = catalog.iter().position(|p| p.name == *name).expect("catalog plan");
            catalog.swap_remove(at)
        })
        .collect()
}

/// The grid of the extension figures' `(sel_a x sel_b)` maps: the
/// harness's, capped at 2^-6 (each is a second full sweep).
pub fn map_grid(h: &Harness) -> Grid2D {
    Grid2D::pow2(h.config.grid_exp.min(6))
}

/// Write an ia-major grid of cost factors (regret, quotient, slowdown) as
/// a heat-map SVG artifact on the relative colour scale.
pub fn regret_svg(
    h: &Harness,
    file: &str,
    grid: &[f64],
    xs: &[f64],
    ys: &[f64],
    title: &str,
) -> PathBuf {
    h.write_artifact(file, &heatmap_svg(grid, xs, ys, &relative_scale(), title))
}

/// The 2-D map figure epilogue: an ia-major `grid` over `(xs, ys)` on
/// `scale` becomes the plain-character map (titled `title`) that opens the
/// report, `<stem>.csv` (holding `csv`) and the heat map `<stem>.svg`
/// (titled `svg_title`).  The figure appends its own notes to the report.
pub fn emit_map(
    h: &Harness,
    stem: &str,
    grid: &[f64],
    xs: &[f64],
    ys: &[f64],
    scale: &ColorScale,
    title: &str,
    svg_title: &str,
    csv: String,
) -> FigureOutput {
    let report = render_map2d_ansi(grid, xs, ys, scale, title, &PLAIN_CELLS);
    let files = vec![
        h.write_artifact(&format!("{stem}.csv"), &csv),
        h.write_artifact(&format!("{stem}.svg"), &heatmap_svg(grid, xs, ys, scale, svg_title)),
    ];
    FigureOutput::new(report, files)
}

/// One measured parameter-space point: every plan of a [`Lab`]'s catalog
/// at one pair of predicate constants.
pub struct Cell {
    /// Target selectivities `(sel_a, sel_b)`.
    pub sel: (f64, f64),
    /// The calibrated predicate constants `(ta, tb)`.
    pub thr: (i64, i64),
    /// One measurement per catalog plan, in catalog order.
    pub measured: Vec<Measurement>,
}

impl Cell {
    /// Simulated seconds per catalog plan.
    pub fn secs(&self) -> Vec<f64> {
        self.measured.iter().map(|m| m.seconds).collect()
    }
}

/// A workload bound to a plan catalog and its catalog statistics, under
/// the harness's measurement conditions.
pub struct Lab<'a> {
    h: &'a Harness,
    /// The table under test.
    pub w: &'a Workload,
    /// The candidate plans.
    pub plans: Vec<TwoPredPlan>,
    /// Catalog statistics of `w`, feeding the cost formulas.
    pub stats: CatalogStats,
}

impl<'a> Lab<'a> {
    /// Bind `plans` to `w`.
    pub fn new(h: &'a Harness, w: &'a Workload, plans: Vec<TwoPredPlan>) -> Self {
        Lab { h, w, plans, stats: CatalogStats::of(w) }
    }

    /// The textbook optimizer over the whole catalog, under the harness's
    /// cost model: argmin of estimated cost at the point estimate.
    pub fn point(&self) -> Chooser<'_> {
        Chooser {
            plans: &self.plans,
            stats: &self.stats,
            model: &self.h.config.measure.model,
            policy: ChoicePolicy::Point,
        }
    }

    /// The penalty-aware robust chooser at the default [`RobustConfig`].
    pub fn robust(&self) -> Chooser<'_> {
        Chooser { policy: ChoicePolicy::Robust(RobustConfig::default()), ..self.point() }
    }

    /// Predicate constants along the diagonal `sel_a = sel_b = s`.
    pub fn diagonal(&self, sels: &[f64]) -> Vec<(i64, i64)> {
        sels.iter().map(|&s| (self.w.cal_a.threshold(s), self.w.cal_b.threshold(s))).collect()
    }

    /// Every catalog plan at every `(sels[i], thr[i])` diagonal point, in
    /// one warm batch.
    pub fn sweep(&self, sels: &[f64], thr: &[(i64, i64)]) -> Vec<Cell> {
        let specs: Vec<PlanSpec> =
            self.plans.iter().flat_map(|p| thr.iter().map(|&(ta, tb)| p.build(ta, tb))).collect();
        let results = measure_batch(&self.w.db, &specs, &self.h.config.measure);
        let ns = sels.len();
        (0..ns)
            .map(|si| Cell {
                sel: (sels[si], sels[si]),
                thr: thr[si],
                measured: (0..self.plans.len()).map(|pi| results[pi * ns + si]).collect(),
            })
            .collect()
    }

    /// [`Lab::sweep`] at this workload's own [`Lab::diagonal`].
    pub fn sweep_diagonal(&self, sels: &[f64]) -> Vec<Cell> {
        self.sweep(sels, &self.diagonal(sels))
    }

    /// The catalog's `(sel_a x sel_b)` map over [`map_grid`], through the
    /// standard map builder.
    pub fn map(&self) -> Map2D {
        build_map2d(self.w, &self.plans, &map_grid(self.h), &self.h.config.measure)
    }

    /// The cells of a map built by [`Lab::map`], ia-major like the map's
    /// own grids.
    pub fn map_cells(&self, map: &Map2D) -> Vec<Cell> {
        let (na, nb) = map.dims();
        (0..na * nb)
            .map(|c| {
                let (ia, ib) = (c / nb, c % nb);
                let sel = (map.sel_a[ia], map.sel_b[ib]);
                Cell {
                    sel,
                    thr: (self.w.cal_a.threshold(sel.0), self.w.cal_b.threshold(sel.1)),
                    measured: (0..self.plans.len()).map(|pi| *map.get(pi, ia, ib)).collect(),
                }
            })
            .collect()
    }
}

/// `N` named choosers scored on the same cells against the oracle (the
/// measured per-cell best of the whole catalog): per-cell regret grids (the
/// heat maps draw them), and wrong-choice counts and worst / mean regret
/// read off them.
pub struct RegretBoard<const N: usize> {
    names: [&'static str; N],
    grids: [Vec<f64>; N],
}

impl<const N: usize> RegretBoard<N> {
    /// An empty board for the choosers `names`, in `picks` order.
    pub fn new(names: [&'static str; N]) -> Self {
        RegretBoard { names, grids: std::array::from_fn(|_| Vec::new()) }
    }

    /// Record one cell: `secs` is the catalog's measured seconds, `picks`
    /// each chooser's plan.  Returns every chooser's regret (its plan's
    /// cost over the cell's best) and the oracle's plan — the cheapest,
    /// ties to the lower index like every chooser.
    pub fn add(&mut self, secs: &[f64], picks: [usize; N]) -> ([f64; N], usize) {
        let mut oracle = 0usize;
        for (i, &s) in secs.iter().enumerate() {
            if s < secs[oracle] {
                oracle = i;
            }
        }
        let regrets = picks.map(|p| secs[p] / secs[oracle].max(1e-12));
        for (grid, q) in self.grids.iter_mut().zip(regrets) {
            grid.push(q);
        }
        (regrets, oracle)
    }

    /// `name`'s per-cell regrets, in recording order.
    pub fn grid(&self, name: &str) -> &[f64] {
        let at = self.names.iter().position(|n| *n == name).expect("a chooser on this board");
        &self.grids[at]
    }

    /// Cells where `name` picked a plan costlier than the oracle's.  One
    /// wrong-cell rule for every comparison: beyond 0.1% of the best is a
    /// different (worse) plan, not a tie.
    pub fn wrong(&self, name: &str) -> usize {
        self.grid(name).iter().filter(|&&q| q > 1.001).count()
    }

    /// [`RegretBoard::wrong`] as a fraction of the recorded cells.
    pub fn wrong_frac(&self, name: &str) -> f64 {
        self.wrong(name) as f64 / self.grid(name).len().max(1) as f64
    }

    /// `name`'s worst regret over the recorded cells.
    pub fn worst(&self, name: &str) -> f64 {
        self.grid(name).iter().copied().fold(0.0, f64::max)
    }

    /// `name`'s regret summed in recording order (comparisons use the sum,
    /// reports the mean).
    pub fn sum(&self, name: &str) -> f64 {
        self.grid(name).iter().sum()
    }

    /// `name`'s mean regret.
    pub fn mean(&self, name: &str) -> f64 {
        self.sum(name) / self.grid(name).len() as f64
    }

    /// `name`'s row of a chooser comparison, as the reports print it.
    pub fn describe(&self, name: &str) -> String {
        format!(
            "wrong at {:.1}% of cells, worst regret {:.2}x, mean {:.2}x",
            self.wrong_frac(name) * 100.0,
            self.worst(name),
            self.mean(name)
        )
    }
}
