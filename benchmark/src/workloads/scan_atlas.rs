//! `scan_atlas`: the selection maps of Figures 1, 2 and 4–10.
//!
//! All fifteen two-predicate plans over a selectivity grid that spans
//! 2^-16..1 on both axes, the Figure 1 single-predicate plans over the
//! full 17-point axis, then the analysis and render chain over the
//! results.  The table is larger than the modelled buffer pool.  Scan,
//! fetch, intersect and MDAM pipelines do almost all the work, with the
//! buffer pool, the B-tree read path and the sweep engine; nothing sorts,
//! spills, schedules or writes.

use robustmap_core::analysis::changepoint::{detect_changepoints, ChangepointConfig};
use robustmap_core::render::{
    absolute_scale, heatmap_svg, line_plot_svg, map1d_to_csv, map2d_to_csv, relative_scale,
};
use robustmap_core::{
    build_map1d, Grid1D, Grid2D, Map1D, Map2D, MeasureConfig, OptimalityTolerance, RegionStats,
    RelativeMap2D, Series,
};
use robustmap_executor::PlanSpec;
use robustmap_systems::{
    single_predicate_plans, two_predicate_plans, SinglePredPlan, SinglePredPlanSet, SystemId,
    TwoPredPlan,
};
use robustmap_workload::Workload;

use super::{digest, map2d, measure_config, sweep, PassOutput, Scenario};
use crate::env::Calibration;
use crate::oracle::{wrong_rows, Truth};
use crate::spans::{Layer, Recorder};

/// Table rows: about 1400 heap pages against a 1024-page modelled pool.
pub const ROWS: u64 = 1 << 18;

/// Every second line of the figures' 2^-16..1 axis: the same range in a
/// quarter of the cells, so a pass stays near a second.
fn atlas_axis() -> Grid1D {
    Grid1D::explicit((0..=8).rev().map(|k| 0.5f64.powi(2 * k)).collect())
}

/// The whole catalog: System A's seven plans, B's four, C's four.
pub fn catalog(w: &Workload) -> Vec<TwoPredPlan> {
    SystemId::all()
        .into_iter()
        .flat_map(|s| two_predicate_plans(s, w))
        .collect()
}

pub struct ScanAtlas {
    w: Workload,
    cfg: MeasureConfig,
    plans: Vec<TwoPredPlan>,
    basic: Vec<SinglePredPlan>,
    grid2: Grid2D,
    grid1: Grid1D,
    /// Expected rows per 2-D cell (`ia`-major) and per 1-D point.
    truth2: Vec<u64>,
    truth1: Vec<u64>,
}

impl ScanAtlas {
    pub fn new(w: Workload, truth: &Truth, threads: usize) -> ScanAtlas {
        let grid2 = Grid2D::new(atlas_axis(), atlas_axis());
        let grid1 = Grid1D::pow2(16);
        let ta: Vec<i64> = grid2
            .sel_a()
            .iter()
            .map(|&s| w.cal_a.threshold(s))
            .collect();
        let tb: Vec<i64> = grid2
            .sel_b()
            .iter()
            .map(|&s| w.cal_b.threshold(s))
            .collect();
        let truth2 = truth.grid(&ta, &tb);
        let truth1 = grid1
            .sels()
            .iter()
            .map(|&s| truth.count_a(w.cal_a.threshold(s)))
            .collect();
        ScanAtlas {
            cfg: measure_config(threads),
            plans: catalog(&w),
            basic: single_predicate_plans(SinglePredPlanSet::Basic, &w),
            w,
            grid2,
            grid1,
            truth2,
            truth1,
        }
    }

    fn map1d(&self, rec: &Recorder) -> Map1D {
        if !rec.is_enabled() {
            return build_map1d(&self.w, &self.basic, &self.grid1, &self.cfg);
        }
        let _span = rec.enter(Layer::Core, "build_map1d");
        let w = &self.w;
        let points: Vec<(i64, u64)> = self
            .grid1
            .sels()
            .iter()
            .map(|&s| w.cal_a.threshold_with_count(s))
            .collect();
        let specs: Vec<PlanSpec> = {
            let _s = rec.enter(Layer::Systems, "SinglePredPlan::build");
            self.basic
                .iter()
                .flat_map(|p| points.iter().map(|&(t, _)| p.build(t)))
                .collect()
        };
        let n = self.grid1.len();
        let tag = |i: usize| self.basic[i / n].name.clone();
        let results = sweep(&w.db, &specs, &tag, &self.cfg, rec);
        Map1D {
            sels: self.grid1.sels().to_vec(),
            result_rows: points.iter().map(|&(_, c)| c).collect(),
            series: self
                .basic
                .iter()
                .zip(results.chunks(n))
                .map(|(p, pts)| Series {
                    plan: p.name.clone(),
                    points: pts.to_vec(),
                })
                .collect(),
        }
    }
}

/// The analysis chain over a finished atlas, reduced to one digest per
/// product: quotients and best plans, each plan's region of optimality,
/// the multi-optimal count map, and each 1-D curve's cliffs and knees.
pub fn analyse(map2: &Map2D, map1: &Map1D) -> Vec<u64> {
    let rel = RelativeMap2D::from_map(map2);
    let tol = OptimalityTolerance::Factor(1.2);
    let mut out = Vec::new();
    for p in 0..map2.plan_count() {
        let region = RegionStats::of(&rel.optimal_region(p, tol));
        let text = format!(
            "{:e} {:e} {} {} {}",
            rel.worst_quotient(p),
            rel.area_within(p, 2.0),
            region.component_count,
            region.total_area,
            region.largest_area
        );
        out.push(digest(text.as_bytes()));
    }
    out.push(digest(
        format!("{:?}", rel.optimal_plan_counts(tol)).as_bytes(),
    ));
    let work: Vec<f64> = map1.result_rows.iter().map(|&r| r as f64).collect();
    for s in &map1.series {
        let found = detect_changepoints(&work, &s.seconds(), &ChangepointConfig::default());
        out.push(digest(format!("{:?}", found.changepoints).as_bytes()));
    }
    out
}

/// The render chain: every artifact the figures would write, kept in
/// memory and reduced to a digest.  An empty artifact digests to 0, which
/// the pass counts as a failure.
pub fn render(map2: &Map2D, map1: &Map1D) -> Vec<u64> {
    let rel = RelativeMap2D::from_map(map2);
    let mut artifacts: Vec<String> = Vec::new();
    for p in 0..map2.plan_count() {
        let title = &map2.plans[p];
        artifacts.push(heatmap_svg(
            &map2.seconds_grid(p),
            &map2.sel_a,
            &map2.sel_b,
            &absolute_scale(),
            title,
        ));
        artifacts.push(heatmap_svg(
            rel.quotient_grid(p),
            &map2.sel_a,
            &map2.sel_b,
            &relative_scale(),
            title,
        ));
    }
    artifacts.push(line_plot_svg(map1, "single-predicate selection", "seconds"));
    artifacts.push(map2d_to_csv(map2));
    artifacts.push(map1d_to_csv(map1));
    artifacts
        .iter()
        .map(|a| {
            if a.is_empty() {
                0
            } else {
                digest(a.as_bytes())
            }
        })
        .collect()
}

impl Scenario for ScanAtlas {
    fn warm_up(&mut self) {
        std::hint::black_box(build_map1d(
            &self.w,
            &self.basic,
            &Grid1D::pow2(4),
            &self.cfg,
        ));
    }

    fn pass(&mut self, rec: &Recorder, kernel: &mut Calibration) -> PassOutput {
        let mut out = PassOutput::default();
        let per_plan = self.grid2.cells();
        // One step per plan's map, then the 1-D map, then analysis and
        // render together.
        let mut grids = Vec::with_capacity(self.plans.len());
        for plan in &self.plans {
            let one = std::slice::from_ref(plan);
            let map = out.step(kernel, per_plan as u64, || {
                map2d(&self.w, one, &self.grid2, &self.cfg, rec)
            });
            if let Some(map) = map {
                out.failed += wrong_rows(map.plan_grid(0), |c| self.truth2[c]);
                out.cells.extend_from_slice(map.plan_grid(0));
                grids.push(map.plan_grid(0).to_vec());
            }
        }
        let map2 = (grids.len() == self.plans.len()).then(|| {
            Map2D::new(
                self.grid2.sel_a().to_vec(),
                self.grid2.sel_b().to_vec(),
                self.plans.iter().map(|p| p.name.clone()).collect(),
                grids,
            )
        });
        let cells1 = (self.basic.len() * self.grid1.len()) as u64;
        let map1 = out.step(kernel, cells1, || self.map1d(rec));
        if let Some(map1) = &map1 {
            for s in &map1.series {
                out.failed += wrong_rows(&s.points, |i| self.truth1[i]);
                out.cells.extend_from_slice(&s.points);
            }
        }
        if let (Some(map2), Some(map1)) = (&map2, &map1) {
            // Product counts are fixed by the catalog: one digest per plan
            // region, one count map, one changepoint set per 1-D curve;
            // two heat maps per plan, one line plot, two CSVs.
            let analysed = (self.plans.len() + 1 + self.basic.len()) as u64;
            let rendered = (2 * self.plans.len() + 3) as u64;
            let products = out.step(kernel, analysed + rendered, || {
                let found = {
                    let _s = rec.enter(Layer::Core, "analysis");
                    analyse(map2, map1)
                };
                let _s = rec.enter(Layer::Core, "render");
                (found, render(map2, map1))
            });
            let (found, drawn) = products.unzip();
            for d in drawn.iter().flatten() {
                out.failed += u64::from(*d == 0);
            }
            out.digests.extend(found.into_iter().flatten());
            out.digests.extend(drawn.into_iter().flatten());
        }
        out
    }

    fn notes(&self) -> Vec<(String, String)> {
        vec![
            ("rows".into(), self.w.rows().to_string()),
            ("heap_pages".into(), self.w.heap_pages().to_string()),
            ("pool_pages".into(), self.cfg.pool_pages.to_string()),
            (
                "cells_2d".into(),
                (self.plans.len() * self.grid2.cells()).to_string(),
            ),
            (
                "cells_1d".into(),
                (self.basic.len() * self.grid1.len()).to_string(),
            ),
        ]
    }
}
