//! Shared harness state: the workload (served from the workload cache),
//! measurement config, the two lazily built maps several figures share
//! (the all-systems 2-D map, of which System A's map is a slice, and the
//! Figure 1 1-D map), and artifact output.

use std::cell::OnceCell;
use std::path::{Path, PathBuf};

use robustmap_core::render::AsciiOptions;
use robustmap_core::{
    build_map1d, build_map2d, Grid1D, Grid2D, Map1D, Map2D, MeasureConfig, RegressionSuite,
};
use robustmap_obs::warn;
use robustmap_systems::{single_predicate_plans, SinglePredPlanSet};
use robustmap_workload::{TableBuilder, Workload, WorkloadConfig};

use crate::lab::full_catalog;

/// Plain-character 2-D maps for the printed reports.
pub(crate) const PLAIN_CELLS: AsciiOptions = AsciiOptions { ansi: false, cell_width: 2 };

/// Harness scale parameters.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Table rows (paper: 60M; default here: 2^20, recorded in
    /// `docs/EXPERIMENTS.md`).
    pub rows: u64,
    /// Grid exponent: axes run `2^-grid_exp ..= 1` in factor-2 steps.
    pub grid_exp: u32,
    /// Where CSV/SVG artifacts go.
    pub out_dir: PathBuf,
    /// Measurement conditions.
    pub measure: MeasureConfig,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            rows: 1 << 20,
            grid_exp: 16,
            out_dir: PathBuf::from("target/figures"),
            measure: MeasureConfig::default(),
        }
    }
}

/// One regenerated figure: its printed report, written artifact files, its
/// named checks, and how long the regeneration took.  [`crate::gate`] reads
/// `files` and `checks`; nothing declares either a second time.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Figure id, e.g. `"fig7"` — stamped by [`crate::run_figure`] from the
    /// [`crate::FIGURES`] table, so figure bodies never spell their own id.
    pub name: &'static str,
    /// The text the harness prints (series, landmarks, statistics).
    pub report: String,
    /// Paths of artifacts written (CSV, SVG, checks).
    pub files: Vec<PathBuf>,
    /// The figure's named pass/fail checks, for the figures that have any.
    pub checks: Option<RegressionSuite>,
    /// Real (wall clock) seconds the sweep + rendering took, filled in by
    /// [`crate::run_figure`].  Orientation only: `benchmark/` is the
    /// performance ledger.
    pub wall_seconds: f64,
}

impl FigureOutput {
    /// A check-less figure output; the runner stamps name and wall time.
    pub fn new(report: String, files: Vec<PathBuf>) -> Self {
        FigureOutput { name: "", report, files, checks: None, wall_seconds: 0.0 }
    }

    /// The one checks epilogue: close `report` with the "regression checks
    /// over `<subject>`" section and the suite's verdict, write the same
    /// text as `<stem>_checks.txt`, and carry the suite for the gate.
    pub fn with_checks(
        h: &Harness,
        stem: &str,
        subject: &str,
        suite: RegressionSuite,
        mut report: String,
        mut files: Vec<PathBuf>,
    ) -> Self {
        let verdict = if suite.passed() { "PASS" } else { "FAIL" };
        let checks = format!("{}verdict: {verdict}\n", suite.report());
        report.push_str(&format!("\nregression checks over {subject}:\n{checks}"));
        files.push(h.write_artifact(&format!("{stem}_checks.txt"), &checks));
        FigureOutput { checks: Some(suite), ..FigureOutput::new(report, files) }
    }
}

/// Workload + caches shared by all figure functions.
pub struct Harness {
    /// The built workload.
    pub w: Workload,
    /// Scale parameters.
    pub config: HarnessConfig,
    map_all: OnceCell<Map2D>,
    map1_basic: OnceCell<Map1D>,
}

impl Harness {
    /// Prepare the output directory, then build (or load from the workload
    /// cache) the workload.  Fails when the directory cannot be created;
    /// `config.rows` must be at least 4 (the `figures` binary checks).
    pub fn new(config: HarnessConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&config.out_dir)?;
        let w = TableBuilder::build_cached(WorkloadConfig::with_rows(config.rows));
        Ok(Harness {
            w,
            config,
            map_all: OnceCell::new(),
            map1_basic: OnceCell::new(),
        })
    }

    /// A fast harness for tests: 2^14 rows, 2^-8 grids, artifacts under
    /// `target/figures-test`.  The MANIFEST pins every artifact of `all`
    /// at this scale.
    pub fn tiny() -> Self {
        Self::new(HarnessConfig {
            rows: 1 << 14,
            grid_exp: 8,
            out_dir: PathBuf::from("target/figures-test"),
            ..Default::default()
        })
        .expect("create target/figures-test")
    }

    /// The 2-D grid all two-predicate maps use.
    pub fn grid2d(&self) -> Grid2D {
        Grid2D::pow2(self.config.grid_exp)
    }

    /// System A's seven-plan 2-D map (Figures 4, 5, 7): the "A" slice of
    /// the all-systems map.  Cells are measured in isolation, so the slice
    /// equals a dedicated sweep of System A's plans.
    pub fn map_system_a(&self) -> Map2D {
        self.map_all_systems().subset_by_prefix("A")
    }

    /// The all-systems fifteen-plan map (Figures 8-10, extensions), built
    /// once.
    pub fn map_all_systems(&self) -> Map2D {
        let build =
            || build_map2d(&self.w, &full_catalog(&self.w), &self.grid2d(), &self.config.measure);
        self.map_all.get_or_init(build).clone()
    }

    /// The Figure 1 single-predicate map (basic plan set over the full
    /// grid), built once and shared with the regression suite.
    pub fn map1d_basic(&self) -> Map1D {
        let build = || {
            let plans = single_predicate_plans(SinglePredPlanSet::Basic, &self.w);
            let grid = Grid1D::pow2(self.config.grid_exp);
            build_map1d(&self.w, &plans, &grid, &self.config.measure)
        };
        self.map1_basic.get_or_init(build).clone()
    }

    /// Write an artifact file, returning its path.  A failed write is a
    /// warning here and a missing artifact to [`crate::gate`]: it fails
    /// the figure, not the run.
    pub fn write_artifact(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.config.out_dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            warn!("cannot write {}: {e}", path.display());
        }
        path
    }

    /// The output directory.
    pub fn out_dir(&self) -> &Path {
        &self.config.out_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_systems::{two_predicate_plans, SystemId};

    #[test]
    fn tiny_harness_builds_and_caches_maps() {
        let h = Harness::tiny();
        let m1 = h.map_system_a();
        let m2 = h.map_system_a();
        assert_eq!(m1, m2);
        assert_eq!(m1.plan_count(), 7);
        assert_eq!(m1.dims(), (9, 9));
        let all = h.map_all_systems();
        assert_eq!(all.plan_count(), 15);
    }

    #[test]
    fn system_a_map_is_the_same_standalone_or_carved_from_all_systems() {
        // The carved slice must equal a dedicated sweep of System A's seven
        // plans: this is what lets Figures 4, 5 and 7 read the fifteen-plan
        // map without their artifacts moving.
        let h = Harness::tiny();
        let plans = two_predicate_plans(SystemId::A, &h.w);
        let standalone = build_map2d(&h.w, &plans, &h.grid2d(), &h.config.measure);
        assert_eq!(h.map_system_a(), standalone);
    }

    #[test]
    fn artifacts_are_written() {
        let h = Harness::tiny();
        let p = h.write_artifact("smoke.txt", "hello");
        assert!(p.exists());
        assert_eq!(std::fs::read_to_string(p).unwrap(), "hello");
    }
}
