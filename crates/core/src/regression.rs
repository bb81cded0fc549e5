//! The robustness regression benchmark (paper §4).
//!
//! "This benchmark will identify weaknesses in the algorithms and their
//! implementation, track progress against these weaknesses, and permit
//! daily regression testing in order to protect the progress against
//! accidental regression due to other, seemingly unrelated, software
//! changes."
//!
//! A [`RegressionSuite`] runs named checks over measured maps and reports
//! pass/fail with details — the artifact a CI job would gate on.  The
//! standard checks encode the paper's reading rules: monotone cost curves,
//! flattening, no unexplained discontinuities, bounded worst-case
//! quotients, contiguous optimality regions.

use crate::analysis::changepoint::{detect_changepoints, ChangepointConfig};
use crate::analysis::flattening::flattening_violations;
use crate::analysis::monotonicity::monotonicity_violations;
use crate::map::{Map1D, Map2D};
use crate::regions::RegionStats;
use crate::relative::{OptimalityTolerance, RelativeMap2D};

/// Relative cost decrease tolerated before a monotonicity violation is
/// flagged (measurement jitter allowance).
const MONOTONICITY_TOLERANCE: f64 = 0.05;

/// Slope-growth factor tolerated before flattening is violated.
const FLATTENING_TOLERANCE: f64 = 2.0;

/// Optimality tolerance of the region-contiguity checks.
const REGION_TOLERANCE: OptimalityTolerance = OptimalityTolerance::Factor(1.2);

/// Outcome of one named check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Check identifier, e.g. `"monotone: improved index scan"`.
    pub name: String,
    /// Whether the check passed.
    pub passed: bool,
    /// Human-readable findings (empty when passed without remarks).
    pub details: String,
    /// Why a failed check is a known divergence: reported, not failed.
    pub diverges: Option<String>,
}

impl CheckResult {
    /// Whether the check fails its suite: failed and not excused.
    pub fn fails(&self) -> bool {
        !self.passed && self.diverges.is_none()
    }
}

/// A collection of check results with a pass/fail summary.
#[derive(Debug, Clone, Default)]
pub struct RegressionSuite {
    /// All results, in execution order.
    pub results: Vec<CheckResult>,
    /// Checks a run could not evaluate, each with the setup it lacked.
    /// They are reported, and neither pass nor fail.
    pub not_evaluated: Vec<(String, String)>,
}

impl RegressionSuite {
    /// An empty suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of failed checks.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| r.fails()).count()
    }

    /// Whether no check fails.
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    fn push(&mut self, name: String, passed: bool, details: String) {
        self.results.push(CheckResult { name, passed, details, diverges: None });
    }

    /// Record an externally evaluated check — experiment-specific criteria
    /// that do not fit the standard map checks (e.g. `ext_robust_choice`'s
    /// chooser-vs-chooser comparisons), reported and gated alongside them.
    pub fn check_named(&mut self, name: &str, passed: bool, details: String) {
        self.push(name.to_string(), passed, details);
    }

    /// Evaluate the check `name` unless `missing` names setup the run
    /// lacks, in which case it is recorded as not evaluated.  `eval`
    /// returns the verdict and its details; an `Err` fails the check.
    pub fn check_unless(
        &mut self,
        missing: Option<String>,
        name: &str,
        eval: impl FnOnce() -> Result<(bool, String), String>,
    ) {
        match missing {
            Some(missing) => self.not_evaluated.push((name.to_string(), missing)),
            None => {
                let (passed, details) = eval().unwrap_or_else(|e| (false, e));
                self.push(name.to_string(), passed, details);
            }
        }
    }

    /// Mark the failed check `name` a known divergence for `reason`: it is
    /// reported as such and no longer fails the suite.
    pub fn excuse(&mut self, name: &str, reason: &str) {
        for r in self.results.iter_mut().filter(|r| !r.passed && r.name == name) {
            r.diverges = Some(reason.to_string());
        }
    }

    /// Run the 1-D checks on every series of a map: monotonicity and
    /// discontinuities (flattening is reported but informational, since
    /// the paper *expects* some plans to fail it).  Continuity uses the
    /// default changepoint criterion: a cliff (level shift beyond its
    /// `cliff_factor`) fails the check; a knee (slope break) is reported
    /// but does not fail — the paper expects graceful degradation to bend,
    /// just not to jump.
    pub fn check_map1d(&mut self, map: &Map1D) {
        let changepoint = ChangepointConfig::default();
        let raw_work: Vec<f64> = map.result_rows.iter().map(|&r| (r.max(1)) as f64).collect();
        // Discrete grids legitimately produce tied result counts (tiny
        // selectivities clamping to the same row count): grid cells with
        // equal work measure the same effective point, so keep only cells
        // that strictly advance past the last *kept* value rather than
        // letting the detector flag a non-ascending axis on a healthy
        // curve.  Dropped cells are remembered with their kept twin: a
        // cost jump between same-work cells is an (infinite-slope)
        // discontinuity the filtered sweep cannot see, and outright
        // non-monotone result counts are surfaced as reduced coverage.
        let mut last_kept = f64::NEG_INFINITY;
        let mut keep: Vec<usize> = Vec::with_capacity(raw_work.len());
        let mut dropped: Vec<(usize, usize, bool)> = Vec::new(); // (cell, kept twin, is_tie)
        for (i, &w) in raw_work.iter().enumerate() {
            if w > last_kept {
                keep.push(i);
                last_kept = w;
            } else {
                let twin = *keep.last().expect("the first cell is always kept");
                dropped.push((i, twin, w == last_kept));
            }
        }
        let work: Vec<f64> = keep.iter().map(|&i| raw_work[i]).collect();
        let dips = dropped.iter().filter(|&&(_, _, is_tie)| !is_tie).count();
        for series in &map.series {
            let all_secs = series.seconds();
            let secs: Vec<f64> = keep.iter().map(|&i| all_secs[i]).collect();
            let monos = monotonicity_violations(&work, &secs, MONOTONICITY_TOLERANCE);
            self.push(
                format!("monotone: {}", series.plan),
                monos.is_empty(),
                if monos.is_empty() {
                    String::new()
                } else {
                    format!("{} cost dip(s), worst {:.1}%", monos.len(), monos
                        .iter()
                        .map(|v| v.drop)
                        .fold(0.0f64, f64::max)
                        * 100.0)
                },
            );
            let analysis = detect_changepoints(&work, &secs, &changepoint);
            let cliffs = analysis.cliff_count();
            let knees = analysis.knee_count();
            // A cost jump between tied-work cells (same result count,
            // different threshold) is a discontinuity in its own right.
            let tie_jump = dropped
                .iter()
                .filter(|&&(_, _, is_tie)| is_tie)
                .filter_map(|&(i, twin, _)| {
                    let (a, b) = (all_secs[twin], all_secs[i]);
                    (a > 0.0 && b > 0.0).then(|| (b / a).max(a / b))
                })
                .filter(|&r| r > changepoint.cliff_factor)
                .fold(None::<f64>, |acc, r| Some(acc.map_or(r, |a| a.max(r))));
            let ok = cliffs == 0 && analysis.diagnostics.is_empty() && tie_jump.is_none();
            let mut details = String::new();
            let mut add = |s: &str| {
                if !details.is_empty() {
                    details.push_str("; ");
                }
                details.push_str(s);
            };
            if cliffs > 0 {
                add(&format!(
                    "{cliffs} cliff(s), worst {:.0}x unexplained",
                    analysis.cliffs().map(|c| c.severity).fold(0.0f64, f64::max)
                ));
            }
            if let Some(r) = tie_jump {
                add(&format!("cost jumps {r:.0}x between cells with tied result counts"));
            }
            for diag in &analysis.diagnostics {
                add(diag);
            }
            if ok && knees > 0 {
                add(&format!(
                    "{knees} knee(s) — slope break without a level shift, informational"
                ));
            }
            if dips > 0 {
                add(&format!(
                    "{dips} cell(s) with non-ascending result counts excluded from the sweep"
                ));
            }
            self.push(format!("continuous: {}", series.plan), ok, details);
            let flats = flattening_violations(&work, &secs, FLATTENING_TOLERANCE);
            self.push(
                format!("flattening (informational): {}", series.plan),
                true, // informational: the paper expects e.g. Figure 1 to fail
                if flats.is_empty() {
                    String::new()
                } else {
                    format!("steepens at {} segment(s)", flats.len())
                },
            );
        }
    }

    /// Run the 2-D checks: per-plan worst quotient and region contiguity,
    /// plus the global every-cell-has-an-optimum invariant.  A plan whose
    /// name starts with one of `robust_plans` is advertised as robust: its
    /// worst-case quotient may not exceed `max_worst_quotient`.
    pub fn check_map2d(&mut self, map: &Map2D, robust_plans: &[&str], max_worst_quotient: f64) {
        let rel = RelativeMap2D::from_map(map);
        for (p, name) in rel.plans.iter().enumerate() {
            let worst = rel.worst_quotient(p);
            if robust_plans.iter().any(|r| name.starts_with(r)) {
                self.push(
                    format!("bounded worst case: {name}"),
                    worst <= max_worst_quotient,
                    format!("worst quotient {worst:.1}x (limit {max_worst_quotient:.0}x)"),
                );
            }
            let stats = RegionStats::of(&rel.optimal_region(p, REGION_TOLERANCE));
            self.push(
                format!("contiguous optimality region: {name}"),
                stats.is_contiguous(),
                if stats.is_contiguous() {
                    String::new()
                } else {
                    format!(
                        "{} components (largest {} of {} cells) — §3.4: suspect an \
                         implementation idiosyncrasy",
                        stats.component_count, stats.largest_area, stats.total_area
                    )
                },
            );
        }
    }

    /// Plain-text report: one line per check, then one per check not
    /// evaluated.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            let details =
                if r.details.is_empty() { String::new() } else { format!(" — {}", r.details) };
            let verdict = if r.passed { "PASS" } else { "FAIL" };
            out.push_str(&match &r.diverges {
                Some(reason) => format!("diverges: {} — {reason}{details}\n", r.name),
                None => format!("[{verdict}] {}{details}\n", r.name),
            });
        }
        for (name, missing) in &self.not_evaluated {
            out.push_str(&format!("not evaluated: {name} — {missing}\n"));
        }
        out.push_str(&format!(
            "{} checks, {} failed\n",
            self.results.len(),
            self.failures()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::Series;
    use crate::measure::Measurement;

    fn m(seconds: f64) -> Measurement {
        Measurement { seconds, ..Default::default() }
    }

    fn map1d(series: Vec<(&str, Vec<f64>)>) -> Map1D {
        let n = series[0].1.len();
        Map1D {
            sels: (1..=n).map(|i| i as f64 / n as f64).collect(),
            result_rows: (1..=n).map(|i| (i * i) as u64).collect(),
            series: series
                .into_iter()
                .map(|(name, secs)| Series {
                    plan: name.into(),
                    points: secs.into_iter().map(m).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn clean_map_passes() {
        let map = map1d(vec![("good", vec![1.0, 1.5, 2.0, 2.5])]);
        let mut suite = RegressionSuite::new();
        suite.check_map1d(&map);
        assert!(suite.passed(), "{}", suite.report());
    }

    #[test]
    fn cost_dip_fails_monotonicity() {
        let map = map1d(vec![("dippy", vec![1.0, 3.0, 0.5, 4.0])]);
        let mut suite = RegressionSuite::new();
        suite.check_map1d(&map);
        assert!(!suite.passed());
        let fail = suite.results.iter().find(|r| !r.passed).unwrap();
        assert!(fail.name.contains("monotone"));
        assert!(fail.details.contains("dip"));
    }

    #[test]
    fn spill_cliff_fails_continuity() {
        let map = map1d(vec![("cliffy", vec![0.001, 0.002, 1.0, 1.1])]);
        let mut suite = RegressionSuite::new();
        suite.check_map1d(&map);
        assert!(suite.results.iter().any(|r| !r.passed && r.name.contains("continuous")));
    }

    #[test]
    fn tied_result_counts_do_not_fail_continuity() {
        // Tiny selectivities clamp to the same result count on discrete
        // grids; the duplicated work values must not trip any check.
        let map = Map1D {
            sels: vec![0.125, 0.25, 0.5, 0.75, 1.0],
            result_rows: vec![1, 1, 2, 4, 8],
            series: vec![Series {
                plan: "tiny".into(),
                points: vec![m(1.0), m(1.0), m(1.4), m(2.0), m(2.9)],
            }],
        };
        let mut suite = RegressionSuite::new();
        suite.check_map1d(&map);
        assert!(suite.passed(), "{}", suite.report());
    }

    #[test]
    fn cost_jump_at_tied_result_counts_fails_continuity() {
        // Two cells with the same result count but a 900x cost gap: an
        // infinite-slope discontinuity that the dedup filter must not
        // hide from the continuity check.
        let map = Map1D {
            sels: vec![0.125, 0.25, 0.5, 1.0],
            result_rows: vec![1, 1, 2, 4],
            series: vec![Series {
                plan: "tie jump".into(),
                points: vec![m(1.0), m(900.0), m(1.4), m(2.0)],
            }],
        };
        let mut suite = RegressionSuite::new();
        suite.check_map1d(&map);
        let cont = suite.results.iter().find(|r| r.name.contains("continuous")).unwrap();
        assert!(!cont.passed, "{}", suite.report());
        assert!(cont.details.contains("tied result counts"), "{}", cont.details);
    }

    #[test]
    fn non_monotone_result_counts_do_not_fail_continuity() {
        // A dip in result counts must drop every cell until the axis
        // strictly advances past the last kept value — comparing only
        // adjacent cells would keep the partial recovery and hand the
        // detector a non-ascending axis (a false continuity FAIL).
        let map = Map1D {
            sels: vec![0.125, 0.25, 0.5, 1.0],
            result_rows: vec![100, 40, 60, 200],
            series: vec![Series {
                plan: "dip".into(),
                points: vec![m(1.0), m(1.0), m(1.0), m(1.4)],
            }],
        };
        let mut suite = RegressionSuite::new();
        suite.check_map1d(&map);
        let cont = suite.results.iter().find(|r| r.name.contains("continuous")).unwrap();
        assert!(cont.passed, "{}", suite.report());
    }

    #[test]
    fn flattening_is_informational_only() {
        // A steepening curve without a level shift (Figure 1's improved
        // scan) is reported, not failed: cost = work² over work 1, 4, 9,
        // 16 is a straight line in log-log space, but its linear slope
        // more than doubles after the first segment.
        let map = map1d(vec![("steep", vec![1.0, 16.0, 81.0, 256.0])]);
        let mut suite = RegressionSuite::new();
        suite.check_map1d(&map);
        assert!(suite.passed(), "{}", suite.report());
        let flat = suite.results.iter().find(|r| r.name.contains("flattening")).unwrap();
        assert!(flat.details.contains("steepens"));
    }

    #[test]
    fn named_checks_gate_like_standard_ones() {
        let mut suite = RegressionSuite::new();
        suite.check_named("robust chooser beats the point chooser", true, "2% vs 55%".into());
        assert!(suite.passed());
        suite.check_named("worst regret shrank", false, "14.5x unchanged".into());
        assert!(!suite.passed());
        assert_eq!(suite.failures(), 1);
        let report = suite.report();
        assert!(report.contains("[PASS] robust chooser beats the point chooser — 2% vs 55%"));
        assert!(report.contains("[FAIL] worst regret shrank"));
        assert!(report.contains("2 checks, 1 failed"));
    }

    #[test]
    fn map2d_checks_worst_case_and_contiguity() {
        // Plan "robust" stays within 2x; plan "wild" hits 1000x and has a
        // split optimality region.
        let robust = vec![m(2.0), m(2.0), m(2.0), m(2.0), m(2.0), m(2.0), m(2.0), m(2.0), m(2.0)];
        let wild = vec![m(1.0), m(3.0), m(1.0), m(3.0), m(3.0), m(3.0), m(1.0), m(3.0), m(2000.0)];
        let map = Map2D::new(
            vec![0.25, 0.5, 1.0],
            vec![0.25, 0.5, 1.0],
            vec!["robust".into(), "wild".into()],
            vec![robust, wild],
        );
        let mut suite = RegressionSuite::new();
        suite.check_map2d(&map, &["robust"], 100.0);
        assert!(suite
            .results
            .iter()
            .any(|r| r.passed && r.name == "bounded worst case: robust"));
        // "wild" is not in the robust set, so no worst-case gate for it,
        // but its region contiguity is still reported.
        assert!(suite
            .results
            .iter()
            .any(|r| r.name == "contiguous optimality region: wild" && !r.passed));
        let report = suite.report();
        assert!(report.contains("FAIL"));
        assert!(report.contains("idiosyncrasy"));
    }

    #[test]
    fn excused_and_skipped_checks_are_reported_but_do_not_fail() {
        let mut suite = RegressionSuite::new();
        suite.check_named("holds", true, String::new());
        suite.check_named("known miss", false, "84%".into());
        suite.check_unless(None, "new miss", || Err(String::new()));
        let missing = Some("the table fits the pool".to_string());
        suite.check_unless(missing, "needs a big table", || unreachable!());
        suite.excuse("known miss", "why");
        suite.excuse("holds", "a passing check is never excused");
        assert_eq!((suite.results.len(), suite.failures()), (3, 1));
        assert!(suite.results[0].diverges.is_none());
        let report = suite.report();
        assert!(report.contains("diverges: known miss — why — 84%\n"), "{report}");
        assert!(report.contains("[FAIL] new miss\n"), "{report}");
        assert!(report.contains("not evaluated: needs a big table — the table fits the pool\n"));
        assert!(report.ends_with("3 checks, 1 failed\n"), "{report}");
    }
}
