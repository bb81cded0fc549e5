//! Robustness scores: the benchmark the paper sketches in §4.
//!
//! "With the experience thus gained, we will then define a benchmark that
//! focuses on robustness of query execution ...  This benchmark will
//! identify weaknesses in the algorithms and their implementation, track
//! progress against these weaknesses, and permit daily regression testing."
//!
//! A [`RobustnessScore`] condenses one plan's map into the quantities the
//! paper reads off its figures: worst-case quotient, coverage within small
//! factors of the best plan, smoothness, and contiguity of the optimality
//! region.  Scores order plans by *robustness*, not by peak performance —
//! the trade-off §3.3 ends on ("robustness might well trump performance").
//!
//! Smoothness is judged by the changepoint detector
//! ([`crate::analysis::changepoint`]) and enters the headline as a
//! *severity-weighted* penalty: a 1000x spill cliff costs far more than a
//! marginal 4x one, and a knee (slope break without a level shift) costs
//! less than any cliff — raw changepoint counts would rank a plan with one
//! catastrophic cliff above one with two benign knees.

use crate::analysis::changepoint::{detect_changepoints, ChangeClass, ChangepointConfig};
use crate::analysis::monotonicity::monotonicity_violations;
use crate::regions::RegionStats;
use crate::relative::{OptimalityTolerance, RelativeMap2D};

/// Condensed robustness metrics for one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessScore {
    /// Plan name.
    pub plan: String,
    /// Worst quotient vs. the best plan anywhere in the space.
    pub worst_quotient: f64,
    /// Fraction of the space within 2x of the best plan.
    pub area_within_2x: f64,
    /// Fraction of the space within 10x of the best plan.
    pub area_within_10x: f64,
    /// Cost cliffs (level shifts) along axis-parallel sweeps.
    pub cliffs: usize,
    /// Cost knees (slope breaks) along axis-parallel sweeps.
    pub knees: usize,
    /// Σ log10 of cliff severities — the severity-weighted cliff penalty
    /// (one 1000x cliff weighs like three 10x ones).
    pub cliff_log10_severity: f64,
    /// Σ knee slope-break magnitudes.
    pub knee_severity: f64,
    /// Number of monotonicity violations along axis-parallel sweeps.
    pub monotonicity_violations: usize,
    /// Cells the changepoint detector had to exclude (non-finite or
    /// non-positive measurements) across all sweeps.  A non-zero count
    /// means the smoothness numbers describe an incomplete curve — the
    /// score CSV carries it so a leaderboard entry cannot look clean by
    /// silently dropping broken cells.
    pub excluded_cells: usize,
    /// Stats of the plan's strict-ish optimality region (factor 1.2).
    pub region: RegionStats,
}

impl RobustnessScore {
    /// A single headline number in `[0, 1]`: the harmonic blend of
    /// coverage terms penalised by the worst-case quotient and by
    /// severity-weighted smoothness defects.  Designed for regression
    /// tracking, not for cross-paper comparison.
    pub fn headline(&self) -> f64 {
        let coverage = 0.5 * self.area_within_2x + 0.5 * self.area_within_10x;
        let worst_penalty = 1.0 / (1.0 + self.worst_quotient.log10().max(0.0));
        let smooth_penalty = 1.0
            / (1.0
                + 2.0 * self.cliff_log10_severity
                + 0.5 * self.knee_severity
                + self.monotonicity_violations as f64);
        coverage * worst_penalty.sqrt() * smooth_penalty.sqrt()
    }
}

/// Smoothness defects of one axis-parallel sweep, accumulated.
#[derive(Debug, Clone, Copy, Default)]
struct Smoothness {
    cliffs: usize,
    knees: usize,
    cliff_log10: f64,
    knee_severity: f64,
    monos: usize,
    excluded: usize,
}

impl Smoothness {
    fn absorb(&mut self, work: &[f64], cost: &[f64], cp: &ChangepointConfig, mono_tol: f64) {
        let analysis = detect_changepoints(work, cost, cp);
        self.excluded += analysis.diagnostics.len();
        for c in &analysis.changepoints {
            match c.class {
                ChangeClass::Cliff => {
                    self.cliffs += 1;
                    self.cliff_log10 += c.severity.log10();
                }
                ChangeClass::Knee => {
                    self.knees += 1;
                    self.knee_severity += c.severity;
                }
            }
        }
        self.monos += monotonicity_violations(work, cost, mono_tol).len();
    }
}

/// Score one plan of a 2-D relative map.  Sweeps rows and columns for
/// smoothness checks (cost as a function of each selectivity axis).
pub fn score_map2d(rel: &RelativeMap2D, plan: usize, absolute_seconds: &[f64]) -> RobustnessScore {
    let (na, nb) = rel.dims();
    assert_eq!(absolute_seconds.len(), na * nb, "seconds grid size mismatch");
    let cp = ChangepointConfig::default();
    let mut smooth = Smoothness::default();
    // Row sweeps (fix ib, vary ia).
    for ib in 0..nb {
        let work: Vec<f64> = rel.sel_a.to_vec();
        let cost: Vec<f64> = (0..na).map(|ia| absolute_seconds[ia * nb + ib]).collect();
        smooth.absorb(&work, &cost, &cp, 0.05);
    }
    // Column sweeps (fix ia, vary ib).
    for ia in 0..na {
        let work: Vec<f64> = rel.sel_b.to_vec();
        let cost: Vec<f64> = (0..nb).map(|ib| absolute_seconds[ia * nb + ib]).collect();
        smooth.absorb(&work, &cost, &cp, 0.05);
    }
    let region = RegionStats::of(&rel.optimal_region(plan, OptimalityTolerance::Factor(1.2)));
    RobustnessScore {
        plan: rel.plans[plan].clone(),
        worst_quotient: rel.worst_quotient(plan),
        area_within_2x: rel.area_within(plan, 2.0),
        area_within_10x: rel.area_within(plan, 10.0),
        cliffs: smooth.cliffs,
        knees: smooth.knees,
        cliff_log10_severity: smooth.cliff_log10,
        knee_severity: smooth.knee_severity,
        monotonicity_violations: smooth.monos,
        excluded_cells: smooth.excluded,
        region,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::Map2D;
    use crate::measure::Measurement;

    fn m(seconds: f64) -> Measurement {
        Measurement { seconds, ..Default::default() }
    }

    fn rel_map() -> (RelativeMap2D, Vec<Vec<f64>>) {
        // 2x2: robust plan (always within 2x) vs. fragile plan (optimal at
        // one corner, catastrophic at another).
        let robust = vec![m(2.0), m(2.0), m(2.0), m(2.0)];
        let fragile = vec![m(1.0), m(1.5), m(3.0), m(2000.0)];
        let map = Map2D::new(
            vec![0.5, 1.0],
            vec![0.5, 1.0],
            vec!["robust".into(), "fragile".into()],
            vec![robust, fragile],
        );
        let grids = vec![map.seconds_grid(0), map.seconds_grid(1)];
        (RelativeMap2D::from_map(&map), grids)
    }

    #[test]
    fn robust_plan_scores_higher() {
        let (rel, grids) = rel_map();
        let s_robust = score_map2d(&rel, 0, &grids[0]);
        let s_fragile = score_map2d(&rel, 1, &grids[1]);
        assert!(s_robust.worst_quotient <= 2.0);
        assert!(s_fragile.worst_quotient >= 1000.0);
        assert!(s_robust.headline() > s_fragile.headline());
    }

    #[test]
    fn fragile_plan_shows_a_severity_weighted_cliff() {
        // 4x1: the fragile plan's cost explodes 800x between adjacent
        // selectivities while the robust plan stays flat.
        let robust = vec![m(2.0), m(2.0), m(2.0), m(2.0)];
        let fragile = vec![m(1.0), m(1.1), m(900.0), m(990.0)];
        let map = Map2D::new(
            vec![0.125, 0.25, 0.5, 1.0],
            vec![1.0],
            vec!["robust".into(), "fragile".into()],
            vec![robust, fragile],
        );
        let rel = RelativeMap2D::from_map(&map);
        let s = score_map2d(&rel, 1, &map.seconds_grid(1));
        assert!(s.cliffs > 0, "1.1 -> 900 along an axis is a cliff: {s:?}");
        assert!(
            s.cliff_log10_severity > 2.0,
            "an ~800x jump carries its severity: {}",
            s.cliff_log10_severity
        );
        let clean = score_map2d(&rel, 0, &map.seconds_grid(0));
        assert_eq!(clean.cliffs + clean.knees, 0);
        assert!(clean.headline() > s.headline());
    }
}
