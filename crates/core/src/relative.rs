//! Relative performance: quotients against the best plan at each point.
//!
//! "We then plotted the relative performance of each individual plan
//! compared to the optimal plan at each point in the parameter space.  A
//! given plan is optimal if its performance is equal to the optimal
//! performance among all plans, i.e., the quotient of costs is 1." (§3.3)
//!
//! [`RelativeMap2D`] derives those quotients from an absolute [`Map2D`] and
//! answers the questions Figures 7-9 pose: worst-case quotient, the area a
//! plan covers within a factor of the best, and its region of optimality
//! under a tolerance.

use crate::map::Map2D;
use crate::regions::BoolGrid;

/// When are two costs "practically equivalent"?  (§3.4: "two plans with
/// actual execution costs within 1% of each other are practically
/// equivalent.  Whether this tolerance ends at 1% difference, at 20%
/// difference, or at a factor of 2 depends on one's tradeoff between
/// performance and robustness".)  Figure 10's 0.1 s was measurement error;
/// the simulated clock has none, so a tolerance is a factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimalityTolerance {
    /// Within a multiplicative factor of the best (1.01 = 1%, 2.0 = 2x).
    Factor(f64),
}

impl OptimalityTolerance {
    /// Whether `seconds` is considered optimal given the best cost.
    pub fn admits(&self, seconds: f64, best: f64) -> bool {
        let OptimalityTolerance::Factor(f) = *self;
        seconds <= best * f
    }
}

/// Quotient map: per plan and per cell, `cost / best cost at that cell`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelativeMap2D {
    /// The `a` (x) axis.
    pub sel_a: Vec<f64>,
    /// The `b` (y) axis.
    pub sel_b: Vec<f64>,
    /// Plan names.
    pub plans: Vec<String>,
    /// `quotients[plan][ia * |b| + ib]`, always `>= 1`.
    quotients: Vec<Vec<f64>>,
    /// Index of the best plan per cell (lowest seconds; ties -> lowest
    /// plan index, deterministically).
    best_plan: Vec<usize>,
    /// Best seconds per cell.
    best_seconds: Vec<f64>,
}

impl RelativeMap2D {
    /// Derive the quotient map from an absolute map.
    pub fn from_map(map: &Map2D) -> Self {
        let (na, nb) = map.dims();
        let cells = na * nb;
        assert!(map.plan_count() > 0, "relative map needs at least one plan");
        let mut best_plan = vec![0usize; cells];
        let mut best_seconds = vec![f64::INFINITY; cells];
        for p in 0..map.plan_count() {
            let grid = map.plan_grid(p);
            for (c, m) in grid.iter().enumerate() {
                if m.seconds < best_seconds[c] {
                    best_seconds[c] = m.seconds;
                    best_plan[c] = p;
                }
            }
        }
        let quotients = (0..map.plan_count())
            .map(|p| {
                map.plan_grid(p)
                    .iter()
                    .enumerate()
                    .map(|(c, m)| {
                        if best_seconds[c] > 0.0 {
                            m.seconds / best_seconds[c]
                        } else {
                            1.0
                        }
                    })
                    .collect()
            })
            .collect();
        RelativeMap2D {
            sel_a: map.sel_a.clone(),
            sel_b: map.sel_b.clone(),
            plans: map.plans.clone(),
            quotients,
            best_plan,
            best_seconds,
        }
    }

    /// Grid dimensions `(|a|, |b|)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.sel_a.len(), self.sel_b.len())
    }

    /// Quotient of `plan` at `(ia, ib)`.
    pub fn quotient(&self, plan: usize, ia: usize, ib: usize) -> f64 {
        self.quotients[plan][ia * self.sel_b.len() + ib]
    }

    /// The full quotient grid of one plan (ia-major).
    pub fn quotient_grid(&self, plan: usize) -> &[f64] {
        &self.quotients[plan]
    }

    /// Index of the best plan at `(ia, ib)`.
    pub fn best_plan_at(&self, ia: usize, ib: usize) -> usize {
        self.best_plan[ia * self.sel_b.len() + ib]
    }

    /// Best cost at `(ia, ib)`.
    pub fn best_seconds_at(&self, ia: usize, ib: usize) -> f64 {
        self.best_seconds[ia * self.sel_b.len() + ib]
    }

    /// The worst (largest) quotient of a plan anywhere on the map —
    /// Figure 7 reports "a factor of 101,000" for the single-index plan.
    pub fn worst_quotient(&self, plan: usize) -> f64 {
        self.quotients[plan].iter().copied().fold(1.0, f64::max)
    }

    /// Fraction of cells where the plan is within `factor` of the best.
    pub fn area_within(&self, plan: usize, factor: f64) -> f64 {
        let grid = &self.quotients[plan];
        grid.iter().filter(|&&q| q <= factor).count() as f64 / grid.len() as f64
    }

    /// The plan's region of optimality under `tol` as a boolean grid
    /// (Figures 8-10, §3.4).
    pub fn optimal_region(&self, plan: usize, tol: OptimalityTolerance) -> BoolGrid {
        let (na, nb) = self.dims();
        let mut grid = BoolGrid::new(na, nb);
        for ia in 0..na {
            for ib in 0..nb {
                let c = ia * nb + ib;
                let best = self.best_seconds[c];
                let mine = self.quotients[plan][c] * best;
                grid.set(ia, ib, tol.admits(mine, best));
            }
        }
        grid
    }

    /// Per-cell count of plans that are optimal under `tol` — Figure 10's
    /// observation is that "most points in the parameter space have
    /// multiple optimal plans".
    pub fn optimal_plan_counts(&self, tol: OptimalityTolerance) -> Vec<u32> {
        let cells = self.best_plan.len();
        let mut counts = vec![0u32; cells];
        for grid in &self.quotients {
            for (c, &q) in grid.iter().enumerate() {
                let best = self.best_seconds[c];
                if tol.admits(q * best, best) {
                    counts[c] += 1;
                }
            }
        }
        counts
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

    /// 2x2 grid, 2 plans: p0 best at 3 cells, p1 best at 1.
    fn map() -> Map2D {
        let p0 = vec![m(1.0), m(1.0), m(1.0), m(10.0)];
        let p1 = vec![m(2.0), m(5.0), m(1.05), m(1.0)];
        Map2D::new(vec![0.5, 1.0], vec![0.5, 1.0], vec!["p0".into(), "p1".into()], vec![p0, p1])
    }

    #[test]
    fn quotients_are_at_least_one() {
        let rel = RelativeMap2D::from_map(&map());
        for p in 0..2 {
            for &q in rel.quotient_grid(p) {
                assert!(q >= 1.0);
            }
        }
        assert_eq!(rel.quotient(0, 0, 0), 1.0);
        assert_eq!(rel.quotient(1, 0, 0), 2.0);
        assert_eq!(rel.quotient(0, 1, 1), 10.0);
    }

    #[test]
    fn best_plan_tracking() {
        let rel = RelativeMap2D::from_map(&map());
        assert_eq!(rel.best_plan_at(0, 0), 0);
        assert_eq!(rel.best_plan_at(1, 1), 1);
        assert_eq!(rel.best_seconds_at(1, 1), 1.0);
    }

    #[test]
    fn worst_quotient_and_area() {
        let rel = RelativeMap2D::from_map(&map());
        assert_eq!(rel.worst_quotient(0), 10.0);
        assert_eq!(rel.worst_quotient(1), 5.0);
        assert_eq!(rel.area_within(0, 2.0), 0.75);
        assert_eq!(rel.area_within(1, 2.0), 0.75);
    }

    #[test]
    fn optimality_regions_respect_tolerance() {
        let rel = RelativeMap2D::from_map(&map());
        // Strict: only exact winners.
        let strict = rel.optimal_region(1, OptimalityTolerance::Factor(1.0));
        assert_eq!(strict.count(), 1);
        // 10% factor admits the 1.05 cell too.
        let loose = rel.optimal_region(1, OptimalityTolerance::Factor(1.1));
        assert_eq!(loose.count(), 2);
    }

    #[test]
    fn multi_optimal_counts() {
        let rel = RelativeMap2D::from_map(&map());
        let counts = rel.optimal_plan_counts(OptimalityTolerance::Factor(1.1));
        // Cell (1,0): p0=1.0, p1=1.05 -> both optimal.
        assert_eq!(counts, vec![1, 1, 2, 1]);
        // Every cell has at least one optimal plan.
        assert!(counts.iter().all(|&c| c >= 1));
    }
}
