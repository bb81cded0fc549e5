//! The unified plan-choice API: *where estimates come from* separated
//! from *how a plan is picked from them*.
//!
//! The paper's premise is that compile-time plan choice goes wrong under
//! estimation error (§1); PARQO (Xiu et al. 2024) frames robust selection
//! as a policy over an estimate distribution, orthogonal to the estimate
//! source.  This module encodes that split:
//!
//! * an [`Estimator`] answers "what does the catalog believe about
//!   `(ta, tb)`" — a point estimate ([`Estimator::estimate`]) and a
//!   weighted uncertainty region ([`Estimator::region`]).  Implementations
//!   range from [`Exact`] (true marginals, independence conjunction)
//!   through [`WithError`] and [`Histogram`] to [`Joint`] (two-column
//!   statistics whose region width *scales with observed sample
//!   variance* and, for stale statistics, with the churned mass) and
//!   [`Maintained`] (delta-maintained statistics);
//! * a [`ChoicePolicy`] answers "given those beliefs, which plan" —
//!   [`ChoicePolicy::Point`] is the textbook argmin of estimated cost, and
//!   [`ChoicePolicy::Robust`] minimizes `expected + penalty * tail` over
//!   the whole region (the penalty-aware criterion of `crate::robust`);
//! * a [`Chooser`] binds a plan catalog, catalog statistics, a cost model
//!   and a policy.  [`Chooser::choose`], the one way to choose, returns a
//!   rich [`Choice`] (chosen plan, score, expected/tail costs, runner-up
//!   and margin) instead of a bare index, so experiments can map *how
//!   close* a decision was, not just what it was.

use robustmap_storage::CostModel;
use robustmap_workload::{
    Calibrator, EquiDepthHistogram, JointHistogram, MaintainedJoint, Staleness, Workload,
};

use crate::optimizer::{clamp_sel, frechet_clamp, CatalogStats, SelEstimates};
use crate::robust::{credible_region, region_cost, PricedRegion, RobustConfig, SelHypothesis};
use crate::two_pred::TwoPredPlan;

/// Credible-band width in standard errors of a sampled estimate: a ~95%
/// band under the normal approximation.
const CREDIBLE_Z: f64 = 2.0;

/// A source of selectivity beliefs for the two-predicate query.
///
/// `estimate` is the single best guess; `region` is the set of hypotheses
/// the statistics cannot distinguish from it, with plausibility weights
/// summing to 1.  The default `region` is the point estimate alone —
/// estimators without an uncertainty model degrade gracefully under a
/// robust policy (which then degenerates toward point selection).
pub trait Estimator {
    /// The point estimate at predicate constants `(ta, tb)`.
    fn estimate(&self, ta: i64, tb: i64) -> SelEstimates;

    /// The weighted uncertainty region around the estimate (weights sum
    /// to 1; every hypothesis coherent, i.e. inside the Fréchet bounds).
    fn region(&self, ta: i64, tb: i64) -> Vec<SelHypothesis> {
        vec![SelHypothesis { est: self.estimate(ta, tb), weight: 1.0 }]
    }
}

/// Fixed estimates are a (degenerate) estimator: handy for tests and for
/// callers that computed a [`SelEstimates`] some other way.
impl Estimator for SelEstimates {
    fn estimate(&self, _ta: i64, _tb: i64) -> SelEstimates {
        *self
    }
}

/// Exact marginal selectivities from the workload's calibrators; the
/// conjunction still assumes independence — exactly what a perfect
/// single-column catalog knows, and the baseline the correlated
/// experiments break.
pub struct Exact<'w> {
    cal_a: &'w Calibrator,
    cal_b: &'w Calibrator,
}

impl<'w> Exact<'w> {
    /// The exact estimator of a built workload.
    pub fn of(w: &'w Workload) -> Self {
        Exact { cal_a: &w.cal_a, cal_b: &w.cal_b }
    }
}

impl Estimator for Exact<'_> {
    fn estimate(&self, ta: i64, tb: i64) -> SelEstimates {
        SelEstimates::independent(self.cal_a.selectivity(ta), self.cal_b.selectivity(tb))
    }
}

/// Exact marginals distorted by a multiplicative error factor per column
/// (`> 1` over-estimates, `< 1` under-estimates) — the injected
/// "errors in cardinality estimation" the paper's motivation names first,
/// swept by `ext_optimizer`.
pub struct WithError<'w> {
    exact: Exact<'w>,
    /// Multiplicative error applied to the `a` marginal.
    pub error_a: f64,
    /// Multiplicative error applied to the `b` marginal.
    pub error_b: f64,
}

impl<'w> WithError<'w> {
    /// An error-distorted estimator over a built workload.
    pub fn of(w: &'w Workload, error_a: f64, error_b: f64) -> Self {
        WithError { exact: Exact::of(w), error_a, error_b }
    }
}

impl Estimator for WithError<'_> {
    fn estimate(&self, ta: i64, tb: i64) -> SelEstimates {
        SelEstimates::independent(
            self.exact.cal_a.selectivity(ta) * self.error_a,
            self.exact.cal_b.selectivity(tb) * self.error_b,
        )
    }
}

/// Per-column equi-depth catalog histograms (independence conjunction):
/// how a real optimizer obtains estimates, with error governed by bucket
/// count and staleness (an empty or stale histogram can report 0, which
/// [`SelEstimates::independent`] clamps).
pub struct Histogram<'h> {
    hist_a: &'h EquiDepthHistogram,
    hist_b: &'h EquiDepthHistogram,
}

impl<'h> Histogram<'h> {
    /// An estimator over two catalog histograms.
    pub fn new(hist_a: &'h EquiDepthHistogram, hist_b: &'h EquiDepthHistogram) -> Self {
        Histogram { hist_a, hist_b }
    }
}

impl Estimator for Histogram<'_> {
    fn estimate(&self, ta: i64, tb: i64) -> SelEstimates {
        SelEstimates::independent(self.hist_a.estimate_at_most(ta), self.hist_b.estimate_at_most(tb))
    }
}

/// Two-column joint statistics: marginals from the sample's per-column
/// histograms, the conjunction from observed co-occurrence — no
/// independence assumption.
///
/// Its [`Estimator::region`] is the credible box of `crate::robust`, but
/// with *variance-adaptive* half-widths: per axis the width is the larger
/// of the bucket resolution (the representational floor — the statistics
/// cannot distinguish selectivities closer than a bucket) and two
/// standard errors of the sampled estimate (the statistical floor — a
/// sparse sample is uncertain far beyond its bucket grid).  With a
/// plentiful sample this degenerates to the fixed bucket-resolution box;
/// with a sparse one the region widens with the observed sample variance.
///
/// Statistics known to be stale ([`Joint::stale`]) keep the frozen
/// estimate (wrong under churn — that is the point) but widen further:
/// the sampling variance gains the churned mass's worth of Bernoulli
/// variance, `var + severity * p(1-p)` ([`Staleness::severity`]), so a
/// robust policy hedges harder the longer the statistics go
/// unmaintained.  As the modified fraction (amplified by drift)
/// approaches 1 the standard error approaches the full population
/// standard deviation, i.e. "the statistic tells us almost nothing beyond
/// the mean".
pub struct Joint<'j> {
    joint: &'j JointHistogram,
    /// Staleness severity clamped to `[0, 1]`; 0 for fresh statistics.
    severity: f64,
}

impl<'j> Joint<'j> {
    /// An estimator over fresh joint statistics.
    pub fn new(joint: &'j JointHistogram) -> Self {
        Joint { joint, severity: 0.0 }
    }

    /// An estimator over frozen statistics whose region widens with the
    /// `staleness` meter's reading.
    pub fn stale(joint: &'j JointHistogram, staleness: Staleness) -> Self {
        Joint { joint, severity: staleness.severity().clamp(0.0, 1.0) }
    }

    /// The half-widths its region hedges over at `(ta, tb)`: per axis,
    /// `max(bucket resolution, 2 * stderr)`, the variance inflated by
    /// staleness.
    pub fn radii(&self, ta: i64, tb: i64) -> (f64, f64) {
        let j = self.joint;
        let mut var_a = j.sel_variance_a(ta);
        let mut var_b = j.sel_variance_b(tb);
        if self.severity > 0.0 {
            let inflated = |var: f64, p: f64| {
                let p = p.clamp(0.0, 1.0);
                var + self.severity * p * (1.0 - p)
            };
            var_a = inflated(var_a, j.marginal_a().estimate_at_most(ta));
            var_b = inflated(var_b, j.marginal_b().estimate_at_most(tb));
        }
        (credible_radius(j.resolution_a(), var_a), credible_radius(j.resolution_b(), var_b))
    }
}

impl Estimator for Joint<'_> {
    fn estimate(&self, ta: i64, tb: i64) -> SelEstimates {
        SelEstimates::from_joint(self.joint, ta, tb)
    }

    fn region(&self, ta: i64, tb: i64) -> Vec<SelHypothesis> {
        let (ra, rb) = self.radii(ta, tb);
        credible_region(self.estimate(ta, tb), ra, rb)
    }
}

/// One axis's credible half-width: the larger of the bucket `resolution`
/// and [`CREDIBLE_Z`] standard errors of an estimate whose variance is
/// `var`.
fn credible_radius(resolution: f64, var: f64) -> f64 {
    resolution.max(CREDIBLE_Z * var.sqrt())
}

/// Incrementally maintained joint statistics
/// ([`robustmap_workload::stats_maint::MaintainedJoint`]): the point
/// estimate folds the per-bucket deltas in, so it tracks the churned
/// table; the region keeps the base's fresh [`Joint`] widths (the deltas
/// fix the *mean*, not the within-bucket placement, so the resolution
/// floor still applies) around the corrected center.
pub struct Maintained<'m> {
    stats: &'m MaintainedJoint,
}

impl<'m> Maintained<'m> {
    /// An estimator over maintained statistics.
    pub fn new(stats: &'m MaintainedJoint) -> Self {
        Maintained { stats }
    }
}

impl Estimator for Maintained<'_> {
    fn estimate(&self, ta: i64, tb: i64) -> SelEstimates {
        let sel_a = clamp_sel(self.stats.estimate_a(ta));
        let sel_b = clamp_sel(self.stats.estimate_b(tb));
        let sel_ab = frechet_clamp(sel_a, sel_b, self.stats.estimate_ab(ta, tb));
        SelEstimates { sel_a, sel_b, sel_ab }
    }

    fn region(&self, ta: i64, tb: i64) -> Vec<SelHypothesis> {
        let (ra, rb) = Joint::new(self.stats.base()).radii(ta, tb);
        credible_region(self.estimate(ta, tb), ra, rb)
    }
}

/// How a [`Chooser`] turns estimates into a decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChoicePolicy {
    /// Argmin of estimated cost at the point estimate — the textbook
    /// optimizer.
    Point,
    /// Argmin of `expected + penalty_weight * tail` over the estimator's
    /// whole uncertainty region — the penalty-aware robust criterion.
    Robust(RobustConfig),
}

/// One plan decision, with enough context to judge it: the winner, its
/// score decomposition, and how close the call was.
#[derive(Debug, Clone, PartialEq)]
pub struct Choice {
    /// Index of the chosen plan in the chooser's catalog.
    pub plan: usize,
    /// The chosen plan's name (map series label).
    pub name: String,
    /// The minimized objective (point: estimated cost; robust:
    /// `expected + penalty_weight * tail`).
    pub score: f64,
    /// Expected estimated cost over the hypothesis region (equals `score`
    /// under the point policy).
    pub expected: f64,
    /// Tail-quantile estimated cost over the region (equals the point
    /// cost under the point policy).
    pub tail: f64,
    /// The best alternative plan, if the catalog has more than one.
    pub runner_up: Option<usize>,
    /// Score gap to the runner-up (`>= 0`; 0 when there is no
    /// alternative).  Small margins mark cells where estimation error
    /// flips the decision.
    pub margin: f64,
}

impl Choice {
    /// Whether the decision was close: a runner-up exists and its score is
    /// within `threshold` (relative to the winning score) of the winner.
    ///
    /// This is the explicit predicate callers previously approximated with
    /// `margin > 0.0` checks — an approximation that misreads two edges:
    /// a **single-plan catalog** reports `margin == 0.0` only because
    /// there is nothing to lose to (not contested, whatever the
    /// threshold), while an **exact tie** between two plans also reports
    /// `margin == 0.0` and is maximally contested.
    pub fn is_contested(&self, threshold: f64) -> bool {
        match self.runner_up {
            None => false,
            Some(_) => self.margin <= threshold * self.score.abs().max(f64::MIN_POSITIVE),
        }
    }
}

/// A plan catalog bound to catalog statistics, a cost model and a
/// [`ChoicePolicy`]: the one object behind every chooser in the repo.
pub struct Chooser<'a> {
    /// The candidate plans (any slice of a system's catalog, or all 15).
    pub plans: &'a [TwoPredPlan],
    /// Catalog statistics feeding the cost formulas.
    pub stats: &'a CatalogStats,
    /// The cost model.
    pub model: &'a CostModel,
    /// The decision rule.
    pub policy: ChoicePolicy,
}

impl Chooser<'_> {
    /// Decide at `(ta, tb)` using `estimator`, the one way to choose.
    /// The point policy costs each plan at [`Estimator::estimate`]: argmin
    /// of estimated cost, ties to the lower index (pinned against a
    /// brute-force argmin by `tests/prop_choice.rs`).  The robust policy
    /// scores each plan `expected + penalty_weight * tail` over
    /// [`Estimator::region`].
    pub fn choose<E: Estimator + ?Sized>(&self, estimator: &E, ta: i64, tb: i64) -> Choice {
        match self.policy {
            ChoicePolicy::Point => {
                let at = self.stats.at(&estimator.estimate(ta, tb));
                self.select(|plan| {
                    let c = plan.cost(&at, self.model);
                    (c, c, c)
                })
            }
            ChoicePolicy::Robust(cfg) => {
                // Each hypothesis priced once for all plans.
                let priced = PricedRegion::new(self.stats, &estimator.region(ta, tb));
                self.select(|plan| {
                    let (expected, tail) = region_cost(plan, &priced, self.model, &cfg);
                    (expected + cfg.penalty_weight * tail, expected, tail)
                })
            }
        }
    }

    /// Shared selection core: score every plan, pick the strict minimum
    /// (ties break to the lower index, deterministically), and report the
    /// runner-up — the strict minimum of the others, ties again to the
    /// lower index — and margin.  One pass, nothing kept per plan: a plan
    /// that beats the best so far demotes it to runner-up.  Scores that are
    /// not below infinity win nothing; if none is, the first plan stands.
    fn select(&self, score_of: impl Fn(&TwoPredPlan) -> (f64, f64, f64)) -> Choice {
        assert!(!self.plans.is_empty(), "empty plan catalog");
        let first = score_of(&self.plans[0]);
        let (mut plan, mut best) = (0, first);
        let mut best_score = if first.0 < f64::INFINITY { first.0 } else { f64::INFINITY };
        let mut runner_up: Option<(usize, f64)> = None;
        for (i, candidate) in self.plans.iter().enumerate().skip(1) {
            let scored = score_of(candidate);
            if scored.0 < best_score {
                if best_score < f64::INFINITY {
                    runner_up = Some((plan, best_score));
                }
                (plan, best, best_score) = (i, scored, scored.0);
            } else if scored.0 < runner_up.map_or(f64::INFINITY, |(_, s)| s) {
                runner_up = Some((i, scored.0));
            }
        }
        let (score, expected, tail) = best;
        Choice {
            plan,
            name: self.plans[plan].name.clone(),
            score,
            expected,
            tail,
            runner_up: runner_up.map(|(r, _)| r),
            margin: runner_up.map_or(0.0, |(_, r)| (r - score).max(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{estimate_cost, PlanShape};
    use crate::two_pred::two_predicate_plans;
    use crate::SystemId;
    use robustmap_storage::{CostModel, Session};
    use robustmap_workload::gen::PredicateDistribution;
    use robustmap_workload::{
        ChurnConfig, ChurnDriver, JointHistogramConfig, TableBuilder, WorkloadConfig,
    };

    fn setup() -> (Workload, CatalogStats, CostModel) {
        let w = TableBuilder::build(WorkloadConfig::with_rows(1 << 16));
        let stats = CatalogStats::of(&w);
        (w, stats, CostModel::hdd_2009())
    }

    #[test]
    fn exact_estimator_reports_calibrated_selectivities() {
        let (w, _, _) = setup();
        let est = Exact::of(&w);
        let (ta, tb) = (w.cal_a.threshold(0.25), w.cal_b.threshold(0.5));
        let e = est.estimate(ta, tb);
        assert!((e.sel_a - 0.25).abs() < 1e-9, "{}", e.sel_a);
        assert!((e.sel_b - 0.5).abs() < 1e-9, "{}", e.sel_b);
        assert!((e.sel_ab - 0.125).abs() < 1e-9, "independence conjunction");
        // The default region is the point alone.
        let region = est.region(ta, tb);
        assert_eq!(region.len(), 1);
        assert_eq!(region[0].est, e);
        assert_eq!(region[0].weight, 1.0);
    }

    #[test]
    fn with_error_estimator_distorts_the_exact_marginals() {
        let (w, _, _) = setup();
        let (ta, tb) = (w.cal_a.threshold(0.5), w.cal_b.threshold(0.5));
        let e = WithError::of(&w, 1.0 / 4.0, 1.0).estimate(ta, tb);
        assert!((e.sel_a - 0.125).abs() < 1e-9);
        assert!((e.sel_b - 0.5).abs() < 1e-9);
        // Zero-threshold estimates clamp like every constructor.
        let zero = WithError::of(&w, 1e-30, 1e-30).estimate(ta, tb);
        assert!(zero.sel_a > 0.0 && zero.sel_ab > 0.0);
    }

    #[test]
    fn joint_region_widens_with_sample_variance() {
        // The same correlated data at two sample sizes: the sparse sample
        // must hedge over a wider box than its bucket resolution, the
        // plentiful one collapses to the resolution floor.
        let w = TableBuilder::build(WorkloadConfig {
            rows: 1 << 14,
            seed: 77,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(60),
            mutation_epoch: 0,
        });
        let sparse_stats = JointHistogram::from_workload(
            &w,
            &JointHistogramConfig { sample_target: 1 << 7, a_buckets: 8, b_buckets: 8, ..Default::default() },
        );
        let dense_stats = JointHistogram::from_workload(
            &w,
            &JointHistogramConfig { a_buckets: 8, b_buckets: 8, ..Default::default() },
        );
        let (ta, tb) = (w.cal_a.threshold(0.5), w.cal_b.threshold(0.5));
        let sparse = Joint::new(&sparse_stats);
        let dense = Joint::new(&dense_stats);
        let (ra_sparse, rb_sparse) = sparse.radii(ta, tb);
        let (ra_dense, rb_dense) = dense.radii(ta, tb);
        // At 2^7 samples and 8 coarse buckets the two floors are
        // comparable; the sparse radii can only be at or above the dense
        // ones, which sit on the resolution floor.
        assert!(ra_sparse >= ra_dense && rb_sparse >= rb_dense);
        assert_eq!(ra_dense, dense_stats.resolution_a(), "plentiful sample: resolution floor");
        // A very sparse sample with fine buckets is variance-dominated.
        let tiny_stats = JointHistogram::from_workload(
            &w,
            &JointHistogramConfig { sample_target: 1 << 6, ..Default::default() },
        );
        let tiny = Joint::new(&tiny_stats);
        let (ra_tiny, _) = tiny.radii(ta, tb);
        assert!(
            ra_tiny > tiny_stats.resolution_a(),
            "sparse sample must widen past the bucket box: {ra_tiny} vs {}",
            tiny_stats.resolution_a()
        );
        // Regions stay coherent probability boxes whatever the widths.
        for h in sparse.region(ta, tb) {
            assert!(h.est.sel_a > 0.0 && h.est.sel_a <= 1.0);
            assert!(h.est.sel_ab <= h.est.sel_a.min(h.est.sel_b) + 1e-12);
        }
    }

    /// Joint statistics over so sparse a sample that two standard errors
    /// exceed the bucket resolution: every change in variance moves the
    /// radii, and the midpoint thresholds.
    fn sparse_joint() -> (JointHistogram, i64, i64) {
        let w = TableBuilder::build(WorkloadConfig {
            rows: 1 << 14,
            seed: 77,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(60),
            mutation_epoch: 0,
        });
        let joint = JointHistogram::from_workload(
            &w,
            &JointHistogramConfig { sample_target: 1 << 6, ..Default::default() },
        );
        let (ta, tb) = (w.cal_a.threshold(0.5), w.cal_b.threshold(0.5));
        assert!(Joint::new(&joint).radii(ta, tb).0 > joint.resolution_a(), "variance-dominated");
        (joint, ta, tb)
    }

    fn region_bits(region: &[SelHypothesis]) -> Vec<[u64; 4]> {
        region
            .iter()
            .map(|h| {
                let e = h.est;
                [e.sel_a.to_bits(), e.sel_b.to_bits(), e.sel_ab.to_bits(), h.weight.to_bits()]
            })
            .collect()
    }

    #[test]
    fn stale_joint_at_zero_severity_is_the_fresh_joint_bit_for_bit() {
        let (joint, ta, tb) = sparse_joint();
        let (fresh, stale) = (Joint::new(&joint), Joint::stale(&joint, Staleness::none()));
        let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
        // Fresh widths carry no staleness term: two standard errors of the
        // sample, floored at the bucket resolution.
        let sampled = (
            joint.resolution_a().max(2.0 * joint.sel_variance_a(ta).sqrt()),
            joint.resolution_b().max(2.0 * joint.sel_variance_b(tb).sqrt()),
        );
        assert_eq!(bits(fresh.radii(ta, tb)), bits(sampled));
        assert_eq!(bits(stale.radii(ta, tb)), bits(sampled));
        assert_eq!(region_bits(&stale.region(ta, tb)), region_bits(&fresh.region(ta, tb)));
    }

    #[test]
    fn stale_joint_width_grows_monotonically_with_severity() {
        let (joint, ta, tb) = sparse_joint();
        let radii = |fraction_modified: f64| {
            Joint::stale(&joint, Staleness { fraction_modified, drift: 0.0 }).radii(ta, tb)
        };
        let mut last = radii(0.0);
        for fraction in [0.05, 0.1, 0.25, 0.5, 1.0, 2.0] {
            let (ra, rb) = radii(fraction);
            assert!(ra >= last.0 && rb >= last.1, "fraction {fraction}: {:?} -> {:?}", last, (ra, rb));
            last = (ra, rb);
        }
        let (ra0, rb0) = radii(0.0);
        assert!(last.0 > ra0 && last.1 > rb0, "full severity must widen both axes");
        // Severity is clamped at 1: more churn widens no further.
        assert_eq!(radii(1.0), radii(2.0));
    }

    #[test]
    fn maintained_over_unchurned_statistics_has_the_fresh_joint_radii() {
        let (joint, ta, tb) = sparse_joint();
        let maintained = MaintainedJoint::new(joint.clone());
        let est = Maintained::new(&maintained);
        let (ra, rb) = Joint::new(&joint).radii(ta, tb);
        let want = credible_region(est.estimate(ta, tb), ra, rb);
        assert_eq!(region_bits(&est.region(ta, tb)), region_bits(&want));
    }

    #[test]
    fn point_chooser_reports_runner_up_and_nonnegative_margin() {
        let (w, stats, model) = setup();
        let plans = two_predicate_plans(SystemId::A, &w);
        let chooser = Chooser { plans: &plans, stats: &stats, model: &model, policy: ChoicePolicy::Point };
        let est = Exact::of(&w);
        for sel in [0.001, 0.1, 1.0] {
            let (ta, tb) = (w.cal_a.threshold(sel), w.cal_b.threshold(sel));
            let c = chooser.choose(&est, ta, tb);
            assert_eq!(c.name, plans[c.plan].name);
            assert!(c.margin >= 0.0);
            assert_eq!(c.expected, c.score, "point policy: score is the point cost");
            assert_eq!(c.tail, c.score);
            let r = c.runner_up.expect("seven plans have an alternative");
            assert_ne!(r, c.plan);
        }
    }

    #[test]
    fn single_plan_catalog_has_no_runner_up() {
        let (w, stats, model) = setup();
        let plans = two_predicate_plans(SystemId::C, &w);
        let chooser =
            Chooser { plans: &plans[..1], stats: &stats, model: &model, policy: ChoicePolicy::Point };
        let (ta, tb) = (w.cal_a.threshold(0.1), w.cal_b.threshold(0.1));
        let c = chooser.choose(&Exact::of(&w), ta, tb);
        assert_eq!(c.plan, 0);
        assert_eq!(c.runner_up, None);
        assert_eq!(c.margin, 0.0);
        // The margin is 0.0 only because there is nothing to lose to: a
        // single-plan decision is never contested, whatever the threshold.
        assert!(!c.is_contested(0.0));
        assert!(!c.is_contested(1.0));
        assert!(!c.is_contested(f64::INFINITY));
    }

    #[test]
    fn exact_tie_is_contested_at_zero_threshold() {
        let (w, stats, model) = setup();
        // Two copies of the same catalog plan: scores tie exactly, margin
        // is 0.0, and unlike the single-plan case the decision IS
        // maximally contested.
        let mut pair = two_predicate_plans(SystemId::C, &w);
        pair.truncate(1);
        pair.extend(two_predicate_plans(SystemId::C, &w).into_iter().take(1));
        let chooser =
            Chooser { plans: &pair, stats: &stats, model: &model, policy: ChoicePolicy::Point };
        let (ta, tb) = (w.cal_a.threshold(0.1), w.cal_b.threshold(0.1));
        let c = chooser.choose(&Exact::of(&w), ta, tb);
        assert_eq!(c.plan, 0, "ties break to the lower index");
        assert_eq!(c.runner_up, Some(1));
        assert_eq!(c.margin, 0.0);
        assert!(c.is_contested(0.0), "an exact tie is contested even at threshold 0");
        assert!(c.is_contested(0.1));
    }

    #[test]
    fn contested_threshold_scales_with_the_winning_score() {
        let (w, stats, model) = setup();
        let plans = two_predicate_plans(SystemId::A, &w);
        let chooser =
            Chooser { plans: &plans, stats: &stats, model: &model, policy: ChoicePolicy::Point };
        let (ta, tb) = (w.cal_a.threshold(0.1), w.cal_b.threshold(0.1));
        let c = chooser.choose(&Exact::of(&w), ta, tb);
        assert!(c.margin > 0.0, "distinct plans should not tie exactly here");
        // Relative threshold: contested exactly when margin <= t * score.
        let ratio = c.margin / c.score;
        assert!(c.is_contested(ratio * 2.0));
        assert!(!c.is_contested(ratio / 2.0));
    }

    #[test]
    fn robust_policy_consults_the_joint_region() {
        let w = TableBuilder::build(WorkloadConfig {
            rows: 1 << 14,
            seed: 31,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(100),
            mutation_epoch: 0,
        });
        let stats = CatalogStats::of(&w);
        let model = CostModel::hdd_2009();
        let joint = JointHistogram::from_workload(&w, &JointHistogramConfig::default());
        let plans = two_predicate_plans(SystemId::A, &w);
        let est = Joint::new(&joint);
        let robust = Chooser {
            plans: &plans,
            stats: &stats,
            model: &model,
            policy: ChoicePolicy::Robust(RobustConfig::default()),
        };
        let (ta, tb) = (w.cal_a.threshold(0.25), w.cal_b.threshold(0.25));
        let c = robust.choose(&est, ta, tb);
        assert!(c.score >= c.expected, "penalty adds a nonnegative tail term");
        assert!(c.tail.is_finite() && c.expected.is_finite());
        assert!(c.margin >= 0.0);
    }

    /// A 2^14-row correlated table after `batches` churn batches drifting
    /// down, with joint statistics of the pristine table and their
    /// maintained twin.
    fn churned(batches: usize) -> (Workload, JointHistogram, MaintainedJoint) {
        let mut w = TableBuilder::build(WorkloadConfig {
            rows: 1 << 14,
            seed: 83,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(60),
            mutation_epoch: 0,
        });
        let joint = JointHistogram::from_workload(&w, &JointHistogramConfig::default());
        let mut maintained = MaintainedJoint::new(joint.clone());
        let mut driver = ChurnDriver::new(&w, ChurnConfig::for_workload(&w).with_drift_down(50));
        let s = Session::with_pool_pages(64);
        for _ in 0..batches {
            maintained.apply(&driver.apply_batch(&mut w, &s));
        }
        (w, joint, maintained)
    }

    fn all_plans(w: &Workload) -> Vec<TwoPredPlan> {
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect()
    }

    /// A fixed hypothesis region, centered on its first hypothesis.
    struct Fixed(Vec<SelHypothesis>);

    impl Estimator for Fixed {
        fn estimate(&self, _ta: i64, _tb: i64) -> SelEstimates {
            self.0[0].est
        }

        fn region(&self, _ta: i64, _tb: i64) -> Vec<SelHypothesis> {
            self.0.clone()
        }
    }

    /// The decision as a chooser that builds every plan takes it: each plan
    /// built at `(ta, tb)` and priced by `estimate_cost`, a region's costs
    /// collected and sorted, every score kept, then two passes for the
    /// winner and the runner-up.
    fn built_choice(chooser: &Chooser<'_>, estimator: &dyn Estimator, ta: i64, tb: i64) -> Choice {
        let (stats, model) = (chooser.stats, chooser.model);
        let score_of = |plan: &TwoPredPlan| {
            let spec = plan.build(ta, tb);
            match chooser.policy {
                ChoicePolicy::Point => {
                    let c = estimate_cost(&spec, stats, &estimator.estimate(ta, tb), model);
                    (c, c, c)
                }
                ChoicePolicy::Robust(cfg) => {
                    let mut costs: Vec<(f64, f64)> = estimator
                        .region(ta, tb)
                        .iter()
                        .map(|h| (estimate_cost(&spec, stats, &h.est, model), h.weight))
                        .collect();
                    let total_w: f64 = costs.iter().map(|&(_, w)| w).sum();
                    let expected = costs.iter().map(|&(c, w)| c * w).sum::<f64>() / total_w;
                    costs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                    let mut acc = 0.0;
                    let mut tail = costs.last().unwrap().0;
                    for &(c, w) in &costs {
                        acc += w / total_w;
                        if acc >= cfg.tail_quantile {
                            tail = c;
                            break;
                        }
                    }
                    (expected + cfg.penalty_weight * tail, expected, tail)
                }
            }
        };
        let scored: Vec<(f64, f64, f64)> = chooser.plans.iter().map(score_of).collect();
        let (mut best, mut best_score) = (0, f64::INFINITY);
        for (i, &(score, _, _)) in scored.iter().enumerate() {
            if score < best_score {
                (best, best_score) = (i, score);
            }
        }
        let (mut runner_up, mut runner_score) = (None, f64::INFINITY);
        for (i, &(score, _, _)) in scored.iter().enumerate() {
            if i != best && score < runner_score {
                (runner_up, runner_score) = (Some(i), score);
            }
        }
        let (score, expected, tail) = scored[best];
        Choice {
            plan: best,
            name: chooser.plans[best].name.clone(),
            score,
            expected,
            tail,
            runner_up,
            margin: runner_up.map_or(0.0, |r| (scored[r].0 - score).max(0.0)),
        }
    }

    type ChoiceBits = (usize, String, [u64; 3], Option<usize>, u64);

    fn choice_bits(c: &Choice) -> ChoiceBits {
        let floats = [c.score.to_bits(), c.expected.to_bits(), c.tail.to_bits()];
        (c.plan, c.name.clone(), floats, c.runner_up, c.margin.to_bits())
    }

    #[test]
    fn decisions_equal_a_chooser_that_builds_every_plan() {
        let (w, joint, maintained) = churned(6);
        let stats = CatalogStats::of(&w);
        let model = CostModel::hdd_2009();
        let plans = all_plans(&w);
        let sels = [1.0 / 16384.0, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0];
        let mut ta: Vec<i64> = sels.iter().map(|&s| w.cal_a.threshold(s)).collect();
        let mut tb: Vec<i64> = sels.iter().map(|&s| w.cal_b.threshold(s)).collect();
        ta.push(i64::MIN);
        tb.push(i64::MIN);
        // Each catalog plan's stored shape is the shape of what it builds,
        // and prices what it builds.
        let at = stats.at(&SelEstimates::independent(0.3, 0.01));
        for plan in &plans {
            for (a, b) in [(ta[0], tb[6]), (ta[3], tb[3]), (i64::MIN, i64::MAX)] {
                let built = PlanShape::of(&plan.build(a, b));
                assert_eq!(plan.shape, built, "{}", plan.name);
                let io = built.and_then(|s| s.counters(&at)).expect("a catalog shape");
                assert_eq!(plan.cost(&at, &model), model.seconds(&io), "{}", plan.name);
            }
        }
        // Twelve hypotheses, some tied in cost: not the 3 x 3 box.
        let twelve = Fixed(
            (0..12)
                .map(|i| SelHypothesis {
                    est: SelEstimates::independent(0.5f64.powi(i % 7), 0.5f64.powi(i / 3)),
                    weight: 1.0 + (i % 4) as f64,
                })
                .collect(),
        );
        // Hypotheses that share `sel_a` but not `sel_b`, then the reverse:
        // a plan that reads one marginal copies its cost along one only.
        let sharing = |a: [f64; 3], b: [f64; 3]| {
            let hypothesis = |i: usize| SelHypothesis {
                est: SelEstimates::independent(a[i], b[i]),
                weight: [0.2, 0.5, 0.3][i],
            };
            Fixed((0..3).map(hypothesis).collect())
        };
        let shared_a = sharing([0.01; 3], [0.001, 0.2, 0.9]);
        let shared_b = sharing([0.001, 0.2, 0.9], [0.01; 3]);
        // One hypothesis, not weighted 1.
        let est = SelEstimates::independent(0.1, 0.3);
        let one = Fixed(vec![SelHypothesis { est, weight: 0.3 }]);
        let estimators: [(&str, &dyn Estimator); 8] = [
            ("exact", &Exact::of(&w)),
            ("joint", &Joint::new(&joint)),
            ("stale joint", &Joint::stale(&joint, maintained.staleness())),
            ("maintained", &Maintained::new(&maintained)),
            ("twelve", &twelve),
            ("shared sel_a", &shared_a),
            ("shared sel_b", &shared_b),
            ("one", &one),
        ];
        for policy in [ChoicePolicy::Point, ChoicePolicy::Robust(RobustConfig::default())] {
            let chooser = Chooser { plans: &plans, stats: &stats, model: &model, policy };
            for (name, estimator) in estimators {
                for &a in &ta {
                    for &b in &tb {
                        assert_eq!(
                            choice_bits(&chooser.choose(estimator, a, b)),
                            choice_bits(&built_choice(&chooser, estimator, a, b)),
                            "{policy:?} from {name} at ({a}, {b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn robust_choice_from_maintained_statistics_at_the_column_minimum_is_finite() {
        for batches in [0, 6] {
            let (w, _, maintained) = churned(batches);
            let stats = CatalogStats::of(&w);
            let model = CostModel::hdd_2009();
            let plans = all_plans(&w);
            let robust = Chooser {
                plans: &plans,
                stats: &stats,
                model: &model,
                policy: ChoicePolicy::Robust(RobustConfig::default()),
            };
            let est = Maintained::new(&maintained);
            let smallest = w.cal_a.threshold(1.0 / 16384.0);
            for (ta, tb) in [
                (smallest, w.cal_b.threshold(0.5)),
                (i64::MIN, w.cal_b.threshold(0.5)),
                (i64::MIN, i64::MIN),
            ] {
                let e = est.estimate(ta, tb);
                for s in [e.sel_a, e.sel_b, e.sel_ab] {
                    assert!(s > 0.0 && s <= 1.0, "{batches} batches, ({ta}, {tb}): {e:?}");
                }
                let c = robust.choose(&est, ta, tb);
                assert!(
                    c.score.is_finite() && c.expected.is_finite() && c.tail.is_finite(),
                    "{batches} batches, ({ta}, {tb}): {c:?}"
                );
            }
        }
    }
}
