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
//!   variance*, not just the fixed bucket-resolution box);
//! * a [`ChoicePolicy`] answers "given those beliefs, which plan" —
//!   [`ChoicePolicy::Point`] is the textbook argmin of estimated cost, and
//!   [`ChoicePolicy::Robust`] minimizes `expected + penalty * tail` over
//!   the whole region (the penalty-aware criterion of `crate::robust`);
//! * a [`Chooser`] binds a plan catalog, catalog statistics, a cost model
//!   and a policy, and returns a rich [`Choice`] — chosen plan, score,
//!   expected/tail costs, runner-up and margin — instead of a bare index,
//!   so experiments can map *how close* a decision was, not just what it
//!   was.

use robustmap_storage::CostModel;
use robustmap_workload::{
    Calibrator, EquiDepthHistogram, JointHistogram, MaintainedJoint, Staleness, Workload,
};

use crate::optimizer::{estimate_cost, frechet_clamp, CatalogStats, SelEstimates};
use crate::robust::{
    credible_region, credible_region_around, region_cost, RobustConfig, SelHypothesis,
};
use crate::two_pred::TwoPredPlan;

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
        SelEstimates::exact(self.cal_a.selectivity(ta), self.cal_b.selectivity(tb))
    }
}

/// Exact marginals distorted by a multiplicative error factor per column
/// (`> 1` over-estimates, `< 1` under-estimates) — the injected
/// "errors in cardinality estimation" sweep of `ext_optimizer`.
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
        SelEstimates::with_error(
            self.exact.cal_a.selectivity(ta),
            self.exact.cal_b.selectivity(tb),
            self.error_a,
            self.error_b,
        )
    }
}

/// Per-column equi-depth catalog histograms (independence conjunction):
/// how a real optimizer obtains estimates, with error governed by bucket
/// count and staleness.
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
        SelEstimates::from_histograms(self.hist_a, self.hist_b, ta, tb)
    }
}

/// Two-column joint statistics: marginals from the sample's per-column
/// histograms, the conjunction from observed co-occurrence — no
/// independence assumption.
///
/// Its [`Estimator::region`] is the credible box of `crate::robust`, but
/// with *variance-adaptive* half-widths: per axis the width is the larger
/// of the bucket resolution (the representational floor — the statistics
/// cannot distinguish selectivities closer than a bucket) and `z`
/// standard errors of the sampled estimate (the statistical floor — a
/// sparse sample is uncertain far beyond its bucket grid).  With a
/// plentiful sample this degenerates to the fixed bucket-resolution box;
/// with a sparse one the region widens with the observed sample variance,
/// exactly the adaptive hedging the ROADMAP called for.
pub struct Joint<'j> {
    joint: &'j JointHistogram,
    /// Credible-band width in standard errors of the sampled estimate
    /// (default 2 — a ~95% band under the normal approximation).
    pub z: f64,
}

impl<'j> Joint<'j> {
    /// An estimator over built joint statistics, with the default band.
    pub fn new(joint: &'j JointHistogram) -> Self {
        Joint { joint, z: 2.0 }
    }

    /// The underlying statistics.
    pub fn stats(&self) -> &'j JointHistogram {
        self.joint
    }

    /// The half-widths its region hedges over at `(ta, tb)`:
    /// `max(bucket resolution, z * stderr)` per axis.
    pub fn radii(&self, ta: i64, tb: i64) -> (f64, f64) {
        let j = self.joint;
        let ra = credible_radius(j.resolution_a(), self.z, j.sel_variance_a(ta));
        let rb = credible_radius(j.resolution_b(), self.z, j.sel_variance_b(tb));
        (ra, rb)
    }
}

impl Estimator for Joint<'_> {
    fn estimate(&self, ta: i64, tb: i64) -> SelEstimates {
        SelEstimates::from_joint(self.joint, ta, tb)
    }

    fn region(&self, ta: i64, tb: i64) -> Vec<SelHypothesis> {
        let (ra, rb) = self.radii(ta, tb);
        credible_region(self.joint, ta, tb, ra, rb)
    }
}

/// One axis's credible half-width: the larger of the bucket `resolution`
/// and `z` standard errors of an estimate whose variance is `var`.
fn credible_radius(resolution: f64, z: f64, var: f64) -> f64 {
    resolution.max(z * var.sqrt())
}

/// Frozen joint statistics known to be stale: the estimate is the base's
/// (wrong under churn — that is the point), but the credible region
/// widens with the [`Staleness`] meter, so [`ChoicePolicy::Robust`]
/// hedges harder the longer the statistics go unmaintained.
///
/// Same shape as [`Joint`]'s variance-adaptive half-widths, with the
/// sampling variance *plus* the churned mass's worth of Bernoulli
/// variance, `var + severity * p(1-p)` ([`Staleness::severity`]).  At
/// severity 0 this is exactly [`Joint`]'s width; as the modified fraction
/// (amplified by drift) approaches 1 the standard error approaches the
/// full population standard deviation, i.e. "the statistic tells us
/// almost nothing beyond the mean".
pub struct Stale<'j> {
    joint: &'j JointHistogram,
    /// The staleness meter driving the widening.
    pub staleness: Staleness,
    /// Credible-band width in standard errors (default 2, as [`Joint`]).
    pub z: f64,
}

impl<'j> Stale<'j> {
    /// A stale-aware estimator over frozen statistics and a meter reading.
    pub fn new(joint: &'j JointHistogram, staleness: Staleness) -> Self {
        Stale { joint, staleness, z: 2.0 }
    }

    /// The staleness-widened half-widths at `(ta, tb)`.
    pub fn radii(&self, ta: i64, tb: i64) -> (f64, f64) {
        let severity = self.staleness.severity().clamp(0.0, 1.0);
        let inflated = |var: f64, p: f64| {
            let p = p.clamp(0.0, 1.0);
            var + severity * p * (1.0 - p)
        };
        let j = self.joint;
        let var_a = inflated(j.sel_variance_a(ta), j.marginal_a().estimate_at_most(ta));
        let var_b = inflated(j.sel_variance_b(tb), j.marginal_b().estimate_at_most(tb));
        let ra = credible_radius(j.resolution_a(), self.z, var_a);
        let rb = credible_radius(j.resolution_b(), self.z, var_b);
        (ra, rb)
    }
}

impl Estimator for Stale<'_> {
    fn estimate(&self, ta: i64, tb: i64) -> SelEstimates {
        SelEstimates::from_joint(self.joint, ta, tb)
    }

    fn region(&self, ta: i64, tb: i64) -> Vec<SelHypothesis> {
        let (ra, rb) = self.radii(ta, tb);
        credible_region(self.joint, ta, tb, ra, rb)
    }
}

/// Incrementally maintained joint statistics
/// ([`robustmap_workload::stats_maint::MaintainedJoint`]): the point
/// estimate folds the per-bucket deltas in, so it tracks the churned
/// table; the region keeps the base's variance-adaptive widths (the
/// deltas fix the *mean*, not the within-bucket placement, so the
/// resolution floor still applies) around the corrected center.
pub struct Maintained<'m> {
    stats: &'m MaintainedJoint,
    /// Credible-band width in standard errors (default 2, as [`Joint`]).
    pub z: f64,
}

impl<'m> Maintained<'m> {
    /// An estimator over maintained statistics.
    pub fn new(stats: &'m MaintainedJoint) -> Self {
        Maintained { stats, z: 2.0 }
    }

    /// The underlying maintained statistics.
    pub fn stats(&self) -> &'m MaintainedJoint {
        self.stats
    }

    fn radii(&self, ta: i64, tb: i64) -> (f64, f64) {
        let base = self.stats.base();
        let ra = credible_radius(base.resolution_a(), self.z, base.sel_variance_a(ta));
        let rb = credible_radius(base.resolution_b(), self.z, base.sel_variance_b(tb));
        (ra, rb)
    }
}

impl Estimator for Maintained<'_> {
    fn estimate(&self, ta: i64, tb: i64) -> SelEstimates {
        let sel_a = self.stats.estimate_a(ta);
        let sel_b = self.stats.estimate_b(tb);
        let sel_ab = frechet_clamp(sel_a, sel_b, self.stats.estimate_ab(ta, tb));
        SelEstimates { sel_a, sel_b, sel_ab }
    }

    fn region(&self, ta: i64, tb: i64) -> Vec<SelHypothesis> {
        let (ra, rb) = self.radii(ta, tb);
        credible_region_around(self.estimate(ta, tb), ra, rb)
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
    /// Decide at `(ta, tb)` using `estimator` — the policy determines
    /// whether the point estimate or the whole region is consulted.
    pub fn choose<E: Estimator + ?Sized>(&self, estimator: &E, ta: i64, tb: i64) -> Choice {
        match self.policy {
            ChoicePolicy::Point => self.choose_at(&estimator.estimate(ta, tb), ta, tb),
            ChoicePolicy::Robust(_) => self.choose_over(&estimator.region(ta, tb), ta, tb),
        }
    }

    /// Point selection at explicit estimates: argmin of estimated cost,
    /// ties to the lower index (pinned against a brute-force argmin by
    /// `tests/prop_choice.rs`).
    pub fn choose_at(&self, est: &SelEstimates, ta: i64, tb: i64) -> Choice {
        self.select(|plan| {
            let c = estimate_cost(&plan.build(ta, tb), self.stats, est, self.model);
            (c, c, c)
        })
    }

    /// Selection over an explicit hypothesis region.  Under the robust
    /// policy the score is `expected + penalty_weight * tail`; under the
    /// point policy the region is scored at its expectation (a
    /// single-hypothesis region thus reproduces `choose_at` exactly).
    pub fn choose_over(&self, region: &[SelHypothesis], ta: i64, tb: i64) -> Choice {
        let cfg = match self.policy {
            ChoicePolicy::Robust(cfg) => cfg,
            ChoicePolicy::Point => RobustConfig { tail_quantile: 1.0, penalty_weight: 0.0 },
        };
        self.select(|plan| {
            let (expected, tail) = region_cost(plan, ta, tb, self.stats, region, self.model, &cfg);
            (expected + cfg.penalty_weight * tail, expected, tail)
        })
    }

    /// Shared selection core: score every plan, pick the strict minimum
    /// (ties break to the lower index, deterministically), and report the runner-up and margin.
    fn select(&self, score_of: impl Fn(&TwoPredPlan) -> (f64, f64, f64)) -> Choice {
        assert!(!self.plans.is_empty(), "empty plan catalog");
        let scored: Vec<(f64, f64, f64)> = self.plans.iter().map(score_of).collect();
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, &(score, _, _)) in scored.iter().enumerate() {
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        let mut runner_up = None;
        let mut runner_score = f64::INFINITY;
        for (i, &(score, _, _)) in scored.iter().enumerate() {
            if i != best && score < runner_score {
                runner_score = score;
                runner_up = Some(i);
            }
        }
        let (score, expected, tail) = scored[best];
        Choice {
            plan: best,
            name: self.plans[best].name.clone(),
            score,
            expected,
            tail,
            runner_up,
            margin: runner_up.map_or(0.0, |r| (scored[r].0 - score).max(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_pred::two_predicate_plans;
    use crate::SystemId;
    use robustmap_storage::CostModel;
    use robustmap_workload::gen::PredicateDistribution;
    use robustmap_workload::{JointHistogramConfig, TableBuilder, WorkloadConfig};

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
}
