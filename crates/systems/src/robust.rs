//! Penalty-aware robust plan selection under estimation uncertainty.
//!
//! The point policy ([`crate::choice::ChoicePolicy::Point`]) is the
//! textbook chooser: argmin of estimated cost at the *point* estimate.  The `ext_correlated`
//! experiment showed how that fails — feed it a cardinality that is wrong
//! by `rho / s` and it freezes on the wrong join across the whole
//! correlation sweep.  Modern robust-plan work (PARQO's penalty-aware
//! selection, Xiu et al. 2024; probabilistic plan evaluation, Kamali et
//! al. 2024) replaces the point with an *uncertainty region*: evaluate
//! every candidate over a set of selectivity hypotheses weighted by how
//! plausible the statistics make them, and pick the plan minimizing
//!
//! ```text
//! expected cost + penalty_weight * cost at the tail quantile
//! ```
//!
//! The tail term is the penalty-awareness: a plan that is cheap at the
//! estimate but catastrophic one histogram bucket away carries its
//! catastrophe into the score, while a flat (robust) plan is scored at
//! roughly its point cost.  With a single hypothesis and
//! `penalty_weight = 0` the robust chooser degenerates to the point
//! chooser exactly (unit-tested below).
//!
//! The hypothesis set comes from [`credible_region`]: a 3 × 3 credible
//! box around an estimator's center, with the half-widths the estimator
//! chooses ([`crate::choice::Joint::radii`]: at least one marginal-bucket
//! resolution per axis — the statistics cannot distinguish selectivities
//! closer than a bucket — and wider where the sample is sparse or stale).
//! Each hypothesis keeps the center's correlation lift
//! (`sel_ab / (sel_a * sel_b)`) and stays inside the Fréchet bounds, so
//! the region never hypothesises an incoherent joint selectivity.

use robustmap_storage::CostModel;

use robustmap_workload::{COL_A, COL_B};

use crate::optimizer::{clamp_sel, frechet_clamp, CatalogStats, PlanShape, Priced, SelEstimates};
use crate::two_pred::TwoPredPlan;

/// Tuning knobs of the robust chooser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustConfig {
    /// Quantile of the hypothesis cost distribution charged as the tail
    /// term (`0.9` = the cost the plan runs into in the worst decile of
    /// the credible region).
    pub tail_quantile: f64,
    /// Weight of the tail term added to the expected cost; `0` recovers
    /// pure expected-cost selection.
    pub penalty_weight: f64,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig { tail_quantile: 0.9, penalty_weight: 0.5 }
    }
}

/// One selectivity hypothesis with its plausibility weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelHypothesis {
    /// The hypothesised selectivities.
    pub est: SelEstimates,
    /// Plausibility weight (a region's weights sum to 1).
    pub weight: f64,
}

/// The credible box around `center`: a 3 × 3 grid spanning ± `radius_a`
/// / ± `radius_b`, triangular weights (¼, ½, ¼ per axis).  The center
/// hypothesis is `center` itself; every other keeps its correlation lift
/// and stays inside the Fréchet bounds.
pub fn credible_region(center: SelEstimates, radius_a: f64, radius_b: f64) -> Vec<SelHypothesis> {
    // The statistics' observed dependence, carried across the box: the
    // lift is what the histogram knows beyond the marginals.
    let lift = center.sel_ab / (center.sel_a * center.sel_b);
    let axis = |s0: f64, r: f64| {
        [(clamp_sel(s0 - r), 0.25), (s0, 0.5), (clamp_sel(s0 + r), 0.25)]
    };
    let mut region = Vec::with_capacity(9);
    for (sa, wa) in axis(center.sel_a, radius_a) {
        for (sb, wb) in axis(center.sel_b, radius_b) {
            let est = if sa == center.sel_a && sb == center.sel_b {
                center // the estimate itself, not a lift round-trip
            } else {
                SelEstimates { sel_a: sa, sel_b: sb, sel_ab: frechet_clamp(sa, sb, lift * sa * sb) }
            };
            region.push(SelHypothesis { est, weight: wa * wb });
        }
    }
    region
}

/// Hypotheses whose prices and costs a robust decision keeps on the stack:
/// the [`credible_region`] box.
const BOX_HYPOTHESES: usize = 9;

/// One hypothesis of a [`PricedRegion`].
#[derive(Debug, Clone, Copy)]
struct PricedHypothesis<'s> {
    at: Priced<'s>,
    weight: f64,
    /// `weight` over the region's total.
    share: f64,
    /// The first hypothesis with this one's `sel_a`, and with its `sel_b`.
    same: [usize; 2],
}

/// A hypothesis region priced once for every plan: each hypothesis's row
/// sets ([`CatalogStats::at`]) — a marginal's shared by every hypothesis
/// with its selectivity, to the bit —, its weight and its share of the
/// region's.  A region the size of the credible box is kept on the stack.
#[derive(Debug, Clone)]
pub struct PricedRegion<'s> {
    stats: &'s CatalogStats,
    on_stack: [PricedHypothesis<'s>; BOX_HYPOTHESES],
    on_heap: Vec<PricedHypothesis<'s>>,
    len: usize,
    total_w: f64,
}

impl<'s> PricedRegion<'s> {
    /// Price `region`, which must not be empty, against `stats`.
    pub fn new(stats: &'s CatalogStats, region: &[SelHypothesis]) -> Self {
        assert!(!region.is_empty(), "empty uncertainty region");
        let (est, weight) = (&region[0].est, region[0].weight);
        let first = PricedHypothesis { at: stats.at(est), weight, share: 0.0, same: [0, 0] };
        let (on_stack, len) = ([first; BOX_HYPOTHESES], region.len());
        let mut priced = PricedRegion { stats, on_stack, on_heap: Vec::new(), len, total_w: 0.0 };
        if region.len() > BOX_HYPOTHESES {
            priced.on_heap.resize(region.len(), first);
        }
        let hyps = priced.hyps_mut();
        for (i, h) in region.iter().enumerate().skip(1) {
            let bits = |e: &SelEstimates| [e.sel_a.to_bits(), e.sel_b.to_bits()];
            let mine = bits(&h.est);
            let same: [usize; 2] = std::array::from_fn(|m| {
                region[..i].iter().position(|e| bits(&e.est)[m] == mine[m]).unwrap_or(i)
            });
            let shared = |m: usize| (same[m] < i).then(|| &hyps[same[m]].at);
            let at = stats.at_sharing(&h.est, shared(0), shared(1));
            hyps[i] = PricedHypothesis { at, weight: h.weight, share: 0.0, same };
        }
        let total_w: f64 = hyps.iter().map(|h| h.weight).sum();
        for h in hyps.iter_mut() {
            h.share = h.weight / total_w;
        }
        priced.total_w = total_w;
        priced
    }

    fn hyps(&self) -> &[PricedHypothesis<'s>] {
        if self.len <= BOX_HYPOTHESES { &self.on_stack[..self.len] } else { &self.on_heap }
    }

    fn hyps_mut(&mut self) -> &mut [PricedHypothesis<'s>] {
        if self.len <= BOX_HYPOTHESES { &mut self.on_stack[..self.len] } else { &mut self.on_heap }
    }
}

/// Expected and tail-quantile estimated cost of one plan over a priced
/// hypothesis region.  The plan is priced by its shape, so no plan is
/// built; a plan that reads one predicate column's range alone is priced
/// once per distinct selectivity of that column, its cost copied to the
/// hypotheses that share it.  A region the size of the credible box
/// allocates nothing.
pub fn region_cost(
    plan: &TwoPredPlan,
    region: &PricedRegion,
    model: &CostModel,
    cfg: &RobustConfig,
) -> (f64, f64) {
    let hyps = region.hyps();
    if let [h] = hyps {
        // The sums and the quantile of one cost, without the loops.
        let c = plan.cost(&h.at, model);
        return (c * h.weight / region.total_w, c);
    }
    let mut on_stack = [(0.0, 0.0); BOX_HYPOTHESES];
    let mut on_heap = Vec::new();
    let costs = if hyps.len() <= BOX_HYPOTHESES {
        &mut on_stack[..hyps.len()]
    } else {
        on_heap.resize(hyps.len(), (0.0, 0.0));
        &mut on_heap[..]
    };
    let marginal = plan.shape.and_then(|shape| shape.marginal(region.stats));
    let axis = match marginal {
        Some(COL_A) => 0,
        Some(COL_B) => 1,
        _ => usize::MAX,
    };
    // The shape's `match` taken once, not once a hypothesis: in each arm the
    // loop is compiled for the one kind of shape.
    let (c, h, m) = (&mut *costs, hyps, axis);
    match plan.shape {
        Some(s @ PlanShape::TableScan) => fill_costs(c, h, m, |at| s.seconds(at, model)),
        Some(s @ PlanShape::IndexFetch { .. }) => fill_costs(c, h, m, |at| s.seconds(at, model)),
        Some(s @ PlanShape::CoveringIndexScan { .. }) => {
            fill_costs(c, h, m, |at| s.seconds(at, model))
        }
        Some(s @ PlanShape::Mdam { .. }) => fill_costs(c, h, m, |at| s.seconds(at, model)),
        Some(s @ PlanShape::IndexIntersect { .. }) => {
            fill_costs(c, h, m, |at| s.seconds(at, model))
        }
        None => fill_costs(c, h, m, |_| f64::INFINITY),
    }
    let weighted = costs.iter().zip(hyps).map(|(&(c, _), h)| c * h.weight);
    let expected = weighted.sum::<f64>() / region.total_w;
    // Stable, so equal costs keep region order and the quantile lands on
    // the same hypothesis whatever holds the costs.
    costs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite estimated costs"));
    let mut acc = 0.0;
    let mut tail = costs.last().expect("nonempty").0;
    for &(c, share) in costs.iter() {
        acc += share;
        if acc >= cfg.tail_quantile {
            tail = c;
            break;
        }
    }
    (expected, tail)
}

/// Each hypothesis's cost and share into `costs`: priced by `price`, or
/// copied from the first hypothesis with its selectivity on `axis`.
#[inline(always)]
fn fill_costs(
    costs: &mut [(f64, f64)],
    hyps: &[PricedHypothesis],
    axis: usize,
    price: impl Fn(&Priced) -> f64,
) {
    for (i, h) in hyps.iter().enumerate() {
        let same = h.same.get(axis).map_or(i, |&j| j);
        let c = if same < i { costs[same].0 } else { price(&h.at) };
        costs[i] = (c, h.share);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choice::{ChoicePolicy, Chooser, Estimator};
    use crate::optimizer::estimate_cost;
    use crate::optimizer::CatalogStats;
    use crate::two_pred::two_predicate_plans;
    use crate::SystemId;
    use robustmap_workload::gen::PredicateDistribution;
    use robustmap_workload::{JointHistogramConfig, TableBuilder, WorkloadConfig};

    fn setup() -> (robustmap_workload::Workload, CatalogStats, CostModel) {
        let w = TableBuilder::build(WorkloadConfig::with_rows(1 << 16));
        let stats = CatalogStats::of(&w);
        (w, stats, CostModel::hdd_2009())
    }

    /// A fixed hypothesis region, centered on its first hypothesis.
    struct Fixed<'r>(&'r [SelHypothesis]);

    impl Estimator for Fixed<'_> {
        fn estimate(&self, _ta: i64, _tb: i64) -> SelEstimates {
            self.0[0].est
        }

        fn region(&self, _ta: i64, _tb: i64) -> Vec<SelHypothesis> {
            self.0.to_vec()
        }
    }

    #[test]
    fn single_hypothesis_no_penalty_degenerates_to_the_point_chooser() {
        let (w, stats, model) = setup();
        let plans = two_predicate_plans(SystemId::A, &w);
        let cfg = RobustConfig { tail_quantile: 1.0, penalty_weight: 0.0 };
        for sel in [0.001, 0.05, 0.5, 1.0] {
            let (ta, tb) = (w.cal_a.threshold(sel), w.cal_b.threshold(sel));
            // Bare estimates are an estimator whose region is the point.
            let est = SelEstimates::independent(sel, sel);
            let chooser = |policy| Chooser { plans: &plans, stats: &stats, model: &model, policy };
            let point = chooser(ChoicePolicy::Point).choose(&est, ta, tb).plan;
            let robust = chooser(ChoicePolicy::Robust(cfg)).choose(&est, ta, tb).plan;
            assert_eq!(point, robust, "sel {sel}");
        }
    }

    #[test]
    fn tail_penalty_hedges_against_the_catastrophic_hypothesis() {
        // The point estimate says "tiny result" (index-fetch territory),
        // but a minority hypothesis says "everything qualifies" — where a
        // per-row fetch plan is catastrophic and the table scan is flat.
        // Expected cost alone keeps the index plan; the tail penalty must
        // flip the choice to a plan that survives the bad hypothesis.
        let (w, stats, model) = setup();
        let plans = two_predicate_plans(SystemId::A, &w);
        let (ta, tb) = (w.cal_a.threshold(0.3), w.cal_b.threshold(0.3));
        let region = [
            SelHypothesis { est: SelEstimates::independent(0.001, 0.001), weight: 0.93 },
            SelHypothesis { est: SelEstimates::independent(1.0, 1.0), weight: 0.07 },
        ];
        let expected_only = RobustConfig { tail_quantile: 0.95, penalty_weight: 0.0 };
        let penalised = RobustConfig { tail_quantile: 0.95, penalty_weight: 10.0 };
        let robust = |cfg| {
            Chooser { plans: &plans, stats: &stats, model: &model, policy: ChoicePolicy::Robust(cfg) }
                .choose(&Fixed(&region), ta, tb)
                .plan
        };
        let lean = robust(expected_only);
        let hedged = robust(penalised);
        // The hedged choice must never have a worse tail than the lean one
        // (that is the penalty's whole point), and on this region it is a
        // strictly different, tail-safer plan.
        let priced = PricedRegion::new(&stats, &region);
        let (_, lean_tail) = region_cost(&plans[lean], &priced, &model, &penalised);
        let (_, hedged_tail) = region_cost(&plans[hedged], &priced, &model, &penalised);
        assert!(hedged_tail <= lean_tail, "{lean_tail} vs {hedged_tail}");
        assert_ne!(
            plans[lean].name, plans[hedged].name,
            "the penalty should flip this constructed choice"
        );
    }

    #[test]
    fn credible_region_is_a_coherent_probability_box() {
        let w = TableBuilder::build(WorkloadConfig {
            rows: 1 << 14,
            seed: 31,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(75),
            mutation_epoch: 0,
        });
        let joint = robustmap_workload::JointHistogram::from_workload(
            &w,
            &JointHistogramConfig::default(),
        );
        for sel in [0.01, 0.25, 0.9] {
            let (ta, tb) = (w.cal_a.threshold(sel), w.cal_b.threshold(sel));
            let center = SelEstimates::from_joint(&joint, ta, tb);
            let region = credible_region(center, joint.resolution_a(), joint.resolution_b());
            assert_eq!(region.len(), 9);
            let wsum: f64 = region.iter().map(|h| h.weight).sum();
            assert!((wsum - 1.0).abs() < 1e-12, "weights sum to {wsum}");
            assert!(region.iter().any(|h| h.est == center), "center hypothesis present");
            for h in &region {
                assert!(h.est.sel_a > 0.0 && h.est.sel_a <= 1.0);
                assert!(h.est.sel_b > 0.0 && h.est.sel_b <= 1.0);
                assert!(h.est.sel_ab <= h.est.sel_a.min(h.est.sel_b) + 1e-12);
                assert!(h.est.sel_ab >= (h.est.sel_a + h.est.sel_b - 1.0) - 1e-12);
                assert!(h.weight > 0.0);
            }
        }
    }

    #[test]
    fn region_cost_is_finite_and_tail_dominates_expectation_quantile() {
        let (w, stats, model) = setup();
        let plans = two_predicate_plans(SystemId::A, &w);
        let joint = robustmap_workload::JointHistogram::from_workload(
            &w,
            &JointHistogramConfig::default(),
        );
        let (ta, tb) = (w.cal_a.threshold(0.1), w.cal_b.threshold(0.1));
        let region = credible_region(
            SelEstimates::from_joint(&joint, ta, tb),
            joint.resolution_a(),
            joint.resolution_b(),
        );
        let cfg = RobustConfig::default();
        let priced = PricedRegion::new(&stats, &region);
        for plan in &plans {
            let (expected, tail) = region_cost(plan, &priced, &model, &cfg);
            assert!(expected.is_finite() && expected > 0.0, "{}", plan.name);
            assert!(tail.is_finite() && tail > 0.0, "{}", plan.name);
            // The 0.9-quantile can sit below the mean only when the mean is
            // dragged by a >0.1-mass upper tail; with triangular weights the
            // tail is at least the median cost.
            let mut costs: Vec<f64> = region
                .iter()
                .map(|h| estimate_cost(&plan.build(ta, tb), &stats, &h.est, &model))
                .collect();
            costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert!(tail >= costs[costs.len() / 2], "{}", plan.name);
        }
    }
}
