//! Property-based tests for the `choice` API: the contracts the rest of
//! the repo leans on.
//!
//! * `ChoicePolicy::Point` is the argmin of estimated cost over the full
//!   15-plan catalog, ties to the lower index;
//! * `ChoicePolicy::Robust` with a single hypothesis and zero penalty
//!   degenerates to the point policy exactly;
//! * tie-breaks are deterministic (lower index wins, repeat calls agree);
//! * every [`Choice`] is internally coherent: `margin >= 0`,
//!   `runner_up != plan`, the runner-up never scores below the winner.

use std::sync::OnceLock;

use proptest::prelude::*;
use robustmap_storage::CostModel;
use robustmap_systems::choice::{Choice, ChoicePolicy, Chooser};
use robustmap_systems::{
    estimate_cost, CatalogStats, Estimator, RobustConfig, SelEstimates, SelHypothesis,
    SwitchPolicy, SystemId, CARDINALITY_NOISE_ROWS,
};
use robustmap_workload::{TableBuilder, Workload, WorkloadConfig};

/// One shared mid-size workload: catalogs and statistics are deterministic,
/// so every property case can reuse it.
fn workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| TableBuilder::build(WorkloadConfig::with_rows(1 << 14)))
}

fn full_catalog(w: &Workload) -> Vec<robustmap_systems::TwoPredPlan> {
    SystemId::all().into_iter().flat_map(|s| robustmap_systems::two_predicate_plans(s, w)).collect()
}

/// A selectivity from a dense grid over (0, 1] — the sweep range every
/// figure uses, plus the clamping edges.
fn sel_from(exp2: u32, jitter: f64) -> f64 {
    (0.5f64.powi(exp2 as i32) * (1.0 + jitter)).clamp(0.0, 1.0)
}

/// A synthetic compile-time choice carrying just the fields
/// [`SwitchPolicy`] reads — the cardinality contracts are about the
/// margin, not which plan won.
fn dummy_choice(margin: f64) -> Choice {
    Choice {
        plan: 0,
        name: "synthetic".to_string(),
        score: 1.0,
        expected: 1.0,
        tail: 1.0,
        runner_up: Some(1),
        margin,
    }
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

fn coherent(c: &Choice, plan_count: usize) {
    assert!(c.plan < plan_count);
    assert!(c.margin >= 0.0, "margin {}", c.margin);
    assert!(c.score.is_finite() && c.expected.is_finite() && c.tail.is_finite());
    if let Some(r) = c.runner_up {
        assert_ne!(r, c.plan, "runner-up must differ from the winner");
        assert!(r < plan_count);
    } else {
        assert_eq!(plan_count, 1, "only a singleton catalog lacks a runner-up");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Point policy == brute-force argmin of estimated cost (ties to the
    /// lower index), over the full 15-plan catalog and arbitrary (clamped)
    /// estimates.
    #[test]
    fn point_policy_is_the_argmin_of_estimated_cost(
        exp_a in 0u32..=14,
        exp_b in 0u32..=14,
        jitter_a in 0.0f64..1.0,
        jitter_b in 0.0f64..1.0,
        err_exp in 0i64..=18,
    ) {
        let w = workload();
        let plans = full_catalog(w);
        prop_assert_eq!(plans.len(), 15);
        let stats = CatalogStats::of(w);
        let model = CostModel::hdd_2009();
        let (sa, sb) = (sel_from(exp_a, jitter_a), sel_from(exp_b, jitter_b));
        let (ta, tb) = (w.cal_a.threshold(sa), w.cal_b.threshold(sb));
        let err = 2.0f64.powi(err_exp as i32 - 9);
        let est = SelEstimates::independent(sa * err, sb * (1.0 / err.max(1e-12)));
        let costs: Vec<f64> = plans
            .iter()
            .map(|p| estimate_cost(&p.build(ta, tb), &stats, &est, &model))
            .collect();
        let argmin = (0..costs.len()).fold(0, |best, i| if costs[i] < costs[best] { i } else { best });
        let chooser =
            Chooser { plans: &plans, stats: &stats, model: &model, policy: ChoicePolicy::Point };
        let choice = chooser.choose(&est, ta, tb);
        prop_assert_eq!(choice.plan, argmin);
        // The reported score is exactly the winner's estimated cost.
        prop_assert_eq!(choice.score, costs[argmin]);
        coherent(&choice, plans.len());
    }

    /// Robust with one hypothesis and zero penalty == point, exactly.
    #[test]
    fn degenerate_robust_policy_equals_point(
        exp_a in 0u32..=14,
        exp_b in 0u32..=14,
        tail_q in 0.0f64..=1.0,
    ) {
        let w = workload();
        let plans = full_catalog(w);
        let stats = CatalogStats::of(w);
        let model = CostModel::hdd_2009();
        let (sa, sb) = (sel_from(exp_a, 0.0), sel_from(exp_b, 0.0));
        let (ta, tb) = (w.cal_a.threshold(sa), w.cal_b.threshold(sb));
        // Bare estimates are an estimator whose region is the point alone.
        let est = SelEstimates::independent(sa, sb);
        let cfg = RobustConfig { tail_quantile: tail_q, penalty_weight: 0.0 };
        let point = Chooser {
            plans: &plans, stats: &stats, model: &model, policy: ChoicePolicy::Point,
        }
        .choose(&est, ta, tb);
        let robust = Chooser {
            plans: &plans, stats: &stats, model: &model, policy: ChoicePolicy::Robust(cfg),
        }
        .choose(&est, ta, tb);
        prop_assert_eq!(robust.plan, point.plan);
        prop_assert_eq!(robust.score, point.score, "zero penalty: score is the point cost");
        prop_assert_eq!(robust.runner_up, point.runner_up);
        coherent(&robust, plans.len());
    }

    /// Tie-breaks are deterministic: a catalog with every plan duplicated
    /// always picks out of the first copies (the lower index), and repeat
    /// calls agree.
    #[test]
    fn tie_breaks_are_deterministic(
        exp_a in 0u32..=14,
        exp_b in 0u32..=14,
        robust in any::<bool>(),
    ) {
        let w = workload();
        let mut plans = full_catalog(w);
        plans.extend(full_catalog(w)); // indices 15.. are exact duplicates
        let stats = CatalogStats::of(w);
        let model = CostModel::hdd_2009();
        let policy = if robust {
            ChoicePolicy::Robust(RobustConfig::default())
        } else {
            ChoicePolicy::Point
        };
        let chooser = Chooser { plans: &plans, stats: &stats, model: &model, policy };
        let (sa, sb) = (sel_from(exp_a, 0.0), sel_from(exp_b, 0.0));
        let (ta, tb) = (w.cal_a.threshold(sa), w.cal_b.threshold(sb));
        let est = SelEstimates::independent(sa, sb);
        let first = chooser.choose(&est, ta, tb);
        prop_assert!(first.plan < 15, "ties must break to the lower index");
        // The duplicate scores identically, so the margin to it is 0 and
        // selection must still be stable across calls.
        let again = chooser.choose(&est, ta, tb);
        prop_assert_eq!(&first, &again);
        coherent(&first, plans.len());
    }

    /// `SwitchPolicy::should_switch` is monotone in the observed
    /// cardinality: once an observation trips the policy, every larger
    /// observation trips it too, and nothing at or below the credible
    /// band's upper edge ever trips.
    #[test]
    fn switch_policy_is_monotone_in_observed(
        expected in 0.0f64..1e6,
        band_factor in 0.25f64..8.0,
        margin in 0.0f64..1e4,
        penalty in 0.01f64..4.0,
        observed in 0u64..4_000_000,
        delta in 0u64..4_000_000,
    ) {
        let choice = dummy_choice(margin);
        let cfg = RobustConfig { tail_quantile: 0.9, penalty_weight: penalty };
        let policy = SwitchPolicy::from_choice(&choice, expected, band_factor, cfg);
        prop_assert_eq!(
            policy.band_hi.to_bits(),
            (expected * band_factor + CARDINALITY_NOISE_ROWS).to_bits()
        );
        if policy.should_switch(observed) {
            prop_assert!(
                policy.should_switch(observed + delta),
                "tripped at {observed} but not at {}", observed + delta
            );
        }
        // At or below the band edge never trips (the noise floor's job).
        let in_band = policy.band_hi.floor().clamp(0.0, 4e6) as u64;
        prop_assert!(!policy.should_switch(in_band));
    }

    /// The degenerate policies never switch and never pay: margin ∞ and
    /// zero penalty are each inert for any observation and any re-costed
    /// comparison.
    #[test]
    fn degenerate_switch_policies_are_inert(
        expected in 0.0f64..1e6,
        observed in 0u64..4_000_000,
        remaining in 0.0f64..1e9,
        alternative in 0.0f64..1e9,
        penalty in 0.01f64..4.0,
    ) {
        let live_cfg = RobustConfig { tail_quantile: 0.9, penalty_weight: penalty };
        let infinite_margin = SwitchPolicy::from_choice(
            &dummy_choice(f64::INFINITY), expected, 0.5, live_cfg,
        );
        let zero_penalty = SwitchPolicy::from_choice(
            &dummy_choice(0.0),
            expected,
            0.5,
            RobustConfig { tail_quantile: 0.9, penalty_weight: 0.0 },
        );
        for policy in [infinite_margin, zero_penalty] {
            prop_assert!(!policy.should_switch(observed));
            prop_assert!(!policy.switch_pays(remaining, alternative));
        }
    }

    /// `switch_pays` demands strict dominance past the hedging slack: it
    /// never fires when continuing is at least as cheap, and it is
    /// monotone in how much the corrected continue-cost exceeds the
    /// alternative.
    #[test]
    fn switch_pays_requires_strict_dominance(
        margin in 0.0f64..1e4,
        penalty in 0.01f64..4.0,
        remaining in 0.0f64..1e9,
        alternative in 0.0f64..1e9,
        extra in 0.0f64..1e9,
    ) {
        let cfg = RobustConfig { tail_quantile: 0.9, penalty_weight: penalty };
        let policy = SwitchPolicy::from_choice(&dummy_choice(margin), 100.0, 2.0, cfg);
        if remaining <= alternative {
            prop_assert!(!policy.switch_pays(remaining, alternative));
        }
        if policy.switch_pays(remaining, alternative) {
            prop_assert!(policy.switch_pays(remaining + extra, alternative));
        }
    }

    /// Choices are coherent for arbitrary weighted regions: margin >= 0,
    /// runner_up != plan, and the winner's score is the region minimum.
    #[test]
    fn choices_over_arbitrary_regions_are_coherent(
        exp_a in 0u32..=14,
        exp_b in 0u32..=14,
        spread in 1.0f64..64.0,
        weight in 0.05f64..0.95,
        penalty in 0.0f64..4.0,
    ) {
        let w = workload();
        let plans = full_catalog(w);
        let stats = CatalogStats::of(w);
        let model = CostModel::hdd_2009();
        let (sa, sb) = (sel_from(exp_a, 0.0), sel_from(exp_b, 0.0));
        let (ta, tb) = (w.cal_a.threshold(sa), w.cal_b.threshold(sb));
        let region = [
            SelHypothesis { est: SelEstimates::independent(sa / spread, sb), weight },
            SelHypothesis { est: SelEstimates::independent(sa, sb / spread), weight: 1.0 - weight },
        ];
        let cfg = RobustConfig { tail_quantile: 0.9, penalty_weight: penalty };
        let chooser = Chooser {
            plans: &plans, stats: &stats, model: &model, policy: ChoicePolicy::Robust(cfg),
        };
        let c = chooser.choose(&Fixed(&region), ta, tb);
        coherent(&c, plans.len());
        prop_assert!(c.tail >= 0.0 && c.expected >= 0.0);
        prop_assert!(c.score >= c.expected, "penalty adds a nonnegative term");
        // No other plan scores strictly below the winner.
        for (i, plan) in plans.iter().enumerate() {
            let (e, t) =
                robustmap_systems::robust::region_cost(plan, &stats, &region, &model, &cfg);
            let score = e + cfg.penalty_weight * t;
            prop_assert!(
                score >= c.score || i == c.plan,
                "plan {i} scores {score} below the winner's {}",
                c.score
            );
        }
    }
}
