//! When does a mid-flight switch pay?  The policy side of adaptive
//! execution.
//!
//! The executor's adaptive layer ([`robustmap_executor::ops::adaptive`])
//! reports exact cardinalities at checkpoints and bails whenever a
//! `SwitchController` names a plan.  This module supplies the answers:
//!
//! * [`SwitchPolicy`] — the *trip* predicate.  The compile-time
//!   [`Choice`] came with a credible region around its cardinality
//!   estimate; observing more rows than the region's upper edge
//!   ([`SwitchPolicy::band_hi`]) means the estimate was wrong in the
//!   direction that makes the chosen plan more expensive, and the policy
//!   recommends reconsidering.  Undershooting the estimate only makes the
//!   chosen plan *cheaper* than predicted, so the policy never trips on
//!   it — which also keeps [`SwitchPolicy::should_switch`] monotone in
//!   the observed cardinality (pinned by `tests/prop_choice.rs`).
//! * [`BailController`] — the full decision.  When the policy trips, the
//!   controller re-costs the *remaining* pipeline with the observed
//!   cardinality substituted for the estimate, re-costs the fallback plan
//!   the same way, and bails only when abandoning pays by more than the
//!   hedging slack.  A trip whose corrected costs still favour the
//!   incumbent is a no-op — the run stays charge-identical to the static
//!   executor.
//!
//! Degenerate edges (also pinned by the property tests): a margin of ∞ or
//! a `penalty_weight` of 0 in the reused [`RobustConfig`] disable
//! switching entirely — zero penalty means the caller does not price
//! worst-case outcomes, so hedging mid-flight cannot pay either.

use robustmap_executor::{CheckpointKind, FetchKind, Observation, PlanSpec, SwitchController};
use robustmap_storage::CostModel;
use robustmap_workload::{COL_A, COL_B};

use crate::choice::Choice;
use crate::optimizer::{
    clamp_sel, estimate_cost, estimate_fetch, frechet_clamp, CatalogStats, SelEstimates,
};
use crate::robust::RobustConfig;

/// Absolute slack added to the credible band's upper edge: sampled and
/// rounded cardinalities jitter by a handful of rows around tiny
/// expectations, and a trip predicate without a noise floor would fire on
/// that jitter exactly where the estimates are *right* (the same
/// minimum-evidence idea as [`crate::optimizer::JOINT_MIN_EVIDENCE`]).
pub const CARDINALITY_NOISE_ROWS: f64 = 16.0;

/// Default multiplicative half-width of the credible band on observed
/// rows: a factor-2 cardinality surprise is where textbook estimates stop
/// being credible.
pub const DEFAULT_BAND_FACTOR: f64 = 2.0;

/// The trip predicate: decides whether an observed cardinality is
/// surprising enough to reconsider the running plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchPolicy {
    /// The compile-time expected cardinality at the checkpoint.
    pub expected_rows: f64,
    /// Upper edge of the credible region on observed rows; observing more
    /// trips the policy.
    pub band_hi: f64,
    /// The compile-time [`Choice::margin`] (cost units): how decisively
    /// the chosen plan won.  A switch must pay by more than the
    /// margin-derived slack; `∞` disables switching.
    pub margin: f64,
    /// Reused robust knobs: `penalty_weight` scales the hedging slack and
    /// `0` disables switching (no price on worst-case outcomes means no
    /// reason to hedge).
    pub cfg: RobustConfig,
}

impl SwitchPolicy {
    /// Policy for a compile-time `choice` whose checkpoint cardinality
    /// estimate is `expected_rows`, with a credible band of
    /// `expected_rows * band_factor + CARDINALITY_NOISE_ROWS`.
    pub fn from_choice(
        choice: &Choice,
        expected_rows: f64,
        band_factor: f64,
        cfg: RobustConfig,
    ) -> Self {
        SwitchPolicy {
            expected_rows,
            band_hi: expected_rows * band_factor + CARDINALITY_NOISE_ROWS,
            margin: choice.margin,
            cfg,
        }
    }

    /// Whether `observed` rows at the checkpoint warrant reconsidering.
    /// Monotone in `observed`; always false at margin = ∞ or
    /// `penalty_weight <= 0`.
    pub fn should_switch(&self, observed: u64) -> bool {
        self.cfg.penalty_weight > 0.0 && self.margin.is_finite() && (observed as f64) > self.band_hi
    }

    /// Once tripped and re-costed: switching pays iff the corrected cost
    /// of continuing exceeds the corrected cost of the alternative by more
    /// than the hedging slack `margin / penalty_weight` — the more
    /// decisively the incumbent won at compile time (large margin), and
    /// the less the caller prices bad outcomes (small penalty), the more
    /// evidence a switch needs.
    pub fn switch_pays(&self, remaining: f64, alternative: f64) -> bool {
        // A NaN penalty weight must land in the degenerate never-switch arm,
        // so compare via partial_cmp rather than `> 0.0`.
        let positive_penalty =
            self.cfg.penalty_weight.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive_penalty || !self.margin.is_finite() {
            return false;
        }
        remaining > alternative + self.margin / self.cfg.penalty_weight
    }
}

/// A [`SwitchController`] that arms one checkpoint of the chosen plan and
/// bails to a fallback plan when the [`SwitchPolicy`] trips *and* the
/// re-costed comparison says abandoning pays.
pub struct BailController<'a> {
    /// The armed checkpoint (observations elsewhere are ignored).
    pub at: CheckpointKind,
    /// The trip predicate.
    pub policy: SwitchPolicy,
    /// The plan to bail to (typically the choice-free MDAM plan).
    pub fallback: PlanSpec,
    /// Re-cost both courses at the observed cardinality: returns
    /// `(remaining cost of continuing, cost of the fallback plan)` in
    /// model seconds.
    recost: Box<dyn Fn(u64) -> (f64, f64) + Send + Sync + 'a>,
}

impl<'a> BailController<'a> {
    /// Assemble a controller from its parts (the two-predicate catalog
    /// constructor is [`two_pred_bail_controller`]).
    pub fn new(
        at: CheckpointKind,
        policy: SwitchPolicy,
        fallback: PlanSpec,
        recost: impl Fn(u64) -> (f64, f64) + Send + Sync + 'a,
    ) -> Self {
        BailController { at, policy, fallback, recost: Box::new(recost) }
    }
}

impl SwitchController for BailController<'_> {
    fn decide(&self, obs: &Observation) -> Option<PlanSpec> {
        if obs.kind != self.at || !self.policy.should_switch(obs.rows) {
            return None;
        }
        let (remaining, alternative) = (self.recost)(obs.rows);
        self.policy.switch_pays(remaining, alternative).then(|| self.fallback.clone())
    }
}

/// Build the bail-out controller for a chosen two-predicate plan, armed at
/// the plan's [`PlanSpec::checkpoint`]:
///
/// * an `IndexFetch` plan's [`CheckpointKind::RidFeed`] — the rid
///   count reveals the true cardinality of everything applied *before*
///   the fetch: the leading column's marginal for a bare single-column
///   range, or the full *conjunction* when a `key_filter` prunes the
///   composite-index scan (System B's plans) — the latter is exactly the
///   number the independence assumption gets wrong on correlated columns;
/// * an `IndexIntersect` plan's [`CheckpointKind::IntersectOut`] — the
///   surviving-rid count likewise reveals the true conjunction
///   cardinality;
/// * an `Mdam` plan's [`CheckpointKind::ScanOut`] milestones — the
///   produced count is only a *floor* on the conjunction, but a floor
///   above the credible band already falsifies the estimate, and the
///   controller then re-plans at the Fréchet upper bound
///   `min(sel_a, sel_b)` (the robust end of what stays consistent with
///   the exact marginals) rather than at a point the observation just
///   discredited;
/// * plans without a checkpoint (table scans, covering scans and rid
///   joins) return `None`.
///
/// The re-costing substitutes the observed cardinality into the same
/// [`estimate_cost`]/[`estimate_fetch`] formulas the compile-time choice
/// used (Fréchet-clamped to stay coherent), so the mid-flight decision is
/// the compile-time decision with one estimate replaced by ground truth.
///
/// `band_factor` sets the credible band.  [`DEFAULT_BAND_FACTOR`] treats a
/// factor-2 cardinality surprise as the edge of credibility; an experiment
/// whose known estimation failure sits *at* that factor (e.g. an
/// independence conjunction at marginal selectivity 1/2, wrong by exactly
/// `1/max(sel_a, sel_b)` = 2) passes a tighter band — the
/// [`CARDINALITY_NOISE_ROWS`] floor still protects tiny expectations.
#[allow(clippy::too_many_arguments)]
pub fn two_pred_bail_controller<'a>(
    chosen: &PlanSpec,
    choice: &Choice,
    fallback: PlanSpec,
    stats: &'a CatalogStats,
    est: SelEstimates,
    model: &'a CostModel,
    cfg: RobustConfig,
    band_factor: f64,
) -> Option<BailController<'a>> {
    /// What the armed checkpoint's row count measures.
    #[derive(Clone, Copy)]
    enum Reveals {
        LeadingA,
        LeadingB,
        Conjunction,
        /// A mid-scan floor on the conjunction (MDAM milestones).
        ConjunctionFloor,
    }
    /// What the remaining pipeline is, for re-costing.
    enum Tail {
        /// Fetch the pending rids with this discipline.
        Fetch(FetchKind),
        /// Finish (in practice: re-run) this scan — approximated by its
        /// full corrected cost, since milestones trip shortly past the
        /// credible band, early in the corrected total.
        Rescan(PlanSpec),
    }
    let at = chosen.checkpoint()?;
    let rows = stats.rows;
    let (expected, tail, reveals) = match chosen {
        PlanSpec::IndexFetch { scan, key_filter, fetch, .. } => {
            if key_filter.terms().is_empty() {
                let (sel, rev) = match stats.leading_column(scan.index) {
                    Some(c) if c == COL_A => (est.sel_a, Reveals::LeadingA),
                    Some(c) if c == COL_B => (est.sel_b, Reveals::LeadingB),
                    _ => (1.0, Reveals::LeadingA),
                };
                (sel * rows, Tail::Fetch(*fetch), rev)
            } else {
                // The key filter runs before the fetch, so the rid feed
                // counts the conjunction's survivors.
                (est.sel_ab * rows, Tail::Fetch(*fetch), Reveals::Conjunction)
            }
        }
        PlanSpec::IndexIntersect { fetch, .. } => {
            (est.sel_ab * rows, Tail::Fetch(*fetch), Reveals::Conjunction)
        }
        PlanSpec::Mdam { .. } => {
            (est.sel_ab * rows, Tail::Rescan(chosen.clone()), Reveals::ConjunctionFloor)
        }
        _ => return None,
    };
    let policy = SwitchPolicy::from_choice(choice, expected, band_factor, cfg);
    let fb = fallback.clone();
    let recost = move |observed: u64| {
        let obs = observed as f64;
        let corrected = match reveals {
            // A leading marginal: rescale the conjunction proportionally,
            // Fréchet-clamped.
            Reveals::LeadingA | Reveals::LeadingB => {
                let sel_lead = clamp_sel(obs / rows);
                let (sel_a, sel_b, prior) = if matches!(reveals, Reveals::LeadingA) {
                    (sel_lead, est.sel_b, est.sel_a)
                } else {
                    (est.sel_a, sel_lead, est.sel_b)
                };
                let sel_ab = frechet_clamp(sel_a, sel_b, est.sel_ab * (sel_lead / prior));
                SelEstimates { sel_a, sel_b, sel_ab }
            }
            // The true conjunction cardinality, observed directly.
            Reveals::Conjunction => SelEstimates {
                sel_a: est.sel_a,
                sel_b: est.sel_b,
                sel_ab: frechet_clamp(est.sel_a, est.sel_b, clamp_sel(obs / rows)),
            },
            // Only a floor — but one the credible band ruled out, so the
            // point estimate is falsified and the correction hedges to the
            // Fréchet upper bound (never below the floor itself).
            Reveals::ConjunctionFloor => SelEstimates {
                sel_a: est.sel_a,
                sel_b: est.sel_b,
                sel_ab: frechet_clamp(
                    est.sel_a,
                    est.sel_b,
                    est.sel_a.min(est.sel_b).max(clamp_sel(obs / rows)),
                ),
            },
        };
        // What continuing costs: fetching the pending rids (plus their
        // row CPU) — the prefix that produced them is sunk either way —
        // or, for a tripped scan, finishing it at the corrected estimate.
        let remaining = match &tail {
            Tail::Fetch(fetch) => estimate_fetch(obs, stats, fetch, model) + obs * model.cpu_row,
            Tail::Rescan(spec) => estimate_cost(spec, stats, &corrected, model),
        };
        (remaining, estimate_cost(&fb, stats, &corrected, model))
    };
    Some(BailController::new(at, policy, fallback, recost))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn choice_with_margin(margin: f64) -> Choice {
        Choice {
            plan: 0,
            name: "p".to_string(),
            score: 1.0,
            expected: 1.0,
            tail: 1.0,
            runner_up: Some(1),
            margin,
        }
    }

    #[test]
    fn trip_is_monotone_and_floored_by_noise() {
        let p = SwitchPolicy::from_choice(
            &choice_with_margin(0.1),
            100.0,
            DEFAULT_BAND_FACTOR,
            RobustConfig::default(),
        );
        assert!(!p.should_switch(100));
        assert!(!p.should_switch(216), "band edge 2*100+16 is inclusive");
        assert!(p.should_switch(217));
        assert!(p.should_switch(10_000), "monotone above the edge");
        // Tiny expectations are protected by the absolute noise floor.
        let tiny = SwitchPolicy::from_choice(
            &choice_with_margin(0.1),
            0.25,
            DEFAULT_BAND_FACTOR,
            RobustConfig::default(),
        );
        assert!(!tiny.should_switch(3), "a few noise rows above ~0 must not trip");
    }

    #[test]
    fn degenerate_policies_never_switch() {
        let inf_margin = SwitchPolicy::from_choice(
            &choice_with_margin(f64::INFINITY),
            100.0,
            DEFAULT_BAND_FACTOR,
            RobustConfig::default(),
        );
        let zero_penalty = SwitchPolicy::from_choice(
            &choice_with_margin(0.1),
            100.0,
            DEFAULT_BAND_FACTOR,
            RobustConfig { tail_quantile: 0.9, penalty_weight: 0.0 },
        );
        for obs in [0u64, 1_000, u64::MAX] {
            assert!(!inf_margin.should_switch(obs));
            assert!(!zero_penalty.should_switch(obs));
        }
        assert!(!inf_margin.switch_pays(f64::MAX, 0.0));
        assert!(!zero_penalty.switch_pays(f64::MAX, 0.0));
    }

    #[test]
    fn switch_pays_requires_beating_the_margin_slack() {
        let p = SwitchPolicy::from_choice(
            &choice_with_margin(1.0),
            100.0,
            DEFAULT_BAND_FACTOR,
            RobustConfig { tail_quantile: 0.9, penalty_weight: 0.5 },
        );
        // Slack = margin / penalty = 2.0.
        assert!(!p.switch_pays(5.0, 4.0), "within the slack: stay");
        assert!(!p.switch_pays(6.0, 4.0), "exactly the slack: stay");
        assert!(p.switch_pays(6.1, 4.0), "beyond the slack: switch");
    }

    #[test]
    fn mdam_plans_arm_scan_out_milestones() {
        use robustmap_workload::{TableBuilder, WorkloadConfig};

        let w = TableBuilder::build(WorkloadConfig::with_rows(1 << 14));
        let stats = CatalogStats::of(&w);
        let model = CostModel::default();
        let plans = crate::two_predicate_plans(crate::SystemId::C, &w);
        let mdam = plans.iter().find(|p| p.name.contains("mdam(a,b)")).unwrap();
        let scan_b = plans.iter().find(|p| p.name.contains("covering(b,a) scan")).unwrap();
        // A wide leading marginal and a tiny trailing one: once the
        // conjunction estimate is falsified, the Fréchet-upper-bound
        // correction makes finishing the MDAM clearly dearer than the
        // b-leading covering scan.  With sel_a = 0.5 the independence error
        // at full correlation is exactly a factor 2, so the rho=1 floor sits
        // inside the default band — the tightened band is what catches it.
        let (sel_a, sel_b) = (0.5, 1.0 / 64.0);
        let (ta, tb) = (w.cal_a.threshold(sel_a), w.cal_b.threshold(sel_b));
        let est = SelEstimates { sel_a, sel_b, sel_ab: sel_a * sel_b };
        let spec = mdam.build(ta, tb);
        let ctrl = two_pred_bail_controller(
            &spec,
            &choice_with_margin(1e-6),
            scan_b.build(ta, tb),
            &stats,
            est,
            &model,
            RobustConfig::default(),
            1.5,
        )
        .expect("MDAM plans are observable");
        assert_eq!(ctrl.at, CheckpointKind::ScanOut);
        let expected = est.sel_ab * stats.rows; // 128 rows
        let below = (expected * 1.5 + CARDINALITY_NOISE_ROWS) as u64;
        assert!(ctrl.decide(&Observation { kind: CheckpointKind::ScanOut, rows: below }).is_none());
        // The fully-correlated output floor, min(sel_a, sel_b) * rows = 256,
        // clears the band; the re-costed comparison says the switch pays.
        let tripped = (sel_a.min(sel_b) * stats.rows) as u64;
        assert!(ctrl.decide(&Observation { kind: CheckpointKind::ScanOut, rows: tripped }).is_some());
    }

    /// The controller arms exactly the checkpoint the executor declares
    /// for the plan's shape, and is `None` for every shape that has none.
    #[test]
    fn every_catalog_plan_arms_its_declared_checkpoint() {
        use robustmap_workload::{TableBuilder, WorkloadConfig};

        let w = TableBuilder::build(WorkloadConfig::with_rows(1 << 12));
        let stats = CatalogStats::of(&w);
        let model = CostModel::default();
        let (ta, tb) = (w.cal_a.threshold(0.25), w.cal_b.threshold(0.25));
        let est = SelEstimates { sel_a: 0.25, sel_b: 0.25, sel_ab: 0.0625 };
        let plans: Vec<_> = crate::SystemId::all()
            .into_iter()
            .flat_map(|s| crate::two_predicate_plans(s, &w))
            .collect();
        assert_eq!(plans.len(), 15);
        for plan in &plans {
            let spec = plan.build(ta, tb);
            let ctrl = two_pred_bail_controller(
                &spec,
                &choice_with_margin(1.0),
                spec.clone(),
                &stats,
                est,
                &model,
                RobustConfig::default(),
                DEFAULT_BAND_FACTOR,
            );
            assert_eq!(ctrl.map(|c| c.at), spec.checkpoint(), "{}", plan.name);
        }
    }

    #[test]
    fn controller_only_acts_at_its_armed_checkpoint() {
        let fallback = PlanSpec::TableScan {
            table: robustmap_storage::TableId(0),
            pred: robustmap_executor::Predicate::always_true(),
            project: robustmap_executor::Projection::All,
        };
        let policy = SwitchPolicy {
            expected_rows: 10.0,
            band_hi: 20.0,
            margin: 0.0,
            cfg: RobustConfig::default(),
        };
        // Continuing always looks 10x worse than the fallback.
        let ctrl = BailController::new(CheckpointKind::IntersectOut, policy, fallback, |o| {
            (o as f64, o as f64 / 10.0)
        });
        let at_armed = Observation { kind: CheckpointKind::IntersectOut, rows: 1_000 };
        assert!(ctrl.decide(&at_armed).is_some());
        let below_band = Observation { kind: CheckpointKind::IntersectOut, rows: 15 };
        assert!(ctrl.decide(&below_band).is_none());
        let elsewhere = Observation { kind: CheckpointKind::RidFeed, rows: 1_000 };
        assert!(ctrl.decide(&elsewhere).is_none());
    }
}
