//! A deliberately conventional compile-time cost estimator and plan
//! chooser.
//!
//! The paper's framing: "Much existing research into robustness focuses on
//! poor plan choices during query optimization. ... In contrast and as a
//! complement to those efforts, we focus on the role of query execution
//! techniques." (§1)  To *measure* how much run-time robustness buys when
//! compile-time estimates go wrong, we need the thing that goes wrong: a
//! textbook optimizer that picks the cheapest plan under *estimated*
//! selectivities.
//!
//! The formulas below are intentionally the simple kind optimizers use
//! (linear page/row terms, independence assumptions, `min(rows, pages)`
//! caps) — their divergence from the measured maps under estimation error
//! is the subject of the `ext_optimizer` experiment, not a defect.

use robustmap_executor::{FetchKind, PlanSpec};
use robustmap_storage::{CostModel, IndexId};
use robustmap_workload::Workload;

/// Compile-time selectivity estimates for the two predicate columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelEstimates {
    /// Estimated selectivity of `a <= ta`.
    pub sel_a: f64,
    /// Estimated selectivity of `b <= tb`.
    pub sel_b: f64,
    /// Estimated selectivity of the conjunction `a <= ta AND b <= tb`.
    /// [`SelEstimates::independent`] fills in `sel_a * sel_b` — the
    /// textbook independence assumption;
    /// [`SelEstimates::from_joint`] replaces it with the two-column
    /// histogram's observed co-occurrence, which is where correlated
    /// columns stop fooling the cost formulas.
    pub sel_ab: f64,
}

/// Clamp a selectivity into `(0, 1]` — the range every cost formula
/// assumes (every constructor and the robust chooser share it).
pub(crate) fn clamp_sel(s: f64) -> f64 {
    s.clamp(f64::MIN_POSITIVE, 1.0)
}

/// Clamp a joint selectivity into the Fréchet bounds
/// `[max(0, sel_a + sel_b - 1), min(sel_a, sel_b)]` — the coherence rule
/// shared by [`SelEstimates::from_joint`] and the robust chooser's
/// hypothesis grid.  The `.min(hi)` guards the float edge where
/// `(1 + x) - 1` rounds a hair above `x` and the bounds would cross.
pub(crate) fn frechet_clamp(sel_a: f64, sel_b: f64, sel_ab: f64) -> f64 {
    let hi = sel_a.min(sel_b);
    let lo = (sel_a + sel_b - 1.0).max(f64::MIN_POSITIVE).min(hi);
    sel_ab.clamp(lo, hi)
}

/// Minimum sampled rows of evidence before an observed co-occurrence is
/// trusted over the independence prior in [`SelEstimates::from_joint`] —
/// the usual minimum-support smoothing rule.  At 16 rows the estimate's
/// relative standard error is ~25%, about the least that reliably
/// out-ranks the product on near-tie plans.
pub const JOINT_MIN_EVIDENCE: f64 = 16.0;

impl SelEstimates {
    /// Independence-assuming estimates from two per-column selectivities,
    /// the one clamping constructor: both marginals and their product are
    /// clamped into `(0, 1]` (an empty result calibrates to selectivity
    /// 0, and the cost formulas divide by these).
    pub fn independent(sel_a: f64, sel_b: f64) -> Self {
        let sel_a = clamp_sel(sel_a);
        let sel_b = clamp_sel(sel_b);
        SelEstimates { sel_a, sel_b, sel_ab: clamp_sel(sel_a * sel_b) }
    }

    /// Estimates derived from a two-column [`JointHistogram`]: marginals
    /// from its per-column histograms, the conjunction from observed
    /// co-occurrence.  The joint estimate is kept coherent with the
    /// marginals by clamping into the Fréchet bounds
    /// `[max(0, sel_a + sel_b - 1), min(sel_a, sel_b)]`.
    ///
    /// Sampled statistics cannot resolve selectivities below the sample
    /// grain, and pretending otherwise made the joint estimator *worse*
    /// than independence exactly where independence was right (pinned by
    /// `ext_optimizer`'s uncorrelated-map check).  Two guards therefore
    /// apply, both classic:
    ///
    /// * a **marginal** estimate below one sampled row's probability is
    ///   floored at half a row (`0.5 / sample_rows` — the midpoint of
    ///   what "we sampled nothing" is evidence for), never at the raw
    ///   near-zero the cost formulas would otherwise divide by;
    /// * a **conjunction** where the sample could not have seen the
    ///   co-occurrence either way — both the observed mass *and* the mass
    ///   independence would predict sit below [`JOINT_MIN_EVIDENCE`]
    ///   sampled rows — falls back to the independence product of the
    ///   (floored) marginals (minimum-support smoothing: a near-empty
    ///   joint cell is noise when nothing was expected).  Observing
    ///   ~nothing where independence expects plenty is the opposite of
    ///   noise — decisive evidence of *negative* association — so there
    ///   the observed estimate stands.
    ///
    /// [`JointHistogram`]: robustmap_workload::JointHistogram
    pub fn from_joint(joint: &robustmap_workload::JointHistogram, ta: i64, tb: i64) -> Self {
        let m = joint.sample_rows().max(1) as f64;
        let marginal_floor = 0.5 / m;
        let floor_sel = |raw: f64| clamp_sel(if raw < 1.0 / m { marginal_floor } else { raw });
        let sel_a = floor_sel(joint.marginal_a().estimate_at_most(ta));
        let sel_b = floor_sel(joint.marginal_b().estimate_at_most(tb));
        let raw = joint.estimate_joint_at_most(ta, tb);
        let evidence_floor = JOINT_MIN_EVIDENCE / m;
        let product = sel_a * sel_b;
        let sel_ab =
            if raw < evidence_floor && product < evidence_floor { product } else { raw };
        SelEstimates { sel_a, sel_b, sel_ab: frechet_clamp(sel_a, sel_b, sel_ab) }
    }
}

/// Table/index statistics the estimator consults (what a catalog would
/// keep).
#[derive(Debug, Clone)]
pub struct CatalogStats {
    /// Table rows.
    pub rows: f64,
    /// Heap pages.
    pub heap_pages: f64,
    /// Index entries per leaf page (from the B+-tree's defaults).
    pub entries_per_leaf: f64,
    /// Index height (root-to-leaf page count).
    pub index_height: f64,
    /// Leading key column per index, indexed by `IndexId.0` — published by
    /// the workload's catalog ([`Workload::leading_column`]), never
    /// hard-coded from allocation order.
    leading: Vec<usize>,
}

impl CatalogStats {
    /// Gather statistics from a built workload.
    pub fn of(w: &Workload) -> Self {
        let tree = &w.db.index(w.indexes.a).tree;
        let mut leading = Vec::new();
        for (id, def) in w.db.indexes_on(w.table) {
            let slot = id.0 as usize;
            if leading.len() <= slot {
                leading.resize(slot + 1, usize::MAX);
            }
            leading[slot] = def.key_columns[0];
        }
        CatalogStats {
            rows: w.rows() as f64,
            heap_pages: w.heap_pages() as f64,
            entries_per_leaf: (tree.len() as f64 / tree.node_count() as f64).max(1.0),
            index_height: tree.height() as f64,
            leading,
        }
    }

    /// The leading key column of `index`, or `None` for an index this
    /// catalog does not know about.
    pub fn leading_column(&self, index: IndexId) -> Option<usize> {
        match self.leading.get(index.0 as usize) {
            Some(&col) if col != usize::MAX => Some(col),
            _ => None,
        }
    }
}

/// Estimate the cost (in model seconds) of one two-predicate plan under
/// the given selectivity estimates.  Covers the plan shapes the three
/// systems generate; other shapes fall back to a table-scan bound.  The
/// formula reads only the plan's shape, never its predicate constants,
/// which is what lets a catalog plan derive its shape once.
pub fn estimate_cost(
    spec: &PlanSpec,
    stats: &CatalogStats,
    est: &SelEstimates,
    model: &CostModel,
) -> f64 {
    PlanShape::of(spec).cost(stats, est, model)
}

/// What [`estimate_cost`] reads of a plan: its operator, the indexes it
/// scans, whether it filters index keys, and how it fetches heap rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PlanShape {
    /// A full table scan.
    TableScan,
    /// One index range scan, an optional key filter, then a heap fetch.
    IndexFetch { index: IndexId, key_filter: bool, fetch: FetchKind },
    /// A range scan of a covering index.
    CoveringIndexScan { index: IndexId },
    /// A multi-dimensional access of a covering index.
    Mdam,
    /// Two index range scans intersected on rids, then a heap fetch.
    IndexIntersect { left: IndexId, right: IndexId, fetch: FetchKind },
    /// A shape outside the two-predicate catalogs.
    Other,
}

impl PlanShape {
    /// The shape of `spec`.
    pub(crate) fn of(spec: &PlanSpec) -> Self {
        match spec {
            PlanSpec::TableScan { .. } => PlanShape::TableScan,
            PlanSpec::IndexFetch { scan, key_filter, fetch, .. } => PlanShape::IndexFetch {
                index: scan.index,
                key_filter: !key_filter.is_true(),
                fetch: *fetch,
            },
            PlanSpec::CoveringIndexScan { scan, .. } => {
                PlanShape::CoveringIndexScan { index: scan.index }
            }
            PlanSpec::Mdam { .. } => PlanShape::Mdam,
            PlanSpec::IndexIntersect { left, right, fetch, .. } => {
                PlanShape::IndexIntersect { left: left.index, right: right.index, fetch: *fetch }
            }
            _ => PlanShape::Other,
        }
    }

    /// The estimated cost of a plan of this shape (see [`estimate_cost`]).
    pub(crate) fn cost(
        &self,
        stats: &CatalogStats,
        est: &SelEstimates,
        model: &CostModel,
    ) -> f64 {
        let rows = stats.rows;
        let result_rows = est.sel_ab * rows;
        match *self {
            PlanShape::TableScan => {
                stats.heap_pages * model.seq_page_read + rows * (model.cpu_row + model.cpu_compare)
            }
            PlanShape::IndexFetch { index, key_filter, ref fetch } => {
                // The leading-range selectivity is the estimate for the
                // column the catalog says leads the scanned index.
                let leading = leading_selectivity(index, stats, est);
                let scanned_entries = leading * rows;
                let qualifying = if key_filter { result_rows.max(1.0) } else { scanned_entries };
                let leaf_cost = (scanned_entries / stats.entries_per_leaf).ceil()
                    * model.seq_page_read
                    + stats.index_height * model.random_page_read;
                let fetch_cost = estimate_fetch(qualifying, stats, fetch, model);
                leaf_cost
                    + fetch_cost
                    + scanned_entries * (model.cpu_row + model.cpu_compare)
                    + qualifying * model.cpu_row
            }
            PlanShape::CoveringIndexScan { index } => {
                let leading = leading_selectivity(index, stats, est);
                let scanned = leading * rows;
                (scanned / stats.entries_per_leaf).ceil() * model.seq_page_read
                    + stats.index_height * model.random_page_read
                    + scanned * (model.cpu_row + model.cpu_compare)
            }
            PlanShape::Mdam => {
                // MDAM scans the qualifying entries plus one probe per skip;
                // a common optimizer formula charges the covering scan of the
                // leading range discounted by skip savings.  Stay simple:
                // qualifying entries + log-height seeks per distinct prefix
                // (approximated as qualifying + sqrt work).
                let qualifying = result_rows.max(1.0);
                let leaf_pages = (qualifying / stats.entries_per_leaf).ceil();
                leaf_pages * model.seq_page_read
                    + (qualifying.sqrt() + 1.0) * stats.index_height * model.cpu_buffer_hit * 4.0
                    + stats.index_height * model.random_page_read
                    + qualifying * (model.cpu_row + model.cpu_compare)
            }
            PlanShape::IndexIntersect { left, right, ref fetch } => {
                let sl = leading_selectivity(left, stats, est) * rows;
                let sr = leading_selectivity(right, stats, est) * rows;
                let leaf = ((sl + sr) / stats.entries_per_leaf).ceil() * model.seq_page_read
                    + 2.0 * stats.index_height * model.random_page_read;
                let combine = (sl + sr) * (model.cpu_compare * 20.0); // sort/hash work
                let fetch_cost = estimate_fetch(result_rows, stats, fetch, model);
                leaf + combine + fetch_cost + result_rows * model.cpu_row
            }
            PlanShape::Other => stats.heap_pages * model.seq_page_read + rows * model.cpu_row,
        }
    }
}

/// Leading-column selectivity of an index range scan: the estimate for
/// whichever predicate column the catalog says leads the index (`a` and
/// `(a, b)` lead on `a`; `b` and `(b, a)` lead on `b`), and `1.0` for
/// indexes leading on an unfiltered column (the `c` index).
fn leading_selectivity(
    index: IndexId,
    stats: &CatalogStats,
    est: &SelEstimates,
) -> f64 {
    match stats.leading_column(index) {
        Some(robustmap_workload::COL_A) => est.sel_a,
        Some(robustmap_workload::COL_B) => est.sel_b,
        _ => 1.0,
    }
}

/// Cost (in model seconds) of fetching `rows_to_fetch` heap rows under the
/// given fetch discipline — shared by the plan formulas above and by the
/// adaptive layer's mid-flight re-costing ([`crate::adaptive`]), which
/// substitutes an *observed* cardinality for the estimate.
pub fn estimate_fetch(
    rows_to_fetch: f64,
    stats: &CatalogStats,
    fetch: &FetchKind,
    model: &CostModel,
) -> f64 {
    let touched_pages = rows_to_fetch.min(stats.heap_pages);
    match fetch {
        FetchKind::Traditional => rows_to_fetch * model.random_page_read,
        FetchKind::Improved(_) => {
            // Sorted fetch: dense ranges ride read-ahead, sparse ones seek.
            if rows_to_fetch >= stats.heap_pages {
                stats.heap_pages * model.seq_page_read + rows_to_fetch * model.cpu_buffer_hit
            } else {
                touched_pages * model.single_page_read
            }
        }
        FetchKind::BitmapSorted => touched_pages * model.single_page_read,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choice::{ChoicePolicy, Chooser};
    use crate::two_pred::{two_predicate_plans, TwoPredPlan};
    use crate::SystemId;
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    /// The point chooser's pick at explicit estimates.
    fn choose_plan(
        plans: &[TwoPredPlan],
        ta: i64,
        tb: i64,
        stats: &CatalogStats,
        est: &SelEstimates,
        model: &CostModel,
    ) -> usize {
        Chooser { plans, stats, model, policy: ChoicePolicy::Point }.choose(est, ta, tb).plan
    }

    fn setup() -> (Workload, CatalogStats, CostModel) {
        // Large enough that index plans can beat a (non-trivial) table
        // scan; on a 23-page table the scan legitimately wins everywhere.
        let w = TableBuilder::build(WorkloadConfig::with_rows(1 << 16));
        let stats = CatalogStats::of(&w);
        (w, stats, CostModel::hdd_2009())
    }

    #[test]
    fn catalog_stats_reflect_the_workload() {
        let (w, stats, _) = setup();
        assert_eq!(stats.rows, w.rows() as f64);
        assert_eq!(stats.heap_pages, w.heap_pages() as f64);
        assert!(stats.entries_per_leaf > 50.0);
        assert!(stats.index_height >= 1.0);
    }

    #[test]
    fn estimates_are_positive_and_finite_for_all_plans() {
        let (w, stats, model) = setup();
        let (ta, tb) = (w.cal_a.threshold(0.1), w.cal_b.threshold(0.1));
        for sys in SystemId::all() {
            for plan in two_predicate_plans(sys, &w) {
                let est = SelEstimates::independent(0.1, 0.1);
                let cost = estimate_cost(&plan.build(ta, tb), &stats, &est, &model);
                assert!(cost.is_finite() && cost > 0.0, "{}: {cost}", plan.name);
            }
        }
    }

    #[test]
    fn chooser_prefers_index_plans_for_tiny_results() {
        let (w, stats, model) = setup();
        let plans = two_predicate_plans(SystemId::A, &w);
        let (ta, tb) = (w.cal_a.threshold(0.001), w.cal_b.threshold(0.001));
        let chosen = choose_plan(&plans, ta, tb, &stats, &SelEstimates::independent(0.001, 0.001), &model);
        assert_ne!(plans[chosen].name, "A1 table scan", "tiny results want an index plan");
    }

    #[test]
    fn chooser_prefers_the_table_scan_for_full_results() {
        let (w, stats, model) = setup();
        let plans = two_predicate_plans(SystemId::A, &w);
        let (ta, tb) = (w.cal_a.threshold(1.0), w.cal_b.threshold(1.0));
        let chosen = choose_plan(&plans, ta, tb, &stats, &SelEstimates::independent(1.0, 1.0), &model);
        assert_eq!(plans[chosen].name, "A1 table scan");
    }

    #[test]
    fn estimation_error_changes_the_choice() {
        let (w, stats, model) = setup();
        let plans = two_predicate_plans(SystemId::A, &w);
        // True selectivity is high (table scan territory), but the
        // optimizer believes it is tiny: it picks an index plan.
        let (ta, tb) = (w.cal_a.threshold(0.5), w.cal_b.threshold(0.5));
        let honest = choose_plan(&plans, ta, tb, &stats, &SelEstimates::independent(0.5, 0.5), &model);
        let fooled = choose_plan(
            &plans,
            ta,
            tb,
            &stats,
            &SelEstimates::independent(0.5 / 512.0, 0.5 / 512.0),
            &model,
        );
        assert_ne!(plans[honest].name, plans[fooled].name);
    }

    #[test]
    fn error_clamping_keeps_estimates_in_range() {
        let est = SelEstimates::independent(0.5 * 1e9, 0.5 * 1e-30);
        assert!(est.sel_a <= 1.0);
        assert!(est.sel_b > 0.0);
        assert!(est.sel_ab > 0.0 && est.sel_ab <= 1.0);
    }

    #[test]
    fn independent_clamps_both_edges() {
        // Lower edge: a zero selectivity (empty calibrated result) must
        // clamp to MIN_POSITIVE — the cost formulas divide by these.
        let lo = SelEstimates::independent(0.0, 0.5);
        assert!(lo.sel_a > 0.0, "zero marginal clamps: {}", lo.sel_a);
        assert!(lo.sel_ab > 0.0, "zero conjunction clamps: {}", lo.sel_ab);
        assert_eq!(lo.sel_b, 0.5);
        // Upper edge: over-unity estimates clamp to 1.
        let hi = SelEstimates::independent(1.5, 2.0);
        assert_eq!(hi.sel_a, 1.0);
        assert_eq!(hi.sel_b, 1.0);
        assert_eq!(hi.sel_ab, 1.0);
    }

    #[test]
    fn leading_selectivity_follows_catalog_metadata_for_all_five_indexes() {
        let (w, stats, _) = setup();
        let est = SelEstimates::independent(0.25, 0.5);
        // The catalog, not the allocation order, decides which marginal an
        // index leads on: a and (a, b) read sel_a, b and (b, a) read
        // sel_b, the c index (unfiltered in these plans) reads 1.
        for (index, want) in [
            (w.indexes.a, est.sel_a),
            (w.indexes.ab, est.sel_a),
            (w.indexes.b, est.sel_b),
            (w.indexes.ba, est.sel_b),
            (w.indexes.c, 1.0),
        ] {
            assert_eq!(leading_selectivity(index, &stats, &est), want, "index {index:?}");
            assert_eq!(
                stats.leading_column(index),
                Some(w.leading_column(index)),
                "stats must republish the workload's catalog metadata"
            );
        }
        // An index the catalog never saw costs like an unfiltered scan
        // instead of silently borrowing another index's selectivity.
        assert_eq!(stats.leading_column(robustmap_storage::IndexId(99)), None);
        assert_eq!(
            leading_selectivity(robustmap_storage::IndexId(99), &stats, &est),
            1.0
        );
    }

    #[test]
    fn histogram_estimator_clamps_out_of_range_estimates_into_unit_interval() {
        use crate::choice::{Estimator, Histogram};
        use robustmap_workload::EquiDepthHistogram;
        // An empty histogram estimates 0.0 — outside the (0, 1] range the
        // cost formulas divide by — and must clamp to MIN_POSITIVE on
        // both sides, like every estimate `independent` builds.
        let empty = EquiDepthHistogram::build(vec![], 4);
        let full = EquiDepthHistogram::build((0..100).collect(), 4);
        let est = Histogram::new(&empty, &full).estimate(50, 1_000);
        assert!(est.sel_a > 0.0 && est.sel_a <= 1.0, "lower clamp: {}", est.sel_a);
        assert_eq!(est.sel_b, 1.0, "upper clamp keeps a full-range estimate at 1");
        assert!(est.sel_ab > 0.0 && est.sel_ab <= 1.0);
        // Both columns out of range at once.
        let est = Histogram::new(&empty, &empty).estimate(50, 50);
        assert!(est.sel_a > 0.0 && est.sel_b > 0.0 && est.sel_ab > 0.0);
    }

    #[test]
    fn joint_estimates_capture_correlation_that_independence_misses() {
        use robustmap_workload::gen::PredicateDistribution;
        use robustmap_workload::{JointHistogram, JointHistogramConfig, TableBuilder, WorkloadConfig};
        let w = TableBuilder::build(WorkloadConfig {
            rows: 1 << 14,
            seed: 23,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(100),
            mutation_epoch: 0,
        });
        let joint = JointHistogram::from_workload(&w, &JointHistogramConfig::default());
        let (ta, tb) = (w.cal_a.threshold(0.25), w.cal_b.threshold(0.25));
        let est = SelEstimates::from_joint(&joint, ta, tb);
        // Marginals track the per-column truth; the conjunction tracks the
        // diagonal (b == a), not the independence product 0.0625.
        assert!((est.sel_a - 0.25).abs() < 0.03, "sel_a {}", est.sel_a);
        assert!((est.sel_b - 0.25).abs() < 0.05, "sel_b {}", est.sel_b);
        assert!(est.sel_ab > 0.18, "joint {} should be near 0.25, not 0.0625", est.sel_ab);
        // Coherence: within the Fréchet bounds.
        assert!(est.sel_ab <= est.sel_a.min(est.sel_b) + 1e-12);
    }

    #[test]
    fn from_joint_falls_back_to_independence_below_the_sample_floor() {
        use robustmap_workload::{JointHistogram, JointHistogramConfig, TableBuilder};
        // Independent permutation columns: the true conjunction at tiny
        // thresholds is far below what any finite sample can observe.  A
        // raw joint estimate there is an empty-cell artifact; the
        // estimator must report the independence product of the
        // well-resolved marginals instead of a near-zero conjunction.
        let w = TableBuilder::build(WorkloadConfig::with_rows(1 << 16));
        let joint = JointHistogram::from_workload(
            &w,
            &JointHistogramConfig { sample_target: 1 << 10, ..Default::default() },
        );
        let sel = 1.0 / 512.0; // conjunction ~ 2^-18, floor ~ 2^-10
        let (ta, tb) = (w.cal_a.threshold(sel), w.cal_b.threshold(sel));
        let est = SelEstimates::from_joint(&joint, ta, tb);
        let product = est.sel_a * est.sel_b;
        assert!(
            (est.sel_ab - product).abs() <= product * 0.5 + 1e-12,
            "below the floor the conjunction must track the product: {} vs {product}",
            est.sel_ab
        );
        assert!(est.sel_ab < 1e-4, "and the product of tiny marginals is tiny");
    }

    #[test]
    fn from_joint_keeps_observed_negative_association() {
        use robustmap_workload::{JointHistogram, JointHistogramConfig};
        // b is the mirror of a: predicates selecting the lower half of
        // each column have a truly empty conjunction.  The sample observes
        // ~zero co-occurrence where independence predicts a quarter of the
        // table — decisive evidence, which the minimum-support fallback
        // must NOT override with the product.
        let n = 1i64 << 12;
        let pairs: Vec<(i64, i64)> = (0..n).map(|i| (i, n - 1 - i)).collect();
        let joint =
            JointHistogram::build(pairs, n as u64, JointHistogramConfig::default());
        let t = n / 2 - 1;
        let est = SelEstimates::from_joint(&joint, t, t);
        assert!((est.sel_a - 0.5).abs() < 0.02);
        assert!((est.sel_b - 0.5).abs() < 0.02);
        assert!(
            est.sel_ab < 0.05,
            "negative association must survive the support guard: {} (product would be 0.25)",
            est.sel_ab
        );
    }

    #[test]
    fn histogram_estimates_track_true_selectivities() {
        use crate::choice::{Estimator, Histogram};
        use robustmap_storage::Session;
        use robustmap_workload::{EquiDepthHistogram, COL_A, COL_B};
        let (w, _, _) = setup();
        // Gather column values the way a statistics job would.
        let s = Session::with_pool_pages(0);
        let mut vals_a = Vec::new();
        let mut vals_b = Vec::new();
        w.db.table(w.table).heap.scan(&s, |_, row| {
            vals_a.push(row.get(COL_A));
            vals_b.push(row.get(COL_B));
        });
        let hist_a = EquiDepthHistogram::build(vals_a, 64);
        let hist_b = EquiDepthHistogram::build(vals_b, 64);
        for sel in [0.01, 0.25, 0.9] {
            let (ta, tb) = (w.cal_a.threshold(sel), w.cal_b.threshold(sel));
            let est = Histogram::new(&hist_a, &hist_b).estimate(ta, tb);
            assert!((est.sel_a - sel).abs() < 0.05, "sel {sel}: est {:.4}", est.sel_a);
            assert!((est.sel_b - sel).abs() < 0.05, "sel {sel}: est {:.4}", est.sel_b);
        }
    }

    #[test]
    fn coarse_histograms_err_on_skewed_columns() {
        // On uniform (permutation) columns even a 2-bucket equi-depth
        // histogram interpolates perfectly — the estimation errors the
        // paper worries about come from skew (and staleness).
        use robustmap_workload::{Calibrator, Distribution, EquiDepthHistogram, Zipf};
        let mut z = Zipf::new(4096, 1.3, 11);
        let values: Vec<i64> = (0..50_000).map(|i| z.value(i)).collect();
        let cal = Calibrator::new(values.clone());
        let coarse = EquiDepthHistogram::build(values.clone(), 2);
        let fine = EquiDepthHistogram::build(values, 512);
        // Probe between the head value and the tail, where skew bites.
        let mut worst_coarse = 0.0f64;
        let mut worst_fine = 0.0f64;
        for t in [1i64, 3, 10, 50, 300, 2000] {
            let truth = cal.selectivity(t);
            worst_coarse = worst_coarse.max((coarse.estimate_at_most(t) - truth).abs());
            worst_fine = worst_fine.max((fine.estimate_at_most(t) - truth).abs());
        }
        assert!(
            worst_coarse > 4.0 * worst_fine,
            "coarse {worst_coarse:.4} should err far more than fine {worst_fine:.4}"
        );
    }
}
