//! A compile-time cost estimator and plan chooser.
//!
//! The paper's framing: "Much existing research into robustness focuses on
//! poor plan choices during query optimization. ... In contrast and as a
//! complement to those efforts, we focus on the role of query execution
//! techniques." (§1)  To *measure* how much run-time robustness buys when
//! compile-time estimates go wrong, we need the thing that goes wrong: an
//! optimizer that picks the cheapest plan under *estimated* selectivities.
//!
//! Its cost model is the executor's.  Each `PlanShape` arm predicts the
//! counters its kernels charge — pages by access kind, buffer hits, rows,
//! comparisons, hashes — as expectations ([`IoExpect`]), and
//! [`CostModel::seconds`] prices them with the clock's one price list.  Fed
//! exact selectivities the estimate tracks the charge (pinned by
//! `estimates_track_what_every_catalog_plan_is_charged`), so what
//! `ext_optimizer` maps under error is cardinality error alone.

use robustmap_executor::{FetchKind, ImprovedFetchConfig, IntersectAlgo, PlanSpec};
use robustmap_storage::{CostModel, IndexId, IoExpect, PAGE_SIZE};
use robustmap_workload::{Workload, COL_A, COL_B};

use crate::admission::DEFAULT_GRANT;

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
/// keep), gathered once by [`CatalogStats::of`].
#[derive(Debug, Clone)]
pub struct CatalogStats {
    /// Table rows.
    pub rows: f64,
    /// Heap pages.
    pub heap_pages: f64,
    /// What a scan of each index reads, indexed by `IndexId.0`; `None` for
    /// an id the table has no index under.
    indexes: Vec<Option<IndexStats>>,
    /// The whole table's rows, which an unfiltered range reads.
    table: Rows,
}

/// What a scan of one index reads.
#[derive(Debug, Clone, Copy)]
struct IndexStats {
    /// Leading key column, as the workload's catalog publishes it
    /// ([`Workload::leading_column`]), never read off allocation order.
    leading: usize,
    /// Key columns.
    arity: f64,
    /// Leaf pages per entry.
    leaf: f64,
    /// Root-to-leaf page count: the pages one seek reads.
    height: f64,
    /// Comparisons one seek charges: a binary search of a node a level.
    seek_compares: f64,
    /// Entries sharing an entry's leading value
    /// ([`robustmap_workload::Calibrator::rows_per_value`]).
    group: f64,
}

impl CatalogStats {
    /// Gather statistics from a built workload.
    pub fn of(w: &Workload) -> Self {
        let rows = w.rows() as f64;
        let groups = [(COL_A, w.cal_a.rows_per_value()), (COL_B, w.cal_b.rows_per_value())];
        let mut indexes = Vec::new();
        for (id, def) in w.db.indexes_on(w.table) {
            let slot = id.0 as usize;
            if indexes.len() <= slot {
                indexes.resize(slot + 1, None);
            }
            let (tree, leading) = (&def.tree, def.key_columns[0]);
            let per_leaf = (tree.len() as f64 / tree.node_count() as f64).max(1.0);
            let height = tree.height() as f64;
            let group = groups.iter().find(|g| g.0 == leading).map_or(1.0, |g| g.1);
            indexes[slot] = Some(IndexStats {
                leading,
                arity: tree.key_arity() as f64,
                leaf: 1.0 / per_leaf,
                height,
                seek_compares: height * (per_leaf.log2().floor() + 1.0),
                group: group.max(1.0),
            });
        }
        let heap_pages = w.heap_pages() as f64;
        CatalogStats { rows, heap_pages, indexes, table: Rows::new(rows, heap_pages) }
    }

    /// The leading key column of `index`, or `None` for an index this
    /// catalog does not know about.
    pub fn leading_column(&self, index: IndexId) -> Option<usize> {
        self.index(index).map(|ix| ix.leading)
    }

    fn index(&self, index: IndexId) -> Option<&IndexStats> {
        self.indexes.get(index.0 as usize)?.as_ref()
    }

    /// Fetching `rows` (`ops::fetch`): a row and a page request each, the
    /// sorted fetches' rid sort (compares) or bitmap (hashes), and their
    /// sweep's pages — every request hits the page the sweep just read.
    fn fetch(&self, rows: &Rows, kind: &FetchKind, io: &mut IoExpect) {
        io.cpu_rows += rows.k;
        let [seq, single, random] = match kind {
            FetchKind::Traditional => return io.random_reads += rows.k,
            FetchKind::Improved(_) => {
                io.cpu_compares += rows.sorted;
                rows.improved
            }
            FetchKind::BitmapSorted => {
                io.cpu_hashes += rows.k;
                rows.bitmap
            }
        };
        io.buffer_hits += rows.k;
        io.seq_reads += seq;
        io.single_reads += single;
        io.random_reads += random;
    }

    /// Pricing plans at `est`: what they share, computed once.
    pub fn at(&self, est: &SelEstimates) -> Priced<'_> {
        self.at_sharing(est, None, None)
    }

    /// [`CatalogStats::at`], the rows of `a`'s and `b`'s ranges copied from
    /// `same_a` and `same_b` where given: pricings at `est`'s `sel_a` and
    /// at its `sel_b`.
    pub(crate) fn at_sharing(
        &self,
        est: &SelEstimates,
        same_a: Option<&Priced>,
        same_b: Option<&Priced>,
    ) -> Priced<'_> {
        let rows = |s: f64| Rows::new(s * self.rows, self.heap_pages);
        let a = same_a.map_or_else(|| rows(est.sel_a), |at| at.rows[0]);
        let b = same_b.map_or_else(|| rows(est.sel_b), |at| at.rows[1]);
        Priced { stats: self, rows: [a, b, rows(est.sel_ab)] }
    }
}

/// Rows a plan reads, the comparisons sorting their rids, and the pages
/// each sorted fetch of them reads: `[sequential, single, random]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rows {
    k: f64,
    sorted: f64,
    improved: [f64; 3],
    bitmap: [f64; 3],
}

impl Rows {
    /// `k` rows spread at random over a heap of `pages`, and the pages a
    /// sweep in physical order reads to fetch them (`ops::fetch`): a seek to
    /// the first touched page, then per gap to the next — geometric, as a
    /// page holds none of the rows with chance `miss` = e^(-k/pages) —
    /// read-ahead (improved fetch only), a short seek or a random read, by
    /// the default [`ImprovedFetchConfig`] every catalog plan fetches with.
    fn new(k: f64, pages: f64) -> Rows {
        let gaps = ImprovedFetchConfig::default();
        // Past e^-40 a chance is 0 to double precision, and not computed.
        let miss = if k < 40.0 * pages { (-k / pages).exp() } else { 0.0 };
        let touched = pages * (1.0 - miss);
        let steps = (touched - 1.0).max(0.0);
        // Pages read ahead per step, and the chance a gap is longer.
        let (mut ahead, mut longer) = (0.0, 1.0);
        for g in 1..=gaps.scan_gap {
            ahead += g as f64 * (1.0 - miss) * longer;
            longer *= miss;
        }
        let gap = gaps.prefetch_gap as f64;
        let far = if k * gap < 40.0 * pages { miss.powi(gap as i32) } else { 0.0 };
        let random = touched.min(1.0) + steps * far;
        Rows {
            k,
            sorted: sort_compares(k),
            improved: [steps * ahead, steps * (longer - far), random],
            bitmap: [0.0, steps * (1.0 - far), random],
        }
    }
}

/// Plans priced at one estimate: the catalog, and the rows every plan's
/// scans and fetches read — `a`'s range, `b`'s, and the conjunction.
#[derive(Debug, Clone, Copy)]
pub struct Priced<'s> {
    stats: &'s CatalogStats,
    rows: [Rows; 3],
}

impl Priced<'_> {
    /// The rows of the range on `col`: `a`'s, `b`'s, or a column the query
    /// does not filter, the whole table (the `c` index).
    fn range(&self, col: usize) -> &Rows {
        match col {
            COL_A => &self.rows[0],
            COL_B => &self.rows[1],
            _ => &self.stats.table,
        }
    }

    /// A range scan of `ix` from its first key (`ops::index_scan`): a cold
    /// seek, a page a level, then leaf after leaf through the entries in the
    /// leading range and the one that ends it, a row each.  Returns the
    /// entries in range.
    fn range_scan(&self, ix: &IndexStats, io: &mut IoExpect) -> &Rows {
        let (scanned, n) = (self.range(ix.leading), self.stats.rows);
        io.random_reads += ix.height;
        io.cpu_compares += ix.seek_compares;
        io.seq_reads += scanned.k.min(n - 1.0) * ix.leaf;
        io.cpu_rows += (scanned.k + 1.0).min(n);
        scanned
    }

    /// MDAM (`ops::mdam`) over the leading range of a covering index whose
    /// entries come in groups of `ix.group` sharing a leading value.  A
    /// group's passing entries come first; the walk checks each (a compare
    /// a key column) and the first failing one, then skips the rest of the
    /// group: by stepping, when it ends within `SKIP_SCAN_LIMIT` (8)
    /// entries — a probe whose steps, the next group's first entry
    /// included, are rows too — or by a seek after 8 such steps.
    fn mdam(&self, ix: &IndexStats, io: &mut IoExpect) {
        let (scanned, n) = (self.range(ix.leading).k, self.stats.rows);
        let g = ix.group;
        let pass = (self.rows[2].k / scanned).min(1.0);
        let fails = scanned / g * (1.0 - if g > 1.0 { pass.powf(g) } else { pass });
        let checked = scanned * pass + fails + (n - scanned).min(1.0);
        let rest = (g * (1.0 - pass) - 1.0).max(0.0);
        let (probe, seeks) = if rest < 8.0 { (rest + 1.0, 0.0) } else { (8.0, fails) };
        // Seeks past a whole leaf land on one not read yet, and skip it.
        let landed = seeks * ((rest - 8.0) * ix.leaf).min(1.0);
        let walked = scanned - seeks * (rest - 8.0);
        io.random_reads += ix.height;
        io.cpu_rows += checked + fails * probe;
        io.cpu_compares += checked * ix.arity + (seeks + 1.0) * ix.seek_compares;
        io.seq_reads += (walked.min(n - 1.0) * ix.leaf - landed).max(0.0);
        io.random_reads += landed;
        io.buffer_hits += seeks * ix.height - landed + fails * probe * ix.leaf;
    }
}

/// Comparisons a comparison sort of `k` items is charged (the executor's
/// `n ⌈log2 n⌉`), in `i64`, which a float converts to and from in one step.
fn sort_compares(k: f64) -> f64 {
    let n = (k + 0.5) as i64;
    (n * (64 - (n - 1).leading_zeros()) as i64) as f64
}

/// Rid hash intersection (`rid_join::hash_intersect`): the build side
/// hashed twice and the probe once — after both are partitioned, a hash a
/// rid and a page written and read back per 8 KiB of rids, when the build
/// side's table (16 bytes a rid) outgrows the query's grant.
fn hash_intersect(build: f64, probe: f64, io: &mut IoExpect) {
    io.cpu_hashes += 2.0 * build + probe;
    let grant = DEFAULT_GRANT as f64;
    if build * 16.0 > grant {
        let parts = ((build * 16.0 / grant) as u64 + 1).next_power_of_two() as f64;
        let pages = |rids: f64| parts * (rids / parts * 8.0 / PAGE_SIZE as f64).ceil();
        io.cpu_hashes += build + probe;
        io.page_writes += pages(build) + pages(probe);
        io.buffer_hits += pages(build) + pages(probe);
    }
}

/// The estimated cost (in model seconds) of a two-predicate plan under
/// `est`: its `PlanShape::counters`, priced — `∞` for a shape outside the
/// catalogs or over an index the catalog does not know.  It reads only the
/// plan's shape, never its constants, so a catalog plan derives it once.
pub fn estimate_cost(
    spec: &PlanSpec,
    stats: &CatalogStats,
    est: &SelEstimates,
    model: &CostModel,
) -> f64 {
    let io = PlanShape::of(spec).and_then(|shape| shape.counters(&stats.at(est)));
    io.map_or(f64::INFINITY, |io| model.seconds(&io))
}

/// What [`estimate_cost`] reads of a plan: its operator, the indexes it
/// scans, whether it filters index keys, and how it combines rids and
/// fetches heap rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PlanShape {
    /// A full table scan.
    TableScan,
    /// One index range scan, an optional key filter, then a heap fetch.
    IndexFetch { index: IndexId, key_filter: bool, fetch: FetchKind },
    /// A range scan of a covering index.
    CoveringIndexScan { index: IndexId },
    /// A multi-dimensional access of a covering index.
    Mdam { index: IndexId },
    /// Two index range scans intersected on rids, then a heap fetch.
    IndexIntersect { left: IndexId, right: IndexId, algo: IntersectAlgo, fetch: FetchKind },
}

impl PlanShape {
    /// The shape of `spec`, if it is one of the two-predicate catalogs'.
    pub(crate) fn of(spec: &PlanSpec) -> Option<Self> {
        Some(match spec {
            PlanSpec::TableScan { .. } => PlanShape::TableScan,
            PlanSpec::IndexFetch { scan, key_filter, fetch, .. } => PlanShape::IndexFetch {
                index: scan.index,
                key_filter: !key_filter.is_true(),
                fetch: *fetch,
            },
            PlanSpec::CoveringIndexScan { scan, .. } => {
                PlanShape::CoveringIndexScan { index: scan.index }
            }
            PlanSpec::Mdam { index, .. } => PlanShape::Mdam { index: *index },
            PlanSpec::IndexIntersect { left, right, algo, fetch, .. } => {
                let (left, right) = (left.index, right.index);
                PlanShape::IndexIntersect { left, right, algo: *algo, fetch: *fetch }
            }
            _ => return None,
        })
    }

    /// The one predicate column whose range a plan of this shape reads, if
    /// it reads one alone: its cost is then a function of that column's
    /// selectivity.  A table scan counts `a`'s survivors; a fetch without a
    /// key filter and a covering scan read their index's leading range.
    pub(crate) fn marginal(&self, stats: &CatalogStats) -> Option<usize> {
        let leading = match *self {
            PlanShape::TableScan => return Some(COL_A),
            PlanShape::IndexFetch { index, key_filter: false, .. }
            | PlanShape::CoveringIndexScan { index } => stats.index(index)?.leading,
            _ => return None,
        };
        [COL_A, COL_B].contains(&leading).then_some(leading)
    }

    /// The counters' price ([`PlanShape::counters`]), `∞` for an index the
    /// catalog does not know.
    #[inline(always)]
    pub(crate) fn seconds(&self, at: &Priced, model: &CostModel) -> f64 {
        self.counters(at).map_or(f64::INFINITY, |io| model.seconds(&io))
    }

    /// The counters a cold run of this shape is expected to charge at
    /// `at`, or `None` if it scans an index the catalog does not know.
    /// Inlined where they are priced, so they never leave registers.
    #[inline(always)]
    pub(crate) fn counters(&self, at: &Priced) -> Option<IoExpect> {
        let (stats, result) = (at.stats, &at.rows[2]);
        let mut io = IoExpect::default();
        match *self {
            PlanShape::TableScan => {
                // `a <= ta` on every row, `b <= tb` on its survivors.
                io.seq_reads = stats.heap_pages;
                io.cpu_rows = stats.rows;
                io.cpu_compares = stats.rows + at.rows[0].k;
            }
            PlanShape::IndexFetch { index, key_filter, ref fetch } => {
                let scanned = at.range_scan(stats.index(index)?, &mut io);
                // One compare an entry in range: in the key filter, which
                // passes the conjunction, or in the residual of each row.
                io.cpu_compares += scanned.k;
                stats.fetch(if key_filter { result } else { scanned }, fetch, &mut io);
            }
            PlanShape::CoveringIndexScan { index } => {
                // The residual compares once an entry in range.
                io.cpu_compares += at.range_scan(stats.index(index)?, &mut io).k;
            }
            PlanShape::Mdam { index } => at.mdam(stats.index(index)?, &mut io),
            PlanShape::IndexIntersect { left, right, algo, ref fetch } => {
                let l = at.range_scan(stats.index(left)?, &mut io);
                let r = at.range_scan(stats.index(right)?, &mut io);
                match algo {
                    IntersectAlgo::MergeJoin => {
                        io.cpu_compares += l.sorted + r.sorted + (l.k + r.k - result.k).max(0.0)
                    }
                    IntersectAlgo::HashJoin { build_left } => {
                        let (build, probe) = if build_left { (l.k, r.k) } else { (r.k, l.k) };
                        hash_intersect(build, probe, &mut io)
                    }
                }
                stats.fetch(result, fetch, &mut io);
            }
        }
        Some(io)
    }
}

/// The cost (in model seconds) of fetching `rows_to_fetch` heap rows with
/// `fetch`: the plan estimates' fetch, priced alone for the adaptive
/// layer's re-costing at an *observed* cardinality ([`crate::adaptive`]).
pub fn estimate_fetch(
    rows_to_fetch: f64,
    stats: &CatalogStats,
    fetch: &FetchKind,
    model: &CostModel,
) -> f64 {
    let mut io = IoExpect::default();
    stats.fetch(&Rows::new(rows_to_fetch, stats.heap_pages), fetch, &mut io);
    model.seconds(&io)
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
        for (id, def) in w.db.indexes_on(w.table) {
            let ix = stats.index(id).expect("every index of the table");
            assert!(ix.leaf < 1.0 / 50.0 && ix.height >= 1.0, "{ix:?}");
            assert_eq!(ix.arity, def.tree.key_arity() as f64);
            // Permutation columns: one entry per leading value.
            assert_eq!(ix.group, 1.0);
        }
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
            let ix = stats.index(index).expect("an index of the table");
            assert_eq!(stats.at(&est).range(ix.leading).k, want * stats.rows);
            assert_eq!(
                stats.leading_column(index),
                Some(w.leading_column(index)),
                "stats must republish the workload's catalog metadata"
            );
        }
        // An index the catalog never saw is not priced at all instead of
        // silently borrowing another index's statistics.
        let unknown = robustmap_storage::IndexId(99);
        assert_eq!(stats.leading_column(unknown), None);
        let shape = PlanShape::CoveringIndexScan { index: unknown };
        assert_eq!(shape.counters(&stats.at(&est)), None);
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

