//! Incremental statistics maintenance under churn.
//!
//! A cached [`JointHistogram`] goes quietly wrong as rows churn: the
//! equi-depth bucket boundaries were chosen for the base table, and every
//! insert/delete shifts mass the frozen bucket counts no longer reflect.
//! Rebuilding from scratch after every batch is exact but costs a full
//! heap scan; this module implements the middle road a real statistics
//! job takes — **per-bucket delta counters** folded in on each applied
//! batch:
//!
//! * [`MaintainedHistogram`] corrects a 1-D [`EquiDepthHistogram`] with a
//!   net row delta per bucket (inserts `+1`, deletes `-1`, interpolated
//!   at estimate time exactly like the base histogram's partial bucket);
//! * [`MaintainedJoint`] does the same for a [`JointHistogram`] on the
//!   `a-bucket x b-bucket` grid, with maintained marginals;
//! * [`Staleness`] is the meter: fraction of the base table modified plus
//!   a total-variation drift estimate of the insert distribution against
//!   the base equi-depth masses.  [`Staleness::needs_rebuild`] turns the
//!   meter into a rebuild decision;
//! * cache hygiene is structural: the workload's `mutation_epoch` is part
//!   of the workload cache's key ([`crate::cache::config_hash`]), so a
//!   table mutated past epoch `e` is never stored over, or served as, the
//!   file written at `e` (`epoch_rekeys_the_workload_cache` pins this).
//!   Statistics are not cached at all, so none can go stale on disk.
//!
//! The corrected estimate is exact bookkeeping, approximate placement:
//! `rows_at_most(t) = base_estimate(t) * base_rows + delta(t)`, divided
//! by the live row count — deltas land in the bucket their value falls
//! in, so within-bucket placement error is bounded by one bucket, the
//! same resolution bound the base histogram already carries.

use crate::churn::AppliedBatch;
use crate::histogram::EquiDepthHistogram;
use crate::stats::JointHistogram;

/// How stale a maintained (or frozen) statistic is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Staleness {
    /// Rows touched by mutations over base rows (an update touches two).
    /// Uncapped; consumers widening variance should clamp as they see fit.
    pub fraction_modified: f64,
    /// Total-variation distance between the observed insert distribution
    /// over the base `a`-buckets and the base equi-depth masses, in
    /// `[0, 1]`: 0 means churn re-draws from the base shape, 1 means all
    /// new mass lands where the base had none.
    pub drift: f64,
}

impl Staleness {
    /// A fresh statistic: nothing modified, no drift.
    pub fn none() -> Self {
        Staleness { fraction_modified: 0.0, drift: 0.0 }
    }

    /// Scalar severity used for variance widening: the modified fraction,
    /// amplified by drift (drifted churn invalidates buckets faster than
    /// same-shape churn).  Clamped to `[0, 1]` per axis before use.
    pub fn severity(&self) -> f64 {
        (self.fraction_modified * (1.0 + self.drift)).max(0.0)
    }

    /// Whether to throw the deltas away and rebuild from the heap: at half
    /// the table modified or 0.25 total-variation drift.
    pub fn needs_rebuild(&self) -> bool {
        self.fraction_modified >= REBUILD_FRACTION_MODIFIED || self.drift >= REBUILD_DRIFT
    }
}

/// Fraction of the base table modified at which statistics are rebuilt:
/// the classic "20%-changed" auto-update heuristic, loosened because the
/// delta counters keep estimates serviceable well past it.
const REBUILD_FRACTION_MODIFIED: f64 = 0.5;

/// Total-variation drift of the insert distribution from the base shape
/// at which statistics are rebuilt.
const REBUILD_DRIFT: f64 = 0.25;

/// Bucket index of `v` on an equi-depth bound list: bucket `i` holds
/// `(bounds[i-1], bounds[i]]` (bucket 0 from `min`); values past the last
/// bound clamp into the last bucket.
fn bucket_of(bounds: &[i64], v: i64) -> usize {
    bounds.partition_point(|&ub| ub < v).min(bounds.len().saturating_sub(1))
}

/// The cut the predicate `value <= t` makes through an equi-depth bound
/// list: the count of fully covered buckets, and the interpolated fraction
/// of the boundary bucket after them (0 past the last bound).  Below the
/// minimum no bucket is covered.
fn prefix_cut(bounds: &[i64], min: i64, t: i64) -> (usize, f64) {
    if t < min {
        return (0, 0.0);
    }
    let k = bounds.partition_point(|&ub| ub <= t);
    if k == bounds.len() {
        return (k, 0.0);
    }
    let lo = if k == 0 { min } else { bounds[k - 1] };
    let hi = bounds[k];
    let within = if hi > lo { (t - lo) as f64 / (hi - lo) as f64 } else { 0.0 };
    (k, within.clamp(0.0, 1.0))
}

/// The interpolated delta at the cut `(k, within)` of one run of
/// cumulative counts (`cum[i]` is the net delta of the buckets below `i`):
/// the covered buckets' sum, then the boundary bucket's share.  Integer
/// prefix sums are exact in `f64`, so this is the bucket walk's sum to the
/// bit.
fn delta_at_cut(cum: &[i64], (k, within): (usize, f64)) -> f64 {
    let mut sum = cum[k] as f64;
    if within != 0.0 {
        sum += within * (cum[k + 1] - cum[k]) as f64;
    }
    sum
}

/// Fold one batch's per-bucket `deltas` into the cumulative counts `cum`
/// (one longer than `deltas`, `cum[0]` always 0).
fn add_prefix(cum: &mut [i64], deltas: &[i64]) {
    let mut run = 0;
    for (c, &d) in cum[1..].iter_mut().zip(deltas) {
        run += d;
        *c += run;
    }
}

/// A 1-D equi-depth histogram corrected by per-bucket delta counters.
#[derive(Debug, Clone)]
pub struct MaintainedHistogram {
    base: EquiDepthHistogram,
    live_rows: u64,
    /// `cum[i]`: net row delta of the buckets below `i` (`buckets + 1`
    /// entries).
    cum: Vec<i64>,
}

impl MaintainedHistogram {
    /// Wrap a freshly built `base` (deltas start at zero).
    pub fn new(base: EquiDepthHistogram) -> Self {
        let buckets = base.bucket_count();
        let live_rows = base.rows();
        MaintainedHistogram { base, live_rows, cum: vec![0; buckets + 1] }
    }

    /// The frozen base.
    pub fn base(&self) -> &EquiDepthHistogram {
        &self.base
    }

    /// Rows currently represented (base rows plus net inserts).
    pub fn live_rows(&self) -> u64 {
        self.live_rows
    }

    /// Fold one batch of values in.
    pub fn apply(&mut self, inserted: &[i64], deleted: &[i64]) {
        let (bounds, _, _) = self.base.parts();
        let mut deltas = vec![0; bounds.len()];
        for &v in inserted {
            deltas[bucket_of(bounds, v)] += 1;
        }
        for &v in deleted {
            deltas[bucket_of(bounds, v)] -= 1;
        }
        add_prefix(&mut self.cum, &deltas);
        self.live_rows = (self.live_rows + inserted.len() as u64) - deleted.len() as u64;
    }

    /// Corrected selectivity of `value <= t` over the live table.
    pub fn estimate_at_most(&self, t: i64) -> f64 {
        if self.live_rows == 0 {
            return 0.0;
        }
        let (bounds, base_rows, min) = self.base.parts();
        let rows = self.base.estimate_at_most(t) * base_rows as f64
            + delta_at_cut(&self.cum, prefix_cut(bounds, min, t));
        (rows / self.live_rows as f64).clamp(0.0, 1.0)
    }
}

/// A [`JointHistogram`] corrected by delta counters on its
/// `a-bucket x b-bucket` grid, with maintained marginals and a
/// [`Staleness`] meter.  Each `a` bucket keeps its deltas as cumulative
/// counts over the `b` buckets, so a joint estimate reads one row sum per
/// `a` bucket instead of walking the grid.
#[derive(Debug, Clone)]
pub struct MaintainedJoint {
    base: JointHistogram,
    marginal_a: MaintainedHistogram,
    marginal_b: MaintainedHistogram,
    /// Per `a` bucket, `b_buckets + 1` cumulative counts: entry `j` of row
    /// `ai` is the net row delta of cells `(ai, 0..j)`.
    cum: Vec<i64>,
    base_rows: u64,
    live_rows: u64,
    rows_modified: u64,
    /// Insert-only counts per `a`-bucket, for the drift estimate.
    ins_a: Vec<u64>,
    ins_total: u64,
}

impl MaintainedJoint {
    /// Wrap freshly built joint statistics (deltas start at zero).
    pub fn new(base: JointHistogram) -> Self {
        let marginal_a = MaintainedHistogram::new(base.marginal_a().clone());
        let marginal_b = MaintainedHistogram::new(base.marginal_b().clone());
        let a_len = base.marginal_a().bucket_count();
        let b_len = base.marginal_b().bucket_count();
        let rows = base.rows();
        MaintainedJoint {
            base,
            marginal_a,
            marginal_b,
            cum: vec![0; a_len * (b_len + 1)],
            base_rows: rows,
            live_rows: rows,
            rows_modified: 0,
            ins_a: vec![0; a_len],
            ins_total: 0,
        }
    }

    /// The frozen base statistics.
    pub fn base(&self) -> &JointHistogram {
        &self.base
    }

    /// Rows currently represented.
    pub fn live_rows(&self) -> u64 {
        self.live_rows
    }

    /// The staleness meter.
    pub fn staleness(&self) -> Staleness {
        let drift = if self.ins_total == 0 {
            0.0
        } else {
            // Total variation between the insert distribution over the
            // base a-buckets and the base's (equi-depth, i.e. uniform)
            // bucket masses.
            let uniform = 1.0 / self.ins_a.len() as f64;
            0.5 * self
                .ins_a
                .iter()
                .map(|&c| (c as f64 / self.ins_total as f64 - uniform).abs())
                .sum::<f64>()
        };
        Staleness {
            fraction_modified: self.rows_modified as f64 / self.base_rows.max(1) as f64,
            drift,
        }
    }

    /// Fold one applied churn batch in.
    pub fn apply(&mut self, batch: &AppliedBatch) {
        let (a_bounds, _, _) = self.base.marginal_a().parts();
        let (b_bounds, _, _) = self.base.marginal_b().parts();
        let (a_len, b_len) = (a_bounds.len(), b_bounds.len());
        let mut cells = vec![0; a_len * b_len];
        for &(a, b) in &batch.inserted {
            let (ai, bi) = (bucket_of(a_bounds, a), bucket_of(b_bounds, b));
            cells[ai * b_len + bi] += 1;
            self.ins_a[ai] += 1;
        }
        for &(a, b) in &batch.deleted {
            cells[bucket_of(a_bounds, a) * b_len + bucket_of(b_bounds, b)] -= 1;
        }
        for ai in 0..a_len {
            let row = ai * (b_len + 1)..(ai + 1) * (b_len + 1);
            add_prefix(&mut self.cum[row], &cells[ai * b_len..(ai + 1) * b_len]);
        }
        self.ins_total += batch.inserted.len() as u64;
        let ins_a: Vec<i64> = batch.inserted.iter().map(|&(a, _)| a).collect();
        let del_a: Vec<i64> = batch.deleted.iter().map(|&(a, _)| a).collect();
        let ins_b: Vec<i64> = batch.inserted.iter().map(|&(_, b)| b).collect();
        let del_b: Vec<i64> = batch.deleted.iter().map(|&(_, b)| b).collect();
        self.marginal_a.apply(&ins_a, &del_a);
        self.marginal_b.apply(&ins_b, &del_b);
        self.live_rows = (self.live_rows + batch.inserted.len() as u64)
            - batch.deleted.len() as u64;
        self.rows_modified += batch.rows_applied;
    }

    /// Corrected marginal selectivity of `a <= ta`.
    pub fn estimate_a(&self, ta: i64) -> f64 {
        self.marginal_a.estimate_at_most(ta)
    }

    /// Corrected marginal selectivity of `b <= tb`.
    pub fn estimate_b(&self, tb: i64) -> f64 {
        self.marginal_b.estimate_at_most(tb)
    }

    /// Corrected joint selectivity of `a <= ta AND b <= tb`: the base
    /// estimate scaled back to rows, plus the bilinearly interpolated
    /// prefix sum of the delta grid, over the live row count.  The prefix
    /// sum is one pass over the `a` buckets: each covered bucket adds its
    /// row sum at the `b` cut, read off its cumulative counts, in bucket
    /// order, and the boundary bucket adds its share last.
    pub fn estimate_ab(&self, ta: i64, tb: i64) -> f64 {
        if self.live_rows == 0 {
            return 0.0;
        }
        let (a_bounds, _, min_a) = self.base.marginal_a().parts();
        let (b_bounds, _, min_b) = self.base.marginal_b().parts();
        let (ka, within_a) = prefix_cut(a_bounds, min_a, ta);
        let cut_b = prefix_cut(b_bounds, min_b, tb);
        let stride = b_bounds.len() + 1;
        let row_sum = |ai: usize| delta_at_cut(&self.cum[ai * stride..(ai + 1) * stride], cut_b);
        let mut delta = 0.0;
        for ai in 0..ka {
            delta += row_sum(ai);
        }
        if within_a != 0.0 {
            delta += within_a * row_sum(ka);
        }
        let rows = self.base.estimate_joint_at_most(ta, tb) * self.base_rows as f64 + delta;
        (rows / self.live_rows as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{ChurnConfig, ChurnDriver};
    use crate::gen::{TableBuilder, Workload, WorkloadConfig, COL_A, COL_B};
    use crate::cache::{cache_path, config_hash};
    use crate::stats::JointHistogramConfig;
    use robustmap_storage::Session;

    fn workload(seed: u64) -> Workload {
        TableBuilder::build(WorkloadConfig { rows: 1 << 12, seed, ..Default::default() })
    }

    fn jcfg() -> JointHistogramConfig {
        JointHistogramConfig { sample_target: 1 << 12, ..Default::default() }
    }

    /// Exact selectivities straight off the mutated heap.
    fn truth(w: &Workload, ta: i64, tb: i64) -> (f64, f64, f64) {
        let s = Session::with_pool_pages(0);
        let (mut na, mut nb, mut nab, mut n) = (0u64, 0u64, 0u64, 0u64);
        w.db.table(w.table).heap.scan(&s, |_, row| {
            let (a, b) = (row.get(COL_A), row.get(COL_B));
            na += u64::from(a <= ta);
            nb += u64::from(b <= tb);
            nab += u64::from(a <= ta && b <= tb);
            n += 1;
        });
        (na as f64 / n as f64, nb as f64 / n as f64, nab as f64 / n as f64)
    }

    /// Per-bucket coverage weights of `value <= t`: 1 for covered buckets,
    /// the interpolated fraction for the boundary bucket, 0 beyond.
    fn coverage(bounds: &[i64], min: i64, t: i64) -> Vec<f64> {
        let mut w = vec![0.0; bounds.len()];
        if t < min {
            return w;
        }
        let k = bounds.partition_point(|&ub| ub <= t);
        for x in w.iter_mut().take(k) {
            *x = 1.0;
        }
        if k < bounds.len() {
            let lo = if k == 0 { min } else { bounds[k - 1] };
            let hi = bounds[k];
            let within = if hi > lo { (t - lo) as f64 / (hi - lo) as f64 } else { 0.0 };
            w[k] = within.clamp(0.0, 1.0);
        }
        w
    }

    /// The per-bucket deltas a run of cumulative counts folds.
    fn deltas(cum: &[i64]) -> Vec<i64> {
        cum.windows(2).map(|p| p[1] - p[0]).collect()
    }

    /// The dense reference of a maintained marginal: the interpolated
    /// bucket walk over per-bucket deltas.
    fn dense_marginal(h: &MaintainedHistogram, t: i64) -> f64 {
        if h.live_rows == 0 {
            return 0.0;
        }
        let (bounds, base_rows, min) = h.base.parts();
        let d = deltas(&h.cum);
        let delta = if t < min {
            0.0
        } else {
            let k = bounds.partition_point(|&ub| ub <= t);
            let mut sum: f64 = d[..k.min(d.len())].iter().map(|&x| x as f64).sum();
            if k < bounds.len() {
                sum += coverage(bounds, min, t)[k] * d[k] as f64;
            }
            sum
        };
        let rows = h.base.estimate_at_most(t) * base_rows as f64 + delta;
        (rows / h.live_rows as f64).clamp(0.0, 1.0)
    }

    /// The dense reference of the joint estimate: every cell of the delta
    /// grid weighted by both axes' coverage, row sums added in `a`-bucket
    /// order.
    fn dense_joint(m: &MaintainedJoint, ta: i64, tb: i64) -> f64 {
        if m.live_rows == 0 {
            return 0.0;
        }
        let (a_bounds, _, min_a) = m.base.marginal_a().parts();
        let (b_bounds, _, min_b) = m.base.marginal_b().parts();
        let (wa, wb) = (coverage(a_bounds, min_a, ta), coverage(b_bounds, min_b, tb));
        let grid = deltas_grid(m);
        let mut delta = 0.0;
        for (row, &w_a) in grid.iter().zip(&wa) {
            if w_a == 0.0 {
                continue;
            }
            let mut row_sum = 0.0;
            for (&cell, &w_b) in row.iter().zip(&wb) {
                if w_b != 0.0 {
                    row_sum += w_b * cell as f64;
                }
            }
            delta += w_a * row_sum;
        }
        let rows = m.base.estimate_joint_at_most(ta, tb) * m.base_rows as f64 + delta;
        (rows / m.live_rows as f64).clamp(0.0, 1.0)
    }

    /// The net delta of every `(a_bucket, b_bucket)` cell, row-major in `a`.
    fn deltas_grid(m: &MaintainedJoint) -> Vec<Vec<i64>> {
        let stride = m.base.marginal_b().bucket_count() + 1;
        m.cum.chunks(stride).map(deltas).collect()
    }

    /// Every bucket bound, each bound plus and minus one, below the minimum
    /// and past the last bound.
    fn probes(h: &EquiDepthHistogram) -> Vec<i64> {
        let (bounds, _, min) = h.parts();
        let mut t = vec![i64::MIN, min - 1, min, i64::MAX];
        t.extend(bounds.iter().flat_map(|&b| [b - 1, b, b + 1]));
        t
    }

    #[test]
    fn maintained_joint_estimate_equals_the_dense_grid_walk_bit_for_bit() {
        let mut w = workload(59);
        let base = crate::stats::JointHistogram::from_workload(&w, &jcfg());
        let mut maint = MaintainedJoint::new(base);
        let cfg = ChurnConfig::for_workload(&w).with_drift(50);
        let mut driver = ChurnDriver::new(&w, cfg);
        let s = Session::with_pool_pages(64);
        for b in driver.apply_until_fraction(&mut w, &s, 0.5) {
            maint.apply(&b);
        }
        let grid = deltas_grid(&maint);
        assert!(grid.iter().flatten().any(|&d| d < 0), "some cell must be net-negative");
        assert!(grid.iter().flatten().any(|&d| d > 0), "and some net-positive");
        // The marginals count the same rows: their deltas are the grid's row
        // and column sums.
        let rows: Vec<i64> = grid.iter().map(|r| r.iter().sum()).collect();
        let cols: Vec<i64> =
            (0..grid[0].len()).map(|bi| grid.iter().map(|r| r[bi]).sum()).collect();
        assert_eq!(rows, deltas(&maint.marginal_a.cum));
        assert_eq!(cols, deltas(&maint.marginal_b.cum));
        let (probes_a, probes_b) =
            (probes(maint.base.marginal_a()), probes(maint.base.marginal_b()));
        for &ta in &probes_a {
            assert_eq!(
                maint.estimate_a(ta).to_bits(),
                dense_marginal(&maint.marginal_a, ta).to_bits(),
                "estimate_a({ta})"
            );
            for &tb in &probes_b {
                assert_eq!(
                    maint.estimate_ab(ta, tb).to_bits(),
                    dense_joint(&maint, ta, tb).to_bits(),
                    "estimate_ab({ta}, {tb})"
                );
            }
        }
        for &tb in &probes_b {
            assert_eq!(
                maint.estimate_b(tb).to_bits(),
                dense_marginal(&maint.marginal_b, tb).to_bits(),
                "estimate_b({tb})"
            );
        }
    }

    #[test]
    fn maintained_estimates_track_a_churned_table() {
        let mut w = workload(41);
        let base = crate::stats::JointHistogram::from_workload(&w, &jcfg());
        let mut maint = MaintainedJoint::new(base.clone());
        let cfg = ChurnConfig::for_workload(&w).with_drift(50);
        let mut driver = ChurnDriver::new(&w, cfg);
        let s = Session::with_pool_pages(64);
        for b in driver.apply_until_fraction(&mut w, &s, 0.5) {
            maint.apply(&b);
        }
        assert_eq!(maint.live_rows(), w.db.table(w.table).heap.row_count());
        let n = 1 << 12;
        for (ta, tb) in [(n / 8, n / 2), (n / 2, n / 4), (3 * n / 4, 3 * n / 4)] {
            let (sa, sb, sab) = truth(&w, ta, tb);
            let frozen_err = (base.marginal_a().estimate_at_most(ta) - sa).abs();
            let maint_err = (maint.estimate_a(ta) - sa).abs();
            // Maintained marginals stay near truth; the frozen base has
            // drifted by construction (upper-half inserts).
            assert!(maint_err < 0.03, "ta={ta}: maintained err {maint_err:.4}");
            assert!(maint_err <= frozen_err + 0.01, "ta={ta}: frozen beat maintained");
            assert!((maint.estimate_b(tb) - sb).abs() < 0.04, "tb={tb}");
            assert!((maint.estimate_ab(ta, tb) - sab).abs() < 0.05, "({ta},{tb})");
        }
    }

    #[test]
    fn zero_churn_estimates_equal_the_base_bitwise() {
        let w = workload(43);
        let base = crate::stats::JointHistogram::from_workload(&w, &jcfg());
        let maint = MaintainedJoint::new(base.clone());
        for t in [0i64, 100, 1 << 10, (1 << 12) - 1] {
            assert_eq!(
                maint.estimate_a(t).to_bits(),
                base.marginal_a().estimate_at_most(t).to_bits()
            );
            assert_eq!(
                maint.estimate_ab(t, t / 2).to_bits(),
                base.estimate_joint_at_most(t, t / 2).to_bits()
            );
        }
        assert_eq!(maint.staleness(), Staleness::none());
    }

    #[test]
    fn staleness_meter_tracks_fraction_and_drift() {
        let mut w = workload(47);
        let base = crate::stats::JointHistogram::from_workload(&w, &jcfg());
        let mut maint = MaintainedJoint::new(base);
        let cfg = ChurnConfig { batch_ops: 256, ..ChurnConfig::for_workload(&w) }.with_drift(50);
        let mut driver = ChurnDriver::new(&w, cfg);
        let s = Session::with_pool_pages(64);
        for b in driver.apply_until_fraction(&mut w, &s, 0.25) {
            maint.apply(&b);
        }
        let m = maint.staleness();
        assert!((m.fraction_modified - driver.fraction_touched()).abs() < 1e-12);
        assert!(m.fraction_modified >= 0.25);
        // Upper-half inserts: half the buckets get nothing, TV -> ~0.5.
        assert!(m.drift > 0.3, "drift {:.3}", m.drift);
        assert!(m.severity() > m.fraction_modified);
    }

    #[test]
    fn rebuild_thresholds() {
        assert!(!Staleness::none().needs_rebuild());
        assert!(!Staleness { fraction_modified: 0.49, drift: 0.24 }.needs_rebuild());
        assert!(Staleness { fraction_modified: 0.5, drift: 0.0 }.needs_rebuild());
        assert!(Staleness { fraction_modified: 0.1, drift: 0.3 }.needs_rebuild());
    }

    #[test]
    fn epoch_rekeys_the_workload_cache() {
        // A churned table can never be stored over, or served as, the
        // pristine file: the mutation epoch is part of the content hash, so
        // the churned config addresses a different file (and the
        // stored-config comparison backstops even a hash collision).
        let mut w = workload(53);
        let pristine = w.config.clone();
        let mut driver = ChurnDriver::new(&w, ChurnConfig::for_workload(&w));
        driver.apply_batch(&mut w, &Session::with_pool_pages(64));
        assert_eq!(w.config.mutation_epoch, 1);
        assert_ne!(config_hash(&pristine), config_hash(&w.config));
        // `None` when caching is disabled in this environment.
        if let (Some(before), Some(after)) = (cache_path(&pristine), cache_path(&w.config)) {
            assert_ne!(before.file_name(), after.file_name());
        }
    }
}
