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

/// Interpolated prefix sum of per-bucket `deltas` at `value <= t`, the
/// delta twin of [`EquiDepthHistogram::estimate_at_most`]'s bucket walk.
fn delta_at_most(bounds: &[i64], min: i64, deltas: &[i64], t: i64) -> f64 {
    if t < min {
        return 0.0;
    }
    let k = bounds.partition_point(|&ub| ub <= t);
    let mut sum: f64 = deltas[..k.min(deltas.len())].iter().map(|&d| d as f64).sum();
    if k < bounds.len() {
        let lo = if k == 0 { min } else { bounds[k - 1] };
        let hi = bounds[k];
        let within = if hi > lo { (t - lo) as f64 / (hi - lo) as f64 } else { 0.0 };
        sum += within.clamp(0.0, 1.0) * deltas[k] as f64;
    }
    sum
}

/// A 1-D equi-depth histogram corrected by per-bucket delta counters.
#[derive(Debug, Clone)]
pub struct MaintainedHistogram {
    base: EquiDepthHistogram,
    live_rows: u64,
    deltas: Vec<i64>,
}

impl MaintainedHistogram {
    /// Wrap a freshly built `base` (deltas start at zero).
    pub fn new(base: EquiDepthHistogram) -> Self {
        let buckets = base.bucket_count();
        let live_rows = base.rows();
        MaintainedHistogram { base, live_rows, deltas: vec![0; buckets] }
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
        for &v in inserted {
            self.deltas[bucket_of(bounds, v)] += 1;
        }
        for &v in deleted {
            self.deltas[bucket_of(bounds, v)] -= 1;
        }
        self.live_rows = (self.live_rows + inserted.len() as u64) - deleted.len() as u64;
    }

    /// Corrected selectivity of `value <= t` over the live table.
    pub fn estimate_at_most(&self, t: i64) -> f64 {
        if self.live_rows == 0 {
            return 0.0;
        }
        let (bounds, base_rows, min) = self.base.parts();
        let rows = self.base.estimate_at_most(t) * base_rows as f64
            + delta_at_most(bounds, min, &self.deltas, t);
        (rows / self.live_rows as f64).clamp(0.0, 1.0)
    }
}

/// A [`JointHistogram`] corrected by delta counters on its
/// `a-bucket x b-bucket` grid, with maintained marginals and a
/// [`Staleness`] meter.
#[derive(Debug, Clone)]
pub struct MaintainedJoint {
    base: JointHistogram,
    marginal_a: MaintainedHistogram,
    marginal_b: MaintainedHistogram,
    /// Net row delta per `(a_bucket, b_bucket)` cell, row-major in `a`.
    grid: Vec<i64>,
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
            grid: vec![0; a_len * b_len],
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
        let b_len = b_bounds.len();
        for &(a, b) in &batch.inserted {
            let (ai, bi) = (bucket_of(a_bounds, a), bucket_of(b_bounds, b));
            self.grid[ai * b_len + bi] += 1;
            self.ins_a[ai] += 1;
        }
        for &(a, b) in &batch.deleted {
            self.grid[bucket_of(a_bounds, a) * b_len + bucket_of(b_bounds, b)] -= 1;
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
    /// prefix sum of the delta grid, over the live row count.
    pub fn estimate_ab(&self, ta: i64, tb: i64) -> f64 {
        if self.live_rows == 0 {
            return 0.0;
        }
        let (a_bounds, _, min_a) = self.base.marginal_a().parts();
        let (b_bounds, _, min_b) = self.base.marginal_b().parts();
        let wa = prefix_weights(a_bounds, min_a, ta);
        let wb = prefix_weights(b_bounds, min_b, tb);
        let b_len = b_bounds.len();
        let mut delta = 0.0;
        for (ai, &w_a) in wa.iter().enumerate() {
            if w_a == 0.0 {
                continue;
            }
            let mut row_sum = 0.0;
            for (bi, &w_b) in wb.iter().enumerate() {
                if w_b != 0.0 {
                    row_sum += w_b * self.grid[ai * b_len + bi] as f64;
                }
            }
            delta += w_a * row_sum;
        }
        let rows = self.base.estimate_joint_at_most(ta, tb) * self.base_rows as f64 + delta;
        (rows / self.live_rows as f64).clamp(0.0, 1.0)
    }
}

/// Per-bucket coverage weights of the predicate `value <= t`: 1 for fully
/// covered buckets, the interpolated fraction for the boundary bucket, 0
/// beyond — the vector form of [`delta_at_most`]'s walk, for the 2-D case.
fn prefix_weights(bounds: &[i64], min: i64, t: i64) -> Vec<f64> {
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
