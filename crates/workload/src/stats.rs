//! Multi-column (joint) statistics: the catalog artifact that retires the
//! independence assumption.
//!
//! The `ext_correlated` experiment showed the failure mode the paper opens
//! with, reproduced in our own optimizer: a chooser fed per-column
//! selectivities estimates the conjunction `a <= ta AND b <= tb` as
//! `sel_a * sel_b`, which under correlation is wrong by up to `rho / s` —
//! and the wrong cardinality feeds *every* cost formula.  A
//! [`JointHistogram`] is the classic fix: a 2-D equi-depth histogram over
//! `(a, b)`, built from a deterministic seeded row sample, answering
//! [`JointHistogram::estimate_joint_at_most`] directly from observed
//! co-occurrence instead of from a product of marginals.
//!
//! ## Shape
//!
//! The sample is partitioned into `a_buckets` equi-depth buckets by `a`;
//! each bucket carries a 1-D [`EquiDepthHistogram`] over the `b` values of
//! *its own rows* — a conditional distribution P(b | a-bucket).  A joint
//! estimate sums fully covered buckets (interpolating inside the boundary
//! bucket, exactly like the 1-D estimator) weighted by each bucket's
//! conditional `b` estimate.  Marginal histograms over the same sample are
//! kept alongside, so one build serves both the joint and the per-column
//! estimates (and the two agree within bucket resolution — property-tested
//! in `tests/prop_stats.rs`).
//!
//! ## Determinism
//!
//! The row sample is a pure function of `(stats seed, workload seed, row
//! index)` — a splitmix-style hash draw per row, never a stateful RNG — so
//! builds are bit-identical across runs and machines, and cheap enough
//! (milliseconds at 2^20 rows) that nothing caches them.

use robustmap_storage::Session;

use crate::gen::{Workload, COL_A, COL_B};
use crate::histogram::EquiDepthHistogram;

/// Parameters of a [`JointHistogram`] build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JointHistogramConfig {
    /// Equi-depth buckets over `a` (the conditional partition and the
    /// marginal `a` histogram share this count).
    pub a_buckets: usize,
    /// Buckets of each per-`a`-bucket conditional `b` histogram (the
    /// marginal `b` histogram uses `a_buckets` like a 1-D catalog would).
    pub b_buckets: usize,
    /// Target sample size in rows; tables at most this large are read in
    /// full.
    pub sample_target: u64,
    /// Sampling seed (mixed with the workload's seed per draw).
    pub seed: u64,
}

impl Default for JointHistogramConfig {
    fn default() -> Self {
        JointHistogramConfig {
            a_buckets: 64,
            b_buckets: 16,
            sample_target: 1 << 16,
            seed: 0x57A7_5EED,
        }
    }
}

/// A sample-backed 2-D equi-depth histogram over the predicate columns
/// `(a, b)`, with marginals.
#[derive(Debug, Clone, PartialEq)]
pub struct JointHistogram {
    config: JointHistogramConfig,
    /// Rows represented (the full table, not the sample).
    rows: u64,
    /// Rows actually sampled.
    sample_rows: u64,
    /// Minimum sampled `a` value.
    min_a: i64,
    /// Upper bound (inclusive) of each `a` bucket, ascending.
    a_bounds: Vec<i64>,
    /// Sample rows in each `a` bucket (equi-depth up to the remainder).
    a_counts: Vec<u64>,
    /// Conditional `b` histogram of each `a` bucket.
    cond_b: Vec<EquiDepthHistogram>,
    /// Marginal histogram over `a` (same sample, same bucket count).
    hist_a: EquiDepthHistogram,
    /// Marginal histogram over `b`.
    hist_b: EquiDepthHistogram,
}

/// Variance of a Bernoulli sample mean at estimated rate `p` over `m`
/// draws (`p(1-p) / (m-1)`, the unbiased plug-in).  Zero for degenerate
/// samples (`m <= 1`), where the estimate carries no variance signal.
fn sample_mean_variance(p: f64, m: u64) -> f64 {
    if m <= 1 {
        return 0.0;
    }
    let p = p.clamp(0.0, 1.0);
    p * (1.0 - p) / (m - 1) as f64
}

/// A splitmix64-style finalizer: the per-row sampling draw (shared with
/// the churn generator, which needs the same pure-function-of-`(seed, i)`
/// shape).
pub(crate) fn draw(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl JointHistogram {
    /// Build from explicit `(a, b)` sample pairs representing a table of
    /// `rows` rows.  [`JointHistogram::from_workload`] is the usual entry;
    /// this one exists for tests and synthetic data.
    ///
    /// # Panics
    /// Panics if either bucket count in `config` is zero.
    pub fn build(mut pairs: Vec<(i64, i64)>, rows: u64, config: JointHistogramConfig) -> Self {
        assert!(config.a_buckets > 0 && config.b_buckets > 0, "need at least one bucket");
        let m = pairs.len();
        let hist_b = EquiDepthHistogram::build(pairs.iter().map(|p| p.1).collect(), config.a_buckets);
        if m == 0 {
            return JointHistogram {
                config,
                rows,
                sample_rows: 0,
                min_a: 0,
                a_bounds: vec![0],
                a_counts: vec![0],
                cond_b: vec![EquiDepthHistogram::build(vec![], config.b_buckets)],
                hist_a: EquiDepthHistogram::build(vec![], config.a_buckets),
                hist_b,
            };
        }
        // Equi-depth partition by `a`: the same chunking rule as the 1-D
        // build, so `a_bounds` coincide with the marginal's boundaries.
        pairs.sort_unstable();
        let per_bucket = m.div_ceil(config.a_buckets).max(1);
        let mut a_bounds = Vec::new();
        let mut a_counts = Vec::new();
        let mut cond_b = Vec::new();
        let mut at = 0usize;
        while at < m {
            let end = (at + per_bucket).min(m);
            a_bounds.push(pairs[end - 1].0);
            a_counts.push((end - at) as u64);
            cond_b.push(EquiDepthHistogram::build(
                pairs[at..end].iter().map(|p| p.1).collect(),
                config.b_buckets,
            ));
            at = end;
        }
        // The same chunking rule over the same sample: its boundaries are
        // `a_bounds` (`prop_stats.rs` pins that).
        let hist_a = EquiDepthHistogram::build(pairs.iter().map(|p| p.0).collect(), config.a_buckets);
        JointHistogram {
            config,
            rows,
            sample_rows: m as u64,
            min_a: pairs[0].0,
            a_bounds,
            a_counts,
            cond_b,
            hist_a,
            hist_b,
        }
    }

    /// Build from a deterministic seeded sample of the workload's heap —
    /// the way a statistics job would gather it.
    pub fn from_workload(w: &Workload, config: &JointHistogramConfig) -> Self {
        let n = w.rows();
        let stride = (n / config.sample_target.max(1)).max(1);
        let seed = config.seed ^ w.config.seed.rotate_left(17);
        let s = Session::with_pool_pages(0);
        let mut pairs = Vec::with_capacity((n / stride) as usize + 1);
        let mut i = 0u64;
        w.db.table(w.table).heap.scan(&s, |_, row| {
            if stride == 1 || draw(seed, i).is_multiple_of(stride) {
                pairs.push((row.get(COL_A), row.get(COL_B)));
            }
            i += 1;
        });
        Self::build(pairs, n, *config)
    }

    /// Rows the statistics represent (the full table).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Rows actually sampled.
    pub fn sample_rows(&self) -> u64 {
        self.sample_rows
    }

    /// The build parameters.
    pub fn config(&self) -> &JointHistogramConfig {
        &self.config
    }

    /// The marginal histogram over `a`.
    pub fn marginal_a(&self) -> &EquiDepthHistogram {
        &self.hist_a
    }

    /// The marginal histogram over `b`.
    pub fn marginal_b(&self) -> &EquiDepthHistogram {
        &self.hist_b
    }

    /// Selectivity resolution of the `a` axis: one marginal bucket.
    pub fn resolution_a(&self) -> f64 {
        1.0 / self.hist_a.bucket_count() as f64
    }

    /// Selectivity resolution of the `b` axis: one marginal bucket.
    pub fn resolution_b(&self) -> f64 {
        1.0 / self.hist_b.bucket_count() as f64
    }

    /// Observed sampling variance of the marginal-`a` selectivity estimate
    /// at `ta`: the variance of the sample mean of the Bernoulli indicator
    /// `1[a <= ta]`, i.e. `p(1-p) / (m-1)` for a sample of `m` rows.
    ///
    /// This is the *statistical* uncertainty of the estimate — how much it
    /// would move under a different random sample — as opposed to
    /// [`JointHistogram::resolution_a`], the *representational* limit of
    /// the bucket grid.  An uncertainty region should cover both: the
    /// variance term dominates when the sample is small relative to the
    /// bucket count, the resolution term when the sample is plentiful.
    pub fn sel_variance_a(&self, ta: i64) -> f64 {
        sample_mean_variance(self.hist_a.estimate_at_most(ta), self.sample_rows)
    }

    /// Observed sampling variance of the marginal-`b` selectivity estimate
    /// at `tb`; see [`JointHistogram::sel_variance_a`].
    pub fn sel_variance_b(&self, tb: i64) -> f64 {
        sample_mean_variance(self.hist_b.estimate_at_most(tb), self.sample_rows)
    }

    /// Estimated selectivity of the conjunction `a <= ta AND b <= tb`,
    /// from observed co-occurrence — no independence assumption.
    pub fn estimate_joint_at_most(&self, ta: i64, tb: i64) -> f64 {
        if self.sample_rows == 0 || ta < self.min_a {
            return 0.0;
        }
        let m = self.sample_rows as f64;
        // `a` buckets fully below ta (duplicated bounds make this a
        // partition point, as in the 1-D estimator).
        let k = self.a_bounds.partition_point(|&ub| ub <= ta);
        let mut p = 0.0;
        for i in 0..k {
            p += self.a_counts[i] as f64 / m * self.cond_b[i].estimate_at_most(tb);
        }
        if k < self.a_bounds.len() {
            let lo = if k == 0 { self.min_a } else { self.a_bounds[k - 1] };
            let hi = self.a_bounds[k];
            let within =
                if hi > lo { (ta - lo) as f64 / (hi - lo) as f64 } else { 0.0 };
            p += within.clamp(0.0, 1.0) * self.a_counts[k] as f64 / m
                * self.cond_b[k].estimate_at_most(tb);
        }
        p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Permutation};
    use crate::gen::{PredicateDistribution, TableBuilder};

    fn correlated_pairs(n: u64, rho_pct: u64, seed: u64) -> Vec<(i64, i64)> {
        let base = Permutation::new(n, seed);
        let mut other = Permutation::new(n, seed ^ 0xDEAD);
        (0..n)
            .map(|i| {
                let a = base.apply(i) as i64;
                let b = if draw(seed, i) % 100 < rho_pct { a } else { other.value(i) };
                (a, b)
            })
            .collect()
    }

    #[test]
    fn independent_columns_estimate_the_product() {
        let pairs = correlated_pairs(1 << 14, 0, 3);
        let n = pairs.len() as i64;
        let h = JointHistogram::build(pairs, 1 << 14, JointHistogramConfig::default());
        for sel in [0.05f64, 0.25, 0.5, 1.0] {
            let t = (sel * n as f64) as i64 - 1;
            let est = h.estimate_joint_at_most(t, t);
            assert!(
                (est - sel * sel).abs() < 0.04,
                "sel {sel}: joint {est:.4} vs product {:.4}",
                sel * sel
            );
        }
    }

    #[test]
    fn fully_correlated_columns_estimate_the_diagonal() {
        // b == a everywhere: P(a <= t AND b <= t) = P(a <= t) = sel, which
        // the independence assumption would square.
        let pairs = correlated_pairs(1 << 14, 100, 7);
        let n = pairs.len() as i64;
        let h = JointHistogram::build(pairs, 1 << 14, JointHistogramConfig::default());
        for sel in [0.1f64, 0.25, 0.5, 0.9] {
            let t = (sel * n as f64) as i64 - 1;
            let est = h.estimate_joint_at_most(t, t);
            assert!(
                (est - sel).abs() < 0.05,
                "sel {sel}: joint {est:.4} should track the marginal, not {:.4}",
                sel * sel
            );
        }
    }

    #[test]
    fn estimates_are_probabilities_and_monotone() {
        let pairs = correlated_pairs(1 << 12, 60, 11);
        let n = 1i64 << 12;
        let h = JointHistogram::build(pairs, 1 << 12, JointHistogramConfig::default());
        let mut last = 0.0f64;
        for t in (0..=n).step_by(64) {
            let est = h.estimate_joint_at_most(t, n);
            assert!((0.0..=1.0).contains(&est));
            assert!(est >= last - 1e-12, "joint estimate dipped at t={t}");
            last = est;
        }
        assert_eq!(h.estimate_joint_at_most(i64::MIN, n), 0.0);
        assert!(h.estimate_joint_at_most(n, n) > 0.99);
    }

    #[test]
    fn sel_variance_tracks_binomial_uncertainty_and_shrinks_with_the_sample() {
        let small = JointHistogram::build(
            correlated_pairs(1 << 8, 0, 5),
            1 << 8,
            JointHistogramConfig::default(),
        );
        let large = JointHistogram::build(
            correlated_pairs(1 << 14, 0, 5),
            1 << 14,
            JointHistogramConfig::default(),
        );
        // At the midpoint (p ~ 0.5) the variance is ~ 0.25 / (m - 1):
        // the small sample's estimate is far noisier than the large one's.
        let t_small = (1i64 << 7) - 1;
        let t_large = (1i64 << 13) - 1;
        let v_small = small.sel_variance_a(t_small);
        let v_large = large.sel_variance_a(t_large);
        assert!(v_small > 30.0 * v_large, "{v_small} vs {v_large}");
        assert!((v_small - 0.25 / 255.0).abs() < 0.25 / 255.0, "{v_small}");
        // Degenerate selectivities carry no sampling variance, and the
        // variance is always a finite non-negative number.
        assert_eq!(large.sel_variance_a(i64::MIN), 0.0);
        assert_eq!(large.sel_variance_b(i64::MAX), 0.0);
        for t in [0i64, 100, 1000, 10_000] {
            let v = large.sel_variance_b(t);
            assert!(v.is_finite() && v >= 0.0, "{v} at {t}");
        }
        // Empty samples report zero, not NaN.
        let empty = JointHistogram::build(vec![], 100, JointHistogramConfig::default());
        assert_eq!(empty.sel_variance_a(5), 0.0);
    }

    #[test]
    fn empty_sample_is_sane() {
        let h = JointHistogram::build(vec![], 100, JointHistogramConfig::default());
        assert_eq!(h.estimate_joint_at_most(5, 5), 0.0);
        assert_eq!(h.sample_rows(), 0);
        assert_eq!(h.rows(), 100);
    }

    #[test]
    fn workload_build_is_deterministic_and_sampled() {
        let cfg = crate::gen::WorkloadConfig {
            rows: 1 << 12,
            seed: 21,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(75),
            mutation_epoch: 0,
        };
        let w = TableBuilder::build(cfg);
        let jcfg = JointHistogramConfig { sample_target: 1 << 10, ..Default::default() };
        let h1 = JointHistogram::from_workload(&w, &jcfg);
        let h2 = JointHistogram::from_workload(&w, &jcfg);
        assert_eq!(h1, h2);
        // Sampling hits the target within a small factor.
        assert!(h1.sample_rows() >= 1 << 8 && h1.sample_rows() <= 1 << 12);
        assert_eq!(h1.rows(), 1 << 12);
        // Correlation is visible through the sample: the joint estimate at
        // the diagonal midpoint is far above the independence product.
        let t = w.cal_a.threshold(0.5);
        let joint = h1.estimate_joint_at_most(t, t);
        assert!(joint > 0.3, "rho 0.75 at sel 0.5: joint {joint:.3} (product would be 0.25)");
    }
}
