//! Equi-depth histograms: the catalog statistics real optimizers estimate
//! cardinalities from.
//!
//! The paper's opening diagnosis — "errors in cardinality estimation" as
//! the usual source of unexpected run-time conditions — has a concrete
//! mechanism: selectivities are estimated from coarse histograms, not from
//! the data.  This module provides the classic equi-depth histogram so the
//! optimizer experiments can derive their estimates the way a real system
//! would, with the error controlled by bucket count (and staleness
//! simulated by building the histogram from a sample).

/// An equi-depth histogram over one column: `buckets` boundaries chosen so
/// each bucket holds (approximately) the same number of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    /// Upper bound (inclusive) of each bucket, ascending.
    upper_bounds: Vec<i64>,
    /// Total rows represented.
    rows: u64,
    /// Minimum value seen.
    min: i64,
}

impl EquiDepthHistogram {
    /// Build from column values with the given bucket count.
    ///
    /// Bucket boundaries are found by recursive rank selection
    /// ([`slice::select_nth_unstable`] on the median boundary, then on each
    /// half), which is O(n log buckets) — a full sort of the column would
    /// be O(n log n), a noticeable cost when catalog statistics are built
    /// over 2^20-row tables.  The boundaries are the values the sorted
    /// column holds at the boundary ranks, so the result is identical to
    /// the sort-based build (`selection_build_matches_the_full_sort_build`
    /// pins this).
    ///
    /// # Panics
    /// Panics if `buckets == 0`.
    pub fn build(mut values: Vec<i64>, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        if values.is_empty() {
            return EquiDepthHistogram { upper_bounds: vec![0], rows: 0, min: 0 };
        }
        let n = values.len();
        let per_bucket = n.div_ceil(buckets).max(1);
        // Boundary ranks in the sorted order: every per_bucket-th value,
        // plus the maximum — strictly ascending by construction.
        let mut ranks: Vec<usize> =
            (1..).map(|k| k * per_bucket - 1).take_while(|&r| r + 1 < n).collect();
        ranks.push(n - 1);
        let min = *values.iter().min().expect("nonempty");
        let mut upper_bounds = vec![0i64; ranks.len()];
        multiselect(&mut values, 0, &ranks, &mut upper_bounds);
        EquiDepthHistogram { upper_bounds, rows: n as u64, min }
    }

    /// Build from every `step`-th value — a stale/sampled histogram, the
    /// realistic source of larger estimation errors.
    pub fn build_sampled(values: &[i64], buckets: usize, step: usize) -> Self {
        let sample: Vec<i64> = values.iter().step_by(step.max(1)).copied().collect();
        let mut h = Self::build(sample, buckets);
        h.rows = values.len() as u64; // represent the full table
        h
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.upper_bounds.len()
    }

    /// Rows represented.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Estimated selectivity of `value <= t`, with linear interpolation
    /// inside the boundary bucket (the textbook formula).
    pub fn estimate_at_most(&self, t: i64) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        if t < self.min {
            return 0.0;
        }
        // Buckets whose (inclusive) upper bound is <= t are fully covered —
        // with heavy duplication several buckets can share one bound.
        let b = self.upper_bounds.partition_point(|&ub| ub <= t);
        if b >= self.upper_bounds.len() {
            return 1.0;
        }
        let bucket_fraction = 1.0 / self.upper_bounds.len() as f64;
        let full_buckets = b as f64 * bucket_fraction;
        // Interpolate within bucket `b` (t lies strictly below its bound).
        let lo = if b == 0 { self.min } else { self.upper_bounds[b - 1] };
        let hi = self.upper_bounds[b];
        let within = if hi > lo { (t - lo) as f64 / (hi - lo) as f64 } else { 0.0 };
        (full_buckets + within.clamp(0.0, 1.0) * bucket_fraction).clamp(0.0, 1.0)
    }

    /// Estimated row count for `value <= t`.
    pub fn estimate_rows_at_most(&self, t: i64) -> f64 {
        self.estimate_at_most(t) * self.rows as f64
    }

    /// The bucket upper bounds, the rows represented and the minimum: what
    /// the incrementally maintained statistics fold their deltas over.
    pub(crate) fn parts(&self) -> (&[i64], u64, i64) {
        (&self.upper_bounds, self.rows, self.min)
    }
}

/// Write the values at the ascending absolute `ranks` of the sorted order
/// of `values` (whose first element has absolute rank `base`) into `out`,
/// by selecting the median rank and recursing into the partitions
/// `select_nth_unstable` leaves behind.
fn multiselect(values: &mut [i64], base: usize, ranks: &[usize], out: &mut [i64]) {
    if ranks.is_empty() {
        return;
    }
    let mid = ranks.len() / 2;
    let k = ranks[mid] - base;
    let (lo, v, hi) = values.select_nth_unstable(k);
    out[mid] = *v;
    multiselect(lo, base, &ranks[..mid], &mut out[..mid]);
    multiselect(hi, base + k + 1, &ranks[mid + 1..], &mut out[mid + 1..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibrator;
    use crate::dist::{Distribution, Permutation, Zipf};

    #[test]
    fn uniform_histogram_is_accurate() {
        let values: Vec<i64> = (0..10_000).collect();
        let h = EquiDepthHistogram::build(values, 64);
        for t in [0i64, 100, 2_500, 5_000, 9_999] {
            let est = h.estimate_at_most(t);
            let truth = (t + 1) as f64 / 10_000.0;
            assert!(
                (est - truth).abs() < 0.02,
                "t={t}: est {est:.4} vs truth {truth:.4}"
            );
        }
    }

    #[test]
    fn fewer_buckets_mean_larger_errors_on_skew() {
        let mut z = Zipf::new(1024, 1.2, 7);
        let values: Vec<i64> = (0..20_000).map(|i| z.value(i)).collect();
        let cal = Calibrator::new(values.clone());
        let err_of = |buckets: usize| {
            let h = EquiDepthHistogram::build(values.clone(), buckets);
            let mut worst = 0.0f64;
            for t in [0i64, 1, 4, 16, 64, 256, 1023] {
                let est = h.estimate_at_most(t);
                let truth = cal.selectivity(t);
                worst = worst.max((est - truth).abs());
            }
            worst
        };
        let coarse = err_of(4);
        let fine = err_of(256);
        assert!(
            fine <= coarse,
            "finer histogram should not be worse: fine {fine:.4} vs coarse {coarse:.4}"
        );
        assert!(fine < 0.05, "fine histogram error {fine:.4}");
    }

    #[test]
    fn permutation_histogram_tracks_the_calibrator() {
        let n = 1u64 << 14;
        let p = Permutation::new(n, 3);
        let values: Vec<i64> = (0..n).map(|i| p.apply(i) as i64).collect();
        let cal = Calibrator::new(values.clone());
        let h = EquiDepthHistogram::build(values, 128);
        for sel in [0.001, 0.01, 0.25, 0.9] {
            let t = cal.threshold(sel);
            let est = h.estimate_at_most(t);
            assert!((est - sel).abs() < 0.02, "sel {sel}: est {est:.4}");
        }
    }

    #[test]
    fn sampled_histogram_represents_full_rows() {
        let values: Vec<i64> = (0..10_000).collect();
        let h = EquiDepthHistogram::build_sampled(&values, 16, 100);
        assert_eq!(h.rows(), 10_000);
        let est = h.estimate_rows_at_most(5_000);
        assert!((est - 5_000.0).abs() < 1_000.0, "rows estimate {est}");
    }

    #[test]
    fn boundaries_and_edges() {
        let h = EquiDepthHistogram::build(vec![10, 20, 30, 40], 2);
        assert_eq!(h.estimate_at_most(9), 0.0);
        assert_eq!(h.estimate_at_most(40), 1.0);
        assert_eq!(h.estimate_at_most(1000), 1.0);
        let mid = h.estimate_at_most(20);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn selection_build_matches_the_full_sort_build() {
        // The selection-based build must reproduce the sort-based build
        // exactly — same boundaries, same estimates — for duplicates,
        // negatives, skew, and bucket counts beyond the value count.
        let mut z = Zipf::new(512, 1.1, 13);
        let cases: Vec<Vec<i64>> = vec![
            (0..10_000).collect(),
            (0..10_000).rev().collect(),
            vec![7; 1000],
            vec![-5, 3, -5, 3, 0, 100, -200],
            (0..30_000).map(|i| z.value(i)).collect(),
        ];
        for values in cases {
            for buckets in [1usize, 3, 7, 64, 1000] {
                let h = EquiDepthHistogram::build(values.clone(), buckets);
                // The sort-based reference, computed the pre-selection way.
                let mut sorted = values.clone();
                sorted.sort_unstable();
                let n = sorted.len();
                let per_bucket = n.div_ceil(buckets).max(1);
                let mut reference = Vec::new();
                let mut i = per_bucket;
                while i < n {
                    reference.push(sorted[i - 1]);
                    i += per_bucket;
                }
                reference.push(sorted[n - 1]);
                assert_eq!(h.upper_bounds, reference, "{buckets} buckets");
                assert_eq!(h.min, sorted[0]);
                assert_eq!(h.rows, n as u64);
                for &t in &[sorted[0] - 1, sorted[0], sorted[n / 2], sorted[n - 1], i64::MAX] {
                    let exact = sorted.partition_point(|&v| v <= t) as f64 / n as f64;
                    let est = h.estimate_at_most(t);
                    assert!(
                        (est - exact).abs() <= 1.5 / buckets.min(n) as f64 + 1e-12,
                        "{buckets} buckets, t={t}: est {est:.4} vs exact {exact:.4}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_single_value_columns() {
        let h = EquiDepthHistogram::build(vec![], 8);
        assert_eq!(h.estimate_at_most(5), 0.0);
        let h = EquiDepthHistogram::build(vec![7; 100], 8);
        assert_eq!(h.estimate_at_most(6), 0.0);
        assert_eq!(h.estimate_at_most(7), 1.0);
    }
}
