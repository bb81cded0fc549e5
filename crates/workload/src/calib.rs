//! Selectivity calibration: mapping target selectivities to predicate
//! constants.
//!
//! The paper's sweeps are phrased in selectivities ("query result sizes
//! differ by a factor of 2 between data points"); the plans need concrete
//! predicate constants.  A [`Calibrator`] is built from the actual column
//! values and answers both directions exactly:
//! `threshold(s)` gives the largest constant `t` with
//! `count(col <= t) <= s * n`, and `count_at_most(t)` / `selectivity(t)`
//! report the true result size for any constant.

/// Exact selectivity <-> constant mapping for one column.
#[derive(Debug, Clone)]
pub struct Calibrator {
    sorted: Vec<i64>,
    /// [`Calibrator::rows_per_value`], summed once when the column sorts.
    rows_per_value: f64,
}

impl Calibrator {
    /// Build from the column's values (any order).
    pub fn new(mut values: Vec<i64>) -> Self {
        values.sort_unstable();
        Self::from_ascending(values)
    }

    /// Build from the column's values in ascending order, as a sort that
    /// already ran hands them over: [`Calibrator::new`] without its sort.
    pub(crate) fn from_ascending(values: Vec<i64>) -> Self {
        debug_assert!(values.is_sorted(), "Calibrator::from_ascending takes ascending values");
        // A row adds 2k + 1, k the rows before it in its run, so a run of c
        // adds c².  Summed in integers: below 2^53 every partial sum of
        // squares is exact in a float too, so this is the float sum of the
        // runs' squares in their order, to the bit.
        let (mut k, mut squares) = (0u64, values.len().min(1) as u64);
        for pair in values.windows(2) {
            k = if pair[0] == pair[1] { k + 1 } else { 0 };
            squares += 2 * k + 1;
        }
        let rows_per_value = squares as f64 / values.len().max(1) as f64;
        Calibrator { sorted: values, rows_per_value }
    }

    /// Number of rows.
    pub fn len(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// How many rows share a row's value, averaged over rows: `Σ count² /
    /// rows` over the distinct values — 1 for a column without repeats, and
    /// under skew the size of the runs a row most likely sits in, not the
    /// mean run.
    pub fn rows_per_value(&self) -> f64 {
        self.rows_per_value
    }

    /// Exact number of rows with `value <= t`.
    pub fn count_at_most(&self, t: i64) -> u64 {
        self.sorted.partition_point(|&v| v <= t) as u64
    }

    /// Exact selectivity of `value <= t`.
    pub fn selectivity(&self, t: i64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.count_at_most(t) as f64 / self.sorted.len() as f64
    }

    /// The predicate constant whose result size best matches `sel * n`
    /// rows: the value at the target rank (so for a permutation column the
    /// match is exact).  `sel` is clamped to `[0, 1]`.
    ///
    /// Returns `i64::MIN` for a target of zero rows (an empty result).
    pub fn threshold(&self, sel: f64) -> i64 {
        let n = self.sorted.len();
        if n == 0 {
            return i64::MIN;
        }
        let target = (sel.clamp(0.0, 1.0) * n as f64).round() as usize;
        if target == 0 {
            return i64::MIN;
        }
        self.sorted[target.min(n) - 1]
    }

    /// Convenience: constant and exact row count for a target selectivity.
    pub fn threshold_with_count(&self, sel: f64) -> (i64, u64) {
        let t = self.threshold(sel);
        (t, self.count_at_most(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Permutation, Zipf};

    #[test]
    fn permutation_calibration_is_exact() {
        let n = 4096u64;
        let mut p = Permutation::new(n, 11);
        let values: Vec<i64> = (0..n).map(|i| p.value(i)).collect();
        let cal = Calibrator::new(values);
        for exp in 0..=12 {
            let sel = 1.0 / (1u64 << exp) as f64;
            let (t, count) = cal.threshold_with_count(sel);
            assert_eq!(count, (n as f64 * sel).round() as u64, "sel 2^-{exp}");
            assert_eq!(t, count as i64 - 1); // permutation of 0..n
        }
    }

    #[test]
    fn zero_selectivity_yields_empty_result() {
        let cal = Calibrator::new((0..100).collect());
        let (t, count) = cal.threshold_with_count(0.0);
        assert_eq!(count, 0);
        assert_eq!(t, i64::MIN);
    }

    #[test]
    fn full_selectivity_covers_everything() {
        let cal = Calibrator::new((0..100).rev().collect());
        let (t, count) = cal.threshold_with_count(1.0);
        assert_eq!(count, 100);
        assert_eq!(t, 99);
    }

    #[test]
    fn skewed_columns_calibrate_to_true_counts() {
        let mut z = Zipf::new(256, 1.1, 3);
        let values: Vec<i64> = (0..20_000).map(|i| z.value(i)).collect();
        let cal = Calibrator::new(values.clone());
        for sel in [0.01, 0.1, 0.5, 0.9] {
            let (t, count) = cal.threshold_with_count(sel);
            let truth = values.iter().filter(|&&v| v <= t).count() as u64;
            assert_eq!(count, truth, "sel {sel}");
            // With heavy duplication the achieved selectivity can overshoot
            // (all duplicates of the boundary value are included), but it
            // must never undershoot the target.
            assert!(count as f64 >= sel * 20_000.0 - 1.0, "sel {sel} count {count}");
        }
    }

    #[test]
    fn counts_with_duplicates() {
        let cal = Calibrator::new(vec![5, 5, 5, 1, 1, 9]);
        assert_eq!(cal.count_at_most(0), 0);
        assert_eq!(cal.count_at_most(1), 2);
        assert_eq!(cal.count_at_most(5), 5);
        assert_eq!(cal.count_at_most(9), 6);
        assert!((cal.selectivity(5) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rows_per_value_weighs_runs_by_their_rows() {
        assert_eq!(Calibrator::new((0..100).rev().collect()).rows_per_value(), 1.0);
        // Runs of 3, 2 and 1: a row sits in a run of (3·3 + 2·2 + 1) / 6.
        let cal = Calibrator::new(vec![5, 5, 5, 1, 1, 9]);
        assert!((cal.rows_per_value() - 14.0 / 6.0).abs() < 1e-12);
        assert_eq!(Calibrator::new(vec![]).rows_per_value(), 0.0);
        // Under skew, the float sum over the runs in their order, to the bit.
        let mut z = Zipf::new(256, 1.1, 3);
        let mut values: Vec<i64> = (0..20_000).map(|i| z.value(i)).collect();
        let cal = Calibrator::new(values.clone());
        values.sort_unstable();
        let runs = values.chunk_by(|a, b| a == b);
        let squares: f64 = runs.map(|run| (run.len() as f64).powi(2)).sum();
        assert_eq!(cal.rows_per_value().to_bits(), (squares / 20_000.0).to_bits());
    }

    #[test]
    fn empty_calibrator_is_sane() {
        let cal = Calibrator::new(vec![]);
        assert!(cal.is_empty());
        assert_eq!(cal.threshold(0.5), i64::MIN);
        assert_eq!(cal.count_at_most(10), 0);
        assert_eq!(cal.selectivity(10), 0.0);
    }
}
