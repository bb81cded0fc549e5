//! Order statistics for the benchmark's own timing samples.

/// The samples in ascending order (NaNs would be a bug upstream: timings
/// and counts are always finite).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
/// Panics on an empty slice: every reported metric has at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so spreads
/// computed here agree with the ones the acceptance pipeline computes.
///
/// # Panics
/// Panics with fewer than two samples, like the Python function.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let v = sorted(samples);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        out[slot] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// regression bounds are compared against.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    (q3 - q1) / q2
}

/// What a sequence of steps typically costs, from several repetitions of
/// the whole sequence (`reps[r][s]` is step `s` of repetition `r`): per
/// step the median over the repetitions, summed over the steps.  A
/// disturbance that hits one step of one repetition then costs that step
/// one sample, where it would move the whole repetition's total.  Steps
/// missing from a repetition (a pass cut short by a panic) are skipped;
/// the first repetition says how many steps there are.
pub fn typical_total(reps: &[Vec<f64>]) -> f64 {
    let steps = reps.first().map_or(0, Vec::len);
    (0..steps)
        .map(|s| {
            median(
                &reps
                    .iter()
                    .filter_map(|r| r.get(s).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// The tail percentiles a report may quote, in ascending order.
const TAIL_PERCENTILES: [(&str, f64); 4] = [
    ("p90", 0.90),
    ("p99", 0.99),
    ("p99.9", 0.999),
    ("p99.99", 0.9999),
];

/// The highest percentile with at least ten samples beyond it, as
/// `(label, value)`, or `None` when even p90 is not supported (fewer than
/// 100 samples): a tail quoted from fewer than ten samples is noise.
pub fn highest_supported_percentile(samples: &[f64]) -> Option<(&'static str, f64)> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|(_, p)| {
            let rank = (p * n as f64).ceil() as usize;
            n >= rank + 10
        })
        .map(|&(label, p)| {
            let rank = ((p * n as f64).ceil() as usize).max(1);
            (label, v[rank - 1])
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn typical_total_takes_each_step_from_its_own_median() {
        // Two steps, five repetitions; three repetitions are disturbed,
        // each in one step, so the median of the totals (6) is off while
        // every step's median is not.
        let reps = vec![
            vec![1.0, 9.0],
            vec![5.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, 8.0],
            vec![1.0, 2.0],
        ];
        assert_eq!(typical_total(&reps), 3.0);
        // A repetition cut short lends the steps it has.
        assert_eq!(typical_total(&[vec![1.0, 2.0], vec![3.0]]), 4.0);
        assert_eq!(typical_total(&[]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 99 samples: p90 would leave only 9 beyond it.
        assert_eq!(highest_supported_percentile(&ramp(99)), None);
        // 100 samples: exactly ten beyond p90.
        assert_eq!(
            highest_supported_percentile(&ramp(100)),
            Some(("p90", 90.0))
        );
        // 999 samples: p99 would leave 9; 1000 leaves exactly ten.
        assert_eq!(highest_supported_percentile(&ramp(999)).unwrap().0, "p90");
        assert_eq!(
            highest_supported_percentile(&ramp(1000)),
            Some(("p99", 990.0))
        );
        // The sample counts the benchmark itself produces.
        assert_eq!(highest_supported_percentile(&ramp(1215)).unwrap().0, "p99");
        assert_eq!(
            highest_supported_percentile(&ramp(10_000)).unwrap().0,
            "p99.9"
        );
    }
}
