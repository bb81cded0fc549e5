//! Property-based tests for the joint (multi-column) statistics: the
//! invariants the robust chooser leans on, for *any* data — estimates are
//! probabilities, marginals agree with the 1-D catalog within bucket
//! resolution, and builds are pure functions of `(seed, workload)`.

use proptest::prelude::*;
use robustmap_workload::gen::PredicateDistribution;
use robustmap_workload::{
    EquiDepthHistogram, JointHistogram, JointHistogramConfig, TableBuilder, WorkloadConfig,
};

/// Pair generator: `b` copies `a` with probability `rho_pct`% (hashed by
/// index, deterministic), else takes an independent value — the data shape
/// the joint histogram exists to capture.
fn pairs(n: usize, rho_pct: u64, seed: u64) -> Vec<(i64, i64)> {
    let mix = |i: u64, salt: u64| {
        let mut z = seed
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    };
    (0..n as u64)
        .map(|i| {
            let a = (mix(i, 1) % (n as u64)) as i64;
            let b = if mix(i, 2) % 100 < rho_pct { a } else { (mix(i, 3) % (n as u64)) as i64 };
            (a, b)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Joint estimates are probabilities ([0, 1]), monotone in both
    /// thresholds, and coherent with the marginals (never above either).
    #[test]
    fn joint_estimates_are_coherent_probabilities(
        n in 64usize..4000,
        rho_pct in 0u64..=100,
        seed in any::<u64>(),
        a_buckets in 1usize..40,
        b_buckets in 1usize..12,
    ) {
        let data = pairs(n, rho_pct, seed);
        let cfg = JointHistogramConfig { a_buckets, b_buckets, ..Default::default() };
        let h = JointHistogram::build(data, n as u64, cfg);
        let probes: Vec<i64> = vec![i64::MIN, -1, 0, n as i64 / 7, n as i64 / 2, n as i64, i64::MAX];
        let mut last_diag = 0.0f64;
        for &ta in &probes {
            for &tb in &probes {
                let j = h.estimate_joint_at_most(ta, tb);
                prop_assert!((0.0..=1.0).contains(&j), "joint {j} at ({ta}, {tb})");
                // Coherence: the conjunction never exceeds either marginal
                // by more than interpolation resolution.
                let tol = 1.5 / a_buckets as f64 + 1.5 / b_buckets as f64;
                prop_assert!(j <= h.marginal_a().estimate_at_most(ta) + tol);
                prop_assert!(j <= h.marginal_b().estimate_at_most(tb) + tol);
            }
            // Monotone along the diagonal (probes ascend).
            let d = h.estimate_joint_at_most(ta, ta);
            prop_assert!(d >= last_diag - 1e-12, "diagonal dipped at {ta}");
            last_diag = d;
        }
        // Full-range estimate: 1 up to float accumulation over the buckets.
        let full = h.estimate_joint_at_most(i64::MAX, i64::MAX);
        prop_assert!(full > 1.0 - 1e-9, "full-range joint {full}");
        prop_assert_eq!(h.estimate_joint_at_most(i64::MIN, i64::MAX), 0.0);
    }

    /// The observed sampling variance of a marginal estimate is a bounded
    /// binomial variance: finite, non-negative, at most `0.25 / (m - 1)`,
    /// and exactly zero where the estimate is degenerate (0 or 1).
    #[test]
    fn sel_variance_is_a_bounded_binomial_variance(
        n in 64usize..3000,
        rho_pct in 0u64..=100,
        seed in any::<u64>(),
    ) {
        let data = pairs(n, rho_pct, seed);
        let m = data.len() as u64;
        let h = JointHistogram::build(data, n as u64, JointHistogramConfig::default());
        let cap = 0.25 / (m - 1) as f64;
        for &t in &[i64::MIN, -1, 0, n as i64 / 7, n as i64 / 2, n as i64, i64::MAX] {
            for v in [h.sel_variance_a(t), h.sel_variance_b(t)] {
                prop_assert!(v.is_finite() && v >= 0.0, "variance {v} at {t}");
                prop_assert!(v <= cap + 1e-15, "variance {v} above the p=1/2 cap {cap}");
            }
        }
        prop_assert_eq!(h.sel_variance_a(i64::MIN), 0.0);
        prop_assert_eq!(h.sel_variance_b(i64::MAX), 0.0);
    }

    /// The joint histogram's marginals agree with directly built 1-D
    /// equi-depth histograms over the same sample, within bucket
    /// resolution.
    #[test]
    fn marginals_agree_with_the_1d_histograms(
        n in 64usize..3000,
        rho_pct in 0u64..=100,
        seed in any::<u64>(),
    ) {
        let data = pairs(n, rho_pct, seed);
        let cfg = JointHistogramConfig::default();
        let h = JointHistogram::build(data.clone(), n as u64, cfg);
        let ref_a = EquiDepthHistogram::build(data.iter().map(|p| p.0).collect(), cfg.a_buckets);
        let ref_b = EquiDepthHistogram::build(data.iter().map(|p| p.1).collect(), cfg.a_buckets);
        // The marginal histograms are the same construction: identical.
        prop_assert_eq!(h.marginal_a(), &ref_a);
        prop_assert_eq!(h.marginal_b(), &ref_b);
        // And the *joint* estimate with one side unconstrained reproduces
        // the other marginal within bucket resolution — here the operative
        // resolution is the conditional histograms' (each per-a-bucket
        // piece interpolates at 1/b_buckets), plus the a-partition's.
        let tol = 1.5 / cfg.b_buckets as f64 + 1.5 / cfg.a_buckets as f64;
        for &t in &[0i64, n as i64 / 5, n as i64 / 2, n as i64] {
            let via_joint = h.estimate_joint_at_most(i64::MAX, t);
            let direct = ref_b.estimate_at_most(t);
            prop_assert!(
                (via_joint - direct).abs() <= tol,
                "t={t}: joint-marginal {via_joint:.4} vs direct {direct:.4} (tol {tol:.4})"
            );
        }
    }

    /// Builds are deterministic for a fixed (seed, workload): the sample
    /// draw is a pure function of row index, never of iteration state.
    #[test]
    fn builds_are_deterministic_for_fixed_seed_and_workload(
        wl_seed in any::<u64>(),
        stats_seed in any::<u64>(),
        rho_idx in 0usize..3,
    ) {
        let rho = [0u32, 50, 100][rho_idx];
        let cfg = WorkloadConfig {
            rows: 1 << 10,
            seed: wl_seed,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(rho),
            mutation_epoch: 0,
        };
        let w = TableBuilder::build(cfg);
        let jcfg = JointHistogramConfig {
            sample_target: 1 << 8,
            seed: stats_seed,
            ..Default::default()
        };
        let h1 = JointHistogram::from_workload(&w, &jcfg);
        let h2 = JointHistogram::from_workload(&w, &jcfg);
        prop_assert_eq!(&h1, &h2);
        // A different statistics seed samples differently (not a proof of
        // good mixing, just that the seed is live) — estimates still agree
        // loosely, structures usually differ.
        let h3 = JointHistogram::from_workload(
            &w,
            &JointHistogramConfig { seed: stats_seed ^ 0xFFFF, ..jcfg },
        );
        prop_assert_eq!(h3.rows(), h1.rows());
    }
}
