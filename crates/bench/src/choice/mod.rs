//! Plan-choice extension experiments: what a compile-time choice costs
//! when run-time conditions move out from under its estimates, and the
//! three fixes — better statistics, a robust policy, run-time switching.
//! All five are built from the shared [`crate::lab`]: [`compile_time`]
//! holds the three that judge the choice the optimizer makes up front,
//! [`run_time`] the two where the executor or the data moves afterwards.
//!
//! * `ext_optimizer` — plan choice under cardinality estimation error.
//! * `ext_correlated` — correlated predicate columns vs the optimizer's
//!   independence assumption (rho × selectivity robustness maps).
//! * `ext_robust_choice` — the fix: joint statistics + the penalty-aware
//!   robust chooser vs the point-estimate optimizer vs the oracle.
//! * `ext_adaptive` — the run-time fix: mid-flight plan switching from
//!   observed cardinalities, with no joint statistics at compile time.
//! * `ext_churn` — data churn + incremental statistics maintenance:
//!   frozen vs maintained vs fresh statistics over a mutating table.

use crate::harness::Harness;

pub mod compile_time;
pub mod run_time;

pub use compile_time::{ext_correlated, ext_optimizer, ext_robust_choice};
pub use run_time::{ext_adaptive, ext_churn};

/// Rows of the correlated/Zipf side tables: a family of extra tables,
/// kept moderate.
pub(super) fn family_rows(h: &Harness) -> u64 {
    h.w.rows().min(1 << 17)
}

/// The selectivity diagonal the rho sweeps share: `2^-e` up to 1.
pub(super) fn diagonal_sels(h: &Harness) -> Vec<f64> {
    let max_exp = h.config.grid_exp.min(10) as i32;
    (0..=max_exp).rev().map(|e| 0.5f64.powi(e)).collect()
}

/// The correlation levels of the rho sweeps, in hundredths.
pub(super) const RHO_PCT: [u32; 5] = [0, 25, 50, 75, 100];
