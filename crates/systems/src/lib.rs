//! # robustmap-systems
//!
//! The three database systems of Graefe, Kuno & Wiener (CIDR 2009),
//! reconstructed as plan repertoires over one executor.
//!
//! The paper measures "three real systems" it anonymises as the first
//! system (Figures 1-7), System B (Figure 8) and System C (Figure 9).  The
//! observations are entirely about which *execution techniques* each system
//! offers, so the faithful substitution is three catalogs of physical plans
//! over our common substrate:
//!
//! * **System A** — single-column non-clustered indexes only.  Seven plans
//!   for the two-predicate selection: a table scan, two single-index
//!   improved-fetch plans, and four two-index intersections ({merge, hash}
//!   × {join orders}).  This is the "best of seven plans" baseline of
//!   Figure 7, and the system behind Figures 1, 2, 4 and 5.
//! * **System B** — has two-column indexes, but multi-version concurrency
//!   control is applied "only to rows in the main table", so *every* plan
//!   must fetch full rows; covering index plans are impossible.  Its
//!   signature technique is the bitmap-sorted fetch of Figure 8.
//! * **System C** — two-column indexes fully exploited with MDAM
//!   ("multi-dimensional B-tree access", \[LJBY95\]): covering, skip-scanning
//!   plans that stay "reasonable across the entire parameter space"
//!   (Figure 9).
//!
//! Plan factories are parameterised by the predicate constants, so the map
//! builder in `robustmap-core` can sweep selectivities without this crate
//! knowing anything about grids.
//!
//! Plan *choice* lives behind the [`choice`] module's Estimator /
//! ChoicePolicy split: estimators say what the catalog believes
//! (exact, error-injected, histogram, joint statistics), policies say how
//! to pick under those beliefs (point argmin or penalty-aware robust
//! hedging), and a [`Chooser`] binds a catalog to both.
//!
//! Run-time adaptivity lives in [`adaptive`]: a [`SwitchPolicy`] decides
//! when an observed cardinality discredits the compile-time choice, and a
//! [`BailController`] re-costs the remaining pipeline against the
//! choice-free fallback before telling the executor's adaptive layer to
//! switch mid-flight.
//!
//! Multi-query contention is governed by [`admission`]: an
//! [`AdmissionPolicy`] decides run / shrink-grant / queue for each arriving
//! query, and [`apply_grant`] clamps plan operators to a shrunk grant so
//! that contention — not just data volume — can push a plan over the
//! paper's spill cliffs.

pub mod adaptive;
pub mod admission;
pub mod choice;
pub mod optimizer;
pub mod robust;
pub mod single_pred;
pub mod system;
pub mod two_pred;

pub use admission::{apply_grant, AdmissionConfig, AdmissionDecision, AdmissionPolicy};
pub use adaptive::{
    two_pred_bail_controller, BailController, SwitchPolicy, CARDINALITY_NOISE_ROWS,
    DEFAULT_BAND_FACTOR,
};
pub use choice::{Choice, ChoicePolicy, Chooser, Estimator, Maintained};
pub use optimizer::{estimate_cost, estimate_fetch, CatalogStats, SelEstimates};
pub use robust::{credible_region, RobustConfig, SelHypothesis};
pub use single_pred::{single_predicate_plans, SinglePredPlan, SinglePredPlanSet};
pub use system::SystemId;
pub use two_pred::{two_predicate_plans, TwoPredPlan};
