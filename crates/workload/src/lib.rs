//! # robustmap-workload
//!
//! Synthetic workload generation for the robustness-map reproduction of
//! Graefe, Kuno & Wiener (CIDR 2009).
//!
//! The paper measures selections over TPC-H lineitem (~60M rows) while
//! sweeping predicate selectivities in factor-of-two steps from `2^-16` to
//! `1`.  We cannot ship TPC-H data, so this crate generates a
//! lineitem-like table whose predicate columns have *exactly controllable*
//! selectivities:
//!
//! * [`dist::Permutation`] columns hold a pseudo-random permutation of
//!   `0..n`, so `col <= t` matches exactly `t + 1` rows — the sweep hits
//!   every target selectivity precisely and deterministically;
//! * [`dist::Zipf`] and [`dist::Correlated`] columns support the skew and
//!   correlation experiments the paper lists as robustness factors (§3);
//! * [`calib::Calibrator`] maps any target selectivity to a predicate
//!   constant for *any* distribution by consulting the generated data —
//!   what the paper does by choosing predicate constants against TPC-H.
//!
//! [`TableBuilder`] assembles the database: the heap, the five indexes the
//! paper's thirteen plans need (`a`, `b`, `c`, `(a,b)`, `(b,a)`), and the
//! calibrators.
//!
//! [`stats::JointHistogram`] adds the multi-column catalog statistics a
//! correlation-aware optimizer estimates from — a sample-backed 2-D
//! equi-depth histogram over `(a, b)`.

pub mod cache;
pub mod calib;
pub mod churn;
pub mod dist;
pub mod gen;
pub mod histogram;
pub mod stats;
pub mod stats_maint;

pub use calib::Calibrator;
pub use churn::{AppliedBatch, ChurnConfig, ChurnDriver, ChurnOp, ChurnPlan};
pub use histogram::EquiDepthHistogram;
pub use dist::{Correlated, Distribution, Permutation, Uniform, Zipf};
pub use gen::{
    TableBuilder, Workload, WorkloadConfig, COL_A, COL_B, COL_C, COL_ORDERKEY, COL_PAYLOAD,
};
pub use stats::{JointHistogram, JointHistogramConfig};
pub use stats_maint::{MaintainedJoint, Staleness};
