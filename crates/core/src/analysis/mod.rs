//! The paper's analysis vocabulary for reading robustness maps.
//!
//! §3.1: "One of the first things to verify in such a diagram is that the
//! actual execution cost is monotonic across the parameter space. ...
//! Moreover, the cost curve should flatten, i.e., its first derivative
//! should monotonically decrease."  §4 adds discontinuity detection (sort
//! spills), §3.2 symmetry (merge join vs. hash join), and Figure 1's
//! break-even landmarks.  §4 sketches a benchmark that "will identify
//! weaknesses in the algorithms ... track progress ... and permit daily
//! regression testing"; [`score`] is that benchmark.

pub mod changepoint;
pub mod flattening;
pub mod landmarks;
pub mod monotonicity;
pub mod score;
pub mod symmetry;

pub use changepoint::{
    detect_changepoints, ChangeClass, Changepoint, ChangepointAnalysis, ChangepointConfig,
};
pub use flattening::{flattening_violations, flattening_violations_log2, FlatteningViolation};
pub use landmarks::{crossovers, Crossover};
pub use monotonicity::{monotonicity_violations, MonotonicityViolation};
pub use score::{score_map2d, RobustnessScore};
pub use symmetry::{symmetry_of, Symmetry};
