//! # robustmap-core
//!
//! **Robustness maps** for database query execution — the primary
//! contribution of Graefe, Kuno & Wiener, *Visualizing the robustness of
//! query execution* (CIDR 2009), as a reusable library.
//!
//! A robustness map measures a *fixed* query execution plan at every point
//! of a parameter space (predicate selectivities, memory, input sizes) and
//! turns the measurements into diagrams and analyses:
//!
//! * [`param`] — log-scale parameter grids ("result sizes differ by a
//!   factor of 2 between data points");
//! * [`measure`] — the map builder: sweeps plan × grid against the
//!   workload, one isolated session per cell, in parallel and
//!   deterministically;
//! * [`map`] — 1-D series maps (Figures 1-2) and 2-D grid maps (Figures
//!   4-9);
//! * [`relative`] — performance relative to the best plan at each point
//!   (Figures 2, 7, 8, 9);
//! * [`regions`] — regions of optimality, their size, shape and
//!   contiguity, and multi-optimal counting (Figure 10, §3.4);
//! * [`analysis`] — the paper's reading vocabulary: monotonicity checks,
//!   cost-curve flattening, changepoint detection (cost cliffs vs knees),
//!   symmetry (Figure 5), break-even landmarks (Figure 1), and the
//!   robustness scores sketched as a benchmark in §4;
//! * [`render`] — the order-of-magnitude color scales of Figures 3 and 6,
//!   ANSI terminal heat maps, SVG heat maps and log-log line plots, CSV;
//! * [`report`] — plain-text tables that print the same series the paper's
//!   figures show;
//! * [`serve`] — deterministic concurrent serving: bursts of queries over
//!   one shared buffer pool, interleaved round-robin at charge-event
//!   quanta, making contention a sweepable run-time condition.

pub mod analysis;
pub mod map;
pub mod measure;
pub mod param;
pub mod regions;
pub mod regression;
pub mod relative;
pub mod render;
pub mod report;
pub mod serve;

pub use map::{Map1D, Map2D, Series};
pub use measure::{
    build_map1d, build_map2d, measure_batch, measure_plan, MeasureConfig, Measurement, RealCell,
    RealClock, SweepArena,
};
pub use param::{Grid1D, Grid2D};
pub use regions::{connected_components, BoolGrid, Region, RegionStats};
pub use regression::{CheckResult, RegressionSuite};
pub use relative::{OptimalityTolerance, RelativeMap2D};
pub use serve::{serve_concurrent, QueryError, QueryOutcome, ServeConfig, ServeReport};
