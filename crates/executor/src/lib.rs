//! # robustmap-executor
//!
//! Query execution substrate for the robustness-map reproduction of Graefe,
//! Kuno & Wiener, *Visualizing the robustness of query execution* (CIDR
//! 2009).
//!
//! The paper fixes query execution plans with hints and measures how each
//! plan behaves across run-time conditions.  This crate implements those
//! plans as real physical operators over [`robustmap_storage`]:
//!
//! * [`ops::table_scan`] — full scan of the main storage structure,
//! * [`ops::index_scan`] — B+-tree range scans (rid-producing and covering),
//! * [`ops::fetch`] — the three row-fetch disciplines the paper contrasts:
//!   **traditional** (one random I/O per row, Figure 1's "traditional index
//!   scan"), **improved** (rid sort + in-order fetch with a read-ahead mode
//!   switch, Figure 1's "improved index scan"), and **bitmap-sorted**
//!   (System B's fetch in Figure 8),
//! * [`ops::mdam`] — multi-dimensional B-tree access (\[LJBY95\], Figure 9),
//! * [`ops::rid_join`] — index intersection by rid merge join or rid hash
//!   join (Figures 5 and 7) and covering rid-to-rid joins (Figure 2),
//! * [`ops::sort`] — external merge sort with *graceful* and *abrupt* spill
//!   modes (the §4 robustness prediction),
//! * [`ops::agg`] — hash aggregation with optional grace spill,
//! * [`ops::join`] — general sort-merge and hybrid hash equi-joins
//!   (\[GLS94\]'s contrast, the paper's §4 future work),
//! * [`ops::parallel_scan`] — parallel table scans with a skew knob
//!   (critical-path timing, summed work).
//!
//! Plans are described by [`plan::PlanSpec`] trees and executed by the one
//! interpreter, [`exec::run`] (with [`exec::run_collect`] as a sink
//! adapter), which pushes columnar [`batch::RowBatch`] chunks of
//! [`batch::BATCH_ROWS`] rows into a caller-provided sink and charges all
//! work to a [`robustmap_storage::Session`] — or, through
//! [`exec::run_count`], counts the rows without building them, for the
//! same charges.
//!
//! With a controller, the cardinality checkpoints of [`ops::adaptive`] are
//! armed: at each one the exact observed row count is reported to a
//! [`ops::adaptive::SwitchController`], which may bail to a replacement
//! plan mid-flight.  A controller that never bails is bit-identical to
//! running without one (`tests/adaptive_equivalence.rs`).

pub mod batch;
pub mod exec;
pub mod expr;
pub mod ops;
pub mod plan;

pub use batch::{BatchEmitter, RowBatch};
pub use exec::{run, run_collect, run_count, ExecCtx, ExecError, ExecStats, OpStats};
pub use expr::{ColRange, Predicate};
pub use ops::adaptive::{Observation, SwitchController, SwitchEvent};
pub use plan::{
    AggFn, CheckpointKind, FetchKind, ImprovedFetchConfig, IndexRangeSpec, IntersectAlgo, JoinAlgo,
    KeyRange, PlanSpec, Projection, SpillMode,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, exec::ExecError>;
