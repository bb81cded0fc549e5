//! # robustmap
//!
//! A from-scratch reproduction of Graefe, Kuno & Wiener, *Visualizing the
//! robustness of query execution* (CIDR 2009), as a Rust workspace:
//! robustness maps for database query execution, together with the storage
//! engine, executor, workloads and simulated "systems" the maps measure.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`storage`] — column pages, heap files, B+-trees, the dense rid set,
//!   buffer pool, and the deterministic cost model that stands in for hardware;
//! * [`executor`] — physical plans and operators: scans, the three fetch
//!   disciplines of Figure 1, MDAM, index intersection, external sort and
//!   hash aggregation with graceful/abrupt spill modes;
//! * [`workload`] — lineitem-like data generation with exactly calibrated
//!   selectivities;
//! * [`systems`] — the paper's Systems A, B and C as plan repertoires;
//! * [`core`] — the paper's contribution: parameter sweeps, robustness
//!   maps, relative/optimality analysis, color scales and renderers;
//! * [`obs`] — charge-free observability: execution tracing on two
//!   clocks (simulated + real), Chrome trace export, metrics, leveled
//!   logging.
//!
//! ## Quickstart
//!
//! ```
//! use robustmap::core::{build_map1d, Grid1D, MeasureConfig};
//! use robustmap::systems::{single_predicate_plans, SinglePredPlanSet};
//! use robustmap::workload::{TableBuilder, WorkloadConfig};
//!
//! // A small workload (tests use 2^12 rows; figures use 2^20).
//! let w = TableBuilder::build(WorkloadConfig::small());
//! // Figure 1's three plans, swept over selectivities 2^-8 ..= 1.
//! let plans = single_predicate_plans(SinglePredPlanSet::Basic, &w);
//! let map = build_map1d(&w, &plans, &Grid1D::pow2(8), &MeasureConfig::default());
//! // The table scan is flat; the traditional index scan is not.
//! let scan = map.series_named("table scan").unwrap().seconds();
//! assert!(scan.last().unwrap() / scan.first().unwrap() < 1.5);
//! ```

pub use robustmap_core as core;
pub use robustmap_executor as executor;
pub use robustmap_obs as obs;
pub use robustmap_storage as storage;
pub use robustmap_systems as systems;
pub use robustmap_workload as workload;
