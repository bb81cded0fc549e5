//! Physical plan specifications.
//!
//! The paper pins plans with optimizer hints ("we eliminate choices in query
//! optimization using hints on index usage, join order, join algorithm, and
//! memory allocation", §3).  [`PlanSpec`] is our hint mechanism: a fully
//! physical plan tree with every such choice explicit, so a robustness map
//! measures exactly the plan it names.

use robustmap_storage::{IndexId, Key, TableId};

use crate::expr::Predicate;

/// An inclusive key range over an index (already mapped from the predicate
/// by the plan builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower key bound.
    pub lo: Key,
    /// Inclusive upper key bound.
    pub hi: Key,
}

impl KeyRange {
    /// Range covering the whole index of the given key arity.
    pub fn full(arity: usize) -> Self {
        KeyRange { lo: Key::padded_lo(&[], arity), hi: Key::padded_hi(&[], arity) }
    }

    /// Range for `lead_lo <= leading column <= lead_hi` on an index of the
    /// given key arity (remaining columns unconstrained).
    pub fn on_leading(lead_lo: i64, lead_hi: i64, arity: usize) -> Self {
        KeyRange { lo: Key::padded_lo(&[lead_lo], arity), hi: Key::padded_hi(&[lead_hi], arity) }
    }
}

/// One index range scan used as a plan input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRangeSpec {
    /// The index to scan.
    pub index: IndexId,
    /// The key range to scan.
    pub range: KeyRange,
}

/// Configuration of the "improved index scan" fetch (Figure 1).
///
/// Qualifying rids are sorted into physical order, then pages are visited
/// front-to-back with a three-regime access model:
///
/// * gap to previous needed page `<= scan_gap`: the read-ahead window covers
///   the gap, so skipped pages are read too, all at sequential cost;
/// * gap `<= prefetch_gap`: a short forward seek — the needed page is read
///   at single-page cost;
/// * larger gaps: a full random read.
///
/// The regime boundaries are exactly the kind of implementation detail the
/// paper expects to show up as landmarks on robustness maps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprovedFetchConfig {
    /// Largest gap (in pages) bridged by sequential read-ahead.
    pub scan_gap: u32,
    /// Largest gap treated as a cheap forward seek.
    pub prefetch_gap: u32,
}

impl Default for ImprovedFetchConfig {
    fn default() -> Self {
        ImprovedFetchConfig { scan_gap: 4, prefetch_gap: 64 }
    }
}

/// How qualifying rows are fetched from the heap after an index produced
/// their rids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FetchKind {
    /// One random page read per row, in index-key order (the paper's
    /// "traditional index scan").
    Traditional,
    /// Rid sort + in-order fetch with read-ahead switching (the paper's
    /// "improved index scan").
    Improved(ImprovedFetchConfig),
    /// System B's discipline (Figure 8): rids are sorted "very efficiently
    /// using a bitmap", then fetched in physical order without the
    /// sequential read-ahead regime.
    BitmapSorted,
}

/// Algorithm used to combine two rid streams (index intersection or
/// covering rid join).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectAlgo {
    /// Sort both rid lists and merge — symmetric in its inputs (Figure 5).
    MergeJoin,
    /// Build a hash table on one side, probe with the other — asymmetric,
    /// as the paper (and \[GLS94\]) observes.
    HashJoin {
        /// Build on the left input if true, else on the right.
        build_left: bool,
    },
}

/// Algorithm for a general equi-join between two child plans (\[GLS94\]'s
/// sort-vs-hash contrast, which the paper builds on in §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// External-sort both inputs and merge — symmetric.
    SortMerge,
    /// Build a hash table on one side, probe with the other —
    /// asymmetric, with a build-side memory cliff.
    Hash {
        /// Build on the left input if true.
        build_left: bool,
    },
}

/// Spill discipline for memory-bounded operators (sort, aggregation).
///
/// The paper (§4) predicts that "some implementations of sorting spill
/// their entire input to disk if the input size exceeds the memory size by
/// merely a single record" — [`SpillMode::Abrupt`] models those, while
/// [`SpillMode::Graceful`] spills only the overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillMode {
    /// Spill the entire input once it no longer fits.
    Abrupt,
    /// Keep a memory-full of data resident; spill only the overflow.
    Graceful,
}

/// Aggregate functions for [`PlanSpec::HashAgg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(col)` (wrapping on overflow, as the workloads stay small).
    Sum(usize),
    /// `MIN(col)`.
    Min(usize),
    /// `MAX(col)`.
    Max(usize),
}

/// Output projection: positions into the operator's input row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// Pass the row through unchanged.
    All,
    /// Keep the listed positions, in order.
    Columns(Vec<usize>),
}

impl Projection {
    /// Apply to a row.
    #[inline]
    pub fn apply(&self, row: &robustmap_storage::Row) -> robustmap_storage::Row {
        match self {
            Projection::All => *row,
            Projection::Columns(cols) => row.project(cols),
        }
    }

    /// Resolve into explicit source positions for an input of `arity`
    /// columns (the batch executor gathers columns by position).
    pub fn resolve(&self, arity: usize) -> Vec<usize> {
        match self {
            Projection::All => (0..arity).collect(),
            Projection::Columns(cols) => cols.clone(),
        }
    }
}

/// A physical plan.  Every execution choice the paper hints (index usage,
/// join order, join algorithm, fetch discipline, spill mode) is explicit.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanSpec {
    /// Full scan of the table's main storage structure, filtering and
    /// projecting (in table-column space).
    TableScan {
        /// The table to scan.
        table: TableId,
        /// Filter over table columns.
        pred: Predicate,
        /// Projection over table columns.
        project: Projection,
    },
    /// Index range scan followed by a row fetch: the index yields rids in
    /// key order, rows are fetched per `fetch`, then `residual` (over table
    /// columns) filters and `project` (over table columns) shapes output.
    ///
    /// `key_filter` (in key-column space) is applied to index entries
    /// *before* fetching — System B's Figure 8 plan scans a two-column
    /// index, filters the second predicate in the index, and only fetches
    /// rows that satisfy both.
    IndexFetch {
        /// The rid-producing index scan.
        scan: IndexRangeSpec,
        /// Filter over index key columns, applied before the fetch.
        key_filter: Predicate,
        /// Fetch discipline.
        fetch: FetchKind,
        /// Residual predicate over fetched table rows.
        residual: Predicate,
        /// Projection over table columns.
        project: Projection,
    },
    /// Index-only (covering) range scan: no fetch; `residual` and `project`
    /// are in *key-column space* (position i = i-th index key column).
    CoveringIndexScan {
        /// The index scan.
        scan: IndexRangeSpec,
        /// Residual over key columns.
        residual: Predicate,
        /// Projection over key columns.
        project: Projection,
    },
    /// Multi-dimensional B-tree access over a composite index (\[LJBY95\]):
    /// per-key-column inclusive ranges, covering output in key-column space.
    Mdam {
        /// The composite index.
        index: IndexId,
        /// Inclusive `(lo, hi)` range for each key column, in key order.
        col_ranges: Vec<(i64, i64)>,
        /// Projection over key columns.
        project: Projection,
    },
    /// Intersect the rids of two index range scans, then fetch the
    /// surviving rows (System A's multi-index plans, Figures 5 and 7).
    IndexIntersect {
        /// Left rid input.
        left: IndexRangeSpec,
        /// Right rid input.
        right: IndexRangeSpec,
        /// Join algorithm (and order, via `build_left`).
        algo: IntersectAlgo,
        /// Fetch discipline for the surviving rids.
        fetch: FetchKind,
        /// Residual predicate over fetched table rows.
        residual: Predicate,
        /// Projection over table columns.
        project: Projection,
    },
    /// Join two covering index scans on rid so that the join result covers a
    /// query no single index covers (Figure 2's "multi-index plans").
    /// Output rows are `left key columns ++ right key columns`; `project`
    /// is in that combined space.
    CoveringRidJoin {
        /// Left covering input.
        left: IndexRangeSpec,
        /// Right covering input.
        right: IndexRangeSpec,
        /// Join algorithm.
        algo: IntersectAlgo,
        /// Projection over `left keys ++ right keys`.
        project: Projection,
    },
    /// Sort the child's output.
    Sort {
        /// Input plan.
        input: Box<PlanSpec>,
        /// Sort key positions in the child's output rows.
        key_cols: Vec<usize>,
        /// Spill discipline.
        mode: SpillMode,
        /// Memory budget in bytes (the paper hints memory allocation
        /// per-operator).
        memory_bytes: usize,
    },
    /// General equi-join of two child plans on one column each.  Output
    /// rows are `left columns ++ right columns`; `project` is in that
    /// combined space.
    Join {
        /// Left input plan.
        left: Box<PlanSpec>,
        /// Right input plan.
        right: Box<PlanSpec>,
        /// Join key position in the left input's rows.
        left_key: usize,
        /// Join key position in the right input's rows.
        right_key: usize,
        /// Algorithm (and build side for hash).
        algo: JoinAlgo,
        /// Memory grant in bytes.
        memory_bytes: usize,
        /// Projection over `left ++ right` columns.
        project: Projection,
    },
    /// Parallel table scan across `dop` workers; elapsed time is the
    /// critical path, I/O is the sum over workers (§4 future work).
    ParallelTableScan {
        /// The table to scan.
        table: TableId,
        /// Filter over table columns.
        pred: Predicate,
        /// Projection over table columns.
        project: Projection,
        /// Degree of parallelism.
        dop: u32,
        /// Fraction of excess load concentrated on worker 0 (`0` = even).
        skew_permille: u32,
    },
    /// Hash aggregation of the child's output.
    HashAgg {
        /// Input plan.
        input: Box<PlanSpec>,
        /// Group-by positions in the child's output rows.
        group_cols: Vec<usize>,
        /// Aggregates to compute; output rows are `group cols ++ aggs`.
        aggs: Vec<AggFn>,
        /// Spill discipline.
        mode: SpillMode,
        /// Memory budget in bytes.
        memory_bytes: usize,
    },
}

/// A materialization point inside one operator where the adaptive executor
/// ([`crate::ops::adaptive`]) observes an exact cardinality before the
/// downstream work that depends on it has been paid for, and a controller
/// may bail.  A checkpoint fires the moment the feeding collection is
/// complete, i.e. *between* the charge that produced it and the charge
/// that consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// The rid list of an [`PlanSpec::IndexFetch`], fully collected and
    /// about to be fetched.
    RidFeed,
    /// The surviving rids of an [`PlanSpec::IndexIntersect`], about to be
    /// fetched — the point where a correlated conjunction reveals itself.
    IntersectOut,
    /// Output-count milestones of a [`PlanSpec::Mdam`] scan: fires each
    /// time the produced count reaches a power of two, while the scan is
    /// still running.  The observation is a *floor* on the final
    /// cardinality, not the final count — but a floor above the credible
    /// band already falsifies the estimate.  The adaptive executor holds
    /// the produced rows back (emission is charge-free) so a bail here
    /// discards them instead of duplicating them ahead of the fallback.
    ScanOut,
}

impl PlanSpec {
    /// The cardinality checkpoint the adaptive executor arms for this
    /// operator (root only, not descendants); `None` for shapes without
    /// one.
    pub fn checkpoint(&self) -> Option<CheckpointKind> {
        match self {
            PlanSpec::IndexFetch { .. } => Some(CheckpointKind::RidFeed),
            PlanSpec::IndexIntersect { .. } => Some(CheckpointKind::IntersectOut),
            PlanSpec::Mdam { .. } => Some(CheckpointKind::ScanOut),
            _ => None,
        }
    }

    /// One-line plan synopsis (operator chain, innermost last), e.g.
    /// `IndexIntersect(merge, improved-fetch)`.
    pub fn synopsis(&self) -> String {
        match self {
            PlanSpec::TableScan { .. } => "TableScan".to_string(),
            PlanSpec::IndexFetch { fetch, .. } => {
                format!("IndexFetch({})", fetch_name(fetch))
            }
            PlanSpec::CoveringIndexScan { .. } => "CoveringIndexScan".to_string(),
            PlanSpec::Mdam { .. } => "Mdam".to_string(),
            PlanSpec::IndexIntersect { algo, fetch, .. } => {
                format!("IndexIntersect({}, {})", algo_name(algo), fetch_name(fetch))
            }
            PlanSpec::CoveringRidJoin { algo, .. } => {
                format!("CoveringRidJoin({})", algo_name(algo))
            }
            PlanSpec::Join { left, right, algo, .. } => {
                let algo = match algo {
                    JoinAlgo::SortMerge => "sort-merge".to_string(),
                    JoinAlgo::Hash { build_left } => {
                        format!("hash/build-{}", if *build_left { "left" } else { "right" })
                    }
                };
                format!("Join({algo}) <- [{}, {}]", left.synopsis(), right.synopsis())
            }
            PlanSpec::ParallelTableScan { dop, skew_permille, .. } => {
                format!("ParallelTableScan(dop={dop}, skew={}%)", skew_permille / 10)
            }
            PlanSpec::Sort { input, mode, .. } => {
                format!("Sort({mode:?}) <- {}", input.synopsis())
            }
            PlanSpec::HashAgg { input, mode, .. } => {
                format!("HashAgg({mode:?}) <- {}", input.synopsis())
            }
        }
    }
}

fn fetch_name(f: &FetchKind) -> &'static str {
    match f {
        FetchKind::Traditional => "traditional",
        FetchKind::Improved(_) => "improved",
        FetchKind::BitmapSorted => "bitmap",
    }
}

fn algo_name(a: &IntersectAlgo) -> &'static str {
    match a {
        IntersectAlgo::MergeJoin => "merge",
        IntersectAlgo::HashJoin { build_left: true } => "hash/build-left",
        IntersectAlgo::HashJoin { build_left: false } => "hash/build-right",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_storage::Row;

    #[test]
    fn key_range_constructors() {
        let full = KeyRange::full(2);
        assert!(full.lo < Key::pair(i64::MIN + 1, 0));
        assert!(Key::pair(i64::MAX - 1, 0) < full.hi);
        let lead = KeyRange::on_leading(3, 9, 2);
        assert!(lead.lo <= Key::pair(3, i64::MIN));
        assert!(Key::pair(9, i64::MAX) <= lead.hi);
        assert!(Key::pair(10, 0) > lead.hi);
    }

    #[test]
    fn projection_apply() {
        let row = Row::from_slice(&[10, 20, 30]);
        assert_eq!(Projection::All.apply(&row), row);
        assert_eq!(Projection::Columns(vec![2, 0]).apply(&row).values(), &[30, 10]);
    }

    #[test]
    fn synopsis_names_choices() {
        let scan = IndexRangeSpec { index: IndexId(0), range: KeyRange::full(1) };
        let plan = PlanSpec::IndexIntersect {
            left: scan,
            right: scan,
            algo: IntersectAlgo::HashJoin { build_left: false },
            fetch: FetchKind::BitmapSorted,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        assert_eq!(plan.synopsis(), "IndexIntersect(hash/build-right, bitmap)");
        let sorted = PlanSpec::Sort {
            input: Box::new(plan),
            key_cols: vec![0],
            mode: SpillMode::Abrupt,
            memory_bytes: 1 << 20,
        };
        assert!(sorted.synopsis().starts_with("Sort(Abrupt) <- IndexIntersect"));
    }

    #[test]
    fn default_improved_config_orders_gaps() {
        let c = ImprovedFetchConfig::default();
        assert!(c.scan_gap < c.prefetch_gap);
    }
}
