//! # robustmap-storage
//!
//! Storage substrate for the robustness-map reproduction of Graefe, Kuno &
//! Wiener, *Visualizing the robustness of query execution* (CIDR 2009).
//!
//! The paper measures the run-time behaviour of fixed query execution plans
//! on three commercial database systems.  This crate provides the storage
//! engine those measurements need, built from scratch:
//!
//! * [`page`] — 8 KiB pages that hold their rows column by column,
//! * [`heap`] — heap files (a table's main storage structure),
//! * [`btree`] — B+-trees with single- and multi-column keys, range cursors,
//!   inserts with splits and deletes with rebalancing, plus bulk loading,
//! * [`bitmap`] — the dense rid set behind physical-order fetches and rid
//!   intersections,
//! * [`radix`] — the stable radix sort behind rid lists, the sorter's
//!   order and the workload's index orders,
//! * [`buffer`] — a buffer pool (LRU or Clock) that simulates caching,
//! * [`sim`] — the deterministic I/O + CPU cost model that stands in for the
//!   paper's wall-clock measurements on real hardware,
//! * [`shared`] — a buffer pool + temp-file namespace shared by N
//!   concurrently served queries, with per-query attribution,
//! * [`session`] — per-query accounting context tying the above together,
//! * [`charge`] — the charge-sink trait the mutation paths charge through,
//!   and a log that records charges and replays them into a session later,
//! * [`schema`] / [`table`] — rows, columns and the catalog.
//!
//! ## Why simulated time?
//!
//! Every operator in the executor crate *really executes*: it walks real
//! B+-tree nodes, reads real heap pages and produces real rows.  Only the
//! *clock* is simulated: each page access is classified as sequential,
//! single-page or random and charged HDD-era costs, and CPU work is charged
//! per row / comparison / hash.  This preserves the *shapes* the paper is
//! about — constant table scans, random-I/O-bound index fetches, break-even
//! points, spill discontinuities — while being deterministic and
//! hardware-independent.

pub mod bitmap;
pub mod btree;
pub mod buffer;
pub mod charge;
pub mod fx;
pub mod heap;
pub mod page;
pub mod radix;
pub mod schema;
pub mod session;
pub mod shared;
pub mod sim;
pub mod table;

pub use bitmap::{RidSet, Slots};
pub use btree::{BTree, Key};
pub use buffer::{BufferPool, EvictionPolicy, FileId, PageId};
pub use charge::{ChargeLog, ChargeSink};
pub use fx::{FxBuildHasher, FxHashMap, FxHasher};
pub use heap::{HeapFile, HeapPage, Rid, RidSpan};
pub use page::{ColumnPage, PAGE_SIZE};
pub use schema::{ColumnType, Row, Schema, MAX_COLUMNS};
pub use session::{CpuCharge, Session, YieldHook};
pub use shared::{QueryId, QueryShare, SharedBufferPool};
pub use sim::{ticks_to_seconds, AccessKind, CostModel, CostTicks, IoExpect, IoStats, SimClock};
pub use table::{Database, IndexDef, IndexId, Table, TableId};

/// Errors reported by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A row id referenced a page or slot that does not exist.
    InvalidRid(Rid),
    /// A table or index name was not found in the catalog.
    UnknownObject(String),
    /// A row had more columns than [`MAX_COLUMNS`] or mismatched the schema.
    SchemaMismatch(String),
    /// An index disagreed with its heap: an insert found its entry already
    /// there, or a delete found none.
    IndexDrift {
        /// The index's name.
        index: String,
        /// The row whose entry was duplicated or missing.
        rid: Rid,
        /// Whether the mutation was an insert (else a delete).
        insert: bool,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::InvalidRid(rid) => write!(f, "invalid rid {rid}"),
            StorageError::UnknownObject(name) => write!(f, "unknown table or index: {name}"),
            StorageError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            StorageError::IndexDrift { index, rid, insert: true } => {
                write!(f, "index {index} already holds the entry of {rid}")
            }
            StorageError::IndexDrift { index, rid, insert: false } => {
                write!(f, "index {index} holds no entry for {rid}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
