//! Physical operators.
//!
//! Each operator is a plain function (or small struct) that really performs
//! its work against the storage substrate and charges every page access and
//! unit of CPU to the [`robustmap_storage::Session`].  Rows flow into
//! caller-provided sinks — `FnMut(&RowBatch)` out of the scans and
//! fetches, `FnMut(&[i64])` (one row's values, borrowed from the
//! operator's packed storage or its one output buffer) out of the blocking
//! operators — so no operator materialises output it does not need for its
//! own algorithm.  The blocking operators copy a row once, on arrival,
//! into packed storage ([`sort::PackedRows`]) and from then on move
//! handles, group ids or row indices, never the row.

pub mod adaptive;
pub mod agg;
pub mod fetch;
pub mod index_scan;
pub mod join;
pub mod mdam;
pub mod parallel_scan;
pub mod rid_join;
pub mod sort;
pub mod table_scan;

/// Where a blocking operator hands its output, one row's values at a time
/// (borrowed: copy out what you keep).  Its `finish` takes an
/// `Option<RowSink>`: `None` when nobody reads the rows.
pub type RowSink<'s> = &'s mut dyn FnMut(&[i64]);

#[cfg(test)]
pub(crate) mod testutil {
    use robustmap_storage::{ColumnType, Database, Row, Schema, TableId};

    use crate::batch::{BatchEmitter, RowBatch};

    /// A small three-column table: `a` and `b` are value permutations so a
    /// predicate `col < t` has exactly `t` matches; `c = 7 * row_number`.
    ///
    /// Returns the database and the table id.  Indexes are created by the
    /// individual tests as needed.
    pub fn demo_db(n: i64) -> (Database, TableId) {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ]);
        let t = db.create_table("demo", schema);
        for i in 0..n {
            // Multiplicative permutations of 0..n (odd multipliers are
            // invertible mod powers of two; for general n use a co-prime).
            let a = (i * 7919) % n;
            let b = (i * 104_729) % n;
            db.insert_row(t, &Row::from_slice(&[a, b, i * 7])).unwrap();
        }
        (db, t)
    }

    /// Run `op` with a batch sink that collects every emitted row; returns
    /// the operator's result beside the rows.
    pub fn collect<T>(op: impl FnOnce(&mut dyn FnMut(&RowBatch)) -> T) -> (T, Vec<Row>) {
        let mut rows = Vec::new();
        let out = op(&mut |b| rows.extend((0..b.len()).map(|i| b.row(i))));
        (out, rows)
    }

    /// Hand `rows` (all of one arity) to `push` as an emitter hands them to
    /// its sink: in order, in whole batches.
    pub fn feed<'r>(rows: impl IntoIterator<Item = &'r [i64]>, push: &mut dyn FnMut(&RowBatch)) {
        let mut rows = rows.into_iter().peekable();
        let Some(first) = rows.peek() else { return };
        let proj: Vec<usize> = (0..first.len()).collect();
        let mut emitter = BatchEmitter::new(proj.len());
        for row in rows {
            emitter.push_projected_slice(row, &proj, push);
        }
        emitter.flush(push);
    }

    /// All rows of the table, in physical order, without charging anyone.
    pub fn all_rows(db: &Database, t: TableId) -> Vec<Row> {
        let s = robustmap_storage::Session::with_pool_pages(0);
        let mut rows = Vec::new();
        db.table(t).heap.scan(&s, |_, row| rows.push(*row));
        rows
    }
}
