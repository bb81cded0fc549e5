//! Tables and the catalog.
//!
//! A [`Database`] owns tables (heap files) and indexes (B+-trees) and hands
//! out stable ids for both.  It is immutable once loaded and `Sync`, so the
//! map builder can sweep parameter grids from many threads, each with its
//! own [`crate::Session`].

use crate::btree::{BTree, Key, MAX_KEY_COLS};
use crate::buffer::FileId;
use crate::heap::{HeapFile, Rid};
use crate::schema::{Row, Schema};
use crate::{Result, StorageError};

/// Identifies a table within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// Identifies an index within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexId(pub u32);

/// A table: a named heap file.
pub struct Table {
    /// Table name, unique in the catalog.
    pub name: String,
    /// The main storage structure.
    pub heap: HeapFile,
}

/// A secondary (non-clustered) index definition plus its B+-tree.
pub struct IndexDef {
    /// Index name, unique in the catalog.
    pub name: String,
    /// The indexed table.
    pub table: TableId,
    /// Positions of the key columns in the table schema, in key order.
    pub key_columns: Vec<usize>,
    /// The tree mapping composite keys to rids.
    pub tree: BTree,
}

impl IndexDef {
    /// Extract this index's key from a table row.
    pub fn key_of(&self, row: &Row) -> Key {
        let mut vals = [0i64; MAX_KEY_COLS];
        for (i, &col) in self.key_columns.iter().enumerate() {
            vals[i] = row.get(col);
        }
        Key::new(&vals[..self.key_columns.len()])
    }

    /// Whether the index key contains all of `columns` (i.e. the index
    /// *covers* a query touching only those columns).
    pub fn covers(&self, columns: &[usize]) -> bool {
        columns.iter().all(|c| self.key_columns.contains(c))
    }
}

/// The catalog: tables, indexes and the file-id allocator.
#[derive(Default)]
pub struct Database {
    tables: Vec<Table>,
    indexes: Vec<IndexDef>,
    next_file: u32,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh file id (also used by operators for spill files;
    /// ids handed to queries at run time come from
    /// [`Database::temp_file_base`] upward).
    pub fn alloc_file(&mut self) -> FileId {
        let id = FileId(self.next_file);
        self.next_file += 1;
        id
    }

    /// First file id guaranteed never to collide with catalog objects.
    /// Operators derive per-query temp file ids from this base.
    pub fn temp_file_base(&self) -> u32 {
        self.next_file.max(1) + 1_000_000
    }

    /// Attach a fully built heap as a table (the workload cache's load
    /// path).  The heap's file id is reserved so later
    /// [`Database::alloc_file`] calls never collide with it.
    pub fn attach_table(&mut self, name: &str, heap: HeapFile) -> TableId {
        self.next_file = self.next_file.max(heap.file_id().0 + 1);
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table { name: name.to_string(), heap });
        id
    }

    /// The heap of `table`, once `key_columns` are checked against it: 1 to
    /// [`MAX_KEY_COLS`] columns, each in the table's schema.  The one check
    /// of [`Database::create_index`] and [`Database::attach_index`], made
    /// before either allocates or attaches anything.
    fn index_heap(&self, table: TableId, key_columns: &[usize]) -> Result<&HeapFile> {
        let heap = &self
            .tables
            .get(table.0 as usize)
            .ok_or_else(|| StorageError::UnknownObject(format!("table #{}", table.0)))?
            .heap;
        let n = key_columns.len();
        if !(1..=MAX_KEY_COLS).contains(&n) {
            return Err(StorageError::SchemaMismatch(format!("bad key arity {n}")));
        }
        match key_columns.iter().find(|&&c| c >= heap.schema().arity()) {
            Some(c) => Err(StorageError::SchemaMismatch(format!("key column {c} out of range"))),
            None => Ok(heap),
        }
    }

    /// Attach a fully built B+-tree as a non-clustered index on
    /// `key_columns` of `table` (the workload cache's load path, and the
    /// target of [`BTree::bulk_load_columns`] loads made outside the
    /// catalog).  Validates the key columns against the table schema and
    /// reserves the tree's file id, exactly as [`Database::create_index`]
    /// would.
    pub fn attach_index(
        &mut self,
        name: &str,
        table: TableId,
        key_columns: &[usize],
        tree: BTree,
    ) -> Result<IndexId> {
        self.index_heap(table, key_columns)?;
        if tree.key_arity() != key_columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "tree arity {} vs {} key columns",
                tree.key_arity(),
                key_columns.len()
            )));
        }
        self.next_file = self.next_file.max(tree.file_id().0 + 1);
        let id = IndexId(self.indexes.len() as u32);
        self.indexes.push(IndexDef {
            name: name.to_string(),
            table,
            key_columns: key_columns.to_vec(),
            tree,
        });
        Ok(id)
    }

    /// Create an empty table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> TableId {
        let file = self.alloc_file();
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table { name: name.to_string(), heap: HeapFile::new(file, schema) });
        id
    }

    /// Append a row to a table (load path, not charged to a session).
    pub fn insert_row(&mut self, table: TableId, row: &Row) -> Result<Rid> {
        self.tables
            .get_mut(table.0 as usize)
            .ok_or_else(|| StorageError::UnknownObject(format!("table #{}", table.0)))?
            .heap
            .append(row)
    }

    /// Build a non-clustered index on `key_columns` of `table` by scanning
    /// the heap and bulk-loading a B+-tree (fill factor 0.9, the customary
    /// default for freshly built indexes).
    pub fn create_index(&mut self, name: &str, table: TableId, key_columns: &[usize]) -> Result<IndexId> {
        let heap = self.index_heap(table, key_columns)?;
        // Collect (key, rid) pairs; the load path is not charged.
        let session = crate::Session::with_pool_pages(0);
        let mut entries: Vec<(Key, Rid)> = Vec::with_capacity(heap.row_count() as usize);
        heap.scan(&session, |rid, row| {
            let mut vals = [0i64; MAX_KEY_COLS];
            for (i, &col) in key_columns.iter().enumerate() {
                vals[i] = row.get(col);
            }
            entries.push((Key::new(&vals[..key_columns.len()]), rid));
        });
        entries.sort_unstable();
        let file = self.alloc_file();
        let tree = BTree::bulk_load(file, key_columns.len(), entries.iter().copied(), 0.9);
        let id = IndexId(self.indexes.len() as u32);
        self.indexes.push(IndexDef {
            name: name.to_string(),
            table,
            key_columns: key_columns.to_vec(),
            tree,
        });
        Ok(id)
    }

    /// Look up a table by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    /// Look up an index by id.
    #[allow(clippy::should_implement_trait)] // catalog lookup, not ops::Index
    pub fn index(&self, id: IndexId) -> &IndexDef {
        &self.indexes[id.0 as usize]
    }

    /// Mutable table lookup — the churn engine's entry point.  The catalog
    /// stays immutable *during* a map sweep; churn batches run strictly
    /// between sweeps, on the single thread that owns the database.
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id.0 as usize]
    }

    /// Mutable index lookup (see [`Database::table_mut`]): secondary-index
    /// maintenance under churn goes through [`crate::BTree::insert`] /
    /// [`crate::BTree::delete`], both of which charge the session.
    pub fn index_def_mut(&mut self, id: IndexId) -> &mut IndexDef {
        &mut self.indexes[id.0 as usize]
    }

    /// Several indexes borrowed mutably at once, in the order of `ids`
    /// (see [`Database::table_mut`]): the churn engine maintains them on
    /// two threads.  `None` if an id is unknown or named twice.
    pub fn indexes_mut<const N: usize>(&mut self, ids: [IndexId; N]) -> Option<[&mut IndexDef; N]> {
        self.indexes.get_disjoint_mut(ids.map(|id| id.0 as usize)).ok()
    }

    /// All indexes on `table`.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = (IndexId, &IndexDef)> {
        self.indexes
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.table == table)
            .map(|(i, d)| (IndexId(i as u32), d))
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.iter().map(|t| &t.name).collect::<Vec<_>>())
            .field("indexes", &self.indexes.iter().map(|i| &i.name).collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::sim::AccessKind;
    use crate::Session;

    fn demo_db(rows: i64) -> (Database, TableId) {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ]);
        let t = db.create_table("demo", schema);
        for i in 0..rows {
            db.insert_row(t, &Row::from_slice(&[i, i % 16, i * 3])).unwrap();
        }
        (db, t)
    }

    #[test]
    fn create_index_covers_all_rows() {
        let (mut db, t) = demo_db(1000);
        let idx = db.create_index("idx_a", t, &[0]).unwrap();
        let def = db.index(idx);
        assert_eq!(def.tree.len(), 1000);
        def.tree.check_invariants().unwrap();
        // All entries point at real rows with the right key.
        let s = Session::with_pool_pages(0);
        for (key, rid) in def.tree.collect_all() {
            let row = db.table(t).heap.fetch(rid, &s, AccessKind::Random).unwrap();
            assert_eq!(key.get(0), row.get(0));
        }
    }

    #[test]
    fn indexes_mut_lends_distinct_indexes_in_the_order_asked() {
        let (mut db, t) = demo_db(10);
        let a = db.create_index("idx_a", t, &[0]).unwrap();
        let b = db.create_index("idx_b", t, &[1]).unwrap();
        let [first, second] = db.indexes_mut([b, a]).unwrap();
        assert_eq!((first.name.as_str(), second.name.as_str()), ("idx_b", "idx_a"));
        assert!(db.indexes_mut([a, a]).is_none(), "an index named twice");
        assert!(db.indexes_mut([a, IndexId(2)]).is_none(), "an unknown index");
    }

    #[test]
    fn composite_index_orders_by_both_columns() {
        let (mut db, t) = demo_db(500);
        let idx = db.create_index("idx_ba", t, &[1, 0]).unwrap();
        let entries = db.index(idx).tree.collect_all();
        assert!(entries.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(entries.len(), 500);
        assert_eq!(db.index(idx).key_columns, vec![1, 0]);
    }

    #[test]
    fn covers_checks_key_columns() {
        let (mut db, t) = demo_db(10);
        let idx = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let def = db.index(idx);
        assert!(def.covers(&[0]));
        assert!(def.covers(&[1, 0]));
        assert!(!def.covers(&[2]));
    }

    #[test]
    fn indexes_on_lists_the_tables_indexes() {
        let (mut db, t) = demo_db(10);
        db.create_index("idx_a", t, &[0]).unwrap();
        assert_eq!(db.indexes_on(t).count(), 1);
    }

    /// No key column, more than [`MAX_KEY_COLS`] and a column past the
    /// schema are errors, not panics, and a refused call allocates no file:
    /// the next index gets the file id it gets in a catalog without them.
    #[test]
    fn bad_key_columns_are_refused_before_a_file_is_allocated() {
        let (mut db, t) = demo_db(10);
        for bad in [&[][..], &[0, 1, 2, 0], &[9]] {
            let refused = |r: Result<IndexId>| matches!(r, Err(StorageError::SchemaMismatch(_)));
            assert!(refused(db.create_index("bad", t, bad)), "{bad:?}");
            let tree = BTree::with_caps(FileId(9), 1, 4, 4);
            assert!(refused(db.attach_index("bad", t, bad, tree)), "{bad:?}");
        }
        let (mut clean, _) = demo_db(10);
        let (idx, want) = (db.create_index("a", t, &[0]), clean.create_index("a", t, &[0]));
        let file = |db: &Database, idx: Result<IndexId>| db.index(idx.unwrap()).tree.file_id();
        assert_eq!(file(&db, idx), file(&clean, want));
    }

    #[test]
    fn attach_reconstructs_create_path_exactly() {
        let (mut original, t) = demo_db(500);
        original.create_index("idx_a", t, &[0]).unwrap();

        // Round-trip the heap through its page images and the index through
        // its sorted entries.
        let heap = &original.table(t).heap;
        let mut rebuilt_heap = crate::HeapFile::new(heap.file_id(), heap.schema().clone());
        for p in 0..heap.page_count() {
            let mut image = Vec::new();
            heap.write_image(p, &mut image);
            rebuilt_heap.push_image(&image.try_into().unwrap()).unwrap();
        }
        assert_eq!(rebuilt_heap.row_count(), heap.row_count());

        let mut reloaded = Database::new();
        let t2 = reloaded.attach_table("demo", rebuilt_heap);
        let entries = original.index(IndexId(0)).tree.collect_all();
        let tree = crate::BTree::bulk_load(
            original.index(IndexId(0)).tree.file_id(),
            1,
            entries.iter().copied(),
            0.9,
        );
        let idx = reloaded.attach_index("idx_a", t2, &[0], tree).unwrap();

        assert_eq!(reloaded.index(idx).tree.collect_all(), entries);
        assert_eq!(reloaded.temp_file_base(), original.temp_file_base());
        // Identical page-access behaviour: scan both heaps with one session
        // each and compare the charged stats.
        let (s1, s2) = (Session::with_pool_pages(8), Session::with_pool_pages(8));
        let mut rows1 = Vec::new();
        original.table(t).heap.scan(&s1, |rid, r| rows1.push((rid, r.values().to_vec())));
        let mut rows2 = Vec::new();
        reloaded.table(t2).heap.scan(&s2, |rid, r| rows2.push((rid, r.values().to_vec())));
        assert_eq!(rows1, rows2);
        assert_eq!(s1.stats(), s2.stats());
    }

    #[test]
    fn attach_index_validates_key_columns() {
        let (mut db, t) = demo_db(10);
        let tree = crate::BTree::with_caps(crate::FileId(9), 1, 4, 4);
        assert!(db.attach_index("bad", t, &[99], tree).is_err());
        let tree2 = crate::BTree::with_caps(crate::FileId(9), 2, 4, 4);
        assert!(db.attach_index("arity", t, &[0], tree2).is_err());
    }

    #[test]
    fn temp_file_base_clears_catalog_files() {
        let (mut db, t) = demo_db(10);
        db.create_index("idx_a", t, &[0]).unwrap();
        let base = db.temp_file_base();
        assert!(base > db.index_count() as u32 + db.table_count() as u32);
    }
}
