//! Rows, columns and schemas.
//!
//! The paper's experiments run selections over a TPC-H lineitem-like table
//! whose predicate columns are ordered numerics (quantities, prices, dates).
//! We therefore encode every column as an `i64` datum — dates and money
//! become integers — which lets a heap page keep each column as an array
//! of `i64`s without losing anything the robustness maps care about.  The [`ColumnType`]
//! records the logical type for documentation and rendering.

/// Maximum number of columns in a row.
///
/// Rows are stored inline (no heap allocation) so that scanning millions of
/// rows per map cell stays cheap; eight columns is ample for the paper's
/// lineitem-like workloads.
pub const MAX_COLUMNS: usize = 8;

/// Logical column types (all encoded as `i64` data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Plain integer.
    Int,
    /// A date encoded as days since an epoch.
    Date,
    /// Money encoded in cents.
    Money,
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within its schema.
    pub name: String,
    /// Logical type (encoding is always `i64`).
    pub ty: ColumnType,
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics if there are more than [`MAX_COLUMNS`] columns or duplicate
    /// names — both are programming errors in workload definitions.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Self {
        assert!(columns.len() <= MAX_COLUMNS, "too many columns");
        let columns: Vec<Column> = columns
            .into_iter()
            .map(|(name, ty)| Column { name: name.to_string(), ty })
            .collect();
        for i in 0..columns.len() {
            for j in i + 1..columns.len() {
                assert_ne!(columns[i].name, columns[j].name, "duplicate column name");
            }
        }
        Schema { columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Bytes a row of this schema occupies: eight a column.
    pub fn row_bytes(&self) -> usize {
        self.arity() * 8
    }
}

/// A row of up to [`MAX_COLUMNS`] `i64` values, stored inline.
///
/// `Row` is `Copy`-cheap to clone and never allocates, which matters when
/// map construction pushes hundreds of millions of rows through operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Row {
    vals: [i64; MAX_COLUMNS],
    len: u8,
}

impl Row {
    /// An empty row (arity 0).
    pub fn empty() -> Self {
        Row { vals: [0; MAX_COLUMNS], len: 0 }
    }

    /// Build a row from a slice of values.
    ///
    /// # Panics
    /// Panics if `vals` has more than [`MAX_COLUMNS`] entries.
    pub fn from_slice(vals: &[i64]) -> Self {
        assert!(vals.len() <= MAX_COLUMNS, "row too wide");
        let mut row = Row::empty();
        for &v in vals {
            row.push(v);
        }
        row
    }

    /// Number of values.
    #[inline]
    pub fn arity(&self) -> usize {
        self.len as usize
    }

    /// Append a value.
    ///
    /// # Panics
    /// Panics if the row is already at [`MAX_COLUMNS`].
    #[inline]
    pub fn push(&mut self, v: i64) {
        assert!((self.len as usize) < MAX_COLUMNS, "row overflow");
        self.vals[self.len as usize] = v;
        self.len += 1;
    }

    /// Value at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= arity()`.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        assert!(i < self.arity(), "column {i} out of range");
        self.vals[i]
    }

    /// The values as a slice.
    #[inline]
    pub fn values(&self) -> &[i64] {
        &self.vals[..self.len as usize]
    }

    /// A new row containing the listed columns of `self`, in order.
    #[inline]
    pub fn project(&self, cols: &[usize]) -> Row {
        let mut out = Row::empty();
        for &c in cols {
            out.push(self.get(c));
        }
        out
    }
}

// A manual Debug keeps the unused tail of `vals` out of the output.
impl std::fmt::Debug for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.values().iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineitem_like() -> Schema {
        Schema::new(vec![
            ("orderkey", ColumnType::Int),
            ("quantity", ColumnType::Int),
            ("price", ColumnType::Money),
            ("shipdate", ColumnType::Date),
        ])
    }

    #[test]
    fn schema_lookup() {
        let s = lineitem_like();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.row_bytes(), 32);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_panic() {
        Schema::new(vec![("a", ColumnType::Int), ("a", ColumnType::Int)]);
    }

    #[test]
    fn row_projection() {
        let row = Row::from_slice(&[10, 20, 30, 40]);
        let p = row.project(&[3, 0]);
        assert_eq!(p.values(), &[40, 10]);
    }

    #[test]
    #[should_panic(expected = "row overflow")]
    fn row_overflow_panics() {
        let mut r = Row::from_slice(&[0; MAX_COLUMNS]);
        r.push(1);
    }

    #[test]
    fn row_debug_hides_unused_tail() {
        let r = Row::from_slice(&[1, 2]);
        assert_eq!(format!("{r:?}"), "[1, 2]");
    }
}
