//! Predicates: conjunctions of per-column range restrictions.
//!
//! The paper's experiments use selections of the form
//! `WHERE colA <= ca AND colB <= cb`; the two selectivities are the
//! parameter space of every 2-D robustness map.  A [`Predicate`] is a
//! conjunction of inclusive [`ColRange`]s, which is exactly the class of
//! predicates those plans must evaluate (and what B+-tree ranges and MDAM
//! intervals are derived from).
//!
//! Two loops evaluate one, each charging what [`Predicate::eval`] on every
//! item would: [`Predicate::filter_run`] over index entries (and `eval`
//! itself, a run of one), and [`crate::batch::BatchEmitter::filter`] over
//! heap records — a scanned page or a fetched rid run — which reports its
//! comparisons for the caller to charge.

use robustmap_storage::{Row, Session};

/// An inclusive range restriction on one column: `lo <= row[col] <= hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColRange {
    /// Column position in the row this predicate will be evaluated against.
    pub col: usize,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl ColRange {
    /// `row[col] <= hi`.
    pub fn at_most(col: usize, hi: i64) -> Self {
        ColRange { col, lo: i64::MIN, hi }
    }

    /// `row[col] >= lo`.
    pub fn at_least(col: usize, lo: i64) -> Self {
        ColRange { col, lo, hi: i64::MAX }
    }

    /// `lo <= row[col] <= hi`.
    pub fn between(col: usize, lo: i64, hi: i64) -> Self {
        ColRange { col, lo, hi }
    }

    /// `row[col] == v`.
    pub fn equals(col: usize, v: i64) -> Self {
        ColRange { col, lo: v, hi: v }
    }

    /// Whether `row` satisfies this restriction.
    #[inline]
    pub fn matches(&self, row: &Row) -> bool {
        self.admits(row.get(self.col))
    }

    /// Whether `v` lies in the range (branch-free).
    #[inline]
    pub fn admits(&self, v: i64) -> bool {
        (self.lo <= v) & (v <= self.hi)
    }
}

/// A conjunction of column ranges.  The empty conjunction is `TRUE`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Predicate {
    terms: Vec<ColRange>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn always_true() -> Self {
        Predicate { terms: Vec::new() }
    }

    /// A predicate from conjunctive terms.
    pub fn all_of(terms: Vec<ColRange>) -> Self {
        Predicate { terms }
    }

    /// A single-term predicate.
    pub fn single(term: ColRange) -> Self {
        Predicate { terms: vec![term] }
    }

    /// The conjunctive terms.
    pub fn terms(&self) -> &[ColRange] {
        &self.terms
    }

    /// Whether this predicate is trivially true.
    pub fn is_true(&self) -> bool {
        self.terms.is_empty()
    }

    /// Add a term.
    pub fn and(mut self, term: ColRange) -> Self {
        self.terms.push(term);
        self
    }

    /// Evaluate against a row, charging one comparison per term examined
    /// (short-circuiting, as a compiled predicate would): a
    /// [`Predicate::filter_run`] of one.
    #[inline]
    pub fn eval(&self, row: &Row, session: &Session) -> bool {
        let mut ok = false;
        self.filter_run([row], |row, col| row.get(col), session, |_| ok = true);
        ok
    }

    /// Evaluate without charging (used on the load path and in tests).
    #[inline]
    pub fn eval_free(&self, row: &Row) -> bool {
        self.terms.iter().all(|t| t.matches(row))
    }

    /// Evaluate a leaf's worth of index entries in one charge.  `get(item,
    /// col)` reads a column value by position (an index key's value slice);
    /// `keep` receives each item that passes, in order, and must not charge.
    /// Charges exactly what [`Predicate::eval`] on each item would —
    /// short-circuit term scan, one charge event per item, nothing for the
    /// `TRUE` predicate — as one call after the run.
    #[inline]
    pub fn filter_run<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        get: impl Fn(&T, usize) -> i64,
        session: &Session,
        mut keep: impl FnMut(T),
    ) {
        let (mut examined, mut n) = (0u64, 0u64);
        for item in items {
            n += 1;
            let mut ok = true;
            for t in &self.terms {
                examined += 1;
                if !t.admits(get(&item, t.col)) {
                    ok = false;
                    break;
                }
            }
            if ok {
                keep(item);
            }
        }
        if !self.terms.is_empty() {
            session.charge_compares_as(examined, n);
        }
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "TRUE");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            match (t.lo == i64::MIN, t.hi == i64::MAX) {
                (true, true) => write!(f, "col{} IS ANY", t.col)?,
                (true, false) => write!(f, "col{} <= {}", t.col, t.hi)?,
                (false, true) => write!(f, "col{} >= {}", t.col, t.lo)?,
                (false, false) if t.lo == t.hi => write!(f, "col{} = {}", t.col, t.lo)?,
                (false, false) => write!(f, "col{} IN [{}, {}]", t.col, t.lo, t.hi)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Row {
        Row::from_slice(vals)
    }

    fn quiet() -> Session {
        Session::with_pool_pages(0)
    }

    #[test]
    fn col_range_constructors() {
        let r = row(&[5, 10]);
        assert!(ColRange::at_most(0, 5).matches(&r));
        assert!(!ColRange::at_most(0, 4).matches(&r));
        assert!(ColRange::at_least(1, 10).matches(&r));
        assert!(!ColRange::at_least(1, 11).matches(&r));
        assert!(ColRange::between(0, 0, 5).matches(&r));
        assert!(ColRange::equals(1, 10).matches(&r));
        assert!(!ColRange::equals(1, 9).matches(&r));
    }

    #[test]
    fn empty_predicate_is_true() {
        let p = Predicate::always_true();
        assert!(p.is_true());
        assert!(p.eval(&row(&[1]), &quiet()));
    }

    #[test]
    fn conjunction_short_circuits() {
        let s = quiet();
        let p = Predicate::all_of(vec![ColRange::at_most(0, 0), ColRange::at_most(1, 0)]);
        assert!(!p.eval(&row(&[5, 5]), &s));
        // Only the first term should have been charged.
        assert_eq!(s.stats().cpu_compares, 1);
        assert!(p.eval(&row(&[0, 0]), &s));
        assert_eq!(s.stats().cpu_compares, 3);
    }

    /// One charge for the run is `eval` on each item: the same survivors,
    /// ticks, comparisons and charge events — none at all for `TRUE`.
    #[test]
    fn filter_run_matches_eval_on_each_item() {
        let items = [[5i64, 5], [0, 0], [0, 5], [5, 0]];
        for p in [
            Predicate::all_of(vec![ColRange::at_most(0, 0), ColRange::at_most(1, 0)]),
            Predicate::always_true(),
        ] {
            let (a, b) = (quiet(), quiet());
            let mut kept = Vec::new();
            p.filter_run(items, |vals, c| vals[c], &a, |vals| kept.push(vals));
            let want: Vec<[i64; 2]> =
                items.into_iter().filter(|vals| p.eval(&row(vals), &b)).collect();
            assert_eq!(kept, want);
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.elapsed_ticks(), b.elapsed_ticks());
            assert_eq!(a.charge_events(), b.charge_events());
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Predicate::always_true().to_string(), "TRUE");
        let p = Predicate::all_of(vec![
            ColRange::at_most(0, 7),
            ColRange::at_least(1, 3),
            ColRange::equals(2, 5),
            ColRange::between(3, 1, 2),
        ]);
        assert_eq!(
            p.to_string(),
            "col0 <= 7 AND col1 >= 3 AND col2 = 5 AND col3 IN [1, 2]"
        );
    }
}
