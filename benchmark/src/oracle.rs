//! The result oracle: row counts from the stored rows themselves.
//!
//! One uncharged [`HeapFile::scan`](robustmap_storage::HeapFile::scan)
//! reads every live row's predicate columns; every count a workload checks
//! against is then a filter over those pairs.  The oracle shares no code
//! with the executor, the indexes or the calibrators, so a plan that agrees
//! with it agrees with the data.

use robustmap_core::Measurement;
use robustmap_storage::Session;
use robustmap_workload::{Workload, COL_A, COL_B};

/// `(a, b)` of every live row, sorted by `a`.
pub struct Truth {
    pairs: Vec<(i64, i64)>,
}

impl Truth {
    /// Read the table as it is now (tombstoned rows are not visited).
    pub fn scan(w: &Workload) -> Truth {
        let session = Session::with_pool_pages(0);
        let mut pairs = Vec::with_capacity(w.rows() as usize);
        w.db.table(w.table).heap.scan(&session, |_, row| {
            pairs.push((row.get(COL_A), row.get(COL_B)))
        });
        Truth::from_pairs(pairs)
    }

    pub fn from_pairs(mut pairs: Vec<(i64, i64)>) -> Truth {
        pairs.sort_unstable();
        Truth { pairs }
    }

    /// Live rows.
    #[cfg(test)]
    pub fn rows(&self) -> u64 {
        self.pairs.len() as u64
    }

    /// Rows with `a <= ta`.
    pub fn count_a(&self, ta: i64) -> u64 {
        self.pairs.partition_point(|&(a, _)| a <= ta) as u64
    }

    /// Rows with `a <= ta[ia] AND b <= tb[ib]` for every threshold pair,
    /// `ia`-major like a map's cells.  One pass over each `a`-prefix: each
    /// row lands in the bucket of the smallest qualifying `tb`, and a
    /// running sum turns buckets into counts.
    pub fn grid(&self, ta: &[i64], tb: &[i64]) -> Vec<u64> {
        let mut order: Vec<usize> = (0..tb.len()).collect();
        order.sort_by_key(|&i| tb[i]);
        let tb_sorted: Vec<i64> = order.iter().map(|&i| tb[i]).collect();
        let mut out = vec![0u64; ta.len() * tb.len()];
        for (ia, &t) in ta.iter().enumerate() {
            let prefix = &self.pairs[..self.count_a(t) as usize];
            let mut buckets = vec![0u64; tb.len() + 1];
            for &(_, b) in prefix {
                buckets[tb_sorted.partition_point(|&x| x < b)] += 1;
            }
            let mut running = 0u64;
            for (rank, &ib) in order.iter().enumerate() {
                running += buckets[rank];
                out[ia * tb.len() + ib] = running;
            }
        }
        out
    }

    /// Rows with `a <= ta AND b <= tb`, by a plain filter: the second way
    /// of counting the unit tests hold [`Truth::grid`] against.
    #[cfg(test)]
    pub fn count_ab(&self, ta: i64, tb: i64) -> u64 {
        self.pairs
            .iter()
            .filter(|&&(a, b)| a <= ta && b <= tb)
            .count() as u64
    }
}

/// How many of `results` report a row count other than the expected one.
pub fn wrong_rows(results: &[Measurement], expected: impl Fn(usize) -> u64) -> u64 {
    results
        .iter()
        .enumerate()
        .filter(|(i, m)| m.rows != expected(*i))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    #[test]
    fn grid_agrees_with_a_plain_filter_on_4096_rows() {
        let w = TableBuilder::build(WorkloadConfig::with_rows(4096));
        let truth = Truth::scan(&w);
        assert_eq!(truth.rows(), 4096);
        // Unsorted thresholds with a duplicate and both extremes.
        let ta = [700, -1, 4095, 12, 2048];
        let tb = [4095, 0, 100, 100, 3000, i64::MIN];
        let grid = truth.grid(&ta, &tb);
        for (ia, &a) in ta.iter().enumerate() {
            for (ib, &b) in tb.iter().enumerate() {
                assert_eq!(
                    grid[ia * tb.len() + ib],
                    truth.count_ab(a, b),
                    "a<={a} b<={b}"
                );
            }
            assert_eq!(truth.count_a(a), truth.count_ab(a, i64::MAX));
        }
        // The calibrators promise exact selectivities on a permutation
        // table; the oracle, which never saw them, must find the same.
        let t = w.cal_a.threshold(0.25);
        assert_eq!(truth.count_a(t), 1024);
    }

    #[test]
    fn a_wrong_truth_table_is_caught() {
        let w = TableBuilder::build(WorkloadConfig::with_rows(4096));
        let truth = Truth::scan(&w);
        let t = w.cal_a.threshold(0.5);
        let cell = Measurement {
            rows: truth.count_a(t),
            ..Measurement::default()
        };
        let results = [cell; 4];
        assert_eq!(wrong_rows(&results, |_| truth.count_a(t)), 0);
        // Inject a truth that is off by one row for one cell.
        assert_eq!(
            wrong_rows(&results, |i| truth.count_a(t) + u64::from(i == 2)),
            1
        );
    }
}
