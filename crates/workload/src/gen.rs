//! Workload assembly: the lineitem-like table, its indexes, and the
//! calibrators.
//!
//! The generated table mirrors the role lineitem plays in the paper:
//!
//! | column     | position | role                                            |
//! |------------|----------|-------------------------------------------------|
//! | `a`        | 0        | first predicate column (x-axis of the maps)     |
//! | `b`        | 1        | second predicate column (y-axis of the maps)    |
//! | `c`        | 2        | extra output column for covering-join plans     |
//! | `orderkey` | 3        | clustering key of the main storage structure    |
//! | `payload`  | 4        | padding (row width ≈ a slim lineitem)           |
//!
//! The heap is ordered by `orderkey` — "a clustered index organized on an
//! entirely unrelated column" (§3.3) — so scans of it are the paper's
//! no-index table scan.  Five indexes cover all thirteen plans measured
//! across the paper's three systems: `a`, `b`, `c`, `(a,b)`, `(b,a)`.
//!
//! A build and a cache load both end in one function, `finish`, which sorts
//! three orders of row positions — by `a`, by `b`, by `c` — and derives
//! every index and calibrator from them: the two-column orders re-sort runs
//! of equal leading values, and each tree's entries are gathered from the
//! columns through its order straight into its leaves, so no list of index
//! entries, nor a leaf's worth of them, is ever built.

use robustmap_storage::radix::radix_sort_by_u64_key;
use robustmap_storage::{BTree, ColumnType, Database, IndexId, Rid, Row, Schema, TableId};

use crate::calib::Calibrator;
use crate::dist::{Correlated, Distribution, Permutation, Uniform, Zipf};

/// Position of predicate column `a`.
pub const COL_A: usize = 0;
/// Position of predicate column `b`.
pub const COL_B: usize = 1;
/// Position of the covering-join output column `c`.
pub const COL_C: usize = 2;
/// Position of the clustering key.
pub const COL_ORDERKEY: usize = 3;
/// Position of the padding column.
pub const COL_PAYLOAD: usize = 4;

/// How to generate the two predicate columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateDistribution {
    /// Pseudo-random permutations: exact selectivities (default, and what
    /// the headline figures use).
    Permutation,
    /// Uniform with duplicates over a domain of `n / 16` values.
    Uniform,
    /// Zipf over 4096 distinct values with the given skew in hundredths
    /// (e.g. `110` = theta 1.10) — kept integral so configs stay `Eq`.
    ZipfHundredths(u32),
    /// Correlated predicate columns: `a` is a permutation and `b` copies
    /// `a`'s value with probability `rho` (in hundredths, e.g. `75` = 0.75),
    /// falling back to fresh-uniform otherwise — the independence-assumption
    /// failure the `ext_correlated` experiment sweeps.  Kept integral so
    /// configs stay `Eq`.
    CorrelatedHundredths(u32),
}

/// Configuration for [`TableBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Row count (the paper used 60M; figures here default to 2^20 and
    /// record the landmark positions as fractions of the table).
    pub rows: u64,
    /// Master seed; all generators derive from it.
    pub seed: u64,
    /// Distribution of predicate columns `a` and `b`.
    pub predicate_dist: PredicateDistribution,
    /// Mutation epoch: 0 for a freshly generated table, bumped by the churn
    /// driver after every applied batch.  Folded into the workload cache's
    /// key and compared on load, so a churned table is neither stored over
    /// nor served as the pristine table of the same configuration.
    pub mutation_epoch: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            rows: 1 << 20,
            seed: 0xC1D2_2009,
            predicate_dist: PredicateDistribution::Permutation,
            mutation_epoch: 0,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration for tests (2^12 rows).
    pub fn small() -> Self {
        WorkloadConfig { rows: 1 << 12, ..Default::default() }
    }

    /// The default configuration scaled to `rows`.
    pub fn with_rows(rows: u64) -> Self {
        WorkloadConfig { rows, ..Default::default() }
    }
}

/// The five indexes the paper's thirteen plans use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadIndexes {
    /// Single-column non-clustered index on `a`.
    pub a: IndexId,
    /// Single-column non-clustered index on `b`.
    pub b: IndexId,
    /// Single-column non-clustered index on `c`.
    pub c: IndexId,
    /// Two-column index on `(a, b)`.
    pub ab: IndexId,
    /// Two-column index on `(b, a)`.
    pub ba: IndexId,
}

/// A fully built workload: database, table, indexes, calibrators.
pub struct Workload {
    /// The database (read-only from here on).
    pub db: Database,
    /// The lineitem-like table.
    pub table: TableId,
    /// The indexes.
    pub indexes: WorkloadIndexes,
    /// Calibrator for predicate column `a`.
    pub cal_a: Calibrator,
    /// Calibrator for predicate column `b`.
    pub cal_b: Calibrator,
    /// The configuration that produced this workload.
    pub config: WorkloadConfig,
}

impl Workload {
    /// Rows in the table.
    pub fn rows(&self) -> u64 {
        self.config.rows
    }

    /// Heap pages of the table (the table scan's page count).
    pub fn heap_pages(&self) -> u32 {
        self.db.table(self.table).heap.page_count()
    }

    /// The leading key column of an index, straight from the catalog.
    ///
    /// Cost estimators must not hard-code which column an index id leads
    /// on (index ids are allocation-ordered and reordering index creation
    /// would silently mis-cost every index plan); this is the metadata
    /// they should consult instead.
    pub fn leading_column(&self, index: IndexId) -> usize {
        self.db.index(index).key_columns[0]
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("rows", &self.config.rows)
            .field("heap_pages", &self.heap_pages())
            .field("seed", &self.config.seed)
            .finish()
    }
}

/// The fill factor freshly built indexes are bulk-loaded with (the
/// customary default).
pub const INDEX_FILL: f64 = 0.9;

/// The schema of the lineitem-like table (shared by the generator and the
/// workload cache's load path).
pub fn lineitem_schema() -> Schema {
    Schema::new(vec![
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
        ("c", ColumnType::Int),
        ("orderkey", ColumnType::Int),
        ("payload", ColumnType::Money),
    ])
}

/// The five index definitions, in catalog order: `(name, key columns)`.
pub const INDEX_DEFS: [(&str, &[usize]); 5] = [
    ("idx_a", &[COL_A]),
    ("idx_b", &[COL_B]),
    ("idx_c", &[COL_C]),
    ("idx_ab", &[COL_A, COL_B]),
    ("idx_ba", &[COL_B, COL_A]),
];

/// Builds [`Workload`]s from [`WorkloadConfig`]s.
pub struct TableBuilder;

impl TableBuilder {
    /// Generate the table, build all five indexes, and calibrate.
    ///
    /// Columns `a` and `b` are drawn on two scoped threads while the caller
    /// draws `c` and the payload; the heap is then appended row by row on
    /// the caller.  Always generates from scratch; `finish` builds the
    /// indexes and calibrators.  Callers that rebuild the same
    /// configuration repeatedly should prefer [`TableBuilder::build_cached`].
    pub fn build(config: WorkloadConfig) -> Workload {
        let n = config.rows;
        assert!(n >= 4, "workload too small");
        let mut db = Database::new();
        let table = db.create_table("lineitem", lineitem_schema());

        // Each column is its own sequential stream, so drawn apart the
        // columns hold every value a row-by-row loop would.
        let (dist_a, dist_b) = predicate_dists(&config);
        let draw = |mut dist: Box<dyn Distribution + Send>| -> Vec<i64> {
            (0..n).map(|i| dist.value(i)).collect()
        };
        let (a, b, (c, payload)) = fork_join(
            || draw(dist_a),
            || draw(dist_b),
            || {
                let c = draw(Box::new(Permutation::new(n, config.seed.wrapping_add(3))));
                (c, draw(Box::new(Uniform::new(1 << 20, config.seed.wrapping_add(4)))))
            },
        );
        let cols = [a, b, c];
        let rids: Vec<Rid> = (0..n as usize)
            .map(|i| {
                let row = Row::from_slice(&[
                    cols[COL_A][i],
                    cols[COL_B][i],
                    cols[COL_C][i],
                    i as i64,
                    payload[i],
                ]);
                db.insert_row(table, &row).expect("generated row must fit schema")
            })
            .collect();
        drop(payload); // in the heap now: freed before the sorts allocate
        finish(config, db, table, &cols, &rids)
    }

    /// [`TableBuilder::build`] behind the content-addressed workload cache:
    /// a hit reads the heap from `target/workload-cache/` and finishes it
    /// as a build would, a miss builds fresh and stores the heap for every
    /// later binary and test invocation.  See [`crate::cache`] for the
    /// location, the environment override and what a hit saves.
    pub fn build_cached(config: WorkloadConfig) -> Workload {
        if let Some(w) = crate::cache::load(&config) {
            return w;
        }
        let w = Self::build(config);
        crate::cache::store(&w);
        w
    }
}

/// Everything a workload holds beyond its heap, built from the heap's
/// columns `a`, `b`, `c` (`cols`, by column position) and rids in physical
/// order: the one index-construction path.  [`TableBuilder::build`] passes
/// the values it generated and [`crate::cache::load`] the values it read
/// back out of the stored pages, so a cached workload equals a built one
/// by construction.
///
/// Three column orders are sorted and nothing else: each of `a`, `b`, `c`
/// radix-sorts its row positions — `a` and `b` on scoped threads, `c` on
/// the caller's meanwhile, each worker deriving its column's composite
/// order and calibrator as well.  Because the rids ascend with position, a
/// stable order by value is the `(key, rid)` order of a one-column index; a
/// two-column index's order is its leading column's with each run of equal
/// values stably re-sorted by the second; a calibrator is its column
/// gathered in order.  The trees are loaded straight from those orders by
/// the B-tree's `bulk_load_columns`, which gathers each entry at its key's
/// width into the leaf it belongs to, on the caller's thread, in
/// [`INDEX_DEFS`] order.  At 2^18 rows on 2 vCPUs the five loads take
/// 18–23 ms in a warm process (25–31 ms in a fresh one), where building a
/// `Key` per entry into a buffer and copying each leaf took 27–37 ms
/// (30–48).  Loading the trees on the sort workers instead took `setup_s`
/// down 11.5 % but put `cpu_s` and `wall_s` up 3.8 % and 3.9 % (8
/// order-balanced pairs, 2 vCPUs), and still 2.7 % `cpu_s` with
/// `MALLOC_ARENA_MAX=1` on both sides, so allocator arenas alone do not
/// explain the slower sweeps; leaves the caller allocates and the
/// workers fill put `setup_s` up 10.3 %.
pub(crate) fn finish(
    config: WorkloadConfig,
    mut db: Database,
    table: TableId,
    cols: &[Vec<i64>; 3],
    rids: &[Rid],
) -> Workload {
    assert!(rids.windows(2).all(|w| w[0] < w[1]), "rids must come in physical order");
    let [a, b, c] = cols.each_ref().map(Vec::as_slice);
    let ((by_a, by_ab, cal_a), (by_b, by_ba, cal_b), by_c) =
        fork_join(|| predicate_orders(a, b), || predicate_orders(b, a), || order_by(c));

    // File ids are allocated in the order `create_index` would have.
    let ids: Vec<IndexId> = INDEX_DEFS
        .iter()
        .map(|&(name, key_cols)| {
            let order = match key_cols {
                [COL_A] => &by_a,
                [COL_B] => &by_b,
                [COL_C] => &by_c,
                [COL_A, COL_B] => &by_ab,
                [COL_B, COL_A] => &by_ba,
                _ => unreachable!("an index of INDEX_DEFS without an order"),
            };
            let key: Vec<&[i64]> = key_cols.iter().map(|&col| cols[col].as_slice()).collect();
            let tree = BTree::bulk_load_columns(db.alloc_file(), &key, rids, order, INDEX_FILL);
            db.attach_index(name, table, key_cols, tree)
                .expect("INDEX_DEFS names columns of lineitem_schema")
        })
        .collect();
    let indexes = WorkloadIndexes { a: ids[0], b: ids[1], c: ids[2], ab: ids[3], ba: ids[4] };
    Workload { db, table, indexes, cal_a, cal_b, config }
}

/// `a` and `b` on two scoped threads while the caller runs `c`: how both
/// a build's column draw and [`finish`]'s column sorts use two cores.
fn fork_join<A: Send, B: Send, C>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
    c: impl FnOnce() -> C,
) -> (A, B, C) {
    std::thread::scope(|scope| {
        let (a, b) = (scope.spawn(a), scope.spawn(b));
        let c = c();
        (a.join().expect("worker a"), b.join().expect("worker b"), c)
    })
}

/// Row positions in ascending order of `col`, equal values in position
/// order: one stable radix sort by value, its sign bit flipped so that
/// unsigned order is signed order.  When the values differ only within 32
/// adjacent bits — as every generated column does — a row sorts as one
/// `u64`, those bits above its position: half the bytes of a `(value,
/// position)` pair, so the sort moves half the memory.
fn order_by(col: &[i64]) -> Vec<u32> {
    let positions = 0..u32::try_from(col.len()).expect("row positions fit in u32");
    let key = |v: i64| v as u64 ^ (1 << 63);
    let first = col.first().map_or(0, |&v| key(v));
    let differing = col.iter().fold(0, |d, &v| d | (key(v) ^ first));
    let low = differing.trailing_zeros() % 64;
    if differing >> low >> 32 == 0 {
        let mut rows: Vec<u64> = col
            .iter()
            .zip(positions)
            .map(|(&v, p)| ((key(v) >> low) << 32) | u64::from(p))
            .collect();
        radix_sort_by_u64_key(&mut rows, &mut Vec::new(), |&r| r >> 32);
        rows.into_iter().map(|r| r as u32).collect()
    } else {
        let mut pairs: Vec<(u64, u32)> =
            col.iter().zip(positions).map(|(&v, p)| (key(v), p)).collect();
        radix_sort_by_u64_key(&mut pairs, &mut Vec::new(), |&(k, _)| k);
        pairs.into_iter().map(|(_, p)| p).collect()
    }
}

/// What a predicate column `lead` gives a workload: its order, the order of
/// the `(lead, then)` index — `lead`'s order with each run of equal values
/// stably re-sorted by `then`, so ties stay in position order — and its
/// calibrator, built from values that already come sorted.
fn predicate_orders(lead: &[i64], then: &[i64]) -> (Vec<u32>, Vec<u32>, Calibrator) {
    let order = order_by(lead);
    let mut pair_order = order.clone();
    for run in pair_order.chunk_by_mut(|&p, &q| lead[p as usize] == lead[q as usize]) {
        run.sort_by_key(|&p| then[p as usize]);
    }
    let calibrator = Calibrator::from_ascending(order.iter().map(|&p| lead[p as usize]).collect());
    (order, pair_order, calibrator)
}

/// The generators for predicate columns `a` and `b`.  Most distributions
/// draw the two columns independently (seeds `seed+1` and `seed+2`); the
/// correlated family derives column `b` from column `a`'s permutation.
fn predicate_dists(
    config: &WorkloadConfig,
) -> (Box<dyn Distribution + Send>, Box<dyn Distribution + Send>) {
    let (sa, sb) = (config.seed.wrapping_add(1), config.seed.wrapping_add(2));
    match config.predicate_dist {
        PredicateDistribution::Permutation => (
            Box::new(Permutation::new(config.rows, sa)),
            Box::new(Permutation::new(config.rows, sb)),
        ),
        PredicateDistribution::Uniform => {
            let domain = (config.rows / 16).max(16);
            (Box::new(Uniform::new(domain, sa)), Box::new(Uniform::new(domain, sb)))
        }
        PredicateDistribution::ZipfHundredths(h) => (
            Box::new(Zipf::new(4096, h as f64 / 100.0, sa)),
            Box::new(Zipf::new(4096, h as f64 / 100.0, sb)),
        ),
        PredicateDistribution::CorrelatedHundredths(rho) => {
            let base = Permutation::new(config.rows, sa);
            let correlated = Correlated::new(base.clone(), rho as f64 / 100.0, sb);
            (Box::new(base), Box::new(correlated))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_storage::Session;

    /// Both layouts of `order_by` — one `u64` a row when the values differ
    /// within 32 bits, `(value, position)` pairs when they do not — are a
    /// stable sort by value, on both sides of the radix sort's cut-overs.
    #[test]
    fn order_by_is_a_stable_sort_by_value_in_both_layouts() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut word = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        /// Maps a random word to a value.
        type Value = fn(u64) -> i64;
        let spans: [(&str, Value); 4] = [
            ("32 bits", |r| (r >> 32) as i64),
            ("33 bits", |r| (r >> 31) as i64),
            ("extremes", |r| [i64::MIN, -1, 0, i64::MAX][(r % 4) as usize]),
            ("few values", |r| (r % 5) as i64 * 1_000_000),
        ];
        let rows = robustmap_storage::radix::RADIX_MSD_MIN_BYTES / 8;
        for (span, value) in spans {
            for n in [1, 300, rows - 1, rows] {
                let col: Vec<i64> = (0..n).map(|_| value(word())).collect();
                let mut want: Vec<u32> = (0..n as u32).collect();
                want.sort_by_key(|&p| col[p as usize]);
                assert!(order_by(&col) == want, "{span}, {n} rows");
            }
        }
    }

    #[test]
    fn build_small_workload() {
        let w = TableBuilder::build(WorkloadConfig::small());
        assert_eq!(w.rows(), 1 << 12);
        assert_eq!(w.db.index_count(), 5);
        assert!(w.heap_pages() > 10);
        // Every index holds exactly one entry per row.
        for idx in [w.indexes.a, w.indexes.b, w.indexes.c, w.indexes.ab, w.indexes.ba] {
            assert_eq!(w.db.index(idx).tree.len(), 1 << 12);
            w.db.index(idx).tree.check_invariants().unwrap();
        }
    }

    #[test]
    fn leading_columns_come_from_the_catalog_for_all_five_indexes() {
        let w = TableBuilder::build(WorkloadConfig::small());
        assert_eq!(w.leading_column(w.indexes.a), COL_A);
        assert_eq!(w.leading_column(w.indexes.b), COL_B);
        assert_eq!(w.leading_column(w.indexes.c), COL_C);
        assert_eq!(w.leading_column(w.indexes.ab), COL_A);
        assert_eq!(w.leading_column(w.indexes.ba), COL_B);
        // The accessor reads the catalog, not the id: it agrees with the
        // index definitions whatever order allocation happened in.
        for (id, def) in w.db.indexes_on(w.table) {
            assert_eq!(w.leading_column(id), def.key_columns[0], "{}", def.name);
        }
    }

    #[test]
    fn permutation_workload_has_exact_selectivities() {
        let w = TableBuilder::build(WorkloadConfig::small());
        let n = w.rows();
        for exp in [0u32, 1, 4, 8] {
            let sel = 1.0 / (1u64 << exp) as f64;
            let (_, count_a) = w.cal_a.threshold_with_count(sel);
            let (_, count_b) = w.cal_b.threshold_with_count(sel);
            assert_eq!(count_a, n >> exp);
            assert_eq!(count_b, n >> exp);
        }
    }

    #[test]
    fn predicate_columns_are_independent_permutations() {
        let w = TableBuilder::build(WorkloadConfig::small());
        let s = Session::with_pool_pages(0);
        let mut same = 0u64;
        w.db.table(w.table).heap.scan(&s, |_, row| {
            if row.get(COL_A) == row.get(COL_B) {
                same += 1;
            }
        });
        // Two independent permutations of 0..n collide ~once.
        assert!(same < 10, "a and b look correlated: {same} matches");
    }

    #[test]
    fn deterministic_across_builds() {
        let w1 = TableBuilder::build(WorkloadConfig::small());
        let w2 = TableBuilder::build(WorkloadConfig::small());
        let s = Session::with_pool_pages(0);
        let mut rows1 = Vec::new();
        w1.db.table(w1.table).heap.scan(&s, |_, r| rows1.push(r.values().to_vec()));
        let mut rows2 = Vec::new();
        w2.db.table(w2.table).heap.scan(&s, |_, r| rows2.push(r.values().to_vec()));
        assert_eq!(rows1, rows2);
    }

    #[test]
    fn different_seeds_differ() {
        // A permutation column always holds 0..n, so thresholds are
        // seed-independent — but the *placement* of values must differ.
        let mut cfg = WorkloadConfig::small();
        cfg.seed = 1;
        let w1 = TableBuilder::build(cfg.clone());
        cfg.seed = 2;
        let w2 = TableBuilder::build(cfg);
        let first_rows = |w: &Workload| {
            let s = Session::with_pool_pages(0);
            let mut vals = Vec::new();
            w.db.table(w.table).heap.scan(&s, |_, r| {
                if vals.len() < 32 {
                    vals.push(r.get(COL_A));
                }
            });
            vals
        };
        assert_ne!(first_rows(&w1), first_rows(&w2));
        // Thresholds agree (both are permutations of the same domain).
        assert_eq!(w1.cal_a.threshold(0.25), w2.cal_a.threshold(0.25));
    }

    #[test]
    fn correlated_workload_matches_rho_and_keeps_exact_a_selectivities() {
        for rho in [0u32, 50, 100] {
            let cfg = WorkloadConfig {
                rows: 1 << 12,
                seed: 7,
                predicate_dist: PredicateDistribution::CorrelatedHundredths(rho),
                mutation_epoch: 0,
            };
            let w = TableBuilder::build(cfg);
            // Column a stays an exact permutation: calibrated thresholds hit
            // their targets exactly.
            let (_, count) = w.cal_a.threshold_with_count(0.25);
            assert_eq!(count, 1 << 10, "rho {rho}");
            // The a == b match fraction tracks rho (fresh-uniform draws add
            // ~1/n accidental matches).
            let s = Session::with_pool_pages(0);
            let mut same = 0u64;
            w.db.table(w.table).heap.scan(&s, |_, row| {
                if row.get(COL_A) == row.get(COL_B) {
                    same += 1;
                }
            });
            let frac = same as f64 / w.rows() as f64;
            assert!(
                (frac - rho as f64 / 100.0).abs() < 0.03,
                "rho {rho}: match fraction {frac:.3}"
            );
        }
    }

    #[test]
    fn zipf_workload_builds_and_calibrates() {
        let cfg = WorkloadConfig {
            rows: 1 << 12,
            seed: 5,
            predicate_dist: PredicateDistribution::ZipfHundredths(110),
            mutation_epoch: 0,
        };
        let w = TableBuilder::build(cfg);
        let (t, count) = w.cal_a.threshold_with_count(0.5);
        assert!(count >= (1 << 11), "threshold {t} count {count}");
    }
}
