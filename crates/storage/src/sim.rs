//! Deterministic cost model and simulated clock.
//!
//! The paper's robustness maps plot *measured elapsed times* on real
//! hardware.  We replace the hardware with a cost model: operators still do
//! all their real work against real data structures, and every page access
//! and unit of CPU work is charged to a [`SimClock`].  The constants below
//! are calibrated so that the landmark features of the paper's Figure 1
//! (break-even points, relative factors) appear at the selectivities the
//! paper reports; see `EXPERIMENTS.md` for the calibration record.

use std::cell::Cell;

/// How a page access hits the (simulated) disk.
///
/// The distinction drives the paper's central effects: a table scan issues
/// large sequential reads, a traditional index fetch issues one random read
/// per qualifying row, and the "improved" index scan converts random reads
/// into (slower-than-scan) single-page in-order reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Part of a multi-page read-ahead run (table scans, bulk leaf scans).
    Sequential,
    /// In physical order but fetched one page at a time (no read-ahead).
    SinglePage,
    /// A seek to an unrelated location (index fetch of a scattered row).
    Random,
}

/// Cost constants for the simulated machine.
///
/// All times are in seconds, for the estimators that reason in seconds;
/// the clock itself charges the same constants as whole picoseconds
/// ([`CostModel::ticks`]).  The defaults model a 2009-era enterprise disk
/// subsystem, matching the paper's experimental environment; alternative
/// presets support ablations over the memory hierarchy (paper §4).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Page size in bytes (fixed by [`crate::page::PAGE_SIZE`], recorded
    /// here for reporting).
    pub page_size: usize,
    /// Cost of one page inside a sequential read-ahead run.
    pub seq_page_read: f64,
    /// Cost of a page read in physical order but without read-ahead.
    pub single_page_read: f64,
    /// Cost of a random page read (seek + rotational delay + transfer).
    pub random_page_read: f64,
    /// Cost of writing one page (run files, spill partitions).
    pub page_write: f64,
    /// CPU cost of producing/consuming one row.
    pub cpu_row: f64,
    /// CPU cost of one key comparison.
    pub cpu_compare: f64,
    /// CPU cost of one hash-table operation (hash + probe step).
    pub cpu_hash: f64,
    /// CPU cost of looking a page up in the buffer pool (charged on hits).
    pub cpu_buffer_hit: f64,
    /// Fixed cost of starting/coordinating one parallel worker.
    pub parallel_startup: f64,
}

impl CostModel {
    /// 2009-era disk-subsystem constants (the paper's hardware
    /// generation: an enterprise RAID array, where parallel spindles and
    /// command queueing push *effective* random reads below a single
    /// drive's seek time).
    ///
    /// Calibration: the traditional index fetch breaks even with the table
    /// scan when the result has about `heap_pages * seq_page_read /
    /// random_page_read` rows.  With the default workload's ~186 rows per
    /// 8 KiB page, `random = 0.7 ms` puts that break-even at `~2^-11` of
    /// the table — where Figure 1 of the paper reports it.  The
    /// single-page/sequential ratio of 2.5 reproduces the paper's "about
    /// 2.5 times worse than a table scan" for the improved index scan at
    /// selectivity 1.  `EXPERIMENTS.md` records the measured landmarks.
    pub fn hdd_2009() -> Self {
        CostModel {
            page_size: crate::page::PAGE_SIZE,
            seq_page_read: 40e-6,
            single_page_read: 100e-6,
            random_page_read: 0.7e-3,
            page_write: 100e-6,
            cpu_row: 50e-9,
            cpu_compare: 5e-9,
            cpu_hash: 20e-9,
            cpu_buffer_hit: 1e-7,
            parallel_startup: 0.5e-3,
        }
    }

    /// A memory-resident preset: all page accesses cost a buffer hit, so
    /// only CPU effects remain.  Useful to isolate algorithmic CPU shapes.
    pub fn in_memory() -> Self {
        CostModel {
            random_page_read: 1e-7,
            single_page_read: 1e-7,
            seq_page_read: 1e-7,
            page_write: 1e-7,
            ..Self::hdd_2009()
        }
    }

    /// The model as the clock charges it: every constant rounded to the
    /// nearest picosecond.  The presets are whole numbers of picoseconds,
    /// so for them nothing is lost.
    ///
    /// # Panics
    /// Panics if a constant is negative, not finite, or too large to count
    /// in picoseconds.
    pub fn ticks(&self) -> CostTicks {
        let q = |name: &str, seconds: f64| {
            let ticks = (seconds * TICKS_PER_SECOND as f64).round();
            assert!(
                (0.0..u64::MAX as f64).contains(&ticks),
                "cost model: {name} = {seconds} s cannot be counted in picoseconds"
            );
            ticks as u64
        };
        CostTicks {
            seq_page_read: q("seq_page_read", self.seq_page_read),
            single_page_read: q("single_page_read", self.single_page_read),
            random_page_read: q("random_page_read", self.random_page_read),
            page_write: q("page_write", self.page_write),
            cpu_row: q("cpu_row", self.cpu_row),
            cpu_compare: q("cpu_compare", self.cpu_compare),
            cpu_hash: q("cpu_hash", self.cpu_hash),
            cpu_buffer_hit: q("cpu_buffer_hit", self.cpu_buffer_hit),
            parallel_startup: q("parallel_startup", self.parallel_startup),
        }
    }
}

/// Clock ticks per simulated second: a tick is one picosecond, so a `u64`
/// holds 213 simulated days.
pub const TICKS_PER_SECOND: u64 = 1_000_000_000_000;

// Trace events are stamped in these ticks and `obs` (a leaf crate) turns
// them into seconds at its exporters: the two must agree on the unit.
const _: () = assert!(TICKS_PER_SECOND == robustmap_obs::trace::TICKS_PER_SECOND);

/// Ticks as seconds.  A division, so the result is the correctly rounded
/// quotient: 4 461 120 000 ticks read `4.46112e-3`.
#[inline]
pub fn ticks_to_seconds(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_SECOND as f64
}

/// A run long enough to overflow the clock has a broken cost model or a
/// runaway loop: stop rather than wrap.  No honest run comes near it — a
/// full-scale worst case reads below 1/1024 of the clock
/// (`a_full_scale_worst_case_stays_far_below_the_clock`) — so this stays a
/// runaway-loop guard, not an error a query handles.
const OVERFLOW: &str = "simulated clock overflowed u64 picoseconds";

/// `a * b + c` in ticks.
#[inline]
fn mul_add(a: u64, b: u64, c: u64) -> u64 {
    a.checked_mul(b).and_then(|ab| ab.checked_add(c)).expect(OVERFLOW)
}

/// A [`CostModel`] in whole clock ticks ([`CostModel::ticks`]): what the
/// clock actually charges, so every charge is an integer multiply-add and
/// charges commute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostTicks {
    /// One page inside a sequential read-ahead run.
    pub seq_page_read: u64,
    /// One page read in physical order without read-ahead.
    pub single_page_read: u64,
    /// One random page read.
    pub random_page_read: u64,
    /// One page written.
    pub page_write: u64,
    /// One row produced or consumed.
    pub cpu_row: u64,
    /// One key comparison.
    pub cpu_compare: u64,
    /// One hash-table operation.
    pub cpu_hash: u64,
    /// One buffer-pool hit.
    pub cpu_buffer_hit: u64,
    /// Starting one parallel worker.
    pub parallel_startup: u64,
}

/// The clock's price list: each of the eight counters of `$io` beside
/// what `$prices` charges for one of it.  The clock's closed form
/// ([`CostTicks::of`]) and the estimators' ([`CostModel::seconds`]) both
/// read this one list.
macro_rules! price_list {
    ($io:expr, $prices:expr) => {
        [
            ($io.seq_reads, $prices.seq_page_read),
            ($io.single_reads, $prices.single_page_read),
            ($io.random_reads, $prices.random_page_read),
            ($io.page_writes, $prices.page_write),
            ($io.buffer_hits, $prices.cpu_buffer_hit),
            ($io.cpu_rows, $prices.cpu_row),
            ($io.cpu_compares, $prices.cpu_compare),
            ($io.cpu_hashes, $prices.cpu_hash),
        ]
    };
}

impl CostTicks {
    /// The closed form of the clock: the ticks a serial execution with
    /// these counters was charged, `Σ counter × cost`.  (A parallel scan
    /// sums its workers' counters but charges only the slowest worker and
    /// the start-ups, so it alone does not read this.)
    pub fn of(&self, io: &IoStats) -> u64 {
        price_list!(io, self).into_iter().fold(0, |sum, (n, cost)| mul_add(n, cost, sum))
    }
}

impl CostModel {
    /// The seconds a run expected to charge the counters `io` would take:
    /// the clock's closed form over the same price list, in seconds.
    #[inline]
    pub fn seconds(&self, io: &IoExpect) -> f64 {
        // Summed as a tree: the estimators call this in their inner loop.
        let p = price_list!(io, self).map(|(n, cost)| n * cost);
        ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::hdd_2009()
    }
}

/// Counters describing the I/O and CPU work a query performed.
///
/// A plain-old-data snapshot; obtained from [`SimClock::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read as part of sequential read-ahead runs.
    pub seq_reads: u64,
    /// Pages read in order but one page at a time.
    pub single_reads: u64,
    /// Random page reads.
    pub random_reads: u64,
    /// Pages written (sort runs, spill partitions).
    pub page_writes: u64,
    /// Page requests satisfied by the buffer pool.
    pub buffer_hits: u64,
    /// Rows processed.
    pub cpu_rows: u64,
    /// Key comparisons performed.
    pub cpu_compares: u64,
    /// Hash-table operations performed.
    pub cpu_hashes: u64,
}

impl IoStats {
    /// Total pages read from the simulated disk (misses only).
    pub fn pages_read(&self) -> u64 {
        self.seq_reads + self.single_reads + self.random_reads
    }

    /// Total page requests, including buffer hits.
    pub fn page_requests(&self) -> u64 {
        self.pages_read() + self.buffer_hits
    }

    /// Element-wise difference (`self - earlier`); saturates at zero.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads.saturating_sub(earlier.seq_reads),
            single_reads: self.single_reads.saturating_sub(earlier.single_reads),
            random_reads: self.random_reads.saturating_sub(earlier.random_reads),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            buffer_hits: self.buffer_hits.saturating_sub(earlier.buffer_hits),
            cpu_rows: self.cpu_rows.saturating_sub(earlier.cpu_rows),
            cpu_compares: self.cpu_compares.saturating_sub(earlier.cpu_compares),
            cpu_hashes: self.cpu_hashes.saturating_sub(earlier.cpu_hashes),
        }
    }
}

/// The counters of [`IoStats`] as expectations: what an estimator
/// predicts a plan will charge before it runs, priced by
/// [`CostModel::seconds`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoExpect {
    /// Pages read as part of sequential read-ahead runs.
    pub seq_reads: f64,
    /// Pages read in order but one page at a time.
    pub single_reads: f64,
    /// Random page reads.
    pub random_reads: f64,
    /// Pages written.
    pub page_writes: f64,
    /// Page requests satisfied by the buffer pool.
    pub buffer_hits: f64,
    /// Rows processed.
    pub cpu_rows: f64,
    /// Key comparisons performed.
    pub cpu_compares: f64,
    /// Hash-table operations performed.
    pub cpu_hashes: f64,
}

/// The simulated clock: accumulates charged ticks (picoseconds) and work
/// counters.  Integer addition is associative and commutative, so elapsed
/// time depends on *what* was charged, never on the order or the grouping
/// of the calls: `n` charges of one row and one charge of `n` rows read
/// the same.
///
/// Single-threaded by design — each query execution owns one clock — so
/// interior mutability uses [`Cell`] rather than atomics.
#[derive(Debug, Default)]
pub struct SimClock {
    ticks: Cell<u64>,
    seq_reads: Cell<u64>,
    single_reads: Cell<u64>,
    random_reads: Cell<u64>,
    page_writes: Cell<u64>,
    buffer_hits: Cell<u64>,
    cpu_rows: Cell<u64>,
    cpu_compares: Cell<u64>,
    cpu_hashes: Cell<u64>,
}

impl SimClock {
    /// A fresh clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulated seconds elapsed so far ([`SimClock::elapsed_ticks`] read
    /// as seconds).
    #[inline]
    pub fn elapsed(&self) -> f64 {
        ticks_to_seconds(self.ticks.get())
    }

    /// Ticks elapsed so far.
    #[inline]
    pub fn elapsed_ticks(&self) -> u64 {
        self.ticks.get()
    }

    /// Advance the clock by `n` units of `cost` ticks and count them.
    #[inline]
    fn charge(&self, counter: &Cell<u64>, n: u64, cost: u64) {
        self.ticks.set(mul_add(n, cost, self.ticks.get()));
        counter.set(counter.get() + n);
    }

    /// Advance time by `ticks` without counting any work (parallel
    /// operators: the critical path of work counted by
    /// [`SimClock::add_counters`]).
    #[inline]
    pub fn advance(&self, ticks: u64) {
        self.ticks.set(self.ticks.get().checked_add(ticks).expect(OVERFLOW));
    }

    /// Charge `n` disk reads of `kind` and count them.
    #[inline]
    pub fn charge_reads(&self, costs: &CostTicks, kind: AccessKind, n: u64) {
        let (counter, cost) = match kind {
            AccessKind::Sequential => (&self.seq_reads, costs.seq_page_read),
            AccessKind::SinglePage => (&self.single_reads, costs.single_page_read),
            AccessKind::Random => (&self.random_reads, costs.random_page_read),
        };
        self.charge(counter, n, cost);
    }

    /// Charge a page write and count it.
    #[inline]
    pub fn charge_write(&self, costs: &CostTicks) {
        self.charge(&self.page_writes, 1, costs.page_write);
    }

    /// Charge `n` buffer-pool hits and count them.
    #[inline]
    pub fn charge_buffer_hits(&self, costs: &CostTicks, n: u64) {
        self.charge(&self.buffer_hits, n, costs.cpu_buffer_hit);
    }

    /// Charge CPU for processing `n` rows.
    #[inline]
    pub fn charge_rows(&self, costs: &CostTicks, n: u64) {
        self.charge(&self.cpu_rows, n, costs.cpu_row);
    }

    /// Charge CPU for `n` key comparisons.
    #[inline]
    pub fn charge_compares(&self, costs: &CostTicks, n: u64) {
        self.charge(&self.cpu_compares, n, costs.cpu_compare);
    }

    /// Charge CPU for `n` hash-table operations.
    #[inline]
    pub fn charge_hashes(&self, costs: &CostTicks, n: u64) {
        self.charge(&self.cpu_hashes, n, costs.cpu_hash);
    }

    /// Reset the clock to time zero with all counters cleared — exactly the
    /// state of a freshly constructed clock.  Sweep workers reuse one clock
    /// per thread and reset it between map cells.
    pub fn reset(&self) {
        self.ticks.set(0);
        self.seq_reads.set(0);
        self.single_reads.set(0);
        self.random_reads.set(0);
        self.page_writes.set(0);
        self.buffer_hits.set(0);
        self.cpu_rows.set(0);
        self.cpu_compares.set(0);
        self.cpu_hashes.set(0);
    }

    /// Add another execution's counters without advancing time.  Parallel
    /// operators use this: total work is the sum over workers, while
    /// elapsed time is the critical path (added separately via
    /// [`SimClock::advance`]).
    pub fn add_counters(&self, stats: &IoStats) {
        self.seq_reads.set(self.seq_reads.get() + stats.seq_reads);
        self.single_reads.set(self.single_reads.get() + stats.single_reads);
        self.random_reads.set(self.random_reads.get() + stats.random_reads);
        self.page_writes.set(self.page_writes.get() + stats.page_writes);
        self.buffer_hits.set(self.buffer_hits.get() + stats.buffer_hits);
        self.cpu_rows.set(self.cpu_rows.get() + stats.cpu_rows);
        self.cpu_compares.set(self.cpu_compares.get() + stats.cpu_compares);
        self.cpu_hashes.set(self.cpu_hashes.get() + stats.cpu_hashes);
    }

    /// Snapshot the work counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads.get(),
            single_reads: self.single_reads.get(),
            random_reads: self.random_reads.get(),
            page_writes: self.page_writes.get(),
            buffer_hits: self.buffer_hits.get(),
            cpu_rows: self.cpu_rows.get(),
            cpu_compares: self.cpu_compares.get(),
            cpu_hashes: self.cpu_hashes.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_costs_are_ordered() {
        let m = CostModel::hdd_2009();
        assert!(m.seq_page_read < m.single_page_read);
        assert!(m.single_page_read < m.random_page_read);
    }

    #[test]
    fn presets_differ_in_random_penalty() {
        let hdd = CostModel::hdd_2009();
        let mem = CostModel::in_memory();
        let penalty = |m: &CostModel| m.random_page_read / m.seq_page_read;
        assert!(penalty(&hdd) > penalty(&mem));
        assert!(penalty(&mem) <= 2.0);
    }

    #[test]
    fn clock_accumulates_reads() {
        let m = CostModel::hdd_2009().ticks();
        let c = SimClock::new();
        c.charge_reads(&m, AccessKind::Sequential, 1);
        c.charge_reads(&m, AccessKind::Random, 2);
        let s = c.stats();
        assert_eq!(s.seq_reads, 1);
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.pages_read(), 3);
        assert_eq!(c.elapsed_ticks(), m.seq_page_read + 2 * m.random_page_read);
        assert_eq!(c.elapsed_ticks(), m.of(&s));
    }

    #[test]
    fn clock_accumulates_cpu_and_writes() {
        let m = CostModel::hdd_2009().ticks();
        let c = SimClock::new();
        c.charge_rows(&m, 100);
        c.charge_compares(&m, 7);
        c.charge_hashes(&m, 3);
        c.charge_write(&m);
        c.charge_buffer_hits(&m, 1);
        let s = c.stats();
        assert_eq!(s.cpu_rows, 100);
        assert_eq!(s.cpu_compares, 7);
        assert_eq!(s.cpu_hashes, 3);
        assert_eq!(s.page_writes, 1);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(c.elapsed_ticks(), m.of(&s));
        // Time without work: the closed form no longer covers it.
        c.advance(5);
        assert_eq!(c.elapsed_ticks(), m.of(&s) + 5);
    }

    /// Charges commute and regroup: the clock reads the multiset of work.
    #[test]
    fn charges_commute_and_regroup() {
        let m = CostModel::hdd_2009().ticks();
        let (a, b) = (SimClock::new(), SimClock::new());
        for _ in 0..186 {
            a.charge_rows(&m, 1);
            a.charge_compares(&m, 2);
        }
        a.charge_reads(&m, AccessKind::Sequential, 1);
        b.charge_reads(&m, AccessKind::Sequential, 1);
        b.charge_compares(&m, 372);
        b.charge_rows(&m, 186);
        assert_eq!(a.elapsed_ticks(), b.elapsed_ticks());
        assert_eq!(a.stats(), b.stats());
        // The figure-1 table scan of the smoke baseline, to the digit.
        assert_eq!(ticks_to_seconds(4_461_120_000), 4.46112e-3);
    }

    /// Every preset is a whole number of picoseconds: quantising loses
    /// nothing, field by field.
    #[test]
    fn presets_quantise_exactly() {
        for model in [CostModel::hdd_2009(), CostModel::in_memory()] {
            let t = model.ticks();
            for (ticks, seconds) in [
                (t.seq_page_read, model.seq_page_read),
                (t.single_page_read, model.single_page_read),
                (t.random_page_read, model.random_page_read),
                (t.page_write, model.page_write),
                (t.cpu_row, model.cpu_row),
                (t.cpu_compare, model.cpu_compare),
                (t.cpu_hash, model.cpu_hash),
                (t.cpu_buffer_hit, model.cpu_buffer_hit),
                (t.parallel_startup, model.parallel_startup),
            ] {
                assert_eq!(ticks_to_seconds(ticks), seconds, "{model:?}");
            }
        }
    }

    #[test]
    fn other_models_round_to_the_nearest_picosecond() {
        let model = CostModel { cpu_row: 1.4e-12, cpu_compare: 1.6e-12, cpu_hash: 0.0, ..CostModel::hdd_2009() };
        let t = model.ticks();
        assert_eq!((t.cpu_row, t.cpu_compare, t.cpu_hash), (1, 2, 0));
    }

    #[test]
    #[should_panic(expected = "cannot be counted in picoseconds")]
    fn a_negative_cost_is_rejected() {
        CostModel { cpu_row: -1e-9, ..CostModel::hdd_2009() }.ticks();
    }

    #[test]
    #[should_panic(expected = "cannot be counted in picoseconds")]
    fn a_cost_beyond_the_clock_is_rejected() {
        CostModel { random_page_read: 1e10, ..CostModel::hdd_2009() }.ticks();
    }

    #[test]
    #[should_panic(expected = "simulated clock overflowed")]
    fn overflow_panics_instead_of_wrapping() {
        let m = CostModel::hdd_2009().ticks();
        let c = SimClock::new();
        c.charge_reads(&m, AccessKind::Random, 1);
        c.charge_rows(&m, u64::MAX / m.cpu_row);
    }

    /// Overflow is out of an honest run's reach: 2^20 rows, each a random
    /// read, a page write, a row and 64 comparisons at the `hdd_2009`
    /// prices, sixteen times over, stay below 1/1024 of the clock.
    #[test]
    fn a_full_scale_worst_case_stays_far_below_the_clock() {
        let m = CostModel::hdd_2009().ticks();
        let c = SimClock::new();
        let rows = 16 << 20;
        c.charge_reads(&m, AccessKind::Random, rows);
        c.charge(&c.page_writes, rows, m.page_write);
        c.charge_rows(&m, rows);
        c.charge_compares(&m, 64 * rows);
        assert!(c.elapsed_ticks() < u64::MAX / 1024, "{} ticks", c.elapsed_ticks());
    }

    /// The estimators' price of expected counters is the clock's price of
    /// the same counters, read in seconds.
    #[test]
    fn seconds_price_counters_as_the_clock_charges_them() {
        let io = IoStats {
            seq_reads: 7,
            single_reads: 5,
            random_reads: 3,
            page_writes: 2,
            buffer_hits: 11,
            cpu_rows: 1_000,
            cpu_compares: 4_000,
            cpu_hashes: 300,
        };
        let expect = IoExpect {
            seq_reads: 7.0,
            single_reads: 5.0,
            random_reads: 3.0,
            page_writes: 2.0,
            buffer_hits: 11.0,
            cpu_rows: 1_000.0,
            cpu_compares: 4_000.0,
            cpu_hashes: 300.0,
        };
        for model in [CostModel::hdd_2009(), CostModel::in_memory()] {
            let clock = ticks_to_seconds(model.ticks().of(&io));
            assert!((model.seconds(&expect) - clock).abs() <= clock * 1e-12, "{model:?}");
        }
        assert_eq!(CostModel::hdd_2009().seconds(&IoExpect::default()), 0.0);
    }

    #[test]
    fn stats_since_subtracts() {
        let m = CostModel::hdd_2009().ticks();
        let c = SimClock::new();
        c.charge_reads(&m, AccessKind::Random, 1);
        let before = c.stats();
        c.charge_reads(&m, AccessKind::Random, 1);
        c.charge_rows(&m, 5);
        let delta = c.stats().since(&before);
        assert_eq!(delta.random_reads, 1);
        assert_eq!(delta.cpu_rows, 5);
        assert_eq!(delta.seq_reads, 0);
    }
}
