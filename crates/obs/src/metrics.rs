//! Counters and log-scale histograms with a deterministic text dump.
//!
//! The registry is intentionally boring: named `u64` counters plus
//! power-of-two-bucketed histograms, stored in `BTreeMap`s so the dump
//! is byte-stable across runs.  [`super::trace::TraceSink::metrics`]
//! folds a sink's recorded events into one (pool hit counts, per-quantum
//! charge distribution, spill files, adaptive checkpoints), and the
//! figures binary writes the dump next to the Chrome trace.

use std::collections::BTreeMap;

/// Number of histogram buckets: bucket 0 holds value 0, bucket `b > 0`
/// holds values with `ilog2(v) == b - 1`, i.e. `2^(b-1) <= v < 2^b`.
const BUCKETS: usize = 65;

/// A histogram over `u64` values with logarithmic (power-of-two)
/// buckets — coarse, but constant-size and deterministic.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl LogHistogram {
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            v.ilog2() as usize + 1
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound for the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive upper edge of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`.  Returns 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Bucket b holds [2^(b-1), 2^b - 1]; bucket 64 ends at u64::MAX.
                return if b == 0 { 0 } else { u64::MAX >> (64 - b) };
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Named counters and histograms with a byte-stable dump.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to counter `name`, creating it at 0.
    pub fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Record `v` in histogram `name`, creating it empty.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().observe(v);
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any value was observed.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Merge another registry into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Deterministic text dump: one line per metric, sorted by name.
    ///
    /// ```text
    /// counter io.hits 123
    /// hist quantum.page_touches count=12 sum=408 mean=34.00 p50<=63 p90<=127 max=96
    /// ```
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for (k, h) in &self.hists {
            out.push_str(&format!(
                "hist {k} count={} sum={} mean={:.2} p50<={} p90<={} max={}\n",
                h.count(),
                h.sum(),
                h.mean(),
                h.quantile_upper_bound(0.5),
                h.quantile_upper_bound(0.9),
                h.max(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = LogHistogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1049);
        assert_eq!(h.max(), 1024);
        // value 0 -> bucket 0, 1 -> bucket 1, {2,3} -> bucket 2,
        // {4,7} -> bucket 3, 8 -> bucket 4, 1024 -> bucket 11.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 2);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[11], 1);
    }

    #[test]
    fn quantile_bounds_are_upper_edges() {
        let mut h = LogHistogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        // p50 of 1..=100 is <= 63 (bucket 2^5..2^6-1 ends at 63).
        assert!(h.quantile_upper_bound(0.5) >= 50);
        assert!(h.quantile_upper_bound(1.0) >= 100);
        assert_eq!(LogHistogram::default().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn the_top_bucket_ends_at_u64_max() {
        let mut h = LogHistogram::default();
        h.observe(u64::MAX);
        assert_eq!(h.quantile_upper_bound(1.0), u64::MAX);
    }

    #[test]
    fn registry_dump_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.incr("z.last", 2);
        m.incr("a.first", 1);
        m.incr("a.first", 1);
        m.observe("lat", 4);
        m.observe("lat", 5);
        let dump = m.dump();
        let a = dump.find("counter a.first 2").expect("a.first");
        let z = dump.find("counter z.last 2").expect("z.last");
        assert!(a < z, "counters sorted by name");
        assert!(dump.contains("hist lat count=2 sum=9"));
        assert_eq!(dump, m.clone().dump(), "dump is deterministic");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.incr("c", 1);
        b.incr("c", 2);
        b.observe("h", 8);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 1);
    }
}
