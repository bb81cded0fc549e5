//! The metric catalogue and the shapes a run reports in: `name value unit`
//! lines for people, one JSON line for the pipeline, one JSON record per
//! run for `compare`.

use crate::json::Value;

/// A metric the benchmark reports: its name, unit, and which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Whether the value must repeat exactly for a given seed (across seeds
    /// it moves with the table, which is what `sim_s`'s bound allows for).
    pub exact: bool,
}

impl MetricDef {
    /// `v` as this metric writes it: a count without a fraction, anything
    /// else with every digit.
    fn value(&self, v: f64) -> Value {
        if self.unit == "count" {
            Value::Int(v as u64)
        } else {
            Value::Num(v)
        }
    }
}

const fn timing(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

/// What a user of the system sees, reported by every workload with
/// tracing off.  `BENCHMARK.json` lists the same names, with the bounds.
pub const END_TO_END: [MetricDef; 6] = [
    timing("setup_s", "s", "lower"),
    timing("wall_s", "s", "lower"),
    timing("cold_wall_s", "s", "lower"),
    timing("cpu_s", "s", "lower"),
    timing("peak_rss_mib", "MiB", "lower"),
    exact("sim_s", "sim-s", "lower"),
];

/// The per-layer ledger, reported by the traced run of every workload.
pub const PER_LAYER: [MetricDef; 55] = [
    // workload
    timing("workload.build_s", "s", "lower"),
    timing("workload.cache_store_s", "s", "lower"),
    timing("workload.cache_load_s", "s", "lower"),
    exact("workload.cache_bytes_per_row", "B/row", "lower"),
    timing("workload.stats_build_s", "s", "lower"),
    timing("workload.churn_rows_per_s", "rows/s", "higher"),
    timing("workload.stats_maint_us_per_batch", "us", "lower"),
    // storage
    timing("storage.btree_lookups_per_s", "1/s", "higher"),
    timing("storage.btree_scan_entries_per_s", "1/s", "higher"),
    timing("storage.heap_scan_rows_per_s", "rows/s", "higher"),
    timing("storage.page_requests_per_cpu_s", "1/s", "higher"),
    timing("storage.btree_write_ops_per_s", "1/s", "higher"),
    exact("storage.sim_buffer_hit_ratio", "ratio", "higher"),
    exact("storage.sim_pages_read", "count", "lower"),
    exact("storage.sim_page_writes", "count", "lower"),
    // executor
    timing("executor.table_scan_rows_per_s", "rows/s", "higher"),
    timing(
        "executor.index_fetch_traditional_rows_per_s",
        "rows/s",
        "higher",
    ),
    timing(
        "executor.index_fetch_improved_rows_per_s",
        "rows/s",
        "higher",
    ),
    timing("executor.index_fetch_bitmap_rows_per_s", "rows/s", "higher"),
    timing("executor.covering_scan_rows_per_s", "rows/s", "higher"),
    timing("executor.mdam_rows_per_s", "rows/s", "higher"),
    timing("executor.index_intersect_rows_per_s", "rows/s", "higher"),
    timing("executor.parallel_scan_rows_per_s", "rows/s", "higher"),
    timing("executor.sort_inmem_rows_per_s", "rows/s", "higher"),
    timing("executor.sort_spill_rows_per_s", "rows/s", "higher"),
    timing("executor.hash_join_rows_per_s", "rows/s", "higher"),
    timing("executor.merge_join_rows_per_s", "rows/s", "higher"),
    timing("executor.hash_agg_rows_per_s", "rows/s", "higher"),
    exact("executor.sim_cpu_rows", "count", "lower"),
    // systems
    timing("systems.plan_build_us", "us", "lower"),
    timing("systems.choose_point_per_s", "1/s", "higher"),
    timing("systems.choose_robust_per_s", "1/s", "higher"),
    timing("systems.choose_maintained_per_s", "1/s", "higher"),
    // core
    timing("core.measure.cells_per_s", "1/s", "higher"),
    timing("core.measure.cell_p50_ms", "ms", "lower"),
    timing("core.measure.cell_p99_ms", "ms", "lower"),
    timing("core.measure.cell_overhead_us", "us", "lower"),
    timing("core.measure.parallel_efficiency", "ratio", "higher"),
    timing("core.serve.queries_per_s_c1", "1/s", "higher"),
    timing("core.serve.queries_per_s_c8", "1/s", "higher"),
    timing("core.serve.queries_per_s_c64", "1/s", "higher"),
    timing("core.serve.queries_per_s_c256", "1/s", "higher"),
    timing("core.serve.handoff_us", "us", "lower"),
    exact("core.serve.handoffs", "count", "lower"),
    timing("core.serve.handoff_us_unpinned", "us", "lower"),
    timing("core.analysis_s", "s", "lower"),
    timing("core.render_s", "s", "lower"),
    // obs
    timing("obs.spans_overhead_ratio", "ratio", "lower"),
    timing("obs.full_overhead_ratio", "ratio", "lower"),
    exact("obs.events_per_burst", "count", "lower"),
    // bench
    timing("bench.figures_smoke_wall_s", "s", "lower"),
    // environment
    timing("env.calib_ms", "ms", "lower"),
    timing("env.calib_drift", "ratio", "lower"),
    timing("trace.overhead_ratio", "ratio", "lower"),
    timing("trace.spans", "count", "lower"),
];

/// Measured values for a list of [`MetricDef`]s, in catalogue order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Names in `defs` that have no value: a run that cannot measure a
    /// metric must say so rather than leave it out.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter()
            .map(|d| d.name)
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// `name value unit`, one metric per line, in catalogue order.
    pub fn lines(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            if let Some(v) = self.get(d.name) {
                out.push_str(&format!("{} {} {}\n", d.name, d.value(v).to_json(), d.unit));
            }
        }
        out
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the metrics in `defs`.
    pub fn to_json(&self, defs: &[MetricDef]) -> Value {
        Value::Obj(
            defs.iter()
                .filter_map(|d| {
                    let v = self.get(d.name)?;
                    Some((
                        d.name.to_string(),
                        Value::obj([("value", d.value(v)), ("unit", Value::str(d.unit))]),
                    ))
                })
                .collect(),
        )
    }
}

/// The one line the pipeline reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: Value) -> String {
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Int(attempted)),
        ("failed", Value::Int(failed)),
        ("metrics", metrics),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_defs() -> impl Iterator<Item = &'static MetricDef> {
        END_TO_END.iter().chain(PER_LAYER.iter())
    }

    #[test]
    fn metric_names_and_units_fit_the_contract_charsets() {
        for d in all_defs() {
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {:?} leaves [A-Za-z0-9_.-]",
                d.name
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                d.unit,
                d.name
            );
            assert!(d.better == "lower" || d.better == "higher");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = all_defs().map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Value::as_array).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(def.better),
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let setup = doc.get("end_to_end").unwrap().as_array().unwrap()[0]
            .get("bound")
            .unwrap();
        assert!(setup.as_f64().unwrap() <= 0.25);
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.203_456_789_012_345_6);
        m.set("setup_s", 0.8127);
        let line = result_line(1000, 0, m.to_json(&END_TO_END));
        let back = Value::parse(&line).unwrap();
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("attempted").unwrap().as_f64(), Some(1000.0));
        let wall = back.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(
            wall.get("value").unwrap().as_f64(),
            Some(1.203_456_789_012_345_6)
        );
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        // A metric without a value is absent, and `missing` names it.
        assert!(back.get("metrics").unwrap().get("cpu_s").is_none());
        assert_eq!(m.missing(&END_TO_END).len(), 4);
        assert!(result_line(5, 2, Value::obj::<&str>([])).contains("\"correct\": false"));
    }

    #[test]
    fn lines_print_name_value_unit() {
        let mut m = Metrics::default();
        m.set("core.serve.handoffs", 4096.0);
        m.set("env.calib_ms", 12.5);
        let text = m.lines(&PER_LAYER);
        assert_eq!(
            text,
            "core.serve.handoffs 4096 count\nenv.calib_ms 12.5 ms\n"
        );
    }
}
