//! Fixtures shared by the executor's differential suites.

#![allow(dead_code)] // each suite uses its own subset

use std::collections::BTreeMap;
use std::sync::Arc;

use robustmap::core::{MeasureConfig, ServeConfig};
use robustmap::executor::{
    run_collect, run_count, AggFn, ColRange, ExecCtx, ExecStats, FetchKind, IndexRangeSpec,
    IntersectAlgo, JoinAlgo, KeyRange, PlanSpec, Predicate, Projection, SpillMode,
    SwitchController,
};
use robustmap::obs::trace::{TraceDetail, TraceEventKind, TraceSink};
use robustmap::storage::{IndexId, Row, Session, TableId};
use robustmap::workload::Workload;

/// One row of the independence matrix: run-time conditions that no
/// simulated result may depend on.
pub struct Condition {
    /// For assertion labels.
    pub name: &'static str,
    /// Charge events per serving slice.
    pub quantum: u64,
    /// The sink every session and burst records into, if traced.
    pub trace: Option<Arc<TraceSink>>,
}

/// The independence matrix, named once: the defaults; a quantum that
/// divides nothing evenly (mid-operator suspension points); and the
/// defaults traced at full detail — one event per page request, the worst
/// case.  The differential suites run under all three, so a plain `cargo
/// test` is the whole proof.  The traced sink keeps few events (metrics
/// still count every one): the suites assert on charges, which tracing
/// must not move, not on the recording.
pub fn conditions() -> [Condition; 3] {
    let quantum = ServeConfig::default().quantum;
    let full = TraceSink::memory_with_cap(TraceDetail::Full, 1 << 12);
    [
        Condition { name: "default", quantum, trace: None },
        Condition { name: "quantum 513", quantum: 513, trace: None },
        Condition { name: "traced", quantum, trace: Some(Arc::new(full)) },
    ]
}

impl Condition {
    /// `base` under this condition.
    pub fn measure(&self, base: &MeasureConfig) -> MeasureConfig {
        MeasureConfig { trace: self.trace.clone(), ..base.clone() }
    }

    /// `base` under this condition.
    pub fn serve(&self, base: &ServeConfig) -> ServeConfig {
        ServeConfig { quantum: self.quantum, trace: self.trace.clone(), ..base.clone() }
    }
}

/// `base` under each condition of the matrix, labelled.
pub fn variants(base: &MeasureConfig) -> Vec<(String, MeasureConfig)> {
    conditions().into_iter().map(|c| (c.name.to_string(), c.measure(base))).collect()
}

/// Run `spec` on a fresh session under `cfg` — its pool, model, grant and
/// trace sink — without going through a `SweepArena`.
pub fn run_under(
    w: &Workload,
    spec: &PlanSpec,
    cfg: &MeasureConfig,
    controller: Option<&dyn SwitchController>,
) -> ExecStats {
    let (cfg, sink) = with_own_sink(cfg);
    let s = cfg.session();
    let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
    let stats = run_count(spec, &ctx, controller).expect("well-formed plan");
    assert_spans_are_the_operator_record(sink.as_deref(), &stats);
    stats
}

/// [`run_under`], keeping the result rows.
pub fn collect_under(
    w: &Workload,
    spec: &PlanSpec,
    cfg: &MeasureConfig,
    controller: Option<&dyn SwitchController>,
) -> (ExecStats, Vec<Row>) {
    let (cfg, sink) = with_own_sink(cfg);
    let s = cfg.session();
    let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
    let (stats, rows) = run_collect(spec, &ctx, controller).expect("well-formed plan");
    assert_spans_are_the_operator_record(sink.as_deref(), &stats);
    (stats, rows)
}

/// What `spec` returns, computed by brute force from the heap alone: the
/// rows of `HeapFile::scan` that pass the plan's conditions, projected, in
/// the order the plan emits them — physical for a table scan and a sorted
/// fetch, key order (ties in rid order, which is physical) for an
/// index-only plan — then a reference sort or group-by for a `Sort` or a
/// `HashAgg`.  It evaluates the shapes of the fifteen-plan catalog and of
/// the sort and aggregation composites, and panics on any other.
pub fn brute_force(w: &Workload, spec: &PlanSpec) -> Vec<Row> {
    let in_range =
        |range: &KeyRange, key: &[i64]| range.lo.values() <= key && key <= range.hi.values();
    match spec {
        PlanSpec::TableScan { table, pred, project } => {
            let hits = heap_rows(w, *table).filter(|row| pred.eval_free(row));
            hits.map(|row| project.apply(&row)).collect()
        }
        PlanSpec::IndexFetch { scan, key_filter, fetch, residual, project }
            if *fetch != FetchKind::Traditional =>
        {
            let index = w.db.index(scan.index);
            heap_rows(w, index.table)
                .filter(|row| {
                    let key = index.key_of(row);
                    in_range(&scan.range, key.values())
                        && key_filter.eval_free(&Row::from_slice(key.values()))
                        && residual.eval_free(row)
                })
                .map(|row| project.apply(&row))
                .collect()
        }
        PlanSpec::IndexIntersect { left, right, fetch, residual, project, .. }
            if *fetch != FetchKind::Traditional =>
        {
            let (li, ri) = (w.db.index(left.index), w.db.index(right.index));
            heap_rows(w, li.table)
                .filter(|row| {
                    in_range(&left.range, li.key_of(row).values())
                        && in_range(&right.range, ri.key_of(row).values())
                        && residual.eval_free(row)
                })
                .map(|row| project.apply(&row))
                .collect()
        }
        PlanSpec::CoveringIndexScan { scan, residual, project } => {
            let keys = index_keys(w, scan.index, |key| {
                in_range(&scan.range, key.values()) && residual.eval_free(key)
            });
            keys.iter().map(|key| project.apply(key)).collect()
        }
        PlanSpec::Mdam { index, col_ranges, project } => {
            let keys = index_keys(w, *index, |key| {
                col_ranges.iter().enumerate().all(|(c, &(lo, hi))| (lo..=hi).contains(&key.get(c)))
            });
            keys.iter().map(|key| project.apply(key)).collect()
        }
        PlanSpec::Sort { input, key_cols, .. } => {
            let mut rows = brute_force(w, input);
            let key = |row: &Row| key_cols.iter().map(|&c| row.get(c)).collect::<Vec<_>>();
            rows.sort_by(|a, b| key(a).cmp(&key(b)).then_with(|| a.values().cmp(b.values())));
            rows
        }
        PlanSpec::HashAgg { input, group_cols, aggs, .. } => {
            // Per group: count, sum, min, max of every aggregate's input.
            let mut groups: BTreeMap<Vec<i64>, Vec<[i64; 4]>> = BTreeMap::new();
            for row in brute_force(w, input) {
                let key = group_cols.iter().map(|&c| row.get(c)).collect();
                let empty = || vec![[0, 0, i64::MAX, i64::MIN]; aggs.len()];
                let states = groups.entry(key).or_insert_with(empty);
                for (st, agg) in states.iter_mut().zip(aggs) {
                    let v = match agg {
                        AggFn::CountStar => 0,
                        AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) => row.get(*c),
                    };
                    *st = [st[0] + 1, st[1].wrapping_add(v), st[2].min(v), st[3].max(v)];
                }
            }
            let value = |agg: &AggFn, st: &[i64; 4]| match agg {
                AggFn::CountStar => st[0],
                AggFn::Sum(_) => st[1],
                AggFn::Min(_) => st[2],
                AggFn::Max(_) => st[3],
            };
            groups
                .iter()
                .map(|(key, states)| {
                    let values = aggs.iter().zip(states).map(|(a, st)| value(a, st));
                    Row::from_slice(&key.iter().copied().chain(values).collect::<Vec<_>>())
                })
                .collect()
        }
        other => panic!("brute_force does not evaluate {}", other.synopsis()),
    }
}

/// Every row of `table`, in physical order, read without charging anyone.
fn heap_rows(w: &Workload, table: TableId) -> impl Iterator<Item = Row> {
    let mut rows = Vec::new();
    w.db.table(table).heap.scan(&Session::with_pool_pages(0), |_, row| rows.push(*row));
    rows.into_iter()
}

/// The keys of `index` over its table's rows that `keep` accepts, as rows
/// of key columns in key order, ties in rid order.
fn index_keys(w: &Workload, index: IndexId, keep: impl Fn(&Row) -> bool) -> Vec<Row> {
    let index = w.db.index(index);
    let mut keys: Vec<Row> = heap_rows(w, index.table)
        .map(|row| Row::from_slice(index.key_of(&row).values()))
        .filter(|key| keep(key))
        .collect();
    keys.sort_by(|a, b| a.values().cmp(b.values())); // stable
    keys
}

/// A traced `cfg` with a sink of its own for one run, at the same detail
/// (the matrix's shared sink keeps few events, and not this run's alone);
/// an untraced `cfg` as it is.
fn with_own_sink(cfg: &MeasureConfig) -> (MeasureConfig, Option<Arc<TraceSink>>) {
    let sink = cfg.trace.as_ref().map(|shared| Arc::new(TraceSink::memory(shared.detail())));
    (MeasureConfig { trace: sink.clone(), ..cfg.clone() }, sink)
}

/// The trace and the per-operator record are one story: every closed span
/// of a traced run, in closing order, is an [`ExecStats::operators`] entry
/// — same label, depth, rows and inclusive ticks — abandoned operators of
/// a bail included (their span closes with no rows, as their record says).
fn assert_spans_are_the_operator_record(sink: Option<&TraceSink>, stats: &ExecStats) {
    let Some(sink) = sink else { return };
    assert_eq!(sink.dropped(), 0, "the run's own sink dropped events");
    let events = sink.events();
    let mut open: Vec<(&str, u64)> = Vec::new();
    let mut closed: Vec<(&str, usize, u64, u64)> = Vec::new();
    for e in &events {
        match &e.kind {
            TraceEventKind::OpBegin { name, .. } => open.push((name, e.ticks)),
            TraceEventKind::OpEnd { depth, rows } => {
                let (name, begin) = open.pop().expect("an end closes an open span");
                closed.push((name, *depth as usize, *rows, e.ticks - begin));
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "spans left open: {open:?}");
    let recorded: Vec<(&str, usize, u64, u64)> = stats
        .operators
        .iter()
        .map(|op| {
            let label = op.label.strip_suffix(" [abandoned]").unwrap_or(&op.label);
            (label, op.depth, op.rows_out, op.ticks)
        })
        .collect();
    assert_eq!(closed, recorded, "closed spans (name, depth, rows, ticks) vs ExecStats::operators");
}

/// The equivalence contract, asserted field by field so a divergence names
/// exactly what broke.  The clock is compared in ticks: an integer, so
/// equal work reads equal and nothing else does.
pub fn assert_bit_identical(want: &ExecStats, got: &ExecStats, label: &str) {
    assert_eq!(want.rows_out, got.rows_out, "{label}: rows_out");
    assert_eq!(want.ticks, got.ticks, "{label}: clock ticks");
    assert_eq!(want.io, got.io, "{label}: IoStats");
    assert_eq!(want.spilled, got.spilled, "{label}: spill flag");
    assert_eq!(want.switches, got.switches, "{label}: switches");
    assert_eq!(want.operators.len(), got.operators.len(), "{label}: operator count");
    for (i, (w, g)) in want.operators.iter().zip(&got.operators).enumerate() {
        assert_eq!(w.label, g.label, "{label}: op #{i} label");
        assert_eq!(w.depth, g.depth, "{label}: op #{i} ({}) depth", w.label);
        assert_eq!(w.rows_out, g.rows_out, "{label}: op #{i} ({}) rows_out", w.label);
        assert_eq!(w.ticks, g.ticks, "{label}: op #{i} ({}) inclusive ticks", w.label);
    }
}

/// The composite shapes the two-predicate catalog exercises only
/// partially: both join algorithms on both build sides and two grants,
/// sort and hash aggregation in both spill modes with spilling and
/// in-memory grants, the parallel scan with and without skew, the
/// traditional fetch and a covering rid join.  The golden ledger
/// (`tests/golden/exec_ledger.txt`) pins every one of them by label, so a
/// change here regenerates it.
pub fn composite_specs(w: &Workload) -> Vec<(String, PlanSpec)> {
    let idx = w.indexes;
    let ta = w.cal_a.threshold(0.15);
    let tb = w.cal_b.threshold(0.4);
    let scan_a = |hi: i64| PlanSpec::TableScan {
        table: w.table,
        pred: Predicate::single(ColRange::at_most(0, hi)),
        project: Projection::Columns(vec![0, 3]),
    };
    let covering_b = PlanSpec::CoveringIndexScan {
        scan: IndexRangeSpec { index: idx.ba, range: KeyRange::on_leading(i64::MIN, tb, 2) },
        residual: Predicate::always_true(),
        project: Projection::All,
    };
    let mut specs: Vec<(String, PlanSpec)> = Vec::new();
    for (name, algo) in [
        ("sort-merge", JoinAlgo::SortMerge),
        ("hash/build-left", JoinAlgo::Hash { build_left: true }),
        ("hash/build-right", JoinAlgo::Hash { build_left: false }),
    ] {
        for memory_bytes in [1 << 14, 8 << 20] {
            specs.push((
                format!("join {name} mem={memory_bytes}"),
                PlanSpec::Join {
                    left: Box::new(scan_a(ta)),
                    right: Box::new(covering_b.clone()),
                    left_key: 1,
                    right_key: 1,
                    algo,
                    memory_bytes,
                    project: Projection::Columns(vec![0, 2, 3]),
                },
            ));
        }
    }
    for mode in [SpillMode::Abrupt, SpillMode::Graceful] {
        for memory_bytes in [4096usize, 8 << 20] {
            specs.push((
                format!("sort {mode:?} mem={memory_bytes}"),
                PlanSpec::Sort {
                    input: Box::new(scan_a(w.cal_a.threshold(0.5))),
                    key_cols: vec![1],
                    mode,
                    memory_bytes,
                },
            ));
            specs.push((
                format!("hashagg {mode:?} mem={memory_bytes}"),
                PlanSpec::HashAgg {
                    input: Box::new(PlanSpec::TableScan {
                        table: w.table,
                        pred: Predicate::single(ColRange::at_most(1, tb)),
                        project: Projection::All,
                    }),
                    group_cols: vec![2],
                    aggs: vec![AggFn::CountStar, AggFn::Sum(3), AggFn::Min(0), AggFn::Max(1)],
                    mode,
                    memory_bytes,
                },
            ));
        }
    }
    for (dop, skew_permille) in [(1, 0), (4, 0), (4, 250), (8, 1000)] {
        specs.push((
            format!("parallel scan dop={dop} skew={skew_permille}"),
            PlanSpec::ParallelTableScan {
                table: w.table,
                pred: Predicate::all_of(vec![ColRange::at_most(0, ta), ColRange::at_most(1, tb)]),
                project: Projection::Columns(vec![3, 0]),
                dop,
                skew_permille,
            },
        ));
    }
    specs.push((
        "traditional fetch".to_string(),
        PlanSpec::IndexFetch {
            scan: IndexRangeSpec {
                index: idx.a,
                range: KeyRange::on_leading(i64::MIN, w.cal_a.threshold(0.05), 1),
            },
            key_filter: Predicate::always_true(),
            fetch: FetchKind::Traditional,
            residual: Predicate::single(ColRange::at_most(1, tb)),
            project: Projection::Columns(vec![1, 4]),
        },
    ));
    specs.push((
        "covering rid join hash/build-right".to_string(),
        PlanSpec::CoveringRidJoin {
            left: IndexRangeSpec { index: idx.a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
            right: IndexRangeSpec { index: idx.b, range: KeyRange::on_leading(i64::MIN, tb, 1) },
            algo: IntersectAlgo::HashJoin { build_left: false },
            project: Projection::Columns(vec![1, 0]),
        },
    ));
    specs
}
