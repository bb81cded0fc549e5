//! The golden charge ledger: where the executor's charges are defined.
//!
//! Each line of `tests/golden/exec_ledger.txt` pins one plan execution:
//! output rows, clock ticks (picoseconds), charge events, every `IoStats`
//! counter, the spill flag, and the per-operator breakdown.  Rows, `io`,
//! `spilled` and the operator tree of all but the last section are the
//! row-at-a-time executor's, line for line, from the last commit that had
//! one; `ticks` replaced that executor's `f64` seconds when the clock
//! became an integer (each within 1e-9 relative of the value it replaced,
//! and equal to the closed form `Σ counter × cost`, asserted below).  The
//! last section, the blocking edges over pools of 4 to 64 pages, was
//! captured when sort and hash aggregation began to take their input in
//! whole batches.  The interpreter must reproduce every line three ways:
//! counting the rows (`run_count`, as every map cell does: the root builds
//! none), reading them (`run_collect`, which must also return `rows` rows
//! — reading the output never moves a charge), and counting them traced
//! at full detail.  `events` is what the serving quantum counts: a kernel
//! that groups its charge calls differently must still count the same
//! events, or served slices would change length.
//!
//! A deliberate cost-model change regenerates the file: the failing run
//! writes `target/exec_ledger.actual.txt`; review the diff and copy it
//! over `tests/golden/exec_ledger.txt`.

use robustmap::core::MeasureConfig;
use robustmap::executor::{run_collect, run_count, AggFn, ExecCtx, ExecStats, PlanSpec, SpillMode};
use robustmap::storage::Session;
use robustmap::systems::{
    single_predicate_plans, two_predicate_plans, SinglePredPlanSet, SystemId, TwoPredPlan,
};
use robustmap::workload::{ChurnConfig, ChurnDriver, TableBuilder, Workload, WorkloadConfig};

mod common;

const GOLDEN: &str = include_str!("golden/exec_ledger.txt");

/// How a pass runs each plan.
#[derive(Clone, Copy)]
enum Path {
    /// `run_count`: nobody reads the rows.
    Count,
    /// `run_collect`: every row is returned.
    Read,
}

/// Run `spec` on a fresh session under `cfg` along `path`: its stats and
/// the charge events it took.  A read run must return `rows_out` rows.
fn exec(w: &Workload, spec: &PlanSpec, cfg: &MeasureConfig, path: Path) -> (ExecStats, u64) {
    let s = cfg.session();
    let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
    let stats = match path {
        Path::Count => run_count(spec, &ctx, None),
        Path::Read => run_collect(spec, &ctx, None).map(|(stats, rows)| {
            assert_eq!(rows.len() as u64, stats.rows_out, "{}: rows read", spec.synopsis());
            stats
        }),
    };
    (stats.expect("ledger plans are well-formed"), s.charge_events())
}

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

/// The tombstoned heap of `tests/tombstone_equivalence.rs`.
fn churned_workload() -> Workload {
    let mut w = workload();
    let cfg = ChurnConfig::for_workload(&w);
    let mut driver = ChurnDriver::new(&w, cfg);
    let session = Session::with_pool_pages(64);
    driver.apply_until_fraction(&mut w, &session, 0.3);
    w
}

fn catalog(w: &Workload) -> Vec<TwoPredPlan> {
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect();
    assert_eq!(plans.len(), 15, "catalog size changed; regenerate the ledger");
    plans
}

/// The 15-plan catalog over a 4x4 selectivity grid.  Selectivity 1 selects
/// every row of a page: a rid set's page group is then the whole page.
fn catalog_grid(w: &Workload, tag: &str) -> Vec<(String, PlanSpec)> {
    let sels = [0.02, 0.3, 0.9, 1.0];
    let mut out = Vec::new();
    for plan in catalog(w) {
        for &sa in &sels {
            for &sb in &sels {
                out.push((
                    format!("{tag} {} @ ({sa}, {sb})", plan.name),
                    plan.build(w.cal_a.threshold(sa), w.cal_b.threshold(sb)),
                ));
            }
        }
    }
    out
}

/// Sort, HashAgg and Sort-over-HashAgg above every child shape, in both
/// spill modes with a spilling and an in-memory grant: the blocking input
/// edges, where the child's charges interleave with the parent's.
fn blocking_over(children: &[(String, PlanSpec)]) -> Vec<(String, PlanSpec)> {
    let mut out = Vec::new();
    for (label, child) in children {
        for mode in [SpillMode::Abrupt, SpillMode::Graceful] {
            for memory_bytes in [4096usize, 8 << 20] {
                let sort = |input: PlanSpec| PlanSpec::Sort {
                    input: Box::new(input),
                    key_cols: vec![0],
                    mode,
                    memory_bytes,
                };
                let agg = PlanSpec::HashAgg {
                    input: Box::new(child.clone()),
                    group_cols: vec![0],
                    aggs: vec![AggFn::CountStar, AggFn::Min(0), AggFn::Max(0)],
                    mode,
                    memory_bytes,
                };
                let tag = format!("{mode:?} mem={memory_bytes} over {label}");
                out.push((format!("sort {tag}"), sort(child.clone())));
                out.push((format!("hashagg {tag}"), agg.clone()));
                out.push((format!("sort(hashagg) {tag}"), sort(agg)));
            }
        }
    }
    out
}

/// Whether `spec` runs a parallel scan anywhere: the one operator whose
/// elapsed time is a critical path, not the sum of its work.
fn has_parallel_scan(spec: &PlanSpec) -> bool {
    match spec {
        PlanSpec::ParallelTableScan { .. } => true,
        PlanSpec::Join { left, right, .. } => has_parallel_scan(left) || has_parallel_scan(right),
        PlanSpec::Sort { input, .. } | PlanSpec::HashAgg { input, .. } => has_parallel_scan(input),
        _ => false,
    }
}

fn ledger_line(label: &str, s: &ExecStats, events: u64) -> String {
    let ops: Vec<String> = s
        .operators
        .iter()
        .map(|op| format!("{}|{}|{}|{}", op.label, op.depth, op.rows_out, op.ticks))
        .collect();
    let io = &s.io;
    format!(
        "{label}\trows={}\tticks={}\tevents={events}\tio={},{},{},{},{},{},{},{}\tspilled={}\tops={}\n",
        s.rows_out,
        s.ticks,
        io.seq_reads,
        io.single_reads,
        io.random_reads,
        io.page_writes,
        io.buffer_hits,
        io.cpu_rows,
        io.cpu_compares,
        io.cpu_hashes,
        s.spilled,
        ops.join(";"),
    )
}

/// The blocking edges over pools of a few pages, the one place their
/// batching shows: a sort's or aggregation's spill writes share one LRU
/// with its child's page requests, so which of the child's re-visits hit
/// depends on where, among those requests, each batch is pushed.  Sort
/// and HashAgg over the single-predicate plans (the traditional fetch's
/// re-visits among them) at six selectivities, pools of 4, 16 and 64
/// pages, and a 4 KiB and a 64 KiB grant: 432 plans, as `(pool pages,
/// label, plan)`.
fn small_pool_blocking(w: &Workload) -> Vec<(usize, String, PlanSpec)> {
    let plans = single_predicate_plans(SinglePredPlanSet::WithIndexJoins, w);
    assert_eq!(plans.len(), 6, "single-predicate catalog changed; regenerate the ledger");
    let mut out = Vec::new();
    for plan in &plans {
        for sel in [0.01, 0.05, 0.15, 0.3, 0.6, 0.9] {
            let child = Box::new(plan.build(w.cal_a.threshold(sel)));
            for pool_pages in [4usize, 16, 64] {
                for memory_bytes in [4usize << 10, 64 << 10] {
                    let mode = SpillMode::Graceful;
                    let input = child.clone();
                    let sort = PlanSpec::Sort { input, key_cols: vec![1], mode, memory_bytes };
                    let agg = PlanSpec::HashAgg {
                        input: child.clone(),
                        group_cols: vec![1],
                        aggs: vec![AggFn::CountStar, AggFn::Min(0)],
                        mode,
                        memory_bytes,
                    };
                    for (op, spec) in [("sort", sort), ("hashagg", agg)] {
                        let over = format!("over {} @ {sel}", plan.name);
                        let label = format!("pool {pool_pages} {op} mem={memory_bytes} {over}");
                        out.push((pool_pages, label, spec));
                    }
                }
            }
        }
    }
    out
}

/// Every ledger case, in file order, as `(workload, pool pages, label,
/// plan)`.
fn cases<'w>(
    pristine: &'w Workload,
    churned: &'w Workload,
) -> Vec<(&'w Workload, usize, String, PlanSpec)> {
    let grid = catalog_grid(pristine, "catalog");
    let composite = common::composite_specs(pristine);
    // Child shapes for the blocking edges: the catalog along the grid's
    // anti-diagonal and centre, plus every composite.
    let mut children: Vec<(String, PlanSpec)> = Vec::new();
    for plan in catalog(pristine) {
        for (sa, sb) in [(0.02, 0.9), (0.3, 0.3), (0.9, 0.02)] {
            children.push((
                format!("{} @ ({sa}, {sb})", plan.name),
                plan.build(pristine.cal_a.threshold(sa), pristine.cal_b.threshold(sb)),
            ));
        }
    }
    children.extend(composite.iter().cloned());
    let blocking = blocking_over(&children);

    let pool_pages = MeasureConfig::default().pool_pages;
    let mut all = Vec::new();
    let mut add = |w: &'w Workload, cases: Vec<(String, PlanSpec)>| {
        all.extend(cases.into_iter().map(|(label, spec)| (w, pool_pages, label, spec)));
    };
    add(pristine, grid);
    add(pristine, composite);
    add(churned, catalog_grid(churned, "churned"));
    add(pristine, blocking);
    let small = small_pool_blocking(pristine).into_iter();
    all.extend(small.map(|(pool_pages, label, spec)| (pristine, pool_pages, label, spec)));
    all
}

#[test]
fn run_reproduces_the_golden_ledger_counted_read_and_traced() {
    let pristine = workload();
    let churned = churned_workload();
    let base = MeasureConfig::default();
    let cases = cases(&pristine, &churned);
    let traced = common::conditions().into_iter().find(|c| c.trace.is_some());
    let traced = traced.expect("the matrix traces");
    let passes = [
        ("counted", base.clone(), Path::Count),
        ("read", base.clone(), Path::Read),
        ("counted, traced", traced.measure(&base), Path::Count),
    ];
    for (how, cfg, path) in &passes {
        let actual: String = cases
            .iter()
            .map(|(w, pool_pages, label, spec)| {
                let cfg = MeasureConfig { pool_pages: *pool_pages, ..cfg.clone() };
                let (stats, events) = exec(w, spec, &cfg, *path);
                // The clock's closed form: a serial plan's ticks are its
                // counters priced by the model, whatever order and
                // grouping its operators charged them in.
                if !has_parallel_scan(spec) {
                    let priced = cfg.model.ticks().of(&stats.io);
                    assert_eq!(stats.ticks, priced, "{label}: ticks != Σ counter × cost");
                }
                ledger_line(label, &stats, events)
            })
            .collect();
        if actual == GOLDEN {
            continue;
        }
        std::fs::create_dir_all("target").expect("create target/");
        std::fs::write("target/exec_ledger.actual.txt", &actual).expect("write actual ledger");
        let (line, (want, got)) = GOLDEN
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (want, got))| want != got)
            .unwrap_or((GOLDEN.lines().count().min(actual.lines().count()), ("<eof>", "<eof>")));
        panic!(
            "charge ledger diverged [{how}], line {}:\n  golden: {want}\n  \
             actual: {got}\nfull ledger written to target/exec_ledger.actual.txt",
            line + 1
        );
    }
}
