//! Differential equivalence suite for concurrent serving.
//!
//! `core::serve_concurrent` interleaves N queries over one shared buffer
//! pool with a deterministic round-robin scheduler.  This suite pins the
//! three contracts that make that serving layer trustworthy:
//!
//! 1. **Concurrency 1 is bit-identical to the static executor.**  A burst
//!    of one — and a serialized burst at `max_in_flight = 1` — must
//!    reproduce today's isolated measurements exactly: `to_bits()`-equal
//!    seconds, equal [`IoStats`], equal per-operator breakdowns, across
//!    the whole 15-plan catalog.
//! 2. **Slicing is unobservable in total work.**  Page requests never
//!    branch on hit/miss, so rows, compares, hashes, page requests and
//!    page writes are invariant under any quantum — only the hit/miss
//!    split and simulated seconds may shift with contention.
//! 3. **Serving is deterministic and accountable.**  Rerunning a burst
//!    reproduces every bit; per-query pool shares partition the pool's
//!    counters; admission is FIFO and starvation-free; shrunk grants
//!    force spills.
//!
//! `scripts/verify.sh` re-runs this suite with `ROBUSTMAP_QUANTUM=513`
//! (and an odd batch size) to prove the contracts hold at a quantum that
//! never divides anything evenly.

use robustmap::core::{serve_concurrent, MeasureConfig, ServeConfig};
use robustmap::executor::{
    run_count, ColRange, ExecConfig, ExecCtx, ExecStats, PlanSpec, Predicate, Projection, RunOpts,
    SpillMode,
};
use robustmap::storage::IoStats;
use robustmap::systems::{two_predicate_plans, AdmissionConfig, SystemId, TwoPredPlan};
use robustmap::workload::{TableBuilder, Workload, WorkloadConfig};

mod common;
use common::assert_bit_identical;

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

fn catalog(w: &Workload) -> Vec<TwoPredPlan> {
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect();
    assert_eq!(plans.len(), 15, "catalog size changed; update this suite");
    plans
}

/// The serving config whose isolated-query behaviour must match
/// [`MeasureConfig::default`]: same pool, same policy, same model, same
/// per-query grant.  Quantum comes from the environment so verify.sh can
/// re-run the suite at an odd slice size.
fn serve_cfg() -> ServeConfig {
    ServeConfig::from_env()
}

/// An isolated static run at `batch` on a fresh private session.
fn run_alone(w: &Workload, spec: &PlanSpec, cfg: &MeasureConfig, batch: ExecConfig) -> ExecStats {
    let s = common::session(cfg);
    let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
    run_count(spec, &ctx, RunOpts { batch, controller: None }).expect("well-formed plan")
}

/// One row per batch.
fn run_row(w: &Workload, spec: &PlanSpec, cfg: &MeasureConfig) -> ExecStats {
    run_alone(w, spec, cfg, ExecConfig::with_batch_rows(1))
}

/// The batch size serving uses.
fn run_batch(w: &Workload, spec: &PlanSpec, cfg: &MeasureConfig) -> ExecStats {
    run_alone(w, spec, cfg, ExecConfig::from_env())
}

/// The interleaving-invariant part of the work: everything except the
/// hit/miss split and the seconds derived from it.
fn work_signature(io: &IoStats) -> (u64, u64, u64, u64, u64) {
    (io.page_requests(), io.page_writes, io.cpu_rows, io.cpu_compares, io.cpu_hashes)
}

/// A full-table sort whose spill behaviour is controlled by
/// `memory_bytes`.
fn sort_spec(w: &Workload, memory_bytes: usize) -> PlanSpec {
    PlanSpec::Sort {
        input: Box::new(PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(0, w.cal_a.threshold(1.0))),
            project: Projection::All,
        }),
        key_cols: vec![1],
        mode: SpillMode::Abrupt,
        memory_bytes,
    }
}

/// Satellite (c): a burst of one is bit-identical — seconds bits, I/O,
/// per-operator stats — to an isolated static run, one row per batch and
/// at the serving batch size, for every plan in the three-system catalog.
#[test]
fn concurrency_one_matches_static_executor_across_catalog() {
    let w = workload();
    let mcfg = MeasureConfig::default();
    let scfg = serve_cfg();
    for plan in &catalog(&w) {
        for (sa, sb) in [(0.05, 0.4), (0.7, 0.9)] {
            let spec = plan.build(w.cal_a.threshold(sa), w.cal_b.threshold(sb));
            let label = format!("{} @ ({sa}, {sb})", plan.name);
            let row = run_row(&w, &spec, &mcfg);
            let batch = run_batch(&w, &spec, &mcfg);
            let report = serve_concurrent(&w.db, std::slice::from_ref(&spec), &scfg);
            assert_bit_identical(&row, &report.queries[0].stats, &format!("{label} vs row"));
            assert_bit_identical(&batch, &report.queries[0].stats, &format!("{label} vs batch"));
            assert_eq!(report.queries[0].grant, mcfg.memory_bytes, "{label}: grant");
        }
    }
}

/// A whole-catalog burst served at `max_in_flight = 1` is a sequence of
/// isolated cold-pool measurements: the idle reset between queries makes
/// each one bit-identical to its static counterpart.
#[test]
fn sequential_burst_matches_static_per_query() {
    let w = workload();
    let mcfg = MeasureConfig::default();
    let mut scfg = serve_cfg();
    scfg.admission = AdmissionConfig { max_in_flight: 1, ..AdmissionConfig::default() };
    let plans = catalog(&w);
    let specs: Vec<PlanSpec> =
        plans.iter().map(|p| p.build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4))).collect();
    let report = serve_concurrent(&w.db, &specs, &scfg);
    assert_eq!(report.admission_order, (0..15).collect::<Vec<_>>());
    assert_eq!(report.completion_order, (0..15).collect::<Vec<_>>());
    assert_eq!(report.idle_resets, 14, "one cold reset between each pair of queries");
    for (i, (plan, spec)) in plans.iter().zip(&specs).enumerate() {
        let isolated = run_batch(&w, spec, &mcfg);
        assert_bit_identical(
            &isolated,
            &report.queries[i].stats,
            &format!("{} serialized in burst", plan.name),
        );
    }
}

/// Satellite (c): total work is invariant to the quantum.  Page requests
/// never branch on hit/miss, so rows, compares, hashes, page requests and
/// page writes must match under any slicing — including a spilling sort
/// whose temp pages flow through the shared pool.
#[test]
fn quantum_is_not_observable_in_total_work() {
    let w = workload();
    let plans = catalog(&w);
    let mut specs: Vec<PlanSpec> = plans[..4]
        .iter()
        .map(|p| p.build(w.cal_a.threshold(0.3), w.cal_b.threshold(0.5)))
        .collect();
    specs.push(sort_spec(&w, 1 << 14)); // spills under every grant
    let baseline = serve_concurrent(
        &w.db,
        &specs,
        &ServeConfig { quantum: 1 << 30, ..ServeConfig::default() },
    );
    for quantum in [64, 513, 4096] {
        let report =
            serve_concurrent(&w.db, &specs, &ServeConfig { quantum, ..ServeConfig::default() });
        for (i, (b, q)) in baseline.queries.iter().zip(&report.queries).enumerate() {
            assert_eq!(
                work_signature(&b.stats.io),
                work_signature(&q.stats.io),
                "query {i} total work changed under quantum {quantum}"
            );
            assert_eq!(b.stats.rows_out, q.stats.rows_out, "query {i} rows");
            assert_eq!(b.stats.spilled, q.stats.spilled, "query {i} spill flag");
        }
    }
}

/// Satellite (c): per-query pool shares partition the shared pool's
/// counters exactly — every hit and miss is attributed to exactly one
/// query.
#[test]
fn per_query_shares_sum_to_pool_counters() {
    let w = workload();
    let plans = catalog(&w);
    let specs: Vec<PlanSpec> = (0..8)
        .map(|i| plans[i % plans.len()].build(w.cal_a.threshold(0.2), w.cal_b.threshold(0.6)))
        .collect();
    let report = serve_concurrent(&w.db, &specs, &serve_cfg());
    assert_eq!(report.idle_resets, 0, "unbounded admission never idles mid-burst");
    let (hits, misses, _evictions) = report.pool_counters;
    assert_eq!(report.queries.iter().map(|q| q.pool_hits).sum::<u64>(), hits);
    assert_eq!(report.queries.iter().map(|q| q.pool_misses).sum::<u64>(), misses);
    assert!(misses > 0, "a cold pool must miss");
}

/// Rerunning the same burst reproduces every bit: seconds, counters,
/// orders, shares.
#[test]
fn serving_is_deterministic() {
    let w = workload();
    let plans = catalog(&w);
    let mut specs: Vec<PlanSpec> = plans[3..9]
        .iter()
        .map(|p| p.build(w.cal_a.threshold(0.1), w.cal_b.threshold(0.8)))
        .collect();
    specs.push(sort_spec(&w, 1 << 14));
    let a = serve_concurrent(&w.db, &specs, &serve_cfg());
    let b = serve_concurrent(&w.db, &specs, &serve_cfg());
    assert_eq!(a.completion_order, b.completion_order);
    assert_eq!(a.admission_order, b.admission_order);
    assert_eq!(a.pool_counters, b.pool_counters);
    assert_eq!(a.idle_resets, b.idle_resets);
    for (i, (x, y)) in a.queries.iter().zip(&b.queries).enumerate() {
        assert_bit_identical(&x.stats, &y.stats, &format!("rerun query {i}"));
        assert_eq!(x.pool_hits, y.pool_hits, "query {i} hits");
        assert_eq!(x.pool_misses, y.pool_misses, "query {i} misses");
        assert_eq!(x.yields, y.yields, "query {i} yields");
    }
}

/// Admission at `max_in_flight = 2` queues FIFO, never starves, and every
/// queued query eventually completes with its full grant.
#[test]
fn admission_queue_completes_and_is_fifo() {
    let w = workload();
    let plans = catalog(&w);
    let specs: Vec<PlanSpec> = (0..6)
        .map(|i| plans[(2 * i) % plans.len()].build(w.cal_a.threshold(0.3), w.cal_b.threshold(0.3)))
        .collect();
    let mut scfg = serve_cfg();
    scfg.admission = AdmissionConfig { max_in_flight: 2, ..AdmissionConfig::default() };
    let report = serve_concurrent(&w.db, &specs, &scfg);
    assert_eq!(report.admission_order, (0..6).collect::<Vec<_>>(), "admission is FIFO");
    assert_eq!(report.queries.len(), 6);
    for (i, q) in report.queries.iter().enumerate() {
        assert!(q.stats.rows_out > 0, "query {i} produced no rows");
        assert_eq!(q.grant, 8 << 20, "query {i} should get the full grant");
    }
    let mut completed = report.completion_order.clone();
    completed.sort_unstable();
    assert_eq!(completed, (0..6).collect::<Vec<_>>(), "every query completes exactly once");
}

/// The tentpole's contention cliff: a memory budget that fits one full
/// grant plus the minimum admits the second sort with a shrunk grant —
/// and the shrunk grant *forces a spill* the same plan avoids under its
/// full grant.  The third sort queues until memory frees up, then runs
/// unspilled.
#[test]
fn shrunk_grant_forces_spill() {
    let w = workload();
    let specs = vec![sort_spec(&w, 8 << 20), sort_spec(&w, 8 << 20), sort_spec(&w, 8 << 20)];
    let mut scfg = serve_cfg();
    scfg.admission = AdmissionConfig {
        memory_budget: (8 << 20) + (64 << 10),
        ..AdmissionConfig::default()
    };
    let report = serve_concurrent(&w.db, &specs, &scfg);
    assert_eq!(report.admission_order, vec![0, 1, 2]);
    assert_eq!(report.queries[0].grant, 8 << 20);
    assert_eq!(report.queries[1].grant, 64 << 10, "second sort admitted shrunk");
    assert_eq!(report.queries[2].grant, 8 << 20, "third sort waits for the full grant");
    assert!(!report.queries[0].stats.spilled, "full grant: in-memory sort");
    assert!(report.queries[1].stats.spilled, "shrunk grant forces the spill");
    assert!(!report.queries[2].stats.spilled, "queued sort runs unspilled once memory frees");
    // All three sorted the same table.
    assert!(report.queries.iter().all(|q| q.stats.rows_out == 1 << 13));
}

/// Two spilling sorts interleaved over one pool do exactly the work each
/// does alone: the shared temp-file allocator keeps their spill files
/// disjoint, so neither query reads the other's runs.
#[test]
fn interleaved_spills_do_static_work() {
    let w = workload();
    let mcfg = MeasureConfig::default();
    let spec = sort_spec(&w, 1 << 14);
    let isolated = run_batch(&w, &spec, &mcfg);
    assert!(isolated.spilled, "the fixture must spill to exercise temp files");
    let report = serve_concurrent(
        &w.db,
        &[spec.clone(), spec.clone()],
        &ServeConfig { quantum: 257, ..ServeConfig::default() },
    );
    for (i, q) in report.queries.iter().enumerate() {
        assert!(q.stats.spilled, "query {i} must spill");
        assert_eq!(
            work_signature(&isolated.io),
            work_signature(&q.stats.io),
            "query {i}: interleaving changed its total work"
        );
        assert_eq!(isolated.rows_out, q.stats.rows_out, "query {i} rows");
    }
}
