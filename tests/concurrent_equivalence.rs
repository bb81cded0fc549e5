//! Differential equivalence suite for concurrent serving.
//!
//! `core::serve_concurrent` interleaves N queries over one shared buffer
//! pool with a deterministic round-robin scheduler.  This suite pins the
//! three contracts that make that serving layer trustworthy:
//!
//! 1. **Concurrency 1 is identical to the static executor.**  A burst
//!    of one — and a serialized burst at `max_in_flight = 1` — must
//!    reproduce today's isolated measurements exactly: equal clock ticks,
//!    equal [`IoStats`], equal per-operator breakdowns, across the whole
//!    15-plan catalog.
//! 2. **Slicing is unobservable in total work.**  Page requests never
//!    branch on hit/miss, so rows, compares, hashes, page requests and
//!    page writes are invariant under any quantum — only the hit/miss
//!    split and simulated seconds may shift with contention.
//! 3. **Serving is deterministic and accountable.**  Rerunning a burst
//!    reproduces every bit; per-query pool shares partition the pool's
//!    counters; admission is FIFO and starvation-free; shrunk grants
//!    force spills; and the whole schedule of thirteen bursts is pinned to
//!    digests printed by the scheduler this suite was written against, as
//!    is every yield of a spilling sort, join and aggregation.
//! 4. **A failing query cannot strand the burst.**  A query that returns
//!    an error or panics while holding the baton ends with a per-query
//!    error; everyone else finishes with the work they do alone.
//!
//! Every test that serves under "the suite's" config serves under each
//! condition of the independence matrix (`common::conditions`): the
//! defaults, a quantum of 513 that never divides anything evenly, and
//! every burst and session traced at full detail.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use robustmap::core::{
    measure_plan, serve_concurrent, MeasureConfig, QueryError, QueryOutcome, ServeConfig,
    ServeReport,
};
use robustmap::executor::{
    AggFn, ColRange, ExecCtx, ExecError, IndexRangeSpec, JoinAlgo, KeyRange, PlanSpec, Predicate,
    Projection, SpillMode,
};
use robustmap::obs::trace::{TraceDetail, TraceSink};
use robustmap::storage::{BufferPool, CostModel, EvictionPolicy, IoStats, Session, TableId};
use robustmap::systems::{two_predicate_plans, AdmissionConfig, SystemId, TwoPredPlan};
use robustmap::workload::{TableBuilder, Workload, WorkloadConfig, COL_A, COL_B, COL_C};

mod common;
use common::{assert_bit_identical, conditions, run_under, Condition};

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

fn catalog(w: &Workload) -> Vec<TwoPredPlan> {
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect();
    assert_eq!(plans.len(), 15, "catalog size changed; update this suite");
    plans
}

/// The measuring and the serving config of one condition.  Their
/// isolated-query behaviour must match: same pool, same policy, same
/// model, same per-query grant, same sink.
fn cfgs(cond: &Condition) -> (MeasureConfig, ServeConfig) {
    (cond.measure(&MeasureConfig::default()), cond.serve(&ServeConfig::default()))
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
/// per-operator stats — to an isolated static run, for every plan in the
/// three-system catalog.
#[test]
fn concurrency_one_matches_static_executor_across_catalog() {
    let w = workload();
    for cond in conditions() {
        let (mcfg, scfg) = cfgs(&cond);
        for plan in &catalog(&w) {
            for (sa, sb) in [(0.05, 0.4), (0.7, 0.9)] {
                let spec = plan.build(w.cal_a.threshold(sa), w.cal_b.threshold(sb));
                let label = format!("[{}] {} @ ({sa}, {sb})", cond.name, plan.name);
                let isolated = run_under(&w, &spec, &mcfg, None);
                let report = serve_concurrent(&w.db, std::slice::from_ref(&spec), &scfg);
                let served = &report.queries[0];
                assert_bit_identical(&isolated, &served.stats, &label);
                assert_eq!(served.grant, mcfg.memory_bytes, "{label}: grant");
            }
        }
    }
}

/// A whole-catalog burst served at `max_in_flight = 1` is a sequence of
/// isolated cold-pool measurements: the idle reset between queries makes
/// each one bit-identical to its static counterpart.
#[test]
fn sequential_burst_matches_static_per_query() {
    let w = workload();
    let plans = catalog(&w);
    let specs: Vec<PlanSpec> =
        plans.iter().map(|p| p.build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4))).collect();
    for cond in conditions() {
        let (mcfg, mut scfg) = cfgs(&cond);
        scfg.admission = AdmissionConfig { max_in_flight: 1, ..AdmissionConfig::default() };
        let report = serve_concurrent(&w.db, &specs, &scfg);
        assert_eq!(report.admission_order, (0..15).collect::<Vec<_>>());
        assert_eq!(report.completion_order, (0..15).collect::<Vec<_>>());
        assert_eq!(report.idle_resets, 14, "one cold reset between each pair of queries");
        for (i, (plan, spec)) in plans.iter().zip(&specs).enumerate() {
            let isolated = run_under(&w, spec, &mcfg, None);
            let label = format!("[{}] {} serialized in burst", cond.name, plan.name);
            assert_bit_identical(&isolated, &report.queries[i].stats, &label);
        }
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
    for cond in conditions() {
        let report = serve_concurrent(&w.db, &specs, &cfgs(&cond).1);
        assert_eq!(report.idle_resets, 0, "unbounded admission never idles mid-burst");
        let (hits, misses, _evictions) = report.pool_counters;
        assert_eq!(report.queries.iter().map(|q| q.pool_hits).sum::<u64>(), hits);
        assert_eq!(report.queries.iter().map(|q| q.pool_misses).sum::<u64>(), misses);
        assert!(misses > 0, "a cold pool must miss");
    }
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
    for cond in conditions() {
        let scfg = cfgs(&cond).1;
        let a = serve_concurrent(&w.db, &specs, &scfg);
        let b = serve_concurrent(&w.db, &specs, &scfg);
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
    for cond in conditions() {
        let mut scfg = cfgs(&cond).1;
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
    for cond in conditions() {
        let mut scfg = cfgs(&cond).1;
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
}

/// Two spilling sorts interleaved over one pool do exactly the work each
/// does alone: the shared temp-file allocator keeps their spill files
/// disjoint, so neither query reads the other's runs.
#[test]
fn interleaved_spills_do_static_work() {
    let w = workload();
    let spec = sort_spec(&w, 1 << 14);
    for cond in conditions() {
        let (mcfg, scfg) = cfgs(&cond);
        let isolated = run_under(&w, &spec, &mcfg, None);
        assert!(isolated.spilled, "the fixture must spill to exercise temp files");
        let report = serve_concurrent(
            &w.db,
            &[spec.clone(), spec.clone()],
            &ServeConfig { quantum: 257, ..scfg },
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
}

/// FNV-1a over the words fed to it: the digest of one pinned schedule.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

/// Everything the scheduler decided, in one word: the orders, the idle
/// resets, the pool's counters, and per query its slices, grant, pool
/// share, clock bits and the three global-clock latencies.
fn report_digest(r: &robustmap::core::ServeReport) -> u64 {
    let mut d = Digest::new();
    d.word(r.queries.len() as u64);
    d.words(r.admission_order.iter().map(|&q| q as u64));
    d.words(r.completion_order.iter().map(|&q| q as u64));
    d.word(r.idle_resets);
    d.words([r.pool_counters.0, r.pool_counters.1, r.pool_counters.2]);
    for q in &r.queries {
        d.words([q.yields, q.grant as u64, q.pool_hits, q.pool_misses]);
        d.word(q.stats.ticks);
        d.words([q.queue_wait.to_bits(), q.first_baton.to_bits(), q.turnaround.to_bits()]);
    }
    d.0
}

/// The recorded timeline as `(track, kind, ticks)` in emission order; the
/// kind goes in by its `Debug` form, payload and all.
fn trace_digest(events: &[robustmap::obs::trace::TraceEvent]) -> u64 {
    let mut d = Digest::new();
    d.word(events.len() as u64);
    for e in events {
        d.word(u64::from(e.track));
        d.words(format!("{:?}", e.kind).bytes().map(u64::from));
        d.word(e.ticks);
    }
    d.0
}

/// The schedule golden: `(case, report digest, trace digest)`.  Every
/// admission, slice, idle reset, latency and trace event of these bursts
/// is a pure function of burst and config; a scheduler rewrite that moves
/// one of them moves a digest.  Regenerated once since the hub-and-spoke
/// scheduler this suite was first written against printed them: when the
/// clock became an integer and yields snapped to page and rid-run
/// boundaries (docs/DESIGN.md, "The clock is an integer") — with every
/// burst's admission order, completion order, idle resets and per-query
/// yield counts unchanged.  The trace column alone was regenerated once
/// more when events began to carry ticks instead of float seconds and
/// `OpEnd` lost its name: the digest's input format changed, the events
/// did not (the old digests were first reproduced from the new events).
/// The `admission_cliff` row alone was regenerated when sorts began to
/// take their input in whole batches: every field of its report is as
/// before but query 1's `first_baton` (0.18882 → 0.298205 ms), because
/// query 0's first slice of 1024 charge events now holds its scan's page
/// requests ahead of its pushes, and so ends later on the global clock.
const SCHEDULE_GOLDEN: &[(&str, u64, u64)] = &[
    ("l1_q257_thrash", 0x99cb97ce5aacb5bc, 0x6c021b798b97d2f7),
    ("l1_q257_fit", 0x092672160c985371, 0x6c021b798b97d2f7),
    ("l1_q1024_thrash", 0xb1751e80f98772fe, 0x50e08ce745e1faa2),
    ("l1_q1024_fit", 0xaa95c14114763d5b, 0x50e08ce745e1faa2),
    ("l8_q257_thrash", 0xf5fcf97f8b215007, 0xab54140f3e2857d9),
    ("l8_q257_fit", 0xbae1e18369bc8f6c, 0xff7662d707bbb604),
    ("l8_q1024_thrash", 0x1031d9f5c8f9215f, 0x5286b0bbecc232cf),
    ("l8_q1024_fit", 0x65a216caa2e30c4d, 0xcb71a6815220275a),
    ("l64_q257_thrash", 0xef6584fada91831c, 0xdb71d419dbada383),
    ("l64_q257_fit", 0x8bd29b504f404048, 0x7a366674efea9a15),
    ("l64_q1024_thrash", 0xbffff4db58448dd9, 0xd73f0563010e8787),
    ("l64_q1024_fit", 0x5e141e12bd189f03, 0x4622c727e6da2335),
    ("admission_cliff", 0xf921038cd7d9f785, 0x61de294e013868df),
];

#[test]
fn schedule_is_pinned() {
    let w = workload();
    let plans = catalog(&w);
    let specs: Vec<PlanSpec> =
        plans.iter().map(|p| p.build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4))).collect();
    let heap = w.heap_pages() as usize;
    let mut cases: Vec<(String, Vec<PlanSpec>, ServeConfig)> = Vec::new();
    for level in [1usize, 8, 64] {
        // The catalog repeated to the level, as `ext_concurrency` builds it.
        let len = specs.len() * level.div_ceil(specs.len());
        let burst: Vec<PlanSpec> = (0..len).map(|j| specs[j % specs.len()].clone()).collect();
        for quantum in [257u64, 1024] {
            for (pool, pool_pages) in [("thrash", (heap / 4).max(8)), ("fit", heap * 2)] {
                cases.push((
                    format!("l{level}_q{quantum}_{pool}"),
                    burst.clone(),
                    ServeConfig {
                        pool_pages,
                        quantum,
                        admission: AdmissionConfig {
                            max_in_flight: level,
                            ..AdmissionConfig::default()
                        },
                        ..ServeConfig::default()
                    },
                ));
            }
        }
    }
    cases.push((
        "admission_cliff".into(),
        vec![sort_spec(&w, 8 << 20), sort_spec(&w, 8 << 20), sort_spec(&w, 8 << 20)],
        ServeConfig {
            admission: AdmissionConfig {
                memory_budget: (8 << 20) + (64 << 10),
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    ));

    let golden: Vec<(String, u64, u64)> =
        SCHEDULE_GOLDEN.iter().map(|&(n, r, t)| (n.to_string(), r, t)).collect();
    // Each case pins its own quantum, so of the matrix only tracing
    // applies: the "plain" burst untraced and traced at full detail.
    // Neither may move a digest.
    for cond in conditions().into_iter().filter(|c| c.quantum == ServeConfig::default().quantum) {
        let mut actual = Vec::new();
        for (name, burst, cfg) in &cases {
            let cfg = ServeConfig { trace: cond.trace.clone(), ..cfg.clone() };
            let plain = report_digest(&serve_concurrent(&w.db, burst, &cfg));
            let sink = Arc::new(TraceSink::memory(TraceDetail::Spans));
            let traced_cfg = ServeConfig { trace: Some(Arc::clone(&sink)), ..cfg };
            let traced = report_digest(&serve_concurrent(&w.db, burst, &traced_cfg));
            assert_eq!(plain, traced, "{name}: tracing moved the schedule");
            assert_eq!(sink.dropped(), 0, "{name}: the sink dropped events");
            actual.push((name.clone(), plain, trace_digest(&sink.events())));
        }
        if actual != golden {
            let table: String = actual
                .iter()
                .map(|(n, r, t)| format!("    ({n:?}, {r:#018x}, {t:#018x}),\n"))
                .collect();
            panic!("[{}] the schedule moved; this run's digests:\n{table}", cond.name);
        }
    }
}

/// The spilling blocking operators of the yield golden, each over the
/// whole 2^13-row table with the grant its name gives: `(name, grant,
/// plan)`.  The grant is the context's too, so it also sets a sort's
/// merge fan-in.
fn spilling_cases(w: &Workload) -> Vec<(String, usize, PlanSpec)> {
    let scan = |col: usize, threshold: i64| PlanSpec::TableScan {
        table: w.table,
        pred: Predicate::single(ColRange::at_most(col, threshold)),
        project: Projection::Columns(vec![COL_C, col]),
    };
    let (ta, tb) = (w.cal_a.threshold(1.0), w.cal_b.threshold(1.0));
    let mut cases = Vec::new();
    for mode in [SpillMode::Abrupt, SpillMode::Graceful] {
        for grant in [160, 4 << 10, 64 << 10] {
            let sort = PlanSpec::Sort {
                input: Box::new(scan(COL_A, ta)),
                key_cols: vec![1],
                mode,
                memory_bytes: grant,
            };
            cases.push((format!("sort_{mode:?}_{grant}"), grant, sort));
        }
    }
    let algos = [("sort_merge", JoinAlgo::SortMerge), ("hash", JoinAlgo::Hash { build_left: true })];
    for (name, algo) in algos {
        for grant in [2 << 10, 32 << 10] {
            let join = PlanSpec::Join {
                left: Box::new(scan(COL_A, ta)),
                right: Box::new(scan(COL_B, tb)),
                left_key: 0,
                right_key: 0,
                algo,
                memory_bytes: grant,
                project: Projection::All,
            };
            cases.push((format!("{name}_join_{grant}"), grant, join));
        }
    }
    let agg = PlanSpec::HashAgg {
        input: Box::new(scan(COL_A, ta)),
        group_cols: vec![0],
        aggs: vec![AggFn::CountStar, AggFn::Sum(1)],
        mode: SpillMode::Graceful,
        memory_bytes: 8 << 10,
    };
    cases.push(("hash_agg_Graceful_8192".into(), 8 << 10, agg));
    cases
}

/// One counted run of `spec` on a session of its own over a private
/// 32-page pool, yielding every `quantum` charge events: the yields, the
/// digest of the ticks each yield saw, the charge events and the ticks.
fn yield_points(
    w: &Workload,
    spec: &PlanSpec,
    grant: usize,
    quantum: u64,
    sink: Option<Arc<TraceSink>>,
) -> [u64; 4] {
    let s = Session::new(CostModel::default(), BufferPool::new(32, EvictionPolicy::Lru));
    if let Some(sink) = sink {
        s.attach_tracer(sink, "q0");
    }
    let (tx, seen) = mpsc::channel();
    s.install_yield_hook(quantum, Box::new(move |ticks| tx.send(ticks).expect("receiver alive")));
    let ctx = ExecCtx::new(&w.db, &s, grant);
    robustmap::executor::run_count(spec, &ctx, None).expect("well-formed plan");
    s.detach_tracer();
    let seen: Vec<u64> = seen.try_iter().collect();
    let mut d = Digest::new();
    d.words(seen.iter().copied());
    [seen.len() as u64, d.0, s.charge_events(), s.elapsed_ticks()]
}

/// The yield golden of spilling blocking operators: `(case, yields,
/// digest of the ticks each yield saw, charge events, ticks, digest of
/// the trace at full detail)`.  Where a served operator yields is a pure
/// function of its charge calls; a kernel that regroups them must leave
/// every yield at its row and every trace event — a spill file's
/// allocation among them — at its tick.
const YIELD_GOLDEN: &[(&str, u64, u64, u64, u64, u64)] = &[
    ("sort_Abrupt_160_q1", 226307, 0xde9511b06def2327, 234454, 1217100160000, 0xcbf0c21e37a33b7b),
    ("sort_Abrupt_160_q7", 33493, 0x8c001beb48faa589, 234454, 1217100160000, 0x67bd2f6e9f81298c),
    ("sort_Abrupt_160_q51", 4597, 0xbfeb015e79313679, 234454, 1217100160000, 0x228f8dd77f51217e),
    ("sort_Abrupt_160_q257", 912, 0xa1c435cee14a93c9, 234454, 1217100160000, 0x056d6069adbb188e),
    ("sort_Abrupt_4096_q1", 141016, 0x8a23f2e0fbd4188a, 149163, 108266400000, 0xc0c3a16fef801328),
    ("sort_Abrupt_4096_q7", 21309, 0xef00300f84c6be66, 149163, 108266400000, 0x8169766211fc9023),
    ("sort_Abrupt_4096_q51", 2924, 0x68dcc4cd37c7b31c, 149163, 108266400000, 0xae6483dbc1baf51c),
    ("sort_Abrupt_4096_q257", 580, 0x44619ecef6d47da9, 149163, 108266400000, 0x3b89abc88ff73865),
    ("sort_Abrupt_65536_q1", 41452, 0x5c2767219b2f244e, 49599, 28264510000, 0x870ad73beeaafdeb),
    ("sort_Abrupt_65536_q7", 7085, 0x2d9260f1822d4b06, 49599, 28264510000, 0xa87b91aa5669b4f2),
    ("sort_Abrupt_65536_q51", 972, 0x75acb0cf100dfa2c, 49599, 28264510000, 0x6de0a4960f71cc1c),
    ("sort_Abrupt_65536_q257", 192, 0x0def4370f28de451, 49599, 28264510000, 0x555dd469739c48bb),
    ("sort_Graceful_160_q1", 124328, 0xf3b77d2567c39927, 132475, 97327720000, 0xc37e0ed717cd8426),
    ("sort_Graceful_160_q7", 18925, 0xa47470a3269f2c51, 132475, 97327720000, 0xd0ecf5ec5fffe967),
    ("sort_Graceful_160_q51", 2597, 0x8c278808d6f2047e, 132475, 97327720000, 0xbd93a12320865bd1),
    ("sort_Graceful_160_q257", 515, 0x56cfb198347b10c8, 132475, 97327720000, 0x30971aed546e08f9),
    ("sort_Graceful_4096_q1", 107688, 0x373950ed4d9a104d, 115835, 79123110000, 0x82d90e3fd0ea13d8),
    ("sort_Graceful_4096_q7", 16547, 0x8e434b5415ee79a8, 115835, 79123110000, 0x9a5830f156cb5d84),
    ("sort_Graceful_4096_q51", 2271, 0x3e2d942ce287965f, 115835, 79123110000, 0xcea48b3f57ded55d),
    ("sort_Graceful_4096_q257", 450, 0x11ea7e5dde9dcd5b, 115835, 79123110000, 0x13b8b9b37fe72a26),
    ("sort_Graceful_65536_q1", 24860, 0x880ecac7a2f96ee1, 33007, 13568345000, 0x8fde3f5c16e005b5),
    ("sort_Graceful_65536_q7", 4715, 0x2762507dfd328111, 33007, 13568345000, 0x339aafaca1b191e7),
    ("sort_Graceful_65536_q51", 647, 0x31310abf2e7793c4, 33007, 13568345000, 0x69f21e9b4c4af297),
    ("sort_Graceful_65536_q257", 128, 0x119ad936503b7a54, 33007, 13568345000, 0x048edc81cfcefd9e),
    ("sort_merge_join_2048_q1", 256797, 0xad2ef951bd9731f2, 273091, 191628100000, 0x8c03ed88eb836c30),
    ("sort_merge_join_2048_q7", 39013, 0xc97750e0a93f57e1, 273091, 191628100000, 0x891cdbbbd11a3eb8),
    ("sort_merge_join_2048_q51", 5354, 0xd9dbe8110df05074, 273091, 191628100000, 0xca07e4f905ef6cf3),
    ("sort_merge_join_2048_q257", 1062, 0xc5397f7946f6b3ce, 273091, 191628100000, 0x279a907eacc433cd),
    ("sort_merge_join_32768_q1", 124169, 0x2d3966d412015a38, 140463, 79592130000, 0xc99872da05660289),
    ("sort_merge_join_32768_q7", 20066, 0x41db8d0c7703bb05, 140463, 79592130000, 0x83a0b3c19d24c1b0),
    ("sort_merge_join_32768_q51", 2754, 0x20f4a075555aba4c, 140463, 79592130000, 0xc64cb8b4df7f95e7),
    ("sort_merge_join_32768_q257", 546, 0x9bad24476787608e, 140463, 79592130000, 0x3b03311c5001bba3),
    ("hash_join_2048_q1", 11535, 0x3fefd8b7231c7fdc, 27829, 108232320000, 0x816bb74c50ddc69f),
    ("hash_join_2048_q7", 3975, 0xa5c0571c6a683721, 27829, 108232320000, 0xf9a824d2cf9465a5),
    ("hash_join_2048_q51", 545, 0x7378cb643c9f2be5, 27829, 108232320000, 0xf48d66c6ab4d9453),
    ("hash_join_2048_q257", 108, 0x67e03cfb428896ba, 27829, 108232320000, 0xeb2eb01177c25a34),
    ("hash_join_32768_q1", 8655, 0x761e68e60e293217, 24949, 12136320000, 0x8143f28065754b44),
    ("hash_join_32768_q7", 3564, 0x2138a6c1fedc24ee, 24949, 12136320000, 0xf71832c21cbbc61a),
    ("hash_join_32768_q51", 489, 0x65de88b25491ba98, 24949, 12136320000, 0x12373f5f15572eb9),
    ("hash_join_32768_q257", 97, 0xa8e55b57bcb6c42c, 24949, 12136320000, 0x05c01a9132dfd7c2),
    ("hash_agg_Graceful_8192_q1", 16631, 0xc3b88eebf048dcab, 24778, 10139040000, 0x82840b44c7b3162f),
    ("hash_agg_Graceful_8192_q7", 3539, 0xd6f189d11454812e, 24778, 10139040000, 0xcbf61a87d9dd5e49),
    ("hash_agg_Graceful_8192_q51", 485, 0x4bd9f43e4190b71c, 24778, 10139040000, 0x3f48c425226d1814),
    ("hash_agg_Graceful_8192_q257", 96, 0x0ce2ef87ca549391, 24778, 10139040000, 0x268c1f04977ab401),
];

#[test]
fn spilling_operators_yield_where_pinned() {
    let w = workload();
    let mut actual = Vec::new();
    for (name, grant, spec) in spilling_cases(&w) {
        for quantum in [1u64, 7, 51, 257] {
            let plain = yield_points(&w, &spec, grant, quantum, None);
            let sink = Arc::new(TraceSink::memory(TraceDetail::Full));
            let traced = yield_points(&w, &spec, grant, quantum, Some(Arc::clone(&sink)));
            assert_eq!(plain, traced, "{name} q{quantum}: tracing moved a yield");
            assert_eq!(sink.dropped(), 0, "{name} q{quantum}: the sink dropped events");
            let [yields, seen, events, ticks] = plain;
            let trace = trace_digest(&sink.events());
            actual.push((format!("{name}_q{quantum}"), yields, seen, events, ticks, trace));
        }
    }
    let golden: Vec<_> =
        YIELD_GOLDEN.iter().map(|&(n, a, b, c, d, e)| (n.to_string(), a, b, c, d, e)).collect();
    if actual != golden {
        let table: String = actual
            .iter()
            .map(|(n, a, b, c, d, e)| {
                format!("    ({n:?}, {a}, {b:#018x}, {c}, {d}, {e:#018x}),\n")
            })
            .collect();
        panic!("a spilling operator's yields moved; this run's:\n{table}");
    }
}

/// Tracing the level-64 thrashing burst at full detail is free and
/// complete.  The traced report is the untraced one.  Every page request
/// of every query — the repeats inside a collapsed rid run included — is
/// one `io.page_reads` event, hit or miss as the queries' counters say;
/// the per-slice I/O windows add up to the same totals; the timeline is
/// well-formed.  And the total is the one this burst had before kernels
/// charged per page: requests are work, which regrouping does not change.
#[test]
fn traced_level_64_burst_accounts_for_every_page_request() {
    use robustmap::obs::trace::validate_trace;

    let w = workload();
    let specs: Vec<PlanSpec> = catalog(&w)
        .iter()
        .map(|p| p.build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4)))
        .collect();
    let burst: Vec<PlanSpec> = (0..75).map(|j| specs[j % specs.len()].clone()).collect();
    let cfg = ServeConfig {
        pool_pages: (w.heap_pages() as usize / 4).max(8),
        quantum: 1024,
        admission: AdmissionConfig { max_in_flight: 64, ..AdmissionConfig::default() },
        ..ServeConfig::default()
    };
    let plain = serve_concurrent(&w.db, &burst, &cfg);
    let sink = Arc::new(TraceSink::memory(TraceDetail::Full));
    let traced =
        serve_concurrent(&w.db, &burst, &ServeConfig { trace: Some(Arc::clone(&sink)), ..cfg });
    assert_eq!(report_digest(&plain), report_digest(&traced), "tracing moved the burst");
    assert_eq!(sink.dropped(), 0);
    validate_trace(&sink.events()).expect("well-formed timeline");

    let sum = |f: fn(&IoStats) -> u64| traced.queries.iter().map(|q| f(&q.stats.io)).sum::<u64>();
    let (requests, reads, writes) =
        (sum(IoStats::page_requests), sum(IoStats::pages_read), sum(|io| io.page_writes));
    let m = sink.metrics();
    assert_eq!(m.counter("io.page_reads"), requests);
    assert_eq!(m.counter("io.page_hits"), requests - reads);
    assert_eq!(m.counter("io.page_writes"), writes);
    assert_eq!(m.counter("io.window.reads"), reads);
    assert_eq!(m.counter("io.window.hits"), requests - reads);
    assert_eq!(m.counter("io.window.writes"), writes);
    let (hits, misses, _) = traced.pool_counters;
    assert_eq!(hits + misses, requests + writes);
    assert_eq!(hits + misses, 62_620);
}

/// A scan of column `col` of the whole table (narrow, so two of them join
/// within the row width limit).
fn column_scan(table: TableId, col: usize) -> PlanSpec {
    PlanSpec::TableScan {
        table,
        pred: Predicate::always_true(),
        project: Projection::Columns(vec![col]),
    }
}

/// A hash join whose left input is a healthy scan and whose right input is
/// `right`: the left side materialises first, so whatever is wrong with
/// `right` strikes mid-run, after the query has charged, yielded and been
/// resumed.
fn join_onto(w: &Workload, right: PlanSpec) -> PlanSpec {
    PlanSpec::Join {
        left: Box::new(column_scan(w.table, 2)),
        right: Box::new(right),
        left_key: 0,
        right_key: 0,
        algo: JoinAlgo::Hash { build_left: true },
        memory_bytes: 8 << 20,
        project: Projection::All,
    }
}

/// Serve `burst` on a thread of its own and wait at most 30 s for it: a
/// scheduler whose baton is stranded cannot be interrupted, only abandoned.
fn serve_watched(w: &Arc<Workload>, burst: Vec<PlanSpec>, cfg: ServeConfig) -> ServeReport {
    let (tx, rx) = mpsc::channel();
    let table = Arc::clone(w);
    std::thread::spawn(move || {
        // The receiver is gone only if the watchdog already gave up.
        let _ = tx.send(serve_concurrent(&table.db, &burst, &cfg));
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("the burst did not come back: a failing query stranded the baton")
}

/// A healthy query of a burst with failures in it: no error, the rows and
/// the work `spec` does alone — and, served one at a time, its clock and
/// its `IoStats` bit for bit.
fn assert_served_as_alone(
    w: &Workload,
    q: &QueryOutcome,
    spec: &PlanSpec,
    mcfg: &MeasureConfig,
    level: usize,
    label: &str,
) {
    assert_eq!(q.error, None, "{label}");
    let alone = measure_plan(&w.db, spec, mcfg);
    assert_eq!(q.stats.rows_out, alone.rows, "{label}: rows");
    assert_eq!(work_signature(&q.stats.io), work_signature(&alone.io), "{label}: total work");
    if level == 1 {
        assert_eq!(q.stats.seconds.to_bits(), alone.seconds.to_bits(), "{label}: clock");
        assert_eq!(q.stats.io, alone.io, "{label}: IoStats");
    }
}

/// The eight catalog plans the failure tests serve as one burst.
fn eight_of_the_catalog(w: &Workload) -> Vec<PlanSpec> {
    let plans = catalog(w);
    (0..8).map(|i| plans[2 * i].build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4))).collect()
}

/// Hardening (a): one query of the burst returns `BadPlan` mid-run (its
/// right input is a sort without key columns), and two are rejected as
/// `BadPlan` before they charge anything (one's right input scans a
/// one-column index over a two-column key range — a seek would assert its
/// key's arity — and the other's aggregates a table the database does not
/// have).  Served one at a time and eight at a time, under every condition
/// of the matrix, the burst comes back, exactly those three carry an
/// error, and every other query did the rows and the work it does alone —
/// bit for bit at level 1.  A query that panics is
/// `a_burst_whose_clocks_overflow_still_returns`'s.
#[test]
fn failing_queries_do_not_strand_the_burst() {
    const BAD_PLAN: usize = 2;
    const BAD_ARITY: usize = 5;
    const BAD_ID: usize = 6;
    let w = Arc::new(workload());
    let mut burst = eight_of_the_catalog(&w);
    burst[BAD_PLAN] = join_onto(
        &w,
        PlanSpec::Sort {
            input: Box::new(column_scan(w.table, 2)),
            key_cols: vec![],
            mode: SpillMode::Abrupt,
            memory_bytes: 1 << 20,
        },
    );
    burst[BAD_ARITY] = join_onto(
        &w,
        PlanSpec::CoveringIndexScan {
            scan: IndexRangeSpec { index: w.indexes.a, range: KeyRange::full(2) },
            residual: Predicate::always_true(),
            project: Projection::All,
        },
    );
    burst[BAD_ID] = join_onto(
        &w,
        PlanSpec::HashAgg {
            input: Box::new(column_scan(TableId(u32::MAX), 2)),
            group_cols: vec![0],
            aggs: vec![AggFn::CountStar],
            mode: SpillMode::Abrupt,
            memory_bytes: 1 << 20,
        },
    );
    for cond in conditions() {
        let (mcfg, scfg) = cfgs(&cond);
        // The condition's quantum, and one small enough that the mid-run
        // failures strike after the query has been parked and resumed.
        for (level, quantum) in [(1usize, scfg.quantum), (8, scfg.quantum), (1, 16), (8, 16)] {
            let mut scfg = ServeConfig { quantum, ..scfg.clone() };
            scfg.admission = AdmissionConfig { max_in_flight: level, ..AdmissionConfig::default() };
            let report = serve_watched(&w, burst.clone(), scfg);
            assert_eq!(report.queries.len(), 8, "level {level}: every query reports");
            let mut completed = report.completion_order.clone();
            completed.sort_unstable();
            assert_eq!(completed, (0..8).collect::<Vec<_>>(), "level {level}: each completes once");
            if level == 1 {
                assert_eq!(report.idle_resets, 7, "a failed query leaves the server idle like any");
            }
            for (i, q) in report.queries.iter().enumerate() {
                let label = format!("[{}] level {level} quantum {quantum} query {i}", cond.name);
                match i {
                    BAD_PLAN | BAD_ARITY | BAD_ID => assert!(
                        matches!(q.error, Some(QueryError::Exec(ExecError::BadPlan(_)))),
                        "{label}: {:?}",
                        q.error
                    ),
                    _ => assert_served_as_alone(&w, q, &burst[i], &mcfg, level, &label),
                }
                if q.error.is_some() {
                    assert_eq!(q.stats.rows_out, 0, "{label}: a failed query returns no rows");
                    assert_eq!(q.stats.seconds.to_bits(), q.measurement().seconds.to_bits());
                }
                if i == BAD_ARITY || i == BAD_ID {
                    // Rejected before the first operator: nothing charged.
                    assert_eq!((q.stats.ticks, q.stats.io), (0, IoStats::default()), "{label}");
                    assert_eq!(q.yields, 0, "{label}");
                } else if i == BAD_PLAN {
                    // Strikes after the left input ran: the stats carry
                    // what was charged up to then.
                    assert!(q.stats.io.page_requests() > 0, "{label}: charged work is reported");
                    assert!(quantum != 16 || q.yields > 0, "{label}: failed before its first yield");
                }
            }
        }
    }
}

/// Hardening (a), the query that panics: under a cost model whose page
/// requests cost 10^7 s each, every query's own clock overflows its `u64`
/// picoseconds on its second page request and the query panics.  The
/// scheduler adds each slice to the burst's global clock under its lock;
/// that sum saturates instead of panicking there (which stranded the
/// burst) or wrapping (which made turnarounds run backwards).  At levels
/// 1 and 8, under every condition of the matrix, the burst comes back,
/// every query reports the overflow as its panic, and turnarounds never
/// decrease in completion order.
#[test]
fn a_burst_whose_clocks_overflow_still_returns() {
    let w = Arc::new(workload());
    let burst = eight_of_the_catalog(&w);
    let model = CostModel {
        seq_page_read: 1e7,
        single_page_read: 1e7,
        random_page_read: 1e7,
        cpu_buffer_hit: 1e7,
        ..CostModel::hdd_2009()
    };
    for cond in conditions() {
        for level in [1usize, 8] {
            let mut scfg = ServeConfig { model: model.clone(), ..cfgs(&cond).1 };
            scfg.admission = AdmissionConfig { max_in_flight: level, ..AdmissionConfig::default() };
            let report = serve_watched(&w, burst.clone(), scfg);
            let label = format!("[{}] level {level}", cond.name);
            assert_eq!(report.queries.len(), 8, "{label}: every query reports");
            for (i, q) in report.queries.iter().enumerate() {
                assert!(
                    matches!(&q.error, Some(QueryError::Panic(msg)) if msg.contains("overflow")),
                    "{label} query {i}: {:?}",
                    q.error
                );
            }
            let turnarounds: Vec<f64> =
                report.completion_order.iter().map(|&i| report.queries[i].turnaround).collect();
            assert!(
                turnarounds.windows(2).all(|t| t[0] <= t[1]),
                "{label}: turnarounds in completion order {turnarounds:?}"
            );
        }
    }
}

/// Hardening (b): a plan that names a column its input does not have is a
/// `BadPlan` before it charges anything, whatever the shape.  The whole
/// catalog as one burst with query 7 replaced by an MDAM scan projecting
/// column 5 of a two-column key (a panic in a scoped thread before the
/// leaf shapes were validated): the other fourteen finish with their usual
/// rows and work — and, served one at a time, their usual ticks.
#[test]
fn a_bad_column_reference_costs_the_burst_nothing() {
    const BAD: usize = 7;
    let w = Arc::new(workload());
    let mut burst: Vec<PlanSpec> = catalog(&w)
        .iter()
        .map(|p| p.build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4)))
        .collect();
    burst[BAD] = PlanSpec::Mdam {
        index: w.indexes.ab,
        col_ranges: vec![(i64::MIN, i64::MAX), (i64::MIN, i64::MAX)],
        project: Projection::Columns(vec![5]),
    };
    for cond in conditions() {
        let (mcfg, scfg) = cfgs(&cond);
        for level in [1usize, 8] {
            let mut scfg = scfg.clone();
            scfg.admission = AdmissionConfig { max_in_flight: level, ..AdmissionConfig::default() };
            let report = serve_watched(&w, burst.clone(), scfg);
            assert_eq!(report.queries.len(), 15);
            for (i, q) in report.queries.iter().enumerate() {
                let label = format!("[{}] level {level} query {i}", cond.name);
                if i == BAD {
                    assert!(
                        matches!(q.error, Some(QueryError::Exec(ExecError::BadPlan(_)))),
                        "{label}: {:?}",
                        q.error
                    );
                    assert_eq!((q.stats.ticks, q.stats.io), (0, IoStats::default()), "{label}");
                    assert_eq!((q.stats.rows_out, q.yields), (0, 0), "{label}");
                    continue;
                }
                assert_served_as_alone(&w, q, &burst[i], &mcfg, level, &label);
            }
        }
    }
}
