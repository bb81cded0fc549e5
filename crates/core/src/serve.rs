//! Deterministic concurrent serving: N queries over one shared buffer pool.
//!
//! The paper measures each plan/parameter combination in isolation; real
//! servers run many queries at once, competing for the buffer pool and for
//! memory grants.  [`serve_concurrent`] executes a burst of queries over a
//! single [`SharedBufferPool`], interleaved by a deterministic round-robin
//! scheduler, so contention becomes a sweepable run-time condition like
//! selectivity or pool size — same inputs, bit-identical outputs, every
//! run.
//!
//! ## Determinism by construction
//!
//! Concurrency is usually where determinism dies, so the scheduler is
//! built to make every nondeterministic choice impossible rather than
//! unlikely:
//!
//! * **One runnable query at a time.**  Each query runs on its own thread,
//!   but a thread only executes while it holds the *baton* — a message on
//!   its private channel.  Everyone else is parked inside their session's
//!   yield hook waiting for the baton.  Threads exist purely to hold
//!   suspended executor stacks; there is no parallel execution and hence
//!   no racing on the shared pool.
//! * **Yielding at charge granularity.**  The [`Session`] invokes its
//!   yield hook every `quantum` charge events, *between* charges — never
//!   in the middle of one.  Suspend/resume therefore cannot split or
//!   reorder any simulated charge.
//! * **All decisions from deterministic state.**  Which query runs next
//!   (round-robin over the admitted set), who is admitted
//!   ([`AdmissionPolicy`] over a FIFO arrival queue), and with what grant
//!   are all pure functions of the burst and the config.  The only racy
//!   moment is the initial "ready" announcement from each thread, which
//!   happens before any query has charged anything — the order those
//!   messages arrive in is irrelevant.
//!
//! ## The concurrency-1 contract
//!
//! Whenever the server goes idle between admissions (nothing running,
//! queries still queued), it resets the shared pool.  A burst served at
//! `max_in_flight = 1` therefore degenerates to cold-session-per-query —
//! bit-identical (`seconds.to_bits()`, [`IoStats`](robustmap_storage::IoStats),
//! per-operator stats) to
//! measuring each query alone with today's static executor.  The
//! differential suite `tests/concurrent_equivalence.rs` enforces this
//! across the whole 15-plan catalog, and `ext_concurrency` re-checks it at
//! figure scale.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use robustmap_executor::{run_count, ExecConfig, ExecCtx, ExecStats, PlanSpec, RunOpts};
use robustmap_obs::trace::{TraceEventKind, TraceSink};
use robustmap_storage::{
    CostModel, Database, EvictionPolicy, QueryShare, Session, SharedBufferPool,
};
use robustmap_systems::{apply_grant, AdmissionConfig, AdmissionDecision, AdmissionPolicy};

use crate::measure::Measurement;

/// Environment variable overriding [`ServeConfig::quantum`] (charge events
/// between yields).  `scripts/verify.sh` re-runs the concurrent
/// equivalence suite at an odd quantum to prove slicing is unobservable.
pub const ENV_QUANTUM: &str = "ROBUSTMAP_QUANTUM";

/// Run-time conditions for one served burst.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shared buffer pool size in pages (one pool for the whole burst).
    pub pool_pages: usize,
    /// Replacement policy of the shared pool.
    pub policy: EvictionPolicy,
    /// Cost model (hardware generation).
    pub model: CostModel,
    /// Charge events between yields (0 = never yield: each admitted query
    /// runs to completion once scheduled).
    pub quantum: u64,
    /// Admission control limits (in-flight slots, memory budget, grants).
    pub admission: AdmissionConfig,
    /// Optional trace sink: the scheduler pre-allocates one track per
    /// query (plus one for itself) and records admissions, baton slices
    /// and completions on the **global virtual clock** — the sum of
    /// every query's charge deltas in schedule order.  `None` falls
    /// back to the process-wide sink (`ROBUSTMAP_TRACE`), if any.
    /// Tracing is charge-free: `tests/concurrent_equivalence.rs` passes
    /// with it enabled.
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool_pages: 1024,
            policy: EvictionPolicy::Lru,
            model: CostModel::hdd_2009(),
            quantum: 1024,
            admission: AdmissionConfig::default(),
            trace: None,
        }
    }
}

impl ServeConfig {
    /// The default config with the quantum read from [`ENV_QUANTUM`]
    /// (invalid or unset values keep the default).
    pub fn from_env() -> Self {
        let mut cfg = ServeConfig::default();
        if let Some(q) = std::env::var(ENV_QUANTUM).ok().and_then(|v| v.parse::<u64>().ok()) {
            cfg.quantum = q;
        }
        cfg
    }
}

/// What one served query produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Full executor statistics (rows, seconds, I/O, per-operator).
    pub stats: ExecStats,
    /// The memory grant the query ran under, in bytes.
    pub grant: usize,
    /// Shared-pool hits attributed to this query.
    pub pool_hits: u64,
    /// Shared-pool misses attributed to this query.
    pub pool_misses: u64,
    /// Times the query yielded the baton before completing.
    pub yields: u64,
    /// Global-virtual-time seconds the query waited in the admission
    /// queue (arrival is burst start, i.e. global sim 0).
    pub queue_wait: f64,
    /// Global-virtual-time seconds from arrival to the query's first
    /// baton slice (admission delay + scheduling delay).
    pub first_baton: f64,
    /// Global-virtual-time seconds from arrival to completion.  Under
    /// interleaving this exceeds `stats.seconds` (the query's own
    /// charges) by exactly the time other queries held the baton.
    pub turnaround: f64,
}

impl QueryOutcome {
    /// This outcome as a map-builder [`Measurement`], for comparing served
    /// executions against isolated [`crate::measure_plan`] cells.
    pub fn measurement(&self) -> Measurement {
        Measurement {
            seconds: self.stats.seconds,
            io: self.stats.io,
            rows: self.stats.rows_out,
            spilled: self.stats.spilled,
        }
    }
}

/// Everything a served burst produced, in arrival order.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-query outcomes, indexed like the input `specs`.
    pub queries: Vec<QueryOutcome>,
    /// Query indices in completion order.
    pub completion_order: Vec<usize>,
    /// Query indices in admission order (FIFO arrivals, so this is the
    /// order the policy let them start).
    pub admission_order: Vec<usize>,
    /// Shared-pool `(hits, misses, evictions)` accumulated since the last
    /// idle reset (the whole burst, if the server never went idle).
    pub pool_counters: (u64, u64, u64),
    /// Times the server went idle with queries still queued and reset the
    /// shared pool (this is what makes `max_in_flight = 1` serving
    /// cold-session-per-query).
    pub idle_resets: u64,
}

/// A finished thread's payload, boxed to keep [`Event`] small.
struct ThreadOutcome {
    stats: ExecStats,
    share: QueryShare,
    yields: u64,
    /// Final session clock, so the scheduler can account the last slice
    /// onto the global virtual clock.
    elapsed: f64,
}

enum Event {
    /// Query `i` yielded the baton (or announced readiness, before its
    /// first slice), with its session clock at the yield point.
    Yield(usize, f64),
    /// Query `i` completed.
    Done(usize, Box<ThreadOutcome>),
}

/// Serve a burst of queries concurrently over one shared buffer pool and
/// return every outcome.  Queries arrive in `specs` order; admission is
/// FIFO; scheduling is round-robin at `cfg.quantum` charge-event
/// granularity.  Deterministic: identical inputs produce bit-identical
/// reports (see module docs for why).
pub fn serve_concurrent(db: &Database, specs: &[PlanSpec], cfg: &ServeConfig) -> ServeReport {
    let n = specs.len();
    let pool = Arc::new(SharedBufferPool::new(cfg.pool_pages, cfg.policy));
    let default_grant = cfg.admission.default_grant;

    // Charge-free tracing: the explicitly configured sink, else the
    // process-wide one.  Tracks are pre-allocated here so the scheduler's
    // global-clock events and each session's query-clock events land on
    // the same lane per query.
    let sink: Option<Arc<TraceSink>> =
        cfg.trace.clone().or_else(robustmap_obs::trace::global_sink);
    let (tracks, sched_track) = match &sink {
        Some(s) => (
            specs
                .iter()
                .enumerate()
                .map(|(i, spec)| s.alloc_track(&format!("q{i}: {}", spec.synopsis())))
                .collect::<Vec<u32>>(),
            s.alloc_track("scheduler"),
        ),
        None => (vec![0; n], 0),
    };
    let emit = |track: u32, sim: f64, kind: TraceEventKind| {
        if let Some(s) = &sink {
            s.emit(track, sim, kind);
        }
    };

    let (evt_tx, evt_rx) = mpsc::channel::<Event>();
    let mut batons: Vec<mpsc::Sender<usize>> = Vec::with_capacity(n);

    let mut outcomes: Vec<Option<QueryOutcome>> = (0..n).map(|_| None).collect();
    let mut completion_order = Vec::with_capacity(n);
    let mut admission_order = Vec::with_capacity(n);
    let mut idle_resets = 0u64;

    std::thread::scope(|scope| {
        for (i, spec) in specs.iter().enumerate() {
            let (go_tx, go_rx) = mpsc::channel::<usize>();
            batons.push(go_tx);
            let evt_tx = evt_tx.clone();
            let pool = Arc::clone(&pool);
            let model = cfg.model.clone();
            let quantum = cfg.quantum;
            let sink = sink.clone();
            let track = tracks[i];
            scope.spawn(move || {
                let session = Session::on_shared(model, pool);
                if let Some(s) = sink {
                    // Replace any auto-attached global track with the
                    // scheduler's pre-allocated, synopsis-labelled one.
                    session.attach_tracer_track(s, track);
                }
                // The hook parks this thread until the scheduler hands the
                // baton back; the baton message carries the memory grant
                // (only the first one matters — later batons repeat it).
                let granted = Arc::new(AtomicUsize::new(default_grant));
                let yields = Arc::new(AtomicU64::new(0));
                let hook = {
                    let granted = Arc::clone(&granted);
                    let yields = Arc::clone(&yields);
                    let evt_tx = evt_tx.clone();
                    Box::new(move |elapsed: f64| {
                        yields.fetch_add(1, Ordering::Relaxed);
                        evt_tx.send(Event::Yield(i, elapsed)).expect("scheduler hung up");
                        let g = go_rx.recv().expect("scheduler dropped the baton");
                        granted.store(g, Ordering::Relaxed);
                    })
                };
                session.install_yield_hook(quantum, hook);
                // Announce readiness and wait to be scheduled.  Nothing has
                // been charged yet, so the racy arrival order of these
                // ready events cannot affect any measurement.
                session.yield_now();
                let grant = granted.load(Ordering::Relaxed);
                session.set_memory_grant(grant);
                // A shrunk grant reshapes the plan (operators clamp to the
                // grant and may now spill); a full grant leaves the plan
                // and its charges byte-for-byte untouched.
                let spec = if grant < default_grant {
                    apply_grant(spec, grant)
                } else {
                    spec.clone()
                };
                let ctx = ExecCtx::new(db, &session, grant);
                let opts = RunOpts { batch: ExecConfig::from_env(), controller: None };
                let stats =
                    run_count(&spec, &ctx, opts).expect("served plans must be well-formed");
                let share = session.query_pool_counters();
                let elapsed = session.elapsed();
                session.clear_yield_hook();
                session.detach_tracer();
                // The first yield was the ready announcement, not a slice.
                let yields = yields.load(Ordering::Relaxed).saturating_sub(1);
                evt_tx
                    .send(Event::Done(
                        i,
                        Box::new(ThreadOutcome { stats, share, yields, elapsed }),
                    ))
                    .expect("scheduler hung up");
            });
        }
        drop(evt_tx);

        // Phase 1: wait for every thread to park in its hook.  After this
        // point exactly one thread runs at a time — the baton holder.
        for _ in 0..n {
            match evt_rx.recv().expect("a serving thread died before ready") {
                Event::Yield(..) => {}
                Event::Done(i, _) => unreachable!("query {i} finished before being scheduled"),
            }
        }

        // Phase 2: admit and round-robin until the burst drains.  The
        // global virtual clock advances by the running query's charge
        // delta at every yield — the shared timeline every scheduler
        // trace event and latency figure is stamped with.
        let mut global_sim = 0.0f64;
        let mut last_elapsed = vec![0.0f64; n];
        let mut queue_wait = vec![0.0f64; n];
        let mut first_baton = vec![f64::NAN; n];
        let mut turnaround = vec![0.0f64; n];
        for track in tracks.iter().take(n) {
            emit(*track, 0.0, TraceEventKind::Queued);
        }
        let mut policy = AdmissionPolicy::new(cfg.admission.clone());
        let mut pending: std::collections::VecDeque<usize> = (0..n).collect();
        let mut running: Vec<usize> = Vec::new();
        let mut grants = vec![0usize; n];
        let mut cursor = 0usize;
        let mut completed = 0usize;
        while completed < n {
            if running.is_empty() && completed > 0 && !pending.is_empty() {
                // Idle between admissions: restore cold conditions, so a
                // serialized burst measures exactly like isolated queries.
                pool.reset();
                idle_resets += 1;
                emit(sched_track, global_sim, TraceEventKind::IdleReset);
            }
            while !pending.is_empty() {
                match policy.admit() {
                    AdmissionDecision::Run { grant } => {
                        let q = pending.pop_front().expect("checked non-empty");
                        grants[q] = grant;
                        queue_wait[q] = global_sim;
                        admission_order.push(q);
                        running.push(q);
                        emit(tracks[q], global_sim, TraceEventKind::Admit {
                            grant: grant as u64,
                        });
                    }
                    AdmissionDecision::Queue => break,
                }
            }
            assert!(!running.is_empty(), "admission deadlock: nothing running or admissible");
            let q = running[cursor];
            if first_baton[q].is_nan() {
                first_baton[q] = global_sim;
            }
            emit(tracks[q], global_sim, TraceEventKind::SliceBegin);
            batons[q].send(grants[q]).expect("query thread died holding work");
            match evt_rx.recv().expect("query thread died mid-slice") {
                Event::Yield(i, elapsed) => {
                    debug_assert_eq!(i, q, "baton discipline violated");
                    global_sim += elapsed - last_elapsed[i];
                    last_elapsed[i] = elapsed;
                    emit(tracks[i], global_sim, TraceEventKind::SliceEnd);
                    cursor = (cursor + 1) % running.len();
                }
                Event::Done(i, out) => {
                    debug_assert_eq!(i, q, "baton discipline violated");
                    global_sim += out.elapsed - last_elapsed[i];
                    last_elapsed[i] = out.elapsed;
                    turnaround[i] = global_sim;
                    emit(tracks[i], global_sim, TraceEventKind::SliceEnd);
                    emit(tracks[i], global_sim, TraceEventKind::QueryDone {
                        rows: out.stats.rows_out,
                    });
                    outcomes[i] = Some(QueryOutcome {
                        stats: out.stats,
                        grant: grants[i],
                        pool_hits: out.share.hits,
                        pool_misses: out.share.misses,
                        yields: out.yields,
                        queue_wait: queue_wait[i],
                        first_baton: if first_baton[i].is_nan() { 0.0 } else { first_baton[i] },
                        turnaround: turnaround[i],
                    });
                    completion_order.push(i);
                    policy.release(grants[i]);
                    running.remove(cursor);
                    if cursor >= running.len() {
                        cursor = 0;
                    }
                    completed += 1;
                }
            }
        }
    });

    ServeReport {
        queries: outcomes
            .into_iter()
            .map(|o| o.expect("every query completed"))
            .collect(),
        completion_order,
        admission_order,
        pool_counters: pool.counters(),
        idle_resets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_executor::{ColRange, Predicate, Projection};
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    fn scan_spec(w: &robustmap_workload::Workload, sel: f64) -> PlanSpec {
        PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(0, w.cal_a.threshold(sel))),
            project: Projection::All,
        }
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 10));
        let report = serve_concurrent(&w.db, &[], &ServeConfig::default());
        assert!(report.queries.is_empty());
        assert!(report.completion_order.is_empty());
        assert_eq!(report.idle_resets, 0);
    }

    #[test]
    fn burst_of_scans_completes_with_correct_rows() {
        let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 10));
        let specs = vec![scan_spec(&w, 0.25), scan_spec(&w, 0.5), scan_spec(&w, 1.0)];
        let report = serve_concurrent(&w.db, &specs, &ServeConfig::default());
        assert_eq!(report.queries.len(), 3);
        assert_eq!(report.queries[2].stats.rows_out, 1 << 10);
        assert!(report.queries[0].stats.rows_out < report.queries[1].stats.rows_out);
        // Unbounded admission: everyone admitted up front, FIFO.
        assert_eq!(report.admission_order, vec![0, 1, 2]);
        assert_eq!(report.idle_resets, 0);
        // Identical scans interleaved over one pool share pages.
        assert!(report.queries.iter().any(|q| q.pool_hits > 0));
        // Latency accounting: unbounded admission means zero queue wait,
        // and each query's turnaround is at least its own run time and at
        // least its first-baton latency.
        for q in &report.queries {
            assert_eq!(q.queue_wait, 0.0);
            assert!(q.first_baton >= q.queue_wait);
            assert!(q.turnaround >= q.first_baton);
            assert!(q.turnaround >= q.stats.seconds * (1.0 - 1e-9));
        }
        // The last completion's turnaround is the burst makespan: the sum
        // of everyone's charges (the global clock only advances by
        // charges, never idles).
        let makespan: f64 = report.queries.iter().map(|q| q.stats.seconds).sum();
        let last = *report.completion_order.last().unwrap();
        assert!((report.queries[last].turnaround - makespan).abs() <= 1e-9 * makespan);
    }

    #[test]
    fn bounded_slots_make_queue_wait_visible() {
        use robustmap_systems::AdmissionConfig;
        let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 10));
        let specs = vec![scan_spec(&w, 1.0), scan_spec(&w, 1.0), scan_spec(&w, 1.0)];
        let cfg = ServeConfig {
            admission: AdmissionConfig { max_in_flight: 1, ..AdmissionConfig::default() },
            ..ServeConfig::default()
        };
        let report = serve_concurrent(&w.db, &specs, &cfg);
        assert_eq!(report.queries[0].queue_wait, 0.0);
        // With one slot, query 1 waits exactly as long as query 0 runs.
        assert!(report.queries[1].queue_wait > 0.0);
        assert!(report.queries[2].queue_wait > report.queries[1].queue_wait);
        assert!(
            (report.queries[1].queue_wait - report.queries[0].stats.seconds).abs()
                <= 1e-9 * report.queries[0].stats.seconds
        );
    }

    #[test]
    fn traced_serving_is_bit_identical_and_timeline_reconciles() {
        use robustmap_obs::trace::{slice_totals, validate_trace, TraceDetail};
        let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 10));
        let specs = vec![scan_spec(&w, 0.25), scan_spec(&w, 0.5), scan_spec(&w, 1.0)];
        let plain = serve_concurrent(&w.db, &specs, &ServeConfig::default());
        let sink = Arc::new(TraceSink::memory(TraceDetail::Spans));
        let cfg = ServeConfig { trace: Some(Arc::clone(&sink)), ..ServeConfig::default() };
        let traced = serve_concurrent(&w.db, &specs, &cfg);
        // The charge-free contract at the serving layer: recording the
        // full timeline must not move a single bit of simulated cost.
        for (p, t) in plain.queries.iter().zip(traced.queries.iter()) {
            assert_eq!(p.stats.seconds.to_bits(), t.stats.seconds.to_bits());
            assert_eq!(p.stats.io, t.stats.io);
            assert_eq!(p.yields, t.yields);
            assert_eq!(p.turnaround.to_bits(), t.turnaround.to_bits());
        }
        assert_eq!(plain.completion_order, traced.completion_order);
        // The recorded timeline is well-formed and its per-query slice
        // totals reconcile with the reported run times.
        let events = sink.events();
        validate_trace(&events).expect("served trace must be well-formed");
        let totals = slice_totals(&events);
        for (i, q) in traced.queries.iter().enumerate() {
            let total = totals.get(&(i as u32)).copied().unwrap_or(0.0);
            assert!(
                (total - q.stats.seconds).abs() <= 1e-9 * q.stats.seconds.max(1e-12),
                "query {i}: slice total {total} != seconds {}",
                q.stats.seconds
            );
        }
        // Scheduler bookkeeping made it into the trace.
        let m = sink.metrics();
        assert_eq!(m.counter("sched.admissions"), 3);
        assert_eq!(m.counter("sched.completions"), 3);
        assert!(m.counter("sched.slices") >= 3);
    }

    #[test]
    fn zero_quantum_serializes_each_admitted_query() {
        let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 10));
        let specs = vec![scan_spec(&w, 1.0), scan_spec(&w, 1.0)];
        let cfg = ServeConfig { quantum: 0, ..ServeConfig::default() };
        let report = serve_concurrent(&w.db, &specs, &cfg);
        assert_eq!(report.completion_order, vec![0, 1]);
        assert!(report.queries.iter().all(|q| q.yields == 0));
    }
}
