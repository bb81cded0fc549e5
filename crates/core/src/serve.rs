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
//!   but a thread only executes while it holds the *baton*: its index is
//!   the value of the burst's `turn` word.  Everyone else is parked —
//!   inside their session's yield hook, or before their first instruction
//!   of query work.  Threads exist purely to hold suspended executor
//!   stacks; there is no parallel execution and hence no racing on the
//!   shared pool.
//! * **Yielding at charge granularity.**  The [`Session`] invokes its
//!   yield hook once per `quantum` charge events, *between* charge calls —
//!   never in the middle of one, and a call that stands for a page's worth
//!   of events is not split.  Suspend/resume therefore cannot split any
//!   simulated charge.
//! * **The baton holder decides.**  There is no scheduler thread.  The
//!   scheduler is a struct — admission policy, arrival queue, admitted
//!   set, round-robin cursor, the global virtual clock — that only the
//!   baton holder touches.  A yielding query accounts its own slice, runs
//!   the scheduling step (idle reset, admit, next in the ring), writes
//!   the successor's index to `turn`, wakes that thread and parks itself.
//!   One step runs at a time and reads nothing but that struct, so which
//!   query runs next ([`AdmissionPolicy`] over a FIFO arrival queue, then
//!   round-robin over the admitted set) and with what grant are pure
//!   functions of the burst and the config.  No thread does anything
//!   observable before its first baton — it does not even register on the
//!   pool — so thread start-up order cannot matter.
//! * **Handing the baton to yourself is free.**  When the step picks the
//!   yielder itself (every slice at `max_in_flight = 1`, and the tail of
//!   every burst) the hook just returns: no wake, no park.
//!
//! ## Failed queries
//!
//! With no central loop, a query that died holding the baton would strand
//! everyone parked behind it.  So a worker runs its query under
//! `catch_unwind`: an `Err` from the executor or a panic becomes that
//! query's [`QueryOutcome::error`], its stats carry what it charged up to
//! the failure, and it completes like any other query — slice accounted,
//! grant released, baton handed on.  The burst always drains; the
//! schedule of a burst with a failing query is still a pure function of
//! burst and config (the failure just ends that query's charges early).
//!
//! ## The concurrency-1 contract
//!
//! Whenever the server goes idle between admissions (nothing running,
//! queries still queued), it resets the shared pool.  A burst served at
//! `max_in_flight = 1` therefore degenerates to cold-session-per-query —
//! identical (clock ticks, [`IoStats`](robustmap_storage::IoStats),
//! per-operator stats) to
//! measuring each query alone with today's static executor.  The
//! differential suite `tests/concurrent_equivalence.rs` enforces this
//! across the whole 15-plan catalog, and `ext_concurrency` re-checks it at
//! figure scale.

use std::any::Any;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};

use robustmap_executor::{run_count, ExecCtx, ExecError, ExecStats, PlanSpec};
use robustmap_obs::trace::{TraceEventKind, TraceSink};
use robustmap_storage::{
    ticks_to_seconds, CostModel, Database, EvictionPolicy, QueryShare, Session, SharedBufferPool,
};
use robustmap_systems::admission::DEFAULT_GRANT;
use robustmap_systems::{apply_grant, AdmissionConfig, AdmissionDecision, AdmissionPolicy};

use crate::measure::Measurement;

/// Run-time conditions for one served burst.  Every condition is a field
/// here: nothing reaches a burst through the environment or a process
/// global.
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
    /// every query's charge deltas in schedule order.  `None` records
    /// nothing.  Tracing is charge-free: `tests/concurrent_equivalence.rs`
    /// serves every burst once more with it enabled.
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

/// Why a served query did not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The executor rejected the plan or a storage access.
    Exec(ExecError),
    /// The query panicked; the panic's message (empty if its payload was
    /// not a string).
    Panic(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Exec(e) => write!(f, "{e}"),
            QueryError::Panic(msg) => write!(f, "query panicked: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// What one served query produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Full executor statistics (rows, seconds, I/O, per-operator).  For a
    /// failed query: what it charged up to the failure, no rows and no
    /// per-operator breakdown.
    pub stats: ExecStats,
    /// `None` for a query that ran to completion; otherwise why it did
    /// not.  A failed query still held and released its grant and its
    /// slices are on the global clock like anyone's.
    pub error: Option<QueryError>,
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
        Measurement::from(&self.stats)
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

/// The scheduler's book on one query.
#[derive(Default)]
struct Slot {
    grant: usize,
    /// The query's session clock (ticks) at its last yield, so the next
    /// slice's charge delta can go onto the global virtual clock.
    last_elapsed: u64,
    yields: u64,
    /// Global-clock ticks at admission and at the first baton.
    queue_wait: u64,
    first_baton: Option<u64>,
    outcome: Option<QueryOutcome>,
}

/// The whole scheduler state.  Only the baton holder touches it (and the
/// caller of [`serve_concurrent`], before the first baton and after the
/// last), so the mutex around it is never contended: it is there because
/// the holder changes from slice to slice.
struct Scheduler {
    policy: AdmissionPolicy,
    pending: VecDeque<usize>,
    running: Vec<usize>,
    cursor: usize,
    /// The global virtual clock, in ticks: it advances by the running
    /// query's charge delta at every yield — the shared timeline every
    /// scheduler trace event (in ticks, as is) and latency figure (as
    /// seconds, converted where it is read) is stamped with.
    global_sim: u64,
    slots: Vec<Slot>,
    completion_order: Vec<usize>,
    admission_order: Vec<usize>,
    idle_resets: u64,
}

/// `turn` while nobody holds the baton: before the first dispatch.
const NOBODY: usize = usize::MAX;

/// What the threads of one burst share.
struct Burst {
    sched: Mutex<Scheduler>,
    /// The index of the query holding the baton.  Written (`Release`) by
    /// the previous holder after its scheduling step, read (`Acquire`) by
    /// a parked thread deciding whether its wake-up is its turn; the pair
    /// orders everything the previous holder did before the next one runs.
    turn: AtomicUsize,
    /// The query threads' handles, set once every thread is spawned and
    /// before the first dispatch; only a baton holder reads them.
    threads: OnceLock<Vec<Thread>>,
    pool: Arc<SharedBufferPool>,
    /// Charge-free tracing: the configured sink.  Tracks are
    /// pre-allocated so the scheduler's global-clock events and each
    /// session's query-clock events land on the same lane per query.
    sink: Option<Arc<TraceSink>>,
    tracks: Vec<u32>,
    sched_track: u32,
}

impl Burst {
    fn sched(&self) -> MutexGuard<'_, Scheduler> {
        self.sched.lock().expect("a baton holder panicked inside the scheduling step")
    }

    fn emit(&self, track: u32, ticks: u64, kind: TraceEventKind) {
        if let Some(s) = &self.sink {
            s.emit(track, ticks, kind);
        }
    }

    /// The scheduling step: reset the pool if the server went idle, admit
    /// whoever the policy lets in, and begin the slice of the next query
    /// in the ring.  `None` once the burst has drained.
    fn dispatch(&self, s: &mut Scheduler) -> Option<usize> {
        if s.running.is_empty() && !s.completion_order.is_empty() && !s.pending.is_empty() {
            // Idle between admissions: restore cold conditions, so a
            // serialized burst measures exactly like isolated queries.
            self.pool.reset();
            s.idle_resets += 1;
            self.emit(self.sched_track, s.global_sim, TraceEventKind::IdleReset);
        }
        while let Some(&q) = s.pending.front() {
            match s.policy.admit() {
                AdmissionDecision::Run { grant } => {
                    s.pending.pop_front();
                    s.slots[q].grant = grant;
                    s.slots[q].queue_wait = s.global_sim;
                    s.admission_order.push(q);
                    s.running.push(q);
                    self.emit(self.tracks[q], s.global_sim, TraceEventKind::Admit {
                        grant: grant as u64,
                    });
                }
                AdmissionDecision::Queue => break,
            }
        }
        if s.running.is_empty() {
            // An idle policy always admits, so nothing is queued either.
            assert!(s.pending.is_empty(), "admission deadlock: nothing running or admissible");
            return None;
        }
        let q = s.running[s.cursor];
        let now = s.global_sim;
        s.slots[q].first_baton.get_or_insert(now);
        self.emit(self.tracks[q], now, TraceEventKind::SliceBegin);
        Some(q)
    }

    /// Put the slice `q` just ran, up to its session clock `elapsed`, on
    /// the global clock.  The sum saturates: each query's own clock stops
    /// (and its query fails) short of `u64::MAX`, but a burst's queries
    /// together can add up to more, and this runs under the scheduler lock
    /// — a panic here would strand the burst, a wrap would run
    /// turnarounds backwards.
    fn end_slice(&self, s: &mut Scheduler, q: usize, elapsed: u64) {
        debug_assert_eq!(s.running[s.cursor], q, "baton discipline violated");
        s.global_sim = s.global_sim.saturating_add(elapsed - s.slots[q].last_elapsed);
        s.slots[q].last_elapsed = elapsed;
        self.emit(self.tracks[q], s.global_sim, TraceEventKind::SliceEnd);
    }

    /// Give `q` the baton and wake it.
    fn wake(&self, q: usize) {
        self.turn.store(q, Ordering::Release);
        self.threads.get().expect("handles are set before the first dispatch")[q].unpark();
    }

    /// Park until query `i` holds the baton.  `park` may return early and
    /// a wake may arrive before the park; the loop on `turn` covers both.
    fn wait_turn(&self, i: usize) {
        while self.turn.load(Ordering::Acquire) != i {
            thread::park();
        }
    }

    /// Query `i`'s yield hook: account the slice, move the ring on, run
    /// the scheduling step and hand the baton to whoever it picked.
    fn yield_baton(&self, i: usize, elapsed: u64) {
        let next = {
            let mut s = self.sched();
            self.end_slice(&mut s, i, elapsed);
            s.slots[i].yields += 1;
            s.cursor = (s.cursor + 1) % s.running.len();
            self.dispatch(&mut s).expect("the yielder itself is still running")
        };
        if next != i {
            self.wake(next);
            self.wait_turn(i);
        }
    }

    /// Query `i` is over (completed or failed): account its last slice,
    /// record its outcome, free its slot and grant, and hand the baton on.
    fn finish(&self, i: usize, done: Finished) {
        let next = {
            let mut s = self.sched();
            self.end_slice(&mut s, i, done.elapsed);
            let turnaround = s.global_sim;
            self.emit(self.tracks[i], turnaround, TraceEventKind::QueryDone {
                rows: done.stats.rows_out,
            });
            let slot = &mut s.slots[i];
            let grant = slot.grant;
            slot.outcome = Some(QueryOutcome {
                stats: done.stats,
                error: done.error,
                grant,
                pool_hits: done.share.hits,
                pool_misses: done.share.misses,
                yields: slot.yields,
                queue_wait: ticks_to_seconds(slot.queue_wait),
                first_baton: ticks_to_seconds(slot.first_baton.unwrap_or(0)),
                turnaround: ticks_to_seconds(turnaround),
            });
            s.completion_order.push(i);
            s.policy.release(grant);
            let at = s.cursor;
            s.running.remove(at);
            if s.cursor >= s.running.len() {
                s.cursor = 0;
            }
            self.dispatch(&mut s)
        };
        if let Some(next) = next {
            self.wake(next);
        }
    }
}

/// What a query thread hands in when its query is over.
struct Finished {
    stats: ExecStats,
    error: Option<QueryError>,
    share: QueryShare,
    /// Final session clock, so the last slice can go onto the global clock.
    elapsed: u64,
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

/// The body of query `i`'s thread: park until first scheduled, run the
/// query under the granted memory, hand in the outcome.
fn serve_query(
    burst: &Arc<Burst>,
    i: usize,
    db: &Database,
    spec: &PlanSpec,
    cfg: &ServeConfig,
) {
    // Nothing observable happens before the first baton: the session
    // registers on the pool only now, in first-slice order.
    burst.wait_turn(i);
    let grant = burst.sched().slots[i].grant;
    let session = Session::on_shared(cfg.model.clone(), Arc::clone(&burst.pool));
    if let Some(s) = &burst.sink {
        session.attach_tracer_track(Arc::clone(s), burst.tracks[i]);
    }
    let hook = {
        let burst = Arc::clone(burst);
        Box::new(move |elapsed: u64| burst.yield_baton(i, elapsed))
    };
    session.install_yield_hook(cfg.quantum, hook);
    session.set_memory_grant(grant);
    let ctx = ExecCtx::new(db, &session, grant);
    // A panic in here unwinds between scheduling steps, never inside one
    // (the hook parks or returns), so the scheduler state stays whole.
    let ran = catch_unwind(AssertUnwindSafe(|| {
        // A shrunk grant reshapes the plan (operators clamp to the grant
        // and may now spill); a full grant leaves the plan and its
        // charges byte-for-byte untouched.
        let spec = if grant < DEFAULT_GRANT {
            Cow::Owned(apply_grant(spec, grant))
        } else {
            Cow::Borrowed(spec)
        };
        run_count(&spec, &ctx, None)
    }));
    // The session is this query's alone, so its totals are what a failed
    // query charged before it failed.
    let charged = || ExecStats {
        rows_out: 0,
        ticks: session.elapsed_ticks(),
        seconds: session.elapsed(),
        io: session.stats(),
        spilled: ctx.spilled(),
        operators: Vec::new(),
        switches: Vec::new(),
    };
    let (stats, error) = match ran {
        Ok(Ok(stats)) => (stats, None),
        Ok(Err(e)) => (charged(), Some(QueryError::Exec(e))),
        Err(payload) => (charged(), Some(QueryError::Panic(panic_message(payload)))),
    };
    let share = session.query_pool_counters();
    let elapsed = session.elapsed_ticks();
    session.clear_yield_hook();
    session.detach_tracer();
    burst.finish(i, Finished { stats, error, share, elapsed });
}

/// Serve a burst of queries concurrently over one shared buffer pool and
/// return every outcome.  Queries arrive in `specs` order; admission is
/// FIFO; scheduling is round-robin at `cfg.quantum` charge-event
/// granularity.  Deterministic: identical inputs produce bit-identical
/// reports (see module docs for why).  A query that fails — the executor
/// returns an error, or it panics — ends with [`QueryOutcome::error`] set
/// and the burst carries on without it.
pub fn serve_concurrent(db: &Database, specs: &[PlanSpec], cfg: &ServeConfig) -> ServeReport {
    let n = specs.len();
    let (tracks, sched_track) = match &cfg.trace {
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
    let burst = Arc::new(Burst {
        sched: Mutex::new(Scheduler {
            policy: AdmissionPolicy::new(cfg.admission.clone()),
            pending: (0..n).collect(),
            running: Vec::new(),
            cursor: 0,
            global_sim: 0,
            slots: (0..n).map(|_| Slot::default()).collect(),
            completion_order: Vec::with_capacity(n),
            admission_order: Vec::with_capacity(n),
            idle_resets: 0,
        }),
        turn: AtomicUsize::new(NOBODY),
        threads: OnceLock::new(),
        pool: Arc::new(SharedBufferPool::new(cfg.pool_pages, cfg.policy)),
        sink: cfg.trace.clone(),
        tracks,
        sched_track,
    });

    thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let burst = &burst;
                scope.spawn(move || serve_query(burst, i, db, spec, cfg))
            })
            .collect();
        burst
            .threads
            .set(handles.iter().map(|h| h.thread().clone()).collect())
            .expect("the handles are set once");
        // The first dispatch; every later one is made by a baton holder,
        // and this thread just waits for the scope to join them.
        let first = {
            let mut s = burst.sched();
            for track in &burst.tracks {
                burst.emit(*track, 0, TraceEventKind::Queued);
            }
            burst.dispatch(&mut s)
        };
        if let Some(q) = first {
            burst.wake(q);
        }
    });

    let mut s = burst.sched();
    ServeReport {
        queries: s
            .slots
            .iter_mut()
            .map(|slot| slot.outcome.take().expect("every query thread hands in an outcome"))
            .collect(),
        completion_order: std::mem::take(&mut s.completion_order),
        admission_order: std::mem::take(&mut s.admission_order),
        pool_counters: burst.pool.counters(),
        idle_resets: s.idle_resets,
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
            assert_eq!(p.stats.ticks, t.stats.ticks);
            assert_eq!(p.stats.io, t.stats.io);
            assert_eq!(p.yields, t.yields);
            assert_eq!(p.turnaround, t.turnaround);
        }
        assert_eq!(plain.completion_order, traced.completion_order);
        // The recorded timeline is well-formed and its per-query slice
        // totals reconcile with the reported run times.
        let events = sink.events();
        validate_trace(&events).expect("served trace must be well-formed");
        let totals = slice_totals(&events);
        for (i, q) in traced.queries.iter().enumerate() {
            assert_eq!(totals.get(&(i as u32)), Some(&q.stats.ticks), "query {i}: slice total");
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
