//! Per-query accounting context.
//!
//! A [`Session`] is the per-query half of the execution stack's split: it
//! owns the query-private state — the cost model, the simulated
//! [`SimClock`] (and therefore the per-query [`IoStats`]) and an optional
//! yield hook for cooperative scheduling — and
//! charges residency against pool state (page residency, per-query
//! hit/miss attribution, the temp-file allocator) that is either its own
//! or shared, depending on how it was constructed:
//!
//! * **Private pool** ([`Session::new`], [`Session::with_pool_pages`]): the
//!   session owns that state directly, in a `RefCell`.  This is the classic
//!   one-session-per-measurement mode every map cell uses; nothing is
//!   shared, so no page request takes a lock.
//! * **Shared pool** ([`Session::on_shared`]): N sessions register on one
//!   [`SharedBufferPool`] and contend for residency; each still owns a
//!   private clock, so per-query elapsed time and counters stay exact under
//!   sharing.
//!
//! Both modes run the same pool code (`shared::PoolInner`) on the same
//! state, so a private session is *identical* to a session that is the
//! only registrant of a shared pool: the clock, the I/O counters, the pool
//! hit/miss behaviour and the temp-file numbering.  `tests/prop_storage.rs`
//! (`private_session_equals_one_owner_shared_pool`) pins that contract and
//! `tests/concurrent_equivalence.rs` pins it at catalog scale.
//!
//! Methods take `&self`; `Cell`/`RefCell` keep operator code free of
//! borrow gymnastics.  A session is driven by one thread at a time — the
//! concurrent serving layer in `core::serve` interleaves whole sessions
//! cooperatively (via the yield hook) rather than sharing one session
//! across threads — so it is not `Sync`; but it is `Send`, so each query
//! may live on its own worker thread.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use robustmap_obs::trace::{TraceDetail, TraceEventKind, TraceSink};

use crate::buffer::{BufferPool, EvictionPolicy, FileId, PageId};
use crate::shared::{PoolInner, QueryId, QueryShare, SharedBufferPool};
use crate::sim::{AccessKind, CostModel, CostTicks, IoStats, SimClock};

/// A cooperative-scheduling callback: invoked between charges, never
/// charging work itself.  The argument is the session's elapsed clock
/// ticks at the yield point, so schedulers can advance a global virtual
/// clock without re-entering the session.
pub type YieldHook = Box<dyn FnMut(u64) + Send>;

/// One CPU charge call: what one `charge_compares`, `charge_rows` or
/// `charge_hashes` call of that many units charges — one charge event.
/// [`Session::charge_each`] repeats a sequence of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuCharge {
    /// Key comparisons.
    Compares(u64),
    /// Rows processed.
    Rows(u64),
    /// Hash-table operations.
    Hashes(u64),
}

/// Where a session's pool state lives: owned, or behind the shared pool's
/// lock.  Chosen by the constructor — by whether anything is shared.
enum PoolHandle {
    Private(RefCell<PoolInner>),
    Shared(Arc<SharedBufferPool>),
}

impl PoolHandle {
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut PoolInner) -> R) -> R {
        match self {
            PoolHandle::Private(inner) => f(&mut inner.borrow_mut()),
            PoolHandle::Shared(pool) => f(&mut pool.lock()),
        }
    }
}

/// Execution context charging all storage traffic to a simulated clock.
pub struct Session {
    model: CostModel,
    /// `model` in clock ticks, quantised once here: what is charged.
    costs: CostTicks,
    clock: SimClock,
    pool: PoolHandle,
    query: QueryId,
    /// Charge events so far (see [`Session::charge_events`]).
    events: Cell<u64>,
    /// Charge events per scheduling quantum.
    yield_every: Cell<u64>,
    /// The event count at which the next yield is due; `u64::MAX` while no
    /// hook is armed, so an unhooked charge pays one compare.
    yield_at: Cell<u64>,
    yielder: RefCell<Option<YieldHook>>,
    /// Charge-free tracing: the sink and this session's track on it, a
    /// cached "am I traced" flag so the disabled path costs one `Cell`
    /// read per charge, a cached full-detail flag, and the pending
    /// per-quantum I/O window.
    tracer: RefCell<Option<(Arc<TraceSink>, u32)>>,
    traced: Cell<bool>,
    trace_full: Cell<bool>,
    win_reads: Cell<u64>,
    win_hits: Cell<u64>,
    win_writes: Cell<u64>,
}

impl Session {
    /// Session with an explicit cost model and a private buffer pool.
    pub fn new(model: CostModel, pool: BufferPool) -> Self {
        Self::on_pool(model, PoolHandle::Private(RefCell::new(PoolInner::new(pool))))
    }

    /// Session with the default HDD model and a private pool of
    /// `pool_pages` pages under LRU replacement.
    pub fn with_pool_pages(pool_pages: usize) -> Self {
        Self::new(CostModel::hdd_2009(), BufferPool::new(pool_pages, EvictionPolicy::Lru))
    }

    /// Session registered as a new query on an existing shared pool: the
    /// per-query context of the concurrent serving layer.
    pub fn on_shared(model: CostModel, pool: Arc<SharedBufferPool>) -> Self {
        Self::on_pool(model, PoolHandle::Shared(pool))
    }

    fn on_pool(model: CostModel, pool: PoolHandle) -> Self {
        let query = pool.with(|p| p.register_query());
        Session {
            costs: model.ticks(),
            model,
            clock: SimClock::new(),
            pool,
            query,
            events: Cell::new(0),
            yield_every: Cell::new(0),
            yield_at: Cell::new(u64::MAX),
            yielder: RefCell::new(None),
            tracer: RefCell::new(None),
            traced: Cell::new(false),
            trace_full: Cell::new(false),
            win_reads: Cell::new(0),
            win_hits: Cell::new(0),
            win_writes: Cell::new(0),
        }
    }

    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The cost model as charged: in whole clock ticks, quantised when the
    /// session was built.
    pub fn costs(&self) -> &CostTicks {
        &self.costs
    }

    /// Reset the session to its as-constructed state: clock at zero, all
    /// counters cleared, buffer pool cold (same capacity and policy), the
    /// temp-file allocator rewound, quantum progress cleared.
    ///
    /// This is the warm-path sweep contract: a reset session measures a
    /// plan *identically* to a brand-new session — the map builder's
    /// per-thread arenas rely on it, and `core`'s warm-vs-cold tests assert
    /// it cell by cell.  Note that the reset reaches the *whole* underlying
    /// pool: on a genuinely shared pool, only the serving layer may reset,
    /// and only while no query is in flight.
    /// Tracing note: a reset flushes the pending I/O window and emits a
    /// [`TraceEventKind::SessionReset`] marker (the track's query clock
    /// restarts from zero), so per-query trace state never leaks across
    /// reuse.
    pub fn reset(&self) {
        self.flush_io_window();
        self.trace_event(TraceEventKind::SessionReset);
        self.clock.reset();
        self.pool.with(|p| p.reset());
        self.events.set(0);
        self.arm(self.yield_every.get());
    }

    /// The clock (for operators charging modelled CPU work directly).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Simulated seconds elapsed ([`Session::elapsed_ticks`] as seconds).
    pub fn elapsed(&self) -> f64 {
        self.clock.elapsed()
    }

    /// Clock ticks (picoseconds) elapsed: the exact reading.  For a
    /// session that ran no parallel scan it equals
    /// `costs().of(&stats())`.
    pub fn elapsed_ticks(&self) -> u64 {
        self.clock.elapsed_ticks()
    }

    /// Charge events so far: the unit the scheduling quantum counts.  One
    /// page request, one page write and one CPU charge of any size are one
    /// event each; a call that stands for several (a run of requests for
    /// one page, a page's worth of per-row charges) counts the events it
    /// replaces, so the total is a property of the plan's work, not of how
    /// the operators group their calls.
    pub fn charge_events(&self) -> u64 {
        self.events.get()
    }

    /// Snapshot of all work counters.
    pub fn stats(&self) -> IoStats {
        self.clock.stats()
    }

    /// Read `page` with the given access pattern: a buffer hit charges the
    /// hit cost, a miss charges the disk cost for `kind`.
    #[inline]
    pub fn read_page(&self, page: PageId, kind: AccessKind) {
        self.read_page_run(page, kind, 1);
    }

    /// `n` consecutive requests for `page` in one: exactly what `n` calls
    /// of [`Session::read_page`] charge, count and trace when nothing else
    /// touches the pool between them.  The first is the real access; the
    /// repeats find the page where the first left it — resident, so hits,
    /// or on a pool of no capacity, misses of the same `kind`.
    #[inline]
    pub fn read_page_run(&self, page: PageId, kind: AccessKind, n: u64) {
        if n == 0 {
            return;
        }
        let (first_hit, hits) = self.pool.with(|p| p.access_run(self.query, page, n));
        if hits != 0 {
            self.clock.charge_buffer_hits(&self.costs, hits);
        }
        if hits != n {
            self.clock.charge_reads(&self.costs, kind, n - hits);
        }
        if self.traced.get() {
            self.win_hits.set(self.win_hits.get() + hits);
            self.win_reads.set(self.win_reads.get() + (n - hits));
            if self.trace_full.get() {
                // The repeats all went the same way: hits, or (no pool) misses.
                let repeats_hit = hits > u64::from(first_hit);
                self.trace_event(TraceEventKind::PageRead { hit: first_hit });
                for _ in 1..n {
                    self.trace_event(TraceEventKind::PageRead { hit: repeats_hit });
                }
            }
        }
        self.tick(n);
    }

    /// Write `page` (spill files); the page becomes pool-resident.
    #[inline]
    pub fn write_page(&self, page: PageId) {
        self.clock.charge_write(&self.costs);
        self.pool.with(|p| p.access_run(self.query, page, 1));
        if self.traced.get() {
            self.win_writes.set(self.win_writes.get() + 1);
            if self.trace_full.get() {
                self.trace_event(TraceEventKind::PageWrite);
            }
        }
        self.tick(1);
    }

    /// Drop pages `0..pages` of a temp file from the pool (they will not
    /// be reused).
    pub fn invalidate_file(&self, file: FileId, pages: u32) {
        self.pool.with(|p| p.invalidate_file(file, pages));
    }

    /// Allocate a temp-file id above `base` from the pool's central
    /// allocator: ids are unique across every session sharing the pool, so
    /// concurrent spills can never collide (and a private session numbers
    /// its temp files exactly as before the split: `base + 0, 1, ...`).
    pub fn alloc_temp_file(&self, base: u32) -> FileId {
        let file = self.pool.with(|p| p.alloc_temp_file(base));
        if self.traced.get() {
            self.trace_event(TraceEventKind::SpillAlloc { file: file.0 as u64 });
        }
        file
    }

    /// Charge CPU for `n` rows.
    #[inline]
    pub fn charge_rows(&self, n: u64) {
        self.charge_rows_as(n, 1);
    }

    /// Charge CPU for `n` comparisons.
    #[inline]
    pub fn charge_compares(&self, n: u64) {
        self.charge_compares_as(n, 1);
    }

    /// Charge CPU for `n` hash operations.
    #[inline]
    pub fn charge_hashes(&self, n: u64) {
        self.clock.charge_hashes(&self.costs, n);
        self.tick(1);
    }

    /// Charge CPU for `n` rows in place of `events` separate row charges
    /// (a leaf's entries, a rid run's rows): the same ticks and the same
    /// event count as those calls.
    #[inline]
    pub fn charge_rows_as(&self, n: u64, events: u64) {
        self.clock.charge_rows(&self.costs, n);
        self.tick(events);
    }

    /// Charge CPU for `n` comparisons in place of `events` separate
    /// comparison charges (one per row of a page, leaf or rid run).
    #[inline]
    pub fn charge_compares_as(&self, n: u64, events: u64) {
        self.clock.charge_compares(&self.costs, n);
        self.tick(events);
    }

    /// `n` repetitions of the one-event CPU charges `each`, in order:
    /// exactly what issuing those `charge_*` calls one by one charges and
    /// counts, and the yield hook fires after the same charge and sees the
    /// same clock.  The repetitions that end before the quantum is up are
    /// charged in one multiply-add per charge; the one in which it ends is
    /// issued call by call.  (A collapsed `_as` call instead yields at its
    /// own end, the next call boundary.)
    #[inline]
    pub fn charge_each(&self, n: u64, each: &[CpuCharge]) {
        let events = n.saturating_mul(each.len() as u64);
        // The common case, and every case without a hook: the whole run
        // counts below the yield point.
        if events < self.yield_at.get().saturating_sub(self.events.get()) {
            self.charge_reps(n, each);
        } else {
            self.charge_each_past_quantum(n, each);
        }
    }

    /// `reps` repetitions of `each` among which no yield falls: one
    /// multiply-add per charge.  (A product past `u64` saturates, which
    /// overflows the clock at any nonzero cost: a panic, never a wrap.)
    #[inline]
    fn charge_reps(&self, reps: u64, each: &[CpuCharge]) {
        let (costs, clock) = (&self.costs, &self.clock);
        for &charge in each {
            match charge {
                CpuCharge::Compares(n) => clock.charge_compares(costs, n.saturating_mul(reps)),
                CpuCharge::Rows(n) => clock.charge_rows(costs, n.saturating_mul(reps)),
                CpuCharge::Hashes(n) => clock.charge_hashes(costs, n.saturating_mul(reps)),
            }
        }
        self.events.set(self.events.get() + reps * each.len() as u64);
    }

    /// [`Session::charge_each`] of a run in which the quantum ends.
    #[cold]
    fn charge_each_past_quantum(&self, n: u64, each: &[CpuCharge]) {
        let per_rep = each.len() as u64;
        let mut left = if per_rep == 0 { 0 } else { n };
        while left != 0 {
            // The repetitions whose every event counts below the yield
            // point, then the one in which the quantum ends, call by call.
            let whole = left.min(self.yield_at.get().saturating_sub(self.events.get() + 1) / per_rep);
            self.charge_reps(whole, each);
            left -= whole;
            if left != 0 {
                for &charge in each {
                    match charge {
                        CpuCharge::Compares(n) => self.charge_compares(n),
                        CpuCharge::Rows(n) => self.charge_rows(n),
                        CpuCharge::Hashes(n) => self.charge_hashes(n),
                    }
                }
                left -= 1;
            }
        }
    }

    /// Buffer pool hit/miss/eviction counters (pool-level: shared sessions
    /// see the sum over all queries; see [`Session::query_pool_counters`]
    /// for this query's share).
    pub fn pool_counters(&self) -> (u64, u64, u64) {
        self.pool.with(|p| p.counters())
    }

    /// This query's share of the pool's hit/miss counters.
    pub fn query_pool_counters(&self) -> QueryShare {
        self.pool.with(|p| p.query_counters(self.query))
    }

    /// Buffer pool capacity in pages.
    pub fn pool_capacity(&self) -> usize {
        self.pool.with(|p| p.capacity())
    }

    /// Note this query's memory grant in bytes on the trace (admission
    /// control calls it; the grant itself lives in the `ExecCtx`).
    pub fn set_memory_grant(&self, bytes: usize) {
        if self.traced.get() {
            self.trace_event(TraceEventKind::GrantSet { bytes: bytes as u64 });
        }
    }

    /// Install a cooperative yield hook, invoked once per quantum of
    /// `every` charge events — between charge calls, so it can park the
    /// calling thread without touching simulated time.  A call that counts
    /// several events is never split: the hook fires at the first call
    /// boundary at or past the quantum, and the overshoot comes off the
    /// next slice, so slices keep their average length.  The scheduler in
    /// `core::serve` uses this to interleave N queries at quantum
    /// granularity.  `every = 0` never yields.
    pub fn install_yield_hook(&self, every: u64, hook: YieldHook) {
        self.arm(every);
        *self.yielder.borrow_mut() = Some(hook);
    }

    /// Remove the yield hook (no further yields occur).
    pub fn clear_yield_hook(&self) {
        self.arm(0);
        *self.yielder.borrow_mut() = None;
    }

    /// Start a quantum of `every` events from the current event count.
    fn arm(&self, every: u64) {
        self.yield_every.set(every);
        self.yield_at.set(if every == 0 { u64::MAX } else { self.events.get().saturating_add(every) });
    }

    /// Invoke the yield hook immediately, if installed (the serving layer
    /// calls this once before execution to park the query until admission).
    /// Flushes the pending trace I/O window first, so per-quantum I/O
    /// aggregates line up with scheduling slices.
    pub fn yield_now(&self) {
        self.flush_io_window();
        if let Some(hook) = self.yielder.borrow_mut().as_mut() {
            hook(self.clock.elapsed_ticks());
        }
    }

    // ------------------------------------------------------------------
    // Charge-free tracing.  A session is born untraced and stays so until
    // its owner attaches a sink: nothing process-wide is consulted.
    // ------------------------------------------------------------------

    /// Attach this session to `sink` on a fresh track labelled `label`;
    /// returns the track id.  Attaching never charges: tracing reads
    /// the clock, it does not advance it.
    pub fn attach_tracer(&self, sink: Arc<TraceSink>, label: &str) -> u32 {
        let track = sink.alloc_track(label);
        self.attach_tracer_track(sink, track);
        track
    }

    /// Attach to `sink` on an externally allocated track (the concurrent
    /// scheduler pre-allocates one track per query so its timeline and
    /// the session's events land on the same lane).
    pub fn attach_tracer_track(&self, sink: Arc<TraceSink>, track: u32) {
        self.flush_io_window();
        self.trace_full.set(sink.detail() == TraceDetail::Full);
        self.traced.set(true);
        *self.tracer.borrow_mut() = Some((sink, track));
    }

    /// Detach from the trace sink, flushing the pending I/O window.
    pub fn detach_tracer(&self) {
        self.flush_io_window();
        self.traced.set(false);
        self.trace_full.set(false);
        *self.tracer.borrow_mut() = None;
    }

    /// True when a trace sink is attached (callers use this to skip
    /// event construction — e.g. plan synopses — when disabled).
    pub fn is_traced(&self) -> bool {
        self.traced.get()
    }

    /// Emit `kind` on this session's track, stamped with the session's
    /// current clock ticks.  No-op when untraced.
    pub fn trace_event(&self, kind: TraceEventKind) {
        if let Some((sink, track)) = self.tracer.borrow().as_ref() {
            sink.emit(*track, self.clock.elapsed_ticks(), kind);
        }
    }

    /// The I/O counted since the last window flush (reads, hits,
    /// writes) — all zero when untraced.
    #[cfg(test)]
    fn pending_io_window(&self) -> (u64, u64, u64) {
        (self.win_reads.get(), self.win_hits.get(), self.win_writes.get())
    }

    /// Emit the pending I/O window as one aggregate event and clear it.
    /// Called at yield points, operator boundaries, reset and detach.
    pub fn flush_io_window(&self) {
        if !self.traced.get() {
            return;
        }
        let (reads, hits, writes) =
            (self.win_reads.get(), self.win_hits.get(), self.win_writes.get());
        if reads + hits + writes == 0 {
            return;
        }
        self.win_reads.set(0);
        self.win_hits.set(0);
        self.win_writes.set(0);
        self.trace_event(TraceEventKind::IoWindow { reads, hits, writes });
    }

    /// Count `events` charge events and yield if the quantum is up.
    #[inline]
    fn tick(&self, events: u64) {
        let now = self.events.get() + events;
        self.events.set(now);
        if now >= self.yield_at.get() {
            self.yield_at.set(self.yield_at.get().saturating_add(self.yield_every.get()));
            self.yield_now();
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("query", &self.query)
            .field("elapsed", &self.elapsed())
            .field("stats", &self.stats())
            .field("pool_resident", &self.pool.with(|p| p.resident()))
            .field("pool_capacity", &self.pool_capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u32) -> PageId {
        PageId::new(FileId(7), p)
    }

    #[test]
    fn miss_then_hit_charges_differently() {
        let s = Session::with_pool_pages(8);
        s.read_page(pid(0), AccessKind::Random);
        let costs = s.costs();
        let after_miss = s.elapsed_ticks();
        s.read_page(pid(0), AccessKind::Random);
        let after_hit = s.elapsed_ticks() - after_miss;
        assert_eq!(after_miss, costs.random_page_read);
        assert_eq!(after_hit, costs.cpu_buffer_hit);
        assert_eq!(s.stats().random_reads, 1);
        assert_eq!(s.stats().buffer_hits, 1);
    }

    #[test]
    fn zero_pool_always_pays_disk() {
        let s = Session::with_pool_pages(0);
        for _ in 0..5 {
            s.read_page(pid(3), AccessKind::Sequential);
        }
        assert_eq!(s.stats().seq_reads, 5);
        assert_eq!(s.stats().buffer_hits, 0);
    }

    #[test]
    fn writes_populate_pool() {
        let s = Session::with_pool_pages(8);
        s.write_page(pid(1));
        s.read_page(pid(1), AccessKind::Random);
        assert_eq!(s.stats().buffer_hits, 1);
        assert_eq!(s.stats().page_writes, 1);
    }

    #[test]
    fn reset_restores_fresh_session_behaviour() {
        let warm = Session::with_pool_pages(4);
        // Dirty the session: misses, hits, evictions, CPU work, temp ids.
        for i in 0..16 {
            warm.read_page(pid(i), AccessKind::Random);
        }
        warm.charge_rows(100);
        warm.alloc_temp_file(50);
        warm.reset();
        assert_eq!(warm.elapsed(), 0.0);
        assert_eq!(warm.stats(), IoStats::default());
        assert_eq!(warm.pool_counters(), (0, 0, 0));
        assert_eq!(warm.pool_capacity(), 4);
        // Replay a workload on the reset session and on a fresh one: the
        // measurements must be identical, including temp-file numbering.
        let fresh = Session::with_pool_pages(4);
        for s in [&warm, &fresh] {
            for i in [0u32, 1, 0, 2, 3, 4, 0, 1] {
                s.read_page(pid(i), AccessKind::Random);
            }
            s.charge_compares(7);
        }
        assert_eq!(warm.stats(), fresh.stats());
        assert_eq!(warm.elapsed(), fresh.elapsed());
        assert_eq!(warm.pool_counters(), fresh.pool_counters());
        assert_eq!(warm.alloc_temp_file(50), fresh.alloc_temp_file(50));
    }

    #[test]
    fn invalidate_forces_reread() {
        let s = Session::with_pool_pages(8);
        s.read_page(pid(1), AccessKind::Random);
        s.invalidate_file(FileId(7), 2);
        s.read_page(pid(1), AccessKind::Random);
        assert_eq!(s.stats().random_reads, 2);
    }

    #[test]
    fn shared_sessions_share_residency_but_not_clocks() {
        let pool = Arc::new(SharedBufferPool::new(8, EvictionPolicy::Lru));
        let a = Session::on_shared(CostModel::hdd_2009(), Arc::clone(&pool));
        let b = Session::on_shared(CostModel::hdd_2009(), Arc::clone(&pool));
        assert_ne!(a.query, b.query);
        a.read_page(pid(0), AccessKind::Random); // a misses
        b.read_page(pid(0), AccessKind::Random); // b hits a's page
        assert_eq!(a.stats().random_reads, 1);
        assert_eq!(a.stats().buffer_hits, 0);
        assert_eq!(b.stats().random_reads, 0);
        assert_eq!(b.stats().buffer_hits, 1);
        // Clocks are private: each query paid only its own charge.
        assert_eq!(a.elapsed(), a.model().random_page_read);
        assert_eq!(b.elapsed(), b.model().cpu_buffer_hit);
        // Attribution partitions the pool counters.
        let (hits, misses, _) = pool.counters();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
        assert_eq!(a.query_pool_counters().misses, 1);
        assert_eq!(b.query_pool_counters().hits, 1);
    }

    #[test]
    fn yield_hook_fires_every_quantum_and_charges_nothing() {
        let s = Session::with_pool_pages(8);
        let fired = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let f = Arc::clone(&fired);
        s.install_yield_hook(
            3,
            Box::new(move |_elapsed| {
                f.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }),
        );
        for _ in 0..7 {
            s.charge_rows(1);
        }
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 2);
        // The hook itself must not have charged anything: 7 row charges.
        assert_eq!(s.stats().cpu_rows, 7);
        assert_eq!(s.elapsed_ticks(), 7 * s.costs().cpu_row);
        assert_eq!(s.charge_events(), 7);
        s.clear_yield_hook();
        for _ in 0..9 {
            s.charge_rows(1);
        }
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn hooked_session_charges_identically_to_plain_session() {
        // The identity half of the scheduling design: counting events and
        // yielding sit strictly between charges, so a session with an
        // armed hook reads exactly like a plain one.
        let plain = Session::with_pool_pages(4);
        let hooked = Session::with_pool_pages(4);
        hooked.install_yield_hook(2, Box::new(|_| {}));
        for s in [&plain, &hooked] {
            for i in 0..32u32 {
                s.read_page(pid(i % 9), AccessKind::Random);
                s.charge_rows(3);
                s.charge_compares(2);
            }
            s.write_page(pid(100));
            s.charge_hashes(5);
        }
        assert_eq!(plain.elapsed_ticks(), hooked.elapsed_ticks());
        assert_eq!(plain.charge_events(), hooked.charge_events());
        assert_eq!(plain.stats(), hooked.stats());
        assert_eq!(plain.pool_counters(), hooked.pool_counters());
    }

    #[test]
    fn yield_hook_receives_elapsed_ticks() {
        let s = Session::with_pool_pages(8);
        let (sink, seen) = std::sync::mpsc::channel();
        s.install_yield_hook(
            2,
            Box::new(move |elapsed| {
                sink.send(elapsed).unwrap();
            }),
        );
        for _ in 0..4 {
            s.charge_rows(1);
        }
        let seen: Vec<u64> = seen.try_iter().collect();
        let row = s.costs().cpu_row;
        assert_eq!(seen, [2 * row, 4 * row]);
    }

    /// A call that counts several events is never split: the hook fires at
    /// the first call boundary at or past the quantum and the overshoot
    /// carries, so the number of slices is the number of quanta in the
    /// events, however the calls group them.
    #[test]
    fn quantum_counts_events_and_carries_the_overshoot() {
        let s = Session::with_pool_pages(8);
        let (sink, seen) = std::sync::mpsc::channel();
        s.install_yield_hook(10, Box::new(move |_| sink.send(()).unwrap()));
        let fired = || seen.try_iter().count();
        s.charge_rows_as(7, 7);
        assert_eq!(fired(), 0);
        s.charge_compares_as(14, 7); // 14 events: 4 past the quantum
        assert_eq!(fired(), 1);
        s.read_page_run(pid(0), AccessKind::Random, 5); // 19
        assert_eq!(fired(), 0);
        s.charge_rows(3); // one call, one event, whatever its size: 20
        assert_eq!(fired(), 1);
        // Two quanta in one call: the second fires at the next boundary.
        s.charge_rows_as(25, 25); // 45
        assert_eq!(fired(), 1);
        s.charge_hashes(1); // 46
        assert_eq!(fired(), 1);
        s.charge_hashes(1); // 47, next due at 50
        assert_eq!(fired(), 0);
        assert_eq!(s.charge_events(), 47);
        assert_eq!(s.stats().cpu_rows, 7 + 3 + 25);
    }

    /// A traced `read_page_run` records what `n` traced `read_page` calls
    /// do — per-page events at full detail, window aggregates — on a pool
    /// that keeps the page and on one that keeps nothing.  (Clock, counters
    /// and pool state: `a_run_of_requests_equals_single_requests` in
    /// `tests/prop_storage.rs`.)
    #[test]
    fn a_page_run_traces_like_single_requests() {
        use robustmap_obs::trace::{validate_trace, TraceDetail, TraceSink};
        for capacity in [0, 4] {
            let totals = |run: bool| {
                let s = Session::with_pool_pages(capacity);
                let sink = Arc::new(TraceSink::memory(TraceDetail::Full));
                s.attach_tracer(Arc::clone(&sink), "q0");
                for (page, n) in [(0u32, 5u64), (1, 1), (0, 3), (2, 0)] {
                    if run {
                        s.read_page_run(pid(page), AccessKind::SinglePage, n);
                    } else {
                        (0..n).for_each(|_| s.read_page(pid(page), AccessKind::SinglePage));
                    }
                }
                s.detach_tracer();
                assert!(validate_trace(&sink.events()).is_ok());
                let m = sink.metrics();
                let io = ["io.page_reads", "io.window.reads", "io.window.hits"].map(|c| m.counter(c));
                (io, s.stats())
            };
            assert_eq!(totals(true), totals(false), "capacity {capacity}");
            assert_eq!(totals(true).0[0], 9);
        }
    }

    #[test]
    fn traced_session_charges_identically_to_plain_session() {
        use robustmap_obs::trace::{TraceDetail, TraceSink};
        // The charge-free contract at the storage layer: a session with a
        // full-detail tracer attached reads exactly like an untraced one,
        // while recording every page touch.
        let plain = Session::with_pool_pages(4);
        let traced = Session::with_pool_pages(4);
        let sink = Arc::new(TraceSink::memory(TraceDetail::Full));
        traced.attach_tracer(Arc::clone(&sink), "q0");
        for s in [&plain, &traced] {
            for i in 0..24u32 {
                s.read_page(pid(i % 7), AccessKind::Random);
                s.charge_rows(2);
            }
            s.write_page(pid(50));
            s.alloc_temp_file(80);
            s.set_memory_grant(1 << 20);
            s.charge_hashes(3);
        }
        traced.detach_tracer();
        assert_eq!(plain.elapsed_ticks(), traced.elapsed_ticks());
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(plain.pool_counters(), traced.pool_counters());
        // ... and the trace saw it all.
        let m = sink.metrics();
        assert_eq!(m.counter("io.page_reads"), 24);
        assert_eq!(m.counter("io.page_writes"), 1);
        assert_eq!(m.counter("spill.files"), 1);
        assert_eq!(m.counter("grant.sets"), 1);
        // Detach flushed the window: aggregates match the stats.
        assert_eq!(
            m.counter("io.window.reads") + m.counter("io.window.hits"),
            traced.stats().page_requests()
        );
        assert_eq!(traced.pending_io_window(), (0, 0, 0));
        assert!(robustmap_obs::trace::validate_trace(&sink.events()).is_ok());
    }

    #[test]
    fn reset_clears_per_query_trace_state() {
        use robustmap_obs::trace::{TraceDetail, TraceEventKind, TraceSink};
        let s = Session::with_pool_pages(4);
        let sink = Arc::new(TraceSink::memory(TraceDetail::Spans));
        s.attach_tracer(Arc::clone(&sink), "warm");
        for i in 0..5 {
            s.read_page(pid(i), AccessKind::Random);
        }
        assert_eq!(s.pending_io_window(), (5, 0, 0));
        s.reset();
        // The pending window was flushed (not dropped) and the reset
        // marker records that the track's clock restarted.
        assert_eq!(s.pending_io_window(), (0, 0, 0));
        let events = sink.events();
        assert!(matches!(
            events[events.len() - 2].kind,
            TraceEventKind::IoWindow { reads: 5, .. }
        ));
        assert!(matches!(events.last().unwrap().kind, TraceEventKind::SessionReset));
        // Post-reset events restart at tick zero without tripping the
        // monotonicity validator.
        s.read_page(pid(0), AccessKind::Random);
        s.detach_tracer();
        assert!(robustmap_obs::trace::validate_trace(&sink.events()).is_ok());
    }
}
