//! The trace sink and its events: the charge-free execution recorder.
//!
//! A [`TraceSink`] keeps [`TraceEvent`]s — operator spans, page I/O,
//! spill allocations, adaptive checkpoints, scheduler baton slices — in
//! emission order, each stamped on **two clocks**:
//!
//! * `ticks` — simulated clock ticks (picoseconds, the unit of
//!   `storage::SimClock`), an integer, exactly as the emitter read them.
//!   Per-query events carry the query's own [`ClockDomain::Query`] clock
//!   (its `SimClock` elapsed ticks); the concurrent scheduler stamps its
//!   events with the shared [`ClockDomain::Scheduler`] *global virtual
//!   time* (the sum of every query's charge deltas in schedule order),
//!   which is what makes an interleaved timeline renderable at all.
//!   Durations are integer differences; seconds and microseconds exist
//!   only where an exporter prints them.
//! * `real_ns` — real nanoseconds since the sink's creation, so wall
//!   time spent outside the simulation (hashing, sorting, allocation)
//!   is visible next to the simulated cost it was charged as.
//!
//! The whole module is **charge-free by construction**: nothing here
//! touches a `SimClock`, and the instrumented crates only *read* their
//! clocks when emitting.  The differential equivalence suites run every
//! case on sessions traced at [`TraceDetail::Full`] to enforce this.
//!
//! A trace is plain data.  [`TraceSink::emit`] reads the real clock,
//! takes the sink's lock and pushes; everything derived — the metrics,
//! the operator profile, the Chrome document — is computed from the
//! recorded events by whoever asks for it, when they ask.
//!
//! A sink is a value: whoever wants a trace builds one, hands it down in
//! a config (`MeasureConfig::trace`, `ServeConfig::trace`) or attaches it
//! to a session, and writes it out with [`write_artifacts`].  Nothing in
//! the process is traced unless it was handed a sink: the off switch is
//! `Option<Arc<TraceSink>>` being `None`, and there is no other.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// How much a [`TraceSink`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDetail {
    /// Operator/scheduler spans, instants, and per-quantum
    /// [`TraceEventKind::IoWindow`] aggregates (the default).
    Spans,
    /// Everything in [`TraceDetail::Spans`] plus one event per page
    /// read/write.  Orders of magnitude more events; for short runs.
    Full,
}

/// Simulated clock ticks per second: a tick is a picosecond, the unit of
/// `storage::SimClock` (which pins the two constants equal).
pub const TICKS_PER_SECOND: u64 = 1_000_000_000_000;

/// Which clock a `ticks` stamp was read from.
///
/// Events on the same track but different domains are on different
/// timelines and must not be compared; the Chrome exporter gives each
/// domain its own process so they render as separate lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClockDomain {
    /// The query's own `SimClock` (starts at 0 per session).
    Query,
    /// The concurrent scheduler's global virtual time.
    Scheduler,
}

/// What happened.  Variants map 1:1 onto the instrumentation points in
/// `storage::Session`, the executor, and `core::serve`.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// An operator began executing (`name` is the plan synopsis).
    OpBegin { name: String, depth: u32 },
    /// The innermost open operator on the track finished, having produced
    /// `rows`.  Spans pair by nesting, so the end carries no name: readers
    /// take it from the open [`TraceEventKind::OpBegin`].
    OpEnd { depth: u32, rows: u64 },
    /// An adaptive checkpoint observed `rows` at checkpoint `kind`.
    Checkpoint { kind: &'static str, rows: u64 },
    /// An adaptive controller bailed at checkpoint `at` after observing
    /// `observed` rows; `action` is `bail -> {synopsis}`.
    Switch { at: &'static str, observed: u64, action: String },
    /// One page read (only at [`TraceDetail::Full`]).
    PageRead { hit: bool },
    /// One page write (only at [`TraceDetail::Full`]).
    PageWrite,
    /// Aggregated I/O since the last window flush: `reads` disk reads,
    /// `hits` buffer-pool hits, `writes` page writes.
    IoWindow { reads: u64, hits: u64, writes: u64 },
    /// A spill/temp file was allocated.
    SpillAlloc { file: u64 },
    /// The session's memory grant changed.
    GrantSet { bytes: u64 },
    /// The session was reset for reuse (warm sweeps): its clock and
    /// per-query trace state restart from zero on the same track.
    SessionReset,
    /// Scheduler: a query entered the admission queue.
    Queued,
    /// Scheduler: a query was admitted with this memory grant.
    Admit { grant: u64 },
    /// Scheduler: a baton slice began for this query.
    SliceBegin,
    /// Scheduler: the baton slice ended (yield or completion).
    SliceEnd,
    /// Scheduler: the pool was reset while the system was idle.
    IdleReset,
    /// Scheduler: the query completed with `rows` output rows.
    QueryDone { rows: u64 },
    /// Churn: one mutation batch was applied to the database —
    /// `rows` heap rows touched, split into `inserted`/`deleted`/`updated`
    /// operations.  Charge-free (emitted after the batch's charges land),
    /// on the scheduler track so serving timelines show data churn
    /// alongside query slices.
    MutationBatch { rows: u64, inserted: u64, deleted: u64, updated: u64 },
}

impl TraceEventKind {
    /// The clock domain this event's `ticks` stamp belongs to.
    pub fn domain(&self) -> ClockDomain {
        match self {
            TraceEventKind::Queued
            | TraceEventKind::Admit { .. }
            | TraceEventKind::SliceBegin
            | TraceEventKind::SliceEnd
            | TraceEventKind::IdleReset
            | TraceEventKind::QueryDone { .. }
            | TraceEventKind::MutationBatch { .. } => ClockDomain::Scheduler,
            _ => ClockDomain::Query,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Track (lane) the event belongs to; tracks are allocated per
    /// query/session plus one for the scheduler.
    pub track: u32,
    /// Simulated ticks on the clock named by `kind.domain()`.
    pub ticks: u64,
    /// Real nanoseconds since the sink was created.
    pub real_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Default event capacity: beyond this, events are counted as dropped
/// rather than stored (a full-detail full-scale figure run would
/// otherwise exhaust memory).
const DEFAULT_EVENT_CAP: usize = 1 << 20;

struct SinkState {
    events: Vec<TraceEvent>,
    tracks: Vec<String>,
    dropped: u64,
    /// What the dropped events would have counted: filled on the drop
    /// path only, so [`TraceSink::metrics`] stays correct past the cap.
    overflow: MetricsRegistry,
}

/// A destination for trace events: a capped in-memory vector behind one
/// mutex.
pub struct TraceSink {
    epoch: Instant,
    detail: TraceDetail,
    cap: usize,
    state: Mutex<SinkState>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        f.debug_struct("TraceSink")
            .field("detail", &self.detail)
            .field("events", &s.events.len())
            .field("dropped", &s.dropped)
            .field("tracks", &s.tracks.len())
            .finish()
    }
}

impl TraceSink {
    /// An in-memory sink at `detail` with the default event cap.
    pub fn memory(detail: TraceDetail) -> TraceSink {
        TraceSink::memory_with_cap(detail, DEFAULT_EVENT_CAP)
    }

    /// An in-memory sink with an explicit event cap.
    pub fn memory_with_cap(detail: TraceDetail, cap: usize) -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            detail,
            cap,
            state: Mutex::new(SinkState {
                events: Vec::new(),
                tracks: Vec::new(),
                dropped: 0,
                overflow: MetricsRegistry::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SinkState> {
        // A panicking instrumented thread must not take observability
        // down with it: recover the guard from a poisoned mutex.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Capture detail.
    pub fn detail(&self) -> TraceDetail {
        self.detail
    }

    /// Allocate a new track labelled `label`; returns its id.
    pub fn alloc_track(&self, label: &str) -> u32 {
        let mut s = self.lock();
        s.tracks.push(label.to_string());
        (s.tracks.len() - 1) as u32
    }

    /// Record one event on `track` at simulated time `ticks`: read the
    /// real clock, lock, push (past the cap: count it instead).
    pub fn emit(&self, track: u32, ticks: u64, kind: TraceEventKind) {
        let real_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut s = self.lock();
        if s.events.len() < self.cap {
            s.events.push(TraceEvent { track, ticks, real_ns, kind });
        } else {
            s.dropped += 1;
            account(&mut s.overflow, &kind);
        }
    }

    /// Snapshot of all recorded events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.clone()
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.lock().events.len()
    }

    /// Events discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Labels of all allocated tracks, indexed by track id.
    pub fn track_labels(&self) -> Vec<String> {
        self.lock().tracks.clone()
    }

    /// The metrics of everything emitted so far, folded from the recorded
    /// events now (plus what the dropped ones counted).
    pub fn metrics(&self) -> MetricsRegistry {
        let s = self.lock();
        let mut metrics = s.overflow.clone();
        for ev in &s.events {
            account(&mut metrics, &ev.kind);
        }
        metrics
    }
}

/// What one event counts for in the metrics.
fn account(metrics: &mut MetricsRegistry, kind: &TraceEventKind) {
    metrics.incr("trace.events", 1);
    match kind {
        TraceEventKind::OpBegin { .. } => metrics.incr("exec.operators", 1),
        TraceEventKind::OpEnd { .. } => {}
        TraceEventKind::Checkpoint { .. } => metrics.incr("adaptive.checkpoints", 1),
        TraceEventKind::Switch { .. } => metrics.incr("adaptive.switches", 1),
        TraceEventKind::PageRead { hit } => {
            metrics.incr("io.page_reads", 1);
            if *hit {
                metrics.incr("io.page_hits", 1);
            }
        }
        TraceEventKind::PageWrite => metrics.incr("io.page_writes", 1),
        TraceEventKind::IoWindow { reads, hits, writes } => {
            metrics.incr("io.window.reads", *reads);
            metrics.incr("io.window.hits", *hits);
            metrics.incr("io.window.writes", *writes);
            metrics.observe("quantum.page_touches", reads + hits + writes);
            if let Some(permille) = (hits * 1000).checked_div(reads + hits) {
                metrics.observe("quantum.hit_permille", permille);
            }
        }
        TraceEventKind::SpillAlloc { .. } => metrics.incr("spill.files", 1),
        TraceEventKind::GrantSet { .. } => metrics.incr("grant.sets", 1),
        TraceEventKind::SessionReset => metrics.incr("session.resets", 1),
        TraceEventKind::Queued => metrics.incr("sched.queued", 1),
        TraceEventKind::Admit { .. } => metrics.incr("sched.admissions", 1),
        TraceEventKind::SliceBegin => metrics.incr("sched.slices", 1),
        TraceEventKind::SliceEnd => {}
        TraceEventKind::IdleReset => metrics.incr("sched.idle_resets", 1),
        TraceEventKind::QueryDone { .. } => metrics.incr("sched.completions", 1),
        TraceEventKind::MutationBatch { rows, .. } => {
            metrics.incr("churn.batches", 1);
            metrics.incr("churn_rows_applied", *rows);
        }
    }
}

// ------------------------------------------------------------------
// Trace well-formedness
// ------------------------------------------------------------------

/// Check structural invariants of an event stream:
///
/// * per `(track, domain)`, `ticks` is monotonically non-decreasing in
///   emission order (a [`TraceEventKind::SessionReset`] restarts the
///   track's query clock and resets the watermark);
/// * operator begin/end events are properly nested per track — an end
///   closes the innermost open span, at the same `depth` — and all spans
///   are closed;
/// * scheduler slices alternate begin/end per track and are closed.
///
/// Returns the first violation as `Err(description)`.
pub fn validate_trace(events: &[TraceEvent]) -> Result<(), String> {
    let mut watermark: BTreeMap<(u32, ClockDomain), u64> = BTreeMap::new();
    let mut op_stack: BTreeMap<u32, Vec<(&str, u32)>> = BTreeMap::new();
    let mut slice_open: BTreeMap<u32, bool> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let domain = ev.kind.domain();
        if matches!(ev.kind, TraceEventKind::SessionReset) {
            watermark.insert((ev.track, domain), 0);
        } else {
            let w = watermark.entry((ev.track, domain)).or_insert(0);
            if ev.ticks < *w {
                return Err(format!(
                    "event {i} on track {} ({domain:?}): ticks went backwards ({} < {})",
                    ev.track, ev.ticks, w
                ));
            }
            *w = ev.ticks;
        }
        match &ev.kind {
            TraceEventKind::OpBegin { name, depth } => {
                op_stack.entry(ev.track).or_default().push((name, *depth));
            }
            TraceEventKind::OpEnd { depth, .. } => {
                match op_stack.entry(ev.track).or_default().pop() {
                    Some((_, d)) if d == *depth => {}
                    Some((n, d)) => {
                        return Err(format!(
                            "event {i} on track {}: OpEnd @{depth} does not match open span \
                             {n:?}@{d}",
                            ev.track
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i} on track {}: OpEnd @{depth} with no open span",
                            ev.track
                        ));
                    }
                }
            }
            TraceEventKind::SliceBegin => {
                let open = slice_open.entry(ev.track).or_insert(false);
                if *open {
                    return Err(format!(
                        "event {i} on track {}: SliceBegin inside an open slice",
                        ev.track
                    ));
                }
                *open = true;
            }
            TraceEventKind::SliceEnd => {
                let open = slice_open.entry(ev.track).or_insert(false);
                if !*open {
                    return Err(format!(
                        "event {i} on track {}: SliceEnd with no open slice",
                        ev.track
                    ));
                }
                *open = false;
            }
            _ => {}
        }
    }
    for (track, stack) in &op_stack {
        if let Some((name, depth)) = stack.last() {
            return Err(format!("track {track}: operator span {name:?}@{depth} never closed"));
        }
    }
    for (track, open) in &slice_open {
        if *open {
            return Err(format!("track {track}: baton slice never closed"));
        }
    }
    Ok(())
}

/// Per-track total simulated ticks spent inside baton slices
/// (`SliceEnd.ticks - SliceBegin.ticks`, summed).  For a served query
/// this equals its `ExecStats::ticks`.
pub fn slice_totals(events: &[TraceEvent]) -> BTreeMap<u32, u64> {
    let mut open: BTreeMap<u32, u64> = BTreeMap::new();
    let mut totals: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            TraceEventKind::SliceBegin => {
                open.insert(ev.track, ev.ticks);
            }
            TraceEventKind::SliceEnd => {
                if let Some(begin) = open.remove(&ev.track) {
                    *totals.entry(ev.track).or_insert(0) += ev.ticks - begin;
                }
            }
            _ => {}
        }
    }
    totals
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Per-query operator profile as CSV: one row per completed operator
/// span, with inclusive simulated seconds (`OpEnd.ticks - OpBegin.ticks`,
/// divided once, here).
pub fn op_profile_csv(events: &[TraceEvent], labels: &[String]) -> String {
    let mut out = String::from("track,query,depth,op,rows,sim_seconds\n");
    let mut stacks: BTreeMap<u32, Vec<(&str, u32, u64)>> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            TraceEventKind::OpBegin { name, depth } => {
                stacks.entry(ev.track).or_default().push((name, *depth, ev.ticks));
            }
            TraceEventKind::OpEnd { depth, rows } => {
                let popped = stacks.entry(ev.track).or_default().pop();
                if let Some((name, d, begin)) = popped {
                    if d == *depth {
                        let label = labels
                            .get(ev.track as usize)
                            .map(String::as_str)
                            .unwrap_or("");
                        out.push_str(&format!(
                            "{},{},{},{},{},{:.9}\n",
                            ev.track,
                            csv_field(label),
                            depth,
                            csv_field(name),
                            rows,
                            (ev.ticks - begin) as f64 / TICKS_PER_SECOND as f64,
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Write `sink`'s artifacts: the Chrome trace-event JSON at `path`, plus
/// `<stem>_ops.csv` (operator profile) and `<stem>_metrics.txt` (metrics
/// dump) next to it.  Returns the paths written.
pub fn write_artifacts(sink: &TraceSink, path: &Path) -> std::io::Result<Vec<PathBuf>> {
    let events = sink.events();
    let labels = sink.track_labels();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let stem = path.with_extension("");
    let stem = stem.to_string_lossy();
    let ops_path = PathBuf::from(format!("{stem}_ops.csv"));
    let metrics_path = PathBuf::from(format!("{stem}_metrics.txt"));
    let mut dump = sink.metrics().dump();
    let dropped = sink.dropped();
    if dropped > 0 {
        dump.push_str(&format!("counter trace.dropped {dropped}\n"));
    }
    std::fs::write(path, crate::chrome::to_chrome_json(&events, &labels))?;
    std::fs::write(&ops_path, op_profile_csv(&events, &labels))?;
    std::fs::write(&metrics_path, dump)?;
    Ok(vec![path.to_path_buf(), ops_path, metrics_path])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(track: u32, ticks: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { track, ticks, real_ns: 0, kind }
    }

    #[test]
    fn memory_sink_records_events_and_metrics() {
        let sink = TraceSink::memory(TraceDetail::Spans);
        let t = sink.alloc_track("q0");
        sink.emit(t, 0, TraceEventKind::OpBegin { name: "scan".into(), depth: 0 });
        sink.emit(t, 500, TraceEventKind::IoWindow { reads: 3, hits: 1, writes: 0 });
        sink.emit(t, 1000, TraceEventKind::OpEnd { depth: 0, rows: 7 });
        assert_eq!(sink.event_count(), 3);
        let m = sink.metrics();
        assert_eq!(m.counter("trace.events"), 3);
        assert_eq!(m.counter("exec.operators"), 1);
        assert_eq!(m.counter("io.window.reads"), 3);
        assert_eq!(m.histogram("quantum.page_touches").unwrap().count(), 1);
        // Reading is a fold over the events, not a drain: a second read
        // after one more event sees all four.
        sink.emit(t, 1000, TraceEventKind::PageWrite);
        assert_eq!(sink.metrics().counter("trace.events"), 4);
        assert_eq!(sink.track_labels(), vec!["q0".to_string()]);
        assert!(validate_trace(&sink.events()).is_ok());
    }

    #[test]
    fn event_cap_counts_drops_but_keeps_metrics() {
        let sink = TraceSink::memory_with_cap(TraceDetail::Spans, 2);
        for _ in 0..5 {
            sink.emit(0, 0, TraceEventKind::PageWrite);
        }
        assert_eq!(sink.event_count(), 2);
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.metrics().counter("io.page_writes"), 5);
    }

    #[test]
    fn validate_catches_unbalanced_spans() {
        let open = vec![ev(0, 0, TraceEventKind::OpBegin { name: "s".into(), depth: 0 })];
        assert!(validate_trace(&open).unwrap_err().contains("never closed"));

        let crossed = vec![
            ev(0, 0, TraceEventKind::OpBegin { name: "a".into(), depth: 0 }),
            ev(0, 1, TraceEventKind::OpBegin { name: "b".into(), depth: 1 }),
            ev(0, 2, TraceEventKind::OpEnd { depth: 0, rows: 0 }),
        ];
        assert!(validate_trace(&crossed).unwrap_err().contains("does not match"));

        let stray = vec![ev(0, 0, TraceEventKind::OpEnd { depth: 0, rows: 0 })];
        assert!(validate_trace(&stray).unwrap_err().contains("no open span"));
    }

    #[test]
    fn validate_catches_backwards_ticks_but_allows_reset() {
        let backwards = vec![
            ev(0, 10, TraceEventKind::PageWrite),
            ev(0, 5, TraceEventKind::PageWrite),
        ];
        assert!(validate_trace(&backwards).unwrap_err().contains("backwards"));

        let reset = vec![
            ev(0, 10, TraceEventKind::PageWrite),
            ev(0, 10, TraceEventKind::SessionReset),
            ev(0, 1, TraceEventKind::PageWrite),
        ];
        assert!(validate_trace(&reset).is_ok());

        // Different domains on one track have independent watermarks.
        let mixed = vec![
            ev(0, 50, TraceEventKind::SliceBegin),
            ev(0, 1, TraceEventKind::PageWrite),
            ev(0, 60, TraceEventKind::SliceEnd),
        ];
        assert!(validate_trace(&mixed).is_ok());
    }

    #[test]
    fn slice_totals_sum_durations() {
        let events = vec![
            ev(0, 0, TraceEventKind::SliceBegin),
            ev(0, 10, TraceEventKind::SliceEnd),
            ev(1, 10, TraceEventKind::SliceBegin),
            ev(1, 15, TraceEventKind::SliceEnd),
            ev(0, 15, TraceEventKind::SliceBegin),
            ev(0, 35, TraceEventKind::SliceEnd),
        ];
        let totals = slice_totals(&events);
        assert_eq!(totals.get(&0), Some(&30));
        assert_eq!(totals.get(&1), Some(&5));
    }

    #[test]
    fn op_profile_quotes_commas() {
        let events = vec![
            ev(0, 0, TraceEventKind::OpBegin { name: "scan(t, a<=x)".into(), depth: 0 }),
            ev(0, 2 * TICKS_PER_SECOND, TraceEventKind::OpEnd { depth: 0, rows: 9 }),
        ];
        let csv = op_profile_csv(&events, &["q0: demo".to_string()]);
        assert!(csv.starts_with("track,query,depth,op,rows,sim_seconds\n"));
        assert!(csv.contains("\"scan(t, a<=x)\""));
        assert!(csv.contains(",9,2.000000000"));
    }
}
