//! Trace sinks and events: the charge-free execution recorder.
//!
//! A [`TraceSink`] collects [`TraceEvent`]s — operator spans, page I/O,
//! spill allocations, adaptive checkpoints, scheduler baton slices —
//! each stamped on **two clocks**:
//!
//! * `sim` — simulated seconds.  Per-query events carry the query's own
//!   [`ClockDomain::Query`] clock (its `SimClock` elapsed time); the
//!   concurrent scheduler stamps its events with the shared
//!   [`ClockDomain::Scheduler`] *global virtual time* (the sum of every
//!   query's charge deltas in schedule order), which is what makes an
//!   interleaved timeline renderable at all.
//! * `real_ns` — real nanoseconds since the sink's creation, so wall
//!   time spent outside the simulation (hashing, sorting, allocation)
//!   is visible next to the simulated cost it was charged as.
//!
//! The whole module is **charge-free by construction**: nothing here
//! touches a `SimClock`, and the instrumented crates only *read* their
//! clocks when emitting.  The differential equivalence suites run every
//! case on sessions traced at [`TraceDetail::Full`] to enforce this.
//!
//! A sink is a value: whoever wants a trace builds one, hands it down in
//! a config (`MeasureConfig::trace`, `ServeConfig::trace`) or attaches it
//! to a session, and writes it out with [`write_artifacts`].  Nothing in
//! the process is traced unless it was handed a sink.
//!
//! Dispatch is a plain enum ([`TraceSink::Null`] / [`TraceSink::Memory`])
//! rather than a trait object so the disabled path is a branch, not a
//! virtual call; sessions additionally cache an "am I traced" flag so
//! the per-page cost of disabled tracing is a single `Cell` read.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
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

/// Which clock a `sim` timestamp was read from.
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
    /// The matching operator finished, having produced `rows`.
    OpEnd { name: String, depth: u32, rows: u64 },
    /// An adaptive checkpoint observed `rows` at checkpoint `kind`.
    Checkpoint { kind: &'static str, rows: u64 },
    /// An adaptive controller decided to bail/switch at checkpoint
    /// `at` after observing `observed` rows; `action` describes it.
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
    /// The clock domain this event's `sim` timestamp belongs to.
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
    /// Simulated seconds on the clock named by `kind.domain()`.
    pub sim: f64,
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
    dropped: u64,
    tracks: Vec<String>,
    metrics: MetricsRegistry,
}

/// The in-memory recorder behind [`TraceSink::Memory`].
pub struct MemorySink {
    epoch: Instant,
    detail: TraceDetail,
    cap: usize,
    state: Mutex<SinkState>,
}

impl std::fmt::Debug for MemorySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        f.debug_struct("MemorySink")
            .field("detail", &self.detail)
            .field("events", &s.events.len())
            .field("dropped", &s.dropped)
            .field("tracks", &s.tracks.len())
            .finish()
    }
}

impl MemorySink {
    fn lock(&self) -> MutexGuard<'_, SinkState> {
        // A panicking instrumented thread must not take observability
        // down with it: recover the guard from a poisoned mutex.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A destination for trace events.
///
/// [`TraceSink::Null`] ignores everything (the "disabled" arm of the
/// enum dispatch); [`TraceSink::Memory`] records into a capped vector
/// and fills a [`MetricsRegistry`] as a side effect.
#[derive(Debug)]
pub enum TraceSink {
    /// Discard all events.
    Null,
    /// Record events in memory.
    Memory(MemorySink),
}

impl TraceSink {
    /// An in-memory sink at `detail` with the default event cap.
    pub fn memory(detail: TraceDetail) -> TraceSink {
        TraceSink::memory_with_cap(detail, DEFAULT_EVENT_CAP)
    }

    /// An in-memory sink with an explicit event cap.
    pub fn memory_with_cap(detail: TraceDetail, cap: usize) -> TraceSink {
        TraceSink::Memory(MemorySink {
            epoch: Instant::now(),
            detail,
            cap,
            state: Mutex::new(SinkState {
                events: Vec::new(),
                dropped: 0,
                tracks: Vec::new(),
                metrics: MetricsRegistry::new(),
            }),
        })
    }

    /// True when emitting to this sink records anything.
    pub fn is_enabled(&self) -> bool {
        matches!(self, TraceSink::Memory(_))
    }

    /// Capture detail ([`TraceDetail::Spans`] for the null sink).
    pub fn detail(&self) -> TraceDetail {
        match self {
            TraceSink::Null => TraceDetail::Spans,
            TraceSink::Memory(m) => m.detail,
        }
    }

    /// Allocate a new track labelled `label`; returns its id (always 0
    /// for the null sink).
    pub fn alloc_track(&self, label: &str) -> u32 {
        match self {
            TraceSink::Null => 0,
            TraceSink::Memory(m) => {
                let mut s = m.lock();
                s.tracks.push(label.to_string());
                (s.tracks.len() - 1) as u32
            }
        }
    }

    /// Record one event on `track` at simulated time `sim`.
    pub fn emit(&self, track: u32, sim: f64, kind: TraceEventKind) {
        let m = match self {
            TraceSink::Null => return,
            TraceSink::Memory(m) => m,
        };
        let real_ns = m.epoch.elapsed().as_nanos() as u64;
        let mut s = m.lock();
        Self::account(&mut s.metrics, &kind);
        if s.events.len() >= m.cap {
            s.dropped += 1;
            return;
        }
        s.events.push(TraceEvent { track, sim, real_ns, kind });
    }

    /// Metrics side effects of an event (counters stay correct even
    /// when the event itself is dropped at the cap).
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

    /// Snapshot of all recorded events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match self {
            TraceSink::Null => Vec::new(),
            TraceSink::Memory(m) => m.lock().events.clone(),
        }
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        match self {
            TraceSink::Null => 0,
            TraceSink::Memory(m) => m.lock().events.len(),
        }
    }

    /// Events discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        match self {
            TraceSink::Null => 0,
            TraceSink::Memory(m) => m.lock().dropped,
        }
    }

    /// Labels of all allocated tracks, indexed by track id.
    pub fn track_labels(&self) -> Vec<String> {
        match self {
            TraceSink::Null => Vec::new(),
            TraceSink::Memory(m) => m.lock().tracks.clone(),
        }
    }

    /// Snapshot of the metrics filled by [`TraceSink::emit`].
    pub fn metrics(&self) -> MetricsRegistry {
        match self {
            TraceSink::Null => MetricsRegistry::new(),
            TraceSink::Memory(m) => m.lock().metrics.clone(),
        }
    }
}

/// A sink plus a track: what an instrumented component holds on to.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    /// The shared sink.
    pub sink: Arc<TraceSink>,
    /// The track this component emits on.
    pub track: u32,
}

impl TraceHandle {
    /// Record one event at simulated time `sim` on this handle's track.
    pub fn emit(&self, sim: f64, kind: TraceEventKind) {
        self.sink.emit(self.track, sim, kind);
    }
}

// ------------------------------------------------------------------
// Trace well-formedness
// ------------------------------------------------------------------

/// Check structural invariants of an event stream:
///
/// * per `(track, domain)`, `sim` is monotonically non-decreasing in
///   emission order (a [`TraceEventKind::SessionReset`] restarts the
///   track's query clock and resets the watermark);
/// * operator begin/end events are properly nested per track, with
///   matching `name` and `depth`, and all spans are closed;
/// * scheduler slices alternate begin/end per track and are closed.
///
/// Returns the first violation as `Err(description)`.
pub fn validate_trace(events: &[TraceEvent]) -> Result<(), String> {
    let mut watermark: BTreeMap<(u32, ClockDomain), f64> = BTreeMap::new();
    let mut op_stack: BTreeMap<u32, Vec<(String, u32)>> = BTreeMap::new();
    let mut slice_open: BTreeMap<u32, bool> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let domain = ev.kind.domain();
        if matches!(ev.kind, TraceEventKind::SessionReset) {
            watermark.insert((ev.track, domain), ev.sim.min(0.0));
        } else {
            let w = watermark.entry((ev.track, domain)).or_insert(0.0);
            if ev.sim < *w {
                return Err(format!(
                    "event {i} on track {} ({domain:?}): sim went backwards ({} < {})",
                    ev.track, ev.sim, w
                ));
            }
            *w = ev.sim;
        }
        match &ev.kind {
            TraceEventKind::OpBegin { name, depth } => {
                op_stack.entry(ev.track).or_default().push((name.clone(), *depth));
            }
            TraceEventKind::OpEnd { name, depth, .. } => {
                match op_stack.entry(ev.track).or_default().pop() {
                    Some((n, d)) if &n == name && d == *depth => {}
                    Some((n, d)) => {
                        return Err(format!(
                            "event {i} on track {}: OpEnd {name:?}@{depth} does not match \
                             open span {n:?}@{d}",
                            ev.track
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i} on track {}: OpEnd {name:?}@{depth} with no open span",
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

/// Per-track total simulated seconds spent inside baton slices
/// (`SliceEnd.sim - SliceBegin.sim`, summed).  For a served query this
/// reconciles with its `ExecStats::seconds` up to float association.
pub fn slice_totals(events: &[TraceEvent]) -> BTreeMap<u32, f64> {
    let mut open: BTreeMap<u32, f64> = BTreeMap::new();
    let mut totals: BTreeMap<u32, f64> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            TraceEventKind::SliceBegin => {
                open.insert(ev.track, ev.sim);
            }
            TraceEventKind::SliceEnd => {
                if let Some(begin) = open.remove(&ev.track) {
                    *totals.entry(ev.track).or_insert(0.0) += ev.sim - begin;
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
/// span, with inclusive simulated seconds (`OpEnd.sim - OpBegin.sim`).
pub fn op_profile_csv(events: &[TraceEvent], labels: &[String]) -> String {
    let mut out = String::from("track,query,depth,op,rows,sim_seconds\n");
    let mut stacks: BTreeMap<u32, Vec<(String, u32, f64)>> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            TraceEventKind::OpBegin { name, depth } => {
                stacks.entry(ev.track).or_default().push((name.clone(), *depth, ev.sim));
            }
            TraceEventKind::OpEnd { name, depth, rows } => {
                let popped = stacks.entry(ev.track).or_default().pop();
                if let Some((n, d, begin)) = popped {
                    if &n == name && d == *depth {
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
                            ev.sim - begin,
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

    fn ev(track: u32, sim: f64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { track, sim, real_ns: 0, kind }
    }

    #[test]
    fn null_sink_records_nothing() {
        let sink = TraceSink::Null;
        assert!(!sink.is_enabled());
        assert_eq!(sink.alloc_track("q0"), 0);
        sink.emit(0, 1.0, TraceEventKind::PageWrite);
        assert_eq!(sink.event_count(), 0);
        assert!(sink.metrics().is_empty());
    }

    #[test]
    fn memory_sink_records_events_and_metrics() {
        let sink = TraceSink::memory(TraceDetail::Spans);
        let t = sink.alloc_track("q0");
        sink.emit(t, 0.0, TraceEventKind::OpBegin { name: "scan".into(), depth: 0 });
        sink.emit(t, 0.5, TraceEventKind::IoWindow { reads: 3, hits: 1, writes: 0 });
        sink.emit(t, 1.0, TraceEventKind::OpEnd { name: "scan".into(), depth: 0, rows: 7 });
        assert_eq!(sink.event_count(), 3);
        let m = sink.metrics();
        assert_eq!(m.counter("trace.events"), 3);
        assert_eq!(m.counter("exec.operators"), 1);
        assert_eq!(m.counter("io.window.reads"), 3);
        assert_eq!(m.histogram("quantum.page_touches").unwrap().count(), 1);
        assert_eq!(sink.track_labels(), vec!["q0".to_string()]);
        assert!(validate_trace(&sink.events()).is_ok());
    }

    #[test]
    fn event_cap_counts_drops_but_keeps_metrics() {
        let sink = TraceSink::memory_with_cap(TraceDetail::Spans, 2);
        for _ in 0..5 {
            sink.emit(0, 0.0, TraceEventKind::PageWrite);
        }
        assert_eq!(sink.event_count(), 2);
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.metrics().counter("io.page_writes"), 5);
    }

    #[test]
    fn validate_catches_unbalanced_spans() {
        let open = vec![ev(0, 0.0, TraceEventKind::OpBegin { name: "s".into(), depth: 0 })];
        assert!(validate_trace(&open).unwrap_err().contains("never closed"));

        let crossed = vec![
            ev(0, 0.0, TraceEventKind::OpBegin { name: "a".into(), depth: 0 }),
            ev(0, 0.1, TraceEventKind::OpBegin { name: "b".into(), depth: 1 }),
            ev(0, 0.2, TraceEventKind::OpEnd { name: "a".into(), depth: 0, rows: 0 }),
        ];
        assert!(validate_trace(&crossed).unwrap_err().contains("does not match"));

        let stray = vec![ev(0, 0.0, TraceEventKind::OpEnd { name: "x".into(), depth: 0, rows: 0 })];
        assert!(validate_trace(&stray).unwrap_err().contains("no open span"));
    }

    #[test]
    fn validate_catches_backwards_sim_but_allows_reset() {
        let backwards = vec![
            ev(0, 1.0, TraceEventKind::PageWrite),
            ev(0, 0.5, TraceEventKind::PageWrite),
        ];
        assert!(validate_trace(&backwards).unwrap_err().contains("backwards"));

        let reset = vec![
            ev(0, 1.0, TraceEventKind::PageWrite),
            ev(0, 1.0, TraceEventKind::SessionReset),
            ev(0, 0.1, TraceEventKind::PageWrite),
        ];
        assert!(validate_trace(&reset).is_ok());

        // Different domains on one track have independent watermarks.
        let mixed = vec![
            ev(0, 5.0, TraceEventKind::SliceBegin),
            ev(0, 0.1, TraceEventKind::PageWrite),
            ev(0, 6.0, TraceEventKind::SliceEnd),
        ];
        assert!(validate_trace(&mixed).is_ok());
    }

    #[test]
    fn slice_totals_sum_durations() {
        let events = vec![
            ev(0, 0.0, TraceEventKind::SliceBegin),
            ev(0, 1.0, TraceEventKind::SliceEnd),
            ev(1, 1.0, TraceEventKind::SliceBegin),
            ev(1, 1.5, TraceEventKind::SliceEnd),
            ev(0, 1.5, TraceEventKind::SliceBegin),
            ev(0, 3.5, TraceEventKind::SliceEnd),
        ];
        let totals = slice_totals(&events);
        assert_eq!(totals.get(&0), Some(&3.0));
        assert_eq!(totals.get(&1), Some(&0.5));
    }

    #[test]
    fn op_profile_quotes_commas() {
        let events = vec![
            ev(0, 0.0, TraceEventKind::OpBegin { name: "scan(t, a<=x)".into(), depth: 0 }),
            ev(0, 2.0, TraceEventKind::OpEnd { name: "scan(t, a<=x)".into(), depth: 0, rows: 9 }),
        ];
        let csv = op_profile_csv(&events, &["q0: demo".to_string()]);
        assert!(csv.starts_with("track,query,depth,op,rows,sim_seconds\n"));
        assert!(csv.contains("\"scan(t, a<=x)\""));
        assert!(csv.contains(",9,2.000000000"));
    }
}
