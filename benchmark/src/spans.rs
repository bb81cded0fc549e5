//! The benchmark's own span recorder.
//!
//! Spans are recorded here, around the calls into each layer, not inside
//! the layers: this benchmark measures the program from outside.  A span
//! is name, layer, start, end, the span that caused it, and the pass it
//! belongs to.  Spans stay in memory until the run ends, then become a
//! Chrome trace-event file (Perfetto loads it) and the self-time tables.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// The layer a span's callee belongs to: the repository's crates, plus the
/// benchmark's own glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Workload,
    Storage,
    Executor,
    Systems,
    Core,
    Obs,
    Bench,
    /// The benchmark's own driver code (pass bodies, checks).
    Driver,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Workload => "workload",
            Layer::Storage => "storage",
            Layer::Executor => "executor",
            Layer::Systems => "systems",
            Layer::Core => "core",
            Layer::Obs => "obs",
            Layer::Bench => "bench",
            Layer::Driver => "driver",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, from 1.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: String,
    pub layer: Layer,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The pass the span belongs to (0 = set-up, before any pass).
    pub pass: u32,
    /// Small per-run thread number, for the trace viewer's lanes.
    pub thread: u32,
    /// Free-form label: the plan name on a cell span.
    pub tag: Option<String>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's lane number (0 = not yet assigned).
    static THREAD_NO: Cell<u32> = const { Cell::new(0) };
}

/// Collects spans when enabled; when disabled every call is a branch and
/// nothing else, so untraced passes run the same driver code.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU32,
    pass: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes (and records itself) when dropped.
pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    /// 0 when the recorder is disabled.
    id: u64,
    parent: u64,
    /// The thread's innermost span before this one opened.
    restore: u64,
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    tag: Option<String>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_thread: AtomicU32::new(1),
            pass: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamp every span opened from now on with `pass`.
    pub fn set_pass(&self, pass: u32) {
        self.pass.store(pass, Ordering::Relaxed);
    }

    /// Open a span caused by the innermost span open on this thread.
    pub fn enter(&self, layer: Layer, name: &'static str) -> SpanGuard<'_> {
        self.open(layer, name, CURRENT.with(Cell::get), None)
    }

    /// [`Recorder::enter`], labelled with `tag`.
    pub fn enter_tagged(&self, layer: Layer, name: &'static str, tag: &str) -> SpanGuard<'_> {
        self.enter_under(CURRENT.with(Cell::get), layer, name, tag)
    }

    /// Open a span on a worker thread, caused by `parent` (a span open on
    /// the thread that spawned the work), labelled with `tag`.
    pub fn enter_under(
        &self,
        parent: u64,
        layer: Layer,
        name: &'static str,
        tag: &str,
    ) -> SpanGuard<'_> {
        let tag = self.enabled.then(|| tag.to_string());
        self.open(layer, name, parent, tag)
    }

    fn open(
        &self,
        layer: Layer,
        name: &'static str,
        parent: u64,
        tag: Option<String>,
    ) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                rec: self,
                id: 0,
                parent: 0,
                restore: 0,
                name,
                layer,
                start_ns: 0,
                tag: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let restore = CURRENT.with(|c| c.replace(id));
        SpanGuard {
            rec: self,
            id,
            parent,
            restore,
            name,
            layer,
            start_ns: self.now_ns(),
            tag,
        }
    }

    /// Run `f` inside a span and also return its wall seconds (measured
    /// whether or not the recorder is enabled).
    pub fn timed<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = self.enter(layer, name);
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn thread_no(&self) -> u32 {
        THREAD_NO.with(|t| {
            if t.get() == 0 {
                t.set(self.next_thread.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .clone()
    }
}

impl SpanGuard<'_> {
    /// This span's id, to hand to [`Recorder::enter_under`] on workers
    /// (0 when the recorder is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            layer: self.layer,
            start_ns: self.start_ns,
            end_ns: self.rec.now_ns(),
            pass: self.rec.pass.load(Ordering::Relaxed),
            thread: self.rec.thread_no(),
            tag: self.tag.take(),
        };
        CURRENT.with(|c| c.set(self.restore));
        // A poisoned lock means another thread panicked mid-push; losing
        // this span is better than a second panic inside a destructor.
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of every span, keyed by span id: its duration minus the part
/// of its interval that its child spans cover.  Children that run in
/// parallel (cells on worker threads) cover their union once.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            // Clip to the parent: a worker may close a hair after the
            // parent that waited for it measured its own end.
            let (start, end) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if start < end {
                children.entry(s.parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut reach = 0u64;
                for &(start, end) in intervals.iter() {
                    let from = start.max(reach);
                    if end > from {
                        covered += end - from;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Total self seconds per layer.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let own = self_times_ns(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_insert(0.0) += own[&s.id] as f64 * 1e-9;
    }
    out
}

/// `(spans, total self seconds)` per tag, for the tagged (cell) spans.
pub fn self_seconds_by_tag(spans: &[Span]) -> BTreeMap<String, (u64, f64)> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for s in spans {
        if let Some(tag) = &s.tag {
            let slot = out.entry(tag.clone()).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += own[&s.id] as f64 * 1e-9;
        }
    }
    out
}

/// The spans as a Chrome trace-event document (complete `"X"` events,
/// microsecond timestamps), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), Value::Int(s.id)),
                ("parent".to_string(), Value::Int(s.parent)),
                ("workload".to_string(), Value::str(workload)),
                ("pass".to_string(), Value::Int(u64::from(s.pass))),
            ];
            if let Some(tag) = &s.tag {
                args.push(("tag".to_string(), Value::str(tag.clone())));
            }
            Value::obj([
                ("name", Value::str(s.name.clone())),
                ("cat", Value::str(s.layer.name())),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Value::Int(1)),
                ("tid", Value::Int(u64::from(s.thread))),
                ("args", Value::Obj(args)),
            ])
        })
        .collect();
    Value::obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer,
            start_ns,
            end_ns,
            pass: 1,
            thread: 1,
            tag: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(1, 0, Layer::Driver, 0, 100),
            // Two siblings with a gap between them.
            span(2, 1, Layer::Core, 10, 40),
            span(3, 1, Layer::Core, 50, 90),
            // Nested under the first sibling.
            span(4, 2, Layer::Executor, 15, 35),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - 30 - 40);
        assert_eq!(own[&2], 30 - 20);
        assert_eq!(own[&3], 40);
        assert_eq!(own[&4], 20);
        // Self times partition the root's interval when nothing overlaps.
        assert_eq!(own.values().sum::<u64>(), 100);
        let by_layer = self_seconds_by_layer(&spans);
        assert!((by_layer[&Layer::Core] - 50e-9).abs() < 1e-18);
        assert!((by_layer[&Layer::Executor] - 20e-9).abs() < 1e-18);
    }

    #[test]
    fn parallel_children_cover_their_union_once() {
        let spans = vec![
            span(1, 0, Layer::Core, 0, 100),
            // Two workers overlapping on [30, 60]; one runs past the parent.
            span(2, 1, Layer::Executor, 10, 60),
            span(3, 1, Layer::Executor, 30, 120),
        ];
        let own = self_times_ns(&spans);
        // Union of clipped children is [10, 100]: the parent keeps 10 ns.
        assert_eq!(own[&1], 10);
        assert_eq!(own[&2], 50);
        assert_eq!(own[&3], 90);
    }

    #[test]
    fn recorder_links_parents_and_restores_the_stack() {
        let rec = Recorder::new(true);
        rec.set_pass(2);
        {
            let outer = rec.enter(Layer::Driver, "outer");
            {
                let _inner = rec.enter(Layer::Core, "inner");
            }
            let outer_id = outer.id();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _cell = rec.enter_under(outer_id, Layer::Executor, "cell", "A1 table scan");
                });
            });
            let _sibling = rec.enter(Layer::Core, "sibling");
        }
        let spans = rec.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by_name("inner").parent, outer.id);
        assert_eq!(by_name("sibling").parent, outer.id);
        assert_eq!(by_name("cell").parent, outer.id);
        assert_eq!(by_name("cell").tag.as_deref(), Some("A1 table scan"));
        assert_ne!(by_name("cell").thread, outer.thread);
        assert!(spans.iter().all(|s| s.pass == 2 && s.end_ns >= s.start_ns));
        let tags = self_seconds_by_tag(&spans);
        assert_eq!(tags["A1 table scan"].0, 1);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_times() {
        let rec = Recorder::new(false);
        let (value, secs) = rec.timed(Layer::Core, "work", || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert_eq!(rec.enter(Layer::Core, "x").id(), 0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let mut s = span(1, 0, Layer::Core, 1_500, 4_500);
        s.tag = Some("B2 idx(b,a) \"bitmap\"".to_string());
        let doc = chrome_trace(&[s], "scan_atlas");
        let back = Value::parse(&doc.to_json()).unwrap();
        let event = &back.get("traceEvents").unwrap().as_array().unwrap()[0];
        assert_eq!(event.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(event.get("cat").unwrap().as_str(), Some("core"));
        assert_eq!(event.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(event.get("dur").unwrap().as_f64(), Some(3.0));
        let args = event.get("args").unwrap();
        assert_eq!(args.get("workload").unwrap().as_str(), Some("scan_atlas"));
        assert_eq!(
            args.get("tag").unwrap().as_str(),
            Some("B2 idx(b,a) \"bitmap\"")
        );
    }
}
