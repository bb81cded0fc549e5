//! Chrome trace-event JSON: export for Perfetto / `chrome://tracing`,
//! plus a minimal hand-rolled JSON parser so round-trip checks need no
//! external dependency.
//!
//! The exporter maps the two clock domains onto two "processes":
//!
//! * `pid 1` — the scheduler's global virtual timeline (baton slices,
//!   admissions, completions): one thread per query track, so the
//!   interleaving is visible as stacked lanes;
//! * `pid 2` — per-query simulated time (operator spans, I/O windows,
//!   checkpoints), one thread per session track.
//!
//! Timestamps are simulated **microseconds**: an event's ticks
//! (picoseconds) divided by 10^6 once, here, and written as the exact
//! decimal — no float is involved.  Every event's `args` also carries
//! `real_us`, the real wall-clock microseconds since the sink's epoch, so
//! both clocks survive export.
//!
//! An `OpEnd` carries no name (spans pair by nesting); the exporter names
//! each `E` after the `B` it closes.

use crate::trace::{ClockDomain, TraceEvent, TraceEventKind};
use std::collections::{BTreeMap, BTreeSet};

/// Ticks (picoseconds) per microsecond, the Chrome `ts` unit.
const TICKS_PER_US: u64 = crate::trace::TICKS_PER_SECOND / 1_000_000;

const PID_SCHED: u64 = 1;
const PID_QUERY: u64 = 2;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn pid_of(domain: ClockDomain) -> u64 {
    match domain {
        ClockDomain::Scheduler => PID_SCHED,
        ClockDomain::Query => PID_QUERY,
    }
}

struct EventJson {
    ph: char,
    name: String,
    cat: &'static str,
    args: Vec<(&'static str, String)>,
}

/// `kind` as a Chrome event; `open_op` is the name of the innermost open
/// operator span on the event's track, which an `OpEnd` closes.
fn event_json(kind: &TraceEventKind, open_op: Option<&str>) -> EventJson {
    let (ph, name, cat, args): (char, String, &'static str, Vec<(&'static str, String)>) =
        match kind {
            TraceEventKind::OpBegin { name, depth } => {
                ('B', name.clone(), "op", vec![("depth", depth.to_string())])
            }
            TraceEventKind::OpEnd { depth, rows } => (
                'E',
                open_op.unwrap_or_default().to_string(),
                "op",
                vec![("depth", depth.to_string()), ("rows", rows.to_string())],
            ),
            TraceEventKind::Checkpoint { kind, rows } => (
                'i',
                format!("checkpoint:{kind}"),
                "adaptive",
                vec![("rows", rows.to_string())],
            ),
            TraceEventKind::Switch { at, observed, action } => (
                'i',
                "switch".to_string(),
                "adaptive",
                vec![
                    ("at", format!("\"{}\"", esc(at))),
                    ("observed", observed.to_string()),
                    ("action", format!("\"{}\"", esc(action))),
                ],
            ),
            TraceEventKind::PageRead { hit } => (
                'i',
                if *hit { "page_hit" } else { "page_read" }.to_string(),
                "io",
                vec![],
            ),
            TraceEventKind::PageWrite => ('i', "page_write".to_string(), "io", vec![]),
            TraceEventKind::IoWindow { reads, hits, writes } => (
                'C',
                "io_window".to_string(),
                "io",
                vec![
                    ("reads", reads.to_string()),
                    ("hits", hits.to_string()),
                    ("writes", writes.to_string()),
                ],
            ),
            TraceEventKind::SpillAlloc { file } => (
                'i',
                "spill_alloc".to_string(),
                "io",
                vec![("file", file.to_string())],
            ),
            TraceEventKind::GrantSet { bytes } => (
                'C',
                "grant".to_string(),
                "mem",
                vec![("bytes", bytes.to_string())],
            ),
            TraceEventKind::SessionReset => ('i', "session_reset".to_string(), "session", vec![]),
            TraceEventKind::Queued => ('i', "queued".to_string(), "sched", vec![]),
            TraceEventKind::Admit { grant } => (
                'i',
                "admit".to_string(),
                "sched",
                vec![("grant", grant.to_string())],
            ),
            TraceEventKind::SliceBegin => ('B', "slice".to_string(), "sched", vec![]),
            TraceEventKind::SliceEnd => ('E', "slice".to_string(), "sched", vec![]),
            TraceEventKind::IdleReset => ('i', "idle_reset".to_string(), "sched", vec![]),
            TraceEventKind::QueryDone { rows } => (
                'i',
                "done".to_string(),
                "sched",
                vec![("rows", rows.to_string())],
            ),
            TraceEventKind::MutationBatch { rows, inserted, deleted, updated } => (
                'i',
                "mutation_batch".to_string(),
                "sched",
                vec![
                    ("rows", rows.to_string()),
                    ("inserted", inserted.to_string()),
                    ("deleted", deleted.to_string()),
                    ("updated", updated.to_string()),
                ],
            ),
        };
    EventJson { ph, name, cat, args }
}

/// Serialize events as a Chrome trace-event JSON document (object form,
/// `traceEvents` array) loadable by Perfetto and `chrome://tracing`.
pub fn to_chrome_json(events: &[TraceEvent], labels: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };

    // Process metadata: one "process" per clock domain.
    push(
        format!(
            "{{\"ph\":\"M\",\"pid\":{PID_SCHED},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"scheduler (global sim time)\"}}}}"
        ),
        &mut out,
    );
    push(
        format!(
            "{{\"ph\":\"M\",\"pid\":{PID_QUERY},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"queries (per-query sim time)\"}}}}"
        ),
        &mut out,
    );
    // Thread metadata only for (domain, track) pairs that carry events.
    let mut seen: BTreeSet<(u64, u32)> = BTreeSet::new();
    for ev in events {
        seen.insert((pid_of(ev.kind.domain()), ev.track));
    }
    for (pid, track) in &seen {
        let label = labels.get(*track as usize).map(String::as_str).unwrap_or("");
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{track},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                esc(label)
            ),
            &mut out,
        );
    }

    let mut open_ops: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
    for ev in events {
        let open_op = match &ev.kind {
            TraceEventKind::OpBegin { name, .. } => {
                open_ops.entry(ev.track).or_default().push(name);
                None
            }
            TraceEventKind::OpEnd { .. } => open_ops.entry(ev.track).or_default().pop(),
            _ => None,
        };
        let e = event_json(&ev.kind, open_op);
        let pid = pid_of(ev.kind.domain());
        let ts = format!("{}.{:06}", ev.ticks / TICKS_PER_US, ev.ticks % TICKS_PER_US);
        let real_us = ev.real_ns as f64 / 1000.0;
        let mut args = format!("\"real_us\":{real_us}");
        for (k, v) in &e.args {
            args.push_str(&format!(",\"{k}\":{v}"));
        }
        let scope = if e.ph == 'i' { ",\"s\":\"t\"" } else { "" };
        push(
            format!(
                "{{\"ph\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":{ts},\"name\":\"{}\",\
                 \"cat\":\"{}\"{scope},\"args\":{{{args}}}}}",
                e.ph,
                ev.track,
                esc(&e.name),
                e.cat,
            ),
            &mut out,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

// ------------------------------------------------------------------
// Minimal JSON parser (for round-trip checks; no external deps)
// ------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a JSON document (strict enough for our own output and for
/// hand-written test fixtures; rejects trailing garbage).
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// One event as re-read from a Chrome trace JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Phase (`B`, `E`, `i`, `C`, `M`, ...).
    pub ph: String,
    /// Event name.
    pub name: String,
    /// Process id (clock domain).
    pub pid: u64,
    /// Thread id (track).
    pub tid: u32,
    /// Timestamp in simulated microseconds (0 for metadata).
    pub ts: f64,
}

/// Parse a Chrome trace-event JSON document into its event list.
pub fn parse_chrome_trace(s: &str) -> Result<Vec<ChromeEvent>, String> {
    let doc = parse_json(s)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let field_str = |k: &str| {
            ev.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event {i}: missing string field {k:?}"))
        };
        let field_num = |k: &str| {
            ev.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric field {k:?}"))
        };
        out.push(ChromeEvent {
            ph: field_str("ph")?,
            name: field_str("name")?,
            pid: field_num("pid")? as u64,
            tid: field_num("tid")? as u32,
            ts: ev.get("ts").and_then(JsonValue::as_f64).unwrap_or(0.0),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceDetail, TraceEventKind, TraceSink};

    #[test]
    fn parser_handles_basics() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"y\\z\n","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y\\z\n"));
        assert_eq!(v.get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert!(parse_json("{\"a\":1} junk").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    #[test]
    fn export_round_trips_through_parser() {
        let sink = TraceSink::memory(TraceDetail::Spans);
        let t = sink.alloc_track("q0: scan(t, a<=x)");
        let half_second = crate::trace::TICKS_PER_SECOND / 2;
        sink.emit(t, 0, TraceEventKind::SliceBegin);
        sink.emit(t, 0, TraceEventKind::OpBegin { name: "scan(t, a<=x)".into(), depth: 0 });
        sink.emit(t, half_second / 2, TraceEventKind::IoWindow { reads: 4, hits: 2, writes: 0 });
        sink.emit(t, half_second, TraceEventKind::OpEnd { depth: 0, rows: 3 });
        sink.emit(t, half_second, TraceEventKind::SliceEnd);
        let json = to_chrome_json(&sink.events(), &sink.track_labels());
        let parsed = parse_chrome_trace(&json).expect("round trip");
        let begins = parsed.iter().filter(|e| e.ph == "B").count();
        let ends = parsed.iter().filter(|e| e.ph == "E").count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        // Thread metadata carries the escaped track label.
        assert!(parsed.iter().any(|e| e.ph == "M" && e.name == "thread_name"));
        // Timestamps are sim microseconds, and the end event is named
        // after the begin it closes.
        let op_end = parsed.iter().find(|e| e.ph == "E" && e.name == "scan(t, a<=x)").unwrap();
        assert_eq!(op_end.ts, 0.5e6);
        // Slice events live in the scheduler process, ops in the query process.
        let slice = parsed.iter().find(|e| e.name == "slice" && e.ph == "B").unwrap();
        let op = parsed.iter().find(|e| e.ph == "B" && e.name != "slice").unwrap();
        assert_ne!(slice.pid, op.pid);
    }

    #[test]
    fn escaping_survives_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let json = format!("{{\"k\":\"{}\"}}", esc(nasty));
        let v = parse_json(&json).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }
}
