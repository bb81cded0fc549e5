//! Property tests for trace well-formedness: randomly generated but
//! structurally valid emission schedules must always validate, their
//! Chrome export must round-trip through the minimal JSON parser with
//! begin/end balance intact and every tick stamp exact, and random
//! corruptions must be caught.

use proptest::prelude::*;
use robustmap_obs::chrome::{parse_chrome_trace, to_chrome_json};
use robustmap_obs::trace::{validate_trace, TraceDetail, TraceEventKind, TraceSink};

/// Drive a sink through `plan`: per track, a sequence of operator
/// frames (depth-first), each frame charging a few ticks — odd counts, so
/// stamps are not whole microseconds — with instants sprinkled in.
/// Returns the sink.
fn emit_schedule(plan: &[(u8, Vec<u8>)]) -> TraceSink {
    let sink = TraceSink::memory(TraceDetail::Spans);
    for (qi, (extra, frames)) in plan.iter().enumerate() {
        let t = sink.alloc_track(&format!("q{qi}"));
        let mut ticks = 0u64;
        let mut open: Vec<u32> = Vec::new();
        for (fi, f) in frames.iter().enumerate() {
            // Open a span at the current depth, sometimes nest deeper.
            let name = format!("op{fi}(sel<={})", f % 7);
            let depth = open.len() as u32;
            sink.emit(t, ticks, TraceEventKind::OpBegin { name, depth });
            open.push(depth);
            ticks += 1_000_000_007 * (1 + *f as u64);
            if f % 3 == 0 {
                sink.emit(
                    t,
                    ticks,
                    TraceEventKind::IoWindow { reads: *f as u64, hits: (*f / 2) as u64, writes: 0 },
                );
            }
            // Close some spans (always at least leave the stack valid).
            if f % 2 == 1 {
                while let Some(d) = open.pop() {
                    sink.emit(t, ticks, TraceEventKind::OpEnd { depth: d, rows: *f as u64 });
                    if d as usize <= (*extra % 3) as usize {
                        break;
                    }
                }
            }
        }
        while let Some(d) = open.pop() {
            ticks += 500_000_003;
            sink.emit(t, ticks, TraceEventKind::OpEnd { depth: d, rows: 0 });
        }
    }
    sink
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn structurally_valid_schedules_validate_and_round_trip(
        plan in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..12)),
            1..4,
        )
    ) {
        let sink = emit_schedule(&plan);
        let events = sink.events();

        // Well-formed by construction: nested spans, monotone ticks.
        prop_assert!(validate_trace(&events).is_ok(),
            "validate failed: {:?}", validate_trace(&events));

        // Chrome export parses back, with B/E balance preserved.
        let json = to_chrome_json(&events, &sink.track_labels());
        let parsed = parse_chrome_trace(&json);
        prop_assert!(parsed.is_ok(), "chrome parse failed: {:?}", parsed.err());
        let parsed = parsed.unwrap();
        let begins = parsed.iter().filter(|e| e.ph == "B").count();
        let ends = parsed.iter().filter(|e| e.ph == "E").count();
        prop_assert_eq!(begins, ends);
        let src_begins = events.iter()
            .filter(|e| matches!(e.kind, TraceEventKind::OpBegin { .. }))
            .count();
        prop_assert_eq!(begins, src_begins);

        // Non-metadata parsed events == emitted events.
        let non_meta = parsed.iter().filter(|e| e.ph != "M").count();
        prop_assert_eq!(non_meta, events.len());

        // Every `ts` is its event's ticks as microseconds, to the digit:
        // the exporter writes the exact decimal of ticks / 10^6, which
        // parses to the same f64 as the (correctly rounded) division.
        let stamped = parsed.iter().filter(|e| e.ph != "M");
        for (src, out) in events.iter().zip(stamped) {
            prop_assert_eq!(out.ts, src.ticks as f64 / 1e6, "ts of {:?}", src);
        }

        // Parsed timestamps are monotone per (pid, tid) for span events,
        // mirroring the source invariant.
        let mut last: std::collections::BTreeMap<(u64, u32), f64> = Default::default();
        for e in parsed.iter().filter(|e| e.ph == "B" || e.ph == "E") {
            let w = last.entry((e.pid, e.tid)).or_insert(f64::NEG_INFINITY);
            prop_assert!(e.ts >= *w, "ts went backwards on ({}, {})", e.pid, e.tid);
            *w = e.ts;
        }
    }

    #[test]
    fn corrupted_streams_are_rejected(
        frames in proptest::collection::vec(any::<u8>(), 1..10),
        which in 0..3u32,
    ) {
        let sink = emit_schedule(&[(0, frames)]);
        let mut events = sink.events();
        // Corrupt the stream in one of three ways; validation must
        // reject every one of them.
        match which {
            0 => {
                // Drop the final OpEnd: leaves a span open.
                let last_end = events.iter().rposition(
                    |e| matches!(e.kind, TraceEventKind::OpEnd { .. }));
                if let Some(i) = last_end { events.remove(i); } else { return Ok(()); }
            }
            1 => {
                // Duplicate an OpEnd: stray end with no open span.
                let last_end = events.iter().rposition(
                    |e| matches!(e.kind, TraceEventKind::OpEnd { .. }));
                if let Some(i) = last_end {
                    let dup = events[i].clone();
                    events.push(dup);
                } else { return Ok(()); }
            }
            _ => {
                // Time warp: shove the first event far into the future.
                if events.len() < 2 { return Ok(()); }
                events[0].ticks = u64::MAX;
                // Guard: only meaningful if event 0 shares (track,
                // domain) with a later event.
                let d0 = events[0].kind.domain();
                if !events[1..].iter().any(
                    |e| e.track == events[0].track && e.kind.domain() == d0) {
                    return Ok(());
                }
            }
        }
        prop_assert!(validate_trace(&events).is_err());
    }
}

#[test]
fn fixed_chrome_document_parses() {
    // A hand-written fixture in the wild format (array form is NOT
    // supported — we always write object form, so we only parse it).
    let doc = r#"{"traceEvents":[
        {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"p"}},
        {"ph":"B","pid":2,"tid":0,"ts":0,"name":"op","cat":"op","args":{}},
        {"ph":"E","pid":2,"tid":0,"ts":1500.5,"name":"op","cat":"op","args":{}}
    ],"displayTimeUnit":"ms"}"#;
    let events = parse_chrome_trace(doc).unwrap();
    assert_eq!(events.len(), 3);
    assert_eq!(events[2].ts, 1500.5);
}

#[test]
fn empty_trace_exports_and_validates() {
    let sink = TraceSink::memory(TraceDetail::Spans);
    let events = sink.events();
    assert!(validate_trace(&events).is_ok());
    let json = to_chrome_json(&events, &sink.track_labels());
    let parsed = parse_chrome_trace(&json).unwrap();
    assert!(parsed.iter().all(|e| e.ph == "M"));
}
