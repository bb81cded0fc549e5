//! Serving-level extension experiments: many queries over one shared
//! buffer pool, and the traces that make a burst legible.
//!
//! * `ext_concurrency` — concurrent serving: N queries over one shared
//!   buffer pool, concurrency level as a map axis.
//! * `ext_trace` — charge-free execution tracing: a traced burst as a
//!   baton timeline, a traced adaptive bail as operator spans, with
//!   trace/report reconciliation checks.

use std::sync::Arc;

use robustmap_core::render::{timeline_svg, TimelineMark, TimelineSpan};
use robustmap_core::{
    measure_plan, serve_concurrent, MeasureConfig, RegressionSuite, ServeConfig,
};
use robustmap_executor::{
    run_count, CheckpointKind, ExecCtx, Observation, PlanSpec, Projection, SpillMode,
};
use robustmap_obs::chrome::{parse_chrome_trace, to_chrome_json};
use robustmap_obs::trace::{
    op_profile_csv, slice_totals, validate_trace, TraceDetail, TraceEventKind, TraceSink,
};
use robustmap_storage::{ticks_to_seconds, IoStats};
use robustmap_systems::AdmissionConfig;
use robustmap_workload::{TableBuilder, WorkloadConfig, COL_A, COL_B};

use crate::harness::{FigureOutput, Harness};
use crate::lab::{full_catalog, regret_svg, scan_where, traditional_fetch};

/// Concurrent serving: the multi-query axis none of the paper's maps
/// sweep.  Every figure so far measures one query against an idle system;
/// `core::serve_concurrent` lets us put *concurrency level* on an axis —
/// N queries interleaved deterministically over one shared buffer pool —
/// and map how each of the 15 catalog plans degrades (or benefits: a
/// convoy of identical queries shares pages) as the system fills up.
///
/// Panel A sweeps a diverse burst (the whole catalog, round-robin) across
/// concurrency 1..256 at `max_in_flight = N`, and maps per-plan slowdown
/// relative to the isolated measurement.  Panel B runs *convoys* — N
/// copies of one plan — where lockstep scheduling turns contention into
/// cross-query buffer sharing.  Panel C drives the admission controller's
/// memory budget into the sort-spill cliff: the same sort, spilled or not
/// purely by how crowded the server is.
///
/// The named checks pin the serving layer's contracts at figure scale:
/// concurrency 1 bit-identical to isolated measurement, total work
/// invariant to interleaving, deterministic replay, FIFO admission,
/// exact per-query attribution, and the contention-induced spill.
pub fn ext_concurrency(h: &Harness) -> FigureOutput {
    // Serving multiplies work by the burst size, so the concurrency maps
    // use a reduced table (2^16 rows at figure scale) and a pool scaled to
    // stay smaller than the table — contention must be able to hurt.
    let rows = h.config.rows.min(1 << 16);
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(rows));
    let pool_pages = ((rows / 512) as usize).max(32);
    let mcfg = MeasureConfig { pool_pages, ..h.config.measure.clone() };
    let base_serve = ServeConfig {
        pool_pages,
        policy: mcfg.policy,
        model: mcfg.model.clone(),
        trace: mcfg.trace.clone(),
        ..ServeConfig::default()
    };
    let serve_at = |max_in_flight: usize| ServeConfig {
        admission: AdmissionConfig { max_in_flight, ..AdmissionConfig::default() },
        ..base_serve.clone()
    };

    let plans = full_catalog(&w);
    let specs: Vec<PlanSpec> =
        plans.iter().map(|p| p.build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4))).collect();
    let isolated: Vec<_> = specs.iter().map(|s| measure_plan(&w.db, s, &mcfg)).collect();
    let work_sig = |io: &IoStats| {
        (io.page_requests(), io.page_writes, io.cpu_rows, io.cpu_compares, io.cpu_hashes)
    };

    let mut suite = RegressionSuite::new();
    let mut report = String::from(
        "Extension N: concurrent serving — 15-plan burst over one shared buffer pool\n",
    );
    report.push_str(&format!(
        "rows {rows}, pool {pool_pages} pages, quantum {} charges, per-plan slowdown vs isolated\n",
        base_serve.quantum
    ));

    // Panel A: the diverse burst at each concurrency level.
    let levels: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
    report.push_str(&format!("{:>28}", "plan \\ concurrency"));
    for n in levels {
        report.push_str(&format!(" {n:>7}"));
    }
    report.push('\n');
    let mut sweep_csv = String::from("plan,concurrency,mean_seconds,isolated_seconds,slowdown\n");
    let mut slowdown = vec![0.0f64; plans.len() * levels.len()];
    let mut identity_at_one = true;
    let mut work_invariant = true;
    let mut fifo_ok = true;
    let mut level8 = None;
    for (li, &n) in levels.iter().enumerate() {
        let burst_len = specs.len() * n.div_ceil(specs.len());
        let burst: Vec<PlanSpec> =
            (0..burst_len).map(|j| specs[j % specs.len()].clone()).collect();
        let rep = serve_concurrent(&w.db, &burst, &serve_at(n));
        fifo_ok &= rep.admission_order == (0..burst_len).collect::<Vec<_>>()
            && rep.queries.len() == burst_len;
        let mut sums = vec![0.0f64; specs.len()];
        for (j, q) in rep.queries.iter().enumerate() {
            let p = j % specs.len();
            sums[p] += q.stats.seconds;
            work_invariant &= work_sig(&q.stats.io) == work_sig(&isolated[p].io)
                && q.stats.rows_out == isolated[p].rows;
            if n == 1 {
                identity_at_one &= q.stats.seconds.to_bits() == isolated[p].seconds.to_bits()
                    && q.stats.io == isolated[p].io;
            }
        }
        let per_plan = burst_len / specs.len();
        for (p, plan) in plans.iter().enumerate() {
            let mean = sums[p] / per_plan as f64;
            slowdown[p * levels.len() + li] = mean / isolated[p].seconds;
            sweep_csv.push_str(&format!(
                "{},{n},{:e},{:e},{:.4}\n",
                plan.name,
                mean,
                isolated[p].seconds,
                mean / isolated[p].seconds
            ));
        }
        if n == 8 {
            level8 = Some(rep);
        }
    }
    for (p, plan) in plans.iter().enumerate() {
        report.push_str(&format!("{:>28}", plan.name));
        for li in 0..levels.len() {
            report.push_str(&format!(" {:>6.2}x", slowdown[p * levels.len() + li]));
        }
        report.push('\n');
    }
    suite.check_named(
        "concurrency 1: all 15 plans bit-identical to their isolated measurements",
        identity_at_one,
        String::new(),
    );
    suite.check_named(
        "total work per query (requests, writes, cpu) invariant across concurrency 1..256",
        work_invariant,
        String::new(),
    );
    suite.check_named(
        "admission is FIFO and every query of every burst completes",
        fifo_ok,
        String::new(),
    );

    // Accounting and determinism at one mid-scale level.
    let level8 = level8.expect("levels include 8");
    let (hits, misses, _) = level8.pool_counters;
    let share_sum_ok = level8.queries.iter().map(|q| q.pool_hits).sum::<u64>() == hits
        && level8.queries.iter().map(|q| q.pool_misses).sum::<u64>() == misses
        && level8.idle_resets == 0;
    suite.check_named(
        "per-query pool shares partition the shared pool's counters exactly (level 8)",
        share_sum_ok,
        format!("{hits} hits + {misses} misses attributed"),
    );
    // Latency decomposition on the global virtual clock (arrival = burst
    // start): queue wait, first baton, turnaround.  Under interleaving a
    // query's turnaround exceeds its own charges by exactly the time the
    // other in-flight queries held the baton.
    report.push_str(&format!(
        "\nlevel-8 latency (global virtual seconds):\n{:>28} {:>12} {:>12} {:>12} {:>12}\n",
        "plan", "charged s", "queue wait", "first baton", "turnaround"
    ));
    for (j, q) in level8.queries.iter().enumerate().take(8) {
        report.push_str(&format!(
            "{:>28} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
            plans[j % plans.len()].name,
            q.stats.seconds,
            q.queue_wait,
            q.first_baton,
            q.turnaround,
        ));
    }
    let rep_a = serve_concurrent(&w.db, &specs, &serve_at(8));
    let rep_b = serve_concurrent(&w.db, &specs, &serve_at(8));
    let deterministic = rep_a.completion_order == rep_b.completion_order
        && rep_a.pool_counters == rep_b.pool_counters
        && rep_a
            .queries
            .iter()
            .zip(&rep_b.queries)
            .all(|(x, y)| x.stats.seconds.to_bits() == y.stats.seconds.to_bits()
                && x.stats.io == y.stats.io);
    suite.check_named(
        "serving is deterministic: replaying a level-8 burst reproduces every bit",
        deterministic,
        String::new(),
    );

    // Panel B: convoys — N copies of one plan in lockstep share the pool.
    report.push_str("\nconvoys: N identical queries, mean per-query seconds (vs isolated)\n");
    let mut csv = String::from("plan,selectivity,concurrency,mean_seconds,isolated_seconds,hit_share\n");
    let convoy_levels = [1usize, 8, 64];
    let mut convoy_fetch_speedup = f64::INFINITY;
    for sel in [1.0 / 64.0, 1.0 / 16.0, 0.25, 1.0] {
        let t = w.cal_a.threshold(sel);
        let scan = scan_where(&w, COL_A, t, Projection::All);
        let fetch = traditional_fetch(&w, t);
        for (name, plan) in [("table scan", &scan), ("traditional fetch", &fetch)] {
            let iso = measure_plan(&w.db, plan, &mcfg).seconds;
            report.push_str(&format!("{name:>20} @ {sel:>8.4}:"));
            for &n in &convoy_levels {
                let burst: Vec<PlanSpec> = (0..n).map(|_| plan.clone()).collect();
                let rep = serve_concurrent(&w.db, &burst, &serve_at(n));
                let mean =
                    rep.queries.iter().map(|q| q.stats.seconds).sum::<f64>() / n as f64;
                let (requests, hits) = rep.queries.iter().fold((0u64, 0u64), |(r, hh), q| {
                    (r + q.pool_hits + q.pool_misses, hh + q.pool_hits)
                });
                let hit_share = if requests == 0 { 0.0 } else { hits as f64 / requests as f64 };
                report.push_str(&format!(" {:>9.4}s ({:.2}x)", mean, mean / iso));
                csv.push_str(&format!(
                    "{name},{sel:e},{n},{mean:e},{iso:e},{hit_share:.4}\n"
                ));
                if name == "traditional fetch" && sel == 0.25 && n == 64 {
                    convoy_fetch_speedup = mean / iso;
                }
            }
            report.push('\n');
        }
    }
    suite.check_named(
        "convoy sharing: 64 lockstep fetches run no slower per query than one alone",
        convoy_fetch_speedup <= 1.0 + 1e-9,
        format!("{convoy_fetch_speedup:.3}x isolated"),
    );
    // Interference: the catalog mix overlaps on the same pages, so
    // sharing dominates above.  Contention *hurts* when working sets are
    // disjoint.  The victim is a traditional fetch (unsorted rids, so it
    // re-reads each heap page many times over long temporal distances)
    // under a pool that just fits the heap: alone, everything after the
    // first touch is a hit.  The flood is a covering-index-b scan — not
    // one shared page with the victim — streaming enough disjoint pages
    // through LRU to evict the victim's heap between its re-reads.
    // Slack of 8 pages and a long quantum: each scheduling round the 8
    // floods stream ~70 disjoint pages through the pool — far past the
    // slack — so LRU must give up victim pages between the victim's
    // slices.
    let heap_pages = w.db.table(w.table).heap.page_count() as usize;
    let ipool = heap_pages + 8;
    let icfg = MeasureConfig { pool_pages: ipool, ..mcfg.clone() };
    let iserve = ServeConfig { pool_pages: ipool, quantum: 4096, ..base_serve.clone() };
    let victim = traditional_fetch(&w, w.cal_a.threshold(0.25));
    let flood = plans
        .iter()
        .find(|p| p.name.contains("covering(b,a)"))
        .expect("catalog has the C4 covering scan")
        .build(w.cal_a.threshold(1.0), w.cal_b.threshold(1.0));
    let victim_alone = measure_plan(&w.db, &victim, &icfg);
    let mut burst = vec![victim];
    burst.extend((0..8).map(|_| flood.clone()));
    let flooded = &serve_concurrent(&w.db, &burst, &iserve).queries[0];
    report.push_str(&format!(
        "\ninterference: traditional fetch vs 8 covering(b,a) floods (disjoint pages, pool \
         {ipool}): {:.4}s alone -> {:.4}s flooded, hits {} -> {}\n",
        victim_alone.seconds, flooded.stats.seconds, victim_alone.io.buffer_hits,
        flooded.stats.io.buffer_hits,
    ));
    suite.check_named(
        "interference churn: a disjoint covering-index flood slows the heap fetch",
        flooded.stats.seconds > victim_alone.seconds
            && flooded.stats.io.buffer_hits < victim_alone.io.buffer_hits,
        format!(
            "{:.2}x isolated, hits {} -> {}",
            flooded.stats.seconds / victim_alone.seconds,
            victim_alone.io.buffer_hits,
            flooded.stats.io.buffer_hits
        ),
    );

    // Panel C: the contention-induced spill cliff.
    let full_sort = PlanSpec::Sort {
        input: Box::new(scan_where(&w, COL_A, w.cal_a.threshold(1.0), Projection::All)),
        key_cols: vec![1],
        mode: SpillMode::Abrupt,
        memory_bytes: 8 << 20,
    };
    let cliff_cfg = ServeConfig {
        admission: AdmissionConfig {
            memory_budget: (8 << 20) + (64 << 10),
            ..AdmissionConfig::default()
        },
        ..base_serve.clone()
    };
    let cliff = serve_concurrent(
        &w.db,
        &[full_sort.clone(), full_sort.clone(), full_sort],
        &cliff_cfg,
    );
    let spills: Vec<bool> = cliff.queries.iter().map(|q| q.stats.spilled).collect();
    let grants: Vec<usize> = cliff.queries.iter().map(|q| q.grant).collect();
    report.push_str(&format!(
        "\nadmission cliff: three identical sorts, budget 8 MiB + 64 KiB -> grants {:?}, spilled {:?}\n",
        grants.iter().map(|g| g >> 10).collect::<Vec<_>>(),
        spills
    ));
    suite.check_named(
        "contention spill cliff: the shrunk-grant sort spills while its full-grant twins do not",
        grants == vec![8 << 20, 64 << 10, 8 << 20] && spills == vec![false, true, false],
        format!("grants(KiB) {:?}", grants.iter().map(|g| g >> 10).collect::<Vec<_>>()),
    );

    let level_axis: Vec<f64> = levels.iter().map(|&n| n as f64).collect();
    let plan_axis: Vec<f64> = (1..=plans.len()).map(|p| p as f64).collect();
    let files = vec![
        h.write_artifact("ext_concurrency.csv", &csv),
        h.write_artifact("ext_concurrency_sweep.csv", &sweep_csv),
        regret_svg(
            h,
            "ext_concurrency.svg",
            &slowdown,
            &plan_axis,
            &level_axis,
            "Per-plan slowdown under concurrency (x: plan index, y: concurrency level)",
        ),
    ];
    FigureOutput::with_checks(h, "ext_concurrency", "the serving layer", suite, report, files)
}

/// Charge-free execution tracing: a traced concurrency-8 burst rendered
/// as a baton timeline, and a traced adaptive bail rendered as operator
/// spans — with the reconciliation checks that make the trace *evidence*
/// rather than decoration.  The trace records on two clocks (simulated
/// ticks and real nanoseconds) and must never change a charge: the
/// identity check below re-runs the forced bail untraced and compares
/// ticks with `==`, as the two reconciliation checks do.  Seconds appear
/// only where something is drawn or printed.
pub fn ext_trace(h: &Harness) -> FigureOutput {
    let rows = h.config.rows.min(1 << 14);
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(rows));
    let pool_pages = ((rows / 512) as usize).max(32);
    let mcfg = MeasureConfig { pool_pages, ..h.config.measure.clone() };
    let plans = full_catalog(&w);
    let specs: Vec<PlanSpec> = (0..8)
        .map(|j| plans[(j * 2) % plans.len()].build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4)))
        .collect();

    let mut suite = RegressionSuite::new();
    let mut report = String::from(
        "Extension N: charge-free execution tracing — baton timelines, operator spans, \
         metrics\n",
    );
    report.push_str(&format!(
        "{rows} rows, pool {pool_pages} pages, quantum 256 charges; trace events carry both \
         clocks (simulated ticks + real nanoseconds since sink epoch)\n",
    ));

    // --- Panel A: a traced 8-query burst at 8 in-flight slots.  The
    // scheduler records queueing, admission, every baton slice and each
    // completion on the global virtual clock.
    let sink = Arc::new(TraceSink::memory(TraceDetail::Spans));
    let cfg8 = ServeConfig {
        pool_pages,
        policy: mcfg.policy,
        model: mcfg.model.clone(),
        quantum: 256,
        trace: Some(Arc::clone(&sink)),
        ..ServeConfig::default()
    };
    let rep = serve_concurrent(&w.db, &specs, &cfg8);
    let events = sink.events();
    let labels = sink.track_labels();
    report.push_str(&format!(
        "\nburst of 8 at 8 slots: {} trace events on {} tracks, completion order {:?}\n",
        events.len(),
        labels.len(),
        rep.completion_order,
    ));
    report.push_str(&format!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>7}\n",
        "query", "charged s", "queue wait", "first baton", "turnaround", "slices"
    ));
    let totals = slice_totals(&events);
    let mut slices_of = vec![0usize; specs.len()];
    for e in &events {
        if matches!(e.kind, TraceEventKind::SliceBegin) && (e.track as usize) < specs.len() {
            slices_of[e.track as usize] += 1;
        }
    }
    for (i, q) in rep.queries.iter().enumerate() {
        report.push_str(&format!(
            "{i:>5} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>7}\n",
            q.stats.seconds, q.queue_wait, q.first_baton, q.turnaround, slices_of[i],
        ));
    }
    suite.check_named(
        "traced burst: trace is well-formed (spans nest, slices alternate, clocks monotone)",
        validate_trace(&events).is_ok(),
        validate_trace(&events).err().unwrap_or_default(),
    );
    let reconciled = rep
        .queries
        .iter()
        .enumerate()
        .all(|(i, q)| totals.get(&(i as u32)) == Some(&q.stats.ticks));
    suite.check_named(
        "per-query slice totals reconcile with the served queries' charged seconds",
        reconciled,
        format!("{} queries, {} slice tracks", rep.queries.len(), totals.len()),
    );
    let makespan = events
        .iter()
        .rev()
        .find(|e| matches!(e.kind, TraceEventKind::QueryDone { .. }))
        .map_or(0, |e| e.ticks);
    let charges: u64 = rep.queries.iter().map(|q| q.stats.ticks).sum();
    suite.check_named(
        "makespan conservation: last turnaround equals the sum of every query's charges",
        makespan == charges,
        format!("{:.6}s vs {:.6}s", ticks_to_seconds(makespan), ticks_to_seconds(charges)),
    );

    // Chrome export, as `figures --trace` writes it: it must parse back,
    // with every span's B matched by an E.  The JSON carries the real
    // clock, so it stays in memory; the details count what it holds.  A
    // document that does not parse has no spans.
    let json = to_chrome_json(&events, &labels);
    let parsed = parse_chrome_trace(&json).unwrap_or_default();
    let phase = |ph: &str| parsed.iter().filter(|ev| ev.ph == ph).count();
    let (b, e) = (phase("B"), phase("E"));
    let pids: std::collections::BTreeSet<u64> = parsed.iter().map(|ev| ev.pid).collect();
    suite.check_named(
        "Chrome export round-trips: JSON parses, B/E spans balance, two clock domains",
        b == e && b > 0 && pids.len() == 2,
        format!("{b} B / {e} E spans in {} events", parsed.len()),
    );

    // Queue wait becomes visible when admission is the bottleneck.
    let cfg2 = ServeConfig {
        admission: AdmissionConfig { max_in_flight: 2, ..AdmissionConfig::default() },
        trace: mcfg.trace.clone(),
        ..cfg8.clone()
    };
    let rep2 = serve_concurrent(&w.db, &specs, &cfg2);
    let waits: Vec<f64> = rep2.queries.iter().map(|q| q.queue_wait).collect();
    suite.check_named(
        "two admission slots make queue wait visible in global virtual time",
        waits[0] == 0.0
            && waits[1] == 0.0
            && waits[2..].iter().all(|&qw| qw > 0.0)
            && rep2.queries.iter().all(|q| q.turnaround >= q.first_baton
                && q.first_baton >= q.queue_wait),
        format!("waits {:?}", waits.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()),
    );
    report.push_str(&format!(
        "at 2 slots the queue becomes visible: waits {:?}\n",
        waits.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>(),
    ));

    // The baton timeline: one lane per query (plus the scheduler), slices
    // as bars on the global virtual clock, admissions and completions as
    // diamonds.
    let mut spans = Vec::new();
    let mut marks = Vec::new();
    let mut open = vec![f64::NAN; labels.len()];
    let mut slice_no = vec![0usize; labels.len()];
    for e in &events {
        let t = e.track as usize;
        let at = ticks_to_seconds(e.ticks);
        match &e.kind {
            TraceEventKind::SliceBegin => open[t] = at,
            TraceEventKind::SliceEnd => {
                slice_no[t] += 1;
                spans.push(TimelineSpan {
                    track: t,
                    start: open[t],
                    end: at,
                    color: t,
                    label: format!("slice {}: {:.5}s", slice_no[t], at - open[t]),
                });
            }
            TraceEventKind::Admit { grant } => marks.push(TimelineMark {
                track: t,
                at,
                label: format!("admitted, grant {grant}"),
            }),
            TraceEventKind::QueryDone { rows } => marks.push(TimelineMark {
                track: t,
                at,
                label: format!("done, {rows} rows"),
            }),
            _ => {}
        }
    }
    let timeline = timeline_svg(
        &labels,
        &spans,
        &marks,
        "Baton timeline: 8 queries, 8 slots, quantum 256 charges",
        "global virtual seconds",
    );

    // --- Panel B: a traced adaptive bail.  The controller is forced: it
    // bails at the first rid-feed checkpoint to a full table scan, so the
    // trace must show the checkpoint cascade, exactly one switch event,
    // and the abandoned operator's span closing on the error path.
    let victim = traditional_fetch(&w, w.cal_a.threshold(0.25));
    let alt = scan_where(&w, COL_B, w.cal_b.threshold(1.0), Projection::All);
    let ctrl = |obs: &Observation| (obs.kind == CheckpointKind::RidFeed).then(|| alt.clone());
    let run_bail = |sink: Option<&Arc<TraceSink>>| {
        let s = mcfg.session();
        if let Some(sk) = sink {
            s.attach_tracer(Arc::clone(sk), "q0: forced bail");
        }
        let ctx = ExecCtx::new(&w.db, &s, mcfg.memory_bytes);
        run_count(&victim, &ctx, Some(&ctrl))
            .expect("well-formed plan")
    };
    let plain = run_bail(None);
    let bail_sink = Arc::new(TraceSink::memory(TraceDetail::Spans));
    let traced = run_bail(Some(&bail_sink));
    let bail_events = bail_sink.events();
    let bail_labels = bail_sink.track_labels();
    report.push_str(&format!(
        "\nforced bail: {} -> {:?} in {:.6}s, {} trace events\n",
        victim.synopsis(),
        traced.switches.iter().map(|s| s.action.as_str()).collect::<Vec<_>>(),
        traced.seconds,
        bail_events.len(),
    ));
    suite.check_named(
        "tracing is charge-free: the traced forced bail is bit-identical to the untraced run",
        plain.ticks == traced.ticks
            && plain.io == traced.io
            && plain.switches == traced.switches,
        format!("{:.6}s both ways", plain.seconds),
    );
    let checkpoints =
        bail_events.iter().filter(|e| matches!(e.kind, TraceEventKind::Checkpoint { .. })).count();
    let switches =
        bail_events.iter().filter(|e| matches!(e.kind, TraceEventKind::Switch { .. })).count();
    suite.check_named(
        "the bail trace shows the checkpoint cascade, exactly one switch, and balanced spans",
        checkpoints >= 1 && switches == 1 && validate_trace(&bail_events).is_ok(),
        format!("{checkpoints} checkpoints, {switches} switches"),
    );

    // Operator spans of the bail, one lane per operator instance in
    // encounter order, checkpoint/switch marks on a final lane.
    let mut op_lanes: Vec<String> = Vec::new();
    let mut op_spans = Vec::new();
    let mut op_open: Vec<Vec<(usize, f64)>> = vec![Vec::new(); bail_labels.len()];
    let mut op_marks = Vec::new();
    for e in &bail_events {
        let now = ticks_to_seconds(e.ticks);
        match &e.kind {
            TraceEventKind::OpBegin { name, depth } => {
                let lane = op_lanes.len();
                op_lanes.push(format!("d{depth} {name}"));
                op_open[e.track as usize].push((lane, now));
            }
            TraceEventKind::OpEnd { rows, depth } => {
                let (lane, start) = op_open[e.track as usize].pop().expect("balanced spans");
                op_spans.push(TimelineSpan {
                    track: lane,
                    start,
                    end: now,
                    color: *depth as usize,
                    label: format!("{}: {rows} rows, {:.5}s", op_lanes[lane], now - start),
                });
            }
            TraceEventKind::Checkpoint { kind, rows } => op_marks.push((now, format!(
                "checkpoint {kind}: {rows} rows"
            ))),
            TraceEventKind::Switch { at, observed, action } => op_marks.push((now, format!(
                "{at}: observed {observed} -> {action}"
            ))),
            _ => {}
        }
    }
    let mark_lane = op_lanes.len();
    op_lanes.push("checkpoints".to_string());
    let op_marks: Vec<TimelineMark> = op_marks
        .into_iter()
        .map(|(at, label)| TimelineMark { track: mark_lane, at, label })
        .collect();
    let adaptive_svg = timeline_svg(
        &op_lanes,
        &op_spans,
        &op_marks,
        "Operator spans of a forced adaptive bail (rid feed -> table scan)",
        "simulated seconds",
    );

    let mut metrics = sink.metrics();
    metrics.merge(&bail_sink.metrics());
    let files = vec![
        h.write_artifact("ext_trace_timeline.svg", &timeline),
        h.write_artifact("ext_trace_adaptive.svg", &adaptive_svg),
        h.write_artifact("ext_trace_ops.csv", &op_profile_csv(&bail_events, &bail_labels)),
        h.write_artifact("ext_trace_metrics.txt", &metrics.dump()),
    ];
    FigureOutput::with_checks(h, "ext_trace", "the tracing layer", suite, report, files)
}
