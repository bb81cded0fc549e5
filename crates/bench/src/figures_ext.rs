//! Extension experiments: the opportunities the paper names but does not
//! pursue (§3.3) and the future work it sketches (§4).
//!
//! * `ext_sort_spill` — §4's sort-spill discontinuity (abrupt vs.
//!   graceful).
//! * `ext_memory` — resource dimension: memory grant × input size maps.
//! * `ext_worst` — §3.3 opportunity 1: mapping *worst* performance.
//! * `ext_shootout` — §3.3 opportunity 2: comparing multiple systems,
//!   plus the §4 robustness-benchmark leaderboard.
//! * `ext_ablation` — the design knobs behind the improved scan and MDAM.
//! * `ext_buffer` — buffer pool size as a run-time condition.
//! * `ext_join` — sort-merge vs. hash join maps (\[GLS94\]).
//! * `ext_parallel` — parallel scan speedup under partition skew.
//! * `ext_skew` — Zipf-skewed predicate columns.
//! * `ext_optimizer` — plan choice under cardinality estimation error.
//! * `ext_correlated` — correlated predicate columns vs the optimizer's
//!   independence assumption (rho × selectivity robustness maps).
//! * `ext_robust_choice` — the fix: joint statistics + the penalty-aware
//!   robust chooser vs the point-estimate optimizer vs the oracle.
//! * `ext_adaptive` — the run-time fix: mid-flight plan switching from
//!   observed cardinalities, with no joint statistics at compile time.
//! * `ext_concurrency` — concurrent serving: N queries over one shared
//!   buffer pool, concurrency level as a map axis.
//! * `ext_trace` — charge-free execution tracing: a traced burst as a
//!   baton timeline, a traced adaptive bail as operator spans, with
//!   trace/report reconciliation checks.
//! * `ext_churn` — data churn + incremental statistics maintenance:
//!   frozen vs maintained vs fresh statistics over a mutating table.
//! * `ext_regression` — the §4 regression benchmark, runnable as a gate.

use robustmap_core::analysis::changepoint::{detect_changepoints, ChangepointConfig};
use robustmap_core::analysis::score::score_map2d;
use robustmap_core::analysis::symmetry::symmetry_of;
use robustmap_core::render::{absolute_scale, heatmap_svg, relative_scale, render_map2d_ansi, AsciiOptions};
use robustmap_core::report::score_report;
use robustmap_core::{measure_batch, measure_plan, MeasureConfig, RelativeMap2D};
use robustmap_executor::{
    ColRange, FetchKind, ImprovedFetchConfig, IndexRangeSpec, JoinAlgo, KeyRange, PlanSpec,
    Predicate, Projection, SpillMode,
};
use robustmap_storage::EvictionPolicy;
use robustmap_systems::SystemId;
use robustmap_workload::{COL_A, COL_B, COL_C};

use crate::harness::{FigureOutput, Harness};

fn ansi_opts() -> AsciiOptions {
    AsciiOptions { ansi: false, cell_width: 2 }
}

/// §4: "some implementations of sorting spill their entire input to disk
/// if the input size exceeds the memory size by merely a single record.
/// Those sort implementations lacking graceful degradation will show
/// discontinuous execution costs."
///
/// The sort's *own* cost is isolated from its scan child (whose constant
/// cost would otherwise mask the cliff) via the per-operator breakdown,
/// and a fine sweep brackets the memory threshold so the "merely a single
/// record" jump is visible.
pub fn ext_sort_spill(h: &Harness) -> FigureOutput {
    use robustmap_executor::{run_count, ExecCtx, RunOpts};
    use robustmap_storage::{BufferPool, Session};

    let w = &h.w;
    let memory = 1 << 18; // 256 KiB: ~3.2k rows of sort memory
    let sort_plan = |rows_wanted: f64, mode: SpillMode| {
        let t = w.cal_a.threshold(rows_wanted / w.rows() as f64);
        PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(COL_A, t)),
                project: Projection::Columns(vec![COL_C, COL_A]),
            }),
            key_cols: vec![0],
            mode,
            memory_bytes: memory,
        }
    };
    // Sort-exclusive seconds: the Sort node's inclusive time minus its
    // child's, from the execution's operator breakdown.
    let sort_only = |plan: &PlanSpec| -> (f64, u64, u64) {
        let session = Session::new(
            h.config.measure.model.clone(),
            BufferPool::new(h.config.measure.pool_pages, h.config.measure.policy),
        );
        let ctx = ExecCtx::new(&w.db, &session, h.config.measure.memory_bytes);
        let stats = run_count(plan, &ctx, RunOpts::default()).expect("well-formed plan");
        let child = stats.operators.iter().find(|o| o.depth == 1).expect("child").seconds;
        let root = stats.operators.iter().find(|o| o.depth == 0).expect("root").seconds;
        (root - child, stats.io.page_writes, stats.rows_out)
    };

    let mut report = String::from(
        "Extension A: sort spill discontinuity — sort-only cost at fixed memory\n",
    );
    // The threshold in rows for this memory grant.
    let threshold_rows = robustmap_executor::ops::sort::sort_capacity_rows(memory) as f64;
    report.push_str(&format!(
        "memory grant {memory} B ≈ {threshold_rows:.0} rows; fine sweep around the cliff:\n"
    ));
    report.push_str(&format!(
        "{:>10} {:>12} {:>14} {:>12} {:>15}\n",
        "rows", "abrupt (s)", "abrupt writes", "graceful (s)", "graceful writes"
    ));
    let mut rows_axis = Vec::new();
    let mut abrupt_secs = Vec::new();
    let mut graceful_secs = Vec::new();
    let mut csv = String::from("rows,abrupt_seconds,graceful_seconds,abrupt_writes,graceful_writes\n");
    let factors = [0.5, 0.8, 0.95, 0.99, 1.01, 1.05, 1.2, 1.5, 2.0, 4.0, 16.0, 64.0];
    for f in factors {
        let wanted = threshold_rows * f;
        let (sa, wa, rows) = sort_only(&sort_plan(wanted, SpillMode::Abrupt));
        let (sg, wg, _) = sort_only(&sort_plan(wanted, SpillMode::Graceful));
        report.push_str(&format!(
            "{:>10} {:>12.5} {:>14} {:>12.5} {:>15}\n",
            rows, sa, wa, sg, wg
        ));
        csv.push_str(&format!("{rows},{sa:e},{sg:e},{wa},{wg}\n"));
        rows_axis.push(rows as f64);
        abrupt_secs.push(sa);
        graceful_secs.push(sg);
    }
    let cp = ChangepointConfig::default();
    let d_abrupt = detect_changepoints(&rows_axis, &abrupt_secs, &cp);
    let d_graceful = detect_changepoints(&rows_axis, &graceful_secs, &cp);
    report.push_str(&format!(
        "changepoints (log-log piecewise criterion): abrupt {} cliff(s) + {} knee(s), \
         graceful {} cliff(s) + {} knee(s)\n",
        d_abrupt.cliff_count(),
        d_abrupt.knee_count(),
        d_graceful.cliff_count(),
        d_graceful.knee_count(),
    ));
    if let Some(c) = d_abrupt.cliffs().next() {
        report.push_str(&format!(
            "  abrupt sort cost jumps {:.0}x beyond the local trend at ~{:.0} input rows — \
             \"spills their entire input ... by merely a single record\"\n",
            c.severity, c.at_work,
        ));
    }
    if let Some(k) = d_graceful.knees().next() {
        report.push_str(&format!(
            "  graceful sort shows a knee (log-log slope break {:.1}) at ~{:.0} rows and no \
             level shift — degradation in proportion to the overflow, which the old \
             threshold-ratio detector could not see\n",
            k.severity, k.at_work,
        ));
    }
    report.push_str(
        "  (abrupt writes ≈ the whole input once over the cliff; graceful writes ≈ only the \
         overflow beyond memory)\n",
    );
    let files = vec![h.write_artifact("ext_sort_spill.csv", &csv)];
    FigureOutput::new("ext_sort_spill", report, files)
}

/// Resource dimension: a 2-D map of memory grant × input size for the
/// abrupt-spill sort (the kind of map §3.2 calls for when "multiple
/// parameters interact").
pub fn ext_memory(h: &Harness) -> FigureOutput {
    let w = &h.w;
    let size_exps: Vec<u32> = (0..=h.config.grid_exp.min(10)).rev().collect();
    let mem_kib: Vec<usize> = (4..=12).map(|e| 1usize << e).collect(); // 4 KiB .. 4 MiB
    // Construct the whole size x memory grid of sort plans up front and
    // sweep it in one batch.
    let mut specs = Vec::with_capacity(size_exps.len() * mem_kib.len());
    for &se in size_exps.iter().rev() {
        let t = w.cal_a.threshold(0.5f64.powi(se as i32));
        for &m in &mem_kib {
            specs.push(PlanSpec::Sort {
                input: Box::new(PlanSpec::TableScan {
                    table: w.table,
                    pred: Predicate::single(ColRange::at_most(COL_A, t)),
                    project: Projection::Columns(vec![COL_C]),
                }),
                key_cols: vec![0],
                mode: SpillMode::Abrupt,
                memory_bytes: m * 1024,
            });
        }
    }
    let results = measure_batch(&w.db, &specs, &h.config.measure);
    let mut report = String::from("Extension B: sort time (s), memory grant x input size (abrupt spill)\n");
    report.push_str(&format!("{:>10}", "rows\\mem"));
    for &m in &mem_kib {
        report.push_str(&format!("{:>9}K", m));
    }
    report.push('\n');
    let mut grid = Vec::new();
    for (si, &se) in size_exps.iter().rev().enumerate() {
        let row_cells: Vec<f64> = results[si * mem_kib.len()..(si + 1) * mem_kib.len()]
            .iter()
            .map(|m| m.seconds)
            .collect();
        report.push_str(&format!("{:>10}", w.rows() >> se));
        for &s in &row_cells {
            report.push_str(&format!("{:>10.4}", s));
        }
        report.push('\n');
        grid.push(row_cells);
    }
    // Flatten to an ia-major grid: ia = memory, ib = size.
    let na = mem_kib.len();
    let nb = grid.len();
    let mut flat = vec![0.0; na * nb];
    for (ib, row) in grid.iter().enumerate() {
        for (ia, &v) in row.iter().enumerate() {
            flat[ia * nb + ib] = v;
        }
    }
    let sel_a: Vec<f64> = mem_kib.iter().map(|&m| m as f64 / *mem_kib.last().unwrap() as f64).collect();
    let sel_b: Vec<f64> = (0..nb).map(|i| 0.5f64.powi((nb - 1 - i) as i32)).collect();
    let files = vec![h.write_artifact(
        "ext_memory.svg",
        &heatmap_svg(&flat, &sel_a, &sel_b, &absolute_scale(), "Sort cost over memory (x) and input size (y)"),
    )];
    FigureOutput::new("ext_memory", report, files)
}

/// §3.3 opportunity 1: "we have not mapped worst performance, i.e.,
/// particularly dangerous plans and the relative performance of plans
/// compared to how bad performance could be."
pub fn ext_worst(h: &Harness) -> FigureOutput {
    let all = h.map_all_systems();
    let rel = RelativeMap2D::from_map(&all);
    let (na, nb) = rel.dims();
    // Danger map: worst plan cost / best plan cost per cell.
    let mut danger = vec![0.0f64; na * nb];
    for ia in 0..na {
        for ib in 0..nb {
            let worst = (0..all.plan_count())
                .map(|p| rel.quotient(p, ia, ib))
                .fold(1.0f64, f64::max);
            danger[ia * nb + ib] = worst;
        }
    }
    let mut report = render_map2d_ansi(
        &danger,
        &rel.sel_a,
        &rel.sel_b,
        &relative_scale(),
        "Extension C: danger map — worst plan vs best plan per point",
        &ansi_opts(),
    );
    let max_danger = danger.iter().copied().fold(1.0f64, f64::max);
    report.push_str(&format!(
        "a wrong plan choice can cost up to {max_danger:.0}x at the worst point\n"
    ));
    // Per-plan: how close does it get to being the worst choice?
    report.push_str("fraction of points where each plan is the worst choice:\n");
    for (p, name) in rel.plans.iter().enumerate() {
        let worst_count = (0..na * nb)
            .filter(|&c| {
                let (ia, ib) = (c / nb, c % nb);
                let q = rel.quotient(p, ia, ib);
                (0..all.plan_count()).all(|o| rel.quotient(o, ia, ib) <= q)
            })
            .count();
        report.push_str(&format!(
            "  {:<28} {:>5.1}%\n",
            name,
            worst_count as f64 / (na * nb) as f64 * 100.0
        ));
    }
    let files = vec![h.write_artifact(
        "ext_worst.svg",
        &heatmap_svg(&danger, &rel.sel_a, &rel.sel_b, &relative_scale(), "Danger map: worst/best factor per point"),
    )];
    FigureOutput::new("ext_worst", report, files)
}

/// §3.3 opportunity 2: "we have not yet compared multiple systems and
/// their available plans" — the cross-system shootout plus the §4
/// robustness-benchmark leaderboard.
pub fn ext_shootout(h: &Harness) -> FigureOutput {
    let all = h.map_all_systems();
    let rel = RelativeMap2D::from_map(&all);
    let (na, nb) = rel.dims();
    let system_of = |plan: usize| -> SystemId {
        match all.plans[plan].as_bytes()[0] {
            b'A' => SystemId::A,
            b'B' => SystemId::B,
            _ => SystemId::C,
        }
    };
    let mut report = String::from("Extension D: cross-system comparison (15 plans, 3 systems)\n");
    let mut wins = [0usize; 3];
    for ia in 0..na {
        for ib in 0..nb {
            let best = rel.best_plan_at(ia, ib);
            wins[match system_of(best) {
                SystemId::A => 0,
                SystemId::B => 1,
                SystemId::C => 2,
            }] += 1;
        }
    }
    let total = (na * nb) as f64;
    for (i, sys) in SystemId::all().into_iter().enumerate() {
        report.push_str(&format!(
            "  {} holds the best plan at {:.1}% of points\n",
            sys,
            wins[i] as f64 / total * 100.0
        ));
    }
    // Best-achievable-per-system comparison: each system's best plan per
    // cell vs. the global best.
    for sys in SystemId::all() {
        let prefix = match sys {
            SystemId::A => "A",
            SystemId::B => "B",
            SystemId::C => "C",
        };
        let sub = all.subset_by_prefix(prefix);
        let mut worst = 1.0f64;
        let mut sum = 0.0f64;
        for ia in 0..na {
            for ib in 0..nb {
                let best_sys = (0..sub.plan_count())
                    .map(|p| sub.get(p, ia, ib).seconds)
                    .fold(f64::INFINITY, f64::min);
                let q = best_sys / rel.best_seconds_at(ia, ib).max(1e-12);
                worst = worst.max(q);
                sum += q;
            }
        }
        report.push_str(&format!(
            "  {}: best-plan-per-point is within {:.1}x of the global best on average \
             (worst {:.1}x)\n",
            sys,
            sum / total,
            worst
        ));
    }
    // Robustness benchmark leaderboard over all 15 plans (§4), with the
    // severity-weighted cliff/knee smoothness columns.
    report.push_str("\nrobustness benchmark leaderboard (all plans):\n");
    let scores: Vec<_> =
        (0..all.plan_count()).map(|p| score_map2d(&rel, p, &all.seconds_grid(p))).collect();
    report.push_str(&score_report(&scores));
    let files = vec![
        h.write_artifact("ext_shootout.txt", &report),
        h.write_artifact("ext_shootout_scores.csv", &robustmap_core::report::score_csv(&scores)),
    ];
    FigureOutput::new("ext_shootout", report, files)
}

/// Ablations of the design choices DESIGN.md calls out: the improved
/// fetch's rid sort and read-ahead regimes, and MDAM vs. a plain covering
/// range scan.
pub fn ext_ablation(h: &Harness) -> FigureOutput {
    let w = &h.w;
    let mut report = String::from("Extension E: ablations\n");
    // --- Improved fetch regimes, at a mid selectivity where they differ.
    let sel = 0.5f64.powi((h.config.grid_exp / 2) as i32);
    let t = w.cal_a.threshold(sel);
    let fetch_plan = |fetch: FetchKind| PlanSpec::IndexFetch {
        scan: IndexRangeSpec { index: w.indexes.a, range: KeyRange::on_leading(i64::MIN, t, 1) },
        key_filter: Predicate::always_true(),
        fetch,
        residual: Predicate::always_true(),
        project: Projection::All,
    };
    report.push_str(&format!("fetch disciplines at selectivity {sel:.3e}:\n"));
    let variants: Vec<(String, FetchKind)> = vec![
        ("traditional (no sort)".into(), FetchKind::Traditional),
        ("bitmap (sort, no read-ahead)".into(), FetchKind::BitmapSorted),
        (
            "improved (sort + read-ahead)".into(),
            FetchKind::Improved(ImprovedFetchConfig::default()),
        ),
        (
            "improved, scan_gap=1".into(),
            FetchKind::Improved(ImprovedFetchConfig { scan_gap: 1, prefetch_gap: 64 }),
        ),
        (
            "improved, prefetch_gap=4".into(),
            FetchKind::Improved(ImprovedFetchConfig { scan_gap: 4, prefetch_gap: 4 }),
        ),
    ];
    for (name, fetch) in variants {
        let m = measure_plan(&w.db, &fetch_plan(fetch), &h.config.measure);
        report.push_str(&format!(
            "  {:<32} {:>9.4}s  seq={:<6} single={:<6} random={:<6}\n",
            name, m.seconds, m.io.seq_reads, m.io.single_reads, m.io.random_reads
        ));
    }
    // --- MDAM vs covering range scan at a "wide leading range, selective
    // second column" point — MDAM's home turf.
    let ta = w.cal_a.threshold(1.0);
    let tb = w.cal_b.threshold(sel * sel);
    let mdam = PlanSpec::Mdam {
        index: w.indexes.ab,
        col_ranges: vec![(i64::MIN, ta), (i64::MIN, tb)],
        project: Projection::All,
    };
    let covering = PlanSpec::CoveringIndexScan {
        scan: IndexRangeSpec { index: w.indexes.ab, range: KeyRange::on_leading(i64::MIN, ta, 2) },
        residual: Predicate::single(ColRange::at_most(1, tb)),
        project: Projection::All,
    };
    let m_mdam = measure_plan(&w.db, &mdam, &h.config.measure);
    let m_cov = measure_plan(&w.db, &covering, &h.config.measure);
    report.push_str(&format!(
        "mdam vs covering scan at (sel_a=1, sel_b={:.1e}): {:.4}s vs {:.4}s\n",
        sel * sel,
        m_mdam.seconds,
        m_cov.seconds
    ));
    report.push_str(
        "  (MDAM cannot skip when the leading column is all-distinct; with low-cardinality \
         leading columns it wins — see the mdam module tests)\n",
    );
    // --- Hash intersect build-side choice (join order).
    let (ta2, tb2) = (w.cal_a.threshold(0.01), w.cal_b.threshold(0.5));
    for build_left in [true, false] {
        let plan = PlanSpec::IndexIntersect {
            left: IndexRangeSpec {
                index: w.indexes.a,
                range: KeyRange::on_leading(i64::MIN, ta2, 1),
            },
            right: IndexRangeSpec {
                index: w.indexes.b,
                range: KeyRange::on_leading(i64::MIN, tb2, 1),
            },
            algo: robustmap_executor::IntersectAlgo::HashJoin { build_left },
            fetch: FetchKind::Improved(ImprovedFetchConfig::default()),
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let m = measure_plan(&w.db, &plan, &h.config.measure);
        report.push_str(&format!(
            "hash intersect (sel 0.01 x 0.5), build {:<5}: {:.4}s\n",
            if build_left { "small" } else { "large" },
            m.seconds
        ));
    }
    let files = vec![h.write_artifact("ext_ablation.txt", &report)];
    FigureOutput::new("ext_ablation", report, files)
}

/// Sort-merge vs. hash join over a 2-D input-size space (\[GLS94\], which
/// §3.2 of the paper builds on): where does each algorithm win, and how
/// does the hash join's build-side memory cliff shape the map?
pub fn ext_join(h: &Harness) -> FigureOutput {
    let w = &h.w;
    let memory = 4 << 20; // 4 MiB join grant: the cliff sits inside the sweep
    let exps: Vec<u32> = (0..=h.config.grid_exp.min(8)).rev().collect();
    let n = exps.len();
    // R = rows with a <= ta, projected to (c, a); S = rows with b <= tb,
    // projected to (c, b); equi-join on c (a permutation: 1:1 matches).
    // Thresholds are hoisted: one calibration per axis value, not one per
    // cell.
    let thr_a: Vec<i64> =
        exps.iter().rev().map(|&e| w.cal_a.threshold(0.5f64.powi(e as i32))).collect();
    let thr_b: Vec<i64> =
        exps.iter().rev().map(|&e| w.cal_b.threshold(0.5f64.powi(e as i32))).collect();
    let join_plan = |ta: i64, tb: i64, algo: JoinAlgo| {
        PlanSpec::Join {
            left: Box::new(PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(COL_A, ta)),
                project: Projection::Columns(vec![COL_C, COL_A]),
            }),
            right: Box::new(PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(COL_B, tb)),
                project: Projection::Columns(vec![COL_C, COL_B]),
            }),
            left_key: 0,
            right_key: 0,
            algo,
            memory_bytes: memory,
            project: Projection::All,
        }
    };
    let algos = [
        ("sort-merge", JoinAlgo::SortMerge),
        ("hash build-left", JoinAlgo::Hash { build_left: true }),
        ("hash build-right", JoinAlgo::Hash { build_left: false }),
    ];
    // All |algos| x n x n join plans are constructed up front and swept
    // in one batch through the warm-path engine.
    let mut specs = Vec::with_capacity(algos.len() * n * n);
    for (_, algo) in &algos {
        for &ta in &thr_a {
            for &tb in &thr_b {
                specs.push(join_plan(ta, tb, *algo));
            }
        }
    }
    let results = measure_batch(&w.db, &specs, &h.config.measure);
    let grids: Vec<Vec<f64>> = (0..algos.len())
        .map(|gi| results[gi * n * n..(gi + 1) * n * n].iter().map(|m| m.seconds).collect())
        .collect();
    let sels: Vec<f64> = exps.iter().rev().map(|&e| 0.5f64.powi(e as i32)).collect();
    let mut report = String::from("Extension G: sort-merge vs hash join (GLS94), |R| x |S| sweep\n");
    // Winner map and symmetry.
    let mut winner_grid = vec![0.0f64; n * n];
    let mut wins = [0usize; 3];
    for c in 0..n * n {
        let best = (0..algos.len())
            .min_by(|&x, &y| grids[x][c].partial_cmp(&grids[y][c]).expect("finite"))
            .expect("nonempty");
        winner_grid[c] = best as f64 + 1.0;
        wins[best] += 1;
    }
    for (gi, (name, _)) in algos.iter().enumerate() {
        let sym = symmetry_of(&grids[gi], n);
        report.push_str(&format!(
            "  {:<18} wins at {:>5.1}% of points; mirrored-cost ratio mean {:.3}x max {:.3}x\n",
            name,
            wins[gi] as f64 / (n * n) as f64 * 100.0,
            sym.mean_log_ratio.exp(),
            sym.max_log_ratio.exp(),
        ));
    }
    report.push_str(
        "  (sort-merge is symmetric; each hash variant is cheap when its build side is the \
         small input and cliffs when the build side outgrows the grant)\n",
    );
    // Every measured cell, so the byte gate in scripts/verify.sh sees the
    // simulated seconds themselves and not their colour bucket.
    let mut csv = String::from("algo,sel_r,sel_s,seconds\n");
    for (gi, (name, _)) in algos.iter().enumerate() {
        for (c, secs) in grids[gi].iter().enumerate() {
            csv.push_str(&format!("{name},{:e},{:e},{secs:e}\n", sels[c / n], sels[c % n]));
        }
    }
    let mut files = vec![h.write_artifact("ext_join.csv", &csv)];
    for (gi, (name, _)) in algos.iter().enumerate() {
        let fname = format!("ext_join_{}.svg", name.replace(' ', "_"));
        files.push(h.write_artifact(
            &fname,
            &heatmap_svg(&grids[gi], &sels, &sels, &absolute_scale(), &format!("join cost: {name}")),
        ));
    }
    FigureOutput::new("ext_join", report, files)
}

/// Parallel scan robustness: speedup vs. degree of parallelism, with and
/// without partition skew (§4: "visualizations of entire query execution
/// plans including parallel ones"; §3: skew as a robustness factor).
pub fn ext_parallel(h: &Harness) -> FigureOutput {
    let w = &h.w;
    let pred = Predicate::single(ColRange::at_most(COL_A, w.cal_a.threshold(0.5)));
    let scan = |dop: u32, skew_permille: u32| PlanSpec::ParallelTableScan {
        table: w.table,
        pred: pred.clone(),
        project: Projection::Columns(vec![COL_C]),
        dop,
        skew_permille,
    };
    let mut report =
        String::from("Extension H: parallel table scan — speedup vs dop under skew\n");
    report.push_str(&format!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}\n",
        "dop", "even (s)", "skew 25%", "skew 75%", "skew 100%"
    ));
    // One batch over the dop x skew grid; the summary lines below reuse
    // grid cells (measurements are deterministic, so re-measuring the same
    // plan would return the same value).
    let dops = [1u32, 2, 4, 8, 16, 32];
    let skews = [0u32, 250, 750, 1000];
    let mut specs = Vec::with_capacity(dops.len() * skews.len());
    for &dop in &dops {
        for &skew in &skews {
            specs.push(scan(dop, skew));
        }
    }
    let results = measure_batch(&w.db, &specs, &h.config.measure);
    let cell = |di: usize, ki: usize| results[di * skews.len() + ki].seconds;
    let serial = cell(0, 0);
    let mut csv = String::from("dop,even,skew250,skew750,skew1000\n");
    for (di, &dop) in dops.iter().enumerate() {
        let secs: Vec<f64> = (0..skews.len()).map(|ki| cell(di, ki)).collect();
        report.push_str(&format!(
            "{:>6} {:>12.4} {:>12.4} {:>12.4} {:>12.4}\n",
            dop, secs[0], secs[1], secs[2], secs[3]
        ));
        csv.push_str(&format!("{dop},{:e},{:e},{:e},{:e}\n", secs[0], secs[1], secs[2], secs[3]));
    }
    let dop16 = dops.iter().position(|&d| d == 16).expect("dop 16 swept");
    let even16 = cell(dop16, skews.iter().position(|&s| s == 0).expect("even swept"));
    let skew16 = cell(dop16, skews.iter().position(|&s| s == 1000).expect("full skew swept"));
    report.push_str(&format!(
        "speedup at dop 16: {:.1}x even, {:.1}x fully skewed — skew erases parallelism, a \
         run-time condition no compile-time choice can fix\n",
        serial / even16,
        serial / skew16
    ));
    let files = vec![h.write_artifact("ext_parallel.csv", &csv)];
    FigureOutput::new("ext_parallel", report, files)
}

/// Data skew (§3: "skew (non-uniform value distributions and duplicate key
/// values)"): the Figure 1 sweep on a Zipf-distributed predicate column,
/// contrasted with the uniform permutation column.
pub fn ext_skew(h: &Harness) -> FigureOutput {
    use robustmap_workload::{TableBuilder, WorkloadConfig};
    let rows = h.w.rows().min(1 << 18); // a second table: keep it moderate
    let zipf_cfg = WorkloadConfig {
        rows,
        seed: h.w.config.seed,
        predicate_dist: robustmap_workload::gen::PredicateDistribution::ZipfHundredths(110),
        mutation_epoch: 0,
    };
    let wz = TableBuilder::build_cached(zipf_cfg);
    let mut report = String::from(
        "Extension I: skewed (Zipf theta=1.1) predicate column vs uniform permutation\n",
    );
    report.push_str(&format!(
        "{:>12} {:>10} {:>14} {:>14} {:>12}\n",
        "target sel", "rows", "improved (s)", "traditional(s)", "trad/impr"
    ));
    let mut csv = String::from("selectivity,rows,improved,traditional\n");
    for exp in (0..=h.config.grid_exp.min(12)).rev().step_by(2) {
        let sel = 0.5f64.powi(exp as i32);
        let (t, count) = wz.cal_a.threshold_with_count(sel);
        let plan = |fetch: FetchKind| PlanSpec::IndexFetch {
            scan: IndexRangeSpec {
                index: wz.indexes.a,
                range: KeyRange::on_leading(i64::MIN, t, 1),
            },
            key_filter: Predicate::always_true(),
            fetch,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let imp = measure_plan(
            &wz.db,
            &plan(FetchKind::Improved(ImprovedFetchConfig::default())),
            &h.config.measure,
        );
        let trad = measure_plan(&wz.db, &plan(FetchKind::Traditional), &h.config.measure);
        report.push_str(&format!(
            "{:>12.3e} {:>10} {:>14.4} {:>14.4} {:>11.1}x\n",
            sel,
            count,
            imp.seconds,
            trad.seconds,
            trad.seconds / imp.seconds.max(1e-12)
        ));
        csv.push_str(&format!("{sel:e},{count},{:e},{:e}\n", imp.seconds, trad.seconds));
    }
    report.push_str(
        "with heavy duplication the calibrated thresholds overshoot their targets (all \
         duplicates of the boundary value qualify), and duplicate keys cluster rids so the \
         improved scan's in-order fetch benefits even more than under uniform data\n",
    );
    let files = vec![h.write_artifact("ext_skew.csv", &csv)];
    FigureOutput::new("ext_skew", report, files)
}

/// The §4 regression benchmark, run against the measured maps: named
/// pass/fail checks (monotone curves, no unexplained cliffs, bounded worst
/// cases, contiguous optimality regions) that a CI job would gate on.
pub fn ext_regression(h: &Harness) -> FigureOutput {
    use robustmap_core::{CheckConfig, RegressionSuite};

    let mut suite = RegressionSuite::new();
    // Baseline limits recorded for the current implementation at the
    // default scale: the flagship robust plans stay within 250x of their
    // own system's best plan anywhere (B1 ~20x, C1 ~143x at 2^20 rows;
    // the fragile fetches run into the thousands).  Tightening this limit
    // over time is §4's "track progress against these weaknesses".
    let cfg = CheckConfig { max_worst_quotient: 250.0, ..Default::default() };
    // Figure 1's sweep (shared with `fig1` via the harness cache): all
    // curves must be monotone and cliff-free.
    let map1 = h.map1d_basic();
    suite.check_map1d(&map1, &cfg);
    // 2-D checks per system, mirroring Figures 8/9: each robust plan is
    // judged against its *own* system's best (a System B plan cannot
    // regress because System C exists).
    let all = h.map_all_systems();
    suite.check_map2d(&all.subset_by_prefix("A"), &[], &cfg);
    suite.check_map2d(&all.subset_by_prefix("B"), &["B1", "B2"], &cfg);
    suite.check_map2d(&all.subset_by_prefix("C"), &["C1", "C2"], &cfg);

    let mut report = String::from("Extension K: §4 robustness regression benchmark\n");
    report.push_str(&suite.report());
    report.push_str(if suite.passed() {
        "verdict: PASS — protected against accidental regression\n"
    } else {
        "verdict: FAIL — a robustness property regressed\n"
    });
    let files = vec![h.write_artifact("ext_regression.txt", &report)];
    FigureOutput::new("ext_regression", report, files)
}

/// Plan choice under cardinality estimation error — the paper's framing
/// made quantitative.  A textbook optimizer picks the estimated-cheapest
/// plan per cell; its *actual* cost relative to the best plan at that cell
/// is the regret a robust executor would have avoided ("an erroneous
/// choice during compile-time query optimization can be avoided by
/// eliminating the need to choose", §1).
///
/// Three panels, all over the *full 15-plan catalog* through the
/// [`robustmap_systems::Chooser`] API:
///
/// 1. injected multiplicative estimation error on the uniform workload
///    (the original sweep, now driven by [`choice::WithError`]
///    estimators);
/// 2. the independence ([`choice::Exact`]) vs joint
///    ([`choice::Joint`]) estimator comparison on the same
///    (uncorrelated) map — joint statistics must not *hurt* where
///    independence actually holds;
/// 3. the rho = 1 correlated workload, where the independence
///    estimator's conjunction is wrong by `1/s`: wrong-choice and regret
///    panels per estimator, with named regression checks gating that the
///    joint estimates shrink the 15-plan wrong-choice region.
///
/// [`choice::WithError`]: robustmap_systems::choice::WithError
/// [`choice::Exact`]: robustmap_systems::choice::Exact
/// [`choice::Joint`]: robustmap_systems::choice::Joint
pub fn ext_optimizer(h: &Harness) -> FigureOutput {
    use robustmap_core::{build_map2d, Grid2D, RegressionSuite};
    use robustmap_systems::choice::{Exact, Joint, WithError};
    use robustmap_systems::{
        two_predicate_plans, CatalogStats, ChoicePolicy, Chooser, RobustConfig,
    };
    use robustmap_workload::gen::PredicateDistribution;
    use robustmap_workload::{JointHistogram, JointHistogramConfig, TableBuilder, WorkloadConfig};

    let w = &h.w;
    let all = h.map_all_systems();
    let rel = RelativeMap2D::from_map(&all);
    let plans: Vec<robustmap_systems::TwoPredPlan> = SystemId::all()
        .into_iter()
        .flat_map(|s| two_predicate_plans(s, w))
        .collect();
    debug_assert_eq!(plans.len(), all.plan_count());
    let stats = CatalogStats::of(w);
    let model = &h.config.measure.model;
    let (na, nb) = rel.dims();
    let chooser = Chooser { plans: &plans, stats: &stats, model, policy: ChoicePolicy::Point };
    let mut suite = RegressionSuite::new();

    // --- Panel 1: injected estimation error, the original sweep.
    let mut report = String::from(
        "Extension J: optimizer plan choice under cardinality estimation error\n",
    );
    report.push_str(&format!(
        "{:>18} {:>12} {:>12} {:>14} {:>16}\n",
        "estimate error", "mean regret", "max regret", ">2x regret", "choices changed"
    ));
    let mut csv = String::from("error,mean_regret,max_regret,frac_over_2x,changed\n");
    let mut baseline_choice: Vec<usize> = Vec::new();
    for (label, err) in [
        ("exact", 1.0),
        ("16x under", 1.0 / 16.0),
        ("256x under", 1.0 / 256.0),
        ("16x over", 16.0),
    ] {
        let est = WithError::of(w, err, err);
        let mut sum = 0.0f64;
        let mut max = 1.0f64;
        let mut over2 = 0usize;
        let mut changed = 0usize;
        let mut choices = Vec::with_capacity(na * nb);
        for ia in 0..na {
            for ib in 0..nb {
                let (sa, sb) = (rel.sel_a[ia], rel.sel_b[ib]);
                let (ta, tb) = (w.cal_a.threshold(sa), w.cal_b.threshold(sb));
                let chosen = chooser.choose(&est, ta, tb).plan;
                choices.push(chosen);
                let regret = rel.quotient(chosen, ia, ib);
                sum += regret;
                max = max.max(regret);
                if regret > 2.0 {
                    over2 += 1;
                }
                if let Some(&base) = baseline_choice.get(ia * nb + ib) {
                    if base != chosen {
                        changed += 1;
                    }
                }
            }
        }
        if baseline_choice.is_empty() {
            baseline_choice = choices;
        }
        let cells = (na * nb) as f64;
        report.push_str(&format!(
            "{:>18} {:>11.2}x {:>11.0}x {:>13.1}% {:>15.1}%\n",
            label,
            sum / cells,
            max,
            over2 as f64 / cells * 100.0,
            changed as f64 / cells * 100.0,
        ));
        csv.push_str(&format!(
            "{label},{:e},{:e},{:e},{:e}\n",
            sum / cells,
            max,
            over2 as f64 / cells,
            changed as f64 / cells
        ));
    }
    report.push_str(
        "reading: moderate estimation errors change half the choices and raise worst-case \
         regret; interestingly, *massive* under-estimates can lower mean regret — they push \
         the chooser onto the robust covering/bitmap plans everywhere, which is exactly the \
         paper's point that \"robustness might well trump performance\" (§3.3): a robust \
         plan chosen blindly beats cost-based choice fed bad cardinalities\n",
    );

    // --- Panel 2: independence vs joint estimators where independence
    // actually holds (the uniform workload behind the main map).  The
    // joint statistics' conjunction is sampled, not assumed; the check
    // pins that sampling noise does not degrade the 15-plan choice.
    let jcfg = JointHistogramConfig::default();
    let joint_u = JointHistogram::build_cached(w, &jcfg);
    let exact_u = Exact::of(w);
    let joint_est_u = Joint::new(&joint_u);
    let mut indep_sum_u = 0.0f64;
    let mut joint_sum_u = 0.0f64;
    let mut indep_wrong_u = 0usize;
    let mut joint_wrong_u = 0usize;
    for ia in 0..na {
        for ib in 0..nb {
            let (sa, sb) = (rel.sel_a[ia], rel.sel_b[ib]);
            let (ta, tb) = (w.cal_a.threshold(sa), w.cal_b.threshold(sb));
            let iq = rel.quotient(chooser.choose(&exact_u, ta, tb).plan, ia, ib);
            let jq = rel.quotient(chooser.choose(&joint_est_u, ta, tb).plan, ia, ib);
            indep_sum_u += iq;
            joint_sum_u += jq;
            if iq > 1.001 {
                indep_wrong_u += 1;
            }
            if jq > 1.001 {
                joint_wrong_u += 1;
            }
        }
    }
    let cells_u = (na * nb) as f64;
    report.push_str(&format!(
        "\nuncorrelated map, independence vs joint estimator (15 plans): wrong at \
         {indep_wrong_u} vs {joint_wrong_u} of {} cells, mean regret {:.3}x vs {:.3}x\n\
         (among 15 plans many cells are near-ties a sampled conjunction flips either way; \
         the regret, not the flip count, is what must not degrade)\n",
        na * nb,
        indep_sum_u / cells_u,
        joint_sum_u / cells_u,
    ));
    suite.check_named(
        "uncorrelated map: joint statistics do not hurt the 15-plan choice (mean regret \
         within 2%)",
        joint_sum_u <= indep_sum_u * 1.02,
        format!("{:.3}x vs {:.3}x", joint_sum_u / cells_u, indep_sum_u / cells_u),
    );

    // --- Panel 3: the rho = 1 correlated workload, where the
    // independence conjunction is wrong by 1/s.  The full 15-plan catalog
    // is swept through the standard map builder; each estimator's chosen
    // plan is scored against the measured per-cell best.
    let rows_c = h.w.rows().min(1 << 17); // the ext_correlated workload family, reused
    let wc = TableBuilder::build_cached(WorkloadConfig {
        rows: rows_c,
        seed: h.w.config.seed,
        predicate_dist: PredicateDistribution::CorrelatedHundredths(100),
        mutation_epoch: 0,
    });
    let plans_c: Vec<robustmap_systems::TwoPredPlan> = SystemId::all()
        .into_iter()
        .flat_map(|s| two_predicate_plans(s, &wc))
        .collect();
    let stats_c = CatalogStats::of(&wc);
    let joint_c = JointHistogram::build_cached(&wc, &jcfg);
    let exact_c = Exact::of(&wc);
    let joint_est_c = Joint::new(&joint_c);
    let point_c =
        Chooser { plans: &plans_c, stats: &stats_c, model, policy: ChoicePolicy::Point };
    let robust_c = Chooser {
        plans: &plans_c,
        stats: &stats_c,
        model,
        policy: ChoicePolicy::Robust(RobustConfig::default()),
    };
    let grid = Grid2D::pow2(h.config.grid_exp.min(6));
    let m2 = build_map2d(&wc, &plans_c, &grid, &h.config.measure);
    let (nca, ncb) = m2.dims();
    let mut indep_tally = ChooserTally::default();
    let mut robust_tally = ChooserTally::default();
    let mut indep_regret = vec![1.0f64; nca * ncb];
    let mut joint_regret = vec![1.0f64; nca * ncb];
    let mut rho1_csv = String::from(
        "sel_a,sel_b,indep_choice,joint_choice,robust_choice,oracle,indep_regret,\
         joint_regret,robust_regret,indep_margin,joint_margin\n",
    );
    for ia in 0..nca {
        for ib in 0..ncb {
            let (sa, sb) = (m2.sel_a[ia], m2.sel_b[ib]);
            let (ta, tb) = (wc.cal_a.threshold(sa), wc.cal_b.threshold(sb));
            let secs: Vec<f64> =
                (0..plans_c.len()).map(|pi| m2.get(pi, ia, ib).seconds).collect();
            let indep = point_c.choose(&exact_c, ta, tb);
            let joint_choice = point_c.choose(&joint_est_c, ta, tb);
            let robust = robust_c.choose(&joint_est_c, ta, tb);
            // `indep_tally` compares the two *point* choosers (the
            // estimator axis); `robust_tally` adds the policy axis.
            let (iq, jq) = indep_tally.add(&secs, indep.plan, joint_choice.plan);
            let (_, rq) = robust_tally.add(&secs, indep.plan, robust.plan);
            let c = ia * ncb + ib;
            indep_regret[c] = iq;
            joint_regret[c] = jq;
            rho1_csv.push_str(&format!(
                "{sa:e},{sb:e},{},{},{},{},{iq:e},{jq:e},{rq:e},{:e},{:e}\n",
                robustmap_core::render::sanitize(&indep.name),
                robustmap_core::render::sanitize(&joint_choice.name),
                robustmap_core::render::sanitize(&robust.name),
                robustmap_core::render::sanitize(&plans_c[oracle_of(&secs)].name),
                indep.margin,
                joint_choice.margin,
            ));
        }
    }
    let (iw, jw) = indep_tally.wrong_fracs();
    let (_, rw) = robust_tally.wrong_fracs();
    let cells_c = indep_tally.cells as f64;
    report.push_str(&format!(
        "\nrho = 1 (sel_a x sel_b) map, full 15-plan catalog, {nca}x{ncb} grid at {rows_c} \
         rows:\n\
         independence estimator: wrong at {:.1}% of cells, worst regret {:.2}x, mean {:.2}x\n\
         joint estimator:        wrong at {:.1}% of cells, worst regret {:.2}x, mean {:.2}x\n\
         joint + robust policy:  wrong at {:.1}% of cells, worst regret {:.2}x, mean {:.2}x\n",
        iw * 100.0,
        indep_tally.point_worst,
        indep_tally.point_sum / cells_c,
        jw * 100.0,
        indep_tally.robust_worst,
        indep_tally.robust_sum / cells_c,
        rw * 100.0,
        robust_tally.robust_worst,
        robust_tally.robust_sum / cells_c,
    ));
    // The acceptance comparisons: strictly better where the independence
    // estimator actually errs (at smoke scales it can be error-free,
    // which trivially satisfies the intent).
    suite.check_named(
        "rho = 1 map (15 plans): joint wrong-choice fraction strictly below independence's",
        indep_tally.robust_wrong < indep_tally.point_wrong || indep_tally.point_wrong == 0,
        format!("{:.1}% vs {:.1}%", jw * 100.0, iw * 100.0),
    );
    suite.check_named(
        "rho = 1 map (15 plans): joint mean regret <= independence's",
        indep_tally.robust_sum <= indep_tally.point_sum + 1e-9,
        format!(
            "{:.3}x vs {:.3}x",
            indep_tally.robust_sum / cells_c,
            indep_tally.point_sum / cells_c
        ),
    );
    suite.check_named(
        "rho = 1 map (15 plans): joint worst regret <= independence's",
        indep_tally.robust_worst <= indep_tally.point_worst + 1e-9,
        format!("{:.2}x vs {:.2}x", indep_tally.robust_worst, indep_tally.point_worst),
    );
    suite.check_named(
        "rho = 1 map (15 plans): robust policy over the joint region worst regret <= \
         independence's",
        robust_tally.robust_worst <= robust_tally.point_worst + 1e-9,
        format!("{:.2}x vs {:.2}x", robust_tally.robust_worst, robust_tally.point_worst),
    );

    report.push_str("\nregression checks over the estimator comparison:\n");
    let checks = format!(
        "{}verdict: {}\n",
        suite.report(),
        if suite.passed() { "PASS" } else { "FAIL" }
    );
    report.push_str(&checks);

    let files = vec![
        h.write_artifact("ext_optimizer.csv", &csv),
        h.write_artifact("ext_optimizer_rho1.csv", &rho1_csv),
        h.write_artifact("ext_optimizer_checks.txt", &checks),
        h.write_artifact(
            "ext_optimizer_indep_regret.svg",
            &heatmap_svg(
                &indep_regret,
                &m2.sel_a,
                &m2.sel_b,
                &relative_scale(),
                "Independence-estimator chooser regret at rho = 1 (15 plans)",
            ),
        ),
        h.write_artifact(
            "ext_optimizer_joint_regret.svg",
            &heatmap_svg(
                &joint_regret,
                &m2.sel_a,
                &m2.sel_b,
                &relative_scale(),
                "Joint-estimator chooser regret at rho = 1 (15 plans)",
            ),
        ),
    ];
    FigureOutput::new("ext_optimizer", report, files)
}

/// The four plans the correlated-predicate experiment compares, in map
/// order: the robust table-scan baseline, the index-nested-loop fetch
/// (index on `a` driving row fetches, residual on `b`), the hash
/// intersect of both single-column indexes, and the covering MDAM plan.
const CORRELATED_PLANS: [&str; 4] =
    ["A1 table scan", "A2 idx(a) fetch", "A6 hash(a,b) intersect", "C1 mdam(a,b) covering"];

/// Pull [`CORRELATED_PLANS`] out of the systems' plan catalogs for `w`,
/// in that order.
fn correlated_plan_set(w: &robustmap_workload::Workload) -> Vec<robustmap_systems::TwoPredPlan> {
    use robustmap_systems::two_predicate_plans;
    let mut catalog: Vec<robustmap_systems::TwoPredPlan> =
        two_predicate_plans(SystemId::A, w)
            .into_iter()
            .chain(two_predicate_plans(SystemId::C, w))
            .collect();
    CORRELATED_PLANS
        .iter()
        .map(|name| {
            let at = catalog.iter().position(|p| p.name == *name).expect("catalog plan");
            catalog.swap_remove(at)
        })
        .collect()
}

/// Correlated predicate columns — the independence-assumption failure
/// that robust-plan selection work (PARQO's penalty-aware plans, Kamali
/// et al.'s probabilistic plan evaluation) treats as the dominant source
/// of selectivity estimation error, opened as a robustness-map scenario.
///
/// `dist::Correlated` makes column `b` copy column `a` with probability
/// rho.  On the diagonal `sel_a = sel_b = s` the true selectivity of
/// `a <= ta AND b <= tb` is `rho*s + (1-rho)*s^2`, while a textbook
/// optimizer's independence assumption estimates `s^2` — an underestimate
/// approaching `rho/s`.  The sweep measures an index-nested-loop fetch vs
/// a hash intersect (plus the robust covering-MDAM and table-scan
/// baselines) over rho × selectivity through the warm `measure_batch`
/// engine, lets the optimizer choose under independence at every cell,
/// and maps its regret; `build_map2d` then draws the full
/// `(sel_a, sel_b)` robustness map at rho = 0 vs rho = 0.75.
pub fn ext_correlated(h: &Harness) -> FigureOutput {
    use robustmap_core::report::landmark_report;
    use robustmap_core::{
        build_map2d, CheckConfig, Grid2D, Map1D, Map2D, Measurement, RegressionSuite, Series,
    };
    use robustmap_systems::{CatalogStats, ChoicePolicy, Chooser, SelEstimates};
    use robustmap_workload::gen::PredicateDistribution;
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    let rows = h.w.rows().min(1 << 17); // a family of extra tables: keep them moderate
    let seed = h.w.config.seed;
    let wl = |rho_pct: u32| WorkloadConfig {
        rows,
        seed,
        predicate_dist: PredicateDistribution::CorrelatedHundredths(rho_pct),
        mutation_epoch: 0,
    };
    let rho_pct: [u32; 5] = [0, 25, 50, 75, 100];
    let nr = rho_pct.len();
    let max_exp = h.config.grid_exp.min(10) as i32;
    let sels: Vec<f64> = (0..=max_exp).rev().map(|e| 0.5f64.powi(e)).collect();
    let ns = sels.len();

    let mut report = String::from(
        "Extension L: correlated predicate columns — the independence assumption as a \
         run-time condition\n",
    );
    report.push_str(&format!(
        "{rows} rows; rho = P(b copies a); diagonal sweep sel_a = sel_b = s; the optimizer \
         estimates the conjunction as s^2 (independence)\n",
    ));

    // --- rho × selectivity sweep, one batched warm sweep per workload.
    let mut data: Vec<Vec<Measurement>> =
        vec![vec![Measurement::default(); nr * ns]; CORRELATED_PLANS.len()];
    let mut chosen = vec![0usize; nr * ns];
    // The (sel_a × sel_b) maps below reuse two of the sweep's workloads.
    let map2d_rhos: [u32; 2] = [0, 75];
    let mut kept: Vec<(u32, robustmap_workload::Workload)> = Vec::new();
    for (ri, &pct) in rho_pct.iter().enumerate() {
        let w = TableBuilder::build_cached(wl(pct));
        let plans = correlated_plan_set(&w);
        let stats = CatalogStats::of(&w);
        let thr: Vec<(i64, i64)> =
            sels.iter().map(|&s| (w.cal_a.threshold(s), w.cal_b.threshold(s))).collect();
        let specs: Vec<PlanSpec> =
            plans.iter().flat_map(|p| thr.iter().map(|&(ta, tb)| p.build(ta, tb))).collect();
        let results = measure_batch(&w.db, &specs, &h.config.measure);
        for pi in 0..plans.len() {
            for si in 0..ns {
                data[pi][ri * ns + si] = results[pi * ns + si];
            }
        }
        // The optimizer chooses *between the two join strategies* (the
        // INL fetch and the hash intersect) under independence.  Its
        // estimates have no rho input at all, so the compile-time
        // choice is frozen across the whole correlation sweep — the
        // run-time condition moves the truth out from under it.
        let join_chooser = Chooser {
            plans: &plans[1..3],
            stats: &stats,
            model: &h.config.measure.model,
            policy: ChoicePolicy::Point,
        };
        for (si, &s) in sels.iter().enumerate() {
            let (ta, tb) = thr[si];
            chosen[ri * ns + si] =
                1 + join_chooser.choose_at(&SelEstimates::exact(s, s), ta, tb).plan;
        }
        if map2d_rhos.contains(&pct) {
            kept.push((pct, w));
        }
    }
    let rho_axis: Vec<f64> = rho_pct.iter().map(|&p| p as f64 / 100.0).collect();
    let map = Map2D::new(
        rho_axis.clone(),
        sels.clone(),
        CORRELATED_PLANS.iter().map(|s| s.to_string()).collect(),
        data,
    );

    // Regret of the frozen independence choice: chosen join strategy vs
    // the actually-better of the two at each cell.
    let mut regret_grid = vec![1.0f64; nr * ns];
    let mut csv = String::from(
        "rho,selectivity,result_rows,independence_estimate_rows,table_scan,inl_fetch,\
         hash_intersect,mdam_covering,chosen_join,join_regret\n",
    );
    report.push_str(&format!(
        "{:>6} {:>13} {:>13} {:>12} {:>16}\n",
        "rho", "mean regret", "worst regret", "wrong join", "mdam beats pick"
    ));
    let mut mdam_edge_worst = 1.0f64;
    for (ri, &rho) in rho_axis.iter().enumerate() {
        let (mut sum, mut worst, mut wrong, mut mdam_beats) = (0.0f64, 1.0f64, 0usize, 0usize);
        for (si, &sel) in sels.iter().enumerate() {
            let c = ri * ns + si;
            let (inl, hash) = (map.get(1, ri, si).seconds, map.get(2, ri, si).seconds);
            let best_join = inl.min(hash).max(1e-12);
            let picked = map.get(chosen[c], ri, si).seconds;
            let q = picked / best_join;
            regret_grid[c] = q;
            sum += q;
            worst = worst.max(q);
            if q > 1.001 {
                wrong += 1;
            }
            let mdam = map.get(3, ri, si).seconds;
            if mdam < picked {
                mdam_beats += 1;
                mdam_edge_worst = mdam_edge_worst.max(picked / mdam.max(1e-12));
            }
            let actual = map.get(0, ri, si).rows;
            let est = sel * sel * rows as f64;
            csv.push_str(&format!(
                "{rho},{sel:e},{actual},{est:e},{:e},{:e},{:e},{:e},{},{q:e}\n",
                map.get(0, ri, si).seconds,
                inl,
                hash,
                mdam,
                robustmap_core::render::sanitize(CORRELATED_PLANS[chosen[c]]),
            ));
        }
        report.push_str(&format!(
            "{:>6.2} {:>12.2}x {:>12.2}x {:>11.1}% {:>15.1}%\n",
            rho,
            sum / ns as f64,
            worst,
            wrong as f64 / ns as f64 * 100.0,
            mdam_beats as f64 / ns as f64 * 100.0,
        ));
    }
    // The cardinality landmark behind the regret: on the diagonal the
    // independence estimate is off by ~rho/s.
    let finest = map.get(0, nr - 1, 0).rows.max(1);
    let est0 = (sels[0] * sels[0] * rows as f64).max(1.0);
    report.push_str(&format!(
        "at rho = 1.0, sel {:.1e}: {finest} actual result rows vs {est0:.1} estimated under \
         independence — a {:.0}x underestimate feeding every cost formula\n",
        sels[0],
        finest as f64 / est0,
    ));
    if mdam_edge_worst > 1.0 {
        report.push_str(&format!(
            "the covering MDAM plan needs no join choice at all and beats the chosen join by \
             up to {mdam_edge_worst:.1}x — \"an erroneous choice during compile-time query \
             optimization can be avoided by eliminating the need to choose\" (§1)\n",
        ));
    } else {
        report.push_str(
            "at this scale the chosen join never loses to the covering MDAM plan — the \
             choice-free plan costs nothing here, which is still §1's point\n",
        );
    }

    // Crossover landmarks along the fully correlated diagonal (the 1-D
    // robustness map the regression suite also checks).
    let map1 = Map1D {
        sels: sels.clone(),
        result_rows: (0..ns).map(|si| map.get(0, nr - 1, si).rows.max(1)).collect(),
        series: (0..CORRELATED_PLANS.len())
            .map(|pi| Series {
                plan: CORRELATED_PLANS[pi].to_string(),
                points: (0..ns).map(|si| *map.get(pi, nr - 1, si)).collect(),
            })
            .collect(),
    };
    report.push_str("\nplan crossovers along the rho = 1.0 diagonal:\n");
    report.push_str(&landmark_report(&map1));

    // --- The full (sel_a × sel_b) robustness map through the standard map
    // builder, independent (rho = 0) vs strongly correlated (rho = 0.75).
    let grid = Grid2D::pow2(h.config.grid_exp.min(6));
    let mut files = Vec::new();
    report.push_str(&format!(
        "\n(sel_a x sel_b) robustness maps via build_map2d, {}x{} grid:\n",
        grid.dims().0,
        grid.dims().1
    ));
    let mut suite = RegressionSuite::new();
    // The covering MDAM plan is this scenario's robust baseline; at this
    // scale it stays within ~500x of the per-cell best even when
    // correlation moves every landmark.
    let cfg = CheckConfig { max_worst_quotient: 500.0, ..Default::default() };
    suite.check_map1d(&map1, &cfg);
    for (pct, w) in kept {
        let plans = correlated_plan_set(&w);
        let m2 = build_map2d(&w, &plans, &grid, &h.config.measure);
        let r2 = RelativeMap2D::from_map(&m2);
        let (na, nb) = r2.dims();
        let mut wins = [0usize; CORRELATED_PLANS.len()];
        for ia in 0..na {
            for ib in 0..nb {
                wins[r2.best_plan_at(ia, ib)] += 1;
            }
        }
        report.push_str(&format!("  rho {:.2} best-plan share:", pct as f64 / 100.0));
        for (pi, name) in CORRELATED_PLANS.iter().enumerate() {
            report.push_str(&format!(
                "  {name} {:.0}%",
                wins[pi] as f64 / (na * nb) as f64 * 100.0
            ));
        }
        report.push('\n');
        if pct != 0 {
            suite.check_map2d(&m2, &["C1"], &cfg);
            files.push(h.write_artifact(
                &format!("ext_correlated_hash_quotient_rho{pct}.svg"),
                &heatmap_svg(
                    r2.quotient_grid(2),
                    &r2.sel_a,
                    &r2.sel_b,
                    &relative_scale(),
                    &format!("hash intersect vs best plan at rho = {:.2}", pct as f64 / 100.0),
                ),
            ));
        }
    }
    report.push_str("\nregression checks over the correlated scenario:\n");
    report.push_str(&suite.report());

    files.push(h.write_artifact("ext_correlated.csv", &csv));
    files.push(h.write_artifact(
        "ext_correlated_regret.svg",
        &heatmap_svg(
            &regret_grid,
            &rho_axis,
            &sels,
            &relative_scale(),
            "Independence-assuming optimizer regret over rho (x) and selectivity (y)",
        ),
    ));
    FigureOutput::new("ext_correlated", report, files)
}

/// Per-chooser tallies over one set of cells: wrong-choice counts and
/// regret (chosen plan's measured cost over the per-cell best of the
/// whole catalog), for the point-estimate chooser and the robust chooser
/// side by side.
#[derive(Default)]
struct ChooserTally {
    cells: usize,
    point_wrong: usize,
    robust_wrong: usize,
    point_worst: f64,
    robust_worst: f64,
    point_sum: f64,
    robust_sum: f64,
}

impl ChooserTally {
    /// Record one cell over the full catalog's measured seconds; returns
    /// `(point_regret, robust_regret)`.
    fn add(&mut self, secs: &[f64], point: usize, robust: usize) -> (f64, f64) {
        let best = secs.iter().copied().fold(f64::INFINITY, f64::min).max(1e-12);
        let pq = secs[point] / best;
        let rq = secs[robust] / best;
        self.cells += 1;
        if pq > 1.001 {
            self.point_wrong += 1;
        }
        if rq > 1.001 {
            self.robust_wrong += 1;
        }
        self.point_worst = self.point_worst.max(pq);
        self.robust_worst = self.robust_worst.max(rq);
        self.point_sum += pq;
        self.robust_sum += rq;
        (pq, rq)
    }

    fn wrong_fracs(&self) -> (f64, f64) {
        let n = self.cells.max(1) as f64;
        (self.point_wrong as f64 / n, self.robust_wrong as f64 / n)
    }
}

/// Index of the measured-cheapest plan at one cell (ties to the lower
/// index, like every chooser).
fn oracle_of(secs: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, &s) in secs.iter().enumerate() {
        if s < secs[best] {
            best = i;
        }
    }
    best
}

/// Robust plan selection under estimation uncertainty — the fix for the
/// failure `ext_correlated` mapped.  The joint statistics
/// ([`robustmap_workload::JointHistogram`]) retire the independence
/// assumption; the penalty-aware policy
/// ([`robustmap_systems::ChoicePolicy::Robust`]) replaces
/// argmin-at-the-point-estimate with expected cost plus a tail penalty
/// over the [`robustmap_systems::choice::Joint`] estimator's
/// variance-adaptive credible box (the PARQO-style selection criterion,
/// see `docs/DESIGN.md`).  Both choosers hedge over the *whole* plan
/// catalog — table scan, INL fetch, hash intersect and covering MDAM, not
/// a two-join slice — so eliminating the join choice entirely (the
/// paper's §1 suggestion) is itself a candidate decision.  Three choosers
/// meet on the same cells: the point-estimate optimizer, the robust
/// chooser, and the oracle (measured argmin); the figure maps
/// wrong-choice fractions and regret over the correlated rho sweep, the
/// rho = 1 `(sel_a x sel_b)` map, and a skewed workload, and gates the
/// comparison with named regression checks.
pub fn ext_robust_choice(h: &Harness) -> FigureOutput {
    use robustmap_core::report::{score_csv, score_report};
    use robustmap_core::{build_map2d, Grid2D, Map2D, Measurement, RegressionSuite};
    use robustmap_systems::choice::{Exact, Histogram, Joint};
    use robustmap_systems::{CatalogStats, ChoicePolicy, Chooser, RobustConfig};
    use robustmap_workload::gen::PredicateDistribution;
    use robustmap_workload::{
        EquiDepthHistogram, JointHistogram, JointHistogramConfig, TableBuilder, WorkloadConfig,
        COL_A, COL_B,
    };

    let rows = h.w.rows().min(1 << 17); // the ext_correlated workload family, reused
    let seed = h.w.config.seed;
    let rcfg = RobustConfig::default();
    let jcfg = JointHistogramConfig::default();
    let model = &h.config.measure.model;
    let mut suite = RegressionSuite::new();

    let mut report = String::from(
        "Extension M: robust plan choice under estimation uncertainty — joint statistics + \
         penalty-aware selection\n",
    );
    report.push_str(&format!(
        "{rows} rows; the choosers hedge over the whole catalog (table scan, INL fetch, hash \
         intersect, covering MDAM).  point = argmin of estimated cost under independence; \
         robust = argmin of expected + {:.1} x tail(q = {:.2}) over the joint histogram's \
         variance-adaptive credible box; oracle = measured argmin\n",
        rcfg.penalty_weight, rcfg.tail_quantile,
    ));

    // --- Part 1: the correlated rho sweep (diagonal sel_a = sel_b = s),
    // the exact cells where ext_correlated showed the frozen wrong choice.
    let rho_pct: [u32; 5] = [0, 25, 50, 75, 100];
    let max_exp = h.config.grid_exp.min(10) as i32;
    let sels: Vec<f64> = (0..=max_exp).rev().map(|e| 0.5f64.powi(e)).collect();
    let ns = sels.len();
    let mut csv = String::from(
        "workload,rho,sel_a,sel_b,table_scan,inl_fetch,hash_intersect,mdam_covering,\
         point_choice,robust_choice,oracle_choice,point_regret,robust_regret,point_margin,\
         robust_margin\n",
    );
    let plan_short = ["scan", "inl", "hash", "mdam"];
    report.push_str(&format!(
        "\ndiagonal sweep:\n{:>6} {:>12} {:>13} {:>12} {:>13}\n",
        "rho", "point wrong", "robust wrong", "point worst", "robust worst"
    ));
    let mut hedge_benign = true;
    let mut total_point_wrong = 0usize;
    let mut total_robust_wrong = 0usize;
    let mut slice_tally = ChooserTally::default();
    let mut rho1_diag = ChooserTally::default();
    for &pct in &rho_pct {
        let w = TableBuilder::build_cached(WorkloadConfig {
            rows,
            seed,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(pct),
            mutation_epoch: 0,
        });
        let plans = correlated_plan_set(&w);
        let stats = CatalogStats::of(&w);
        let joint = JointHistogram::build_cached(&w, &jcfg);
        let point_est = Exact::of(&w);
        let robust_est = Joint::new(&joint);
        let point_chooser =
            Chooser { plans: &plans, stats: &stats, model, policy: ChoicePolicy::Point };
        let robust_chooser =
            Chooser { plans: &plans, stats: &stats, model, policy: ChoicePolicy::Robust(rcfg) };
        // The ablation the catalog-wide hedge is judged against: the old
        // two-join slice (INL fetch vs hash intersect only), the frozen
        // chooser `ext_correlated` exposed.
        let slice_chooser =
            Chooser { plans: &plans[1..3], stats: &stats, model, policy: ChoicePolicy::Point };
        let thr: Vec<(i64, i64)> =
            sels.iter().map(|&s| (w.cal_a.threshold(s), w.cal_b.threshold(s))).collect();
        let specs: Vec<PlanSpec> = plans
            .iter()
            .flat_map(|p| thr.iter().map(|&(ta, tb)| p.build(ta, tb)))
            .collect();
        let results = measure_batch(&w.db, &specs, &h.config.measure);
        let mut tally = ChooserTally::default();
        for (si, &s) in sels.iter().enumerate() {
            let (ta, tb) = thr[si];
            let secs: Vec<f64> =
                (0..plans.len()).map(|pi| results[pi * ns + si].seconds).collect();
            let point = point_chooser.choose(&point_est, ta, tb);
            let robust = robust_chooser.choose(&robust_est, ta, tb);
            let slice = 1 + slice_chooser.choose(&point_est, ta, tb).plan;
            // Both tally slots record the slice chooser; only
            // `slice_tally.point_wrong` is read (one wrong-cell rule,
            // shared with every other tally).
            slice_tally.add(&secs, slice, slice);
            let (pq, rq) = tally.add(&secs, point.plan, robust.plan);
            csv.push_str(&format!(
                "correlated,{},{s:e},{s:e},{:e},{:e},{:e},{:e},{},{},{},{pq:e},{rq:e},{:e},{:e}\n",
                pct as f64 / 100.0,
                secs[0],
                secs[1],
                secs[2],
                secs[3],
                plan_short[point.plan],
                plan_short[robust.plan],
                plan_short[oracle_of(&secs)],
                point.margin,
                robust.margin,
            ));
        }
        let (pw, rw) = tally.wrong_fracs();
        report.push_str(&format!(
            "{:>6.2} {:>11.1}% {:>12.1}% {:>11.2}x {:>12.2}x\n",
            pct as f64 / 100.0,
            pw * 100.0,
            rw * 100.0,
            tally.point_worst,
            tally.robust_worst,
        ));
        // Hedging against the tail may pick a slightly-worse plan where
        // candidates are near-equal (the paper's robustness-over-peak
        // trade-off) — but any *extra* wrong choices must be benign.
        hedge_benign &=
            tally.robust_wrong <= tally.point_wrong || tally.robust_worst <= 1.15;
        total_point_wrong += tally.point_wrong;
        total_robust_wrong += tally.robust_wrong;
        if pct == 100 {
            rho1_diag = tally;
        }
    }
    suite.check_named(
        "diagonal sweep: robust hedging is never costly (extra wrong plans stay within 1.15x)",
        hedge_benign,
        String::new(),
    );
    suite.check_named(
        "diagonal sweep: robust chooser total wrong-plan cells below the point chooser's",
        total_robust_wrong < total_point_wrong || total_point_wrong == 0,
        format!("{total_robust_wrong} vs {total_point_wrong} of {}", rho_pct.len() * ns),
    );
    suite.check_named(
        "diagonal sweep: catalog-wide hedging strictly shrinks the two-join slice chooser's \
         wrong cells",
        total_point_wrong < slice_tally.point_wrong || slice_tally.point_wrong == 0,
        format!(
            "{total_point_wrong} (full catalog) vs {} (two-join slice) of {}",
            slice_tally.point_wrong,
            rho_pct.len() * ns
        ),
    );
    suite.check_named(
        "rho = 1 diagonal: robust worst regret <= point worst regret",
        rho1_diag.robust_worst <= rho1_diag.point_worst + 1e-9,
        format!("{:.2}x vs {:.2}x", rho1_diag.robust_worst, rho1_diag.point_worst),
    );

    // --- Part 2: the full (sel_a x sel_b) map at rho = 1, where the
    // independence-assuming chooser was wrong at ~55% of cells.  The
    // whole four-plan catalog is swept through the standard map builder;
    // the chooser cost grids (each cell = the chosen plan's measured
    // seconds) are then changepoint-scored like any plan and ranked on
    // the leaderboard.
    let w1 = TableBuilder::build_cached(WorkloadConfig {
        rows,
        seed,
        predicate_dist: PredicateDistribution::CorrelatedHundredths(100),
        mutation_epoch: 0,
    });
    let plans1 = correlated_plan_set(&w1);
    let stats1 = CatalogStats::of(&w1);
    let joint1 = JointHistogram::build_cached(&w1, &jcfg);
    let point_est1 = Exact::of(&w1);
    let robust_est1 = Joint::new(&joint1);
    let point_chooser1 =
        Chooser { plans: &plans1, stats: &stats1, model, policy: ChoicePolicy::Point };
    let robust_chooser1 =
        Chooser { plans: &plans1, stats: &stats1, model, policy: ChoicePolicy::Robust(rcfg) };
    let grid = Grid2D::pow2(h.config.grid_exp.min(6));
    let m2 = build_map2d(&w1, &plans1, &grid, &h.config.measure);
    let (na, nb) = m2.dims();
    let mut map_tally = ChooserTally::default();
    let mut point_regret = vec![1.0f64; na * nb];
    let mut robust_regret = vec![1.0f64; na * nb];
    let mut chooser_secs: Vec<Vec<Measurement>> =
        (0..3).map(|_| Vec::with_capacity(na * nb)).collect();
    for ia in 0..na {
        for ib in 0..nb {
            let (sa, sb) = (m2.sel_a[ia], m2.sel_b[ib]);
            let (ta, tb) = (w1.cal_a.threshold(sa), w1.cal_b.threshold(sb));
            let secs: Vec<f64> =
                (0..plans1.len()).map(|pi| m2.get(pi, ia, ib).seconds).collect();
            let point = point_chooser1.choose(&point_est1, ta, tb);
            let robust = robust_chooser1.choose(&robust_est1, ta, tb);
            let (pq, rq) = map_tally.add(&secs, point.plan, robust.plan);
            let c = ia * nb + ib;
            point_regret[c] = pq;
            robust_regret[c] = rq;
            let oracle = oracle_of(&secs);
            for (gi, s) in
                [secs[point.plan], secs[robust.plan], secs[oracle]].into_iter().enumerate()
            {
                chooser_secs[gi].push(Measurement { seconds: s, ..Default::default() });
            }
            csv.push_str(&format!(
                "correlated_map,1,{sa:e},{sb:e},{:e},{:e},{:e},{:e},{},{},{},{pq:e},{rq:e},\
                 {:e},{:e}\n",
                secs[0],
                secs[1],
                secs[2],
                secs[3],
                plan_short[point.plan],
                plan_short[robust.plan],
                plan_short[oracle],
                point.margin,
                robust.margin,
            ));
        }
    }
    let (pw, rw) = map_tally.wrong_fracs();
    report.push_str(&format!(
        "\n(sel_a x sel_b) map at rho = 1, {na}x{nb} grid:\n\
         point chooser:  wrong at {:.1}% of cells, worst regret {:.2}x, mean {:.2}x\n\
         robust chooser: wrong at {:.1}% of cells, worst regret {:.2}x, mean {:.2}x\n",
        pw * 100.0,
        map_tally.point_worst,
        map_tally.point_sum / map_tally.cells as f64,
        rw * 100.0,
        map_tally.robust_worst,
        map_tally.robust_sum / map_tally.cells as f64,
    ));
    // With the whole catalog to hedge over, the point chooser's residual
    // map errors are cost-*model* errors (both estimators rank the same
    // wrong plan first), so the robust chooser is held to "never worse";
    // the strict estimator separation lives in `ext_optimizer`'s 15-plan
    // comparison, and the strict catalog-vs-slice separation in the
    // diagonal check above.
    suite.check_named(
        "rho = 1 map: robust wrong-choice fraction no higher than the point chooser's",
        map_tally.robust_wrong <= map_tally.point_wrong,
        format!("{:.1}% vs {:.1}%", rw * 100.0, pw * 100.0),
    );
    suite.check_named(
        "rho = 1 map: robust worst-cell regret no higher than the point chooser's",
        map_tally.robust_worst <= map_tally.point_worst + 1e-9,
        format!("{:.2}x vs {:.2}x", map_tally.robust_worst, map_tally.point_worst),
    );
    let chooser_map = Map2D::new(
        m2.sel_a.clone(),
        m2.sel_b.clone(),
        vec![
            "point-estimate chooser".to_string(),
            "robust chooser".to_string(),
            "oracle best plan".to_string(),
        ],
        chooser_secs,
    );
    let rel = RelativeMap2D::from_map(&chooser_map);
    let scores: Vec<_> =
        (0..3).map(|p| score_map2d(&rel, p, &chooser_map.seconds_grid(p))).collect();
    report.push_str("\nchooser leaderboard at rho = 1 (changepoint-scored like any plan):\n");
    report.push_str(&score_report(&scores));
    let robust_headline = scores.iter().find(|s| s.plan == "robust chooser").expect("scored");
    let point_headline =
        scores.iter().find(|s| s.plan == "point-estimate chooser").expect("scored");
    suite.check_named(
        "rho = 1 map: robust chooser's robustness score >= the point chooser's",
        robust_headline.headline() >= point_headline.headline(),
        format!("{:.3} vs {:.3}", robust_headline.headline(), point_headline.headline()),
    );

    // --- Part 3: the skewed workload — here the error source is not
    // correlation but coarse marginal statistics; the sample-backed joint
    // histogram sharpens both.
    let wz = TableBuilder::build_cached(WorkloadConfig {
        rows,
        seed,
        predicate_dist: PredicateDistribution::ZipfHundredths(110),
        mutation_epoch: 0,
    });
    let plansz = correlated_plan_set(&wz);
    let statsz = CatalogStats::of(&wz);
    let jointz = JointHistogram::build_cached(&wz, &jcfg);
    // The coarse catalog the point chooser gets: 8-bucket per-column
    // histograms (the skew-error regime the histogram tests pin).
    let s = robustmap_storage::Session::with_pool_pages(0);
    let mut vals_a = Vec::new();
    let mut vals_b = Vec::new();
    wz.db.table(wz.table).heap.scan(&s, |_, row| {
        vals_a.push(row.get(COL_A));
        vals_b.push(row.get(COL_B));
    });
    let coarse_a = EquiDepthHistogram::build(vals_a, 8);
    let coarse_b = EquiDepthHistogram::build(vals_b, 8);
    let coarse_est = Histogram::new(&coarse_a, &coarse_b);
    let robust_estz = Joint::new(&jointz);
    let point_chooserz =
        Chooser { plans: &plansz, stats: &statsz, model, policy: ChoicePolicy::Point };
    let robust_chooserz =
        Chooser { plans: &plansz, stats: &statsz, model, policy: ChoicePolicy::Robust(rcfg) };
    let thr: Vec<(i64, i64)> =
        sels.iter().map(|&s| (wz.cal_a.threshold(s), wz.cal_b.threshold(s))).collect();
    let specs: Vec<PlanSpec> = plansz
        .iter()
        .flat_map(|p| thr.iter().map(|&(ta, tb)| p.build(ta, tb)))
        .collect();
    let results = measure_batch(&wz.db, &specs, &h.config.measure);
    let mut skew_tally = ChooserTally::default();
    for (si, &s) in sels.iter().enumerate() {
        let (ta, tb) = thr[si];
        let secs: Vec<f64> = (0..plansz.len()).map(|pi| results[pi * ns + si].seconds).collect();
        let point = point_chooserz.choose(&coarse_est, ta, tb);
        let robust = robust_chooserz.choose(&robust_estz, ta, tb);
        let (pq, rq) = skew_tally.add(&secs, point.plan, robust.plan);
        csv.push_str(&format!(
            "zipf,0,{s:e},{s:e},{:e},{:e},{:e},{:e},{},{},{},{pq:e},{rq:e},{:e},{:e}\n",
            secs[0],
            secs[1],
            secs[2],
            secs[3],
            plan_short[point.plan],
            plan_short[robust.plan],
            plan_short[oracle_of(&secs)],
            point.margin,
            robust.margin,
        ));
    }
    let (pw, rw) = skew_tally.wrong_fracs();
    report.push_str(&format!(
        "\nskewed workload (Zipf theta = 1.1, coarse 8-bucket catalog vs joint statistics):\n\
         point chooser wrong at {:.1}% (worst {:.2}x); robust wrong at {:.1}% (worst {:.2}x)\n",
        pw * 100.0,
        skew_tally.point_worst,
        rw * 100.0,
        skew_tally.robust_worst,
    ));
    suite.check_named(
        "skewed workload: robust chooser no worse than the coarse-histogram point chooser",
        skew_tally.robust_wrong <= skew_tally.point_wrong
            && skew_tally.robust_worst <= skew_tally.point_worst + 1e-9,
        format!(
            "wrong {:.1}% vs {:.1}%, worst {:.2}x vs {:.2}x",
            rw * 100.0,
            pw * 100.0,
            skew_tally.robust_worst,
            skew_tally.point_worst
        ),
    );

    report.push_str("\nregression checks over the robust-chooser subsystem:\n");
    let checks = format!(
        "{}verdict: {}\n",
        suite.report(),
        if suite.passed() { "PASS" } else { "FAIL" }
    );
    report.push_str(&checks);

    let files = vec![
        h.write_artifact("ext_robust_choice.csv", &csv),
        h.write_artifact("ext_robust_choice_scores.csv", &score_csv(&scores)),
        h.write_artifact("ext_robust_choice_checks.txt", &checks),
        h.write_artifact(
            "ext_robust_choice_point_regret.svg",
            &heatmap_svg(
                &point_regret,
                &m2.sel_a,
                &m2.sel_b,
                &relative_scale(),
                "Point-estimate chooser regret at rho = 1",
            ),
        ),
        h.write_artifact(
            "ext_robust_choice_robust_regret.svg",
            &heatmap_svg(
                &robust_regret,
                &m2.sel_a,
                &m2.sel_b,
                &relative_scale(),
                "Robust chooser regret at rho = 1",
            ),
        ),
    ];
    FigureOutput::new("ext_robust_choice", report, files)
}

/// Adaptive mid-flight plan switching — the *run-time* answer to the
/// estimation failure that `ext_correlated` mapped and `ext_robust_choice`
/// fixed with compile-time joint statistics.  Here the chooser keeps its
/// textbook independence estimates over the full 15-plan catalog; instead
/// of better statistics, the executor's adaptive layer
/// ([`robustmap_executor::ops::adaptive`]) counts rows at the chosen
/// plan's materialization points and a
/// [`robustmap_systems::BailController`] re-costs the remaining pipeline
/// when the observed cardinality falls outside the estimate's credible
/// band, bailing to the choice-free covering-MDAM plan when abandoning
/// pays.  The rid feeds of System B's key-filtered composite-index plans
/// and of the intersections materialize the true *conjunction*
/// cardinality — exactly the number the independence assumption gets
/// wrong by `1/s` at rho = 1 — so the wrong-choice region collapses
/// without any joint statistics.  Switch costs are exactly accounted: the
/// abandoned prefix's charges are sunk on the same simulated clock the
/// fallback then runs on, and no-switch runs are bit-identical to the
/// static executor (pinned by `tests/adaptive_equivalence.rs`).
pub fn ext_adaptive(h: &Harness) -> FigureOutput {
    use robustmap_core::render::sanitize;
    use robustmap_core::{build_map2d, Grid2D, RegressionSuite};
    use robustmap_executor::{
        run_count, ExecConfig, ExecCtx, ExecStats, NeverSwitch, RunOpts, SwitchController,
    };
    use robustmap_storage::{BufferPool, Database, Session};
    use robustmap_systems::choice::{Exact, Joint};
    use robustmap_systems::{
        two_pred_bail_controller_banded, two_predicate_plans, CatalogStats, ChoicePolicy,
        Chooser,
        Estimator, RobustConfig, TwoPredPlan,
    };
    use robustmap_workload::gen::PredicateDistribution;
    use robustmap_workload::{
        JointHistogram, JointHistogramConfig, TableBuilder, Workload, WorkloadConfig,
    };

    let rows = h.w.rows().min(1 << 17); // the ext_correlated workload family, reused
    // Credible-band factor for the trip predicate.  The map's outermost
    // selectivity is 1/2, where the independence conjunction is wrong by
    // exactly 1/max(sel_a, sel_b) = 2 — the default factor-2 band would
    // declare that genuine failure "credible", so the experiment arms a
    // tighter band; the rho = 0 bit-identity check below guards the other
    // side (no trips where the estimates are right).
    const BAND_FACTOR: f64 = 1.5;
    let seed = h.w.config.seed;
    let rcfg = RobustConfig::default();
    let jcfg = JointHistogramConfig::default();
    let mcfg = &h.config.measure;
    let model = &mcfg.model;
    let ec = ExecConfig::from_env();
    let mut suite = RegressionSuite::new();

    let full_catalog = |w: &Workload| -> Vec<TwoPredPlan> {
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect()
    };
    // The bail destination is always a choice-free System C plan: the
    // covering MDAM for a tripped fetch/intersect plan, or — when the
    // tripped plan IS the MDAM — the plain covering scan over the smaller
    // *exact* marginal (no conjunction estimate enters the pick).
    let find = |plans: &[TwoPredPlan], frag: &str| -> usize {
        plans.iter().position(|p| p.name.contains(frag)).expect("plan in catalog")
    };
    let fallback_idx = |plans: &[TwoPredPlan],
                        spec: &PlanSpec,
                        est: &robustmap_systems::SelEstimates|
     -> usize {
        if matches!(spec, PlanSpec::Mdam { .. }) {
            if est.sel_a <= est.sel_b {
                find(plans, "covering(a,b) scan")
            } else {
                find(plans, "covering(b,a) scan")
            }
        } else {
            find(plans, "mdam")
        }
    };
    // One adaptive execution under exactly the measurement conditions the
    // static maps use: fresh session (bit-identical to `SweepArena`'s
    // reset one), same pool, same model, same batched executor.
    let run_adaptive =
        |db: &Database, spec: &PlanSpec, ctrl: &dyn SwitchController| -> ExecStats {
            let s = Session::new(mcfg.model.clone(), BufferPool::new(mcfg.pool_pages, mcfg.policy));
            let ctx = ExecCtx::new(db, &s, mcfg.memory_bytes);
            run_count(spec, &ctx, RunOpts { batch: ec, controller: Some(ctrl) })
                .expect("well-formed plan")
        };

    let mut report = String::from(
        "Extension N: adaptive mid-flight plan switching — observed cardinalities vs joint \
         statistics\n",
    );
    report.push_str(&format!(
        "{rows} rows; the compile-time chooser is the independence point chooser over the full \
         15-plan catalog (the baseline ext_optimizer's rho = 1 panel shows going wrong).  \
         adaptive = that chosen plan + cardinality checkpoints, bailing to a choice-free \
         System C plan (covering MDAM; for a tripped MDAM, the plain covering scan on the \
         smaller exact marginal) when the observed count leaves the credible band (factor \
         {:.0} + {:.0} rows) and the re-costed comparison says the switch pays; sunk prefix charges are \
         included in every adaptive number.  The compile-time baselines (joint point / joint \
         robust) choose over the same catalog with joint statistics instead\n",
        BAND_FACTOR,
        robustmap_systems::CARDINALITY_NOISE_ROWS,
    ));

    let mut csv = String::from(
        "part,rho,sel_a,sel_b,point_choice,final_plan,joint_choice,best_plan,switched,\
         point_regret,adaptive_final_regret,adaptive_total_regret\n",
    );

    // --- Part 1: the diagonal rho sweep.  At rho = 0 the estimates are
    // right, nothing may trip, and the adaptive executor must be
    // charge-identical to the static one; as rho grows the conjunction
    // underestimate grows as 1/s and the trips begin.
    let rho_pct: [u32; 5] = [0, 25, 50, 75, 100];
    let max_exp = h.config.grid_exp.min(10) as i32;
    let sels: Vec<f64> = (0..=max_exp).rev().map(|e| 0.5f64.powi(e)).collect();
    let ns = sels.len();
    report.push_str(&format!(
        "\ndiagonal sweep (15-plan catalog):\n{:>6} {:>12} {:>14} {:>12} {:>14} {:>9}\n",
        "rho", "point wrong", "adaptive wrong", "point worst", "adaptive worst", "switches"
    ));
    let mut total_point_wrong = 0usize;
    let mut total_adaptive_wrong = 0usize;
    let mut rho0_identity = true;
    let mut accounting_ok = true;
    for &pct in &rho_pct {
        let w = TableBuilder::build_cached(WorkloadConfig {
            rows,
            seed,
            predicate_dist: PredicateDistribution::CorrelatedHundredths(pct),
            mutation_epoch: 0,
        });
        let plans = full_catalog(&w);
        let stats = CatalogStats::of(&w);
        let exact = Exact::of(&w);
        let chooser = Chooser { plans: &plans, stats: &stats, model, policy: ChoicePolicy::Point };
        let thr: Vec<(i64, i64)> =
            sels.iter().map(|&s| (w.cal_a.threshold(s), w.cal_b.threshold(s))).collect();
        let specs: Vec<PlanSpec> = plans
            .iter()
            .flat_map(|p| thr.iter().map(|&(ta, tb)| p.build(ta, tb)))
            .collect();
        let results = measure_batch(&w.db, &specs, mcfg);
        let mut tally = ChooserTally::default();
        let mut switches = 0usize;
        let mut worst_total = 0.0f64;
        for (si, &s) in sels.iter().enumerate() {
            let (ta, tb) = thr[si];
            let secs: Vec<f64> =
                (0..plans.len()).map(|pi| results[pi * ns + si].seconds).collect();
            let point = chooser.choose(&exact, ta, tb);
            let est = exact.estimate(ta, tb);
            let spec = plans[point.plan].build(ta, tb);
            let fb_idx = fallback_idx(&plans, &spec, &est);
            let fallback = plans[fb_idx].build(ta, tb);
            let astats = match two_pred_bail_controller_banded(
                &spec, &point, fallback, &stats, est, model, rcfg, BAND_FACTOR,
            ) {
                Some(ctrl) => run_adaptive(&w.db, &spec, &ctrl),
                None => run_adaptive(&w.db, &spec, &NeverSwitch),
            };
            let switched = !astats.switches.is_empty();
            let final_plan = if switched { fb_idx } else { point.plan };
            switches += switched as usize;
            let (pq, aq) = tally.add(&secs, point.plan, final_plan);
            let best = secs.iter().copied().fold(f64::INFINITY, f64::min).max(1e-12);
            let total_q = astats.seconds / best;
            worst_total = worst_total.max(total_q);
            accounting_ok &= astats.seconds >= secs[final_plan] - 1e-12;
            if pct == 0 {
                rho0_identity &= !switched
                    && astats.seconds.to_bits() == secs[point.plan].to_bits();
            }
            csv.push_str(&format!(
                "diagonal,{},{s:e},{s:e},{},{},,{},{},{pq:e},{aq:e},{total_q:e}\n",
                pct as f64 / 100.0,
                sanitize(&plans[point.plan].name),
                sanitize(&plans[final_plan].name),
                sanitize(&plans[oracle_of(&secs)].name),
                switched as u8,
            ));
        }
        let (pw, aw) = tally.wrong_fracs();
        report.push_str(&format!(
            "{:>6.2} {:>11.1}% {:>13.1}% {:>11.2}x {:>13.2}x {:>9}\n",
            pct as f64 / 100.0,
            pw * 100.0,
            aw * 100.0,
            tally.point_worst,
            worst_total,
            switches,
        ));
        total_point_wrong += tally.point_wrong;
        total_adaptive_wrong += tally.robust_wrong;
    }
    suite.check_named(
        "diagonal sweep: adaptive final-plan wrong cells <= the independence point chooser's",
        total_adaptive_wrong <= total_point_wrong,
        format!("{total_adaptive_wrong} vs {total_point_wrong} of {}", rho_pct.len() * ns),
    );
    suite.check_named(
        "rho = 0 diagonal: zero switches and bit-identical charges to the static chosen plan",
        rho0_identity,
        String::new(),
    );

    // --- Part 2: the full (sel_a x sel_b) map at rho = 1 — the collapse
    // claim.  The joint point chooser (compile-time statistics, PR 5's
    // estimator) is the baseline the run-time fix must match without
    // those statistics.
    let w1 = TableBuilder::build_cached(WorkloadConfig {
        rows,
        seed,
        predicate_dist: PredicateDistribution::CorrelatedHundredths(100),
        mutation_epoch: 0,
    });
    let plans1 = full_catalog(&w1);
    let stats1 = CatalogStats::of(&w1);
    let joint1 = JointHistogram::build_cached(&w1, &jcfg);
    let exact1 = Exact::of(&w1);
    let joint_est1 = Joint::new(&joint1);
    let point_chooser =
        Chooser { plans: &plans1, stats: &stats1, model, policy: ChoicePolicy::Point };
    let robust_chooser =
        Chooser { plans: &plans1, stats: &stats1, model, policy: ChoicePolicy::Robust(rcfg) };
    let grid = Grid2D::pow2(h.config.grid_exp.min(6));
    let m2 = build_map2d(&w1, &plans1, &grid, mcfg);
    let (na, nb) = m2.dims();
    let mut est_tally = ChooserTally::default(); // indep point vs joint point (PR baseline)
    let mut adapt_tally = ChooserTally::default(); // indep point vs adaptive final plan
    let mut robust_tally = ChooserTally::default(); // indep point vs robust-over-joint
    let mut point_regret = vec![1.0f64; na * nb];
    let mut adaptive_regret = vec![1.0f64; na * nb];
    let mut worst_total = 0.0f64;
    let mut sum_total = 0.0f64;
    let mut switched_cells = 0usize;
    let mut contested_cells = 0usize;
    let mut unswitched_identity = true;
    for ia in 0..na {
        for ib in 0..nb {
            let (sa, sb) = (m2.sel_a[ia], m2.sel_b[ib]);
            let (ta, tb) = (w1.cal_a.threshold(sa), w1.cal_b.threshold(sb));
            let secs: Vec<f64> =
                (0..plans1.len()).map(|pi| m2.get(pi, ia, ib).seconds).collect();
            let point = point_chooser.choose(&exact1, ta, tb);
            let joint_choice = point_chooser.choose(&joint_est1, ta, tb);
            let robust = robust_chooser.choose(&joint_est1, ta, tb);
            contested_cells += point.is_contested(0.25) as usize;
            let est = exact1.estimate(ta, tb);
            let spec = plans1[point.plan].build(ta, tb);
            let fb_idx = fallback_idx(&plans1, &spec, &est);
            let fallback = plans1[fb_idx].build(ta, tb);
            let astats = match two_pred_bail_controller_banded(
                &spec, &point, fallback, &stats1, est, model, rcfg, BAND_FACTOR,
            ) {
                Some(ctrl) => run_adaptive(&w1.db, &spec, &ctrl),
                None => run_adaptive(&w1.db, &spec, &NeverSwitch),
            };
            let switched = !astats.switches.is_empty();
            let final_plan = if switched { fb_idx } else { point.plan };
            switched_cells += switched as usize;
            est_tally.add(&secs, point.plan, joint_choice.plan);
            robust_tally.add(&secs, point.plan, robust.plan);
            let (pq, aq) = adapt_tally.add(&secs, point.plan, final_plan);
            let best = secs.iter().copied().fold(f64::INFINITY, f64::min).max(1e-12);
            let total_q = astats.seconds / best;
            worst_total = worst_total.max(total_q);
            sum_total += total_q;
            accounting_ok &= astats.seconds >= secs[final_plan] - 1e-12;
            if !switched {
                unswitched_identity &=
                    astats.seconds.to_bits() == secs[point.plan].to_bits();
            }
            let c = ia * nb + ib;
            point_regret[c] = pq;
            adaptive_regret[c] = total_q;
            csv.push_str(&format!(
                "map,1,{sa:e},{sb:e},{},{},{},{},{},{pq:e},{aq:e},{total_q:e}\n",
                sanitize(&plans1[point.plan].name),
                sanitize(&plans1[final_plan].name),
                sanitize(&plans1[joint_choice.plan].name),
                sanitize(&plans1[oracle_of(&secs)].name),
                switched as u8,
            ));
        }
    }
    let cells = adapt_tally.cells as f64;
    let (pw, aw) = adapt_tally.wrong_fracs();
    let (_, jw) = est_tally.wrong_fracs();
    let (_, rw) = robust_tally.wrong_fracs();
    report.push_str(&format!(
        "\n(sel_a x sel_b) map at rho = 1, {na}x{nb} grid, 15-plan catalog (switched at {:.1}% \
         of cells, independence choice contested at {:.1}%):\n\
         independence point chooser: wrong at {:.1}% of cells, worst regret {:.2}x\n\
         joint point chooser:        wrong at {:.1}% of cells, worst regret {:.2}x\n\
         joint robust chooser:       wrong at {:.1}% of cells, worst regret {:.2}x\n\
         adaptive (independence):    wrong at {:.1}% of cells, worst total regret {:.2}x \
         (sunk switch cost included, mean {:.2}x)\n",
        switched_cells as f64 / cells * 100.0,
        contested_cells as f64 / cells * 100.0,
        pw * 100.0,
        adapt_tally.point_worst,
        jw * 100.0,
        est_tally.robust_worst,
        rw * 100.0,
        robust_tally.robust_worst,
        aw * 100.0,
        worst_total,
        sum_total / cells,
    ));
    suite.check_named(
        "rho = 1 map: adaptive wrong-choice fraction <= the joint estimator's (no joint \
         statistics at run time)",
        adapt_tally.robust_wrong <= est_tally.robust_wrong,
        format!("{:.1}% vs {:.1}%", aw * 100.0, jw * 100.0),
    );
    suite.check_named(
        "rho = 1 map: adaptive wrong-choice fraction <= the independence point chooser's",
        adapt_tally.robust_wrong <= adapt_tally.point_wrong,
        format!("{:.1}% vs {:.1}%", aw * 100.0, pw * 100.0),
    );
    suite.check_named(
        "rho = 1 map: adaptive worst total regret (sunk cost included) <= the point chooser's \
         worst regret",
        worst_total <= adapt_tally.point_worst + 1e-9,
        format!("{:.2}x vs {:.2}x", worst_total, adapt_tally.point_worst),
    );
    suite.check_named(
        "rho = 1 map: unswitched cells bit-identical to the static map measurement",
        unswitched_identity,
        String::new(),
    );
    suite.check_named(
        "accounting: adaptive seconds never below the final plan's static seconds",
        accounting_ok,
        String::new(),
    );

    report.push_str("\nregression checks over the adaptive executor:\n");
    let checks = format!(
        "{}verdict: {}\n",
        suite.report(),
        if suite.passed() { "PASS" } else { "FAIL" }
    );
    report.push_str(&checks);

    let files = vec![
        h.write_artifact("ext_adaptive.csv", &csv),
        h.write_artifact("ext_adaptive_checks.txt", &checks),
        h.write_artifact(
            "ext_adaptive_point_regret.svg",
            &heatmap_svg(
                &point_regret,
                &m2.sel_a,
                &m2.sel_b,
                &relative_scale(),
                "Independence point chooser regret at rho = 1 (15 plans)",
            ),
        ),
        h.write_artifact(
            "ext_adaptive_regret.svg",
            &heatmap_svg(
                &adaptive_regret,
                &m2.sel_a,
                &m2.sel_b,
                &relative_scale(),
                "Adaptive executor total regret at rho = 1 (sunk switch cost included)",
            ),
        ),
    ];
    FigureOutput::new("ext_adaptive", report, files)
}

/// Buffer pool size as the swept run-time condition (a §3 "resource"
/// dimension), including the LRU vs Clock policy choice.
pub fn ext_buffer(h: &Harness) -> FigureOutput {
    let w = &h.w;
    let sel = 0.5f64.powi((h.config.grid_exp / 2) as i32);
    let t = w.cal_a.threshold(sel);
    let plan = PlanSpec::IndexFetch {
        scan: IndexRangeSpec { index: w.indexes.a, range: KeyRange::on_leading(i64::MIN, t, 1) },
        key_filter: Predicate::always_true(),
        fetch: FetchKind::Traditional,
        residual: Predicate::single(ColRange::at_most(COL_B, w.cal_b.threshold(1.0))),
        project: Projection::All,
    };
    let mut report = String::from(
        "Extension F: traditional fetch vs buffer pool size (pages), LRU and Clock\n",
    );
    report.push_str(&format!("{:>10} {:>12} {:>12}\n", "pool", "LRU (s)", "Clock (s)"));
    let mut csv = String::from("pool_pages,lru_seconds,clock_seconds\n");
    for exp in [0u32, 4, 6, 8, 10, 12, 14] {
        let pool = if exp == 0 { 0 } else { 1usize << exp };
        let mut secs = Vec::new();
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Clock] {
            let cfg = MeasureConfig { pool_pages: pool, policy, ..h.config.measure.clone() };
            secs.push(measure_plan(&w.db, &plan, &cfg).seconds);
        }
        report.push_str(&format!("{:>10} {:>12.4} {:>12.4}\n", pool, secs[0], secs[1]));
        csv.push_str(&format!("{pool},{:e},{:e}\n", secs[0], secs[1]));
    }
    report.push_str(
        "larger pools absorb re-fetches of hot pages; beyond the table's page count the fetch \
         becomes CPU-bound\n",
    );
    let files = vec![h.write_artifact("ext_buffer.csv", &csv)];
    FigureOutput::new("ext_buffer", report, files)
}

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
    use robustmap_core::regression::RegressionSuite;
    use robustmap_core::{serve_concurrent, ServeConfig};
    use robustmap_systems::{two_predicate_plans, AdmissionConfig};
    use robustmap_workload::{TableBuilder, WorkloadConfig};

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
        ..ServeConfig::default()
    };
    let serve_at = |max_in_flight: usize| ServeConfig {
        admission: AdmissionConfig { max_in_flight, ..AdmissionConfig::default() },
        ..base_serve.clone()
    };

    let plans: Vec<robustmap_systems::TwoPredPlan> = SystemId::all()
        .into_iter()
        .flat_map(|s| two_predicate_plans(s, &w))
        .collect();
    let specs: Vec<PlanSpec> =
        plans.iter().map(|p| p.build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4))).collect();
    let isolated: Vec<_> = specs.iter().map(|s| measure_plan(&w.db, s, &mcfg)).collect();
    let work_sig = |io: &robustmap_storage::IoStats| {
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
    let burst8: Vec<PlanSpec> = (0..specs.len()).map(|j| specs[j].clone()).collect();
    let rep_a = serve_concurrent(&w.db, &burst8, &serve_at(8));
    let rep_b = serve_concurrent(&w.db, &burst8, &serve_at(8));
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
        let scan = PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(COL_A, t)),
            project: Projection::All,
        };
        let fetch = PlanSpec::IndexFetch {
            scan: IndexRangeSpec {
                index: w.indexes.a,
                range: KeyRange::on_leading(i64::MIN, t, 1),
            },
            key_filter: Predicate::always_true(),
            fetch: FetchKind::Traditional,
            residual: Predicate::single(ColRange::at_most(COL_B, w.cal_b.threshold(1.0))),
            project: Projection::All,
        };
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
    let victim = PlanSpec::IndexFetch {
        scan: IndexRangeSpec {
            index: w.indexes.a,
            range: KeyRange::on_leading(i64::MIN, w.cal_a.threshold(0.25), 1),
        },
        key_filter: Predicate::always_true(),
        fetch: FetchKind::Traditional,
        residual: Predicate::single(ColRange::at_most(COL_B, w.cal_b.threshold(1.0))),
        project: Projection::All,
    };
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
        input: Box::new(PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(COL_A, w.cal_a.threshold(1.0))),
            project: Projection::All,
        }),
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

    report.push_str("\nregression checks over the serving layer:\n");
    let checks = format!(
        "{}verdict: {}\n",
        suite.report(),
        if suite.passed() { "PASS" } else { "FAIL" }
    );
    report.push_str(&checks);

    let level_axis: Vec<f64> = levels.iter().map(|&n| n as f64).collect();
    let plan_axis: Vec<f64> = (1..=plans.len()).map(|p| p as f64).collect();
    let files = vec![
        h.write_artifact("ext_concurrency.csv", &csv),
        h.write_artifact("ext_concurrency_sweep.csv", &sweep_csv),
        h.write_artifact("ext_concurrency_checks.txt", &checks),
        h.write_artifact(
            "ext_concurrency.svg",
            &heatmap_svg(
                &slowdown,
                &plan_axis,
                &level_axis,
                &relative_scale(),
                "Per-plan slowdown under concurrency (x: plan index, y: concurrency level)",
            ),
        ),
    ];
    FigureOutput::new("ext_concurrency", report, files)
}

/// Charge-free execution tracing: a traced concurrency-8 burst rendered
/// as a baton timeline, and a traced adaptive bail rendered as operator
/// spans — with the reconciliation checks that make the trace *evidence*
/// rather than decoration.  The trace records on two clocks (simulated
/// seconds and real nanoseconds) and must never change a charge: the
/// bit-identity check below re-runs the forced bail untraced and compares
/// every bit.
pub fn ext_trace(h: &Harness) -> FigureOutput {
    use std::sync::Arc;

    use robustmap_core::regression::RegressionSuite;
    use robustmap_core::render::{timeline_svg, TimelineMark, TimelineSpan};
    use robustmap_core::{serve_concurrent, ServeConfig};
    use robustmap_executor::{
        run_count, CheckpointKind, ExecConfig, ExecCtx, Observation, RunOpts,
        SwitchController, SwitchDirective,
    };
    use robustmap_obs::chrome::{parse_chrome_trace, parse_json, to_chrome_json};
    use robustmap_obs::trace::{
        op_profile_csv, slice_totals, validate_trace, TraceDetail, TraceEventKind, TraceSink,
    };
    use robustmap_storage::{BufferPool, Session};
    use robustmap_systems::{two_predicate_plans, AdmissionConfig};
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    let rows = h.config.rows.min(1 << 14);
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(rows));
    let pool_pages = ((rows / 512) as usize).max(32);
    let mcfg = MeasureConfig { pool_pages, ..h.config.measure.clone() };
    let plans: Vec<robustmap_systems::TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, &w)).collect();
    let specs: Vec<PlanSpec> = (0..8)
        .map(|j| plans[(j * 2) % plans.len()].build(w.cal_a.threshold(0.15), w.cal_b.threshold(0.4)))
        .collect();
    let rel_eq = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300);

    let mut suite = RegressionSuite::new();
    let mut report = String::from(
        "Extension N: charge-free execution tracing — baton timelines, operator spans, \
         metrics\n",
    );
    report.push_str(&format!(
        "{rows} rows, pool {pool_pages} pages, quantum 256 charges; trace events carry both \
         clocks (simulated seconds + real nanoseconds since sink epoch)\n",
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
    let reconciled = rep.queries.iter().enumerate().all(|(i, q)| {
        rel_eq(totals.get(&(i as u32)).copied().unwrap_or(0.0), q.stats.seconds)
    });
    suite.check_named(
        "per-query slice totals reconcile with the served queries' charged seconds",
        reconciled,
        format!("{} queries, {} slice tracks", rep.queries.len(), totals.len()),
    );
    let makespan = rep.queries.iter().map(|q| q.turnaround).fold(0.0f64, f64::max);
    let charges: f64 = rep.queries.iter().map(|q| q.stats.seconds).sum();
    suite.check_named(
        "makespan conservation: last turnaround equals the sum of every query's charges",
        rel_eq(makespan, charges),
        format!("{makespan:.6}s vs {charges:.6}s"),
    );

    // Chrome export: the artifact browsers load must parse back, with
    // every span's B matched by an E.
    let json = to_chrome_json(&events, &labels);
    let chrome_ok = parse_json(&json).is_ok()
        && parse_chrome_trace(&json).is_ok_and(|evs| {
            let b = evs.iter().filter(|e| e.ph == "B").count();
            let e = evs.iter().filter(|e| e.ph == "E").count();
            let pids: std::collections::BTreeSet<u64> =
                evs.iter().map(|ev| ev.pid).collect();
            b == e && b > 0 && pids.len() == 2
        });
    suite.check_named(
        "Chrome export round-trips: JSON parses, B/E spans balance, two clock domains",
        chrome_ok,
        format!("{} bytes", json.len()),
    );

    // Queue wait becomes visible when admission is the bottleneck.
    let cfg2 = ServeConfig {
        admission: AdmissionConfig { max_in_flight: 2, ..AdmissionConfig::default() },
        trace: None,
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
        match &e.kind {
            TraceEventKind::SliceBegin => open[t] = e.sim,
            TraceEventKind::SliceEnd => {
                slice_no[t] += 1;
                spans.push(TimelineSpan {
                    track: t,
                    start: open[t],
                    end: e.sim,
                    color: t,
                    label: format!("slice {}: {:.5}s", slice_no[t], e.sim - open[t]),
                });
            }
            TraceEventKind::Admit { grant } => marks.push(TimelineMark {
                track: t,
                at: e.sim,
                label: format!("admitted, grant {grant}"),
            }),
            TraceEventKind::QueryDone { rows } => marks.push(TimelineMark {
                track: t,
                at: e.sim,
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
    struct BailAtRidFeed {
        alt: PlanSpec,
    }
    impl SwitchController for BailAtRidFeed {
        fn decide(&self, obs: &Observation) -> SwitchDirective {
            if matches!(obs.kind, CheckpointKind::RidFeed) {
                SwitchDirective::Bail(self.alt.clone())
            } else {
                SwitchDirective::Continue
            }
        }
    }
    let victim = PlanSpec::IndexFetch {
        scan: IndexRangeSpec {
            index: w.indexes.a,
            range: KeyRange::on_leading(i64::MIN, w.cal_a.threshold(0.25), 1),
        },
        key_filter: Predicate::always_true(),
        fetch: FetchKind::Traditional,
        residual: Predicate::single(ColRange::at_most(COL_B, w.cal_b.threshold(1.0))),
        project: Projection::All,
    };
    let ctrl = BailAtRidFeed {
        alt: PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::at_most(COL_B, w.cal_b.threshold(1.0))),
            project: Projection::All,
        },
    };
    let ec = ExecConfig::from_env();
    let run_bail = |sink: Option<&Arc<TraceSink>>| {
        let s = Session::new(mcfg.model.clone(), BufferPool::new(pool_pages, mcfg.policy));
        if let Some(sk) = sink {
            s.attach_tracer(Arc::clone(sk), "q0: forced bail");
        }
        let ctx = ExecCtx::new(&w.db, &s, mcfg.memory_bytes);
        run_count(&victim, &ctx, RunOpts { batch: ec, controller: Some(&ctrl) })
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
        plain.seconds.to_bits() == traced.seconds.to_bits()
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
        match &e.kind {
            TraceEventKind::OpBegin { name, depth } => {
                let lane = op_lanes.len();
                op_lanes.push(format!("d{depth} {name}"));
                op_open[e.track as usize].push((lane, e.sim));
            }
            TraceEventKind::OpEnd { rows, depth, .. } => {
                let (lane, start) = op_open[e.track as usize].pop().expect("balanced spans");
                op_spans.push(TimelineSpan {
                    track: lane,
                    start,
                    end: e.sim,
                    color: *depth as usize,
                    label: format!("{}: {rows} rows, {:.5}s", op_lanes[lane], e.sim - start),
                });
            }
            TraceEventKind::Checkpoint { kind, rows } => op_marks.push((e.sim, format!(
                "checkpoint {kind}: {rows} rows"
            ))),
            TraceEventKind::Switch { at, observed, action } => op_marks.push((e.sim, format!(
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

    report.push_str("\nregression checks over the tracing layer:\n");
    let checks = format!(
        "{}verdict: {}\n",
        suite.report(),
        if suite.passed() { "PASS" } else { "FAIL" }
    );
    report.push_str(&checks);

    let mut metrics = sink.metrics();
    metrics.merge(&bail_sink.metrics());
    let files = vec![
        h.write_artifact("ext_trace.json", &json),
        h.write_artifact("ext_trace_timeline.svg", &timeline),
        h.write_artifact("ext_trace_adaptive.svg", &adaptive_svg),
        h.write_artifact("ext_trace_ops.csv", &op_profile_csv(&bail_events, &bail_labels)),
        h.write_artifact("ext_trace_metrics.txt", &metrics.dump()),
        h.write_artifact("ext_trace_checks.txt", &checks),
    ];
    FigureOutput::new("ext_trace", report, files)
}

/// Data churn + incremental statistics maintenance — the robustness map
/// over a *mutating* database.  Every figure above measures a frozen
/// table; the paper's thesis (run-time conditions diverge from
/// compile-time assumptions, §1) bites hardest when the data itself
/// drifts out from under the optimizer's statistics.  A deterministic
/// [`robustmap_workload::ChurnDriver`] applies update-heavy batches with
/// distribution drift through the *charged* session path (heap
/// append/tombstone plus all five index maintenances land on the
/// simulated clock), and three Point-policy choosers meet on the same
/// measured cells at each churn level:
///
/// * **frozen** — the epoch-0 joint statistics, never refreshed: its
///   wrong-choice region grows with the modified fraction;
/// * **maintained** — [`robustmap_workload::MaintainedJoint`] folding
///   per-bucket delta counters in after every batch: it tracks the
///   churned table at bookkeeping cost, no heap scan;
/// * **fresh** — a full rebuild from the mutated heap at every level,
///   the exact-but-expensive upper baseline.
///
/// The named checks gate the subsystem: a zero-churn sweep through the
/// churn engine is bit-identical to the static executor, mutation cost
/// is charged, the staleness meter tracks applied work, the frozen
/// chooser degrades while the maintained one holds within one grid step
/// of the fresh rebuild, the staleness-aware estimator widens its
/// credible region, and the mutation epoch re-keys the stats cache.
pub fn ext_churn(h: &Harness) -> FigureOutput {
    use robustmap_core::{Measurement, RegressionSuite};
    use robustmap_storage::Session;
    use robustmap_systems::choice::{Joint, Maintained, Stale};
    use robustmap_systems::{CatalogStats, ChoicePolicy, Chooser};
    use robustmap_workload::cache::config_hash;
    use robustmap_workload::stats::stats_cache_path;
    use robustmap_workload::{
        ChurnConfig, ChurnDriver, JointHistogram, JointHistogramConfig, MaintainedJoint,
        RebuildPolicy, TableBuilder, Workload, WorkloadConfig,
    };

    // Pinned scale: the experiment separates choosers by *statistics*
    // error across the hash/scan crossover, which only works where the
    // cost model's own boundary is calibrated against measurement.  At
    // 2^14 rows the level-0 map has zero wrong cells for every chooser;
    // at 2^16 the heap outgrows the pool and a ~1-cell model bias appears
    // that a stale underestimate happens to cancel — scale would then
    // measure model error, not staleness.
    let rows = h.w.rows().min(1 << 14);
    let seed = h.w.config.seed;
    let cfg = WorkloadConfig { rows, seed, mutation_epoch: 0, ..Default::default() };
    let jcfg = JointHistogramConfig::default();
    let model = &h.config.measure.model;
    let mut suite = RegressionSuite::new();

    // Half-power-of-two selectivity steps down to 2^-12: a churn-induced
    // estimate error of ~1.5x moves the hash/scan crossover (near 2^-5
    // on this table) by about one cell at this resolution, where the
    // paper's factor-of-two grid would straddle it.
    let half_steps = 2 * h.config.grid_exp.clamp(12, 14);
    let sels: Vec<f64> =
        (0..=half_steps).rev().map(|k| 2f64.powf(-0.5 * k as f64)).collect();
    let ns = sels.len();
    let fractions: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let nl = fractions.len();
    let drift = 85; // inserts draw column a from the lower 15% of the domain

    let mut report = String::from(
        "Extension P: data churn + incremental statistics maintenance — the robustness map \
         over a mutating database\n",
    );
    report.push_str(&format!(
        "{rows} rows; update-heavy churn (20% insert / 20% delete / 60% update) with \
         downward drift {drift} (inserts draw a from the lower {}% of the domain, so the \
         frozen statistics under-estimate small selectivities); selectivity diagonal \
         sel_a = sel_b = s in half-power-of-two steps; all three choosers are Point-policy \
         over the same four-plan catalog, differing only in their statistics: frozen \
         (epoch 0), maintained (per-bucket deltas), fresh (rebuilt from the mutated heap)\n",
        100 - drift,
    ));

    // Two builds of the same config: the static baseline never sees the
    // churn engine; the churn copy gets a driver attached before its
    // zero-churn sweep, so the bit-identity check covers "engaging the
    // subsystem at zero churn changes nothing".
    let w_static = TableBuilder::build_cached(cfg.clone());
    let mut w_churn = TableBuilder::build_cached(cfg.clone());
    let thr: Vec<(i64, i64)> =
        sels.iter().map(|&s| (w_churn.cal_a.threshold(s), w_churn.cal_b.threshold(s))).collect();
    // The contested pair: table scan vs hash intersect.  The intersect's
    // cost is per-index-entry CPU and key-ordered leaf scans, so churn
    // cannot skew it physically — B+-tree entries interleave in key
    // order wherever the heap put the rows — and the selectivity error
    // is the *only* thing separating the choosers at its scan crossover.
    // The INL fetch and covering MDAM are deliberately excluded: MDAM
    // dominates every diagonal cell outright, and the fetch's measured
    // cost depends on where the churned rows physically landed (appends
    // cluster in the heap tail), a locality effect the cost model
    // deliberately does not track — with it in the catalog the map would
    // measure model error, not statistics staleness.
    let catalog = |w: &Workload| -> Vec<robustmap_systems::TwoPredPlan> {
        let mut plans = correlated_plan_set(w);
        plans.swap_remove(3); // drop mdam
        plans.swap_remove(1); // drop the inl fetch
        plans
    };
    let sweep = |w: &Workload| -> Vec<Measurement> {
        let plans = catalog(w);
        let specs: Vec<PlanSpec> =
            plans.iter().flat_map(|p| thr.iter().map(|&(ta, tb)| p.build(ta, tb))).collect();
        measure_batch(&w.db, &specs, &h.config.measure)
    };

    let base_joint = JointHistogram::build_cached(&w_churn, &jcfg);
    let mut maint = MaintainedJoint::new(base_joint.clone());
    let churn_cfg = ChurnConfig::for_workload(&w_churn).with_drift_down(drift);
    let mut driver = ChurnDriver::new(&w_churn, churn_cfg);
    let churn_session = Session::with_pool_pages(64);

    let static_sweep = sweep(&w_static);
    let churn0_sweep = sweep(&w_churn);
    let bit_identical = static_sweep.len() == churn0_sweep.len()
        && static_sweep.iter().zip(&churn0_sweep).all(|(a, b)| {
            a.seconds.to_bits() == b.seconds.to_bits() && a.io == b.io && a.rows == b.rows
        });
    suite.check_named(
        "zero churn: the sweep through the churn-engine workload is bit-identical \
         (seconds.to_bits + IoStats) to the static executor's",
        bit_identical,
        format!("{} specs compared", static_sweep.len()),
    );

    let plans = catalog(&w_churn);
    let plan_short = ["scan", "hash"];
    let mut csv = String::from(
        "fraction,sel,table_scan,hash_intersect,frozen_choice,\
         maint_choice,fresh_choice,oracle_choice,frozen_regret,maint_regret,fresh_regret,\
         fraction_modified,drift\n",
    );
    let mut frozen_regret = vec![1.0f64; nl * ns];
    let mut maint_regret = vec![1.0f64; nl * ns];
    let mut wrong = [[0usize; 3]; 6]; // per level: frozen, maintained, fresh
    let mut worst = [[1.0f64; 3]; 6];
    let mut churn_seconds = 0.0f64;
    let mut churn_writes = 0u64;
    report.push_str(&format!(
        "\n{:>9} {:>9} {:>13} {:>13} {:>13} {:>7}\n",
        "fraction", "drift", "frozen wrong", "maint wrong", "fresh wrong", "live"
    ));
    for (li, &frac) in fractions.iter().enumerate() {
        if frac > 0.0 {
            for b in driver.apply_until_fraction(&mut w_churn, &churn_session, frac) {
                churn_seconds += b.seconds;
                churn_writes += b.io.page_writes;
                maint.apply(&b);
            }
        }
        let results = if li == 0 { churn0_sweep.clone() } else { sweep(&w_churn) };
        let stats = CatalogStats::of(&w_churn);
        let fresh_joint = JointHistogram::from_workload(&w_churn, &jcfg);
        let frozen_est = Joint::new(&base_joint);
        let maint_est = Maintained::new(&maint);
        let fresh_est = Joint::new(&fresh_joint);
        let chooser = Chooser { plans: &plans, stats: &stats, model, policy: ChoicePolicy::Point };
        let meter = maint.staleness();
        for (si, &s) in sels.iter().enumerate() {
            let (ta, tb) = thr[si];
            let secs: Vec<f64> =
                (0..plans.len()).map(|pi| results[pi * ns + si].seconds).collect();
            let best = secs.iter().copied().fold(f64::INFINITY, f64::min).max(1e-12);
            let picks = [
                chooser.choose(&frozen_est, ta, tb).plan,
                chooser.choose(&maint_est, ta, tb).plan,
                chooser.choose(&fresh_est, ta, tb).plan,
            ];
            let mut regrets = [1.0f64; 3];
            for (ci, &p) in picks.iter().enumerate() {
                let q = secs[p] / best;
                regrets[ci] = q;
                if q > 1.001 {
                    wrong[li][ci] += 1;
                }
                worst[li][ci] = worst[li][ci].max(q);
            }
            frozen_regret[li * ns + si] = regrets[0];
            maint_regret[li * ns + si] = regrets[1];
            csv.push_str(&format!(
                "{frac},{s:e},{:e},{:e},{},{},{},{},{:e},{:e},{:e},{:.6},{:.6}\n",
                secs[0],
                secs[1],
                plan_short[picks[0]],
                plan_short[picks[1]],
                plan_short[picks[2]],
                plan_short[oracle_of(&secs)],
                regrets[0],
                regrets[1],
                regrets[2],
                meter.fraction_modified,
                meter.drift,
            ));
        }
        report.push_str(&format!(
            "{:>9.2} {:>9.3} {:>10}/{ns} {:>10}/{ns} {:>10}/{ns} {:>7}\n",
            meter.fraction_modified,
            meter.drift,
            wrong[li][0],
            wrong[li][1],
            wrong[li][2],
            driver.live_rows(),
        ));
    }

    suite.check_named(
        "churn cost is charged: mutation batches advance the simulated clock and write pages",
        churn_seconds > 0.0 && churn_writes > 0,
        format!("{churn_seconds:.3} s, {churn_writes} page writes"),
    );
    let meter = maint.staleness();
    suite.check_named(
        "staleness meter tracks applied work: fraction matches the driver, drifted inserts \
         register as drift, and the default policy calls for a rebuild",
        (meter.fraction_modified - driver.fraction_touched()).abs() < 1e-12
            && meter.fraction_modified >= 0.5
            && meter.drift > 0.2
            && RebuildPolicy::default().should_rebuild(&meter),
        format!("fraction {:.3}, drift {:.3}", meter.fraction_modified, meter.drift),
    );
    let (w0, w5) = (wrong[0][0], wrong[nl - 1][0]);
    suite.check_named(
        "frozen statistics: the wrong-choice region grows from zero churn to 50% modified",
        w5 > w0,
        format!("{w0}/{ns} cells at 0% -> {w5}/{ns} cells at 50%"),
    );
    suite.check_named(
        "50% modified: the frozen chooser is strictly worse than the maintained one",
        wrong[nl - 1][0] > wrong[nl - 1][1],
        format!("{}/{ns} vs {}/{ns} wrong cells", wrong[nl - 1][0], wrong[nl - 1][1]),
    );
    suite.check_named(
        "50% modified: maintained statistics hold within one grid step of the fresh rebuild",
        wrong[nl - 1][1] <= wrong[nl - 1][2] + 1,
        format!("{}/{ns} vs {}/{ns} wrong cells", wrong[nl - 1][1], wrong[nl - 1][2]),
    );
    let (ta_mid, tb_mid) = thr[ns / 2];
    let stale_est = Stale::new(&base_joint, meter);
    let (ra_stale, rb_stale) = stale_est.radii(ta_mid, tb_mid);
    let (ra_base, rb_base) = Joint::new(&base_joint).radii(ta_mid, tb_mid);
    suite.check_named(
        "staleness widens the robust chooser's credible region on both axes",
        ra_stale > ra_base && rb_stale > rb_base,
        format!("a: {ra_stale:.4} > {ra_base:.4}; b: {rb_stale:.4} > {rb_base:.4}"),
    );
    let epoch_rekeys = config_hash(&cfg) != config_hash(&w_churn.config)
        && w_churn.config.mutation_epoch > 0
        && match (stats_cache_path(&cfg, &jcfg), stats_cache_path(&w_churn.config, &jcfg)) {
            (Some(a), Some(b)) => a != b,
            (None, None) => true, // caching disabled in this environment
            _ => false,
        };
    suite.check_named(
        "mutation epoch re-keys the content-addressed statistics cache (a stale wl-jstats-* \
         entry can never be served for mutated data)",
        epoch_rekeys,
        format!("epoch {}", w_churn.config.mutation_epoch),
    );
    report.push_str(&format!(
        "\nchurn cost charged: {churn_seconds:.3} simulated seconds, {churn_writes} page \
         writes across {} batches; staleness at the end: fraction {:.3}, drift {:.3}\n",
        driver.steps_applied(),
        meter.fraction_modified,
        meter.drift,
    ));

    report.push_str("\nregression checks over the churn subsystem:\n");
    let checks = format!(
        "{}verdict: {}\n",
        suite.report(),
        if suite.passed() { "PASS" } else { "FAIL" }
    );
    report.push_str(&checks);

    let files = vec![
        h.write_artifact("ext_churn.csv", &csv),
        h.write_artifact("ext_churn_checks.txt", &checks),
        h.write_artifact(
            "ext_churn_frozen_regret.svg",
            &heatmap_svg(
                &frozen_regret,
                &fractions,
                &sels,
                &relative_scale(),
                "Frozen-statistics chooser regret over fraction modified (x) and selectivity (y)",
            ),
        ),
        h.write_artifact(
            "ext_churn_maint_regret.svg",
            &heatmap_svg(
                &maint_regret,
                &fractions,
                &sels,
                &relative_scale(),
                "Maintained-statistics chooser regret over fraction modified (x) and selectivity (y)",
            ),
        ),
    ];
    FigureOutput::new("ext_churn", report, files)
}
