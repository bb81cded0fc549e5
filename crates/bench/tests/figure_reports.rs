//! Every figure's report must actually say what its paper figure shows —
//! not just run without panicking.  These run against the tiny harness, so
//! the assertions are about structure and key markers, not full-scale
//! landmark values (those live in the workspace integration tests).

use robustmap_bench::{run_figure, Harness, FIGURES};

fn report(h: &Harness, name: &str) -> String {
    run_figure(h, name).expect("known figure").report
}

/// A tiny harness writing under a directory of its own.  The tests here run
/// in parallel and regenerate the same figures, so one that reads artifacts
/// back must not share files with one that is rewriting them.
fn tiny_writing_to(dir: &str) -> Harness {
    let mut h = Harness::tiny();
    h.config.out_dir.push(dir);
    std::fs::create_dir_all(&h.config.out_dir).expect("create output directory");
    h
}

#[test]
fn figure_reports_contain_their_key_markers() {
    let h = Harness::tiny();
    let expectations: &[(&str, &[&str])] = &[
        ("legends", &["Execution time", "Factor 1", "0.001-0.01 seconds"]),
        ("fig1", &["table scan", "improved index scan", "landmarks", "selectivity"]),
        ("fig2", &["rid join (merge)", "rid join (hash, build a)", "factor vs. best"]),
        ("fig4", &["execution time range", "max spread along sel_a", "regression checks over"]),
        ("fig5", &["merge join symmetry", "hash join symmetry"]),
        ("fig7", &["worst quotient", "opt.area", "A2 idx(a) fetch", "grows with table size"]),
        ("fig8", &["near-optimal", "B1 idx(a,b) bitmap fetch", "worst quotient"]),
        ("fig9", &["C1 mdam(a,b) covering", "C1 within 10x of the best", "regression checks over"]),
        ("fig10", &["optimal plan(s)", "points have several"]),
        ("ext_sort_spill", &["abrupt", "graceful", "changepoints", "cliff"]),
        ("ext_memory", &["memory grant x input size"]),
        ("ext_worst", &["danger map", "worst choice"]),
        ("ext_shootout", &["holds the best plan", "leaderboard", "headline"]),
        ("ext_ablation", &["traditional (no sort)", "improved (sort + read-ahead)", "mdam"]),
        ("ext_buffer", &["LRU", "Clock"]),
        ("ext_join", &["sort-merge", "hash build-left", "hash build-right", "wins at"]),
        ("ext_parallel", &["dop", "speedup at dop 16", "skew"]),
        ("ext_skew", &["Zipf", "improved"]),
        ("ext_optimizer", &["estimate error", "mean regret", "exact", "16x under"]),
        (
            "ext_correlated",
            &[
                "independence",
                "rho",
                "regret",
                "crossovers along the rho = 1.0 diagonal",
                "best-plan share",
                "regression checks over the correlated scenario",
                "verdict: PASS",
            ],
        ),
        (
            "ext_robust_choice",
            &["point wrong", "robust wrong", "chooser leaderboard", "skewed", "verdict: PASS"],
        ),
        (
            "ext_adaptive",
            &["adaptive wrong", "switches", "sunk switch cost included", "verdict: PASS"],
        ),
        (
            "ext_concurrency",
            &["plan \\ concurrency", "convoys", "interference", "admission cliff", "verdict: PASS"],
        ),
        ("ext_trace", &["trace events", "queue wait", "forced bail", "verdict: PASS"]),
        (
            "ext_churn",
            &["frozen wrong", "maint wrong", "fresh wrong", "churn cost charged", "verdict: PASS"],
        ),
        ("ext_regression", &["monotone", "contiguous optimality region", "verdict"]),
    ];
    for fig in FIGURES {
        let (_, needles) = expectations
            .iter()
            .find(|(name, _)| *name == fig.name)
            .unwrap_or_else(|| panic!("{}: no key markers listed for this figure", fig.name));
        let r = report(&h, fig.name);
        let fig = fig.name;
        for needle in *needles {
            assert!(
                r.contains(needle),
                "{fig}: expected {needle:?} in report:\n{r}"
            );
        }
    }
}

#[test]
fn regression_suite_passes_at_test_scale() {
    let h = Harness::tiny();
    let r = report(&h, "ext_regression");
    assert!(r.contains("verdict: PASS"), "regression suite failed:\n{r}");
}

#[test]
fn figure_artifacts_exist_and_are_nonempty() {
    let h = tiny_writing_to("artifacts");
    for fig in ["fig1", "fig7", "ext_join"] {
        let out = run_figure(&h, fig).unwrap();
        assert!(!out.files.is_empty(), "{fig} wrote no artifacts");
        for f in &out.files {
            let meta = std::fs::metadata(f).unwrap_or_else(|e| panic!("{fig}: {e}"));
            assert!(meta.len() > 100, "{fig}: {} suspiciously small", f.display());
        }
    }
}

#[test]
fn svg_artifacts_are_well_formed() {
    let h = tiny_writing_to("svg");
    let out = run_figure(&h, "fig7").unwrap();
    let svg_path = out.files.iter().find(|f| f.extension().is_some_and(|e| e == "svg")).unwrap();
    let svg = std::fs::read_to_string(svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.trim_end().ends_with("</svg>"));
    assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
}

#[test]
fn csv_artifacts_have_headers_and_rows() {
    let h = tiny_writing_to("csv");
    let out = run_figure(&h, "fig1").unwrap();
    let csv_path = out.files.iter().find(|f| f.extension().is_some_and(|e| e == "csv")).unwrap();
    let csv = std::fs::read_to_string(csv_path).unwrap();
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("selectivity,rows,"));
    let cols = header.split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        rows += 1;
    }
    assert!(rows >= 9, "expected a full sweep, got {rows} rows");
}
