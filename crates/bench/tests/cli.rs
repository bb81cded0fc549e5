//! The `figures` binary's command line: a figure runs once however often
//! it is named, `--trace` writes its three files, `--real-clock` a CSV per
//! figure, and bad input is exit 2
//! with one line on stderr — never a panic backtrace.

use std::process::{Command, Output};

fn figures(out_dir: &str, args: &[&str]) -> Output {
    let dir = std::path::Path::new("target/figures-test").join(out_dir);
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--rows", "16384", "--grid", "8", "--out"])
        .arg(dir)
        .args(args)
        .env("ROBUSTMAP_LOG", "quiet")
        .output()
        .expect("run the figures binary")
}

/// Exit 2, exactly one line of stderr, no panic.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains(needle) && !stderr.contains("panicked"), "stderr: {stderr}");
}

fn reports_printed(out: &Output) -> usize {
    String::from_utf8_lossy(&out.stdout).lines().filter(|l| l.starts_with("=====")).count()
}

#[test]
fn a_repeated_figure_runs_once_and_the_run_is_gated() {
    let out = figures("cli-dedup", &["legends", "fig1", "legends"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(reports_printed(&out), 2);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let want = "checks: 3 in 1 reports, 0 failed, 0 diverging; 5 artifacts";
    assert_eq!(stdout.lines().last(), Some(want));
    // `all` after a named figure adds every *other* figure.
    let out = figures("cli-dedup-all", &["ext_regression", "all"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(reports_printed(&out), robustmap_bench::FIGURES.len());
}

/// `--trace PATH` records every measured session of the run — the static
/// sweeps of `fig1` and the adaptive cells of `ext_adaptive` alike, since
/// both are built by `MeasureConfig::session` — and writes `PATH`, the
/// operator profile and the metrics dump next to it.
#[test]
fn trace_writes_its_three_artifacts() {
    let dir = std::path::Path::new("target/figures-test/cli-trace");
    let json = dir.join("run.json");
    let out = figures("cli-trace", &["--trace", json.to_str().unwrap(), "fig1", "ext_adaptive"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let read = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!text.is_empty(), "{name} is empty");
        text
    };
    let events = robustmap_obs::chrome::parse_chrome_trace(&read("run.json"));
    assert!(events.is_ok_and(|evs| !evs.is_empty()), "run.json is not a Chrome trace");
    assert!(read("run_ops.csv").starts_with("track,query,depth,op,rows,sim_seconds\n"));
    let metrics = read("run_metrics.txt");
    let counter = |name: &str| -> u64 {
        let line = metrics.lines().find_map(|l| l.strip_prefix(&format!("counter {name} ")));
        line.and_then(|v| v.parse().ok()).unwrap_or(0)
    };
    assert!(counter("exec.operators") > 0, "{metrics}");
    assert!(counter("adaptive.checkpoints") > 0, "{metrics}");
}

/// `--real-clock DIR` writes one `<id>_real.csv` per figure, a line per
/// cell its sweeps ran, and leaves the figure's own artifacts as an
/// untimed run writes them; it does not combine with `--trace`.
#[test]
fn real_clock_writes_a_csv_per_figure_beside_unchanged_artifacts() {
    let real = std::path::Path::new("target/figures-test/cli-real-clock/real");
    let timed =
        figures("cli-real-clock", &["--real-clock", real.to_str().unwrap(), "fig1", "ext_memory"]);
    assert_eq!(timed.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&timed.stderr));
    let untimed = figures("cli-real-clock-untimed", &["fig1", "ext_memory"]);
    assert_eq!(untimed.status.code(), Some(0));
    for name in ["fig1.csv", "fig1.svg", "ext_memory.svg"] {
        let read = |dir: &str| std::fs::read(format!("target/figures-test/{dir}/{name}")).unwrap();
        assert!(read("cli-real-clock") == read("cli-real-clock-untimed"), "{name} moved");
    }
    // Figure 1 sweeps three plans over nine selectivities; the memory map
    // is nine grants by nine sizes at `--grid 8`.
    for (id, cells) in [("fig1", 27), ("ext_memory", 81)] {
        let csv = std::fs::read_to_string(real.join(format!("{id}_real.csv"))).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("cell,sim_s,real_ns,rows,iqr_ns"), "{id}");
        for (i, line) in lines.by_ref().enumerate() {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 5, "{id}: {line}");
            assert_eq!(fields[0], i.to_string(), "{id}: {line}");
            assert!(fields[1].parse::<f64>().is_ok_and(|s| s > 0.0), "{id}: {line}");
            assert!(fields[2].parse::<u64>().is_ok_and(|ns| ns > 0), "{id}: {line}");
        }
        assert_eq!(csv.lines().count(), cells + 1, "{id}");
    }
    let both = figures("cli-real-clock-trace", &["--trace", "t.json", "--real-clock", "r", "fig1"]);
    assert_usage_error(&both, "do not combine");
}

#[test]
fn trace_without_a_path_is_a_usage_error() {
    assert_usage_error(&figures("cli-trace-usage", &["fig1", "--trace"]), "--trace needs a path");
}

#[test]
fn unknown_figure_is_a_usage_error() {
    assert_usage_error(&figures("cli-unknown", &["fig99"]), "unknown figure: fig99");
}

#[test]
fn too_few_rows_is_a_usage_error_not_a_panic() {
    for rows in ["0", "3", "many"] {
        let out = figures("cli-rows", &["--rows", rows, "fig1"]);
        assert_usage_error(&out, "--rows needs a number, at least 4");
    }
}

#[test]
fn an_uncreatable_out_dir_is_a_usage_error_not_a_panic() {
    // A path below a regular file can never be created.
    let blocker = std::path::Path::new("target/figures-test/cli-blocker");
    std::fs::create_dir_all("target/figures-test").expect("create test directory");
    std::fs::write(blocker, "not a directory").expect("write blocker file");
    let below = blocker.join("x");
    let out = figures("cli-unused", &["--out", below.to_str().expect("utf-8 path"), "fig1"]);
    assert_usage_error(&out, "--out target/figures-test/cli-blocker/x");
}

#[test]
fn help_documents_the_exit_codes() {
    let out = figures("cli-help", &["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    for needle in ["exit status: 0", "1 the gate failed", "2 usage error", "ext_correlated"] {
        assert!(stdout.contains(needle), "--help lacks {needle:?}:\n{stdout}");
    }
}
