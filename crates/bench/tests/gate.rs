//! The gate, from both sides: synthetic outputs that must fail it with a
//! message naming figure and file, and the real all-figures pass that must
//! be green, match the committed byte baselines, and keep its named-check
//! counts.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use robustmap_bench::{gate, run_figure, FigureOutput, Harness, FIGURES};
use robustmap_core::{MeasureConfig, RegressionSuite};
use robustmap_executor::ExecConfig;
use robustmap_obs::trace::{TraceDetail, TraceSink};

/// A tiny harness writing under `target/figures-test/<dir>`: the other
/// suites rewrite `target/figures-test` concurrently.
fn tiny_writing_to(dir: &str) -> Harness {
    let mut h = Harness::tiny();
    h.config.out_dir.push(dir);
    std::fs::create_dir_all(h.out_dir()).expect("create output directory");
    h
}

fn synthetic(
    name: &'static str,
    files: Vec<PathBuf>,
    checks: Option<RegressionSuite>,
) -> FigureOutput {
    FigureOutput { name, checks, ..FigureOutput::new("report\n".into(), files) }
}

#[test]
fn a_failed_check_fails_the_gate_naming_figure_and_check() {
    let mut suite = RegressionSuite::new();
    suite.check_named("holds", true, String::new());
    suite.check_named("cost stays bounded", false, "9x over".into());
    let g = gate(&[synthetic("fig_synthetic", Vec::new(), Some(suite))]);
    assert_eq!(g.summary, "checks: 2 in 1 reports, 1 failed; 0 artifacts");
    assert_eq!(g.failures.len(), 1, "{:?}", g.failures);
    assert!(g.failures[0].contains("fig_synthetic"), "{:?}", g.failures);
    assert!(g.failures[0].contains("cost stays bounded"), "{:?}", g.failures);
}

#[test]
fn an_empty_or_missing_artifact_fails_the_gate_naming_figure_and_file() {
    let h = tiny_writing_to("gate-synthetic");
    let full = h.write_artifact("full.csv", "a,b\n1,2\n");
    let empty = h.write_artifact("empty.csv", "");
    let missing = h.out_dir().join("never_written.svg");
    let green = gate(&[synthetic("fig_ok", vec![full.clone()], None)]);
    assert!(green.failures.is_empty(), "{:?}", green.failures);
    assert_eq!(green.summary, "checks: 0 in 0 reports, 0 failed; 1 artifacts");

    let g = gate(&[synthetic("fig_bad", vec![full, empty, missing], None)]);
    assert_eq!(g.failures.len(), 2, "{:?}", g.failures);
    assert!(g.failures[0].contains("fig_bad") && g.failures[0].contains("empty.csv"));
    assert!(g.failures[0].contains("is empty"), "{:?}", g.failures);
    assert!(g.failures[1].contains("fig_bad") && g.failures[1].contains("never_written.svg"));
    assert!(g.failures[1].contains("is missing"), "{:?}", g.failures);
}

#[test]
fn an_unwritable_artifact_fails_its_figure_not_the_run() {
    let h = tiny_writing_to("gate-unwritable");
    std::fs::remove_dir_all(h.out_dir()).expect("remove output directory");
    let out = run_figure(&h, "legends").expect("known figure");
    let g = gate(&[out]);
    assert_eq!(g.failures.len(), 2, "{:?}", g.failures);
    let named = |f: &String| f.starts_with("legends: artifact ") && f.contains("is missing");
    assert!(g.failures.iter().all(named), "{:?}", g.failures);
}

/// Named checks per figure at the smoke scale.  A figure that loses a
/// check fails here, not in a shell-arithmetic floor.
const CHECK_COUNTS: &[(&str, usize)] = &[
    ("ext_optimizer", 5),
    ("ext_correlated", 17),
    ("ext_robust_choice", 8),
    ("ext_adaptive", 7),
    ("ext_concurrency", 8),
    ("ext_trace", 7),
    ("ext_churn", 8),
    ("ext_regression", 28),
];

/// Compare every artifact that has a same-named file under `baselines`;
/// returns how many were compared.  Panics on drift or when two figures
/// wrote one file name.
fn compare_to_baselines(outputs: &[FigureOutput], baselines: &Path) -> usize {
    let mut writer = HashMap::new();
    let mut compared = 0;
    for out in outputs {
        for file in &out.files {
            let name = file.file_name().expect("artifact file name").to_owned();
            if let Some(other) = writer.insert(name.clone(), out.name) {
                panic!("{other} and {} both wrote {name:?}", out.name);
            }
            if let Ok(want) = std::fs::read(baselines.join(&name)) {
                let got = std::fs::read(file).expect("gated artifact");
                assert!(got == want, "{}: {name:?} drifted from its baseline", out.name);
                compared += 1;
            }
        }
    }
    compared
}

#[test]
fn every_figure_passes_the_gate_and_matches_its_baselines() {
    // `Harness::tiny()` is the smoke scale the committed baselines were
    // generated at.
    let h = tiny_writing_to("gate");
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    h.plan_for(&names);
    let outputs: Vec<FigureOutput> =
        names.iter().map(|n| run_figure(&h, n).expect("known figure")).collect();
    for out in &outputs {
        let want = CHECK_COUNTS.iter().find(|(n, _)| *n == out.name).map(|&(_, c)| c);
        let got = out.checks.as_ref().map(|s| s.results.len());
        assert_eq!(got, want, "{}: named-check count moved", out.name);
    }
    let g = gate(&outputs);
    assert!(g.failures.is_empty(), "{}\n{}", g.summary, g.failures.join("\n"));
    assert!(g.summary.starts_with("checks: 88 in 8 reports, 0 failed;"), "{}", g.summary);

    // Byte baselines are derived from the directory: simulated costs must
    // not drift, however the executor or the scheduler is rearranged;
    // regenerate a baseline only for a deliberate cost-model change.
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let committed = std::fs::read_dir(&baselines).expect("baselines directory").count();
    let compared = compare_to_baselines(&outputs, &baselines);
    assert_eq!(compared, committed, "a baseline file was matched by no artifact");

    // Independence at figure scale: the figures that own the baselines,
    // regenerated single-threaded at an odd batch size with every session
    // and burst traced at full detail, write the same bytes.
    let mut odd = tiny_writing_to("gate-independence");
    odd.config.measure = MeasureConfig {
        threads: 1,
        exec: ExecConfig::with_batch_rows(513),
        trace: Some(Arc::new(TraceSink::memory_with_cap(TraceDetail::Full, 1 << 12))),
        ..odd.config.measure
    };
    let owners = outputs.iter().filter(|out| {
        out.files.iter().any(|f| baselines.join(f.file_name().expect("file name")).exists())
    });
    let again: Vec<FigureOutput> =
        owners.map(|out| run_figure(&odd, out.name).expect("known figure")).collect();
    assert_eq!(compare_to_baselines(&again, &baselines), committed);

    // The comparison has teeth: a one-byte drift in a baseline is caught.
    let drifted = h.out_dir().join("drifted-baselines");
    std::fs::create_dir_all(&drifted).expect("create scratch baselines");
    let mut bytes = std::fs::read(baselines.join("fig1.csv")).expect("fig1 baseline");
    *bytes.last_mut().expect("non-empty baseline") ^= 1;
    std::fs::write(drifted.join("fig1.csv"), bytes).expect("write drifted baseline");
    let caught = std::panic::catch_unwind(|| compare_to_baselines(&outputs, &drifted));
    assert!(caught.is_err(), "a drifted fig1.csv baseline went unnoticed");
}
