//! The gate, from both sides: synthetic outputs that must fail it with a
//! message naming figure and file, and the real all-figures pass that must
//! be green, keep its named-check counts, and match `baselines/MANIFEST`
//! artifact for artifact.
//!
//! The MANIFEST pins every artifact of `figures all` at `Harness::tiny()`,
//! one line each: `<len> <fx64:016x> <name>`, the digest being
//! `robustmap_storage::FxHasher` over the file's bytes.  A deliberate
//! cost-model change regenerates it: the failing test writes
//! `target/MANIFEST.actual`; review the listed artifacts and copy it over
//! `baselines/MANIFEST`.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use robustmap_bench::{gate, run_figure, FigureOutput, Harness, FIGURES};
use robustmap_core::{MeasureConfig, RegressionSuite};
use robustmap_obs::trace::{TraceDetail, TraceSink};
use robustmap_storage::FxHasher;

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

/// The figures regenerated under the independence conditions: between them
/// they cover scans and fetches, spilling sorts, both joins and served
/// bursts.
const INDEPENDENCE_FIGURES: [&str; 4] = ["fig1", "ext_sort_spill", "ext_join", "ext_concurrency"];

/// The MANIFEST lines of `outputs`' artifacts, keyed and sorted by file
/// name.  Panics when two figures wrote one name.
fn manifest_of(outputs: &[FigureOutput]) -> BTreeMap<String, String> {
    let mut writer = HashMap::new();
    let mut lines = BTreeMap::new();
    for out in outputs {
        for file in &out.files {
            let name = file.file_name().expect("artifact file name").to_string_lossy().into_owned();
            if let Some(other) = writer.insert(name.clone(), out.name) {
                panic!("{other} and {} both wrote {name:?}", out.name);
            }
            let bytes = std::fs::read(file).expect("gated artifact");
            let mut fx = FxHasher::default();
            fx.write(&bytes);
            lines.insert(name.clone(), format!("{} {:016x} {name}", bytes.len(), fx.finish()));
        }
    }
    lines
}

/// Every disagreement between the `committed` MANIFEST text and `actual`,
/// one line each naming its artifact: moved, unlisted, or stale.
fn manifest_mismatches(committed: &str, actual: &BTreeMap<String, String>) -> Vec<String> {
    let want: BTreeMap<&str, &str> = committed
        .lines()
        .map(|line| (line.splitn(3, ' ').nth(2).unwrap_or(line), line))
        .collect();
    let mut problems = Vec::new();
    for (name, got) in actual {
        match want.get(name.as_str()) {
            None => problems.push(format!("{name}: no MANIFEST line (actual `{got}`)")),
            Some(line) if line != got => {
                problems.push(format!("{name}: moved (MANIFEST `{line}`, actual `{got}`)"))
            }
            Some(_) => {}
        }
    }
    for (name, line) in want {
        if !actual.contains_key(name) {
            problems.push(format!("{name}: MANIFEST line `{line}` matches no artifact"));
        }
    }
    problems
}

#[test]
fn the_manifest_names_every_artifact_that_moved_appeared_or_vanished() {
    let h = tiny_writing_to("gate-manifest");
    let files =
        vec![h.write_artifact("m.csv", "a,b\n1,2\n"), h.write_artifact("m.svg", "<svg/>\n")];
    let outputs = [synthetic("fig_m", files, None)];
    let actual = manifest_of(&outputs);
    let committed: String = actual.values().map(|line| format!("{line}\n")).collect();
    assert!(manifest_mismatches(&committed, &actual).is_empty());

    let fails_naming = |committed: &str, outputs: &[FigureOutput], name: &str| {
        let problems = manifest_mismatches(committed, &manifest_of(outputs));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with(&format!("{name}: ")), "{problems:?}");
    };
    let mut bytes = std::fs::read(&outputs[0].files[0]).expect("m.csv");
    bytes[2] ^= 1;
    std::fs::write(&outputs[0].files[0], bytes).expect("flip a byte of m.csv");
    fails_naming(&committed, &outputs, "m.csv");
    h.write_artifact("m.csv", "a,b\n1,2\n");

    let extra = synthetic("fig_n", vec![h.write_artifact("n.txt", "new\n")], None);
    fails_naming(&committed, &[outputs[0].clone(), extra], "n.txt");
    fails_naming(&format!("{committed}7 0123456789abcdef gone.csv\n"), &outputs, "gone.csv");

    let twice = synthetic("fig_twice", outputs[0].files.clone(), None);
    let clash = std::panic::catch_unwind(|| manifest_of(&[outputs[0].clone(), twice]));
    assert!(clash.is_err(), "two figures writing one name went unnoticed");
}

#[test]
fn every_figure_passes_the_gate_and_matches_the_manifest() {
    // `Harness::tiny()` is the smoke scale the MANIFEST was written at.
    let h = tiny_writing_to("gate");
    let outputs: Vec<FigureOutput> =
        FIGURES.iter().map(|f| run_figure(&h, f.name).expect("known figure")).collect();
    for out in &outputs {
        let want = CHECK_COUNTS.iter().find(|(n, _)| *n == out.name).map(|&(_, c)| c);
        let got = out.checks.as_ref().map(|s| s.results.len());
        assert_eq!(got, want, "{}: named-check count moved", out.name);
    }
    let g = gate(&outputs);
    assert!(g.failures.is_empty(), "{}\n{}", g.summary, g.failures.join("\n"));
    assert!(g.summary.starts_with("checks: 88 in 8 reports, 0 failed;"), "{}", g.summary);

    // Simulated costs must not move, however the executor or the scheduler
    // is rearranged.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/MANIFEST");
    let committed = std::fs::read_to_string(&manifest).expect("baselines/MANIFEST");
    let actual = manifest_of(&outputs);
    let problems = manifest_mismatches(&committed, &actual);
    if !problems.is_empty() {
        std::fs::create_dir_all("target").expect("create target/");
        let text: String = actual.values().map(|line| format!("{line}\n")).collect();
        std::fs::write("target/MANIFEST.actual", text).expect("write actual manifest");
        panic!(
            "{} artifacts disagree with baselines/MANIFEST:\n{}\nfull manifest written to \
             target/MANIFEST.actual",
            problems.len(),
            problems.join("\n")
        );
    }

    // Independence at figure scale: these figures, regenerated
    // single-threaded with every session and burst traced at full detail,
    // write the same bytes — every artifact of theirs.
    let mut independent = tiny_writing_to("gate-independence");
    independent.config.measure = MeasureConfig {
        threads: 1,
        trace: Some(Arc::new(TraceSink::memory_with_cap(TraceDetail::Full, 1 << 12))),
        ..independent.config.measure
    };
    let again: Vec<FigureOutput> = INDEPENDENCE_FIGURES
        .iter()
        .map(|n| run_figure(&independent, n).expect("known figure"))
        .collect();
    for (name, line) in manifest_of(&again) {
        assert_eq!(actual.get(&name), Some(&line), "{name} moved under the independence conditions");
    }
}
