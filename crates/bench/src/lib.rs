//! # robustmap-bench
//!
//! The figure-regeneration harness: one function per figure of the paper
//! (and per extension experiment), each of which measures the maps, prints
//! the same series/statistics the paper's figure shows, and writes CSV +
//! SVG artifacts.  [`FIGURES`] is the one table of them; [`gate`] is the
//! one definition of "this run is green".
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p robustmap-bench --bin figures -- all
//! ```
//!
//! or a single figure with `-- fig7`, etc.  The crate times nothing: the
//! figures read the simulated clock, `tests/gate.rs` pins every artifact
//! at [`Harness::tiny`] scale, and the real clock is measured only by the
//! repository's `benchmark/` package.
//!
//! The paper's figures live in [`paper`]; the extension experiments — the
//! opportunities the paper names but does not pursue (§3.3) and the future
//! work it sketches (§4) — are grouped by what they sweep: [`operators`]
//! (one operator's knobs and resources), [`systems`] (the fifteen-plan
//! catalog compared and regression-gated), [`choice`] (plan choice under
//! estimation error, over the shared [`lab`]) and [`serving`] (concurrent
//! bursts and their traces).

pub mod choice;
pub mod harness;
pub mod lab;
pub mod operators;
pub mod paper;
pub mod serving;
pub mod systems;

pub use harness::{FigureOutput, Harness, HarnessConfig};

/// One row of the figure table.
pub struct Figure {
    /// Figure id, as the `figures` binary accepts it.
    pub name: &'static str,
    /// Regenerate the figure against a harness.
    pub run: fn(&Harness) -> FigureOutput,
}

/// Every figure known to the harness, in presentation order.
pub const FIGURES: &[Figure] = &[
    Figure { name: "legends", run: paper::legends },
    Figure { name: "fig1", run: paper::fig1 },
    Figure { name: "fig2", run: paper::fig2 },
    Figure { name: "fig4", run: paper::fig4 },
    Figure { name: "fig5", run: paper::fig5 },
    Figure { name: "fig7", run: paper::fig7 },
    Figure { name: "fig8", run: paper::fig8 },
    Figure { name: "fig9", run: paper::fig9 },
    Figure { name: "fig10", run: paper::fig10 },
    Figure { name: "ext_sort_spill", run: operators::ext_sort_spill },
    Figure { name: "ext_memory", run: operators::ext_memory },
    Figure { name: "ext_worst", run: systems::ext_worst },
    Figure { name: "ext_shootout", run: systems::ext_shootout },
    Figure { name: "ext_ablation", run: operators::ext_ablation },
    Figure { name: "ext_buffer", run: operators::ext_buffer },
    Figure { name: "ext_join", run: operators::ext_join },
    Figure { name: "ext_parallel", run: operators::ext_parallel },
    Figure { name: "ext_skew", run: operators::ext_skew },
    Figure { name: "ext_optimizer", run: choice::ext_optimizer },
    Figure { name: "ext_correlated", run: choice::ext_correlated },
    Figure { name: "ext_robust_choice", run: choice::ext_robust_choice },
    Figure { name: "ext_adaptive", run: choice::ext_adaptive },
    Figure { name: "ext_concurrency", run: serving::ext_concurrency },
    Figure { name: "ext_trace", run: serving::ext_trace },
    Figure { name: "ext_churn", run: choice::ext_churn },
    Figure { name: "ext_regression", run: systems::ext_regression },
];

/// Look a figure up by id.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Run one named figure against a harness, stamping
/// [`FigureOutput::name`] from the table and
/// [`FigureOutput::wall_seconds`] with the real time the regeneration
/// took.  Unknown names return `None`.
pub fn run_figure(h: &Harness, name: &str) -> Option<FigureOutput> {
    let fig = figure(name)?;
    let t0 = std::time::Instant::now();
    let mut out = (fig.run)(h);
    out.name = fig.name;
    out.wall_seconds = t0.elapsed().as_secs_f64();
    Some(out)
}

/// What [`gate`] found over a run's outputs.
#[derive(Debug)]
pub struct GateReport {
    /// The `figures` binary's closing line, e.g. `checks: 88 in 8 reports,
    /// 0 failed, 1 diverging; 64 artifacts` — a diverging check is a failed
    /// one that [`crate::paper::PAPER_DIVERGENCES`] reports and the gate
    /// does not fail on.
    pub summary: String,
    /// One line per failed check and per missing or empty artifact, each
    /// naming its figure; empty when the run is green.
    pub failures: Vec<String>,
}

/// The one gate: every artifact a figure says it wrote exists and is
/// non-empty, and every named check it carries PASSes.  The `figures`
/// binary exits non-zero on it and the tests assert it.
pub fn gate(outputs: &[FigureOutput]) -> GateReport {
    let (mut checks, mut reports, mut failed, mut diverging, mut artifacts) = (0, 0, 0, 0, 0);
    let mut failures = Vec::new();
    for out in outputs {
        for file in &out.files {
            artifacts += 1;
            let problem = match std::fs::metadata(file) {
                Ok(meta) if meta.len() > 0 => continue,
                Ok(_) => "is empty".to_string(),
                Err(e) => format!("is missing ({e})"),
            };
            failures.push(format!("{}: artifact {} {problem}", out.name, file.display()));
        }
        if let Some(suite) = &out.checks {
            reports += 1;
            checks += suite.results.len();
            diverging += suite.results.iter().filter(|r| r.diverges.is_some()).count();
            for r in suite.results.iter().filter(|r| r.fails()) {
                failed += 1;
                failures.push(format!("{}: check FAILED: {} — {}", out.name, r.name, r.details));
            }
        }
    }
    let summary = format!(
        "checks: {checks} in {reports} reports, {failed} failed, {diverging} diverging; \
         {artifacts} artifacts"
    );
    GateReport { summary, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_figure_is_runnable() {
        let h = Harness::tiny();
        for name in FIGURES.iter().map(|f| f.name) {
            let out = run_figure(&h, name).expect("known figure");
            assert_eq!(out.name, name, "{name}: id not stamped from the table");
            assert!(!out.report.is_empty(), "{name} produced an empty report");
            assert!(out.wall_seconds > 0.0, "{name} wall time not stamped");
        }
    }

    #[test]
    fn unknown_figure_is_none() {
        let h = Harness::tiny();
        assert!(run_figure(&h, "fig99").is_none());
    }
}
