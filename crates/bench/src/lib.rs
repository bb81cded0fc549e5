//! # robustmap-bench
//!
//! The figure-regeneration harness: one function per figure of the paper
//! (and per extension experiment), each of which measures the maps, prints
//! the same series/statistics the paper's figure shows, and writes CSV +
//! SVG artifacts.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p robustmap-bench --bin figures -- all
//! ```
//!
//! or a single figure with `-- fig7`, etc.  Criterion benchmarks under
//! `benches/` exercise the same code paths at reduced scale so `cargo
//! bench` regenerates every figure and times the substrate.

pub mod figures_ext;
pub mod figures_paper;
pub mod harness;

pub use harness::{FigureOutput, Harness, HarnessConfig};

/// All figure names known to the harness, in presentation order.
pub const ALL_FIGURES: &[&str] = &[
    "legends",
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ext_sort_spill",
    "ext_memory",
    "ext_worst",
    "ext_shootout",
    "ext_ablation",
    "ext_buffer",
    "ext_join",
    "ext_parallel",
    "ext_skew",
    "ext_optimizer",
    "ext_correlated",
    "ext_robust_choice",
    "ext_adaptive",
    "ext_concurrency",
    "ext_trace",
    "ext_churn",
    "ext_regression",
];

/// Run one named figure against a harness, stamping
/// [`FigureOutput::wall_seconds`] with the real time the regeneration
/// took.  Unknown names return `None`.
pub fn run_figure(h: &Harness, name: &str) -> Option<FigureOutput> {
    let t0 = std::time::Instant::now();
    let mut out = run_figure_inner(h, name)?;
    out.wall_seconds = t0.elapsed().as_secs_f64();
    Some(out)
}

fn run_figure_inner(h: &Harness, name: &str) -> Option<FigureOutput> {
    Some(match name {
        "legends" => figures_paper::legends(h),
        "fig1" => figures_paper::fig1(h),
        "fig2" => figures_paper::fig2(h),
        "fig4" => figures_paper::fig4(h),
        "fig5" => figures_paper::fig5(h),
        "fig7" => figures_paper::fig7(h),
        "fig8" => figures_paper::fig8(h),
        "fig9" => figures_paper::fig9(h),
        "fig10" => figures_paper::fig10(h),
        "ext_sort_spill" => figures_ext::ext_sort_spill(h),
        "ext_memory" => figures_ext::ext_memory(h),
        "ext_worst" => figures_ext::ext_worst(h),
        "ext_shootout" => figures_ext::ext_shootout(h),
        "ext_ablation" => figures_ext::ext_ablation(h),
        "ext_buffer" => figures_ext::ext_buffer(h),
        "ext_join" => figures_ext::ext_join(h),
        "ext_parallel" => figures_ext::ext_parallel(h),
        "ext_skew" => figures_ext::ext_skew(h),
        "ext_optimizer" => figures_ext::ext_optimizer(h),
        "ext_correlated" => figures_ext::ext_correlated(h),
        "ext_robust_choice" => figures_ext::ext_robust_choice(h),
        "ext_adaptive" => figures_ext::ext_adaptive(h),
        "ext_concurrency" => figures_ext::ext_concurrency(h),
        "ext_trace" => figures_ext::ext_trace(h),
        "ext_churn" => figures_ext::ext_churn(h),
        "ext_regression" => figures_ext::ext_regression(h),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_figure_is_runnable() {
        let h = Harness::tiny();
        h.plan_for(ALL_FIGURES);
        for name in ALL_FIGURES {
            let out = run_figure(&h, name).expect("known figure");
            assert!(!out.report.is_empty(), "{name} produced an empty report");
            assert!(out.wall_seconds > 0.0, "{name} wall time not stamped");
        }
    }

    #[test]
    fn needs_all_systems_list_matches_figure_behaviour() {
        // The shared-sweep bookkeeping is a hand-maintained list; this
        // pins it to what the figure bodies actually do.  Each figure runs
        // on its own harness with nothing announced, so `map_all` is built
        // exactly when the figure itself asks for it.
        for name in ALL_FIGURES {
            let h = Harness::tiny();
            run_figure(&h, name).expect("known figure");
            assert_eq!(
                h.map_all_is_built(),
                crate::harness::NEEDS_ALL_SYSTEMS.contains(name),
                "{name}: NEEDS_ALL_SYSTEMS out of sync with actual map_all_systems() usage"
            );
        }
    }

    #[test]
    fn unknown_figure_is_none() {
        let h = Harness::tiny();
        assert!(run_figure(&h, "fig99").is_none());
    }
}
