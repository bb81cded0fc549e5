//! Regenerate the paper's figures (and the extension experiments).
//!
//! ```text
//! cargo run --release -p robustmap-bench --bin figures -- all
//! cargo run --release -p robustmap-bench --bin figures -- fig1 fig7
//! cargo run --release -p robustmap-bench --bin figures -- --rows 4194304 --grid 16 all
//! cargo run --release -p robustmap-bench --bin figures -- --trace target/trace.json all
//! ```
//!
//! Reports print to stdout; CSV/SVG artifacts land in `target/figures/`.
//! Progress lines honor `ROBUSTMAP_LOG` (quiet / normal / verbose);
//! `--trace PATH` (or `ROBUSTMAP_TRACE=PATH`) records a charge-free
//! execution trace of the whole run and writes Chrome trace-event JSON,
//! an operator-profile CSV, and a metrics dump next to `PATH` at exit.

use robustmap_bench::{run_figure, Harness, HarnessConfig, ALL_FIGURES};
use robustmap_obs::{progress, verbose, warn};

fn main() {
    let mut config = HarnessConfig::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rows" => {
                config.rows = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--rows needs a number"));
            }
            "--grid" => {
                config.grid_exp = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--grid needs an exponent"));
            }
            "--out" => {
                config.out_dir = args.next().unwrap_or_else(|| die("--out needs a path")).into();
            }
            "--threads" => {
                config.measure.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--trace" => {
                let path = args.next().unwrap_or_else(|| die("--trace needs a path"));
                let detail = robustmap_obs::trace::detail_from_env();
                if !robustmap_obs::trace::enable_global(std::path::Path::new(&path), detail) {
                    warn!("--trace {path}: a trace sink is already installed; flag ignored");
                }
            }
            "all" => wanted.extend(ALL_FIGURES.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                println!(
                    "usage: figures [--rows N] [--grid EXP] [--out DIR] [--threads N] \
                     [--trace PATH] <all | {}>",
                    ALL_FIGURES.join(" | ")
                );
                return;
            }
            name => wanted.push(name.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.extend(ALL_FIGURES.iter().map(|s| s.to_string()));
    }
    wanted.dedup();
    // Reject typos before spending seconds building the workload.
    for name in &wanted {
        if !ALL_FIGURES.contains(&name.as_str()) {
            die(&format!("unknown figure: {name} (see --help)"));
        }
    }

    progress!(
        "building workload: {} rows, grid 2^-{}..1, artifacts in {}",
        config.rows,
        config.grid_exp,
        config.out_dir.display()
    );
    let total = std::time::Instant::now();
    let t0 = std::time::Instant::now();
    let harness = Harness::new(config);
    progress!("workload ready in {:.1?}\n", t0.elapsed());
    // Announce the run so shared sweeps (System A map carved from the
    // all-systems map) kick in.
    harness.plan_for(&wanted);

    let mut timings: Vec<(String, f64)> = Vec::new();
    for name in &wanted {
        match run_figure(&harness, name) {
            Some(out) => {
                println!("================================================================");
                println!("{}", out.report);
                for f in &out.files {
                    verbose!("  wrote {}", f.display());
                }
                progress!("[{name}] done in {:.1}s ({} artifacts)", out.wall_seconds, out.files.len());
                timings.push((out.name, out.wall_seconds));
            }
            None => unreachable!("names were validated against ALL_FIGURES"),
        }
    }

    // Per-figure sweep wall times, for orientation only: `benchmark/` is
    // the performance ledger.
    progress!("\nsweep wall time per figure:");
    for (name, secs) in &timings {
        progress!("  {name:<16} {secs:>8.2}s");
    }
    progress!("  {:<16} {:>8.2}s (incl. workload)", "total", total.elapsed().as_secs_f64());
    // Flush the process-wide trace, if one was installed (--trace or
    // ROBUSTMAP_TRACE).
    match robustmap_obs::trace::flush_global() {
        Ok(Some(files)) => {
            for f in &files {
                progress!("wrote trace artifact {}", f.display());
            }
        }
        Ok(None) => {}
        Err(e) => warn!("could not write trace artifacts: {e}"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
