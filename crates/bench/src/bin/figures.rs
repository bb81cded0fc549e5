//! Regenerate the paper's figures (and the extension experiments), then
//! gate the run: every artifact non-empty, every named check PASS.
//!
//! ```text
//! cargo run --release -p robustmap-bench --bin figures -- all
//! cargo run --release -p robustmap-bench --bin figures -- fig1 fig7
//! cargo run --release -p robustmap-bench --bin figures -- --rows 4194304 --grid 16 all
//! cargo run --release -p robustmap-bench --bin figures -- --trace target/trace.json all
//! cargo run --release -p robustmap-bench --bin figures -- --real-clock target/real ext_memory
//! ```
//!
//! Reports print to stdout; CSV/SVG artifacts land in `target/figures/`.
//! Progress lines honor `ROBUSTMAP_LOG` (quiet / normal / verbose);
//! `--trace PATH` records a charge-free, span-level execution trace of
//! every measured session and served burst of the run — this binary owns
//! the sink and hands it down in `HarnessConfig::measure` — and writes
//! Chrome trace-event JSON at `PATH`, with an operator-profile CSV and a
//! metrics dump next to it, at exit.
//! `--real-clock DIR` runs every cell of a sweep five times on one thread
//! and writes `DIR/<id>_real.csv` per figure: each cell's simulated
//! seconds, median host nanoseconds, rows and interquartile range, in run
//! order (`core::measure::RealClock`).  Those files are no artifacts of
//! the figure: the gate neither reads nor counts them.
//! The last line of stdout is the gate's summary; the exit status is 0
//! when it is green, 1 when it is not, 2 on a usage error.

use std::path::PathBuf;
use std::sync::Arc;

use robustmap_bench::{figure, gate, run_figure, Harness, HarnessConfig, FIGURES};
use robustmap_core::RealClock;
use robustmap_obs::trace::{write_artifacts, TraceDetail, TraceSink};
use robustmap_obs::{progress, verbose, warn};

fn main() {
    let mut config = HarnessConfig::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut trace_path: Option<PathBuf> = None;
    let mut real_dir: Option<PathBuf> = None;
    let all = || FIGURES.iter().map(|f| f.name.to_string());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rows" => {
                // Smaller tables cannot be calibrated (the builder asserts).
                config.rows = number(&mut args, "--rows needs a number, at least 4");
                if config.rows < 4 {
                    die("--rows needs a number, at least 4");
                }
            }
            "--grid" => config.grid_exp = number(&mut args, "--grid needs an exponent"),
            "--out" => {
                config.out_dir = args.next().unwrap_or_else(|| die("--out needs a path")).into();
            }
            "--threads" => config.measure.threads = number(&mut args, "--threads needs a number"),
            "--trace" => {
                let path = args.next().unwrap_or_else(|| die("--trace needs a path"));
                trace_path = Some(path.into());
                config.measure.trace = Some(Arc::new(TraceSink::memory(TraceDetail::Spans)));
            }
            "--real-clock" => {
                real_dir =
                    Some(args.next().unwrap_or_else(|| die("--real-clock needs a path")).into());
                config.measure.real_clock = Some(Arc::new(RealClock::default()));
            }
            "all" => wanted.extend(all()),
            "--help" | "-h" => {
                println!(
                    "usage: figures [--rows N] [--grid EXP] [--out DIR] [--threads N] \
                     [--trace PATH] [--real-clock DIR] <all | {}>\n\
                     exit status: 0 every artifact written and every check PASS, \
                     1 the gate failed, 2 usage error",
                    all().collect::<Vec<_>>().join(" | ")
                );
                return;
            }
            name => wanted.push(name.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.extend(all());
    }
    if let Some(dir) = &real_dir {
        if trace_path.is_some() {
            die("--trace and --real-clock do not combine: a timed cell runs five times");
        }
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("--real-clock {}: {e}", dir.display())));
    }
    // Each figure runs once, wherever else the command line repeats it.
    let mut seen = std::collections::HashSet::new();
    wanted.retain(|name| seen.insert(name.clone()));
    // Reject typos before spending seconds building the workload.
    for name in &wanted {
        if figure(name).is_none() {
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
    let out_dir = config.out_dir.clone();
    let harness = Harness::new(config)
        .unwrap_or_else(|e| die(&format!("--out {}: {e}", out_dir.display())));
    progress!("workload ready in {:.1?}\n", total.elapsed());

    let mut outputs = Vec::new();
    for name in &wanted {
        let out = run_figure(&harness, name).expect("names were validated against FIGURES");
        println!("================================================================");
        println!("{}", out.report);
        for f in &out.files {
            verbose!("  wrote {}", f.display());
        }
        progress!("[{name}] done in {:.1}s ({} artifacts)", out.wall_seconds, out.files.len());
        if let (Some(clock), Some(dir)) = (&harness.config.measure.real_clock, &real_dir) {
            let cells = clock.take();
            let path = dir.join(format!("{name}_real.csv"));
            match std::fs::write(&path, RealClock::csv(&cells)) {
                Ok(()) => progress!("wrote {} ({} cells)", path.display(), cells.len()),
                Err(e) => warn!("could not write {}: {e}", path.display()),
            }
        }
        outputs.push(out);
    }

    // Per-figure sweep wall times, for orientation only: `benchmark/` is
    // the performance ledger.
    progress!("\nsweep wall time per figure:");
    for out in &outputs {
        progress!("  {:<16} {:>8.2}s", out.name, out.wall_seconds);
    }
    progress!("  {:<16} {:>8.2}s (incl. workload)", "total", total.elapsed().as_secs_f64());
    if let (Some(sink), Some(path)) = (&harness.config.measure.trace, &trace_path) {
        match write_artifacts(sink, path) {
            Ok(files) => {
                for f in &files {
                    progress!("wrote trace artifact {}", f.display());
                }
            }
            Err(e) => warn!("could not write trace artifacts: {e}"),
        }
    }

    let verdict = gate(&outputs);
    for failure in &verdict.failures {
        eprintln!("gate: {failure}");
    }
    println!("{}", verdict.summary);
    if !verdict.failures.is_empty() {
        std::process::exit(1);
    }
}

/// The next argument as a number, or the usage error `what`.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, what: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| die(what))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
