//! The repository benchmark: four seeded workloads over the robustmap
//! layers, six end-to-end metrics each, and a per-layer ledger — all
//! measured from outside, by timing calls into the layers' public
//! functions.  See `benchmark/README.md` for what each number means and
//! `benchmark/run.sh` for the one command that builds and runs it.

mod compare;
mod env;
mod json;
mod layers;
mod oracle;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use robustmap_workload::{cache, TableBuilder, Workload, WorkloadConfig};

use crate::env::{Calibration, Cost, CpuSet, Stopwatch, REFERENCE_MS};
use crate::json::Value;
use crate::oracle::Truth;
use crate::report::{result_line, Metrics, END_TO_END, PER_LAYER};
use crate::spans::{Layer, Recorder};
use crate::stats::{iqr_share, median, typical_total};
use crate::workloads::{PassOutput, Scenario, Step};

/// The seed the figures use; `--seed` replaces it.
const DEFAULT_SEED: u64 = 0xC1D2_2009;
/// How long a run measures when `--seconds` is not given: half goes to the
/// passes, the fresh processes take about the other half.
/// `BENCHMARK.json` passes the same number.
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-up is repeated until it has had this many seconds, within these
/// counts, and reported as a median: one round is 0.06 to 0.3 s, too
/// short for a shared machine to time steadily.
const SETUP_SECONDS: f64 = 2.5;
const SETUP_ROUNDS: std::ops::RangeInclusive<usize> = 5..=25;
/// Fresh processes that each time a first pass, besides this one.
const COLD_PROCESSES: usize = 4;
/// Fewest passes a run reports medians over.
const MIN_PASSES: usize = 3;
/// A run is `noisy` when the calibration kernel's speed moved by more
/// than this share between its halves, or the hypervisor took more than
/// this share of the CPU time the passes held.
const NOISY_SHARE: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    figures_bin: Option<PathBuf>,
    /// Set in the fresh processes a run starts for its cold passes: the
    /// cache directory that holds the table.
    cold_pass_from: Option<PathBuf>,
    /// Sweep threads; the run's memory process asks for one.
    threads: usize,
}

fn usage() -> String {
    format!(
        "usage: robustmap-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--figures-bin PATH]\n       \
         robustmap-benchmark compare <DIR_A> <DIR_B> <BENCHMARK.json>",
        workloads::NAMES.join("|")
    )
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: PathBuf::from("target/benchmark"),
        figures_bin: None,
        cold_pass_from: None,
        threads: workloads::sweep_threads(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                args.seed = parse_seed(v).ok_or_else(|| format!("--seed: not a number: {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds: want a number in (0, 600], got {v}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: want 0 or 1, got {v}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--figures-bin" => args.figures_bin = Some(PathBuf::from(value()?)),
            "--cold-pass-from" => args.cold_pass_from = Some(PathBuf::from(value()?)),
            "--single-thread" => args.threads = 1,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload: want one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b, bounds] => compare::run(Path::new(a), Path::new(b), Path::new(bounds)),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ran = match &args.cold_pass_from {
        Some(cache) => cold_pass(&args, cache),
        None => run(&args),
    };
    match ran {
        Ok(abandoned_threads) => {
            if abandoned_threads {
                // A deadlocked burst left threads that will never finish;
                // the result is out, the process ends now.
                std::process::exit(0);
            }
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("benchmark failed: {why}");
            ExitCode::FAILURE
        }
    }
}

fn config_of(args: &Args) -> WorkloadConfig {
    let rows = match args.workload.as_str() {
        "scan_atlas" => workloads::scan_atlas::ROWS,
        "blocking_atlas" => workloads::blocking_atlas::ROWS,
        "serve_burst" => workloads::serve_burst::ROWS,
        _ => workloads::churn_choice::ROWS,
    };
    WorkloadConfig {
        seed: args.seed,
        ..WorkloadConfig::with_rows(rows)
    }
}

/// What one set-up round cost: its two steps, and the build step's parts
/// when traced.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    /// `build_cached` into an empty cache (build and store), then
    /// `build_cached` again (load).
    steps: [Step; 2],
    build: f64,
    store: f64,
    load: f64,
}

/// One set-up round into the empty cache directory `dir`: build the table
/// and store it, then load it back, as a first and a second run of any
/// binary of the repo would.  Untraced that is `build_cached` twice;
/// traced, the same three calls are made one by one under spans.
fn setup_round(
    config: &WorkloadConfig,
    dir: &Path,
    rec: &Recorder,
    kernel: &mut Calibration,
) -> Result<(Workload, SetupTimes), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_var("ROBUSTMAP_WORKLOAD_CACHE", dir);
    let mut times = SetupTimes::default();
    let first = Stopwatch::start();
    let built = if rec.is_enabled() {
        let (built, build) = rec.timed(Layer::Workload, "TableBuilder::build", || {
            TableBuilder::build(config.clone())
        });
        let ((), store) = rec.timed(Layer::Workload, "cache::store", || cache::store(&built));
        times = SetupTimes {
            build,
            store,
            ..times
        };
        built
    } else {
        TableBuilder::build_cached(config.clone())
    };
    times.steps[0] = Step {
        cost: first.stop(),
        calib_ms: kernel.reading_ms(),
    };
    let second = Stopwatch::start();
    let loaded = if rec.is_enabled() {
        let (loaded, load) = rec.timed(Layer::Workload, "cache::load", || cache::load(config));
        times.load = load;
        loaded.ok_or("the table just stored did not load back")?
    } else {
        TableBuilder::build_cached(config.clone())
    };
    times.steps[1] = Step {
        cost: second.stop(),
        calib_ms: kernel.reading_ms(),
    };
    drop(built);
    Ok((loaded, times))
}

/// The oracle's reading of `table`, the workload over it, and the CPUs it
/// measures on.
fn prepare(
    args: &Args,
    table: Workload,
    affinity: &CpuSet,
) -> Result<(Box<dyn Scenario>, CpuSet), String> {
    // The oracle reads the table before any workload touches it.
    let truth = Truth::scan(&table);
    let scenario: Box<dyn Scenario> = match args.workload.as_str() {
        "scan_atlas" => Box::new(workloads::scan_atlas::ScanAtlas::new(
            table,
            &truth,
            args.threads,
        )),
        "blocking_atlas" => Box::new(workloads::blocking_atlas::BlockingAtlas::new(
            table,
            &truth,
            args.threads,
        )),
        "serve_burst" => Box::new(workloads::serve_burst::ServeBurst::new(table, &truth)),
        _ => Box::new(workloads::churn_choice::ChurnChoice::new(
            table,
            args.threads,
        )),
    };
    if args.workload != "serve_burst" {
        return Ok((scenario, *affinity));
    }
    // Refused pinning fails the workload: an unpinned number would be ten
    // times off and look like a measurement.
    let one = affinity.last_only().ok_or("empty affinity mask")?;
    one.apply()
        .map_err(|e| format!("serve_burst needs one CPU: {e}"))?;
    Ok((scenario, one))
}

/// One pass: untimed refresh, then the steps, each timed by the pass
/// itself.
fn run_pass(
    scenario: &mut dyn Scenario,
    rec: &Recorder,
    kernel: &mut Calibration,
    pass: u32,
) -> PassOutput {
    scenario.refresh();
    rec.set_pass(pass);
    let _span = rec.enter(Layer::Driver, "pass");
    scenario.pass(rec, kernel)
}

/// `steps[r][s]` reduced to one number per step of each repetition.
fn per_step(reps: &[&[Step]], f: impl Fn(&Step) -> f64) -> Vec<Vec<f64>> {
    reps.iter()
        .map(|steps| steps.iter().map(&f).collect())
        .collect()
}

/// The typical total of `f` over the repetitions' steps.
fn typical(reps: &[&[Step]], f: impl Fn(&Step) -> f64) -> f64 {
    typical_total(&per_step(reps, f))
}

/// What a fresh process reports of its first pass.
struct ColdPass {
    steps: Vec<Step>,
    attempted: u64,
    failed: u64,
    digest: u64,
    /// The process's peak resident set size when the pass ended.
    peak_rss_mib: f64,
}

/// A run's fresh process: load the table from `cache`, warm up, time one
/// pass, print it as one JSON line.
fn cold_pass(args: &Args, cache: &Path) -> Result<bool, String> {
    std::env::set_var("ROBUSTMAP_WORKLOAD_CACHE", cache);
    let mut kernel = Calibration::new();
    let table = TableBuilder::build_cached(config_of(args));
    let (mut scenario, _) = prepare(args, table, &CpuSet::current()?)?;
    scenario.warm_up();
    let out = run_pass(scenario.as_mut(), &Recorder::new(false), &mut kernel, 1);
    let line = Value::obj([
        ("step_wall_s", nums(out.steps.iter().map(|s| s.cost.wall))),
        ("step_cpu_s", nums(out.steps.iter().map(|s| s.cost.cpu))),
        ("step_calib_ms", nums(out.steps.iter().map(|s| s.calib_ms))),
        ("attempted", Value::Int(out.attempted)),
        ("failed", Value::Int(out.failed)),
        ("digest", Value::str(format!("{:016x}", out.digest()))),
        (
            "peak_rss_mib",
            Value::Num(env::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?),
        ),
    ]);
    println!("{}", line.to_json());
    Ok(scenario.abandoned())
}

/// Start one fresh process on the table in `cache` and read its pass;
/// `memory_pass` asks for the one whose peak memory the run reports.
fn spawn_cold_pass(args: &Args, cache: &Path, memory_pass: bool) -> Result<ColdPass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--cold-pass-from")
        .arg(cache);
    if memory_pass {
        // One sweep thread, and one allocator arena for the five threads
        // `cache::load` builds the indexes on: with an arena each, which
        // arena a tree lands in moves the peak by a twentieth.
        child.arg("--single-thread").env("MALLOC_ARENA_MAX", "1");
    }
    let child = child.output().map_err(|e| format!("cold pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !child.status.success() {
        return Err(format!("cold pass exited with {}: {line}", child.status));
    }
    let report = Value::parse(line).map_err(|e| format!("cold pass said {line:?}: {e}"))?;
    let num = |key: &str| {
        report
            .get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("cold pass: no {key}"))
    };
    let list = |key: &str| -> Result<Vec<f64>, String> {
        let items = report
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("cold pass: no {key}"))?;
        Ok(items.iter().filter_map(Value::as_f64).collect())
    };
    let (walls, cpus, calibs) = (
        list("step_wall_s")?,
        list("step_cpu_s")?,
        list("step_calib_ms")?,
    );
    Ok(ColdPass {
        steps: walls
            .iter()
            .zip(&cpus)
            .zip(&calibs)
            .map(|((&wall, &cpu), &calib_ms)| Step {
                cost: Cost { wall, cpu },
                calib_ms,
            })
            .collect(),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        digest: report
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or("cold pass: no digest")?,
        peak_rss_mib: num("peak_rss_mib")?,
    })
}

fn nums(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Arr(values.into_iter().map(Value::Num).collect())
}

/// Every sample of `reps`, for the run record.
fn samples(reps: &[&[Step]]) -> Value {
    let rows = |f: fn(&Step) -> f64| Value::Arr(per_step(reps, f).into_iter().map(nums).collect());
    Value::obj([
        ("wall_s", rows(|s| s.cost.wall)),
        ("cpu_s", rows(|s| s.cost.cpu)),
        ("calib_ms", rows(|s| s.calib_ms)),
    ])
}

/// Runs one workload and prints its result.  Returns whether a deadlocked
/// burst left threads behind.
fn run(args: &Args) -> Result<bool, String> {
    let affinity = CpuSet::current()?;
    let rec = Recorder::new(args.traced);
    let off = Recorder::new(false);
    let config = config_of(args);

    println!("# robustmap benchmark");
    let header = header(args, &affinity);
    for (k, v) in header.as_object().expect("header is an object") {
        println!(
            "# {k}: {}",
            v.as_str()
                .map(str::to_string)
                .unwrap_or_else(|| v.to_json())
        );
    }

    // Set-up, many times over, each into an empty cache directory.  The
    // last round's table and cache directory are the ones the run goes on
    // with.
    let scratch = args
        .out
        .join(format!("cache-{}-{}", args.workload, std::process::id()));
    let cleanup = RemoveOnDrop(scratch.clone());
    let started = Instant::now();
    let mut kernel = Calibration::new();
    let setup_from = Instant::now();
    let mut rounds: Vec<SetupTimes> = Vec::new();
    let (table, cache_dir) = loop {
        let dir = scratch.join(format!("round-{}", rounds.len()));
        let (table, times) = setup_round(&config, &dir, &rec, &mut kernel)?;
        rounds.push(times);
        let enough = setup_from.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if rounds.len() >= *SETUP_ROUNDS.end() || (enough && rounds.len() >= *SETUP_ROUNDS.start())
        {
            break (table, dir);
        }
        drop(table);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    };
    let setup_took = started.elapsed().as_secs_f64();
    let cache_bytes = cache::cache_path(&config)
        .and_then(|p| std::fs::metadata(p).ok())
        .map(|md| md.len())
        .ok_or("the stored table is not where the cache said it would be")?;

    // Measuring starts.  Untraced, fresh processes go first: each
    // loads the table just stored and times one pass, so the cold number
    // rests on several first passes and not on one.  One more runs its
    // pass on a single thread and reports the memory it took: with two
    // sweep threads the peak depends on which two cells happen to run
    // side by side, by a fifth from run to run.
    let measuring_from = Instant::now();
    let mut cold: Vec<ColdPass> = Vec::new();
    let mut memory: Option<ColdPass> = None;
    if !args.traced {
        for _ in 0..COLD_PROCESSES {
            cold.push(spawn_cold_pass(args, &cache_dir, false)?);
        }
        memory = Some(spawn_cold_pass(args, &cache_dir, true)?);
    }
    let cold_took = measuring_from.elapsed().as_secs_f64();

    let (mut scenario, measuring_on) = prepare(args, table, &affinity)?;
    println!(
        "# affinity while measuring: {} CPU(s) {:?}",
        measuring_on.count(),
        measuring_on.cpus()
    );
    scenario.warm_up();
    let prepare_took = measuring_from.elapsed().as_secs_f64() - cold_took;

    // Passes get half of `--seconds`, whatever the fresh processes took of
    // the other half.  Untraced they run back to back; traced, an untraced
    // and a traced pass alternate, so the overhead ratio compares
    // neighbours in time, and the ledger's probes have the other half.
    let budget = args.seconds / 2.0;
    let mut plain: Vec<PassOutput> = Vec::new();
    let mut traced: Vec<PassOutput> = Vec::new();
    let stolen_before = env::stolen_seconds();
    let passes_watch = Stopwatch::start();
    loop {
        let pass = (plain.len() + traced.len() + 1) as u32;
        let lap = Instant::now();
        plain.push(run_pass(scenario.as_mut(), &off, &mut kernel, pass));
        if args.traced {
            traced.push(run_pass(scenario.as_mut(), &rec, &mut kernel, pass + 1));
        }
        let enough = if args.traced { 2 } else { MIN_PASSES };
        let next_ends = passes_watch.stop().wall + lap.elapsed().as_secs_f64() / 2.0;
        if plain.len() >= enough && next_ends >= budget {
            break;
        }
    }
    rec.set_pass(0);
    let passes_cost = passes_watch.stop();
    let stolen = (env::stolen_seconds() - stolen_before).max(0.0);

    // Correctness: every pass against the first, bit for bit, on top of
    // the checks each pass made against the oracle; a fresh process must
    // reach the same results too, on one thread as on two.
    let first = &plain[0];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for p in plain.iter().chain(&traced) {
        attempted += p.attempted;
        failed += (p.failed + p.differs_from(first)).min(p.attempted);
    }
    let first_digest = first.digest();
    for c in cold.iter().chain(&memory) {
        attempted += c.attempted;
        failed += if c.digest == first_digest {
            c.failed
        } else {
            c.attempted
        };
    }

    // Every timing is the typical total over its steps' repetitions, each
    // step at the reference machine speed; the record keeps every sample.
    let warm: Vec<&[Step]> = plain.iter().map(|p| &p.steps[..]).collect();
    let mut first_passes: Vec<&[Step]> = cold.iter().map(|c| &c.steps[..]).collect();
    first_passes.push(warm[0]);
    let setups: Vec<&[Step]> = rounds.iter().map(|r| &r.steps[..]).collect();
    let wall_s = typical(&warm, Step::wall_at_reference);
    let mut e2e = Metrics::default();
    e2e.set("setup_s", typical(&setups, Step::wall_at_reference));
    e2e.set("wall_s", wall_s);
    e2e.set(
        "cold_wall_s",
        typical(&first_passes, Step::wall_at_reference),
    );
    e2e.set("cpu_s", typical(&warm, Step::cpu_at_reference));
    let peak_rss = match &memory {
        Some(process) => process.peak_rss_mib,
        None => env::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
    };
    e2e.set("peak_rss_mib", peak_rss);
    e2e.set("sim_s", first.sim_seconds());

    let mut layer = Metrics::default();
    let mut abandoned = scenario.abandoned();
    if args.traced {
        if args.workload == "serve_burst" {
            affinity.apply()?;
        }
        let io = first.io();
        layer.set(
            "storage.sim_buffer_hit_ratio",
            io.buffer_hits as f64 / io.page_requests().max(1) as f64,
        );
        layer.set("storage.sim_pages_read", io.pages_read() as f64);
        layer.set("storage.sim_page_writes", io.page_writes as f64);
        let with_spans: Vec<&[Step]> = traced.iter().map(|p| &p.steps[..]).collect();
        layer.set(
            "trace.overhead_ratio",
            typical(&with_spans, Step::wall_at_reference) / wall_s,
        );
        let part = |f: fn(&SetupTimes) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        layer.set("workload.build_s", part(|r| r.build));
        layer.set("workload.cache_store_s", part(|r| r.store));
        layer.set("workload.cache_load_s", part(|r| r.load));
        layer.set(
            "workload.cache_bytes_per_row",
            cache_bytes as f64 / config.rows as f64,
        );

        // The ledger's probe table: same seed, its own (small) size.
        let probe_config = WorkloadConfig {
            seed: args.seed,
            ..WorkloadConfig::with_rows(layers::ROWS)
        };
        let probe_table = TableBuilder::build_cached(probe_config);
        if let Err(why) = layers::probe_all(probe_table, &rec, &affinity, &mut layer) {
            eprintln!("layer probes: {why}");
            abandoned |= why.contains("still running");
        }
        match layers::pinned(&affinity, || figures_smoke(args, &scratch, &rec))
            .and_then(|smoke| smoke)
        {
            Ok(secs) => layer.set("bench.figures_smoke_wall_s", secs),
            Err(why) => eprintln!("figures smoke: {why}"),
        }
        kernel.reading_ms();
    }

    let drift = kernel.drift();
    let stolen_share = stolen / (passes_cost.cpu + stolen);
    let noisy = drift > NOISY_SHARE || stolen_share > NOISY_SHARE;
    let spans = rec.spans();
    if args.traced {
        layer.set("env.calib_ms", kernel.median_ms());
        layer.set("env.calib_drift", drift);
        layer.set("trace.spans", spans.len() as f64);
        // A metric that could not be measured counts as a failed
        // operation and still appears, so the ledger keeps its shape.
        for name in layer.missing(&PER_LAYER) {
            eprintln!("per-layer metric {name} was not measured");
            layer.set(name, 0.0);
            attempted += 1;
            failed += 1;
        }
    }

    // Everything by name, for people.
    let clock_walls: Vec<f64> = plain
        .iter()
        .map(|p| p.steps.iter().map(|s| s.cost.wall).sum())
        .collect();
    println!(
        "# passes: {} untraced of {} steps, {} traced, {} in fresh processes; set-up rounds: {}; \
         peak memory of: {}",
        plain.len(),
        first.steps.len(),
        traced.len(),
        cold.len(),
        rounds.len(),
        if memory.is_some() {
            "a fresh single-thread process"
        } else {
            "this process"
        },
    );
    let took = started.elapsed().as_secs_f64();
    println!(
        "# the run took {took:.1} s: set-up {setup_took:.1}, fresh processes {cold_took:.1}, oracle \
         and warm-up {prepare_took:.1}, passes {:.1}, ledger and report {:.1}",
        passes_cost.wall,
        took - setup_took - cold_took - prepare_took - passes_cost.wall,
    );
    println!(
        "# machine: calibration kernel {:.3} ms (median of {} readings; reference {REFERENCE_MS} ms), \
         moved {:.1}% between the run's halves; the hypervisor took {:.1}% of the passes' CPU time{}",
        kernel.median_ms(),
        kernel.readings(),
        drift * 100.0,
        stolen_share * 100.0,
        if noisy { " — NOISY" } else { "" },
    );
    println!(
        "# a pass's steps as the wall clock read them, summed: median {:.6} s, spread over the \
         passes (IQR/median) {:.3}; the timings below are at the reference machine speed",
        median(&clock_walls),
        iqr_share(&clock_walls),
    );
    for (k, v) in scenario.notes() {
        println!("# {k}: {v}");
    }
    print!("{}", e2e.lines(&END_TO_END));
    println!("ops {attempted} count\nops_failed {failed} count");
    if args.traced {
        print!("{}", layer.lines(&PER_LAYER));
        print!("{}", self_time_tables(&spans));
    }

    // The run record and the trace, for `compare` and for Perfetto.
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let (defs, metrics) = if args.traced {
        (&PER_LAYER[..], &layer)
    } else {
        (&END_TO_END[..], &e2e)
    };
    let record = Value::obj([
        ("header", header),
        ("noisy", Value::Bool(noisy)),
        ("calib_ms", Value::Num(kernel.median_ms())),
        ("calib_reference_ms", Value::Num(REFERENCE_MS)),
        ("calib_drift", Value::Num(drift)),
        ("stolen_share", Value::Num(stolen_share)),
        (
            "measuring_on_cpus",
            Value::Arr(
                measuring_on
                    .cpus()
                    .into_iter()
                    .map(|c| Value::Int(c.into()))
                    .collect(),
            ),
        ),
        ("pass_steps", samples(&warm)),
        ("fresh_process_steps", samples(&first_passes[..cold.len()])),
        ("setup_round_steps", samples(&setups)),
        (
            "notes",
            Value::obj(
                scenario
                    .notes()
                    .into_iter()
                    .map(|(k, v)| (k, Value::Str(v))),
            ),
        ),
        ("ops", Value::Int(attempted)),
        ("ops_failed", Value::Int(failed)),
        // How many passes fit the window depends on the machine; what one
        // pass attempts does not.
        ("ops_per_pass", Value::Int(first.attempted)),
        ("end_to_end", e2e.to_json(&END_TO_END)),
        ("per_layer", layer.to_json(&PER_LAYER)),
    ]);
    let stem = if args.traced {
        format!("{}.layers", args.workload)
    } else {
        args.workload.clone()
    };
    write_file(&args.out.join(format!("{stem}.json")), &record.to_json())?;
    if args.traced {
        let trace = spans::chrome_trace(&spans, &args.workload);
        write_file(
            &args.out.join(format!("trace-{}.json", args.workload)),
            &trace.to_json(),
        )?;
    }
    drop(cleanup);

    println!("{}", result_line(attempted, failed, metrics.to_json(defs)));
    Ok(abandoned)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Removes the run's scratch directory (cache files, smoke artifacts)
/// however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        // Nothing to do about a failure here; the directory is under the
        // build output and named by pid.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Who ran what, where: printed first and kept in the run record.
fn header(args: &Args, affinity: &CpuSet) -> Value {
    let from_env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Value::obj([
        ("workload", Value::str(args.workload.clone())),
        ("traced", Value::Bool(args.traced)),
        ("seed", Value::str(format!("{:#x}", args.seed))),
        ("seconds", Value::Num(args.seconds)),
        (
            "fresh_processes",
            Value::Int(if args.traced {
                0
            } else {
                COLD_PROCESSES as u64
            }),
        ),
        ("commit", Value::str(from_env("ROBUSTMAP_BENCH_COMMIT"))),
        ("rustc", Value::str(from_env("ROBUSTMAP_BENCH_RUSTC"))),
        ("nproc", Value::Int(env::nproc() as u64)),
        (
            "sweep_threads",
            Value::Int(workloads::sweep_threads() as u64),
        ),
        ("affinity", Value::str(format!("{:?}", affinity.cpus()))),
    ])
}

/// `figures --rows 16384 --grid 8 --out <tmp> all` as a subprocess: the
/// benchmark's only contact with `crates/bench`, through its CLI.  The
/// caller pins it to one CPU: unpinned, `ext_concurrency`'s cross-CPU
/// handoffs alone take 20 to 30 of its seconds and vary as much.
fn figures_smoke(args: &Args, scratch: &Path, rec: &Recorder) -> Result<f64, String> {
    let bin = args.figures_bin.as_ref().ok_or("no --figures-bin given")?;
    let out_dir = scratch.join("figures-smoke");
    let _s = rec.enter(Layer::Bench, "figures (subprocess)");
    let t0 = Instant::now();
    let status = std::process::Command::new(bin)
        .args(["--rows", "16384", "--grid", "8", "--out"])
        .arg(&out_dir)
        .arg("all")
        .env("ROBUSTMAP_WORKLOAD_CACHE", scratch.join("figures-cache"))
        .env("ROBUSTMAP_LOG", "quiet")
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let secs = t0.elapsed().as_secs_f64();
    if status.success() {
        Ok(secs)
    } else {
        Err(format!("{} exited with {status}", bin.display()))
    }
}

/// Self time per layer and per plan, as comment lines.
fn self_time_tables(spans: &[spans::Span]) -> String {
    // The traced passes only: set-up and the probes are not the workload.
    let spans: Vec<spans::Span> = spans.iter().filter(|s| s.pass > 0).cloned().collect();
    let spans = &spans[..];
    let mut out = String::from(
        "# self time per layer over the traced passes (span minus its children), all threads:\n",
    );
    for (layer, secs) in spans::self_seconds_by_layer(spans) {
        out.push_str(&format!("#   {:<10} {secs:>10.4} s\n", layer.name()));
    }
    out.push_str("# self time per plan (cell spans):\n");
    for (tag, (cells, secs)) in spans::self_seconds_by_tag(spans) {
        if !tag.is_empty() {
            out.push_str(&format!("#   {tag:<28} {cells:>6} cells {secs:>10.4} s\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_pipeline_command_line() {
        let a = parse_args(&argv(&[
            "--workload",
            "serve_burst",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("serve_burst", 17, 10.0, true)
        );
        let d = parse_args(&argv(&["--workload", "scan_atlas"])).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.traced),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert_eq!(
            parse_args(&argv(&["--workload", "scan_atlas", "--seed", "0xC1D22009"]))
                .unwrap()
                .seed,
            DEFAULT_SEED
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "scan_atlas", "--seconds", "0"],
            &["--workload", "scan_atlas", "--seconds", "nan"],
            &["--workload", "scan_atlas", "--trace", "2"],
            &["--workload", "scan_atlas", "--seed"],
            &["--workload", "scan_atlas", "--bogus"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
