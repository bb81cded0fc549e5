//! The four workloads and what they share: the shape of a pass, the
//! timed, panic-containing step, and the sweep that is `measure_batch`
//! untraced and a span per cell traced.

pub mod blocking_atlas;
pub mod churn_choice;
pub mod scan_atlas;
pub mod serve_burst;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use robustmap_core::{
    build_map2d, measure_batch, Grid2D, Map2D, MeasureConfig, Measurement, SweepArena,
};
use robustmap_executor::PlanSpec;
use robustmap_storage::{Database, IoStats};
use robustmap_systems::TwoPredPlan;
use robustmap_workload::Workload;

use crate::env::{Calibration, Cost, Stopwatch, REFERENCE_MS};
use crate::spans::{Layer, Recorder};

/// Every workload, in the order the full run executes them.
pub const NAMES: [&str; 4] = [
    "scan_atlas",
    "blocking_atlas",
    "serve_burst",
    "churn_choice",
];

/// Worker threads for sweeps: two, which is the reference sandbox's core
/// count, and never more than the machine offers.
pub fn sweep_threads() -> usize {
    crate::env::nproc().min(2)
}

/// The sweeps' run-time conditions: the default modelled machine (1024
/// pool pages, 8 MiB grant, 2009 disk) on `threads` workers.
pub fn measure_config(threads: usize) -> MeasureConfig {
    MeasureConfig {
        threads,
        ..MeasureConfig::default()
    }
}

/// What one pass did.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PassOutput {
    /// Operations attempted (cells, queries, batches, decisions, artifacts).
    pub attempted: u64,
    /// Operations that failed a check or panicked.
    pub failed: u64,
    /// Every operation that ran on the simulated clock, in a fixed order.
    pub cells: Vec<Measurement>,
    /// Every other operation, reduced to a digest of its result.
    pub digests: Vec<u64>,
    /// What each step cost, in the pass's fixed step order.
    pub steps: Vec<Step>,
}

/// One timed step of a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Step {
    pub cost: Cost,
    /// The calibration kernel's reading right after the step.
    pub calib_ms: f64,
}

impl Step {
    /// Wall seconds of the step at the reference machine speed.
    pub fn wall_at_reference(&self) -> f64 {
        self.cost.wall * REFERENCE_MS / self.calib_ms
    }

    /// CPU seconds of the step at the reference machine speed.
    pub fn cpu_at_reference(&self) -> f64 {
        self.cost.cpu * REFERENCE_MS / self.calib_ms
    }
}

impl PassOutput {
    /// Simulated seconds summed over the pass: the product's clock.
    pub fn sim_seconds(&self) -> f64 {
        self.cells.iter().map(|m| m.seconds).sum()
    }

    /// Modelled I/O and CPU counters summed over the pass.
    pub fn io(&self) -> IoStats {
        let mut t = IoStats::default();
        for m in &self.cells {
            t.seq_reads += m.io.seq_reads;
            t.single_reads += m.io.single_reads;
            t.random_reads += m.io.random_reads;
            t.page_writes += m.io.page_writes;
            t.buffer_hits += m.io.buffer_hits;
            t.cpu_rows += m.io.cpu_rows;
            t.cpu_compares += m.io.cpu_compares;
            t.cpu_hashes += m.io.cpu_hashes;
        }
        t
    }

    /// Every result of the pass in one number, for comparing passes of
    /// different processes.  `Debug` prints a float with the digits that
    /// tell it from its neighbours, so equal digests mean equal bits.
    pub fn digest(&self) -> u64 {
        digest(format!("{:?} {:?}", self.cells, self.digests).as_bytes())
    }

    /// Run and time one step of `ops` operations, then read `kernel`, so
    /// the step can be reported at the reference machine speed.  A pass is
    /// a fixed sequence of steps, each some tens of milliseconds of one
    /// call into the layers: short enough that the machine's speed while
    /// it ran is the speed the kernel then reads.  A panic inside a step
    /// fails all its operations and the pass goes on: one broken plan must
    /// not take the other thousand results with it.
    pub fn step<T>(
        &mut self,
        kernel: &mut Calibration,
        ops: u64,
        f: impl FnOnce() -> T,
    ) -> Option<T> {
        self.attempted += ops;
        let watch = Stopwatch::start();
        let ran = catch_unwind(AssertUnwindSafe(f));
        self.steps.push(Step {
            cost: watch.stop(),
            calib_ms: kernel.reading_ms(),
        });
        match ran {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += ops;
                None
            }
        }
    }

    /// Operations of this pass whose result differs from `first`'s: the
    /// simulated clock and every decision must repeat bit for bit.
    pub fn differs_from(&self, first: &PassOutput) -> u64 {
        let cell_diffs = self
            .cells
            .iter()
            .zip(&first.cells)
            .filter(|(a, b)| {
                a.seconds.to_bits() != b.seconds.to_bits() || a.io != b.io || a.rows != b.rows
            })
            .count();
        let digest_diffs = self
            .digests
            .iter()
            .zip(&first.digests)
            .filter(|(a, b)| a != b)
            .count();
        let missing = self.cells.len().abs_diff(first.cells.len())
            + self.digests.len().abs_diff(first.digests.len());
        (cell_diffs + digest_diffs + missing) as u64
    }
}

/// A workload, set up and ready to run passes.
pub trait Scenario {
    /// One untimed run of the workload's smallest unit, so lazy set-up
    /// inside the layers is paid before the first timed pass.
    fn warm_up(&mut self);

    /// Untimed preparation before each pass (a fresh table, where the pass
    /// mutates it).
    fn refresh(&mut self) {}

    /// One pass, its steps timed against `kernel`.  With an enabled
    /// recorder the pass records spans and drives its sweeps cell by cell;
    /// results must not depend on which.
    fn pass(&mut self, rec: &Recorder, kernel: &mut Calibration) -> PassOutput;

    /// Facts about the set-up worth keeping in the run record.
    fn notes(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Whether the workload gave up on threads that will never finish (a
    /// deadlocked burst): the process must then end without joining them.
    fn abandoned(&self) -> bool {
        false
    }
}

/// The operator family at the root of a plan: the name of a cell's span.
pub fn family(spec: &PlanSpec) -> &'static str {
    match spec {
        PlanSpec::TableScan { .. } => "table_scan",
        PlanSpec::IndexFetch { .. } => "index_fetch",
        PlanSpec::CoveringIndexScan { .. } => "covering_scan",
        PlanSpec::Mdam { .. } => "mdam",
        PlanSpec::IndexIntersect { .. } => "index_intersect",
        PlanSpec::CoveringRidJoin { .. } => "covering_rid_join",
        PlanSpec::Sort { .. } => "sort",
        PlanSpec::Join { .. } => "join",
        PlanSpec::ParallelTableScan { .. } => "parallel_scan",
        PlanSpec::HashAgg { .. } => "hash_agg",
    }
}

/// Measure every plan, in input order.  Untraced this is exactly
/// [`measure_batch`].  Traced, the benchmark drives the same schedule
/// itself — a shared cursor, one [`SweepArena`] per worker — so that every
/// cell is a span named by operator family and tagged `tag(i)`.
pub fn sweep(
    db: &Database,
    specs: &[PlanSpec],
    tag: &(dyn Fn(usize) -> String + Sync),
    cfg: &MeasureConfig,
    rec: &Recorder,
) -> Vec<Measurement> {
    if !rec.is_enabled() {
        return measure_batch(db, specs, cfg);
    }
    let sweep_span = rec.enter(Layer::Core, "sweep");
    let parent = sweep_span.id();
    let threads = cfg.threads.clamp(1, specs.len().max(1));
    let next = AtomicUsize::new(0);
    let mut results = vec![Measurement::default(); specs.len()];
    let per_worker: Vec<Vec<(usize, Measurement)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut arena = {
                        let _s = rec.enter_under(parent, Layer::Core, "SweepArena::new", "");
                        SweepArena::new(cfg)
                    };
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let _cell = rec.enter_under(parent, Layer::Executor, family(spec), &tag(i));
                        mine.push((i, arena.measure(db, spec)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    for (i, m) in per_worker.into_iter().flatten() {
        results[i] = m;
    }
    results
}

/// Every plan at every threshold pair, plan-major then `ia`-major: the
/// slot order `build_map2d` uses.
pub fn grid_specs(plans: &[TwoPredPlan], ta: &[i64], tb: &[i64]) -> Vec<PlanSpec> {
    let mut specs = Vec::with_capacity(plans.len() * ta.len() * tb.len());
    for plan in plans {
        for &a in ta {
            for &b in tb {
                specs.push(plan.build(a, b));
            }
        }
    }
    specs
}

/// `build_map2d`, or its cell-by-cell twin under an enabled recorder: the
/// same plans built in the same order, swept by [`sweep`], assembled into
/// the same map.
pub fn map2d(
    w: &Workload,
    plans: &[TwoPredPlan],
    grid: &Grid2D,
    cfg: &MeasureConfig,
    rec: &Recorder,
) -> Map2D {
    if !rec.is_enabled() {
        return build_map2d(w, plans, grid, cfg);
    }
    let _span = rec.enter(Layer::Core, "build_map2d");
    let ta: Vec<i64> = grid.sel_a().iter().map(|&s| w.cal_a.threshold(s)).collect();
    let tb: Vec<i64> = grid.sel_b().iter().map(|&s| w.cal_b.threshold(s)).collect();
    let specs = {
        let _s = rec.enter(Layer::Systems, "TwoPredPlan::build");
        grid_specs(plans, &ta, &tb)
    };
    let cells = grid.cells();
    let tag = |i: usize| plans[i / cells].name.clone();
    let results = sweep(&w.db, &specs, &tag, cfg, rec);
    Map2D::new(
        grid.sel_a().to_vec(),
        grid.sel_b().to_vec(),
        plans.iter().map(|p| p.name.clone()).collect(),
        results.chunks(cells).map(<[_]>::to_vec).collect(),
    )
}

/// FNV-1a over `bytes`: the digest of an artifact or a decision.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_systems::{two_predicate_plans, SystemId};
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    #[test]
    fn traced_sweep_equals_measure_batch_bit_for_bit() {
        let w = TableBuilder::build(WorkloadConfig::with_rows(4096));
        let plans = two_predicate_plans(SystemId::A, &w);
        let specs: Vec<PlanSpec> = [0.01, 0.3, 1.0]
            .iter()
            .flat_map(|&s| {
                let (ta, tb) = (w.cal_a.threshold(s), w.cal_b.threshold(0.5));
                plans.iter().map(move |p| p.build(ta, tb))
            })
            .collect();
        let cfg = MeasureConfig {
            threads: 2,
            ..MeasureConfig::default()
        };
        let tag = |i: usize| plans[i % plans.len()].name.clone();
        let plain = sweep(&w.db, &specs, &tag, &cfg, &Recorder::new(false));
        let rec = Recorder::new(true);
        let traced = sweep(&w.db, &specs, &tag, &cfg, &rec);
        let (a, b) = (
            PassOutput {
                cells: plain,
                ..Default::default()
            },
            PassOutput {
                cells: traced,
                ..Default::default()
            },
        );
        assert_eq!(a.differs_from(&b), 0);
        let spans = rec.spans();
        let cells = spans.iter().filter(|s| s.layer == Layer::Executor).count();
        assert_eq!(cells, specs.len());
        assert!(spans
            .iter()
            .any(|s| s.name == "table_scan" && s.tag.as_deref() == Some("A1 table scan")));
    }

    #[test]
    fn a_panicking_unit_fails_its_operations_and_the_pass_goes_on() {
        let mut out = PassOutput::default();
        let mut kernel = Calibration::new();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let lost: Option<()> = out.step(&mut kernel, 5, || panic!("broken plan"));
        std::panic::set_hook(hook);
        assert!(lost.is_none());
        assert_eq!(out.step(&mut kernel, 3, || 7), Some(7));
        assert_eq!((out.attempted, out.failed, out.steps.len()), (8, 5, 2));
        assert!(out
            .steps
            .iter()
            .all(|s| s.calib_ms > 0.0 && s.wall_at_reference() >= 0.0));
        assert_eq!(kernel.readings(), 2);
    }

    #[test]
    fn pass_comparison_counts_changed_and_missing_results() {
        let cell = |s: f64| Measurement {
            seconds: s,
            ..Measurement::default()
        };
        let first = PassOutput {
            cells: vec![cell(1.0), cell(2.0), cell(3.0)],
            digests: vec![1, 2],
            ..Default::default()
        };
        assert_eq!(first.differs_from(&first), 0);
        let later = PassOutput {
            cells: vec![cell(1.0), cell(f64::from_bits(2.0f64.to_bits() + 1))],
            digests: vec![1, 9],
            ..Default::default()
        };
        // One changed clock, one changed digest, one missing cell.
        assert_eq!(later.differs_from(&first), 3);
    }
}
