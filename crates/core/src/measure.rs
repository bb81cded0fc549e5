//! The map builder: measuring plans across parameter grids.
//!
//! Each (plan, grid point) pair executes under cold-session conditions —
//! cold buffer pool, clock at zero — so every cell is independent and the
//! whole map is deterministic no matter how many threads sweep it.  That
//! mirrors the paper's methodology of measuring each plan/parameter
//! combination in isolation.
//!
//! ## The warm path
//!
//! Cold *conditions* do not require a cold *allocation*: constructing a
//! [`Session`] per cell rebuilds the buffer pool's map and slot arena
//! thousands of times per map.  Instead, each worker thread owns one
//! [`SweepArena`] — a session it [`Session::reset`]s between cells, which
//! restores exactly the as-constructed state (zero clock, empty pool, same
//! capacity and policy).  `warm_sessions_measure_like_cold_sessions` in
//! this module and `tests/warm_sweep_equivalence.rs` assert cell-for-cell
//! that the two paths produce identical [`Measurement`]s; the design
//! argument is recorded in `docs/DESIGN.md`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use robustmap_executor::{run_count, ExecCtx, ExecError, ExecStats, PlanSpec, SwitchController};
use robustmap_obs::trace::TraceSink;
use robustmap_storage::{BufferPool, CostModel, Database, EvictionPolicy, IoStats, Session};
use robustmap_systems::admission::DEFAULT_GRANT;
use robustmap_systems::{SinglePredPlan, TwoPredPlan};
use robustmap_workload::Workload;

use crate::map::{Map1D, Map2D, Series};
use crate::param::{Grid1D, Grid2D};

/// One measured plan execution: the paper's unit of data.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Measurement {
    /// Simulated elapsed seconds (the map's z value).
    pub seconds: f64,
    /// I/O and CPU counters.
    pub io: IoStats,
    /// Result rows.
    pub rows: u64,
    /// Whether any operator spilled.
    pub spilled: bool,
}

impl From<&ExecStats> for Measurement {
    fn from(stats: &ExecStats) -> Self {
        Measurement {
            seconds: stats.seconds,
            io: stats.io,
            rows: stats.rows_out,
            spilled: stats.spilled,
        }
    }
}

/// Run-time conditions shared by every cell of a map.  Every condition a
/// measured session runs under is a field here: nothing reaches a cell
/// through the environment or a process global.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// Buffer pool size in pages for each execution (a run-time resource
    /// dimension in its own right).
    pub pool_pages: usize,
    /// Replacement policy.
    pub policy: EvictionPolicy,
    /// Memory grant per query, in bytes.
    pub memory_bytes: usize,
    /// Cost model (hardware generation).
    pub model: CostModel,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Trace sink every measured session attaches to; `None` records
    /// nothing.  Tracing is charge-free, so a traced map is the untraced
    /// map (`tests/warm_sweep_equivalence.rs`).
    pub trace: Option<Arc<TraceSink>>,
    /// Real-clock recorder every [`SweepArena`] reports its cells to;
    /// `None` runs each cell once and times nothing.  With one attached a
    /// sweep runs on one thread.
    pub real_clock: Option<Arc<RealClock>>,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            pool_pages: 1024, // 8 MiB: upper index levels stay hot, tables do not fit
            policy: EvictionPolicy::Lru,
            // 8 MiB, the grant admission control hands a query: hash
            // builds over roughly half the default table spill, so the
            // hash join's build-side memory cliff — the asymmetry the
            // paper contrasts with the merge join — is inside the swept
            // parameter space.
            memory_bytes: DEFAULT_GRANT,
            model: CostModel::hdd_2009(),
            threads: 0,
            trace: None,
            real_clock: None,
        }
    }
}

impl MeasureConfig {
    fn effective_threads(&self, work_items: usize) -> usize {
        // Asking the OS reads cgroup files: only when the count is not given.
        let t = match self.threads {
            _ if self.real_clock.is_some() => 1,
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            t => t,
        };
        t.clamp(1, work_items.max(1))
    }

    /// A fresh private session under these conditions — cold pool, clock
    /// at zero, attached to [`MeasureConfig::trace`] if there is one.  The
    /// one place a measured session is built: arenas, figure bodies and
    /// the differential suites all come through here.
    pub fn session(&self) -> Session {
        let s = Session::new(self.model.clone(), BufferPool::new(self.pool_pages, self.policy));
        if let Some(sink) = &self.trace {
            s.attach_tracer(Arc::clone(sink), "q0");
        }
        s
    }
}

/// A reusable per-thread measurement context: one [`Session`] that is
/// [`Session::reset`] before every plan execution.
///
/// Resetting restores the exact state of a freshly constructed session —
/// cold buffer pool, clock at zero — while keeping the pool's allocations,
/// so a sweep pays the session setup once per thread instead of once per
/// cell.  Measurements taken through an arena are identical to
/// [`measure_plan`]'s fresh-session measurements (asserted by this
/// module's tests and `tests/warm_sweep_equivalence.rs`).
pub struct SweepArena {
    session: Session,
    memory_bytes: usize,
    real_clock: Option<Arc<RealClock>>,
}

impl SweepArena {
    /// An arena measuring under `cfg`'s run-time conditions.
    pub fn new(cfg: &MeasureConfig) -> Self {
        SweepArena {
            session: cfg.session(),
            memory_bytes: cfg.memory_bytes,
            real_clock: cfg.real_clock.clone(),
        }
    }

    /// Execute `plan` under cold-session conditions — the session is reset
    /// first — optionally under a switch `controller`, and return the full
    /// execution statistics.  Under a [`RealClock`] the plan runs
    /// [`RealClock::RUNS`] times, each from a reset session, and the cell
    /// is recorded; the statistics are the last run's, which every run
    /// repeats.
    pub fn run(
        &mut self,
        db: &Database,
        plan: &PlanSpec,
        controller: Option<&dyn SwitchController>,
    ) -> Result<ExecStats, ExecError> {
        let Some(clock) = self.real_clock.clone() else {
            return self.run_once(db, plan, controller);
        };
        let mut ns = [0u64; RealClock::RUNS];
        for t in &mut ns[..RealClock::RUNS - 1] {
            let start = Instant::now();
            self.run_once(db, plan, controller)?;
            *t = start.elapsed().as_nanos() as u64;
        }
        let start = Instant::now();
        let stats = self.run_once(db, plan, controller)?;
        ns[RealClock::RUNS - 1] = start.elapsed().as_nanos() as u64;
        clock.record(stats.seconds, stats.rows_out, ns);
        Ok(stats)
    }

    fn run_once(
        &mut self,
        db: &Database,
        plan: &PlanSpec,
        controller: Option<&dyn SwitchController>,
    ) -> Result<ExecStats, ExecError> {
        self.session.reset();
        let ctx = ExecCtx::new(db, &self.session, self.memory_bytes);
        run_count(plan, &ctx, controller)
    }

    /// [`SweepArena::run`] without a controller, projected onto the map's
    /// unit of data.  Panics on a malformed plan: maps are swept over
    /// catalog plans.
    pub fn measure(&mut self, db: &Database, plan: &PlanSpec) -> Measurement {
        let stats = self.run(db, plan, None).expect("measured plans must be well-formed");
        Measurement::from(&stats)
    }
}

/// The real clock beside the simulated one: every cell a [`SweepArena`]
/// runs under it is run [`RealClock::RUNS`] times on one thread and
/// recorded, in run order, as its simulated seconds, result rows, and the
/// median and interquartile range of its host nanoseconds.  A real-clock
/// reading is never a map value: the maps, and every artifact made from
/// them, are those of an untimed sweep.
#[derive(Debug, Default)]
pub struct RealClock {
    cells: Mutex<Vec<RealCell>>,
}

/// One cell on both clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealCell {
    /// Simulated seconds (the map's z value).
    pub sim_s: f64,
    /// Median host nanoseconds of the runs.
    pub real_ns: u64,
    /// Result rows.
    pub rows: u64,
    /// Interquartile range of the runs' host nanoseconds: the 4th fastest
    /// less the 2nd fastest of five.
    pub iqr_ns: u64,
}

impl RealClock {
    /// Runs per cell.
    pub const RUNS: usize = 5;

    fn record(&self, sim_s: f64, rows: u64, mut ns: [u64; Self::RUNS]) {
        ns.sort_unstable();
        let cell = RealCell { sim_s, real_ns: ns[2], rows, iqr_ns: ns[3] - ns[1] };
        self.cells.lock().unwrap_or_else(|e| e.into_inner()).push(cell);
    }

    /// The cells recorded since the last call, in run order.
    pub fn take(&self) -> Vec<RealCell> {
        std::mem::take(&mut *self.cells.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// `cells` as CSV: a header, then `cell,sim_s,real_ns,rows,iqr_ns` per
    /// cell, `cell` counting from 0 in run order.
    pub fn csv(cells: &[RealCell]) -> String {
        let mut csv = String::from("cell,sim_s,real_ns,rows,iqr_ns\n");
        for (i, c) in cells.iter().enumerate() {
            csv.push_str(&format!("{i},{:e},{},{},{}\n", c.sim_s, c.real_ns, c.rows, c.iqr_ns));
        }
        csv
    }
}

/// Execute one plan under the configured run-time conditions and return its
/// measurement.  The building block for one-off measurements; sweeps over
/// many plans should use [`measure_batch`] (or a [`SweepArena`] directly)
/// so the session is constructed once, not per cell.
pub fn measure_plan(db: &Database, plan: &PlanSpec, cfg: &MeasureConfig) -> Measurement {
    SweepArena::new(cfg).measure(db, plan)
}

/// Measure every plan in `plans`, returning measurements in input order.
///
/// This is the warm-path sweep engine all maps are built on: work items are
/// distributed over worker threads, each thread reuses one [`SweepArena`],
/// and results are written into their input slots — so the output is
/// deterministic regardless of thread count or scheduling.
///
/// Workers take slots from the end of the batch to its front: the k-th
/// claim gets slot `plans.len() - 1 - k`.  Maps are laid out from benign to
/// adverse, so a batch's cost ascends and its last cells are its longest;
/// starting them first leaves the smallest cells for the tail, where one
/// thread would otherwise run the largest cell while the others idle.
pub fn measure_batch(db: &Database, plans: &[PlanSpec], cfg: &MeasureConfig) -> Vec<Measurement> {
    use std::panic::resume_unwind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let threads = cfg.effective_threads(plans.len());
    if threads <= 1 {
        let mut arena = SweepArena::new(cfg);
        return plans.iter().map(|p| arena.measure(db, p)).collect();
    }
    // A shared cursor counts claims, last slot first; `Relaxed` is enough,
    // the counter publishes nothing but itself.
    let claims = AtomicUsize::new(0);
    let worker = || {
        let mut arena = SweepArena::new(cfg);
        let mut measured = Vec::new();
        loop {
            let k = claims.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = plans.len().checked_sub(k + 1) else { break measured };
            measured.push((slot, arena.measure(db, &plans[slot])));
        }
    };
    let mut measured: Vec<(usize, Measurement)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        // A worker's panic is the sweep's panic, message and all.
        let joined = workers.into_iter().map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)));
        joined.flatten().collect()
    });
    measured.sort_unstable_by_key(|&(slot, _)| slot);
    measured.into_iter().map(|(_, m)| m).collect()
}

/// Sweep single-predicate plans over a 1-D selectivity grid (Figures 1, 2).
pub fn build_map1d(
    w: &Workload,
    plans: &[SinglePredPlan],
    grid: &Grid1D,
    cfg: &MeasureConfig,
) -> Map1D {
    let thresholds: Vec<(i64, u64)> =
        grid.sels().iter().map(|&s| w.cal_a.threshold_with_count(s)).collect();
    // All plans are constructed up front, in plan-major slot order, then
    // swept in one batch.
    let specs: Vec<PlanSpec> = plans
        .iter()
        .flat_map(|plan| thresholds.iter().map(|&(t, _)| plan.build(t)))
        .collect();
    let results = measure_batch(&w.db, &specs, cfg);
    let series = plans
        .iter()
        .enumerate()
        .map(|(pi, plan)| Series {
            plan: plan.name.clone(),
            points: (0..grid.len()).map(|gi| results[pi * grid.len() + gi]).collect(),
        })
        .collect();
    Map1D {
        sels: grid.sels().to_vec(),
        result_rows: thresholds.iter().map(|&(_, c)| c).collect(),
        series,
    }
}

/// Sweep two-predicate plans over a 2-D selectivity grid (Figures 4-10).
pub fn build_map2d(
    w: &Workload,
    plans: &[TwoPredPlan],
    grid: &Grid2D,
    cfg: &MeasureConfig,
) -> Map2D {
    let ta: Vec<i64> = grid.sel_a().iter().map(|&s| w.cal_a.threshold(s)).collect();
    let tb: Vec<i64> = grid.sel_b().iter().map(|&s| w.cal_b.threshold(s)).collect();
    let (na, nb) = grid.dims();
    // All plans constructed up front (thresholds computed once per axis,
    // not once per cell), in plan-major row-major slot order.
    let specs: Vec<PlanSpec> = plans
        .iter()
        .flat_map(|plan| {
            let ta = &ta;
            let tb = &tb;
            (0..na).flat_map(move |ia| (0..nb).map(move |ib| plan.build(ta[ia], tb[ib])))
        })
        .collect();
    let cells = na * nb;
    let results = measure_batch(&w.db, &specs, cfg);
    let data: Vec<Vec<Measurement>> = plans
        .iter()
        .enumerate()
        .map(|(pi, _)| results[pi * cells..(pi + 1) * cells].to_vec())
        .collect();
    Map2D::new(
        grid.sel_a().to_vec(),
        grid.sel_b().to_vec(),
        plans.iter().map(|p| p.name.clone()).collect(),
        data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_systems::{
        single_predicate_plans, two_predicate_plans, SinglePredPlanSet, SystemId,
    };
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    fn quick_cfg(threads: usize) -> MeasureConfig {
        MeasureConfig { threads, ..Default::default() }
    }

    #[test]
    fn map1d_has_expected_shape_and_counts() {
        let w = TableBuilder::build(WorkloadConfig::small());
        let plans = single_predicate_plans(SinglePredPlanSet::Basic, &w);
        let grid = Grid1D::pow2(6);
        let map = build_map1d(&w, &plans, &grid, &quick_cfg(2));
        assert_eq!(map.len(), 7);
        assert_eq!(map.series.len(), 3);
        // Result sizes double along the axis.
        for win in map.result_rows.windows(2) {
            assert_eq!(win[1], win[0] * 2);
        }
        // Every plan agrees on row counts at every point.
        for s in &map.series {
            for (i, p) in s.points.iter().enumerate() {
                assert_eq!(p.rows, map.result_rows[i], "{} point {i}", s.plan);
            }
        }
    }

    #[test]
    fn parallel_and_serial_maps_are_identical() {
        let w = TableBuilder::build(WorkloadConfig::small());
        let plans = two_predicate_plans(SystemId::A, &w);
        let grid = Grid2D::pow2(3);
        let serial = build_map2d(&w, &plans, &grid, &quick_cfg(1));
        let parallel = build_map2d(&w, &plans, &grid, &quick_cfg(4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn table_scan_series_is_flat() {
        let w = TableBuilder::build(WorkloadConfig::small());
        let plans = single_predicate_plans(SinglePredPlanSet::Basic, &w);
        let grid = Grid1D::pow2(8);
        let map = build_map1d(&w, &plans, &grid, &quick_cfg(0));
        let scan = map.series_named("table scan").unwrap();
        let secs = scan.seconds();
        let (lo, hi) = secs.iter().fold((f64::INFINITY, 0.0f64), |(l, h), &s| (l.min(s), h.max(s)));
        // Constant within CPU noise of the predicate/projection work.
        assert!(hi / lo < 1.2, "table scan varies: {lo} .. {hi}");
    }

    #[test]
    fn warm_sessions_measure_like_cold_sessions() {
        // The warm-path contract: one arena measuring N plans in sequence
        // (including a spilling plan that dirties temp-file state) gives
        // exactly the Measurements that N fresh sessions give.
        use robustmap_executor::{PlanSpec, Predicate, Projection, SpillMode};
        let w = TableBuilder::build(WorkloadConfig::small());
        let plans_a = single_predicate_plans(SinglePredPlanSet::WithIndexJoins, &w);
        let mut specs: Vec<PlanSpec> = Vec::new();
        for sel_exp in [0, 2, 5] {
            let t = w.cal_a.threshold(0.5f64.powi(sel_exp));
            for p in &plans_a {
                specs.push(p.build(t));
            }
            // A spilling sort between map cells: a reset must also clear
            // any pool residue of temp-file pages.
            specs.push(PlanSpec::Sort {
                input: Box::new(PlanSpec::TableScan {
                    table: w.table,
                    pred: Predicate::single(
                        robustmap_executor::ColRange::at_most(0, t),
                    ),
                    project: Projection::All,
                }),
                key_cols: vec![0],
                mode: SpillMode::Abrupt,
                memory_bytes: 4096,
            });
        }
        let cfg = MeasureConfig { threads: 1, ..Default::default() };
        let mut arena = SweepArena::new(&cfg);
        for (i, spec) in specs.iter().enumerate() {
            let warm = arena.measure(&w.db, spec);
            let cold = {
                let session = cfg.session();
                let ctx =
                    robustmap_executor::ExecCtx::new(&w.db, &session, cfg.memory_bytes);
                Measurement::from(&run_count(spec, &ctx, None).unwrap())
            };
            assert_eq!(warm, cold, "plan #{i} diverged between warm and cold sessions");
        }
    }

    #[test]
    fn measure_batch_matches_per_plan_measurement() {
        use robustmap_executor::{JoinAlgo, PlanSpec, Predicate, Projection};
        let w = TableBuilder::build(WorkloadConfig::small());
        let plans = single_predicate_plans(SinglePredPlanSet::Basic, &w);
        let specs: Vec<_> =
            [0.25, 1.0].iter().flat_map(|&s| {
                let t = w.cal_a.threshold(s);
                plans.iter().map(move |p| p.build(t))
            }).collect();
        // Dispatch starts from the end of a batch, so a batch whose last
        // cell is far its largest — tiny scans, then a spilling sort-merge
        // join of the whole table with itself — must still land cell for
        // cell in input order.
        let tiny = w.cal_a.threshold(2f64.powi(-10));
        let scan = || {
            Box::new(PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::always_true(),
                project: Projection::Columns(vec![0]),
            })
        };
        let skewed: Vec<_> = plans
            .iter()
            .map(|p| p.build(tiny))
            .chain([PlanSpec::Join {
                left: scan(),
                right: scan(),
                left_key: 0,
                right_key: 0,
                algo: JoinAlgo::SortMerge,
                memory_bytes: 4096,
                project: Projection::All,
            }])
            .collect();
        for (specs, thread_counts) in [(&specs, &[1, 4][..]), (&skewed, &[1, 2, 3])] {
            for &threads in thread_counts {
                let cfg = quick_cfg(threads);
                let batch = measure_batch(&w.db, specs, &cfg);
                assert_eq!(batch.len(), specs.len());
                for (i, (spec, got)) in specs.iter().zip(&batch).enumerate() {
                    assert_eq!(*got, measure_plan(&w.db, spec, &cfg), "cell {i}, {threads} threads");
                }
            }
        }
        let last = measure_plan(&w.db, skewed.last().unwrap(), &quick_cfg(1));
        assert!(last.spilled && last.rows == w.rows(), "the last cell must be the large one");
    }

    #[test]
    fn measure_plan_reports_spills() {
        use robustmap_executor::{PlanSpec, Predicate, Projection, SpillMode};
        let w = TableBuilder::build(WorkloadConfig::small());
        let plan = PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::always_true(),
                project: Projection::All,
            }),
            key_cols: vec![0],
            mode: SpillMode::Abrupt,
            memory_bytes: 4096,
        };
        let m = measure_plan(&w.db, &plan, &MeasureConfig::default());
        assert!(m.spilled);
        assert!(m.io.page_writes > 0);
        assert_eq!(m.rows, w.rows());
    }
}
