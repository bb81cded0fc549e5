//! The warm-path sweep engine's correctness contract, map-shaped: worker
//! threads reuse one session per thread (reset between cells) instead of
//! constructing a session per cell, and the resulting maps must be
//! identical cell-for-cell to fresh-session measurements — cold-buffer
//! semantics are preserved by `Session::reset`, not weakened by reuse.
//! `docs/DESIGN.md` records the equivalence argument; this test pins it.

use robustmap::core::{
    build_map2d, measure_batch, measure_plan, Grid2D, MeasureConfig, Measurement,
};
use robustmap::executor::{run_count, ExecCtx, PlanSpec, RunOpts};
use robustmap::storage::{BufferPool, Session};
use robustmap::systems::{two_predicate_plans, SystemId, TwoPredPlan};
use robustmap::workload::{TableBuilder, Workload, WorkloadConfig};

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

/// Measure one plan the maximally-cold way: a brand-new session and
/// context, no arena involved.
fn cold_measure(w: &Workload, spec: &PlanSpec, cfg: &MeasureConfig) -> Measurement {
    let session = Session::new(cfg.model.clone(), BufferPool::new(cfg.pool_pages, cfg.policy));
    let ctx = ExecCtx::new(&w.db, &session, cfg.memory_bytes);
    let stats = run_count(spec, &ctx, RunOpts::default()).expect("well-formed plan");
    Measurement {
        seconds: stats.seconds,
        io: stats.io,
        rows: stats.rows_out,
        spilled: stats.spilled,
    }
}

#[test]
fn warm_batch_equals_cold_measurements_cell_for_cell() {
    let w = workload();
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, &w)).collect();
    let grid = Grid2D::pow2(2);
    let ta: Vec<i64> = grid.sel_a().iter().map(|&s| w.cal_a.threshold(s)).collect();
    let tb: Vec<i64> = grid.sel_b().iter().map(|&s| w.cal_b.threshold(s)).collect();
    let mut specs = Vec::new();
    for plan in &plans {
        for &a in &ta {
            for &b in &tb {
                specs.push(plan.build(a, b));
            }
        }
    }
    let cfg = MeasureConfig { threads: 1, ..Default::default() };
    // The warm path: one arena measuring every cell in sequence.
    let warm = measure_batch(&w.db, &specs, &cfg);
    assert_eq!(warm.len(), specs.len());
    // Cold reference, cell for cell.
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(warm[i], cold_measure(&w, spec, &cfg), "cell #{i} diverged warm vs cold");
    }
}

#[test]
fn thread_count_does_not_change_maps() {
    let w = workload();
    let plans = two_predicate_plans(SystemId::B, &w);
    let grid = Grid2D::pow2(3);
    let serial = build_map2d(&w, &plans, &grid, &MeasureConfig { threads: 1, ..Default::default() });
    for threads in [2, 4, 8] {
        let cfg = MeasureConfig { threads, ..Default::default() };
        assert_eq!(serial, build_map2d(&w, &plans, &grid, &cfg), "threads={threads}");
    }
}

#[test]
fn measure_plan_is_the_arena_of_one() {
    // The public one-off entry point must agree with both paths.
    let w = workload();
    let plans = two_predicate_plans(SystemId::C, &w);
    let cfg = MeasureConfig::default();
    let spec = plans[0].build(w.cal_a.threshold(0.25), w.cal_b.threshold(0.5));
    assert_eq!(measure_plan(&w.db, &spec, &cfg), cold_measure(&w, &spec, &cfg));
    assert_eq!(measure_batch(&w.db, std::slice::from_ref(&spec), &cfg)[0], cold_measure(&w, &spec, &cfg));
}
