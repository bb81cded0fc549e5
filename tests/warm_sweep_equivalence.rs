//! The warm-path sweep engine's correctness contract, map-shaped: worker
//! threads reuse one session per thread (reset between cells) instead of
//! constructing a session per cell, and the resulting maps must be
//! identical cell-for-cell to fresh-session measurements — cold-buffer
//! semantics are preserved by `Session::reset`, not weakened by reuse.
//! `docs/DESIGN.md` records the equivalence argument; this test pins it,
//! under every condition of the independence matrix: the arena's trace
//! sink comes from its `MeasureConfig` and nowhere else.

use robustmap::core::{
    build_map2d, measure_batch, measure_plan, Grid2D, MeasureConfig, Measurement,
};
use robustmap::executor::PlanSpec;
use robustmap::systems::{two_predicate_plans, SystemId, TwoPredPlan};
use robustmap::workload::{TableBuilder, Workload, WorkloadConfig};

mod common;
use common::{conditions, run_under};

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

/// Measure one plan the maximally-cold way: a brand-new session and
/// context under `cfg`, no arena involved.
fn cold_measure(w: &Workload, spec: &PlanSpec, cfg: &MeasureConfig) -> Measurement {
    Measurement::from(&run_under(w, spec, cfg, None))
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
    // The cold reference, cell for cell, under the plain defaults.
    let plain = MeasureConfig { threads: 1, ..Default::default() };
    let cold: Vec<Measurement> = specs.iter().map(|s| cold_measure(&w, s, &plain)).collect();
    for cond in conditions() {
        let cfg = cond.measure(&plain);
        // The warm path: one arena measuring every cell in sequence.
        let warm = measure_batch(&w.db, &specs, &cfg);
        assert_eq!(warm.len(), specs.len());
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(warm[i], cold[i], "[{}] cell #{i}: warm vs plain cold", cond.name);
            // And against a cold run under the same condition: an arena
            // that dropped its config's sink would still match the plain
            // reference.
            let same = cold_measure(&w, spec, &cfg);
            assert_eq!(warm[i], same, "[{}] cell #{i}: warm vs cold", cond.name);
        }
    }
}

#[test]
fn thread_count_does_not_change_maps() {
    let w = workload();
    let plans = two_predicate_plans(SystemId::B, &w);
    let grid = Grid2D::pow2(3);
    let serial = build_map2d(&w, &plans, &grid, &MeasureConfig { threads: 1, ..Default::default() });
    for cond in conditions() {
        for threads in [2, 4, 8] {
            let cfg = cond.measure(&MeasureConfig { threads, ..Default::default() });
            let map = build_map2d(&w, &plans, &grid, &cfg);
            assert_eq!(serial, map, "[{}] threads={threads}", cond.name);
        }
    }
}

#[test]
fn measure_plan_is_the_arena_of_one() {
    // The public one-off entry point must agree with both paths.
    let w = workload();
    let plans = two_predicate_plans(SystemId::C, &w);
    let spec = plans[0].build(w.cal_a.threshold(0.25), w.cal_b.threshold(0.5));
    for cond in conditions() {
        let cfg = cond.measure(&MeasureConfig::default());
        let cold = cold_measure(&w, &spec, &cfg);
        assert_eq!(measure_plan(&w.db, &spec, &cfg), cold, "[{}]", cond.name);
        let batch = measure_batch(&w.db, std::slice::from_ref(&spec), &cfg);
        assert_eq!(batch[0], cold, "[{}]", cond.name);
    }
}
