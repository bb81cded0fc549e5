//! Differential no-switch equivalence suite for adaptive execution.
//!
//! A `controller` in `RunOpts` arms cardinality checkpoints inside the one
//! interpreter.  Observation must be free: when the controller never
//! switches — whether because it is [`NeverSwitch`] or because it is a
//! real, armed [`BailController`] whose thresholds never trip — the run
//! must be **identical** to `controller: None`: same clock ticks, same
//! `IoStats`, same spill flag, same per-operator breakdown, and the same
//! output rows in the same order — one row per batch and batched alike.  This mirrors `tests/batch_equivalence.rs`,
//! which pins the same contract across batch sizes; `docs/DESIGN.md`
//! § adaptive execution records the design argument this suite pins.

use robustmap::core::MeasureConfig;
use robustmap::executor::{
    run_collect, run_count, ColRange, ExecConfig, ExecCtx, ExecStats, FetchKind, IndexRangeSpec,
    IntersectAlgo, KeyRange, NeverSwitch, PlanSpec, Predicate, Projection, RunOpts,
    SwitchController,
};
use robustmap::storage::CostModel;
use robustmap::systems::choice::Exact;
use robustmap::systems::{
    two_pred_bail_controller, two_predicate_plans, BailController, CatalogStats, ChoicePolicy,
    Chooser, Estimator, RobustConfig, SwitchPolicy, SystemId, TwoPredPlan,
};
use robustmap::workload::{TableBuilder, Workload, WorkloadConfig};

mod common;
use common::{assert_bit_identical, composite_specs, session};

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

fn full_catalog(w: &Workload) -> Vec<TwoPredPlan> {
    SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect()
}

/// One row per batch: row-at-a-time execution.
const ROW_PATH: ExecConfig = ExecConfig { batch_rows: 1 };

/// Static run (`controller: None`) on a fresh session.
fn run_static(w: &Workload, spec: &PlanSpec, cfg: &MeasureConfig, ec: &ExecConfig) -> ExecStats {
    let s = session(cfg);
    let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
    run_count(spec, &ctx, RunOpts { batch: *ec, controller: None }).expect("static run")
}

/// Run under `ctrl` on a fresh session; asserts nothing switched.
fn run_adaptive(
    w: &Workload,
    spec: &PlanSpec,
    cfg: &MeasureConfig,
    ec: &ExecConfig,
    ctrl: &dyn SwitchController,
    label: &str,
) -> ExecStats {
    let s = session(cfg);
    let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
    let stats = run_count(spec, &ctx, RunOpts { batch: *ec, controller: Some(ctrl) })
        .expect("controlled run");
    assert!(stats.switches.is_empty(), "{label}: no-switch run recorded a switch");
    stats
}

/// Under `ctrl` vs static, one row per batch and at `ec`, one spec.
fn assert_adaptive_equivalent(
    w: &Workload,
    spec: &PlanSpec,
    cfg: &MeasureConfig,
    ec: &ExecConfig,
    ctrl: &dyn SwitchController,
    label: &str,
) {
    let row = run_static(w, spec, cfg, &ROW_PATH);
    let arow = run_adaptive(w, spec, cfg, &ROW_PATH, ctrl, label);
    assert_bit_identical(&row, &arow, &format!("{label} [row]"));
    let batch = run_static(w, spec, cfg, ec);
    let abatch = run_adaptive(w, spec, cfg, ec, ctrl, label);
    assert_bit_identical(&batch, &abatch, &format!("{label} [batch]"));
}

/// Every plan in the catalog — A1–A7, B1–B4, C1–C4 — over a selectivity
/// grid, with switching disabled: a controller that never switches is
/// indistinguishable from no controller at either batch size.
#[test]
fn all_fifteen_catalog_plans_are_bit_identical_with_switching_disabled() {
    let w = workload();
    let plans = full_catalog(&w);
    assert_eq!(plans.len(), 15, "catalog size changed; update this suite");
    let cfg = MeasureConfig::default();
    let ec = ExecConfig::default();
    let sels = [0.02, 0.3, 0.9];
    for plan in &plans {
        for &sa in &sels {
            for &sb in &sels {
                let spec = plan.build(w.cal_a.threshold(sa), w.cal_b.threshold(sb));
                let label = format!("{} @ ({sa}, {sb})", plan.name);
                assert_adaptive_equivalent(&w, &spec, &cfg, &ec, &NeverSwitch, &label);
            }
        }
    }
}

/// Not just `NeverSwitch`: a *real*, armed [`BailController`] whose
/// thresholds never trip must also be bit-identical — both the degenerate
/// never-trips policy and a live policy built from an actual compile-time
/// choice over accurate estimates (whose credible band therefore holds).
#[test]
fn armed_but_never_tripping_controllers_are_bit_identical() {
    let w = workload();
    let plans = full_catalog(&w);
    let cfg = MeasureConfig::default();
    let ec = ExecConfig::default();
    let stats = CatalogStats::of(&w);
    let model = CostModel::hdd_2009();
    let (ta, tb) = (w.cal_a.threshold(0.2), w.cal_b.threshold(0.6));
    let est = Exact::of(&w).estimate(ta, tb);
    let chooser = Chooser { plans: &plans, stats: &stats, model: &model, policy: ChoicePolicy::Point };
    let choice = chooser.choose_at(&est, ta, tb);
    let fallback = plans
        .iter()
        .find(|p| p.name.contains("mdam"))
        .expect("catalog has an MDAM plan")
        .build(ta, tb);

    for plan in &plans {
        let spec = plan.build(ta, tb);
        // A live controller: credible band from accurate estimates.
        if let Some(ctrl) = two_pred_bail_controller(
            &spec,
            &choice,
            fallback.clone(),
            &stats,
            est,
            &model,
            RobustConfig::default(),
        ) {
            assert_adaptive_equivalent(
                &w,
                &spec,
                &cfg,
                &ec,
                &ctrl,
                &format!("{} [live policy]", plan.name),
            );
            // The degenerate policy: same controller, thresholds at ∞.
            let never = BailController::new(ctrl.at, SwitchPolicy::never(), fallback.clone(), |_| {
                (0.0, 0.0)
            });
            assert_adaptive_equivalent(
                &w,
                &spec,
                &cfg,
                &ec,
                &never,
                &format!("{} [never-trips policy]", plan.name),
            );
        } else {
            assert_adaptive_equivalent(&w, &spec, &cfg, &ec, &NeverSwitch, &plan.name);
        }
    }
}

/// Batch size must never be observable through the adaptive layer either.
#[test]
fn batch_size_is_not_observable_under_adaptive_execution() {
    let w = workload();
    let cfg = MeasureConfig::default();
    let plans = full_catalog(&w);
    let (ta, tb) = (w.cal_a.threshold(0.2), w.cal_b.threshold(0.6));
    for plan in &plans {
        let spec = plan.build(ta, tb);
        let row = run_static(&w, &spec, &cfg, &ROW_PATH);
        for batch_rows in [1usize, 513, 1 << 20] {
            let ec = ExecConfig::with_batch_rows(batch_rows);
            let label = format!("{} @ batch {batch_rows}", plan.name);
            let abatch = run_adaptive(&w, &spec, &cfg, &ec, &NeverSwitch, &label);
            assert_bit_identical(&row, &abatch, &label);
        }
    }
}

/// The composite shapes beyond the two-predicate catalog: joins on both
/// build sides with in-memory and spilling grants, sort and aggregation in
/// both spill modes, parallel scans, the traditional fetch, and the
/// covering rid join — every arm of the interpreter, checkpointed or
/// not.
#[test]
fn composite_operators_are_bit_identical_with_switching_disabled() {
    let w = workload();
    let cfg = MeasureConfig::default();
    let ec = ExecConfig::default();
    for (label, spec) in &composite_specs(&w) {
        assert_adaptive_equivalent(&w, spec, &cfg, &ec, &NeverSwitch, label);
    }
}

/// Beyond the counters: the rows themselves — values and order — must
/// match the static run's at every batch size, including an empty result.
#[test]
fn collected_rows_match_static_executor_exactly() {
    let w = workload();
    let cfg = MeasureConfig::default();
    let specs = [
        PlanSpec::IndexIntersect {
            left: IndexRangeSpec {
                index: w.indexes.a,
                range: KeyRange::on_leading(i64::MIN, w.cal_a.threshold(0.13), 1),
            },
            right: IndexRangeSpec {
                index: w.indexes.b,
                range: KeyRange::on_leading(i64::MIN, w.cal_b.threshold(0.4), 1),
            },
            algo: IntersectAlgo::MergeJoin,
            fetch: FetchKind::BitmapSorted,
            residual: Predicate::always_true(),
            project: Projection::Columns(vec![4, 0, 2]),
        },
        // Empty result.
        PlanSpec::TableScan {
            table: w.table,
            pred: Predicate::single(ColRange::between(0, 5, 4)),
            project: Projection::All,
        },
        PlanSpec::Mdam {
            index: w.indexes.ab,
            col_ranges: vec![
                (i64::MIN, w.cal_a.threshold(0.3)),
                (i64::MIN, w.cal_b.threshold(0.1)),
            ],
            project: Projection::Columns(vec![1]),
        },
    ];
    for (i, spec) in specs.iter().enumerate() {
        let (row_stats, row_rows) = {
            let s = session(&cfg);
            let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
            run_collect(spec, &ctx, RunOpts { batch: ROW_PATH, controller: None })
                .expect("static collect")
        };
        let (astats, arows) = {
            let s = session(&cfg);
            let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
            run_collect(spec, &ctx, RunOpts { batch: ROW_PATH, controller: Some(&NeverSwitch) })
                .expect("adaptive collect")
        };
        assert_bit_identical(&row_stats, &astats, &format!("collect #{i} [row]"));
        assert_eq!(row_rows, arows, "collect #{i} [row]: rows/order");
        for batch_rows in [1usize, 100, 1024] {
            let ec = ExecConfig::with_batch_rows(batch_rows);
            let (bstats, brows) = {
                let s = session(&cfg);
                let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
                run_collect(spec, &ctx, RunOpts { batch: ec, controller: None })
                    .expect("static batch collect")
            };
            let (abstats, abrows) = {
                let s = session(&cfg);
                let ctx = ExecCtx::new(&w.db, &s, cfg.memory_bytes);
                run_collect(spec, &ctx, RunOpts { batch: ec, controller: Some(&NeverSwitch) })
                    .expect("adaptive batch collect")
            };
            assert_bit_identical(&bstats, &abstats, &format!("collect #{i} [batch]"));
            assert_eq!(brows, abrows, "collect #{i} @ batch {batch_rows}: rows/order");
        }
    }
}
