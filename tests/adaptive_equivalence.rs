//! Differential no-switch equivalence suite for adaptive execution.
//!
//! A `controller` passed to `run` arms cardinality checkpoints inside the
//! one interpreter.  Observation must be free: when the controller never
//! bails — whether because it is a closure answering `None` or because it
//! is a real, armed [`BailController`] whose thresholds never trip — the run
//! must be **identical** to a static one (`None`): same clock ticks, same
//! `IoStats`, same spill flag, same per-operator breakdown, and the same
//! output rows in the same order, under every condition of the
//! independence matrix.  `docs/DESIGN.md` § adaptive execution records the
//! design argument this suite pins.

use robustmap::core::MeasureConfig;
use robustmap::executor::{
    AggFn, CheckpointKind, ColRange, ExecStats, FetchKind, IndexRangeSpec, IntersectAlgo, KeyRange,
    Observation, PlanSpec, Predicate, Projection, SpillMode, SwitchController,
};
use robustmap::storage::CostModel;
use robustmap::systems::choice::Exact;
use robustmap::systems::{
    two_pred_bail_controller, two_predicate_plans, BailController, CatalogStats, ChoicePolicy,
    Chooser, Estimator, RobustConfig, SwitchPolicy, SystemId, TwoPredPlan, DEFAULT_BAND_FACTOR,
};
use robustmap::workload::{TableBuilder, Workload, WorkloadConfig};

mod common;
use common::{assert_bit_identical, collect_under, composite_specs, run_under, variants};

fn workload() -> Workload {
    TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13))
}

fn full_catalog(w: &Workload) -> Vec<TwoPredPlan> {
    SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect()
}

/// Run under `ctrl` on a fresh session; asserts nothing bailed.
fn run_adaptive(
    w: &Workload,
    spec: &PlanSpec,
    cfg: &MeasureConfig,
    ctrl: &dyn SwitchController,
    label: &str,
) -> ExecStats {
    let stats = run_under(w, spec, cfg, Some(ctrl));
    assert!(stats.switches.is_empty(), "{label}: no-bail run recorded a bail");
    stats
}

/// Under `ctrl` vs static, one spec, under every condition of the
/// independence matrix.
fn assert_adaptive_equivalent(
    w: &Workload,
    spec: &PlanSpec,
    base: &MeasureConfig,
    ctrl: &dyn SwitchController,
    label: &str,
) {
    for (how, cfg) in &variants(base) {
        let label = format!("{label} [{how}]");
        let stat = run_under(w, spec, cfg, None);
        assert_bit_identical(&stat, &run_adaptive(w, spec, cfg, ctrl, &label), &label);
    }
}

/// Every plan in the catalog — A1–A7, B1–B4, C1–C4 — over a selectivity
/// grid, with switching disabled: a controller that never bails is
/// indistinguishable from no controller.
#[test]
fn all_fifteen_catalog_plans_are_bit_identical_with_switching_disabled() {
    let w = workload();
    let plans = full_catalog(&w);
    assert_eq!(plans.len(), 15, "catalog size changed; update this suite");
    let cfg = MeasureConfig::default();
    let sels = [0.02, 0.3, 0.9];
    for plan in &plans {
        for &sa in &sels {
            for &sb in &sels {
                let spec = plan.build(w.cal_a.threshold(sa), w.cal_b.threshold(sb));
                let label = format!("{} @ ({sa}, {sb})", plan.name);
                assert_adaptive_equivalent(&w, &spec, &cfg, &|_: &Observation| None, &label);
            }
        }
    }
}

/// Not just a closure answering `None`: a *real*, armed [`BailController`]
/// whose thresholds never trip must also be bit-identical — both the
/// degenerate never-trips policy and a live policy built from an actual
/// compile-time choice over accurate estimates (whose credible band
/// therefore holds).
#[test]
fn armed_but_never_tripping_controllers_are_bit_identical() {
    let w = workload();
    let plans = full_catalog(&w);
    let cfg = MeasureConfig::default();
    let stats = CatalogStats::of(&w);
    let model = CostModel::hdd_2009();
    let (ta, tb) = (w.cal_a.threshold(0.2), w.cal_b.threshold(0.6));
    let est = Exact::of(&w).estimate(ta, tb);
    let chooser = Chooser { plans: &plans, stats: &stats, model: &model, policy: ChoicePolicy::Point };
    let choice = chooser.choose(&est, ta, tb);
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
            DEFAULT_BAND_FACTOR,
        ) {
            let label = format!("{} [live policy]", plan.name);
            assert_adaptive_equivalent(&w, &spec, &cfg, &ctrl, &label);
            // The degenerate policy: same controller, thresholds at ∞.
            let never = BailController::new(ctrl.at, SwitchPolicy::never(), fallback.clone(), |_| {
                (0.0, 0.0)
            });
            let label = format!("{} [never-trips policy]", plan.name);
            assert_adaptive_equivalent(&w, &spec, &cfg, &never, &label);
        } else {
            assert_adaptive_equivalent(&w, &spec, &cfg, &|_: &Observation| None, &plan.name);
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
    for (label, spec) in &composite_specs(&w) {
        assert_adaptive_equivalent(&w, spec, &cfg, &|_: &Observation| None, label);
    }
}

/// Beyond the counters: the rows themselves — values and order — must
/// match the static run's under every condition, including an empty
/// result.
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
        for (how, cfg) in variants(&cfg) {
            let (stats, rows) = collect_under(&w, spec, &cfg, None);
            let (astats, arows) = collect_under(&w, spec, &cfg, Some(&|_: &Observation| None));
            assert_bit_identical(&stats, &astats, &format!("collect #{i} [{how}]"));
            assert_eq!(rows, arows, "collect #{i} [{how}]: rows/order");
        }
    }
}

/// A controller that trips at the root: counting the rows (`run_under`, as
/// a map cell does) and reading them (`collect_under`) charge the same —
/// the abandoned operator's prefix, the switch record and the replacement,
/// which is counted or read like the plan it replaced — under every
/// condition; the read run returns the replacement's rows.
/// The replacements are a spilling sort, a spilling aggregation and a
/// fetch, so a counted root sort and aggregation are reached through a
/// bail too.
#[test]
fn a_root_bail_charges_the_same_counted_or_read() {
    let w = workload();
    let base = MeasureConfig::default();
    let (ta, tb) = (w.cal_a.threshold(0.2), w.cal_b.threshold(0.6));
    let scan = |project| PlanSpec::TableScan {
        table: w.table,
        pred: Predicate::all_of(vec![ColRange::at_most(0, ta), ColRange::at_most(1, tb)]),
        project,
    };
    let sort = PlanSpec::Sort {
        input: Box::new(scan(Projection::All)),
        key_cols: vec![1],
        mode: SpillMode::Abrupt,
        memory_bytes: 4096,
    };
    let agg = PlanSpec::HashAgg {
        input: Box::new(scan(Projection::All)),
        group_cols: vec![2],
        aggs: vec![AggFn::CountStar, AggFn::Sum(3)],
        mode: SpillMode::Graceful,
        memory_bytes: 4096,
    };
    let mdam = PlanSpec::Mdam {
        index: w.indexes.ab,
        col_ranges: vec![(i64::MIN, ta), (i64::MIN, tb)],
        project: Projection::All,
    };
    let fetch = PlanSpec::IndexFetch {
        scan: IndexRangeSpec { index: w.indexes.a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
        key_filter: Predicate::always_true(),
        fetch: FetchKind::Traditional,
        residual: Predicate::single(ColRange::at_most(1, tb)),
        project: Projection::All,
    };
    let intersect = PlanSpec::IndexIntersect {
        left: IndexRangeSpec { index: w.indexes.a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
        right: IndexRangeSpec { index: w.indexes.b, range: KeyRange::on_leading(i64::MIN, tb, 1) },
        algo: IntersectAlgo::HashJoin { build_left: true },
        fetch: FetchKind::BitmapSorted,
        residual: Predicate::always_true(),
        project: Projection::All,
    };
    let cases = [
        ("fetch -> sort", fetch.clone(), CheckpointKind::RidFeed, sort),
        ("intersect -> hashagg", intersect, CheckpointKind::IntersectOut, agg),
        ("mdam -> fetch", mdam, CheckpointKind::ScanOut, fetch),
    ];
    for (name, plan, at, fallback) in cases {
        let ctrl = |obs: &Observation| (obs.kind == at).then(|| fallback.clone());
        for (how, cfg) in &variants(&base) {
            let label = format!("{name} [{how}]");
            let counted = run_under(&w, &plan, cfg, Some(&ctrl));
            let (read, rows) = collect_under(&w, &plan, cfg, Some(&ctrl));
            assert_eq!(counted.switches.len(), 1, "{label}: the controller trips once");
            let abandoned = counted.operators.iter().filter(|op| op.label.ends_with("[abandoned]"));
            assert_eq!(abandoned.count(), 1, "{label}: the root is recorded as abandoned");
            assert_bit_identical(&counted, &read, &label);
            assert_eq!(rows.len() as u64, read.rows_out, "{label}: rows read");
        }
    }
}
