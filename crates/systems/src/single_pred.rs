//! Plan catalogs for the single-predicate selection
//! (`SELECT a, c FROM lineitem WHERE a <= ta`), the query behind Figures 1
//! and 2.
//!
//! The query projects columns `a` and `c`, so the single-column index on
//! `a` does *not* cover it — that is what makes the fetch disciplines of
//! Figure 1 interesting, and what Figure 2's "multi-index plans that join
//! non-clustered indexes such that the join result covers the query" work
//! around.

use robustmap_executor::{
    ColRange, FetchKind, ImprovedFetchConfig, IndexRangeSpec, IntersectAlgo, KeyRange, PlanSpec,
    Predicate, Projection,
};
use robustmap_workload::{Workload, COL_A, COL_C};

use crate::system::SystemId;
use crate::two_pred::up_to;

/// A named plan for the single-predicate query, parameterised by the
/// predicate constant.
pub struct SinglePredPlan {
    /// Owning system (all Figure 1/2 plans run on System A).
    pub system: SystemId,
    /// Stable plan name (map series label).
    pub name: String,
    factory: Box<dyn Fn(i64) -> PlanSpec + Send + Sync>,
}

impl SinglePredPlan {
    fn new(name: &str, factory: impl Fn(i64) -> PlanSpec + Send + Sync + 'static) -> Self {
        SinglePredPlan { system: SystemId::A, name: name.to_string(), factory: Box::new(factory) }
    }

    /// Build the plan for `a <= ta`.
    pub fn build(&self, ta: i64) -> PlanSpec {
        (self.factory)(ta)
    }
}

impl std::fmt::Debug for SinglePredPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.name, self.system)
    }
}

/// Which plan family Figure 1 or Figure 2 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinglePredPlanSet {
    /// Figure 1's three plans: table scan, traditional index scan, improved
    /// index scan.
    Basic,
    /// Figure 2's extension: the basic plans plus covering rid-join plans
    /// ("alternative join algorithms and ... alternative join orders").
    WithIndexJoins,
}

/// The plan catalog for the single-predicate selection.
pub fn single_predicate_plans(set: SinglePredPlanSet, w: &Workload) -> Vec<SinglePredPlan> {
    let idx = w.indexes;
    let table = w.table;
    let project_ac = Projection::Columns(vec![COL_A, COL_C]);
    // The index range on `a`, every row of it fetched with `fetch`.
    let index_scan = |fetch: FetchKind| {
        let project = project_ac.clone();
        move |ta| PlanSpec::IndexFetch {
            scan: up_to(idx.a, ta, 1),
            key_filter: Predicate::always_true(),
            fetch,
            residual: Predicate::always_true(),
            project: project.clone(),
        }
    };
    let mut plans = vec![
        SinglePredPlan::new("table scan", {
            let project = project_ac.clone();
            move |ta| PlanSpec::TableScan {
                table,
                pred: Predicate::single(ColRange::at_most(COL_A, ta)),
                project: project.clone(),
            }
        }),
        SinglePredPlan::new("traditional index scan", index_scan(FetchKind::Traditional)),
        SinglePredPlan::new(
            "improved index scan",
            index_scan(FetchKind::Improved(ImprovedFetchConfig::default())),
        ),
    ];
    if set == SinglePredPlanSet::WithIndexJoins {
        // Joined covering rows are `a ++ c` (left keys then right keys), so
        // the projection is the identity in that combined space.
        let join = |algo: IntersectAlgo| {
            move |ta: i64| PlanSpec::CoveringRidJoin {
                left: up_to(idx.a, ta, 1),
                right: IndexRangeSpec { index: idx.c, range: KeyRange::full(1) },
                algo,
                project: Projection::All,
            }
        };
        plans.push(SinglePredPlan::new("rid join (merge)", join(IntersectAlgo::MergeJoin)));
        plans.push(SinglePredPlan::new(
            "rid join (hash, build a)",
            join(IntersectAlgo::HashJoin { build_left: true }),
        ));
        plans.push(SinglePredPlan::new(
            "rid join (hash, build c)",
            join(IntersectAlgo::HashJoin { build_left: false }),
        ));
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_executor::{run_count, ExecCtx};
    use robustmap_storage::Session;
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    #[test]
    fn basic_set_has_figure_ones_three_plans() {
        let w = TableBuilder::build(WorkloadConfig::small());
        assert_eq!(single_predicate_plans(SinglePredPlanSet::Basic, &w).len(), 3);
        assert_eq!(single_predicate_plans(SinglePredPlanSet::WithIndexJoins, &w).len(), 6);
    }

    /// Each plan returns the rows the calibrator counted below the
    /// threshold (`tests/plan_agreement.rs` compares the rows themselves).
    #[test]
    fn all_six_plans_count_the_calibrated_rows() {
        let w = TableBuilder::build(WorkloadConfig::small());
        let (ta, count) = w.cal_a.threshold_with_count(1.0 / 32.0);
        for plan in single_predicate_plans(SinglePredPlanSet::WithIndexJoins, &w) {
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            let stats = run_count(&plan.build(ta), &ctx, None).unwrap();
            assert_eq!(stats.rows_out, count, "{}", plan.name);
        }
    }

    #[test]
    fn empty_selectivity_returns_nothing_fast() {
        let w = TableBuilder::build(WorkloadConfig::small());
        for plan in single_predicate_plans(SinglePredPlanSet::WithIndexJoins, &w) {
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
            let stats = run_count(&plan.build(i64::MIN), &ctx, None).unwrap();
            assert_eq!(stats.rows_out, 0, "{}", plan.name);
        }
    }
}
