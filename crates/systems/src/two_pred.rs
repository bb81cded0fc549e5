//! Plan catalogs for the two-predicate selection
//! (`SELECT ... FROM lineitem WHERE a <= ta AND b <= tb`),
//! the query behind Figures 4-10.
//!
//! Factories take the two predicate constants so the map builder can sweep
//! `(sel_a, sel_b)` grids; thresholds come from the workload's calibrators.

use robustmap_executor::{
    ColRange, FetchKind, ImprovedFetchConfig, IndexRangeSpec, IntersectAlgo, KeyRange, PlanSpec,
    Predicate, Projection,
};
use robustmap_workload::{Workload, COL_A, COL_B};

use crate::optimizer::PlanShape;
use crate::system::SystemId;

/// A named, system-attributed plan for the two-predicate query.
pub struct TwoPredPlan {
    /// Owning system.
    pub system: SystemId,
    /// Stable, human-readable plan name (used as map series labels).
    pub name: String,
    factory: Box<dyn Fn(i64, i64) -> PlanSpec + Send + Sync>,
    /// The shape every build shares: the cost formulas read only this.
    shape: PlanShape,
}

impl TwoPredPlan {
    fn new(
        system: SystemId,
        name: &str,
        factory: impl Fn(i64, i64) -> PlanSpec + Send + Sync + 'static,
    ) -> Self {
        // The constants never change a shape; any pair derives it.
        let shape = PlanShape::of(&factory(0, 0));
        TwoPredPlan { system, name: name.to_string(), factory: Box::new(factory), shape }
    }

    /// Build the plan for predicate constants `a <= ta AND b <= tb`.
    pub fn build(&self, ta: i64, tb: i64) -> PlanSpec {
        (self.factory)(ta, tb)
    }

    /// The shape of every plan [`TwoPredPlan::build`] returns, derived once:
    /// what a decision prices.
    pub(crate) fn shape(&self) -> PlanShape {
        self.shape
    }
}

impl std::fmt::Debug for TwoPredPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.name, self.system)
    }
}

fn pred_both(ta: i64, tb: i64) -> Predicate {
    Predicate::all_of(vec![ColRange::at_most(COL_A, ta), ColRange::at_most(COL_B, tb)])
}

/// The plan repertoire of `system` for the two-predicate selection.
///
/// System A has exactly the paper's seven plans; B and C contribute four
/// plans each (their two-column-index techniques, in both column orders).
pub fn two_predicate_plans(system: SystemId, w: &Workload) -> Vec<TwoPredPlan> {
    let idx = w.indexes;
    let table = w.table;
    let improved = FetchKind::Improved(ImprovedFetchConfig::default());
    match system {
        SystemId::A => vec![
            TwoPredPlan::new(SystemId::A, "A1 table scan", move |ta, tb| PlanSpec::TableScan {
                table,
                pred: pred_both(ta, tb),
                project: Projection::All,
            }),
            TwoPredPlan::new(SystemId::A, "A2 idx(a) fetch", move |ta, tb| PlanSpec::IndexFetch {
                scan: IndexRangeSpec { index: idx.a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
                key_filter: Predicate::always_true(),
                fetch: improved,
                residual: Predicate::single(ColRange::at_most(COL_B, tb)),
                project: Projection::All,
            }),
            TwoPredPlan::new(SystemId::A, "A3 idx(b) fetch", move |ta, tb| PlanSpec::IndexFetch {
                scan: IndexRangeSpec { index: idx.b, range: KeyRange::on_leading(i64::MIN, tb, 1) },
                key_filter: Predicate::always_true(),
                fetch: improved,
                residual: Predicate::single(ColRange::at_most(COL_A, ta)),
                project: Projection::All,
            }),
            TwoPredPlan::new(SystemId::A, "A4 merge(a,b) intersect", move |ta, tb| {
                PlanSpec::IndexIntersect {
                    left: IndexRangeSpec {
                        index: idx.a,
                        range: KeyRange::on_leading(i64::MIN, ta, 1),
                    },
                    right: IndexRangeSpec {
                        index: idx.b,
                        range: KeyRange::on_leading(i64::MIN, tb, 1),
                    },
                    algo: IntersectAlgo::MergeJoin,
                    fetch: improved,
                    residual: Predicate::always_true(),
                    project: Projection::All,
                }
            }),
            TwoPredPlan::new(SystemId::A, "A5 merge(b,a) intersect", move |ta, tb| {
                PlanSpec::IndexIntersect {
                    left: IndexRangeSpec {
                        index: idx.b,
                        range: KeyRange::on_leading(i64::MIN, tb, 1),
                    },
                    right: IndexRangeSpec {
                        index: idx.a,
                        range: KeyRange::on_leading(i64::MIN, ta, 1),
                    },
                    algo: IntersectAlgo::MergeJoin,
                    fetch: improved,
                    residual: Predicate::always_true(),
                    project: Projection::All,
                }
            }),
            TwoPredPlan::new(SystemId::A, "A6 hash(a,b) intersect", move |ta, tb| {
                PlanSpec::IndexIntersect {
                    left: IndexRangeSpec {
                        index: idx.a,
                        range: KeyRange::on_leading(i64::MIN, ta, 1),
                    },
                    right: IndexRangeSpec {
                        index: idx.b,
                        range: KeyRange::on_leading(i64::MIN, tb, 1),
                    },
                    algo: IntersectAlgo::HashJoin { build_left: true },
                    fetch: improved,
                    residual: Predicate::always_true(),
                    project: Projection::All,
                }
            }),
            TwoPredPlan::new(SystemId::A, "A7 hash(b,a) intersect", move |ta, tb| {
                PlanSpec::IndexIntersect {
                    left: IndexRangeSpec {
                        index: idx.b,
                        range: KeyRange::on_leading(i64::MIN, tb, 1),
                    },
                    right: IndexRangeSpec {
                        index: idx.a,
                        range: KeyRange::on_leading(i64::MIN, ta, 1),
                    },
                    algo: IntersectAlgo::HashJoin { build_left: true },
                    fetch: improved,
                    residual: Predicate::always_true(),
                    project: Projection::All,
                }
            }),
        ],
        SystemId::B => vec![
            // Figure 8's plan: scan the (a,b) index, filter b inside the
            // index, bitmap-sort the survivors, fetch full rows (MVCC).
            TwoPredPlan::new(SystemId::B, "B1 idx(a,b) bitmap fetch", move |ta, tb| {
                PlanSpec::IndexFetch {
                    scan: IndexRangeSpec {
                        index: idx.ab,
                        range: KeyRange::on_leading(i64::MIN, ta, 2),
                    },
                    // Key space of idx(a,b): position 0 = a, position 1 = b.
                    key_filter: Predicate::single(ColRange::at_most(1, tb)),
                    fetch: FetchKind::BitmapSorted,
                    residual: Predicate::always_true(),
                    project: Projection::All,
                }
            }),
            TwoPredPlan::new(SystemId::B, "B2 idx(b,a) bitmap fetch", move |ta, tb| {
                PlanSpec::IndexFetch {
                    scan: IndexRangeSpec {
                        index: idx.ba,
                        range: KeyRange::on_leading(i64::MIN, tb, 2),
                    },
                    key_filter: Predicate::single(ColRange::at_most(1, ta)),
                    fetch: FetchKind::BitmapSorted,
                    residual: Predicate::always_true(),
                    project: Projection::All,
                }
            }),
            TwoPredPlan::new(SystemId::B, "B3 idx(a) bitmap fetch", move |ta, tb| {
                PlanSpec::IndexFetch {
                    scan: IndexRangeSpec {
                        index: idx.a,
                        range: KeyRange::on_leading(i64::MIN, ta, 1),
                    },
                    key_filter: Predicate::always_true(),
                    fetch: FetchKind::BitmapSorted,
                    residual: Predicate::single(ColRange::at_most(COL_B, tb)),
                    project: Projection::All,
                }
            }),
            TwoPredPlan::new(SystemId::B, "B4 idx(b) bitmap fetch", move |ta, tb| {
                PlanSpec::IndexFetch {
                    scan: IndexRangeSpec {
                        index: idx.b,
                        range: KeyRange::on_leading(i64::MIN, tb, 1),
                    },
                    key_filter: Predicate::always_true(),
                    fetch: FetchKind::BitmapSorted,
                    residual: Predicate::single(ColRange::at_most(COL_A, ta)),
                    project: Projection::All,
                }
            }),
        ],
        SystemId::C => vec![
            // Figure 9's plan: covering two-column index driven by MDAM.
            TwoPredPlan::new(SystemId::C, "C1 mdam(a,b) covering", move |ta, tb| PlanSpec::Mdam {
                index: idx.ab,
                col_ranges: vec![(i64::MIN, ta), (i64::MIN, tb)],
                project: Projection::All,
            }),
            TwoPredPlan::new(SystemId::C, "C2 mdam(b,a) covering", move |ta, tb| PlanSpec::Mdam {
                index: idx.ba,
                col_ranges: vec![(i64::MIN, tb), (i64::MIN, ta)],
                project: Projection::All,
            }),
            // The same covering indexes without MDAM: range on the leading
            // column, residual filter on the second (the ablation that
            // shows why "only if fully exploited using MDAM").
            TwoPredPlan::new(SystemId::C, "C3 covering(a,b) scan", move |ta, tb| {
                PlanSpec::CoveringIndexScan {
                    scan: IndexRangeSpec {
                        index: idx.ab,
                        range: KeyRange::on_leading(i64::MIN, ta, 2),
                    },
                    residual: Predicate::single(ColRange::at_most(1, tb)),
                    project: Projection::All,
                }
            }),
            TwoPredPlan::new(SystemId::C, "C4 covering(b,a) scan", move |ta, tb| {
                PlanSpec::CoveringIndexScan {
                    scan: IndexRangeSpec {
                        index: idx.ba,
                        range: KeyRange::on_leading(i64::MIN, tb, 2),
                    },
                    residual: Predicate::single(ColRange::at_most(1, ta)),
                    project: Projection::All,
                }
            }),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_executor::{run_count, ExecCtx};
    use robustmap_storage::Session;
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    #[test]
    fn system_a_has_the_papers_seven_plans() {
        let w = TableBuilder::build(WorkloadConfig::small());
        assert_eq!(two_predicate_plans(SystemId::A, &w).len(), 7);
        assert_eq!(two_predicate_plans(SystemId::B, &w).len(), 4);
        assert_eq!(two_predicate_plans(SystemId::C, &w).len(), 4);
    }

    #[test]
    fn all_fifteen_plans_agree_on_result_size() {
        let w = TableBuilder::build(WorkloadConfig::small());
        let n = w.rows();
        for (sel_a, sel_b) in [(0.25, 0.5), (1.0, 1.0 / 64.0), (1.0 / 256.0, 1.0)] {
            let (ta, count_a) = w.cal_a.threshold_with_count(sel_a);
            let (tb, count_b) = w.cal_b.threshold_with_count(sel_b);
            assert_eq!(count_a, (n as f64 * sel_a) as u64);
            assert_eq!(count_b, (n as f64 * sel_b) as u64);
            let mut expected: Option<u64> = None;
            for system in SystemId::all() {
                for plan in two_predicate_plans(system, &w) {
                    let spec = plan.build(ta, tb);
                    let s = Session::with_pool_pages(256);
                    let ctx = ExecCtx::new(&w.db, &s, 1 << 22);
                    let stats = run_count(&spec, &ctx, None).unwrap();
                    match expected {
                        None => expected = Some(stats.rows_out),
                        Some(e) => assert_eq!(
                            stats.rows_out, e,
                            "{} at ({sel_a}, {sel_b})",
                            plan.name
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn plan_names_are_unique() {
        let w = TableBuilder::build(WorkloadConfig::small());
        let mut names = std::collections::HashSet::new();
        for system in SystemId::all() {
            for plan in two_predicate_plans(system, &w) {
                assert!(names.insert(plan.name.clone()), "duplicate {}", plan.name);
            }
        }
        assert_eq!(names.len(), 15);
    }
}
