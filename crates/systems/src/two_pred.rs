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
use robustmap_storage::{CostModel, IndexId};
use robustmap_workload::{Workload, COL_A, COL_B};

use crate::optimizer::{PlanShape, Priced};
use crate::system::SystemId;

/// A named, system-attributed plan for the two-predicate query.
pub struct TwoPredPlan {
    /// Owning system.
    pub system: SystemId,
    /// Stable, human-readable plan name (used as map series labels).
    pub name: String,
    factory: Box<dyn Fn(i64, i64) -> PlanSpec + Send + Sync>,
    /// The shape every build shares: the estimator reads only this.
    pub(crate) shape: Option<PlanShape>,
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

    /// The estimated cost at `at` of every plan [`TwoPredPlan::build`]
    /// returns, from the shape derived once ([`crate::estimate_cost`]).
    pub(crate) fn cost(&self, at: &Priced, model: &CostModel) -> f64 {
        self.shape.map_or(f64::INFINITY, |shape| shape.seconds(at, model))
    }
}

impl std::fmt::Debug for TwoPredPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.name, self.system)
    }
}

/// One order of the two predicate columns, `(a, b)` or `(b, a)`: the
/// single-column indexes on its leading and its other column, the
/// two-column index in that order, and the other column's position.
#[derive(Clone, Copy)]
struct Order {
    lead: IndexId,
    other: IndexId,
    composite: IndexId,
    other_col: usize,
}

/// The range `leading column <= t` of an index whose keys have `arity`
/// columns.
pub(crate) fn up_to(index: IndexId, t: i64, arity: usize) -> IndexRangeSpec {
    IndexRangeSpec { index, range: KeyRange::on_leading(i64::MIN, t, arity) }
}

/// Whole rows of the leading column's range, fetched with `fetch`: the
/// other predicate filters the composite index's keys (position 1) before
/// the fetch, or the single-column index's rows after it.
fn fetch(o: Order, t: i64, u: i64, composite: bool, fetch: FetchKind) -> PlanSpec {
    let (none, other) = (Predicate::always_true(), |c| Predicate::single(ColRange::at_most(c, u)));
    let (scan, key_filter, residual) = if composite {
        (up_to(o.composite, t, 2), other(1), none)
    } else {
        (up_to(o.lead, t, 1), none, other(o.other_col))
    };
    PlanSpec::IndexFetch { scan, key_filter, fetch, residual, project: Projection::All }
}

/// The two single-column ranges, the leading one first, intersected with
/// `algo`, then an improved fetch.
fn intersect(o: Order, t: i64, u: i64, algo: IntersectAlgo) -> PlanSpec {
    PlanSpec::IndexIntersect {
        left: up_to(o.lead, t, 1),
        right: up_to(o.other, u, 1),
        algo,
        fetch: FetchKind::Improved(ImprovedFetchConfig::default()),
        residual: Predicate::always_true(),
        project: Projection::All,
    }
}

/// The plan repertoire of `system` for the two-predicate selection.
///
/// System A has exactly the paper's seven plans; B and C contribute four
/// plans each (their two-column-index techniques, in both column orders).
pub fn two_predicate_plans(system: SystemId, w: &Workload) -> Vec<TwoPredPlan> {
    let (idx, table) = (w.indexes, w.table);
    let ab = Order { lead: idx.a, other: idx.b, composite: idx.ab, other_col: COL_B };
    let ba = Order { lead: idx.b, other: idx.a, composite: idx.ba, other_col: COL_A };
    // A plan in both column orders, named `names`: `spec` gets the order
    // and the constants of its leading and its other column.
    let pair = |[n1, n2]: [&str; 2], spec: fn(Order, i64, i64) -> PlanSpec| {
        [
            TwoPredPlan::new(system, n1, move |ta, tb| spec(ab, ta, tb)),
            TwoPredPlan::new(system, n2, move |ta, tb| spec(ba, tb, ta)),
        ]
    };
    match system {
        SystemId::A => {
            let pred = |ta, tb| {
                Predicate::all_of(vec![ColRange::at_most(COL_A, ta), ColRange::at_most(COL_B, tb)])
            };
            let scan = TwoPredPlan::new(system, "A1 table scan", move |ta, tb| {
                PlanSpec::TableScan { table, pred: pred(ta, tb), project: Projection::All }
            });
            std::iter::once(scan)
                .chain(pair(["A2 idx(a) fetch", "A3 idx(b) fetch"], |o, t, u| {
                    fetch(o, t, u, false, FetchKind::Improved(ImprovedFetchConfig::default()))
                }))
                .chain(pair(["A4 merge(a,b) intersect", "A5 merge(b,a) intersect"], |o, t, u| {
                    intersect(o, t, u, IntersectAlgo::MergeJoin)
                }))
                .chain(pair(["A6 hash(a,b) intersect", "A7 hash(b,a) intersect"], |o, t, u| {
                    intersect(o, t, u, IntersectAlgo::HashJoin { build_left: true })
                }))
                .collect()
        }
        SystemId::B => pair(["B1 idx(a,b) bitmap fetch", "B2 idx(b,a) bitmap fetch"], |o, t, u| {
            // Figure 8's plan: scan the composite index, filter the other
            // column inside it, bitmap-sort the survivors, fetch full rows
            // (MVCC).
            fetch(o, t, u, true, FetchKind::BitmapSorted)
        })
        .into_iter()
        .chain(pair(["B3 idx(a) bitmap fetch", "B4 idx(b) bitmap fetch"], |o, t, u| {
            fetch(o, t, u, false, FetchKind::BitmapSorted)
        }))
        .collect(),
        SystemId::C => pair(["C1 mdam(a,b) covering", "C2 mdam(b,a) covering"], |o, t, u| {
            // Figure 9's plan: covering two-column index driven by MDAM.
            PlanSpec::Mdam {
                index: o.composite,
                col_ranges: vec![(i64::MIN, t), (i64::MIN, u)],
                project: Projection::All,
            }
        })
        .into_iter()
        // The same covering indexes without MDAM: range on the leading
        // column, residual filter on the second (the ablation that shows
        // why "only if fully exploited using MDAM").
        .chain(pair(["C3 covering(a,b) scan", "C4 covering(b,a) scan"], |o, t, u| {
            PlanSpec::CoveringIndexScan {
                scan: up_to(o.composite, t, 2),
                residual: Predicate::single(ColRange::at_most(1, u)),
                project: Projection::All,
            }
        }))
        .collect(),
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

    /// With exact selectivities, every catalog plan's estimate lies within
    /// a factor of two of what its run is charged, over a 5 x 5 grid on a
    /// table larger than one pass of its leaves — cold pool, the maps'
    /// grant.
    #[test]
    fn estimates_track_what_every_catalog_plan_is_charged() {
        use crate::admission::DEFAULT_GRANT;
        use crate::choice::{Estimator, Exact};
        use crate::optimizer::CatalogStats;
        use robustmap_storage::{BufferPool, CostModel, EvictionPolicy};
        let w = TableBuilder::build(WorkloadConfig::with_rows(1 << 14));
        let (stats, model, exact) = (CatalogStats::of(&w), CostModel::hdd_2009(), Exact::of(&w));
        let sels = [1.0 / 4096.0, 1.0 / 512.0, 1.0 / 64.0, 1.0 / 8.0, 1.0];
        let mut off = Vec::new();
        for system in SystemId::all() {
            for plan in two_predicate_plans(system, &w) {
                for (sa, sb) in sels.iter().flat_map(|&a| sels.iter().map(move |&b| (a, b))) {
                    let (ta, tb) = (w.cal_a.threshold(sa), w.cal_b.threshold(sb));
                    let s = Session::new(model.clone(), BufferPool::new(1024, EvictionPolicy::Lru));
                    let ctx = ExecCtx::new(&w.db, &s, DEFAULT_GRANT);
                    let charged = run_count(&plan.build(ta, tb), &ctx, None).unwrap().seconds;
                    let at = stats.at(&exact.estimate(ta, tb));
                    let ratio = plan.cost(&at, &model) / charged;
                    if !(0.5..=2.0).contains(&ratio) {
                        off.push(format!("{} at ({sa}, {sb}): {ratio:.3}", plan.name));
                    }
                }
            }
        }
        assert!(off.is_empty(), "estimate / charge outside [0.5, 2]:\n{}", off.join("\n"));
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
