//! Adaptive execution: cardinality checkpoints at materialization points.
//!
//! The paper's thesis (§1) is that compile-time plan choice inevitably goes
//! wrong and run-time techniques must absorb the estimation error.  This
//! module is the vocabulary of that run-time layer.  [`crate::exec::run`]
//! with a `controller` runs a plan exactly like a static run, but at every
//! *materialization point* — a collected rid list, an intersection feed or
//! output, a join input, a sort or aggregation input — it pauses to report
//! the **exact** observed cardinality to the [`SwitchController`] before
//! the downstream work that depends on it has been paid for.  The
//! controller may answer with a [`SwitchDirective`]: keep going, swap the
//! remaining operator choice (fetch discipline, intersection algorithm,
//! join algorithm), or bail out to a replacement plan (typically the
//! choice-free MDAM plan).
//!
//! # The no-switch equivalence argument
//!
//! Observation is free: counting rows that a static run materialises
//! anyway issues no charge on the simulated clock, touches no page, and
//! moves no data.  There is one interpreter, and a checkpoint is a wedge
//! inside the single arm of each plan shape, between the charge that
//! produced the materialisation and the charge that consumes it — so the
//! charge sequence cannot depend on whether a controller is present.
//! When the controller always answers [`SwitchDirective::Continue`] (e.g.
//! [`NeverSwitch`], or a real policy whose thresholds never trip), the run
//! is **bit-identical** to `controller: None` — same `SimClock` bits, same
//! `IoStats`, same per-op stats, same output rows.
//! `tests/adaptive_equivalence.rs` pins this across the plan catalog and
//! the composite shapes.
//!
//! The one shape whose *emission* differs is MDAM, whose checkpoints fire
//! mid-scan: under a controller its output is held back until the scan is
//! past its last possible bail point, so a bail discards it.  Emission is
//! charge-free, so the MDAM operator's own charges are unaffected — but a
//! Sort or HashAgg directly above a controlled MDAM receives its input
//! after the scan instead of interleaved with it.  A static run streams:
//! holding a whole scan's output back in every map cell would cost memory
//! for nothing.
//!
//! # Switch-cost accounting
//!
//! Nothing is rolled back.  When a directive swaps an operator choice, the
//! already-charged prefix (index scans, intersection, materialised inputs)
//! is reused and only the remaining pipeline changes.  When a directive
//! bails to a replacement plan, the abandoned prefix's charges stay on the
//! clock — they are recorded under the abandoned operator's label with zero
//! output rows — and the replacement plan then runs in full.  The simulated
//! cost of a bailed execution is therefore *sunk prefix + full fallback*,
//! never less: adaptivity pays for its mistakes in the same currency the
//! robustness maps measure.

use robustmap_obs::trace::TraceEventKind;

use crate::exec::ExecCtx;
use crate::plan::{algo_name, fetch_name, CheckpointKind, FetchKind, IntersectAlgo, JoinAlgo,
    PlanSpec};

/// One cardinality observation at a checkpoint: the kind of
/// materialization point and the exact number of rows (or rids/entries)
/// it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Which materialization point fired.
    pub kind: CheckpointKind,
    /// Exact cardinality observed there.
    pub rows: u64,
}

/// What a [`SwitchController`] tells the executor to do at a checkpoint.
///
/// Directives that do not apply at the observed point (e.g. a
/// [`SwitchDirective::SwitchJoin`] at a [`CheckpointKind::RidFeed`]) are
/// treated as [`SwitchDirective::Continue`]; the observe-only points
/// ([`CheckpointKind::SortInput`], [`CheckpointKind::AggInput`]) ignore
/// every directive because nothing downstream of them is re-plannable.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchDirective {
    /// Proceed with the planned pipeline.
    Continue,
    /// Fetch the pending rids with a different discipline
    /// (valid at [`CheckpointKind::RidFeed`] / [`CheckpointKind::IntersectOut`]).
    SwitchFetch(FetchKind),
    /// Intersect the collected feeds with a different algorithm (valid at
    /// the *right* [`CheckpointKind::IntersectFeed`], when both feeds are
    /// known but the intersection has not run).
    SwitchIntersect(IntersectAlgo),
    /// Join the materialised inputs with a different algorithm (valid at
    /// the second join-input checkpoint).
    SwitchJoin(JoinAlgo),
    /// Abandon the current operator and run this plan instead.  The sunk
    /// prefix stays on the clock; the replacement runs with switching
    /// disabled (it is the hedge — there is nothing left to hedge with).
    Bail(PlanSpec),
}

impl SwitchDirective {
    /// Short human-readable action label for [`SwitchEvent`]s.
    fn describe(&self) -> String {
        match self {
            SwitchDirective::Continue => "continue".to_string(),
            SwitchDirective::SwitchFetch(f) => format!("switch-fetch({})", fetch_name(f)),
            SwitchDirective::SwitchIntersect(a) => {
                format!("switch-intersect({})", algo_name(a))
            }
            SwitchDirective::SwitchJoin(JoinAlgo::SortMerge) => {
                "switch-join(sort-merge)".to_string()
            }
            SwitchDirective::SwitchJoin(JoinAlgo::Hash { build_left }) => {
                format!("switch-join(hash/build-{})", if *build_left { "left" } else { "right" })
            }
            SwitchDirective::Bail(plan) => format!("bail -> {}", plan.synopsis()),
        }
    }
}

/// Decides, at each checkpoint, whether the observed cardinality warrants
/// changing course.  Implementations live above the executor (see
/// `robustmap-systems`' `SwitchPolicy`); the executor only obeys.
pub trait SwitchController {
    /// Inspect one observation and answer with a directive.  Called
    /// synchronously between two charges; must not charge anything itself.
    fn decide(&self, obs: &Observation) -> SwitchDirective;
}

/// The controller that never switches: adaptive execution under it is
/// bit-identical to the static executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverSwitch;

impl SwitchController for NeverSwitch {
    fn decide(&self, _obs: &Observation) -> SwitchDirective {
        SwitchDirective::Continue
    }
}

/// One acted-upon directive, for the execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchEvent {
    /// The checkpoint that fired.
    pub at: CheckpointKind,
    /// The cardinality observed there.
    pub observed: u64,
    /// What the executor did about it (e.g. `bail -> Mdam`).
    pub action: String,
}

/// Stable name of a checkpoint for trace events.
fn checkpoint_name(kind: CheckpointKind) -> &'static str {
    match kind {
        CheckpointKind::RidFeed => "rid_feed",
        CheckpointKind::IntersectFeed { .. } => "intersect_feed",
        CheckpointKind::IntersectOut => "intersect_out",
        CheckpointKind::JoinBuild => "join_build",
        CheckpointKind::JoinProbe => "join_probe",
        CheckpointKind::SortInput => "sort_input",
        CheckpointKind::AggInput => "agg_input",
        CheckpointKind::ScanOut => "scan_out",
    }
}

/// Report one observation to the run's controller and record the directive
/// if it is acted upon; a static run (`ctrl` is `None`) continues without
/// a trace.  When the session is traced, every checkpoint emits a
/// (charge-free) instant event, and an acted-upon directive emits a switch
/// event — the timeline shows exactly when the cascade fired and when it
/// bailed.
pub(crate) fn observe(
    ctx: &ExecCtx<'_>,
    ctrl: Option<&dyn SwitchController>,
    kind: CheckpointKind,
    rows: u64,
) -> SwitchDirective {
    let Some(ctrl) = ctrl else { return SwitchDirective::Continue };
    if ctx.session.is_traced() {
        ctx.session
            .trace_event(TraceEventKind::Checkpoint { kind: checkpoint_name(kind), rows });
    }
    let d = ctrl.decide(&Observation { kind, rows });
    if !matches!(d, SwitchDirective::Continue) {
        if ctx.session.is_traced() {
            ctx.session.trace_event(TraceEventKind::Switch {
                at: checkpoint_name(kind),
                observed: rows,
                action: d.describe(),
            });
        }
        ctx.record_switch(SwitchEvent { at: kind, observed: rows, action: d.describe() });
    }
    d
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::exec::{run_collect, run_count};
    use crate::expr::{ColRange, Predicate};
    use crate::ops::testutil::demo_db;
    use crate::plan::{
        ImprovedFetchConfig, IndexRangeSpec, KeyRange, Projection, SpillMode,
    };
    use robustmap_storage::Session;

    /// Controller that records every observation and always continues.
    #[derive(Default)]
    struct Recording {
        log: RefCell<Vec<(CheckpointKind, u64)>>,
    }

    impl SwitchController for Recording {
        fn decide(&self, obs: &Observation) -> SwitchDirective {
            self.log.borrow_mut().push((obs.kind, obs.rows));
            SwitchDirective::Continue
        }
    }

    /// Controller that bails to `alt` the first time `at` fires.
    struct BailAt {
        at: CheckpointKind,
        alt: PlanSpec,
    }

    impl SwitchController for BailAt {
        fn decide(&self, obs: &Observation) -> SwitchDirective {
            if obs.kind == self.at {
                SwitchDirective::Bail(self.alt.clone())
            } else {
                SwitchDirective::Continue
            }
        }
    }

    /// The observation log and row count of `plan` under a recording
    /// controller.
    fn observed(
        db: &robustmap_storage::Database,
        plan: &PlanSpec,
    ) -> (Vec<(CheckpointKind, u64)>, u64) {
        let ctrl = Recording::default();
        let s = Session::with_pool_pages(256);
        let ctx = ExecCtx::new(db, &s, 1 << 20);
        let stats = run_count(plan, &ctx, Some(&ctrl)).unwrap();
        (ctrl.log.into_inner(), stats.rows_out)
    }

    /// Rid-feed placement: the checkpoint observes exactly the rid count
    /// the fetch consumes (= output rows with a true residual).
    #[test]
    fn rid_feed_checkpoint_observes_fetch_input() {
        let n = 1024i64;
        let (mut db, t) = demo_db(n);
        let idx_a = db.create_index("idx_a", t, &[0]).unwrap();
        let ca = 199i64;
        let plan = PlanSpec::IndexFetch {
            scan: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ca, 1) },
            key_filter: Predicate::always_true(),
            fetch: FetchKind::Improved(ImprovedFetchConfig::default()),
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let (log, rows_out) = observed(&db, &plan);
        assert_eq!(rows_out, (ca + 1) as u64);
        assert_eq!(log, vec![(CheckpointKind::RidFeed, rows_out)]);
    }

    /// Intersect-feed placement: both feeds and the surviving output are
    /// observed, and the output count equals what the fetch consumes.
    #[test]
    fn intersect_checkpoints_observe_feeds_and_survivors() {
        let n = 1024i64;
        let (mut db, t) = demo_db(n);
        let idx_a = db.create_index("idx_a", t, &[0]).unwrap();
        let idx_b = db.create_index("idx_b", t, &[1]).unwrap();
        let (ca, cb) = (299i64, 499i64);
        let plan = PlanSpec::IndexIntersect {
            left: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ca, 1) },
            right: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, cb, 1) },
            algo: IntersectAlgo::MergeJoin,
            fetch: FetchKind::Improved(ImprovedFetchConfig::default()),
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let (log, rows_out) = observed(&db, &plan);
        assert_eq!(
            log,
            vec![
                (CheckpointKind::IntersectFeed { right: false }, (ca + 1) as u64),
                (CheckpointKind::IntersectFeed { right: true }, (cb + 1) as u64),
                (CheckpointKind::IntersectOut, rows_out),
            ]
        );
    }

    /// Hash-build placement: the build-side checkpoint observes exactly the
    /// row count the hash join consumes as its build input.
    #[test]
    fn join_checkpoints_observe_build_and_probe_inputs() {
        let n = 512i64;
        let (db, t) = demo_db(n);
        let ca = 99i64;
        let filtered = PlanSpec::TableScan {
            table: t,
            pred: Predicate::single(ColRange::at_most(0, ca)),
            project: Projection::All,
        };
        let full = PlanSpec::TableScan {
            table: t,
            pred: Predicate::always_true(),
            project: Projection::All,
        };
        // Build on the left (the full input), probe with the filtered one.
        let plan = PlanSpec::Join {
            left: Box::new(full.clone()),
            right: Box::new(filtered.clone()),
            left_key: 0,
            right_key: 0,
            algo: JoinAlgo::Hash { build_left: true },
            memory_bytes: 8 << 20,
            project: Projection::All,
        };
        let (log, rows_out) = observed(&db, &plan);
        assert_eq!(rows_out, (ca + 1) as u64, "a is a permutation: unique join keys");
        assert_eq!(
            log,
            vec![
                (CheckpointKind::JoinBuild, n as u64),
                (CheckpointKind::JoinProbe, (ca + 1) as u64),
            ]
        );
        // Swapping the build side swaps the checkpoint labels, not the
        // firing order (left input always materialises first).
        let swapped = PlanSpec::Join {
            left: Box::new(full),
            right: Box::new(filtered),
            left_key: 0,
            right_key: 0,
            algo: JoinAlgo::Hash { build_left: false },
            memory_bytes: 8 << 20,
            project: Projection::All,
        };
        let (log, _) = observed(&db, &swapped);
        assert_eq!(
            log,
            vec![
                (CheckpointKind::JoinProbe, n as u64),
                (CheckpointKind::JoinBuild, (ca + 1) as u64),
            ]
        );
    }

    /// Sort-input placement: the checkpoint observes exactly the row count
    /// the sorter consumed (= the sorted output count).
    #[test]
    fn sort_input_checkpoint_observes_consumed_rows() {
        let n = 512i64;
        let (db, t) = demo_db(n);
        let ca = 149i64;
        let plan = PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: t,
                pred: Predicate::single(ColRange::at_most(0, ca)),
                project: Projection::All,
            }),
            key_cols: vec![1],
            mode: SpillMode::Graceful,
            memory_bytes: 1 << 20,
        };
        let (log, rows_out) = observed(&db, &plan);
        assert_eq!(rows_out, (ca + 1) as u64);
        assert_eq!(log, vec![(CheckpointKind::SortInput, rows_out)]);
    }

    /// ScanOut placement: MDAM milestones fire at each power of two of
    /// the produced count, mid-scan.
    #[test]
    fn mdam_scan_out_milestones_fire_at_powers_of_two() {
        let n = 1024i64;
        let (mut db, t) = demo_db(n);
        let idx = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let ca = 299i64;
        let plan = PlanSpec::Mdam {
            index: idx,
            col_ranges: vec![(i64::MIN, ca), (i64::MIN, i64::MAX)],
            project: Projection::All,
        };
        let (log, rows_out) = observed(&db, &plan);
        assert_eq!(rows_out, (ca + 1) as u64);
        let want: Vec<(CheckpointKind, u64)> = (0..)
            .map(|k| 1u64 << k)
            .take_while(|&m| m <= rows_out)
            .map(|m| (CheckpointKind::ScanOut, m))
            .collect();
        assert_eq!(log, want);
    }

    /// A bail at a mid-scan milestone discards the held output: the run
    /// produces exactly the fallback plan's rows, never a mix.
    #[test]
    fn mdam_bail_mid_scan_does_not_duplicate_rows() {
        let n = 1024i64;
        let (mut db, t) = demo_db(n);
        let idx = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let ca = 299i64;
        let plan = PlanSpec::Mdam {
            index: idx,
            col_ranges: vec![(i64::MIN, ca), (i64::MIN, i64::MAX)],
            project: Projection::All,
        };
        let fallback = PlanSpec::TableScan {
            table: t,
            pred: Predicate::single(ColRange::at_most(0, ca)),
            project: Projection::All,
        };
        let s = Session::with_pool_pages(256);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let (want_stats, mut want) = run_collect(&fallback, &ctx, None).unwrap();
        for milestone in [1u64, 16, 256] {
            struct BailPast {
                milestone: u64,
                alt: PlanSpec,
            }
            impl SwitchController for BailPast {
                fn decide(&self, obs: &Observation) -> SwitchDirective {
                    if obs.kind == CheckpointKind::ScanOut && obs.rows >= self.milestone {
                        SwitchDirective::Bail(self.alt.clone())
                    } else {
                        SwitchDirective::Continue
                    }
                }
            }
            let ctrl = BailPast { milestone, alt: fallback.clone() };
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            let (stats, mut got) = run_collect(&plan, &ctx, Some(&ctrl)).unwrap();
            assert_eq!(stats.switches.len(), 1);
            assert_eq!(stats.switches[0].at, CheckpointKind::ScanOut);
            assert_eq!(stats.switches[0].observed, milestone);
            got.sort_by_key(|r| r.values().to_vec());
            want.sort_by_key(|r| r.values().to_vec());
            assert_eq!(got.len(), want.len(), "milestone {milestone}");
            assert_eq!(got, want, "milestone {milestone}");
            assert!(
                stats.seconds >= want_stats.seconds,
                "sunk prefix must stay on the clock"
            );
        }
    }

    /// The observed checkpoint sequence matches `PlanSpec::checkpoints()`.
    #[test]
    fn fired_checkpoints_match_plan_declaration() {
        let n = 256i64;
        let (mut db, t) = demo_db(n);
        let idx_a = db.create_index("idx_a", t, &[0]).unwrap();
        let idx_b = db.create_index("idx_b", t, &[1]).unwrap();
        let plans = vec![
            PlanSpec::IndexFetch {
                scan: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, 99, 1) },
                key_filter: Predicate::always_true(),
                fetch: FetchKind::Traditional,
                residual: Predicate::always_true(),
                project: Projection::All,
            },
            PlanSpec::IndexIntersect {
                left: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, 99, 1) },
                right: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, 49, 1) },
                algo: IntersectAlgo::HashJoin { build_left: true },
                fetch: FetchKind::BitmapSorted,
                residual: Predicate::always_true(),
                project: Projection::All,
            },
            PlanSpec::Sort {
                input: Box::new(PlanSpec::TableScan {
                    table: t,
                    pred: Predicate::always_true(),
                    project: Projection::All,
                }),
                key_cols: vec![2],
                mode: SpillMode::Graceful,
                memory_bytes: 1 << 20,
            },
        ];
        for plan in &plans {
            let ctrl = Recording::default();
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            run_count(plan, &ctx, Some(&ctrl)).unwrap();
            let fired: Vec<CheckpointKind> =
                ctrl.log.into_inner().iter().map(|(k, _)| *k).collect();
            assert_eq!(fired, plan.checkpoints(), "plan {}", plan.synopsis());
        }
    }

    /// A bail mid-flight produces exactly the fallback plan's rows and
    /// costs at least as much as the fallback alone (sunk prefix stays on
    /// the clock).
    #[test]
    fn bail_reproduces_fallback_rows_and_keeps_sunk_cost() {
        let n = 1024i64;
        let (mut db, t) = demo_db(n);
        let idx_a = db.create_index("idx_a", t, &[0]).unwrap();
        let idx_b = db.create_index("idx_b", t, &[1]).unwrap();
        let (ca, cb) = (399i64, 499i64);
        let chosen = PlanSpec::IndexIntersect {
            left: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ca, 1) },
            right: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, cb, 1) },
            algo: IntersectAlgo::HashJoin { build_left: true },
            fetch: FetchKind::Traditional,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let fallback = PlanSpec::TableScan {
            table: t,
            pred: Predicate::all_of(vec![
                ColRange::at_most(0, ca),
                ColRange::at_most(1, cb),
            ]),
            project: Projection::All,
        };

        let s = Session::with_pool_pages(256);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let ctrl = BailAt { at: CheckpointKind::IntersectOut, alt: fallback.clone() };
        let (astats, arows) = run_collect(&chosen, &ctx, Some(&ctrl)).unwrap();
        assert_eq!(astats.switches.len(), 1);
        assert!(astats.switches[0].action.starts_with("bail -> TableScan"));

        let s2 = Session::with_pool_pages(256);
        let ctx2 = ExecCtx::new(&db, &s2, 1 << 20);
        let (fstats, frows) = run_collect(&fallback, &ctx2, None).unwrap();

        let sort = |mut v: Vec<Vec<i64>>| {
            v.sort();
            v
        };
        let a = sort(arows.iter().map(|r| r.values().to_vec()).collect());
        let f = sort(frows.iter().map(|r| r.values().to_vec()).collect());
        assert_eq!(a, f);
        assert!(
            astats.seconds > fstats.seconds,
            "sunk prefix must stay charged: {} vs {}",
            astats.seconds,
            fstats.seconds
        );
        // The abandoned operator is recorded with zero output rows.
        assert!(astats
            .operators
            .iter()
            .any(|op| op.label.ends_with("[abandoned]") && op.rows_out == 0));
    }

    /// A mid-flight fetch switch produces the same rows as statically
    /// planning that fetch kind, and reuses the collected rids (clock equals
    /// prefix + switched fetch, i.e. exactly the static plan with the other
    /// fetch kind).
    #[test]
    fn switch_fetch_matches_static_plan_with_that_fetch() {
        let n = 1024i64;
        let (mut db, t) = demo_db(n);
        let idx_a = db.create_index("idx_a", t, &[0]).unwrap();
        let ca = 299i64;
        let mk = |fetch: FetchKind| PlanSpec::IndexFetch {
            scan: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ca, 1) },
            key_filter: Predicate::always_true(),
            fetch,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        struct FetchSwitcher;
        impl SwitchController for FetchSwitcher {
            fn decide(&self, obs: &Observation) -> SwitchDirective {
                if obs.kind == CheckpointKind::RidFeed {
                    SwitchDirective::SwitchFetch(FetchKind::BitmapSorted)
                } else {
                    SwitchDirective::Continue
                }
            }
        }
        let s = Session::with_pool_pages(256);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let planned = mk(FetchKind::Traditional);
        let (astats, arows) = run_collect(&planned, &ctx, Some(&FetchSwitcher)).unwrap();
        assert_eq!(astats.switches.len(), 1);

        let s2 = Session::with_pool_pages(256);
        let ctx2 = ExecCtx::new(&db, &s2, 1 << 20);
        let (sstats, srows) = run_collect(&mk(FetchKind::BitmapSorted), &ctx2, None).unwrap();
        let a: Vec<Vec<i64>> = arows.iter().map(|r| r.values().to_vec()).collect();
        let b: Vec<Vec<i64>> = srows.iter().map(|r| r.values().to_vec()).collect();
        assert_eq!(a, b, "switched fetch must emit the static plan's rows in its order");
        assert_eq!(
            astats.ticks, sstats.ticks,
            "prefix reuse: switching the fetch costs exactly the re-planned pipeline"
        );
    }
}
