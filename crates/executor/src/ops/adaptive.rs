//! Adaptive execution: cardinality checkpoints where a controller may bail.
//!
//! The paper's thesis (§1) is that compile-time plan choice inevitably goes
//! wrong and run-time techniques must absorb the estimation error.  This
//! module is the vocabulary of that run-time layer.  [`crate::exec::run`]
//! with a `controller` runs a plan exactly like a static run, but at each
//! [`CheckpointKind`] — a fetch's collected rid list, an intersection's
//! surviving rids, an MDAM scan's output milestones — it pauses to report
//! the **exact** observed cardinality to the [`SwitchController`] before
//! the downstream work that depends on it has been paid for.  The
//! controller answers with one of two things: `None` continues, `Some`
//! names a replacement plan to bail to (typically the choice-free MDAM
//! plan).
//!
//! # The no-bail equivalence argument
//!
//! Observation is free: counting rows that a static run materialises
//! anyway issues no charge on the simulated clock, touches no page, and
//! moves no data.  There is one interpreter, and a checkpoint is a wedge
//! inside the single arm of each plan shape, between the charge that
//! produced the materialisation and the charge that consumes it — so the
//! charge sequence cannot depend on whether a controller is present.
//! When the controller never bails (a closure answering `None`, or a real
//! policy whose thresholds never trip), the run is **bit-identical** to
//! `controller: None` — same `SimClock` bits, same `IoStats`, same per-op
//! stats, same output rows.  `tests/adaptive_equivalence.rs` pins this
//! across the plan catalog and the composite shapes.
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
//! # Bail-cost accounting
//!
//! Nothing is rolled back.  The abandoned prefix's charges stay on the
//! clock — they are recorded under the abandoned operator's label with
//! zero output rows — and the replacement plan then runs in full.  The
//! simulated cost of a bailed execution is therefore *sunk prefix + full
//! fallback*, never less: adaptivity pays for its mistakes in the same
//! currency the robustness maps measure.

use robustmap_obs::trace::TraceEventKind;

use crate::exec::ExecCtx;
use crate::plan::{CheckpointKind, PlanSpec};

/// One cardinality observation at a checkpoint: the kind of
/// materialization point and the exact number of rows (or rids) it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Which checkpoint fired.
    pub kind: CheckpointKind,
    /// Exact cardinality observed there.
    pub rows: u64,
}

/// Decides, at each checkpoint, whether the observed cardinality warrants
/// abandoning the running operator.  Implementations live above the
/// executor (see `robustmap-systems`' `BailController`); the executor only
/// obeys.  Any `Fn(&Observation) -> Option<PlanSpec>` is one.
pub trait SwitchController {
    /// Inspect one observation: `None` continues, `Some(plan)` abandons
    /// the current operator and runs `plan` instead.  The sunk prefix
    /// stays on the clock; the replacement runs without a controller (it
    /// is the hedge — there is nothing left to hedge with).  Called
    /// synchronously between two charges; must not charge anything itself.
    fn decide(&self, obs: &Observation) -> Option<PlanSpec>;
}

impl<F: Fn(&Observation) -> Option<PlanSpec>> SwitchController for F {
    fn decide(&self, obs: &Observation) -> Option<PlanSpec> {
        self(obs)
    }
}

/// One bail, for the execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchEvent {
    /// The checkpoint that fired.
    pub at: CheckpointKind,
    /// The cardinality observed there.
    pub observed: u64,
    /// What the executor did about it: `bail -> {synopsis}`.
    pub action: String,
}

/// Stable name of a checkpoint for trace events.
fn checkpoint_name(kind: CheckpointKind) -> &'static str {
    match kind {
        CheckpointKind::RidFeed => "rid_feed",
        CheckpointKind::IntersectOut => "intersect_out",
        CheckpointKind::ScanOut => "scan_out",
    }
}

/// Report one observation to the run's controller and return the plan to
/// bail to, recording the bail; a static run (`ctrl` is `None`) continues
/// without a trace.  When the session is traced, every checkpoint emits a
/// (charge-free) instant event, and a bail emits a switch event — the
/// timeline shows exactly when the cascade fired and when it bailed.
pub(crate) fn observe(
    ctx: &ExecCtx<'_>,
    ctrl: Option<&dyn SwitchController>,
    kind: CheckpointKind,
    rows: u64,
) -> Option<PlanSpec> {
    let ctrl = ctrl?;
    let at = checkpoint_name(kind);
    if ctx.session.is_traced() {
        ctx.session.trace_event(TraceEventKind::Checkpoint { kind: at, rows });
    }
    let alt = ctrl.decide(&Observation { kind, rows })?;
    let action = format!("bail -> {}", alt.synopsis());
    if ctx.session.is_traced() {
        let event = TraceEventKind::Switch { at, observed: rows, action: action.clone() };
        ctx.session.trace_event(event);
    }
    ctx.record_switch(SwitchEvent { at: kind, observed: rows, action });
    Some(alt)
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::exec::{run_collect, run_count};
    use crate::expr::{ColRange, Predicate};
    use crate::ops::testutil::demo_db;
    use crate::plan::{
        FetchKind, ImprovedFetchConfig, IndexRangeSpec, IntersectAlgo, JoinAlgo, KeyRange,
        Projection, SpillMode,
    };
    use robustmap_storage::Session;

    /// The observation log and row count of `plan` under a controller that
    /// records every observation and never bails.
    fn observed(
        db: &robustmap_storage::Database,
        plan: &PlanSpec,
    ) -> (Vec<(CheckpointKind, u64)>, u64) {
        let log = RefCell::new(Vec::new());
        let record = |obs: &Observation| {
            log.borrow_mut().push((obs.kind, obs.rows));
            None
        };
        let s = Session::with_pool_pages(256);
        let ctx = ExecCtx::new(db, &s, 1 << 20);
        let stats = run_count(plan, &ctx, Some(&record)).unwrap();
        (log.into_inner(), stats.rows_out)
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

    /// Intersect-output placement: the one checkpoint observes the
    /// surviving rids, exactly what the fetch consumes.
    #[test]
    fn intersect_checkpoint_observes_survivors() {
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
        assert_eq!(log, vec![(CheckpointKind::IntersectOut, rows_out)]);
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
            let bail_past = |obs: &Observation| {
                (obs.kind == CheckpointKind::ScanOut && obs.rows >= milestone)
                    .then(|| fallback.clone())
            };
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            let (stats, mut got) = run_collect(&plan, &ctx, Some(&bail_past)).unwrap();
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

    /// The checkpoints that fire are the one `PlanSpec::checkpoint()`
    /// declares for the root, and none for a shape that declares none —
    /// a join or a sort over unobservable inputs fires nothing.
    #[test]
    fn fired_checkpoints_match_plan_declaration() {
        let n = 256i64;
        let (mut db, t) = demo_db(n);
        let idx_a = db.create_index("idx_a", t, &[0]).unwrap();
        let idx_b = db.create_index("idx_b", t, &[1]).unwrap();
        let idx_ab = db.create_index("idx_ab", t, &[0, 1]).unwrap();
        let range_a = IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, 99, 1) };
        let range_b = IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, 49, 1) };
        let scan = PlanSpec::TableScan {
            table: t,
            pred: Predicate::always_true(),
            project: Projection::All,
        };
        let plans = vec![
            PlanSpec::IndexFetch {
                scan: range_a,
                key_filter: Predicate::always_true(),
                fetch: FetchKind::Traditional,
                residual: Predicate::always_true(),
                project: Projection::All,
            },
            PlanSpec::IndexIntersect {
                left: range_a,
                right: range_b,
                algo: IntersectAlgo::HashJoin { build_left: true },
                fetch: FetchKind::BitmapSorted,
                residual: Predicate::always_true(),
                project: Projection::All,
            },
            PlanSpec::Mdam {
                index: idx_ab,
                col_ranges: vec![(i64::MIN, 99), (i64::MIN, i64::MAX)],
                project: Projection::All,
            },
            PlanSpec::CoveringRidJoin {
                left: range_a,
                right: range_b,
                algo: IntersectAlgo::MergeJoin,
                project: Projection::All,
            },
            PlanSpec::Join {
                left: Box::new(scan.clone()),
                right: Box::new(scan.clone()),
                left_key: 0,
                right_key: 0,
                algo: JoinAlgo::Hash { build_left: false },
                memory_bytes: 1 << 20,
                project: Projection::All,
            },
            PlanSpec::Sort {
                input: Box::new(scan),
                key_cols: vec![2],
                mode: SpillMode::Graceful,
                memory_bytes: 1 << 20,
            },
        ];
        for plan in &plans {
            let (log, _) = observed(&db, plan);
            let mut fired: Vec<CheckpointKind> = log.iter().map(|(k, _)| *k).collect();
            fired.dedup(); // ScanOut fires once per milestone
            assert_eq!(fired, Vec::from_iter(plan.checkpoint()), "plan {}", plan.synopsis());
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
        let bail_at_out =
            |obs: &Observation| (obs.kind == CheckpointKind::IntersectOut).then(|| fallback.clone());
        let (astats, arows) = run_collect(&chosen, &ctx, Some(&bail_at_out)).unwrap();
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
}
