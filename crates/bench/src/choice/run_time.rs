//! Plan choice overtaken at run time: the executor switching plans
//! mid-flight, and the data churning out from under the statistics.

use std::sync::Arc;

use robustmap_core::render::sanitize;
use robustmap_core::{Measurement, RegressionSuite, SweepArena};
use robustmap_executor::{PlanSpec, SwitchController};
use robustmap_storage::Session;
use robustmap_systems::choice::{Exact, Joint, Maintained};
use robustmap_systems::{
    two_pred_bail_controller, Choice, Chooser, Estimator, RobustConfig, SelEstimates, SystemId,
    TwoPredPlan, CARDINALITY_NOISE_ROWS,
};
use robustmap_workload::cache::{cache_path, config_hash};
use robustmap_workload::gen::PredicateDistribution::CorrelatedHundredths;
use robustmap_workload::{
    ChurnConfig, ChurnDriver, JointHistogram, JointHistogramConfig, MaintainedJoint,
    TableBuilder, Workload, WorkloadConfig,
};

use super::{diagonal_sels, family_rows, RHO_PCT};
use crate::harness::{FigureOutput, Harness};
use crate::lab::{four_plan_catalog, full_catalog, regret_svg, side_table, Lab, RegretBoard};

/// Adaptive mid-flight plan switching — the *run-time* answer to the
/// estimation failure that `ext_correlated` mapped and `ext_robust_choice`
/// fixed with compile-time joint statistics.  Here the chooser keeps its
/// textbook independence estimates over Systems A and B's eleven plans,
/// whose costs read the conjunction estimate; instead of better
/// statistics, the executor's adaptive layer
/// ([`robustmap_executor::ops::adaptive`]) counts rows at the chosen
/// plan's materialization points and a
/// [`robustmap_systems::BailController`] re-costs the remaining pipeline
/// when the observed cardinality falls outside the estimate's credible
/// band, bailing to the choice-free covering-MDAM plan when abandoning
/// pays.  The rid feeds of System B's key-filtered composite-index plans
/// and of the intersections materialize the true *conjunction*
/// cardinality — exactly the number the independence assumption gets
/// wrong by `1/s` at rho = 1 — so the wrong-choice region collapses
/// without any joint statistics.  Switch costs are exactly accounted: the
/// abandoned prefix's charges are sunk on the same simulated clock the
/// fallback then runs on, and no-switch runs are bit-identical to the
/// static executor (pinned by `tests/adaptive_equivalence.rs`).
pub fn ext_adaptive(h: &Harness) -> FigureOutput {
    let rows = family_rows(h);
    // Credible-band factor for the trip predicate.  The map's outermost
    // selectivity is 1/2, where the independence conjunction is wrong by
    // exactly 1/max(sel_a, sel_b) = 2 — the default factor-2 band would
    // declare that genuine failure "credible", so the experiment arms a
    // tighter band; the rho = 0 bit-identity check below guards the other
    // side (no trips where the estimates are right).
    const BAND_FACTOR: f64 = 1.5;
    // Systems A and B's plans: the catalog's prefix before System C's, so
    // a choice among them indexes the whole catalog too.
    let ab = |plans: &[TwoPredPlan]| plans.iter().take_while(|p| p.system != SystemId::C).count();
    let rcfg = RobustConfig::default();
    let jcfg = JointHistogramConfig::default();
    let mcfg = &h.config.measure;
    let mut suite = RegressionSuite::new();

    // The bail destination is always a choice-free System C plan: the
    // covering MDAM for a tripped fetch/intersect plan, or — when the
    // tripped plan IS the MDAM — the plain covering scan over the smaller
    // *exact* marginal (no conjunction estimate enters the pick).
    let fallback_idx = |plans: &[TwoPredPlan], spec: &PlanSpec, est: &SelEstimates| -> usize {
        let frag = match spec {
            PlanSpec::Mdam { .. } if est.sel_a <= est.sel_b => "covering(a,b) scan",
            PlanSpec::Mdam { .. } => "covering(b,a) scan",
            _ => "mdam",
        };
        plans.iter().position(|p| p.name.contains(frag)).expect("plan in catalog")
    };
    // One adaptive execution of `point`'s plan under exactly the
    // measurement conditions the static maps use — the same arena, armed
    // with a controller.  Returns the run's seconds, the plan it finished
    // on, and whether it switched.
    let mut arena = SweepArena::new(mcfg);
    let mut run_adaptive = |lab: &Lab, exact: &Exact, point: &Choice, (ta, tb): (i64, i64)| {
        let est = exact.estimate(ta, tb);
        let spec = lab.plans[point.plan].build(ta, tb);
        let fb_idx = fallback_idx(&lab.plans, &spec, &est);
        let fallback = lab.plans[fb_idx].build(ta, tb);
        let ctrl = two_pred_bail_controller(
            &spec, point, fallback, &lab.stats, est, &mcfg.model, rcfg, BAND_FACTOR,
        );
        let ctrl = ctrl.as_ref().map(|c| c as &dyn SwitchController);
        let astats = arena.run(&lab.w.db, &spec, ctrl).expect("well-formed plan");
        let switched = !astats.switches.is_empty();
        (astats.seconds, if switched { fb_idx } else { point.plan }, switched)
    };

    let mut report = String::from(
        "Extension N: adaptive mid-flight plan switching — observed cardinalities vs joint \
         statistics\n",
    );
    report.push_str(&format!(
        "{rows} rows; the compile-time chooser is the independence point chooser over Systems \
         A and B's plans, whose costs read the conjunction estimate (System C's covering \
         plans need none, and are the bail targets).  \
         adaptive = that chosen plan + cardinality checkpoints, bailing to a choice-free \
         System C plan (covering MDAM; for a tripped MDAM, the plain covering scan on the \
         smaller exact marginal) when the observed count leaves the credible band (factor \
         {:.0} + {:.0} rows) and the re-costed comparison says the switch pays; sunk prefix charges are \
         included in every adaptive number.  The compile-time baselines (joint point / joint \
         robust) choose over the same catalog with joint statistics instead\n",
        BAND_FACTOR, CARDINALITY_NOISE_ROWS,
    ));

    let mut csv = String::from(
        "part,rho,sel_a,sel_b,point_choice,final_plan,joint_choice,best_plan,switched,\
         point_regret,adaptive_final_regret,adaptive_total_regret\n",
    );

    // --- Part 1: the diagonal rho sweep.  At rho = 0 the estimates are
    // right, nothing may trip, and the adaptive executor must be
    // charge-identical to the static one; as rho grows the conjunction
    // underestimate grows as 1/s and the trips begin.
    let sels = diagonal_sels(h);
    let ns = sels.len();
    report.push_str(&format!(
        "\ndiagonal sweep (A+B choosers, regret against all 15 plans):\n\
         {:>6} {:>12} {:>14} {:>12} {:>14} {:>9}\n",
        "rho", "point wrong", "adaptive wrong", "point worst", "adaptive worst", "switches"
    ));
    let mut total_point_wrong = 0usize;
    let mut total_adaptive_wrong = 0usize;
    let mut rho0_identity = true;
    let mut accounting_ok = true;
    for &pct in &RHO_PCT {
        let w = side_table(h, rows, CorrelatedHundredths(pct));
        let lab = Lab::new(h, &w, full_catalog(&w));
        let exact = Exact::of(&w);
        let chooser = Chooser { plans: &lab.plans[..ab(&lab.plans)], ..lab.point() };
        let mut board = RegretBoard::new(["point", "adaptive"]);
        let mut switches = 0usize;
        let mut worst_total = 0.0f64;
        for cell in lab.sweep_diagonal(&sels) {
            let ((s, _), (ta, tb), secs) = (cell.sel, cell.thr, cell.secs());
            let point = chooser.choose(&exact, ta, tb);
            let (seconds, final_plan, switched) = run_adaptive(&lab, &exact, &point, cell.thr);
            switches += switched as usize;
            let ([pq, aq], oracle) = board.add(&secs, [point.plan, final_plan]);
            let total_q = seconds / secs[oracle].max(1e-12);
            worst_total = worst_total.max(total_q);
            accounting_ok &= seconds >= secs[final_plan] - 1e-12;
            if pct == 0 {
                rho0_identity &=
                    !switched && seconds.to_bits() == secs[point.plan].to_bits();
            }
            csv.push_str(&format!(
                "diagonal,{},{s:e},{s:e},{},{},,{},{},{pq:e},{aq:e},{total_q:e}\n",
                pct as f64 / 100.0,
                sanitize(&lab.plans[point.plan].name),
                sanitize(&lab.plans[final_plan].name),
                sanitize(&lab.plans[oracle].name),
                switched as u8,
            ));
        }
        report.push_str(&format!(
            "{:>6.2} {:>11.1}% {:>13.1}% {:>11.2}x {:>13.2}x {:>9}\n",
            pct as f64 / 100.0,
            board.wrong_frac("point") * 100.0,
            board.wrong_frac("adaptive") * 100.0,
            board.worst("point"),
            worst_total,
            switches,
        ));
        total_point_wrong += board.wrong("point");
        total_adaptive_wrong += board.wrong("adaptive");
    }
    suite.check_named(
        "diagonal sweep: adaptive final-plan wrong cells <= the independence point chooser's",
        total_adaptive_wrong <= total_point_wrong,
        format!("{total_adaptive_wrong} vs {total_point_wrong} of {}", RHO_PCT.len() * ns),
    );
    suite.check_named(
        "rho = 0 diagonal: zero switches and bit-identical charges to the static chosen plan",
        rho0_identity,
        String::new(),
    );

    // --- Part 2: the full (sel_a x sel_b) map at rho = 1 — the collapse
    // claim.  The joint point chooser (compile-time statistics, PR 5's
    // estimator) is the baseline the run-time fix must match without
    // those statistics.
    let w1 = side_table(h, rows, CorrelatedHundredths(100));
    let lab1 = Lab::new(h, &w1, full_catalog(&w1));
    let joint1 = JointHistogram::from_workload(&w1, &jcfg);
    let (exact1, joint_est1) = (Exact::of(&w1), Joint::new(&joint1));
    let point_chooser = Chooser { plans: &lab1.plans[..ab(&lab1.plans)], ..lab1.point() };
    let robust_chooser = Chooser { plans: &lab1.plans[..ab(&lab1.plans)], ..lab1.robust() };
    let m2 = lab1.map();
    let (na, nb) = m2.dims();
    // "point" is the independence point chooser; "joint" and "robust"
    // choose with joint statistics; "adaptive" is the plan the adaptive
    // run finished on.
    let mut board = RegretBoard::new(["point", "joint", "robust", "adaptive"]);
    let mut adaptive_regret = Vec::with_capacity(na * nb);
    let mut worst_total = 0.0f64;
    let mut sum_total = 0.0f64;
    let mut switched_cells = 0usize;
    let mut contested_cells = 0usize;
    let mut unswitched_identity = true;
    for cell in lab1.map_cells(&m2) {
        let ((sa, sb), (ta, tb), secs) = (cell.sel, cell.thr, cell.secs());
        let point = point_chooser.choose(&exact1, ta, tb);
        let joint_choice = point_chooser.choose(&joint_est1, ta, tb);
        let robust = robust_chooser.choose(&joint_est1, ta, tb);
        contested_cells += point.is_contested(0.25) as usize;
        let (seconds, final_plan, switched) = run_adaptive(&lab1, &exact1, &point, cell.thr);
        switched_cells += switched as usize;
        let ([pq, _, _, aq], oracle) =
            board.add(&secs, [point.plan, joint_choice.plan, robust.plan, final_plan]);
        let total_q = seconds / secs[oracle].max(1e-12);
        worst_total = worst_total.max(total_q);
        sum_total += total_q;
        accounting_ok &= seconds >= secs[final_plan] - 1e-12;
        if !switched {
            unswitched_identity &= seconds.to_bits() == secs[point.plan].to_bits();
        }
        adaptive_regret.push(total_q);
        csv.push_str(&format!(
            "map,1,{sa:e},{sb:e},{},{},{},{},{},{pq:e},{aq:e},{total_q:e}\n",
            sanitize(&lab1.plans[point.plan].name),
            sanitize(&lab1.plans[final_plan].name),
            sanitize(&lab1.plans[joint_choice.plan].name),
            sanitize(&lab1.plans[oracle].name),
            switched as u8,
        ));
    }
    let cells = (na * nb) as f64;
    let pct_wrong = |name: &str| board.wrong_frac(name) * 100.0;
    report.push_str(&format!(
        "\n(sel_a x sel_b) map at rho = 1, {na}x{nb} grid, A+B choosers (switched at {:.1}% \
         of cells, independence choice contested at {:.1}%):\n\
         independence point chooser: wrong at {:.1}% of cells, worst regret {:.2}x\n\
         joint point chooser:        wrong at {:.1}% of cells, worst regret {:.2}x\n\
         joint robust chooser:       wrong at {:.1}% of cells, worst regret {:.2}x\n\
         adaptive (independence):    wrong at {:.1}% of cells, worst total regret {:.2}x \
         (sunk switch cost included, mean {:.2}x)\n",
        switched_cells as f64 / cells * 100.0,
        contested_cells as f64 / cells * 100.0,
        pct_wrong("point"),
        board.worst("point"),
        pct_wrong("joint"),
        board.worst("joint"),
        pct_wrong("robust"),
        board.worst("robust"),
        pct_wrong("adaptive"),
        worst_total,
        sum_total / cells,
    ));
    suite.check_named(
        "rho = 1 map: adaptive wrong-choice fraction <= the joint estimator's (no joint \
         statistics at run time)",
        board.wrong("adaptive") <= board.wrong("joint"),
        format!("{:.1}% vs {:.1}%", pct_wrong("adaptive"), pct_wrong("joint")),
    );
    suite.check_named(
        "rho = 1 map: adaptive wrong-choice fraction <= the independence point chooser's",
        board.wrong("adaptive") <= board.wrong("point"),
        format!("{:.1}% vs {:.1}%", pct_wrong("adaptive"), pct_wrong("point")),
    );
    suite.check_named(
        "rho = 1 map: adaptive worst total regret (sunk cost included) <= the point chooser's \
         worst regret",
        worst_total <= board.worst("point") + 1e-9,
        format!("{:.2}x vs {:.2}x", worst_total, board.worst("point")),
    );
    suite.check_named(
        "rho = 1 map: unswitched cells bit-identical to the static map measurement",
        unswitched_identity,
        String::new(),
    );
    suite.check_named(
        "accounting: adaptive seconds never below the final plan's static seconds",
        accounting_ok,
        String::new(),
    );

    let svg = |file: &str, grid: &[f64], title: &str| {
        regret_svg(h, file, grid, &m2.sel_a, &m2.sel_b, title)
    };
    let files = vec![
        h.write_artifact("ext_adaptive.csv", &csv),
        svg(
            "ext_adaptive_point_regret.svg",
            board.grid("point"),
            "Independence point chooser regret at rho = 1 (15 plans)",
        ),
        svg(
            "ext_adaptive_regret.svg",
            &adaptive_regret,
            "Adaptive executor total regret at rho = 1 (sunk switch cost included)",
        ),
    ];
    FigureOutput::with_checks(h, "ext_adaptive", "the adaptive executor", suite, report, files)
}

/// Data churn + incremental statistics maintenance — the robustness map
/// over a *mutating* database.  Every figure above measures a frozen
/// table; the paper's thesis (run-time conditions diverge from
/// compile-time assumptions, §1) bites hardest when the data itself
/// drifts out from under the optimizer's statistics.  A deterministic
/// [`ChurnDriver`] applies update-heavy batches with distribution drift
/// through the *charged* session path (heap append/tombstone plus all
/// five index maintenances land on the simulated clock), and three
/// Point-policy choosers meet on the same measured cells at each churn
/// level:
///
/// * **frozen** — the epoch-0 joint statistics, never refreshed: its
///   wrong-choice region grows with the modified fraction;
/// * **maintained** — [`MaintainedJoint`] folding per-bucket delta
///   counters in after every batch: it tracks the churned table at
///   bookkeeping cost, no heap scan;
/// * **fresh** — a full rebuild from the mutated heap at every level,
///   the exact-but-expensive upper baseline.
///
/// The named checks gate the subsystem: a zero-churn sweep through the
/// churn engine is bit-identical to the static executor, mutation cost
/// is charged, the staleness meter tracks applied work, the frozen
/// chooser degrades while the maintained one holds within one grid step
/// of the fresh rebuild, the staleness-aware estimator widens its
/// credible region, and the mutation epoch re-keys the workload cache.
pub fn ext_churn(h: &Harness) -> FigureOutput {
    // Pinned scale: the experiment separates choosers by *statistics*
    // error across the hash/scan crossover, which only works where the
    // cost model's own boundary is calibrated against measurement.  At
    // 2^14 rows the level-0 map has zero wrong cells for every chooser;
    // at 2^16 the heap outgrows the pool and a ~1-cell model bias appears
    // that a stale underestimate happens to cancel — scale would then
    // measure model error, not staleness.
    let rows = h.w.rows().min(1 << 14);
    let seed = h.w.config.seed;
    let cfg = WorkloadConfig { rows, seed, mutation_epoch: 0, ..Default::default() };
    let jcfg = JointHistogramConfig::default();
    let mut suite = RegressionSuite::new();

    // Half-power-of-two selectivity steps down to 2^-12: a churn-induced
    // estimate error of ~1.5x moves the hash/scan crossover (near 2^-5
    // on this table) by about one cell at this resolution, where the
    // paper's factor-of-two grid would straddle it.
    let half_steps = 2 * h.config.grid_exp.clamp(12, 14);
    let sels: Vec<f64> =
        (0..=half_steps).rev().map(|k| 2f64.powf(-0.5 * k as f64)).collect();
    let ns = sels.len();
    let fractions: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let drift = 85; // inserts draw column a from the lower 15% of the domain

    let mut report = String::from(
        "Extension P: data churn + incremental statistics maintenance — the robustness map \
         over a mutating database\n",
    );
    report.push_str(&format!(
        "{rows} rows; update-heavy churn (20% insert / 20% delete / 60% update) with \
         downward drift {drift} (inserts draw a from the lower {}% of the domain, so the \
         frozen statistics under-estimate small selectivities); selectivity diagonal \
         sel_a = sel_b = s in half-power-of-two steps; all three choosers are Point-policy \
         over the same four-plan catalog, differing only in their statistics: frozen \
         (epoch 0), maintained (per-bucket deltas), fresh (rebuilt from the mutated heap)\n",
        100 - drift,
    ));

    // Two builds of the same config: the static baseline never sees the
    // churn engine; the churn copy gets a driver attached before its
    // zero-churn sweep, so the bit-identity check covers "engaging the
    // subsystem at zero churn changes nothing".
    let w_static = TableBuilder::build_cached(cfg.clone());
    let mut w_churn = TableBuilder::build_cached(cfg.clone());
    // The contested pair: table scan vs hash intersect.  The intersect's
    // cost is per-index-entry CPU and key-ordered leaf scans, so churn
    // cannot skew it physically — B+-tree entries interleave in key
    // order wherever the heap put the rows — and the selectivity error
    // is the *only* thing separating the choosers at its scan crossover.
    // The INL fetch and covering MDAM are deliberately excluded: MDAM
    // dominates every diagonal cell outright, and the fetch's measured
    // cost depends on where the churned rows physically landed (appends
    // cluster in the heap tail), a locality effect the cost model
    // deliberately does not track — with it in the catalog the map would
    // measure model error, not statistics staleness.
    fn lab_of<'a>(h: &'a Harness, w: &'a Workload) -> Lab<'a> {
        let mut plans = four_plan_catalog(w);
        plans.swap_remove(3); // drop mdam
        plans.swap_remove(1); // drop the inl fetch
        Lab::new(h, w, plans)
    }
    // The predicate constants are calibrated once, before any churn.
    let thr = lab_of(h, &w_churn).diagonal(&sels);

    let base_joint = JointHistogram::from_workload(&w_churn, &jcfg);
    let mut maint = MaintainedJoint::new(base_joint.clone());
    let churn_cfg = ChurnConfig::for_workload(&w_churn).with_drift_down(drift);
    let mut driver = ChurnDriver::new(&w_churn, churn_cfg);
    let churn_session = Session::with_pool_pages(64);
    if let Some(sink) = &h.config.measure.trace {
        // So a traced run shows the mutation batches beside the sweeps.
        churn_session.attach_tracer(Arc::clone(sink), "churn");
    }

    let static_sweep = lab_of(h, &w_static).sweep(&sels, &thr);
    let mut churn0_sweep = lab_of(h, &w_churn).sweep(&sels, &thr);
    let same = |a: &Measurement, b: &Measurement| {
        a.seconds.to_bits() == b.seconds.to_bits() && a.io == b.io && a.rows == b.rows
    };
    let bit_identical = static_sweep.len() == churn0_sweep.len()
        && static_sweep
            .iter()
            .zip(&churn0_sweep)
            .all(|(a, b)| a.measured.iter().zip(&b.measured).all(|(x, y)| same(x, y)));
    suite.check_named(
        "zero churn: the sweep through the churn-engine workload is bit-identical \
         (seconds.to_bits + IoStats) to the static executor's",
        bit_identical,
        format!("{} specs compared", static_sweep.iter().map(|c| c.measured.len()).sum::<usize>()),
    );

    let plan_short = ["scan", "hash"];
    let mut csv = String::from(
        "fraction,sel,table_scan,hash_intersect,frozen_choice,\
         maint_choice,fresh_choice,oracle_choice,frozen_regret,maint_regret,fresh_regret,\
         fraction_modified,drift\n",
    );
    // One board per churn level; their grids concatenate into the maps.
    let mut levels: Vec<RegretBoard<3>> = Vec::new();
    let mut churn_seconds = 0.0f64;
    let mut churn_writes = 0u64;
    report.push_str(&format!(
        "\n{:>9} {:>9} {:>13} {:>13} {:>13} {:>7}\n",
        "fraction", "drift", "frozen wrong", "maint wrong", "fresh wrong", "live"
    ));
    for &frac in &fractions {
        if frac > 0.0 {
            for b in driver.apply_until_fraction(&mut w_churn, &churn_session, frac) {
                churn_seconds += b.seconds;
                churn_writes += b.io.page_writes;
                maint.apply(&b);
            }
        }
        let lab = lab_of(h, &w_churn);
        let cells =
            if frac == 0.0 { std::mem::take(&mut churn0_sweep) } else { lab.sweep(&sels, &thr) };
        let fresh_joint = JointHistogram::from_workload(&w_churn, &jcfg);
        let frozen_est = Joint::new(&base_joint);
        let maint_est = Maintained::new(&maint);
        let fresh_est = Joint::new(&fresh_joint);
        let chooser = lab.point();
        let meter = maint.staleness();
        let mut board = RegretBoard::new(["frozen", "maint", "fresh"]);
        for cell in &cells {
            let ((s, _), (ta, tb), secs) = (cell.sel, cell.thr, cell.secs());
            let picks = [
                chooser.choose(&frozen_est, ta, tb).plan,
                chooser.choose(&maint_est, ta, tb).plan,
                chooser.choose(&fresh_est, ta, tb).plan,
            ];
            let (regrets, oracle) = board.add(&secs, picks);
            csv.push_str(&format!(
                "{frac},{s:e},{:e},{:e},{},{},{},{},{:e},{:e},{:e},{:.6},{:.6}\n",
                secs[0],
                secs[1],
                plan_short[picks[0]],
                plan_short[picks[1]],
                plan_short[picks[2]],
                plan_short[oracle],
                regrets[0],
                regrets[1],
                regrets[2],
                meter.fraction_modified,
                meter.drift,
            ));
        }
        report.push_str(&format!(
            "{:>9.2} {:>9.3} {:>10}/{ns} {:>10}/{ns} {:>10}/{ns} {:>7}\n",
            meter.fraction_modified,
            meter.drift,
            board.wrong("frozen"),
            board.wrong("maint"),
            board.wrong("fresh"),
            driver.live_rows(),
        ));
        levels.push(board);
    }

    suite.check_named(
        "churn cost is charged: mutation batches advance the simulated clock and write pages",
        churn_seconds > 0.0 && churn_writes > 0,
        format!("{churn_seconds:.3} s, {churn_writes} page writes"),
    );
    let meter = maint.staleness();
    suite.check_named(
        "staleness meter tracks applied work: fraction matches the driver, drifted inserts \
         register as drift, and the default policy calls for a rebuild",
        (meter.fraction_modified - driver.fraction_touched()).abs() < 1e-12
            && meter.fraction_modified >= 0.5
            && meter.drift > 0.2
            && meter.needs_rebuild(),
        format!("fraction {:.3}, drift {:.3}", meter.fraction_modified, meter.drift),
    );
    let (first, last) = (&levels[0], &levels[levels.len() - 1]);
    let (w0, w5) = (first.wrong("frozen"), last.wrong("frozen"));
    suite.check_named(
        "frozen statistics: the wrong-choice region grows from zero churn to 50% modified",
        w5 > w0,
        format!("{w0}/{ns} cells at 0% -> {w5}/{ns} cells at 50%"),
    );
    suite.check_named(
        "50% modified: the frozen chooser is strictly worse than the maintained one",
        last.wrong("frozen") > last.wrong("maint"),
        format!("{}/{ns} vs {}/{ns} wrong cells", last.wrong("frozen"), last.wrong("maint")),
    );
    suite.check_named(
        "50% modified: maintained statistics hold within one grid step of the fresh rebuild",
        last.wrong("maint") <= last.wrong("fresh") + 1,
        format!("{}/{ns} vs {}/{ns} wrong cells", last.wrong("maint"), last.wrong("fresh")),
    );
    let (ta_mid, tb_mid) = thr[ns / 2];
    let stale_est = Joint::stale(&base_joint, meter);
    let (ra_stale, rb_stale) = stale_est.radii(ta_mid, tb_mid);
    let (ra_base, rb_base) = Joint::new(&base_joint).radii(ta_mid, tb_mid);
    suite.check_named(
        "staleness widens the robust chooser's credible region on both axes",
        ra_stale > ra_base && rb_stale > rb_base,
        format!("a: {ra_stale:.4} > {ra_base:.4}; b: {rb_stale:.4} > {rb_base:.4}"),
    );
    let epoch_rekeys = config_hash(&cfg) != config_hash(&w_churn.config)
        && w_churn.config.mutation_epoch > 0
        && match (cache_path(&cfg), cache_path(&w_churn.config)) {
            (Some(a), Some(b)) => a != b,
            (None, None) => true, // caching disabled in this environment
            _ => false,
        };
    suite.check_named(
        "mutation epoch re-keys the content-addressed workload cache (a churned table is never \
         stored over, or served as, the pristine wl-* file)",
        epoch_rekeys,
        format!("epoch {}", w_churn.config.mutation_epoch),
    );
    report.push_str(&format!(
        "\nchurn cost charged: {churn_seconds:.3} simulated seconds, {churn_writes} page \
         writes across {} batches; staleness at the end: fraction {:.3}, drift {:.3}\n",
        driver.steps_applied(),
        meter.fraction_modified,
        meter.drift,
    ));

    let svg = |file: &str, chooser: &str, title: &str| {
        let grid: Vec<f64> =
            levels.iter().flat_map(|b| b.grid(chooser).iter().copied()).collect();
        regret_svg(h, file, &grid, &fractions, &sels, title)
    };
    let files = vec![
        h.write_artifact("ext_churn.csv", &csv),
        svg(
            "ext_churn_frozen_regret.svg",
            "frozen",
            "Frozen-statistics chooser regret over fraction modified (x) and selectivity (y)",
        ),
        svg(
            "ext_churn_maint_regret.svg",
            "maint",
            "Maintained-statistics chooser regret over fraction modified (x) and selectivity (y)",
        ),
    ];
    FigureOutput::with_checks(h, "ext_churn", "the churn subsystem", suite, report, files)
}
