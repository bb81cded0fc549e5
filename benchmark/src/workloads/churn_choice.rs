//! `churn_choice`: statistics, plan choice and data churn
//! (`ext_optimizer`, `ext_robust_choice`, `ext_churn`).
//!
//! On a fresh table per pass: build joint statistics; choose a plan at
//! every point of a threshold grid under point and robust policies from
//! exact and joint statistics; churn half the table with downward drift,
//! maintaining the statistics batch by batch; choose again from the
//! maintained statistics; then map all fifteen plans over the churned,
//! tombstoned table.  Writes sit beside reads here — B-tree insert and
//! delete and heap tombstones against the same trees' lookups and scans —
//! so a read-path gain that costs the write path, or the reverse, shows
//! in this workload and in no other.  It is also the only one where
//! `systems::choice` and `workload::stats*` do measurable work.

use robustmap_core::{Grid2D, MeasureConfig, Measurement};
use robustmap_storage::{CostModel, Session};
use robustmap_systems::choice::{Exact, Joint};
use robustmap_systems::{
    CatalogStats, Choice, ChoicePolicy, Chooser, Estimator, Maintained, RobustConfig,
};
use robustmap_workload::{
    AppliedBatch, ChurnConfig, ChurnDriver, JointHistogram, JointHistogramConfig, MaintainedJoint,
    TableBuilder, Workload, WorkloadConfig,
};

use super::scan_atlas::catalog;
use super::{digest, map2d, measure_config, PassOutput, Scenario};
use crate::env::Calibration;
use crate::oracle::{wrong_rows, Truth};
use crate::spans::{Layer, Recorder};

pub const ROWS: u64 = 1 << 16;

/// Batches of 1024 operations the churn applies.  A batch touches about
/// 1640 rows (an update touches two), so these touch a little over half
/// of the table.  The count is fixed rather than "until half is touched":
/// that takes 20 batches on some seeds and 21 on others, and a twentieth
/// of the pass must not depend on the seed.
pub const CHURN_BATCHES: usize = 21;
/// A batch takes some 8 ms; a step of the pass is this many of them.
const BATCHES_PER_STEP: usize = 3;
/// Inserted and updated rows draw `a` from the lower half of the domain.
pub const DRIFT_DOWN: u32 = 50;
/// Pool of the session the mutations are charged to, as in `ext_churn`.
const CHURN_POOL_PAGES: usize = 64;
/// Decisions are taken on a `CHOICE_AXIS` x `CHOICE_AXIS` threshold grid.
const CHOICE_AXIS: usize = 65;

/// Thresholds evenly spaced in selectivity over `(0, 1]`.
fn choice_thresholds(w: &Workload) -> (Vec<i64>, Vec<i64>) {
    let sels = (1..=CHOICE_AXIS).map(|i| i as f64 / CHOICE_AXIS as f64);
    (
        sels.clone().map(|s| w.cal_a.threshold(s)).collect(),
        sels.map(|s| w.cal_b.threshold(s)).collect(),
    )
}

fn decision_digest(c: &Choice) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&(c.plan as u64).to_le_bytes());
    bytes[8..].copy_from_slice(&c.score.to_bits().to_le_bytes());
    digest(&bytes)
}

/// One decision per threshold pair, each as a digest of `(plan, score)`.
pub fn decide_all<E: Estimator>(
    chooser: &Chooser<'_>,
    estimator: &E,
    ta: &[i64],
    tb: &[i64],
) -> Vec<u64> {
    ta.iter()
        .flat_map(|&a| {
            tb.iter()
                .map(move |&b| decision_digest(&chooser.choose(estimator, a, b)))
        })
        .collect()
}

/// The churn every pass applies: [`CHURN_BATCHES`] batches with
/// [`DRIFT_DOWN`], charged to a session of [`CHURN_POOL_PAGES`].
pub struct Churn {
    pub driver: ChurnDriver,
    session: Session,
}

impl Churn {
    pub fn new(w: &Workload, rec: &Recorder) -> Churn {
        let cfg = ChurnConfig::for_workload(w).with_drift_down(DRIFT_DOWN);
        let _s = rec.enter(Layer::Workload, "ChurnDriver::new");
        Churn {
            driver: ChurnDriver::new(w, cfg),
            session: Session::with_pool_pages(CHURN_POOL_PAGES),
        }
    }

    pub fn apply_batch(&mut self, w: &mut Workload, rec: &Recorder) -> AppliedBatch {
        let _s = rec.enter(Layer::Workload, "ChurnDriver::apply_batch");
        self.driver.apply_batch(w, &self.session)
    }
}

pub struct ChurnChoice {
    config: WorkloadConfig,
    /// The table the next pass will mutate; replaced by [`Scenario::refresh`].
    w: Workload,
    cfg: MeasureConfig,
    model: CostModel,
    jcfg: JointHistogramConfig,
    grid: Grid2D,
    /// Expected rows per cell of the post-churn map (`ia`-major).
    churned_truth: Vec<u64>,
    /// Share of the table the churn touches (from the rehearsal).
    touched: f64,
}

impl ChurnChoice {
    /// `w` is consumed by a rehearsal: the churn is a pure function of the
    /// table and the seed, so the churned table every pass will reach can
    /// be produced once, untimed, and read by the oracle.
    pub fn new(mut w: Workload, threads: usize) -> ChurnChoice {
        let config = w.config.clone();
        let grid = Grid2D::pow2(8);
        let ta: Vec<i64> = grid.sel_a().iter().map(|&s| w.cal_a.threshold(s)).collect();
        let tb: Vec<i64> = grid.sel_b().iter().map(|&s| w.cal_b.threshold(s)).collect();
        let off = Recorder::new(false);
        let mut churn = Churn::new(&w, &off);
        for _ in 0..CHURN_BATCHES {
            churn.apply_batch(&mut w, &off);
        }
        let touched = churn.driver.fraction_touched();
        let churned_truth = Truth::scan(&w).grid(&ta, &tb);
        ChurnChoice {
            w: TableBuilder::build_cached(config.clone()),
            config,
            cfg: measure_config(threads),
            model: CostModel::hdd_2009(),
            jcfg: JointHistogramConfig::default(),
            grid,
            churned_truth,
            touched,
        }
    }
}

impl Scenario for ChurnChoice {
    fn warm_up(&mut self) {
        let joint = JointHistogram::from_workload(&self.w, &self.jcfg);
        let plans = catalog(&self.w);
        let stats = CatalogStats::of(&self.w);
        let chooser = Chooser {
            plans: &plans,
            stats: &stats,
            model: &self.model,
            policy: ChoicePolicy::Point,
        };
        let t = (self.w.cal_a.threshold(0.5), self.w.cal_b.threshold(0.5));
        std::hint::black_box(chooser.choose(&Joint::new(&joint), t.0, t.1));
    }

    fn refresh(&mut self) {
        self.w = TableBuilder::build_cached(self.config.clone());
    }

    fn pass(&mut self, rec: &Recorder, kernel: &mut Calibration) -> PassOutput {
        let mut out = PassOutput::default();
        let plans = catalog(&self.w);
        let stats = CatalogStats::of(&self.w);
        let (ta, tb) = choice_thresholds(&self.w);
        let per_group = (ta.len() * tb.len()) as u64;
        let chooser = |policy| Chooser {
            plans: &plans,
            stats: &stats,
            model: &self.model,
            policy,
        };
        let robust = ChoicePolicy::Robust(RobustConfig::default());

        // 1. Joint statistics from the fresh table.
        let joint = out.step(kernel, 1, || {
            let _s = rec.enter(Layer::Workload, "JointHistogram::from_workload");
            JointHistogram::from_workload(&self.w, &self.jcfg)
        });
        let Some(joint) = joint else { return out };
        let probe: Vec<u8> = ta
            .iter()
            .zip(&tb)
            .flat_map(|(&a, &b)| joint.estimate_joint_at_most(a, b).to_bits().to_le_bytes())
            .collect();
        out.digests.push(digest(&probe));

        // 2. Decisions before the churn: both policies, both estimators.
        let exact = Exact::of(&self.w);
        let from_joint = Joint::new(&joint);
        for policy in [ChoicePolicy::Point, robust] {
            let c = chooser(policy);
            let picked = out.step(kernel, 2 * per_group, || {
                let _s = rec.enter(Layer::Systems, "Chooser::choose");
                let mut d = decide_all(&c, &exact, &ta, &tb);
                d.extend(decide_all(&c, &from_joint, &ta, &tb));
                d
            });
            out.digests.extend(picked.into_iter().flatten());
        }

        // 3. Churn, three batches a step, maintaining the statistics after
        // each batch.
        let mut maintained = MaintainedJoint::new(joint.clone());
        let w = &mut self.w;
        let mut churn = Churn::new(w, rec);
        for _ in 0..CHURN_BATCHES / BATCHES_PER_STEP {
            let batches = out.step(kernel, BATCHES_PER_STEP as u64, || {
                (0..BATCHES_PER_STEP)
                    .map(|_| {
                        let batch = churn.apply_batch(w, rec);
                        let _s = rec.enter(Layer::Workload, "MaintainedJoint::apply");
                        maintained.apply(&batch);
                        Measurement {
                            seconds: batch.seconds,
                            io: batch.io,
                            rows: batch.rows_applied,
                            spilled: false,
                        }
                    })
                    .collect::<Vec<_>>()
            });
            let Some(batches) = batches else { return out };
            out.cells.extend(batches);
        }
        // Statistics that lost count of the live rows fail every batch.
        if churn.driver.live_rows() != maintained.live_rows() {
            out.failed += CHURN_BATCHES as u64;
        }

        // 4. Robust decisions from the maintained statistics.
        let c = chooser(robust);
        let picked = out.step(kernel, per_group, || {
            let _s = rec.enter(Layer::Systems, "Chooser::choose");
            decide_all(&c, &Maintained::new(&maintained), &ta, &tb)
        });
        out.digests.extend(picked.into_iter().flatten());

        // 5. The catalog mapped over the churned, tombstoned table, a plan
        // a step.
        let per_plan = self.grid.cells();
        for plan in &plans {
            let one = std::slice::from_ref(plan);
            let map = out.step(kernel, per_plan as u64, || {
                map2d(&self.w, one, &self.grid, &self.cfg, rec)
            });
            if let Some(map) = map {
                out.failed += wrong_rows(map.plan_grid(0), |i| self.churned_truth[i]);
                out.cells.extend_from_slice(map.plan_grid(0));
            }
        }
        out
    }

    fn notes(&self) -> Vec<(String, String)> {
        vec![
            ("rows".into(), self.config.rows.to_string()),
            ("pool_pages".into(), self.cfg.pool_pages.to_string()),
            (
                "decisions_per_pass".into(),
                (5 * CHOICE_AXIS * CHOICE_AXIS).to_string(),
            ),
            ("churn_batches".into(), CHURN_BATCHES.to_string()),
            (
                "churn_fraction_touched".into(),
                format!("{:.4}", self.touched),
            ),
            ("drift_down".into(), DRIFT_DOWN.to_string()),
        ]
    }
}
