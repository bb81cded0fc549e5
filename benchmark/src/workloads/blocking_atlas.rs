//! `blocking_atlas`: the join, sort and aggregation maps (`ext_join`,
//! `ext_sort_spill`, `ext_memory`).
//!
//! `measure_batch` over three grids, one call per column of a grid: sort-merge and both hash joins
//! across |R| x |S| with a grant that puts the build-side cliff inside the
//! sweep; abrupt and graceful sorts across input size x memory grant; and
//! a hash aggregation column over the same input sizes.  The executor is
//! the same as in `scan_atlas` but used very differently: blocking
//! operators with row-at-a-time input edges, packed-row sort, hash build
//! and probe, and the spill write path.  Scans are only about a third of a
//! join cell.

use std::ops::Range;

use robustmap_core::MeasureConfig;
use robustmap_executor::{AggFn, ColRange, JoinAlgo, PlanSpec, Predicate, Projection, SpillMode};
use robustmap_workload::{Workload, COL_A, COL_B, COL_C};

use super::{measure_config, sweep, PassOutput, Scenario};
use crate::env::Calibration;
use crate::oracle::{wrong_rows, Truth};
use crate::spans::Recorder;

pub const ROWS: u64 = 1 << 17;

/// Join input selectivities per side: 2^-4 .. 1.
const JOIN_EXPS: [i32; 5] = [4, 3, 2, 1, 0];
/// Sort and aggregation input selectivities: 2^-5 .. 1.
const INPUT_EXPS: [i32; 6] = [5, 4, 3, 2, 1, 0];
/// Sort memory grants: 4 KiB .. 4 MiB in factor-4 steps.
const SORT_GRANTS: [usize; 6] = [4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
/// Aggregation grant: small enough that the larger inputs spill.
const AGG_GRANT: usize = 256 << 10;

const JOIN_ALGOS: [(&str, JoinAlgo); 3] = [
    ("join sort-merge", JoinAlgo::SortMerge),
    ("join hash build-left", JoinAlgo::Hash { build_left: true }),
    (
        "join hash build-right",
        JoinAlgo::Hash { build_left: false },
    ),
];

fn scan(w: &Workload, col: usize, t: i64, keep: usize) -> PlanSpec {
    PlanSpec::TableScan {
        table: w.table,
        pred: Predicate::single(ColRange::at_most(col, t)),
        project: Projection::Columns(vec![COL_C, keep]),
    }
}

/// R = rows with `a <= ta` as `(c, a)`, S = rows with `b <= tb` as
/// `(c, b)`, equi-joined on `c`.  `c` is a permutation, so each R row
/// matches at most the one S row it came from: the join returns exactly
/// the rows that satisfy both predicates.
pub fn join_plan(w: &Workload, ta: i64, tb: i64, algo: JoinAlgo, memory_bytes: usize) -> PlanSpec {
    PlanSpec::Join {
        left: Box::new(scan(w, COL_A, ta, COL_A)),
        right: Box::new(scan(w, COL_B, tb, COL_B)),
        left_key: 0,
        right_key: 0,
        algo,
        memory_bytes,
        project: Projection::All,
    }
}

pub fn sort_plan(w: &Workload, ta: i64, mode: SpillMode, memory_bytes: usize) -> PlanSpec {
    PlanSpec::Sort {
        input: Box::new(scan(w, COL_A, ta, COL_A)),
        key_cols: vec![0],
        mode,
        memory_bytes,
    }
}

/// Group the qualifying rows by `c` (unique, so one group per row: the
/// largest hash table an input can produce) and count.
pub fn agg_plan(w: &Workload, ta: i64, memory_bytes: usize) -> PlanSpec {
    PlanSpec::HashAgg {
        input: Box::new(scan(w, COL_A, ta, COL_A)),
        group_cols: vec![0],
        aggs: vec![AggFn::CountStar],
        mode: SpillMode::Graceful,
        memory_bytes,
    }
}

pub struct BlockingAtlas {
    w: Workload,
    cfg: MeasureConfig,
    specs: Vec<PlanSpec>,
    tags: Vec<&'static str>,
    /// Expected rows per spec.
    truth: Vec<u64>,
    /// The pass's steps, as ranges of `specs`: one per join algorithm, one
    /// per sort mode and grant, one for the aggregation column.
    steps: Vec<Range<usize>>,
}

impl BlockingAtlas {
    pub fn new(w: Workload, truth: &Truth, threads: usize) -> BlockingAtlas {
        // Four bytes of grant per table row: a full build side is about
        // eight times the grant, so the hash joins' cliff falls at 2^-3.
        let join_grant = w.rows() as usize * 4;
        let thr = |cal: &robustmap_workload::Calibrator, exps: &[i32]| -> Vec<i64> {
            exps.iter()
                .map(|&e| cal.threshold(0.5f64.powi(e)))
                .collect()
        };
        let (ja, jb) = (thr(&w.cal_a, &JOIN_EXPS), thr(&w.cal_b, &JOIN_EXPS));
        let inputs = thr(&w.cal_a, &INPUT_EXPS);
        let join_truth = truth.grid(&ja, &jb);

        let mut specs = Vec::new();
        let mut tags = Vec::new();
        let mut expected = Vec::new();
        let mut steps = Vec::new();
        for (name, algo) in JOIN_ALGOS {
            let from = specs.len();
            for (ia, &ta) in ja.iter().enumerate() {
                for (ib, &tb) in jb.iter().enumerate() {
                    specs.push(join_plan(&w, ta, tb, algo, join_grant));
                    tags.push(name);
                    expected.push(join_truth[ia * jb.len() + ib]);
                }
            }
            steps.push(from..specs.len());
        }
        for (name, mode) in [
            ("sort abrupt", SpillMode::Abrupt),
            ("sort graceful", SpillMode::Graceful),
        ] {
            for &grant in &SORT_GRANTS {
                let from = specs.len();
                for &ta in &inputs {
                    specs.push(sort_plan(&w, ta, mode, grant));
                    tags.push(name);
                    expected.push(truth.count_a(ta));
                }
                steps.push(from..specs.len());
            }
        }
        let from = specs.len();
        for &ta in &inputs {
            specs.push(agg_plan(&w, ta, AGG_GRANT));
            tags.push("hash aggregate");
            expected.push(truth.count_a(ta));
        }
        steps.push(from..specs.len());
        BlockingAtlas {
            w,
            cfg: measure_config(threads),
            specs,
            tags,
            truth: expected,
            steps,
        }
    }
}

impl Scenario for BlockingAtlas {
    fn warm_up(&mut self) {
        // The aggregation column is the last and smallest grid.
        let column = &self.specs[self.specs.len() - INPUT_EXPS.len()..];
        std::hint::black_box(robustmap_core::measure_batch(&self.w.db, column, &self.cfg));
    }

    fn pass(&mut self, rec: &Recorder, kernel: &mut Calibration) -> PassOutput {
        let mut out = PassOutput::default();
        for range in &self.steps {
            let (specs, from) = (&self.specs[range.clone()], range.start);
            let tag = |i: usize| self.tags[from + i].to_string();
            let results = out.step(kernel, specs.len() as u64, || {
                sweep(&self.w.db, specs, &tag, &self.cfg, rec)
            });
            if let Some(results) = results {
                out.failed += wrong_rows(&results, |i| self.truth[from + i]);
                out.cells.extend(results);
            }
        }
        out
    }

    fn notes(&self) -> Vec<(String, String)> {
        let spilled = |m: &str| {
            self.tags
                .iter()
                .filter(|t| t.starts_with(m))
                .count()
                .to_string()
        };
        vec![
            ("rows".into(), self.w.rows().to_string()),
            ("heap_pages".into(), self.w.heap_pages().to_string()),
            ("pool_pages".into(), self.cfg.pool_pages.to_string()),
            ("join_cells".into(), spilled("join")),
            ("sort_cells".into(), spilled("sort")),
            ("agg_cells".into(), spilled("hash aggregate")),
        ]
    }
}
