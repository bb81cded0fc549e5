//! `serve_burst`: concurrent serving (`ext_concurrency`).
//!
//! The fifteen-plan catalog at one selectivity point is served as a burst
//! at four concurrency levels, each over a pool a quarter of the heap
//! (which evicts constantly) and over one twice the heap (which fits).  A query
//! here is a few dozen baton handoffs with a little executor work between
//! them, so this workload is the scheduler in `core::serve` plus the
//! shared pool in `storage::shared`: the one that moves when they change
//! and the one that must not move when the executor does.
//!
//! The scheduler runs exactly one thread at a time by design, so the
//! process is pinned to one CPU for this workload: on two CPUs every
//! handoff is a cross-CPU wake-up, which costs ten times the handoff
//! itself and varies by as much between runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use robustmap_core::{
    measure_plan, serve_concurrent, MeasureConfig, Measurement, ServeConfig, ServeReport,
};
use robustmap_executor::PlanSpec;
use robustmap_storage::IoStats;
use robustmap_systems::AdmissionConfig;
use robustmap_workload::Workload;

use super::scan_atlas::catalog;
use super::{PassOutput, Scenario};
use crate::env::Calibration;
use crate::oracle::Truth;
use crate::spans::{Layer, Recorder};

pub const ROWS: u64 = 1 << 16;

/// The selectivity point every query runs at.
pub const SEL_A: f64 = 0.15;
pub const SEL_B: f64 = 0.4;

/// `max_in_flight` per burst: serial, a few, more than the catalog, far more.
pub const LEVELS: [usize; 4] = [1, 8, 64, 256];

/// A burst that has not finished by now has deadlocked.
const WATCHDOG: Duration = Duration::from_secs(30);

/// The burst for concurrency `level`: the catalog repeated until it has at
/// least `level` queries, as `ext_concurrency` does.
pub fn burst_for(specs: &[PlanSpec], level: usize) -> Vec<PlanSpec> {
    let len = specs.len() * level.div_ceil(specs.len());
    (0..len).map(|j| specs[j % specs.len()].clone()).collect()
}

pub fn serve_config(pool_pages: usize, max_in_flight: usize) -> ServeConfig {
    ServeConfig {
        pool_pages,
        admission: AdmissionConfig {
            max_in_flight,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// The work a query did, which concurrency must not change: page
/// requests, page writes, and the three CPU counters.
pub fn work_signature(io: &IoStats) -> (u64, u64, u64, u64, u64) {
    (
        io.page_requests(),
        io.page_writes,
        io.cpu_rows,
        io.cpu_compares,
        io.cpu_hashes,
    )
}

/// Serve `burst` on a thread of its own and wait at most [`WATCHDOG`] for
/// it.  A deadlocked scheduler cannot be interrupted, only abandoned: the
/// stuck thread is left behind and dies with the process.
pub fn serve_watched(
    w: &Arc<Workload>,
    burst: Vec<PlanSpec>,
    cfg: ServeConfig,
) -> Result<ServeReport, String> {
    let (tx, rx) = mpsc::channel();
    let table = Arc::clone(w);
    let server = std::thread::spawn(move || {
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve_concurrent(&table.db, &burst, &cfg)
        }));
        // The receiver is gone only if the watchdog already gave up.
        let _ = tx.send(served);
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(served) => {
            server
                .join()
                .map_err(|_| "serving thread panicked after reporting".to_string())?;
            served.map_err(|_| "burst panicked".to_string())
        }
        Err(_) => Err(format!("burst still running after {WATCHDOG:?}")),
    }
}

pub struct ServeBurst {
    w: Arc<Workload>,
    specs: Vec<PlanSpec>,
    /// Pool that cannot hold the table, pool that can.
    pools: [usize; 2],
    /// Per pool, each plan measured alone.
    isolated: [Vec<Measurement>; 2],
    /// Rows every query must return.
    truth_rows: u64,
    /// Set once a burst was abandoned: later bursts would share the CPU
    /// with its stuck threads, so they are failed without running.
    abandoned: Option<String>,
}

impl ServeBurst {
    pub fn new(w: Workload, truth: &Truth) -> ServeBurst {
        let (ta, tb) = (w.cal_a.threshold(SEL_A), w.cal_b.threshold(SEL_B));
        let specs: Vec<PlanSpec> = catalog(&w).iter().map(|p| p.build(ta, tb)).collect();
        let heap = w.heap_pages() as usize;
        let pools = [(heap / 4).max(8), heap * 2];
        let isolated = pools.map(|pool_pages| {
            let cfg = MeasureConfig {
                pool_pages,
                threads: 1,
                ..MeasureConfig::default()
            };
            specs.iter().map(|s| measure_plan(&w.db, s, &cfg)).collect()
        });
        ServeBurst {
            truth_rows: truth.grid(&[ta], &[tb])[0],
            w: Arc::new(w),
            specs,
            pools,
            isolated,
            abandoned: None,
        }
    }

    /// Queries of `report` that returned the wrong rows, did other work
    /// than the same plan measured alone, or — served one at a time —
    /// did not reproduce the isolated measurement bit for bit.
    fn wrong_queries(&self, report: &ServeReport, pool: usize, level: usize) -> u64 {
        report
            .queries
            .iter()
            .enumerate()
            .filter(|(j, q)| {
                let alone = &self.isolated[pool][j % self.specs.len()];
                q.stats.rows_out != self.truth_rows
                    || work_signature(&q.stats.io) != work_signature(&alone.io)
                    || (level == 1
                        && (q.stats.seconds.to_bits() != alone.seconds.to_bits()
                            || q.stats.io != alone.io))
            })
            .count() as u64
    }
}

impl Scenario for ServeBurst {
    fn warm_up(&mut self) {
        let burst = burst_for(&self.specs, 1);
        std::hint::black_box(serve_concurrent(
            &self.w.db,
            &burst,
            &serve_config(self.pools[1], 1),
        ));
    }

    fn pass(&mut self, rec: &Recorder, kernel: &mut Calibration) -> PassOutput {
        let mut out = PassOutput::default();
        for (pool, &pool_pages) in self.pools.iter().enumerate() {
            for level in LEVELS {
                let burst = burst_for(&self.specs, level);
                let queries = burst.len() as u64;
                if self.abandoned.is_some() {
                    out.attempted += queries;
                    out.failed += queries;
                    continue;
                }
                let served = out.step(kernel, queries, || {
                    let _s = rec.enter_tagged(
                        Layer::Core,
                        "serve_concurrent",
                        &format!("pool {pool_pages} level {level}"),
                    );
                    serve_watched(&self.w, burst, serve_config(pool_pages, level))
                });
                match served {
                    // The step panicked and has failed its queries.
                    None => {}
                    Some(Ok(report)) => {
                        out.failed += self.wrong_queries(&report, pool, level);
                        out.failed += queries.saturating_sub(report.queries.len() as u64);
                        out.cells
                            .extend(report.queries.iter().map(|q| q.measurement()));
                    }
                    Some(Err(why)) => {
                        eprintln!("serve_burst: pool {pool_pages} level {level}: {why}");
                        out.failed += queries;
                        if why.contains("still running") {
                            self.abandoned = Some(why);
                        }
                    }
                }
            }
        }
        out
    }

    fn abandoned(&self) -> bool {
        self.abandoned.is_some()
    }

    fn notes(&self) -> Vec<(String, String)> {
        let mut notes = vec![
            ("rows".into(), self.w.rows().to_string()),
            ("heap_pages".into(), self.w.heap_pages().to_string()),
            ("pool_pages_small".into(), self.pools[0].to_string()),
            ("pool_pages_fit".into(), self.pools[1].to_string()),
            ("queries_per_pass".into(), {
                let per_pool: usize = LEVELS
                    .iter()
                    .map(|&l| burst_for(&self.specs, l).len())
                    .sum();
                (per_pool * self.pools.len()).to_string()
            }),
        ];
        if let Some(why) = &self.abandoned {
            notes.push(("abandoned".into(), why.clone()));
        }
        notes
    }
}
