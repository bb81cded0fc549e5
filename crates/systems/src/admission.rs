//! Admission control: the first contention-aware serving policy.
//!
//! The paper's §3 names "resources (memory, I/O bandwidth)" as run-time
//! conditions; when N queries arrive at once, *something* must decide which
//! of them run now, which wait, and how much memory each may hold.  An
//! [`AdmissionPolicy`] makes that decision three ways:
//!
//! * **run** — capacity is available: the query is admitted with its full
//!   requested grant;
//! * **shrink-grant** — the concurrency slot is free but the memory budget
//!   is nearly spent: the query is admitted with a reduced grant.  A
//!   shrunk grant is not cosmetic: [`apply_grant`] clamps every
//!   memory-consuming operator in the plan, so a hash join or sort that
//!   fit in memory under its planned grant now *spills* — exactly the
//!   discontinuity the paper's sort-spill maps visualize, now triggered by
//!   contention instead of data volume;
//! * **queue** — no slot, or so little memory that the query would thrash:
//!   the query waits FIFO until a completion releases capacity.
//!
//! The policy is deliberately a plain state machine (no clock, no
//! randomness): the deterministic scheduler in `core::serve` drives it,
//! and every decision replays identically on every run.

use robustmap_executor::PlanSpec;

/// The grant each query requests, and the one
/// `core::MeasureConfig::memory_bytes` costs plans under: 8 MiB.
pub const DEFAULT_GRANT: usize = 8 << 20;

/// Smallest grant worth admitting with (64 KiB); below this a query queues
/// for a completion instead of thrashing.
pub const MIN_GRANT: usize = 64 << 10;

/// Capacity limits an [`AdmissionPolicy`] enforces.
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Maximum queries in flight at once (0 = unbounded).
    pub max_in_flight: usize,
    /// Total memory grantable across in-flight queries, in bytes
    /// (0 = unbounded).
    pub memory_budget: usize,
}

/// One admission decision for the query at the head of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admit now with `grant` bytes of memory (shrunk when below the
    /// requested default).
    Run {
        /// Memory grant in bytes.
        grant: usize,
    },
    /// Keep queued until a running query completes.
    Queue,
}

/// Tracks in-flight queries and outstanding grants, deciding run / shrink /
/// queue for each admission attempt.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    cfg: AdmissionConfig,
    in_flight: usize,
    granted: usize,
}

impl AdmissionPolicy {
    /// A policy enforcing `cfg`, with nothing in flight.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionPolicy { cfg, in_flight: 0, granted: 0 }
    }

    /// Decide for the next queued query.  On [`AdmissionDecision::Run`]
    /// the policy records the admission; the caller must later
    /// [`release`](Self::release) the same grant.
    ///
    /// An idle system always admits (with at least the minimum grant, even
    /// past an exhausted budget): queueing with nothing in flight would
    /// deadlock, and a lone query cannot thrash anyone else.
    pub fn admit(&mut self) -> AdmissionDecision {
        if self.cfg.max_in_flight != 0 && self.in_flight >= self.cfg.max_in_flight {
            return AdmissionDecision::Queue;
        }
        let headroom = if self.cfg.memory_budget == 0 {
            usize::MAX
        } else {
            self.cfg.memory_budget.saturating_sub(self.granted)
        };
        let mut grant = DEFAULT_GRANT.min(headroom);
        if grant < MIN_GRANT {
            if self.in_flight > 0 {
                return AdmissionDecision::Queue;
            }
            grant = MIN_GRANT;
        }
        self.in_flight += 1;
        self.granted += grant;
        AdmissionDecision::Run { grant }
    }

    /// Record the completion of a query admitted with `grant` bytes.
    pub fn release(&mut self, grant: usize) {
        debug_assert!(self.in_flight > 0, "release without admission");
        self.in_flight -= 1;
        self.granted = self.granted.saturating_sub(grant);
    }

    /// Queries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Bytes currently granted to in-flight queries.
    pub fn granted(&self) -> usize {
        self.granted
    }
}

/// Clamp every memory-consuming operator of `spec` to `grant` bytes,
/// recursively.  Operators that fit under the grant keep their planned
/// budget; a shrunk grant forces the spill path (graceful or abrupt per
/// the operator's [`robustmap_executor::SpillMode`]).
pub fn apply_grant(spec: &PlanSpec, grant: usize) -> PlanSpec {
    match spec {
        PlanSpec::Join { left, right, left_key, right_key, algo, memory_bytes, project } => {
            PlanSpec::Join {
                left: Box::new(apply_grant(left, grant)),
                right: Box::new(apply_grant(right, grant)),
                left_key: *left_key,
                right_key: *right_key,
                algo: *algo,
                memory_bytes: (*memory_bytes).min(grant),
                project: project.clone(),
            }
        }
        PlanSpec::Sort { input, key_cols, mode, memory_bytes } => PlanSpec::Sort {
            input: Box::new(apply_grant(input, grant)),
            key_cols: key_cols.clone(),
            mode: *mode,
            memory_bytes: (*memory_bytes).min(grant),
        },
        PlanSpec::HashAgg { input, group_cols, aggs, mode, memory_bytes } => PlanSpec::HashAgg {
            input: Box::new(apply_grant(input, grant)),
            group_cols: group_cols.clone(),
            aggs: aggs.clone(),
            mode: *mode,
            memory_bytes: (*memory_bytes).min(grant),
        },
        // Leaf and fetch-shaped operators hold no operator memory grant.
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_in_flight: usize, budget: usize) -> AdmissionConfig {
        AdmissionConfig { max_in_flight, memory_budget: budget }
    }

    #[test]
    fn slots_gate_admission_fifo() {
        let mut p = AdmissionPolicy::new(cfg(2, 0));
        assert_eq!(p.admit(), AdmissionDecision::Run { grant: 8 << 20 });
        assert_eq!(p.admit(), AdmissionDecision::Run { grant: 8 << 20 });
        assert_eq!(p.admit(), AdmissionDecision::Queue);
        p.release(8 << 20);
        assert_eq!(p.admit(), AdmissionDecision::Run { grant: 8 << 20 });
        assert_eq!(p.in_flight(), 2);
    }

    #[test]
    fn budget_shrinks_then_queues() {
        // Budget fits one full grant plus a minimum-grant sliver: the
        // second query is admitted shrunk, the third queues.
        let mut p = AdmissionPolicy::new(cfg(0, (8 << 20) + MIN_GRANT));
        assert_eq!(p.admit(), AdmissionDecision::Run { grant: 8 << 20 });
        assert_eq!(p.admit(), AdmissionDecision::Run { grant: MIN_GRANT });
        assert_eq!(p.admit(), AdmissionDecision::Queue);
        p.release(8 << 20);
        assert_eq!(p.admit(), AdmissionDecision::Run { grant: 8 << 20 });
    }

    #[test]
    fn idle_system_always_admits() {
        let mut p = AdmissionPolicy::new(cfg(0, 1)); // absurd 1-byte budget
        match p.admit() {
            AdmissionDecision::Run { grant } => assert_eq!(grant, MIN_GRANT),
            AdmissionDecision::Queue => panic!("idle system must admit"),
        }
        assert_eq!(p.admit(), AdmissionDecision::Queue);
    }

    #[test]
    fn apply_grant_clamps_recursively_and_preserves_small_budgets() {
        use robustmap_executor::{
            ColRange, JoinAlgo, Predicate, Projection, SpillMode,
        };
        use robustmap_storage::TableId;
        let scan = PlanSpec::TableScan {
            table: TableId(0),
            pred: Predicate::single(ColRange::at_most(0, 10)),
            project: Projection::All,
        };
        let spec = PlanSpec::Join {
            left: Box::new(PlanSpec::Sort {
                input: Box::new(scan.clone()),
                key_cols: vec![0],
                mode: SpillMode::Graceful,
                memory_bytes: 4 << 20,
            }),
            right: Box::new(scan),
            left_key: 0,
            right_key: 0,
            algo: JoinAlgo::Hash { build_left: true },
            memory_bytes: 8 << 20,
            project: Projection::All,
        };
        let shrunk = apply_grant(&spec, 1 << 20);
        match &shrunk {
            PlanSpec::Join { memory_bytes, left, .. } => {
                assert_eq!(*memory_bytes, 1 << 20);
                match left.as_ref() {
                    PlanSpec::Sort { memory_bytes, .. } => assert_eq!(*memory_bytes, 1 << 20),
                    other => panic!("unexpected shape: {other:?}"),
                }
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        // A generous grant leaves planned budgets untouched.
        assert_eq!(apply_grant(&spec, 64 << 20), spec);
    }

    #[test]
    fn shrunk_grant_forces_sort_spill() {
        use robustmap_executor::{
            run_count, ColRange, ExecCtx, PlanSpec, Predicate, Projection, SpillMode,
        };
        use robustmap_storage::Session;
        use robustmap_workload::{TableBuilder, WorkloadConfig};
        let w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 12));
        let spec = PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: w.table,
                pred: Predicate::single(ColRange::at_most(0, w.cal_a.threshold(1.0))),
                project: Projection::All,
            }),
            key_cols: vec![1],
            mode: SpillMode::Abrupt,
            memory_bytes: 8 << 20,
        };
        let run = |plan: &PlanSpec, memory: usize| {
            let s = Session::with_pool_pages(256);
            let ctx = ExecCtx::new(&w.db, &s, memory);
            run_count(plan, &ctx, None).expect("well-formed")
        };
        // Under the planned grant the sort fits in memory...
        assert!(!run(&spec, 8 << 20).spilled);
        // ...under a shrunk grant the same query spills.
        let shrunk = apply_grant(&spec, 1 << 14);
        assert!(run(&shrunk, 1 << 14).spilled);
    }
}
