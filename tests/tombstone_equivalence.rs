//! Differential equivalence over a *churned* heap.
//!
//! `tests/batch_equivalence.rs` runs on the pristine builder output, where
//! every slot of every heap page is live.  The churn engine breaks that
//! tidy shape: deletes leave tombstoned slots that a scan must skip (the
//! pages are never compacted), updates tombstone one slot and append
//! another, and inserts grow the heap past the bulk-loaded prefix with
//! partially filled tail pages.  Each of those is a batch-boundary hazard
//! — a columnar chunk that straddles a run of tombstones must produce
//! exactly the rows a brute-force filter over the heap gives.
//!
//! "Equal" is the same contract as the base suite: identical clock
//! ticks, identical `IoStats`, row counts, spill flags, and per-operator
//! breakdowns counted, read and traced — plus, for the collect path, the
//! brute-force rows in the brute-force order.
//!
//! The rid set reads the same heap from the other side: a churned page's
//! live-slot mask has dead slots in it and the tail pages have few slots
//! at all, so rid lists over it have gaps, uneven page groups and spans
//! that end mid-heap.  One test runs every physical-order fetch and both
//! intersections against the traditional fetch, which touches no set.
//!
//! The oracle does not compare plans with each other: at random
//! thresholds on a churned, drifted table, each plan's counted rows are
//! the brute-force count.
//!
//! A page whose last slots were deleted takes its next append on the slot
//! after them, never on a freed one, also when the heap was rebuilt from its
//! page images between the deletes and the append; the scan of it is held
//! to the row-at-a-time heap.

use robustmap::core::{measure_batch, serve_concurrent, MeasureConfig, Measurement, ServeConfig};
use robustmap::executor::{
    ColRange, FetchKind, ImprovedFetchConfig, IndexRangeSpec, IntersectAlgo, KeyRange, PlanSpec,
    Predicate, Projection, RowBatch,
};
use robustmap::executor::ops::table_scan;
use robustmap::storage::{ColumnType, FileId, HeapFile, Rid, Row, Schema, Session, Table};
use robustmap::systems::{two_predicate_plans, SystemId, TwoPredPlan};
use robustmap::workload::{ChurnConfig, ChurnDriver, TableBuilder, Workload, WorkloadConfig};

mod common;
use common::{
    assert_bit_identical, brute_force, collect_under, conditions, run_under, variants,
};

/// Build a workload and churn 30% of it so the heap carries tombstones,
/// update-moved rows, and appended tail pages.
fn churned_workload() -> (Workload, u64) {
    let mut w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 13));
    let cfg = ChurnConfig::for_workload(&w);
    let mut driver = ChurnDriver::new(&w, cfg);
    let session = Session::with_pool_pages(64);
    let batches = driver.apply_until_fraction(&mut w, &session, 0.3);
    let deleted: u64 = batches.iter().map(|b| b.deleted.len() as u64).sum();
    (w, deleted)
}

/// `rows` as a set: plans that read in different orders return equal ones.
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

/// Every plan in the three-system catalog over a selectivity grid, on the
/// tombstoned heap: same bits counted untraced and counted or read under
/// every condition of the independence matrix.
#[test]
fn catalog_is_bit_identical_on_tombstoned_heap() {
    let (w, deleted) = churned_workload();
    assert!(deleted > 0, "churn produced no tombstones; the suite tests nothing");
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, &w)).collect();
    assert_eq!(plans.len(), 15, "catalog size changed; update this suite");
    let base = MeasureConfig::default();
    let sels = [0.02, 0.3, 0.9];
    for plan in &plans {
        for &sa in &sels {
            for &sb in &sels {
                let spec = plan.build(w.cal_a.threshold(sa), w.cal_b.threshold(sb));
                let counted = run_under(&w, &spec, &base, None);
                for (how, cfg) in variants(&base) {
                    let label = format!("churned {} @ ({sa}, {sb}) [{how}]", plan.name);
                    assert_bit_identical(&counted, &run_under(&w, &spec, &cfg, None), &label);
                    let (read, _) = collect_under(&w, &spec, &cfg, None);
                    assert_bit_identical(&counted, &read, &format!("{label} read"));
                }
            }
        }
    }
}

/// The collect path returns the brute-force rows in the brute-force
/// order: tombstone-skipping may not reorder, drop or duplicate
/// survivors, under any condition.
#[test]
fn collected_rows_are_identical_on_tombstoned_heap() {
    let (w, _) = churned_workload();
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, &w)).collect();
    let base = MeasureConfig::default();
    let (ta, tb) = (w.cal_a.threshold(0.25), w.cal_b.threshold(0.55));
    for plan in &plans {
        let spec = plan.build(ta, tb);
        let want = brute_force(&w, &spec);
        for (how, cfg) in variants(&base) {
            let (stats, rows) = collect_under(&w, &spec, &cfg, None);
            let label = format!("churned collect {} [{how}]", plan.name);
            assert_eq!(stats.rows_out as usize, want.len(), "{label}: rows_out");
            assert!(rows == want, "{label}: collected rows differ from brute force");
        }
    }
}

/// The oracle on a churned table whose distribution drifted: at random
/// thresholds, every catalog plan's counted run returns as many rows as a
/// brute-force filter over the heap.  The thresholds are drawn over the
/// whole value domain (and one past each end), not through the
/// calibrators, whose quantiles the drift has moved.
#[test]
fn counted_rows_match_brute_force_at_random_thresholds_on_churned_table() {
    let mut w = TableBuilder::build_cached(WorkloadConfig::with_rows(1 << 12));
    let cfg = ChurnConfig::for_workload(&w).with_drift_down(60);
    let mut driver = ChurnDriver::new(&w, cfg);
    driver.apply_until_fraction(&mut w, &Session::with_pool_pages(64), 0.5);
    let plans: Vec<TwoPredPlan> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, &w)).collect();
    assert_eq!(plans.len(), 15, "catalog size changed; update this suite");
    let base = MeasureConfig::default();
    // splitmix64 over -1..=domain.
    let mut state = 0x0AC1Eu64;
    let mut threshold = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % (cfg.domain + 2)) as i64 - 1
    };
    for _ in 0..8 {
        let (ta, tb) = (threshold(), threshold());
        for plan in &plans {
            let spec = plan.build(ta, tb);
            let want = brute_force(&w, &spec).len() as u64;
            let got = run_under(&w, &spec, &base, None).rows_out;
            assert_eq!(got, want, "churned {} @ a <= {ta}, b <= {tb}: rows_out", plan.name);
        }
    }
}

/// Over the churned table, the fetches that order their rids (improved,
/// bitmap) and both intersections (merge, hash on either side) return the
/// rows the traditional fetch returns, and each reads the same — ticks,
/// counters, operators — under every condition of the independence
/// matrix.  Selectivities run from a list the set refuses
/// to the whole table.
#[test]
fn ordered_fetches_and_intersections_agree_with_traditional_fetch_on_tombstoned_heap() {
    let (w, deleted) = churned_workload();
    assert!(deleted > 0, "churn produced no tombstones; the suite tests nothing");
    let base = MeasureConfig::default();
    let project = Projection::Columns(vec![0, 1, 4]);
    let range = |index, hi| IndexRangeSpec { index, range: KeyRange::on_leading(i64::MIN, hi, 1) };
    let fetches = [FetchKind::Improved(ImprovedFetchConfig::default()), FetchKind::BitmapSorted];
    let algos = [
        IntersectAlgo::MergeJoin,
        IntersectAlgo::HashJoin { build_left: true },
        IntersectAlgo::HashJoin { build_left: false },
    ];
    for sa in [0.002, 0.05, 0.6, 1.0] {
        let ta = w.cal_a.threshold(sa);
        let fetch_a = |fetch: FetchKind, residual: Predicate| PlanSpec::IndexFetch {
            scan: range(w.indexes.a, ta),
            key_filter: Predicate::always_true(),
            fetch,
            residual,
            project: project.clone(),
        };
        let mut plans: Vec<(PlanSpec, PlanSpec)> = fetches
            .iter()
            .map(|&f| {
                (
                    fetch_a(f, Predicate::always_true()),
                    fetch_a(FetchKind::Traditional, Predicate::always_true()),
                )
            })
            .collect();
        for sb in [0.01, 0.4, 1.0] {
            let tb = w.cal_b.threshold(sb);
            let reference =
                fetch_a(FetchKind::Traditional, Predicate::single(ColRange::at_most(1, tb)));
            for algo in algos {
                for fetch in fetches {
                    let plan = PlanSpec::IndexIntersect {
                        left: range(w.indexes.a, ta),
                        right: range(w.indexes.b, tb),
                        algo,
                        fetch,
                        residual: Predicate::always_true(),
                        project: project.clone(),
                    };
                    plans.push((plan, reference.clone()));
                }
            }
        }
        for (plan, reference) in &plans {
            let label = format!("churned {} @ sel_a {sa}", plan.synopsis());
            let (_, want) = collect_under(&w, reference, &base, None);
            let (read, rows) = collect_under(&w, plan, &base, None);
            assert_eq!(sorted(rows), sorted(want), "{label}: rows vs the traditional fetch");
            for (how, cfg) in variants(&base) {
                let got = run_under(&w, plan, &cfg, None);
                assert_bit_identical(&read, &got, &format!("{label} [{how}]"));
            }
        }
    }
}

/// Both MDAM plans over the churned table, whose two-column indexes have
/// taken the same inserts and deletes — leaves half empty, prefixes no
/// longer distinct, so probe windows cross leaf edges and fail.  Each
/// returns the rows its covering scan with a residual returns, as many as
/// the table scan, and reads the same — ticks, counters, operators —
/// whatever the condition: tracing, the serving quantum (served alone
/// under it) and the sweep's thread count.
#[test]
fn mdam_agrees_with_the_scans_on_tombstoned_table_under_every_condition() {
    let (w, deleted) = churned_workload();
    assert!(deleted > 0, "churn produced no tombstones; the suite tests nothing");
    let plan = |name: &str| {
        let plans = SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, &w));
        plans.into_iter().find(|p| p.name.starts_with(name)).expect("catalog plan")
    };
    let base = MeasureConfig::default();
    let table_scan = plan("A1");
    for (mdam, covering) in [(plan("C1"), plan("C3")), (plan("C2"), plan("C4"))] {
        let mut specs = Vec::new();
        let mut alone: Vec<Measurement> = Vec::new();
        for (sa, sb) in [(0.02, 0.9), (0.3, 0.3), (0.9, 0.02), (1.0, 1.0)] {
            let (ta, tb) = (w.cal_a.threshold(sa), w.cal_b.threshold(sb));
            let spec = mdam.build(ta, tb);
            let label = format!("churned {} @ ({sa}, {sb})", mdam.name);
            let (row, rows) = collect_under(&w, &spec, &base, None);
            let (_, want) = collect_under(&w, &covering.build(ta, tb), &base, None);
            assert_eq!(sorted(rows), sorted(want), "{label}: rows vs {}", covering.name);
            let scanned = run_under(&w, &table_scan.build(ta, tb), &base, None);
            assert_eq!(row.rows_out, scanned.rows_out, "{label}: rows vs the table scan");
            for cond in conditions() {
                let label = format!("{label} [{}]", cond.name);
                assert_bit_identical(&row, &run_under(&w, &spec, &cond.measure(&base), None), &label);
                let served = serve_concurrent(
                    &w.db,
                    std::slice::from_ref(&spec),
                    &cond.serve(&ServeConfig::default()),
                );
                assert_bit_identical(&row, &served.queries[0].stats, &format!("{label} served"));
            }
            alone.push(Measurement::from(&row));
            specs.push(spec);
        }
        for cond in conditions() {
            for threads in [1, 2] {
                let cfg = MeasureConfig { threads, ..cond.measure(&base) };
                let label = format!("churned {} [{}] {threads} threads", mdam.name, cond.name);
                assert_eq!(measure_batch(&w.db, &specs, &cfg), alone, "{label}");
            }
        }
    }
}

#[test]
fn a_tombstoned_tail_scans_as_the_heap_after_an_append() {
    let schema = Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]);
    let mut heap = HeapFile::new(FileId(0), schema.clone());
    for i in 0..1000 {
        heap.append(&Row::from_slice(&[i, -i])).unwrap();
    }
    let last = heap.page_count() - 1;
    let n = heap.resolve(last).unwrap().slot_count() as u32;
    for slot in n - 3..n {
        heap.delete(Rid::new(last, slot)).unwrap();
    }
    let mut reloaded = HeapFile::new(heap.file_id(), schema);
    for p in 0..heap.page_count() {
        let mut image = Vec::new();
        heap.write_image(p, &mut image);
        reloaded.push_image(&image.try_into().unwrap()).expect("an image the heap wrote");
    }
    let mut heap = reloaded;
    assert!(heap.resolve(last).unwrap().mask().is_some(), "the tail is holey");
    assert_eq!(heap.append(&Row::from_slice(&[-1, 1])).unwrap(), Rid::new(last, n));

    let pred = Predicate::single(ColRange::at_most(0, 499));
    let row_s = Session::with_pool_pages(4);
    let mut want = Vec::new();
    heap.scan(&row_s, |_, row| {
        if pred.eval(row, &row_s) {
            want.push(*row);
        }
    });
    let table = Table { name: "tombstoned tail".to_string(), heap };
    let s = Session::with_pool_pages(4);
    let mut got = Vec::new();
    let mut sink = |b: &RowBatch| got.extend((0..b.len()).map(|i| b.row(i)));
    table_scan::run(&table, &pred, &[0, 1], &s, &mut sink);
    assert_eq!(got, want);
    assert_eq!(got.last(), Some(&Row::from_slice(&[-1, 1])));
    assert_eq!((s.stats(), s.elapsed_ticks()), (row_s.stats(), row_s.elapsed_ticks()));
}
