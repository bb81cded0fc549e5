//! Property-based tests for the executor: every physical plan shape must
//! agree with a naive reference evaluation on randomly generated tables
//! and predicates, and the memory-bounded operators must match their
//! in-memory equivalents for any grant.

use proptest::prelude::*;
use robustmap_executor::batch::{Records, BATCH_ROWS};
use robustmap_executor::ops::sort::{sort_capacity_rows, ExternalSorter, PackedRows};
use robustmap_executor::{
    run_collect, BatchEmitter, RowBatch, AggFn, CheckpointKind, ColRange, ExecCtx, FetchKind,
    ImprovedFetchConfig, IndexRangeSpec, IntersectAlgo, KeyRange, Observation, PlanSpec, Predicate,
    Projection, SpillMode,
};
use robustmap_storage::{ColumnType, Database, FileId, HeapFile, Row, Schema, Session, TableId};

/// Build a table with columns (a, b, c) from explicit tuples.
fn db_from(rows: &[(i64, i64, i64)]) -> (Database, TableId) {
    let mut db = Database::new();
    let schema = Schema::new(vec![
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
        ("c", ColumnType::Int),
    ]);
    let t = db.create_table("t", schema);
    for &(a, b, c) in rows {
        db.insert_row(t, &Row::from_slice(&[a, b, c])).unwrap();
    }
    (db, t)
}

fn sorted_rows(rows: Vec<Row>) -> Vec<Vec<i64>> {
    let mut v: Vec<Vec<i64>> = rows.iter().map(|r| r.values().to_vec()).collect();
    v.sort();
    v
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((-50i64..50, -50i64..50, -50i64..50), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table scan, single-index fetches (all three disciplines), index
    /// intersections (all algorithms/orders) and the covering scan agree
    /// with a filter over the raw tuples.
    #[test]
    fn all_plan_shapes_match_reference(
        rows in rows_strategy(),
        ta in -60i64..60,
        tb in -60i64..60,
    ) {
        let (mut db, t) = db_from(&rows);
        let idx_a = db.create_index("ia", t, &[0]).unwrap();
        let idx_b = db.create_index("ib", t, &[1]).unwrap();
        let idx_ab = db.create_index("iab", t, &[0, 1]).unwrap();

        let reference: Vec<Vec<i64>> = {
            let mut v: Vec<Vec<i64>> = rows
                .iter()
                .filter(|&&(a, b, _)| a <= ta && b <= tb)
                .map(|&(a, b, c)| vec![a, b, c])
                .collect();
            v.sort();
            v
        };

        let improved = FetchKind::Improved(ImprovedFetchConfig::default());
        let plans = vec![
            PlanSpec::TableScan {
                table: t,
                pred: Predicate::all_of(vec![ColRange::at_most(0, ta), ColRange::at_most(1, tb)]),
                project: Projection::All,
            },
            PlanSpec::IndexFetch {
                scan: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
                key_filter: Predicate::always_true(),
                fetch: FetchKind::Traditional,
                residual: Predicate::single(ColRange::at_most(1, tb)),
                project: Projection::All,
            },
            PlanSpec::IndexFetch {
                scan: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, tb, 1) },
                key_filter: Predicate::always_true(),
                fetch: improved,
                residual: Predicate::single(ColRange::at_most(0, ta)),
                project: Projection::All,
            },
            PlanSpec::IndexFetch {
                scan: IndexRangeSpec { index: idx_ab, range: KeyRange::on_leading(i64::MIN, ta, 2) },
                key_filter: Predicate::single(ColRange::at_most(1, tb)),
                fetch: FetchKind::BitmapSorted,
                residual: Predicate::always_true(),
                project: Projection::All,
            },
            PlanSpec::IndexIntersect {
                left: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
                right: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, tb, 1) },
                algo: IntersectAlgo::MergeJoin,
                fetch: improved,
                residual: Predicate::always_true(),
                project: Projection::All,
            },
            PlanSpec::IndexIntersect {
                left: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, tb, 1) },
                right: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
                algo: IntersectAlgo::HashJoin { build_left: false },
                fetch: FetchKind::BitmapSorted,
                residual: Predicate::always_true(),
                project: Projection::All,
            },
        ];
        for plan in &plans {
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            let (_, got) = run_collect(plan, &ctx, None).unwrap();
            prop_assert_eq!(sorted_rows(got), reference.clone(), "{}", plan.synopsis());
        }
        // Covering and MDAM plans emit (a, b) key rows; compare counts.
        let covering = PlanSpec::CoveringIndexScan {
            scan: IndexRangeSpec { index: idx_ab, range: KeyRange::on_leading(i64::MIN, ta, 2) },
            residual: Predicate::single(ColRange::at_most(1, tb)),
            project: Projection::All,
        };
        let mdam = PlanSpec::Mdam {
            index: idx_ab,
            col_ranges: vec![(i64::MIN, ta), (i64::MIN, tb)],
            project: Projection::All,
        };
        for plan in [&covering, &mdam] {
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            let (stats, _) = run_collect(plan, &ctx, None).unwrap();
            prop_assert_eq!(stats.rows_out as usize, reference.len(), "{}", plan.synopsis());
        }
    }

    /// MDAM with arbitrary per-column boxes equals a filtered scan.
    #[test]
    fn mdam_boxes_match_filter(
        rows in rows_strategy(),
        bounds in ((-60i64..60), (-60i64..60), (-60i64..60), (-60i64..60)),
    ) {
        let (alo, ahi, blo, bhi) = bounds;
        let (mut db, t) = db_from(&rows);
        let idx_ab = db.create_index("iab", t, &[0, 1]).unwrap();
        let want = rows
            .iter()
            .filter(|&&(a, b, _)| alo <= a && a <= ahi && blo <= b && b <= bhi)
            .count() as u64;
        let plan = PlanSpec::Mdam {
            index: idx_ab,
            col_ranges: vec![(alo, ahi), (blo, bhi)],
            project: Projection::All,
        };
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let (stats, got) = run_collect(&plan, &ctx, None).unwrap();
        prop_assert_eq!(stats.rows_out, want);
        for r in got {
            prop_assert!(alo <= r.get(0) && r.get(0) <= ahi);
            prop_assert!(blo <= r.get(1) && r.get(1) <= bhi);
        }
    }

    /// External sort equals std sort for any memory grant and either spill
    /// mode, and spills exactly when the input exceeds the grant's row
    /// capacity.
    #[test]
    fn sort_plan_equals_std_sort(
        rows in rows_strategy(),
        memory_kib in 1usize..64,
        abrupt in any::<bool>(),
    ) {
        let (db, t) = db_from(&rows);
        let plan = PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: t,
                pred: Predicate::always_true(),
                project: Projection::All,
            }),
            key_cols: vec![2, 0],
            mode: if abrupt { SpillMode::Abrupt } else { SpillMode::Graceful },
            memory_bytes: memory_kib * 1024,
        };
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let (_, got) = run_collect(&plan, &ctx, None).unwrap();
        let got: Vec<Vec<i64>> = got.iter().map(|r| r.values().to_vec()).collect();
        let mut want: Vec<Vec<i64>> = rows.iter().map(|&(a, b, c)| vec![a, b, c]).collect();
        want.sort_by(|x, y| (x[2], x[0], &x[..]).cmp(&(y[2], y[0], &y[..])));
        prop_assert_eq!(got.len(), want.len());
        // Compare by sort keys only (ties may order by full row).
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!((g[2], g[0]), (w[2], w[0]));
        }
    }

    /// Every streaming shape returns exactly the rows a brute-force
    /// evaluation over the raw tuples gives — values and order: the table
    /// scan and the improved fetch in physical order, the covering scan in
    /// key order.  Results run from empty (`ta` below every value) to more
    /// than a batch, rarely a multiple of one, so partial final batches
    /// are routine.
    #[test]
    fn streaming_shapes_match_brute_force(
        rows in prop::collection::vec((-50i64..50, -50i64..50, -50i64..50), 1..2600),
        ta in -60i64..60,
        tb in -60i64..60,
    ) {
        let (mut db, t) = db_from(&rows);
        let idx_a = db.create_index("ia", t, &[0]).unwrap();
        let idx_ab = db.create_index("iab", t, &[0, 1]).unwrap();
        let hits: Vec<(i64, i64, i64)> =
            rows.iter().copied().filter(|&(a, b, _)| a <= ta && b <= tb).collect();
        let mut by_key = hits.clone();
        by_key.sort_by_key(|&(a, b, _)| (a, b)); // stable: rid order within a key
        let cases = [
            (
                PlanSpec::TableScan {
                    table: t,
                    pred: Predicate::all_of(vec![ColRange::at_most(0, ta), ColRange::at_most(1, tb)]),
                    project: Projection::Columns(vec![2, 0]),
                },
                hits.iter().map(|&(a, _, c)| vec![c, a]).collect::<Vec<_>>(),
            ),
            (
                PlanSpec::IndexFetch {
                    scan: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
                    key_filter: Predicate::always_true(),
                    fetch: FetchKind::Improved(ImprovedFetchConfig::default()),
                    residual: Predicate::single(ColRange::at_most(1, tb)),
                    project: Projection::All,
                },
                hits.iter().map(|&(a, b, c)| vec![a, b, c]).collect(),
            ),
            (
                PlanSpec::CoveringIndexScan {
                    scan: IndexRangeSpec { index: idx_ab, range: KeyRange::on_leading(i64::MIN, ta, 2) },
                    residual: Predicate::single(ColRange::at_most(1, tb)),
                    project: Projection::Columns(vec![1]),
                },
                by_key.iter().map(|&(_, b, _)| vec![b]).collect(),
            ),
        ];
        for (plan, want) in &cases {
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            let (stats, got) = run_collect(plan, &ctx, None).unwrap();
            let got: Vec<Vec<i64>> = got.iter().map(|r| r.values().to_vec()).collect();
            prop_assert_eq!(stats.rows_out as usize, want.len(), "{}", plan.synopsis());
            prop_assert_eq!(&got, want, "{}: rows/order", plan.synopsis());
        }
    }

    /// A *triggered* bail never changes the answer: whatever rows the
    /// adaptive executor produces after abandoning the chosen plan
    /// mid-flight, they are exactly the rows either pure plan produces —
    /// the switch affects cost accounting only, never correctness.
    #[test]
    fn triggered_bail_matches_both_pure_plans(
        rows in rows_strategy(),
        ta in -60i64..60,
        tb in -60i64..60,
    ) {
        let (mut db, t) = db_from(&rows);
        let idx_a = db.create_index("ia", t, &[0]).unwrap();
        let idx_b = db.create_index("ib", t, &[1]).unwrap();
        let chosen = PlanSpec::IndexFetch {
            scan: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
            key_filter: Predicate::always_true(),
            fetch: FetchKind::Improved(ImprovedFetchConfig::default()),
            residual: Predicate::single(ColRange::at_most(1, tb)),
            project: Projection::All,
        };
        let fallback = PlanSpec::TableScan {
            table: t,
            pred: Predicate::all_of(vec![ColRange::at_most(0, ta), ColRange::at_most(1, tb)]),
            project: Projection::All,
        };
        let intersect = PlanSpec::IndexIntersect {
            left: IndexRangeSpec { index: idx_a, range: KeyRange::on_leading(i64::MIN, ta, 1) },
            right: IndexRangeSpec { index: idx_b, range: KeyRange::on_leading(i64::MIN, tb, 1) },
            algo: IntersectAlgo::MergeJoin,
            fetch: FetchKind::BitmapSorted,
            residual: Predicate::always_true(),
            project: Projection::All,
        };
        let cases = [
            (&chosen, CheckpointKind::RidFeed),
            (&intersect, CheckpointKind::IntersectOut),
        ];
        for (plan, at) in cases {
            let pure_chosen = {
                let s = Session::with_pool_pages(64);
                let ctx = ExecCtx::new(&db, &s, 1 << 20);
                sorted_rows(run_collect(plan, &ctx, None).unwrap().1)
            };
            let pure_fallback = {
                let s = Session::with_pool_pages(64);
                let ctx = ExecCtx::new(&db, &s, 1 << 20);
                sorted_rows(run_collect(&fallback, &ctx, None).unwrap().1)
            };
            let ctrl = |obs: &Observation| (obs.kind == at).then(|| fallback.clone());
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            let (stats, got) = run_collect(plan, &ctx, Some(&ctrl)).unwrap();
            prop_assert_eq!(stats.switches.len(), 1, "{}: bail must be recorded", plan.synopsis());
            let got = sorted_rows(got);
            prop_assert_eq!(&got, &pure_chosen, "{}: vs chosen plan", plan.synopsis());
            prop_assert_eq!(&got, &pure_fallback, "{}: vs fallback plan", plan.synopsis());
        }
    }

    /// A triggered MDAM bail at a ScanOut milestone: the held-back prefix
    /// is discarded, so the output equals both pure plans exactly (no
    /// duplicated rows).  An empty box never reaches the first milestone,
    /// so no switch can fire there.
    #[test]
    fn triggered_mdam_bail_matches_both_pure_plans(
        rows in rows_strategy(),
        ta in -60i64..60,
        tb in -60i64..60,
    ) {
        let (mut db, t) = db_from(&rows);
        let idx_ab = db.create_index("iab", t, &[0, 1]).unwrap();
        let chosen = PlanSpec::Mdam {
            index: idx_ab,
            col_ranges: vec![(i64::MIN, ta), (i64::MIN, tb)],
            project: Projection::All, // key-column space: (a, b)
        };
        let fallback = PlanSpec::TableScan {
            table: t,
            pred: Predicate::all_of(vec![ColRange::at_most(0, ta), ColRange::at_most(1, tb)]),
            project: Projection::Columns(vec![0, 1]),
        };
        let pure_chosen = {
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            sorted_rows(run_collect(&chosen, &ctx, None).unwrap().1)
        };
        let pure_fallback = {
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            sorted_rows(run_collect(&fallback, &ctx, None).unwrap().1)
        };
        let want_switches = usize::from(!pure_chosen.is_empty());
        let ctrl =
            |obs: &Observation| (obs.kind == CheckpointKind::ScanOut).then(|| fallback.clone());
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let (stats, got) = run_collect(&chosen, &ctx, Some(&ctrl)).unwrap();
        prop_assert_eq!(stats.switches.len(), want_switches);
        let got = sorted_rows(got);
        prop_assert_eq!(&got, &pure_chosen, "vs pure MDAM");
        prop_assert_eq!(&got, &pure_fallback, "vs pure fallback");
    }

    /// Projections commute: projecting in the plan equals projecting the
    /// unprojected output.
    #[test]
    fn projection_commutes(rows in rows_strategy(), ta in -60i64..60) {
        let (db, t) = db_from(&rows);
        let full = PlanSpec::TableScan {
            table: t,
            pred: Predicate::single(ColRange::at_most(0, ta)),
            project: Projection::All,
        };
        let projected = PlanSpec::TableScan {
            table: t,
            pred: Predicate::single(ColRange::at_most(0, ta)),
            project: Projection::Columns(vec![2, 1]),
        };
        let s = Session::with_pool_pages(64);
        let ctx = ExecCtx::new(&db, &s, 1 << 20);
        let (_, rows_full) = run_collect(&full, &ctx, None).unwrap();
        let ctx2 = ExecCtx::new(&db, &s, 1 << 20);
        let (_, rows_proj) = run_collect(&projected, &ctx2, None).unwrap();
        let manual: Vec<Vec<i64>> =
            rows_full.iter().map(|r| vec![r.get(2), r.get(1)]).collect();
        let got: Vec<Vec<i64>> = rows_proj.iter().map(|r| r.values().to_vec()).collect();
        prop_assert_eq!(got, manual);
    }
}

/// A sort-key cell: the full `i64` range (negative keys exercise the sign
/// flip in the sorter's radix key), a handful of values (heavy duplicates,
/// so order falls to the tie pass) and both extremes.
fn key_cell() -> impl Strategy<Value = i64> {
    prop_oneof![any::<i64>(), -3i64..3, Just(i64::MIN), Just(i64::MAX)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sorter's output is `Vec::sort_by` under (key columns, whole
    /// row) — for both spill modes, a leading key that is or is not column
    /// 0, grants that fit the input, spill it once and spill it into more
    /// runs than one merge takes, and lengths on either side of the radix
    /// sort's threshold.
    #[test]
    fn sorter_output_equals_reference_sort(
        pool in prop::collection::vec((key_cell(), key_cell(), -1000i64..1000), 4097),
        n in prop_oneof![Just(4095usize), Just(4096usize), Just(4097usize), 0usize..600],
    ) {
        let rows: Vec<[i64; 3]> = pool[..n].iter().map(|&(a, b, c)| [a, b, c]).collect();
        let (db, _) = db_from(&[]);
        for key_cols in [vec![0], vec![1, 0]] {
            let mut want = rows.clone();
            want.sort_by(|x, y| {
                let key = |r: &[i64; 3]| key_cols.iter().map(|&c| r[c]).collect::<Vec<_>>();
                key(x).cmp(&key(y)).then_with(|| x.cmp(y))
            });
            for mode in [SpillMode::Abrupt, SpillMode::Graceful] {
                // Fits; three or four runs; 25 rows of memory.
                for memory_bytes in [1 << 20, n.max(8) * 80 / 3, 2048] {
                    let s = Session::with_pool_pages(64);
                    let ctx = ExecCtx::new(&db, &s, 1 << 20);
                    let mut sorter = ExternalSorter::new(&ctx, key_cols.clone(), mode, memory_bytes);
                    let mut emitter = BatchEmitter::new(3);
                    for r in &rows {
                        emitter.push_projected_slice(r, &[0, 1, 2], &mut |b| sorter.push(b));
                    }
                    emitter.flush(&mut |b| sorter.push(b));
                    let case = format!("{mode:?}, keys {key_cols:?}, {memory_bytes} bytes, {n} rows");
                    // Abrupt spills the buffer the moment it is full,
                    // Graceful when a row arrives to a full window.
                    let full = sort_capacity_rows(memory_bytes) + usize::from(mode == SpillMode::Graceful);
                    prop_assert_eq!(sorter.spilled(), n >= full, "{}", case);
                    if mode == SpillMode::Abrupt && memory_bytes == 2048 && n >= 4095 {
                        prop_assert!(sorter.run_count() > 64, "{}: {} runs", case, sorter.run_count());
                    }
                    let mut got: Vec<[i64; 3]> = Vec::with_capacity(n);
                    let mut sink = |r: &[i64]| got.push(r.try_into().expect("three columns"));
                    let emitted = sorter.finish(Some(&mut sink));
                    prop_assert_eq!(emitted as usize, n, "{}", case);
                    prop_assert!(got == want, "{}: output is not the reference order", case);
                    // Handed the same rows whole, the sorter charges the
                    // same calls and returns the same order.
                    let whole_s = Session::with_pool_pages(64);
                    let whole_ctx = ExecCtx::new(&db, &whole_s, 1 << 20);
                    let mut whole = PackedRows::default();
                    rows.iter().for_each(|r| whole.push(r));
                    let sorted = ExternalSorter::new(&whole_ctx, key_cols.clone(), mode, memory_bytes).sort_all(whole, &mut Vec::new());
                    prop_assert!(sorted.iter().eq(want.iter().map(|r| &r[..])), "{}: sort_all order", case);
                    prop_assert_eq!(whole_s.stats(), s.stats(), "{}: sort_all charges", case);
                    prop_assert_eq!(whole_s.elapsed_ticks(), s.elapsed_ticks(), "{}: sort_all clock", case);
                }
            }
        }
    }

    /// Hash aggregation equals a reference group-by — and charges what
    /// its overflow discipline says — for no, one, two and three group
    /// columns over the full `i64` range with heavy duplicates, both
    /// modes, and grants from one resident group to all of them.  The
    /// charges are a closed form of the number of partial aggregates
    /// spilled: a hash per input row and per spilled entry, a page written
    /// per 170 entries, the pages read back, and a sort of the groups.
    #[test]
    fn agg_plan_equals_reference(
        rows in prop::collection::vec((key_cell(), key_cell(), key_cell()), 1..400),
        memory_bytes in prop_oneof![Just(128usize), 128usize..8192, 8192usize..(1 << 16)],
    ) {
        use std::collections::{BTreeMap, HashSet};
        let (db, t) = db_from(&rows);
        let scan = PlanSpec::TableScan { table: t, pred: Predicate::always_true(), project: Projection::All };
        let stats_of = |plan: &PlanSpec| {
            let s = Session::with_pool_pages(64);
            let ctx = ExecCtx::new(&db, &s, 1 << 20);
            let (_, got) = run_collect(plan, &ctx, None).unwrap();
            (got, s.stats())
        };
        let (_, scan_stats) = stats_of(&scan);
        for group_cols in [vec![], vec![0], vec![1, 0], vec![0, 1, 2]] {
            let key = |&(a, b, c): &(i64, i64, i64)| -> Vec<i64> { group_cols.iter().map(|&g| [a, b, c][g]).collect() };
            let mut want: BTreeMap<Vec<i64>, [i64; 4]> = BTreeMap::new();
            for row in &rows {
                let e = want.entry(key(row)).or_insert([0, 0, i64::MAX, i64::MIN]);
                *e = [e[0] + 1, e[1].wrapping_add(row.2), e[2].min(row.1), e[3].max(row.1)];
            }
            let max_groups = memory_bytes / 128;
            for mode in [SpillMode::Abrupt, SpillMode::Graceful] {
                // Partial aggregates spilled: a row whose group is neither
                // resident nor admissible, plus — Abrupt — the table it
                // dumps at the first such row and every row after it.
                let (mut resident, mut spilled, mut bypass) = (HashSet::new(), 0u64, false);
                for row in &rows {
                    if bypass || !(resident.contains(&key(row)) || resident.len() < max_groups) {
                        if mode == SpillMode::Abrupt && !bypass {
                            spilled += resident.len() as u64;
                            bypass = true;
                        }
                        spilled += 1;
                    } else {
                        resident.insert(key(row));
                    }
                }
                let plan = PlanSpec::HashAgg {
                    input: Box::new(scan.clone()),
                    group_cols: group_cols.clone(),
                    aggs: vec![AggFn::CountStar, AggFn::Sum(2), AggFn::Min(1), AggFn::Max(1)],
                    mode,
                    memory_bytes,
                };
                let case = format!("{mode:?} by {group_cols:?} under {memory_bytes} B");
                let (got, stats) = stats_of(&plan);
                let got: Vec<Vec<i64>> = got.iter().map(|r| r.values().to_vec()).collect();
                let want_rows: Vec<Vec<i64>> =
                    want.iter().map(|(k, v)| k.iter().chain(v).copied().collect()).collect();
                prop_assert_eq!(got, want_rows, "{}", case);
                let (n, g) = (rows.len() as u64, want.len() as u64);
                let mut expected = scan_stats;
                expected.cpu_hashes += n + spilled;
                expected.page_writes += spilled / 170;
                expected.seq_reads += spilled.div_ceil(170);
                expected.cpu_compares += if g > 1 { g * (64 - (g - 1).leading_zeros()) as u64 } else { 0 };
                expected.cpu_rows += g;
                prop_assert_eq!(stats, expected, "{}: {} spilled", case, spilled);
            }
        }
    }

    /// Transposing a batch into packed rows is the per-row push loop, for
    /// every arity a `Row` can hold, over none, part of one and several
    /// batches, and a batch without rows adds nothing.
    #[test]
    fn extend_from_batch_equals_per_row_push(
        seed in prop::collection::vec(any::<i64>(), 1..64),
        rows in 0usize..(2 * BATCH_ROWS + 100),
        arity in 1usize..=8,
    ) {
        let cells: Vec<i64> =
            (0..rows * arity).map(|i| seed[i % seed.len()].wrapping_add(i as i64)).collect();
        let proj: Vec<usize> = (0..arity).collect();
        let (mut bulk, mut one_by_one) = (PackedRows::default(), PackedRows::default());
        let mut sink = |b: &RowBatch| {
            bulk.extend_from_batch(b);
            for i in 0..b.len() {
                one_by_one.push(b.row(i).values());
            }
        };
        sink(&RowBatch::new(arity));
        let mut emitter = BatchEmitter::new(arity);
        for row in cells.chunks_exact(arity) {
            emitter.push_projected_slice(row, &proj, &mut sink);
        }
        emitter.flush(&mut sink);
        sink(&RowBatch::new(arity));
        prop_assert_eq!(bulk.len(), rows);
        prop_assert_eq!((bulk.len(), bulk.arity()), (one_by_one.len(), one_by_one.arity()));
        for i in 0..bulk.len() {
            prop_assert_eq!(bulk.row(i), one_by_one.row(i));
            prop_assert_eq!(bulk.row(i), &cells[i * arity..(i + 1) * arity]);
        }
    }
}

// ------------------------------------------------------ the row kernel

/// Column values by index: the ends of `i64` and the values around 0, then
/// the small range −4..=3, so a term's bounds land on values rows hold.
const EXTREMES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

fn extreme_value(i: usize) -> i64 {
    EXTREMES.get(i).copied().unwrap_or(i as i64 - EXTREMES.len() as i64 - 4)
}

/// What a filter of one page read: its rows in order, and the live rows,
/// comparisons and selected rows it counted.
type PageReading = (Vec<Row>, u64, u64, u64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `BatchEmitter::filter` over a column page reads what
    /// `Predicate::eval` on each live row in slot order reads — rows and
    /// their order, live count, comparisons — over extreme values, 1–8
    /// columns, 0–4 terms (bounds at `i64::MIN` and `i64::MAX` among them)
    /// and `TRUE`, and tombstones, among them slots 63 and 64 (either side
    /// of a mask word), each page's last slot and every slot of the first
    /// page: a page without a dead slot whole, a holey page whole and under
    /// its own mask, a strict subset of its live slots under theirs, and a
    /// page's live slots listed backwards and twice over.
    #[test]
    fn filter_equals_eval_row_by_row(
        columns in 1usize..=8,
        values in prop::collection::vec(prop::collection::vec(0usize..12, 8), 0..700),
        terms in prop::collection::vec((0usize..8, 0usize..12, 0usize..12), 0..=4),
        deletes in prop::collection::vec(0usize..700, 0..120),
        edges in 0u32..16,
        proj in prop::collection::vec(0usize..8, 0..4),
    ) {
        let schema: Vec<(String, ColumnType)> =
            (0..columns).map(|c| (format!("c{c}"), ColumnType::Int)).collect();
        let schema = Schema::new(schema.iter().map(|(n, t)| (n.as_str(), *t)).collect());
        let mut heap = HeapFile::new(FileId(0), schema);
        let mut rids = Vec::new();
        for row in &values {
            let row: Vec<i64> = row[..columns].iter().map(|&i| extreme_value(i)).collect();
            rids.push(heap.append(&Row::from_slice(&row)).unwrap());
        }
        // Rows fill pages in order, so row `i` is slot `i % per_page`.
        let per_page = heap.rows_per_page();
        let mut dead = deletes.clone();
        let edge = |bit: usize| edges >> bit & 1 == 1;
        dead.extend([63, 64].into_iter().filter(|&at| edge(at - 63)));
        if edge(2) {
            dead.extend((per_page - 1..values.len()).step_by(per_page));
            dead.extend(values.len().checked_sub(1));
        }
        if edge(3) {
            dead.extend(0..per_page);
        }
        for &at in &dead {
            if let Some(&rid) = rids.get(at) {
                let _ = heap.delete(rid); // a repeat finds the slot dead
            }
        }
        let pred = Predicate::all_of(
            terms
                .iter()
                .map(|&(c, lo, hi)| ColRange::between(c % columns, extreme_value(lo), extreme_value(hi)))
                .collect(),
        );
        let proj: Vec<usize> = proj.iter().map(|&c| c % columns).collect();
        for page_no in 0..heap.page_count() {
            let page = heap.resolve(page_no).unwrap();
            let live: Vec<u16> = page.live_slots().map(|s| s as u16).collect();
            let eval = |pred: &Predicate, slots: &[u16]| -> PageReading {
                let s = Session::with_pool_pages(0);
                let rows = slots
                    .iter()
                    .map(|&slot| page.row(u32::from(slot)).unwrap())
                    .filter(|row| pred.eval(row, &s))
                    .map(|row| row.project(&proj))
                    .collect::<Vec<_>>();
                let selected = rows.len() as u64;
                (rows, slots.len() as u64, s.stats().cpu_compares, selected)
            };
            let filter = |pred: &Predicate, records: Records<'_>| -> PageReading {
                let (mut emitter, mut rows) = (BatchEmitter::new(proj.len()), Vec::new());
                let mut sink = |b: &RowBatch| rows.extend((0..b.len()).map(|i| b.row(i)));
                let got = emitter.filter(pred, records, &proj, &mut sink);
                emitter.flush(&mut sink);
                (rows, got.live, got.compares, got.selected)
            };
            // Every other live slot, and (on a holey page) a mask of them.
            let some: Vec<u16> = live.iter().step_by(2).copied().collect();
            let mut some_mask = vec![0u64; page.mask().map_or(0, <[u64]>::len)];
            for &slot in some.iter().filter(|_| page.mask().is_some()) {
                some_mask[usize::from(slot) / 64] |= 1 << (slot % 64);
            }
            for pred in [&pred, &Predicate::always_true()] {
                let want = eval(pred, &live);
                match page.mask() {
                    None => {
                        prop_assert_eq!(filter(pred, Records::Page(page)), want, "page {}", page_no)
                    }
                    Some(mask) => {
                        let n = live.len();
                        let holey = Records::Holey { page, mask, live: n };
                        prop_assert_eq!(filter(pred, holey), want.clone(), "page {} holey", page_no);
                        let masked = Records::Masked { page, mask, live: n };
                        prop_assert_eq!(filter(pred, masked), want, "page {} masked", page_no);
                        let mask = &some_mask[..];
                        let subset = filter(pred, Records::Masked { page, mask, live: some.len() });
                        prop_assert_eq!(subset, eval(pred, &some), "page {} subset", page_no);
                    }
                }
                let listed: Vec<u16> = live.iter().rev().chain(&live).copied().collect();
                let records = Records::Listed { page, slots: &listed };
                prop_assert_eq!(filter(pred, records), eval(pred, &listed), "page {} listed", page_no);
            }
        }
    }
}
