//! The workload cache's correctness contract: a cache-hit workload and a
//! freshly generated one are indistinguishable — not just row-for-row,
//! but *measurement*-for-measurement.  Robustness maps built from both
//! must be identical cell-for-cell, because the cache round-trips heap
//! pages byte-for-byte and the loaded workload's indexes and calibrators
//! come out of the same function that finishes a build (see
//! `crates/workload/src/cache.rs` and `docs/DESIGN.md`).  The other half of
//! the contract: a file that fails validation is a miss, never a panic,
//! and the next `build_cached` replaces it.  And the function both sides
//! end in is held to the reference sort of every index and calibrator.
//!
//! Every test here owns its configuration (a seed no other test uses), so
//! they share the cache directory without sharing a file, and none touches
//! the process environment.

use std::path::Path;

use robustmap::core::{build_map1d, build_map2d, Grid1D, Grid2D, MeasureConfig};
use robustmap::storage::radix::{RADIX_MIN, RADIX_MSD_MIN_BYTES};
use robustmap::storage::{Key, Rid, Session};
use robustmap::systems::{
    single_predicate_plans, two_predicate_plans, SinglePredPlanSet, SystemId,
};
use robustmap::workload::cache;
use robustmap::workload::gen::{PredicateDistribution, COL_A, COL_B};
use robustmap::workload::{ChurnConfig, ChurnDriver, TableBuilder, Workload, WorkloadConfig};

fn config_of(seed: u64, predicate_dist: PredicateDistribution) -> WorkloadConfig {
    WorkloadConfig { rows: 1 << 12, seed, predicate_dist, mutation_epoch: 0 }
}

fn private_config() -> WorkloadConfig {
    config_of(0xD15E_A5ED_CAFE, PredicateDistribution::Permutation)
}

fn maps_of(w: &Workload, threads: usize) -> (robustmap::core::Map1D, robustmap::core::Map2D) {
    let cfg = MeasureConfig { threads, ..Default::default() };
    let plans1 = single_predicate_plans(SinglePredPlanSet::WithIndexJoins, w);
    let map1 = build_map1d(w, &plans1, &Grid1D::pow2(4), &cfg);
    let plans2: Vec<_> =
        SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect();
    let map2 = build_map2d(w, &plans2, &Grid2D::pow2(3), &cfg);
    (map1, map2)
}

fn heap_images(w: &Workload) -> Vec<Vec<u8>> {
    let heap = &w.db.table(w.table).heap;
    let image = |p| {
        let mut image = Vec::new();
        heap.write_image(p, &mut image);
        image
    };
    (0..heap.page_count()).map(image).collect()
}

#[test]
fn cache_hit_measures_identically_to_fresh_build() {
    let config = private_config();
    let fresh = TableBuilder::build(config.clone());
    cache::store(&fresh);
    let Some(path) = cache::cache_path(&config) else {
        // Caching disabled in this environment (ROBUSTMAP_WORKLOAD_CACHE=off):
        // nothing to compare against.
        return;
    };
    assert!(path.exists(), "store must have written {}", path.display());
    let loaded = cache::load(&config).expect("stored workload must load");

    // Same maps, whichever workload and whichever thread count built them.
    let (fresh1, fresh2) = maps_of(&fresh, 1);
    for threads in [1, 4] {
        let (hit1, hit2) = maps_of(&loaded, threads);
        assert_eq!(fresh1, hit1, "1-D map diverged (threads={threads})");
        assert_eq!(fresh2, hit2, "2-D map diverged (threads={threads})");
    }

    // And a second fresh build agrees too (generation itself is
    // deterministic; the cache adds no wobble on either side).
    let rebuilt = TableBuilder::build(config);
    let (re1, re2) = maps_of(&rebuilt, 1);
    assert_eq!(fresh1, re1);
    assert_eq!(fresh2, re2);

    let _ = std::fs::remove_file(path);
}

#[test]
fn built_and_loaded_agree_for_every_distribution() {
    // Everything a plan or a measurement can observe of a workload, for
    // each family of predicate columns: a loaded workload is the built one.
    for (i, dist) in [
        PredicateDistribution::Permutation,
        PredicateDistribution::Uniform,
        PredicateDistribution::ZipfHundredths(110),
        PredicateDistribution::CorrelatedHundredths(60),
    ]
    .into_iter()
    .enumerate()
    {
        let config = config_of(0xA11D_1570 + i as u64, dist);
        let built = TableBuilder::build(config.clone());
        cache::store(&built);
        let Some(path) = cache::cache_path(&config) else { return };
        let loaded = cache::load(&config).expect("stored workload must load");

        assert_eq!(heap_images(&built), heap_images(&loaded), "{dist:?}: heap pages");
        assert_eq!(built.indexes, loaded.indexes, "{dist:?}: index ids");
        for (id, def) in built.db.indexes_on(built.table) {
            let (t1, t2) = (&def.tree, &loaded.db.index(id).tree);
            assert_eq!(def.name, loaded.db.index(id).name);
            assert_eq!(t1.collect_all(), t2.collect_all(), "{dist:?}: {} entries", def.name);
            assert_eq!(t1.height(), t2.height(), "{dist:?}: {} height", def.name);
            assert_eq!(t1.node_count(), t2.node_count(), "{dist:?}: {} nodes", def.name);
            assert_eq!(t1.file_id(), t2.file_id(), "{dist:?}: {} file id", def.name);
            t2.check_invariants().unwrap();
        }
        for exp in 0..=12 {
            let sel = 0.5f64.powi(exp);
            for (c1, c2) in [(&built.cal_a, &loaded.cal_a), (&built.cal_b, &loaded.cal_b)] {
                assert_eq!(
                    c1.threshold_with_count(sel),
                    c2.threshold_with_count(sel),
                    "{dist:?}: threshold at 2^-{exp}"
                );
            }
        }
        assert_eq!(built.db.temp_file_base(), loaded.db.temp_file_base(), "{dist:?}");
        // Figure 1's plans and System A's catalog are among these maps'.
        let reference = maps_of(&built, 1);
        for threads in [1, 2] {
            assert_eq!(reference, maps_of(&loaded, threads), "{dist:?}, {threads} threads");
        }
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn finished_indexes_and_calibrators_equal_the_reference_sort() {
    // Built and loaded workloads both come out of `gen::finish`, so the test
    // above cannot see a wrong order.  This one holds every finished tree to
    // a comparison sort of `(Key, Rid)` over the heap — what
    // `Database::create_index` does — and every calibrator to a sorted copy
    // of its column, on both sides of each of the radix sort's cut-overs
    // (the MSD pass's counted in the one `u64` a row `finish` sorts).  At
    // the MSD cut-over, seconds a build in a debug run, the permutation
    // column stands for the rest: duplicates across the cut-over are
    // `radix.rs`'s and `order_by`'s unit tests' to cover.
    let radix_min = RADIX_MIN as u64;
    let msd_min = (RADIX_MSD_MIN_BYTES / 8) as u64;
    for dist in [
        PredicateDistribution::Permutation,
        PredicateDistribution::Uniform,
        PredicateDistribution::ZipfHundredths(110),
        PredicateDistribution::CorrelatedHundredths(60),
    ] {
        let msd = [msd_min - 1, msd_min, msd_min + 1];
        let msd = if dist == PredicateDistribution::Permutation { &msd[..] } else { &[] };
        for &rows in [4, 5, radix_min - 1, radix_min, radix_min + 1, 1 << 14].iter().chain(msd) {
            let w = TableBuilder::build(WorkloadConfig { rows, ..config_of(0x0DE5_0000 + rows, dist) });
            let mut heap = Vec::new();
            w.db.table(w.table).heap.scan(&Session::with_pool_pages(0), |rid, row| {
                heap.push((rid, row.values().to_vec()))
            });
            for (_, def) in w.db.indexes_on(w.table) {
                let mut want: Vec<(Key, Rid)> = heap
                    .iter()
                    .map(|(rid, vals)| {
                        let key: Vec<i64> = def.key_columns.iter().map(|&c| vals[c]).collect();
                        (Key::new(&key), *rid)
                    })
                    .collect();
                want.sort_unstable();
                let what = format!("{dist:?}, {rows} rows, {}", def.name);
                assert!(def.tree.collect_all() == want, "{what}: entries out of order");
                def.tree.check_invariants().unwrap_or_else(|e| panic!("{what}: {e}"));
            }
            for (cal, col) in [(&w.cal_a, COL_A), (&w.cal_b, COL_B)] {
                let mut sorted: Vec<i64> = heap.iter().map(|(_, vals)| vals[col]).collect();
                sorted.sort_unstable();
                for sel in (0..=16).map(|e| 0.5f64.powi(e)).chain([0.0, 0.3, 0.7]) {
                    let target = (sel * rows as f64).round() as usize;
                    let t = if target == 0 { i64::MIN } else { sorted[target - 1] };
                    let count = sorted.partition_point(|&v| v <= t) as u64;
                    assert_eq!(
                        cal.threshold_with_count(sel),
                        (t, count),
                        "{dist:?}, {rows} rows, column {col} at selectivity {sel}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_tree_keeps_its_invariants_through_churn_that_merges_nodes() {
    // The test above checks trees as `finish` bulk-loads them; churn then
    // splits and merges their nodes, and a merge releases a page to the
    // tree's free list.  Six delete-heavy batches take the table from
    // 4 096 rows to about 1 000 and each tree from 19 nodes to 7 or 8;
    // after each batch every tree must still be well formed and account
    // for every page it handed out.
    let mut w = TableBuilder::build(config_of(0x3E26_ED00, PredicateDistribution::Permutation));
    let churn = ChurnConfig { insert_pct: 10, delete_pct: 60, ..ChurnConfig::for_workload(&w) };
    let mut driver = ChurnDriver::new(&w, churn);
    let session = Session::with_pool_pages(64);
    let nodes = |w: &Workload| -> Vec<usize> {
        w.db.indexes_on(w.table).map(|(_, def)| def.tree.node_count()).collect()
    };
    let mut merged = [false; 5];
    for batch in 0..6 {
        let before = nodes(&w);
        driver.apply_batch(&mut w, &session);
        for (_, def) in w.db.indexes_on(w.table) {
            def.tree
                .check_invariants()
                .unwrap_or_else(|e| panic!("batch {batch}, {}: {e}", def.name));
        }
        for (merged, (after, before)) in merged.iter_mut().zip(nodes(&w).into_iter().zip(before)) {
            *merged |= after < before;
        }
    }
    assert_eq!(merged, [true; 5], "every tree released pages");
}

#[test]
fn correlated_column_survives_the_cache_bit_identically() {
    // `dist::Correlated` draws are a pure function of (seed, row) — not of
    // generation call order — so a correlated workload must round-trip the
    // cache with byte-identical heap pages and rebuild identically from
    // scratch.  (A call-order-dependent generator would pass neither under
    // reordering; this pins the purity fix.)
    let config = config_of(0xC0_55E1A7ED, PredicateDistribution::CorrelatedHundredths(60));
    let fresh = TableBuilder::build(config.clone());
    cache::store(&fresh);
    let Some(path) = cache::cache_path(&config) else { return };
    assert!(path.exists(), "store must have written {}", path.display());
    let loaded = cache::load(&config).expect("stored workload must load");
    let rebuilt = TableBuilder::build(config);

    assert_eq!(heap_images(&fresh), heap_images(&loaded), "cache round-trip diverged");
    assert_eq!(heap_images(&fresh), heap_images(&rebuilt), "rebuild diverged");
    // The measurement contract holds for the correlated family too.
    let (fresh1, fresh2) = maps_of(&fresh, 1);
    let (hit1, hit2) = maps_of(&loaded, 4);
    assert_eq!(fresh1, hit1);
    assert_eq!(fresh2, hit2);

    let _ = std::fs::remove_file(path);
}

#[test]
fn build_cached_roundtrips_through_the_cache() {
    let mut config = private_config();
    config.seed ^= 1; // own cache file, distinct from the test above
    let Some(path) = cache::cache_path(&config) else { return };
    let _ = std::fs::remove_file(&path);

    // Miss: builds and stores heap pages (44 B/row) and nothing else.
    let first = TableBuilder::build_cached(config.clone());
    let bytes = std::fs::metadata(&path).expect("miss must populate the cache").len();
    assert!(bytes <= 64 * config.rows, "{} holds {bytes} bytes, over 64 B/row", path.display());
    // Hit: loads the stored bytes.
    let second = TableBuilder::build_cached(config);
    assert_eq!(first.rows(), second.rows());
    let (m1a, m1b) = maps_of(&first, 1);
    let (m2a, m2b) = maps_of(&second, 1);
    assert_eq!(m1a, m2a);
    assert_eq!(m1b, m2b);

    let _ = std::fs::remove_file(path);
}

#[test]
fn a_churned_table_is_never_served_as_its_pristine_config() {
    // A table mutated in place still describes itself by the configuration
    // it was generated from; only the mutation epoch tells the two apart.
    // It is part of the file name and of the header, so the churned table
    // is stored beside the pristine file, not over it, and its bytes do not
    // load for the pristine configuration even when put in its place.
    let pristine = config_of(0x9015_0A7CE, PredicateDistribution::CorrelatedHundredths(70));
    let Some(pristine_path) = cache::cache_path(&pristine) else { return };
    let mut w = TableBuilder::build(pristine.clone());
    cache::store(&w);
    let stored = std::fs::read(&pristine_path).unwrap();
    let images = heap_images(&w);

    let mut driver = ChurnDriver::new(&w, ChurnConfig::for_workload(&w).with_drift_down(85));
    driver.apply_until_fraction(&mut w, &Session::with_pool_pages(64), 0.3);
    assert!(w.config.mutation_epoch > 0, "churn must bump the mutation epoch");
    let churned_path = cache::cache_path(&w.config).unwrap();
    assert_ne!(churned_path, pristine_path, "a churned table must address its own file");

    cache::store(&w);
    assert!(churned_path.exists());
    assert_eq!(std::fs::read(&pristine_path).unwrap(), stored, "the pristine file is untouched");
    let hit = cache::load(&pristine).expect("the pristine file still loads");
    assert_eq!(heap_images(&hit), images, "and holds the table as generated");

    std::fs::copy(&churned_path, &pristine_path).unwrap();
    assert!(cache::load(&pristine).is_none(), "churned bytes at the pristine path are a miss");
    let rebuilt = TableBuilder::build_cached(pristine.clone());
    assert_eq!(heap_images(&rebuilt), images);
    assert_eq!(std::fs::read(&pristine_path).unwrap(), stored, "and the miss was repaired");

    let _ = std::fs::remove_file(pristine_path);
    let _ = std::fs::remove_file(churned_path);
}

#[test]
fn two_threads_missing_on_one_config_agree_and_leave_one_valid_file() {
    let config = config_of(0x27EA_50FF, PredicateDistribution::Uniform);
    let Some(path) = cache::cache_path(&config) else { return };
    let _ = std::fs::remove_file(&path);
    // `build_cached`'s miss path with the interleaving forced: neither
    // thread stores before both have missed, and both store at once.
    let gate = std::sync::Barrier::new(2);
    let miss = || {
        assert!(cache::load(&config).is_none(), "both threads must miss");
        gate.wait();
        let w = TableBuilder::build(config.clone());
        gate.wait();
        cache::store(&w);
        w
    };
    let (w1, w2) = std::thread::scope(|scope| {
        let other = scope.spawn(miss);
        (miss(), other.join().expect("the second thread finished"))
    });
    assert_eq!(heap_images(&w1), heap_images(&w2));
    assert_eq!(maps_of(&w1, 1), maps_of(&w2, 1));

    let loaded = cache::load(&config).expect("the file both stored is valid");
    assert_eq!(heap_images(&loaded), heap_images(&w1));
    let prefix = path.file_stem().unwrap().to_string_lossy().into_owned();
    let ours: Vec<_> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect();
    assert_eq!(ours, [path.file_name().unwrap().to_string_lossy()], "no temp file is left");
    let _ = std::fs::remove_file(path);
}

// ------------------------------------------------- files that must not load

/// Byte offsets of the version-4 layout: an 8-byte magic, eight header
/// words (version, rows, seed, distribution tag and parameter, mutation
/// epoch, heap file id, page count), then 8 KiB page images; a page opens
/// with its slot count, then three words of live-slot mask for its 186
/// slots, then its five columns of 186 values each.
const VERSION_AT: usize = 8;
const PAGE_COUNT_AT: usize = 64;
const PAGES_AT: usize = 72;
const MASK_AT: usize = PAGES_AT + 8;
const COLUMNS_END_AT: usize = MASK_AT + 3 * 8 + 5 * 186 * 8;

/// Recompute the trailing checksum — FNV-1a over little-endian 64-bit
/// words, written here a second time on purpose — so a crafted file gets
/// past it and has to be caught by the check the test is about.
fn reseal(file: &mut [u8]) {
    let (body, tail) = file.split_at_mut(file.len() - 8);
    let sum = body.chunks_exact(8).fold(0xcbf2_9ce4_8422_2325u64, |h, word| {
        (h ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(0x100_0000_01b3)
    });
    tail.copy_from_slice(&sum.to_le_bytes());
}

/// `valid` with `edit` applied, under a correct checksum.
fn crafted(valid: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut file = valid.to_vec();
    edit(&mut file);
    reseal(&mut file);
    file
}

fn put_u64(file: &mut [u8], at: usize, v: u64) {
    file[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// `bad` at the configuration's path is a miss, and the next `build_cached`
/// leaves the file a build stores there.
fn assert_miss_then_repair(what: &str, path: &Path, config: &WorkloadConfig, bad: &[u8], valid: &[u8]) {
    std::fs::write(path, bad).unwrap();
    assert!(cache::load(config).is_none(), "{what}: must be a miss");
    let rebuilt = TableBuilder::build_cached(config.clone());
    assert_eq!(rebuilt.rows(), config.rows, "{what}");
    assert!(std::fs::read(path).unwrap() == valid, "{what}: the miss must overwrite the file");
    assert!(cache::load(config).is_some(), "{what}: the repaired file loads");
}

#[test]
fn files_that_fail_validation_are_misses_and_are_rebuilt() {
    let config = config_of(0xBADF_11E5, PredicateDistribution::Permutation);
    let Some(path) = cache::cache_path(&config) else { return };
    cache::store(&TableBuilder::build(config.clone()));
    let valid = std::fs::read(&path).unwrap();
    assert_eq!(crafted(&valid, |_| {}), valid, "the test's checksum is the cache's");

    let cases: Vec<(&str, Vec<u8>)> = vec![
        // A count from the file must not size an allocation, and must
        // agree with the pages that follow it.
        ("page count far past the file", crafted(&valid, |f| {
            f[PAGE_COUNT_AT..PAGE_COUNT_AT + 8].copy_from_slice(&(1u64 << 40).to_le_bytes())
        })),
        ("page count of u64::MAX", crafted(&valid, |f| {
            f[PAGE_COUNT_AT..PAGE_COUNT_AT + 8].copy_from_slice(&u64::MAX.to_le_bytes())
        })),
        ("one page fewer than counted", crafted(&valid, |f| {
            f.drain(PAGES_AT..PAGES_AT + 8192);
        })),
        ("one page more than counted", crafted(&valid, |f| {
            let page = f[PAGES_AT..PAGES_AT + 8192].to_vec();
            f.splice(PAGES_AT..PAGES_AT, page);
        })),
        // A page image must be one a lineitem page writes.
        ("slot count past the page's capacity", crafted(&valid, |f| put_u64(f, PAGES_AT, 187))),
        ("a live bit past the slot count", crafted(&valid, |f| put_u64(f, MASK_AT + 16, 1 << 58))),
        ("a word past the columns", crafted(&valid, |f| put_u64(f, COLUMNS_END_AT, 1))),
        // The rows present must be the rows configured.
        ("a tombstoned row", crafted(&valid, |f| put_u64(f, MASK_AT, !1))),
        ("an unknown format version", crafted(&valid, |f| f[VERSION_AT] += 1)),
        ("version 3, of slotted pages", crafted(&valid, |f| put_u64(f, VERSION_AT, 3))),
        ("truncated", valid[..valid.len() / 2].to_vec()),
        ("empty", Vec::new()),
        ("one flipped byte", {
            let mut f = valid.clone();
            f[PAGES_AT + 4000] ^= 0x40;
            f
        }),
    ];
    for (what, bad) in &cases {
        assert_miss_then_repair(what, &path, &config, bad, &valid);
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_version_2_file_is_a_miss_and_is_replaced() {
    // Version 2 opened with the same magic and went straight to the config
    // words, then the heap, five index sections and two calibrator
    // sections.  Old files are not migrated: one sitting at a version-3
    // path (a hand-copied directory, a hash collision) reads as a header
    // mismatch, whatever follows.
    let config = config_of(0x01DF_02A7, PredicateDistribution::Permutation);
    let Some(path) = cache::cache_path(&config) else { return };
    let built = TableBuilder::build(config.clone());
    cache::store(&built);
    let valid = std::fs::read(&path).unwrap();

    let mut v2 = valid[..VERSION_AT].to_vec();
    for word in [config.rows, config.seed, 0, 0, config.mutation_epoch] {
        v2.extend_from_slice(&word.to_le_bytes());
    }
    v2.extend_from_slice(&valid[PAGE_COUNT_AT - 8..valid.len() - 8]); // file id, count, pages
    v2.extend_from_slice(&5u64.to_le_bytes()); // "five index sections follow"
    v2.extend_from_slice(&[0; 8]);
    reseal(&mut v2);
    assert_miss_then_repair("version 2", &path, &config, &v2, &valid);
    let _ = std::fs::remove_file(path);
}
