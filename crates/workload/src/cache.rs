//! The workload cache: a built table's heap, kept on disk.
//!
//! [`store`] writes the heap pages of a built [`Workload`] to a
//! content-addressed file; [`load`] reads them back, checks them, and hands
//! the columns to `gen::finish` — the same function that finishes
//! [`crate::TableBuilder::build`] — which sorts three column orders and
//! derives the five indexes and two calibrators from them.  Nothing but the
//! heap is stored, so a loaded workload equals a built one by construction
//! rather than by a second index-construction path, the file is 44 B/row,
//! and a hit costs about what a build costs (`docs/DESIGN.md`, "The
//! workload cache", has the measurements; the benchmark times every set-up
//! through this module).
//!
//! ## Layout and addressing
//!
//! Files live under `target/workload-cache/` at the workspace root (see
//! [`cache_dir`]) and are named `wl-<rows>-<hash>.bin`, where `<hash>` is
//! FNV-1a over the format version and the full [`WorkloadConfig`] — any
//! config or format change addresses a different file.  The stored config
//! is compared on load, so even a hash collision cannot serve the wrong
//! workload.
//!
//! ## Format (version 4, little-endian 64-bit words)
//!
//! ```text
//! magic "RMWLC\x01\0\0" · version · rows · seed · dist tag · dist param ·
//! mutation epoch · heap file id · page count · 8 KiB page images ·
//! FNV-1a checksum of every word above
//! ```
//!
//! A page image is a column page with its live-slot mask
//! (`robustmap_storage::page` has the layout).
//!
//! ## A file that fails validation is a miss
//!
//! [`store`] writes a temp file and renames it into place, so concurrent
//! processes never observe a half-written file.  [`load`] trusts nothing it
//! reads: the checksum, the header against the requested config, the page
//! count against the pages that follow it, every page image against what a
//! page of [`lineitem_schema`] writes, and the row count against the
//! config — any failure is `None`, and [`crate::TableBuilder::build_cached`]
//! rebuilds and overwrites.  Files of older versions are misses, not
//! migrated.
//!
//! ## Environment
//!
//! * `ROBUSTMAP_WORKLOAD_CACHE=<dir>` — use `<dir>` instead of the default;
//! * `ROBUSTMAP_WORKLOAD_CACHE=off` (or `0`) — disable the cache entirely
//!   ([`load`] always misses, [`store`] is a no-op);
//! * the directory has no size budget: it lives under `target/`, and
//!   deleting it is always safe (`rm -rf target/workload-cache`).

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use robustmap_storage::page::PAGE_SIZE;
use robustmap_storage::{Database, HeapFile, Rid};

use crate::gen::{finish, lineitem_schema, PredicateDistribution, Workload, WorkloadConfig};

const MAGIC: &[u8; 8] = b"RMWLC\x01\0\0";
/// Bump on any change that alters what a given [`WorkloadConfig`] produces
/// — not just file-format changes but *generator semantics* too: the
/// distributions in `dist.rs`, row assembly or schema in `gen.rs`, heap
/// page packing.  (Index layout and calibrators are not stored, so they
/// cannot go stale.)  The version is part of the content hash and the
/// header, so a bump makes every old file miss and rebuild.
///
/// Version 4: column pages.  Version 3 stored slotted pages of row-major
/// records; versions 1 and 2 also stored index entries and calibrator
/// values.
const VERSION: u64 = 4;
/// Bytes before the first page image: the magic and eight header words.
const HEADER_BYTES: usize = MAGIC.len() + 8 * 8;

/// The cache directory: `$ROBUSTMAP_WORKLOAD_CACHE` if set (its value
/// `off`/`0` disables caching), else `<workspace>/target/workload-cache`.
pub fn cache_dir() -> Option<PathBuf> {
    match std::env::var("ROBUSTMAP_WORKLOAD_CACHE") {
        Ok(v) if v == "off" || v == "0" => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => {
            let workspace = Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("crates/workload has a workspace root");
            Some(workspace.join("target").join("workload-cache"))
        }
    }
}

/// FNV-1a folded over 64-bit words: the config hash and the file checksum
/// (every file is a whole number of words).  `state` is [`FNV_SEED`], or a
/// checksum so far.
fn fnv1a(state: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(state, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
}

/// The words a configuration is addressed by and a file's header opens with.
fn config_words(config: &WorkloadConfig) -> [u64; 6] {
    let (tag, param) = match config.predicate_dist {
        PredicateDistribution::Permutation => (0, 0),
        PredicateDistribution::Uniform => (1, 0),
        PredicateDistribution::ZipfHundredths(h) => (2, h as u64),
        PredicateDistribution::CorrelatedHundredths(rho) => (3, rho as u64),
    };
    [VERSION, config.rows, config.seed, tag, param, config.mutation_epoch]
}

/// The content hash a configuration is addressed by.
pub fn config_hash(config: &WorkloadConfig) -> u64 {
    fnv1a(FNV_SEED, config_words(config))
}

fn path_in(dir: &Path, config: &WorkloadConfig) -> PathBuf {
    dir.join(format!("wl-{}-{:016x}.bin", config.rows, config_hash(config)))
}

/// The file a configuration would be cached at, or `None` when caching is
/// disabled.
pub fn cache_path(config: &WorkloadConfig) -> Option<PathBuf> {
    cache_dir().map(|dir| path_in(&dir, config))
}

/// Write `w`'s heap into the cache.  No-op when caching is disabled; I/O
/// errors are warned about and otherwise ignored (the cache is an
/// accelerator, not a correctness dependency).
pub fn store(w: &Workload) {
    if let Some(dir) = cache_dir() {
        store_in(&dir, w);
    }
}

fn store_in(dir: &Path, w: &Workload) {
    let heap = &w.db.table(w.table).heap;
    let pages = heap.page_count();
    let mut out = Vec::with_capacity(HEADER_BYTES + pages as usize * PAGE_SIZE + 8);
    out.extend_from_slice(MAGIC);
    for word in config_words(&w.config).into_iter().chain([heap.file_id().0 as u64, pages as u64]) {
        out.extend_from_slice(&word.to_le_bytes());
    }
    for p in 0..pages {
        heap.write_image(p, &mut out);
    }
    let checksum = fnv1a(FNV_SEED, words(&out));
    out.extend_from_slice(&checksum.to_le_bytes());

    // The temp name is unique per *call*, not just per process: threads of
    // one test binary can miss on the same config concurrently, and a
    // shared temp path would interleave their writes before one rename
    // installs the mixed-content file.
    static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path_in(dir, &w.config);
    let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    let installed = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&tmp, &out))
        .and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = installed {
        robustmap_obs::warn!("workload cache: could not write {}: {e}", path.display());
        let _ = std::fs::remove_file(&tmp);
    }
}

/// The workload for `config` from its cached heap, or `None` on a miss (no
/// file, caching disabled, or a file that fails validation).
pub fn load(config: &WorkloadConfig) -> Option<Workload> {
    load_from(&cache_dir()?, config)
}

fn load_from(dir: &Path, config: &WorkloadConfig) -> Option<Workload> {
    let heap = read_heap(&path_in(dir, config), config)?;
    // Columns a, b, c and the rids, copied out of the pages.
    let rows = heap.row_count() as usize;
    let mut cols: [Vec<i64>; 3] = std::array::from_fn(|_| Vec::with_capacity(rows));
    let mut rids = Vec::with_capacity(rows);
    for (page_no, page) in heap.resolve_range(0..heap.page_count()) {
        match page.mask() {
            None => {
                for (col, vals) in cols.iter_mut().enumerate() {
                    vals.extend_from_slice(page.column(col));
                }
                rids.extend((0..page.slot_count() as u32).map(|slot| Rid::new(page_no, slot)));
            }
            Some(_) => {
                for slot in page.live_slots() {
                    for (col, vals) in cols.iter_mut().enumerate() {
                        vals.push(page.column(col)[slot as usize]);
                    }
                    rids.push(Rid::new(page_no, slot));
                }
            }
        }
    }
    let mut db = Database::new();
    let table = db.attach_table("lineitem", heap);
    Some(finish(config.clone(), db, table, &cols, &rids))
}

/// The heap the file at `path` holds, if the file is one [`store`] wrote
/// for `config`.  Pages are read straight into place, one at a time, so the
/// file is never held whole beside the table, and nothing read from it
/// sizes an allocation.
fn read_heap(path: &Path, config: &WorkloadConfig) -> Option<HeapFile> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header).ok()?;
    let mut checksum = fnv1a(FNV_SEED, words(&header));
    let (magic, fields) = header.split_at(MAGIC.len());
    let mut fields = words(fields);
    if magic != MAGIC || !config_words(config).iter().all(|&w| fields.next() == Some(w)) {
        return None; // another version, or another configuration
    }
    // The file id a fresh database gives its first table, as `build` does.
    let file_id = Database::new().alloc_file();
    if fields.next()? != file_id.0 as u64 {
        return None;
    }
    // The count bounds the loop only: a count past the file ends at the
    // first short read, and one short of it at the checksum.
    let mut heap = HeapFile::new(file_id, lineitem_schema());
    let mut image = [0u8; PAGE_SIZE];
    for _ in 0..fields.next()? {
        file.read_exact(&mut image).ok()?;
        checksum = fnv1a(checksum, words(&image));
        heap.push_image(&image)?;
    }
    let mut tail = Vec::new();
    file.take(9).read_to_end(&mut tail).ok()?;
    if tail != checksum.to_le_bytes() {
        return None; // truncated, extended or corrupt
    }
    (heap.row_count() == config.rows).then_some(heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TableBuilder;

    /// A directory of this test's own.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("robustmap-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips_and_leaves_one_file() {
        let dir = temp_dir("roundtrip");
        let config = WorkloadConfig::small();
        assert!(load_from(&dir, &config).is_none(), "an empty directory is a miss");
        let built = TableBuilder::build(config.clone());
        store_in(&dir, &built);
        let loaded = load_from(&dir, &config).expect("hit after store");
        assert_eq!((loaded.rows(), loaded.heap_pages()), (built.rows(), built.heap_pages()));
        assert_eq!(loaded.config, built.config);
        assert_eq!(loaded.indexes, built.indexes);
        for (id, def) in built.db.indexes_on(built.table) {
            assert_eq!(def.tree.collect_all(), loaded.db.index(id).tree.collect_all());
        }
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, [path_in(&dir, &config).file_name().unwrap()], "no temp file is left");
        // 8 KiB pages of 186 rows: the heap and nothing else.
        let bytes = std::fs::metadata(path_in(&dir, &config)).unwrap().len();
        assert!(bytes <= 48 * config.rows, "{bytes} bytes for {} rows", config.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_files_miss() {
        let dir = temp_dir("corrupt");
        let config = WorkloadConfig::small();
        store_in(&dir, &TableBuilder::build(config.clone()));
        let path = path_in(&dir, &config);

        // A different config misses even with a file present.
        let other = WorkloadConfig { seed: config.seed ^ 1, ..config.clone() };
        assert!(load_from(&dir, &other).is_none());
        // ... and so does this config's file sitting at the other's path.
        std::fs::copy(&path, path_in(&dir, &other)).unwrap();
        assert!(load_from(&dir, &other).is_none());

        // Flip a payload byte: checksum rejects.
        let mut data = std::fs::read(&path).unwrap();
        data[HEADER_BYTES + 3] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        assert!(load_from(&dir, &config).is_none());
        // Truncate, to a whole and to a ragged number of words: rejected.
        for keep in [data.len() / 2, data.len() / 2 + 3, 7, 0] {
            std::fs::write(&path, &data[..keep]).unwrap();
            assert!(load_from(&dir, &config).is_none(), "truncated to {keep} bytes");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one test that mutates the process environment.  The only other
    /// reader of the variable in this test binary (`stats_maint`'s epoch
    /// test, through [`cache_path`]) holds whatever it reads.
    #[test]
    fn the_variable_names_the_directory_or_disables_the_cache() {
        let var = "ROBUSTMAP_WORKLOAD_CACHE";
        let before = std::env::var_os(var);
        let config = WorkloadConfig::small();

        std::env::remove_var(var);
        let default = cache_dir().expect("enabled by default");
        assert!(default.ends_with("target/workload-cache"), "{}", default.display());

        let dir = temp_dir("env");
        std::env::set_var(var, &dir);
        assert_eq!(cache_dir().as_deref(), Some(dir.as_path()));
        assert_eq!(cache_path(&config), Some(path_in(&dir, &config)));
        store(&TableBuilder::build(config.clone()));
        assert!(load(&config).is_some(), "the public pair resolves the variable");

        for off in ["off", "0"] {
            std::env::set_var(var, off);
            assert!(cache_dir().is_none() && cache_path(&config).is_none());
            store(&TableBuilder::build(config.clone()));
            assert!(load(&config).is_none(), "{off:?} disables the cache");
        }
        match before {
            Some(v) => std::env::set_var(var, v),
            None => std::env::remove_var(var),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_hash_separates_configs() {
        let base = WorkloadConfig::small();
        let dist = |d| WorkloadConfig { predicate_dist: d, ..base.clone() };
        let hashes = [
            base.clone(),
            WorkloadConfig { seed: base.seed + 1, ..base.clone() },
            WorkloadConfig { rows: base.rows * 2, ..base.clone() },
            WorkloadConfig { mutation_epoch: 1, ..base.clone() },
            dist(PredicateDistribution::Uniform),
            dist(PredicateDistribution::ZipfHundredths(110)),
            dist(PredicateDistribution::CorrelatedHundredths(75)),
            dist(PredicateDistribution::CorrelatedHundredths(50)),
        ]
        .map(|c| config_hash(&c));
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "{i} vs {j}");
            }
        }
    }
}
