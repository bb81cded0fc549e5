//! The source rules: what the code must not regrow beside the one
//! implementation that replaced it, and where run-time conditions may not
//! come from.  A rule is a scope (files or directories under the repository
//! root, `*` standing for every directory at that level; `target`
//! directories are never read), the lines of each file it reads, and a line
//! pattern matched by substring or by identifier.  A rule forbids every
//! match, or wants exactly as many as it says — which is how the panic
//! ratchet pins each crate's count of lines that may panic.  Two more rules
//! read across files: every test or function name `README.md` and the
//! `docs/*.md` cite is an `fn` of the workspace, and every repository path
//! they cite exists.  Each failure names the rule, the file and the line.

use std::path::Path;

/// Which lines of a file a rule reads.
#[derive(Clone, Copy)]
enum Lines {
    All,
    /// The lines above the first one starting with the prefix.
    Before(&'static str),
    /// Only the block from a line containing `.0` through the next line
    /// starting with `.1`.
    Inside(&'static str, &'static str),
    /// Every line but such a block.
    Outside(&'static str, &'static str),
}

struct Rule {
    gate: &'static str,
    scope: &'static [&'static str],
    /// Files and directories inside `scope` the rule does not read.
    skip: &'static [&'static str],
    lines: Lines,
    hit: fn(&str) -> bool,
    /// How many lines of the scope must match: 0 forbids the pattern.
    want: usize,
    why: &'static str,
}

const RULE: Rule = Rule {
    gate: "",
    scope: &[],
    skip: &[],
    lines: Lines::All,
    hit: |_| false,
    want: 0,
    why: "",
};

fn any(line: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| line.contains(n))
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers (maximal runs of word characters) of a line.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_word(c)).filter(|t| !t.is_empty())
}

/// A function whose name ends in `_batched`.
fn defines_batched(line: &str) -> bool {
    line.match_indices("fn ").any(|(at, _)| {
        let rest = &line[at + 3..];
        let name = &rest[..rest.find(|c| !is_word(c)).unwrap_or(rest.len())];
        name.len() > "_batched".len() && name.ends_with("_batched")
    })
}

/// A `static` item, `pub` or `pub(..)` or private.
fn declares_static(line: &str) -> bool {
    line.trim_start().split_once("static ").is_some_and(|(head, _)| {
        head.is_empty() || head == "pub " || (head.starts_with("pub(") && head.ends_with(") "))
    })
}

fn defines_radix_sort(line: &str) -> bool {
    defined_fns(line).any(|name| name == "radix_sort_by_u64_key")
}

fn is_figure_id(t: &str) -> bool {
    let all = |rest: &str, ok: fn(u8) -> bool| !rest.is_empty() && rest.bytes().all(ok);
    t == "legends"
        || t.strip_prefix("fig").is_some_and(|d| all(d, |b| b.is_ascii_digit()))
        || t.strip_prefix("ext_").is_some_and(|r| all(r, |b| b.is_ascii_lowercase() || b == b'_'))
}

/// A line that reads a `CostModel` price field: `.` and the field's name,
/// not the start of a longer name (`.cpu_rows` is a counter).
fn reads_a_price(line: &str) -> bool {
    const PRICES: [&str; 8] = [
        "seq_page_read",
        "single_page_read",
        "random_page_read",
        "page_write",
        "cpu_row",
        "cpu_compare",
        "cpu_hash",
        "cpu_buffer_hit",
    ];
    PRICES.iter().any(|price| {
        line.match_indices(price).any(|(at, _)| {
            line[..at].ends_with('.') && !line[at + price.len()..].starts_with(is_word)
        })
    })
}

const RULES: &[Rule] = &[
    Rule {
        gate: "one-interpreter",
        scope: &["crates/executor/src"],
        hit: |l| defines_batched(l) || idents(l).any(|t| t.len() > 8 && t.starts_with("execute_")),
        why: "the executor defines a *_batched function or names an execute_* entry point — \
              there is one interpreter, exec::run",
        ..RULE
    },
    Rule {
        gate: "one-scheduler",
        scope: &["crates/core/src/serve.rs"],
        hit: |l| l.contains("mpsc"),
        why: "core::serve names mpsc — the hub-and-spoke scheduler is gone, not kept beside \
              the baton",
        ..RULE
    },
    Rule {
        gate: "integer-clock",
        scope: &["crates/storage/src/sim.rs"],
        hit: |l| l.contains("Cell<f64>"),
        why: "the clock holds a Cell<f64> — it is u64 picoseconds; seconds exist only where \
              they are read",
        ..RULE
    },
    Rule {
        gate: "integer-clock",
        scope: &["tests/common"],
        hit: |l| l.contains("to_bits"),
        why: "tests/common compares float bits — the equivalence suites compare clock ticks \
              with ==",
        ..RULE
    },
    Rule {
        gate: "integer-clock",
        scope: &["crates/obs/src", "crates/storage/src"],
        hit: |l| {
            any(l, &[
                "TraceSink::Null",
                "fn is_enabled",
                "sim: f64",
                "struct MemorySink",
                "struct TraceHandle",
            ])
        },
        why: "a second sink, a second spelling of untraced, or a float time stamp — a \
              TraceSink is one struct, None is the off switch, events carry u64 ticks",
        ..RULE
    },
    Rule {
        gate: "integer-clock",
        scope: &["crates/obs/src/trace.rs"],
        lines: Lines::Inside("fn emit(", "    }"),
        hit: |l| l.contains("metrics"),
        why: "TraceSink::emit names metrics — emit is timestamp, lock, push; metrics() folds \
              the recorded events when asked",
        ..RULE
    },
    Rule {
        gate: "heap-only cache",
        scope: &["crates/workload/src"],
        hit: |l| any(l, &["WORKLOAD_CACHE_BUDGET", "jstats", "prune_to_budget"]),
        why: "the workload cache regrew its size budget or the statistics cache",
        ..RULE
    },
    Rule {
        gate: "heap-only cache",
        scope: &["crates/workload/src/cache.rs"],
        lines: Lines::Before("#[cfg(test)]"),
        hit: |l| any(l, &["Calibrator", "JointHistogram", "bulk_load", "from_sorted"]),
        why: "the workload cache names a calibrator, joint statistics, a tree load or a \
              constructor from sorted values — it stores the heap, and gen::finish derives \
              the rest",
        ..RULE
    },
    Rule {
        gate: "heap-only cache",
        scope: &["crates/workload/src"],
        hit: |l| l.contains("BTree::bulk_load"),
        want: 1,
        why: "crates/workload/src names BTree::bulk_load exactly once: gen::finish, which \
              both a build and cache::load end in",
        ..RULE
    },
    Rule {
        gate: "one-radix-sort",
        scope: &["crates/storage/src"],
        hit: defines_radix_sort,
        want: 1,
        why: "crates/storage/src defines radix_sort_by_u64_key exactly once: the executor's \
              rid lists and sort order and the workload's index orders share it",
        ..RULE
    },
    Rule {
        gate: "one-radix-sort",
        scope: &["crates", "src", "tests", "examples", "vendor"],
        skip: &["crates/storage/src"],
        hit: defines_radix_sort,
        why: "radix_sort_by_u64_key is defined outside crates/storage/src — there is one, \
              storage::radix's",
        ..RULE
    },
    Rule {
        gate: "touch-a-row-once",
        scope: &["crates/executor/src/ops"],
        hit: |l| any(l, &["struct Slab", "FxHashMap<Row", "fn combined("]),
        why: "the sorter's row slab, a Row-keyed hash map, or a Row built per join match — \
              blocking operators keep handles and packed keys",
        ..RULE
    },
    Rule {
        gate: "sorted-once",
        scope: &["crates/executor/src/ops/join.rs"],
        lines: Lines::Before("#[cfg(test)]"),
        hit: |l| any(l, &["PackedRows::", "PackedRows {", ".finish("]),
        why: "ops/join.rs builds a PackedRows or finishes a sorter outside its tests — a \
              sort-merge join merges the handle orders sort_all returns, it copies no row",
        ..RULE
    },
    Rule {
        gate: "charge-per-run",
        scope: &[
            "crates/executor/src/ops/sort.rs",
            "crates/executor/src/ops/join.rs",
            "crates/executor/src/ops/agg.rs",
        ],
        lines: Lines::Before("#[cfg(test)]"),
        hit: |l| any(l, &["for_each(|_|", "for _ in 0.."]),
        why: "a blocking operator issues a run of one-event charges in a loop — \
              Session::charge_each charges the run in one call and yields where the loop would",
        ..RULE
    },
    Rule {
        gate: "sorted-once",
        scope: &["crates"],
        hit: |l| defined_fns(l).any(|name| name == "push_all"),
        why: "push_all is back — a sorter handed its whole input sorts it once, in sort_all",
        ..RULE
    },
    Rule {
        gate: "one-rid-set",
        scope: &["crates"],
        hit: |l| l.contains("RidBitmap"),
        why: "RidBitmap is back — storage::RidSet replaced it, it is not kept beside it",
        ..RULE
    },
    Rule {
        gate: "one-rid-set",
        scope: &["crates/executor/src/ops/fetch.rs"],
        lines: Lines::Outside("pub(crate) fn sort_list", "}"),
        hit: |l| any(l, &["radix_sort_by_u64_key", "FxHashSet<Rid>"]),
        why: "ops/fetch.rs sorts rids outside sort_list — physical order is read off the \
              RidSet; sort_list is the one fall-through",
        ..RULE
    },
    Rule {
        gate: "one-physical-sweep",
        scope: &["crates/executor/src/ops/fetch.rs"],
        hit: |l| defined_fns(l).any(|name| name.starts_with("sweep")),
        want: 1,
        why: "ops/fetch.rs defines exactly one sweep* function — a page group read as its \
              whole page is a branch inside the one sweep, not a copy of it",
        ..RULE
    },
    Rule {
        gate: "one-rid-set",
        scope: &["crates/executor/src"],
        hit: |l| l.contains("FxHashSet<Rid>"),
        why: "the executor keeps rids in a hash set — membership is read off the RidSet",
        ..RULE
    },
    Rule {
        gate: "one-record-kernel",
        scope: &["crates/executor", "tests"],
        skip: &["tests/source_gates.rs"],
        hit: |l| idents(l).any(|t| t == "eval_batch_free" || t == "Selection"),
        why: "the selection bitmap or its evaluator is back — heap records are filtered by \
              BatchEmitter::filter through a u16 selection vector",
        ..RULE
    },
    Rule {
        gate: "one-record-kernel",
        scope: &[
            "crates/executor/src/ops/table_scan.rs",
            "crates/executor/src/ops/parallel_scan.rs",
            "crates/executor/src/ops/fetch.rs",
        ],
        hit: |l| l.contains("filter_run("),
        why: "a scan or fetch evaluates its predicate with filter_run — heap records go \
              through the one kernel, BatchEmitter::filter; filter_run is for index entries",
        ..RULE
    },
    Rule {
        gate: "the-heap-resolves-records",
        scope: &["crates/*/src"],
        skip: &["crates/storage/src/page.rs", "crates/storage/src/heap.rs"],
        lines: Lines::Before("#[cfg(test)]"),
        hit: |l| l.contains("from_image("),
        why: "a reader reads a page image with ColumnPage::from_image — the heap keeps each \
              page's slot count and live-slot mask, maintained by append, delete and \
              push_image, and HeapFile::resolve reads them",
        ..RULE
    },
    Rule {
        gate: "the-heap-resolves-records",
        scope: &["crates/executor/src"],
        hit: |l| idents(l).any(|t| t == "ColumnPage"),
        why: "the executor holds a ColumnPage, whose columns hold deleted rows' values too — \
              rows come from HeapFile::resolve, whose HeapPage carries the live-slot mask",
        ..RULE
    },
    Rule {
        gate: "one-walker",
        scope: &["crates"],
        hit: |l| any(l, &["cursor_step", "cursor_next_leaf", "AnyCursor"]),
        why: "cursor_step, cursor_next_leaf or AnyCursor is back — the borrowed Cursor with \
              Tree::next_leaf replaced them, and a loop over a tree of any arity reaches \
              its Cursor through with_tree!; they are not kept beside it",
        ..RULE
    },
    Rule {
        gate: "one-walker",
        scope: &["crates/executor/src/ops/mdam.rs"],
        lines: Lines::Before("#[cfg(test)]"),
        hit: |l| any(l, &["Vec<i64>", ".to_vec()"]),
        why: "ops/mdam.rs builds a Vec per key outside its tests — keys, corners and the box \
              are [i64; A] on the stack, the walk compiled per key arity A",
        ..RULE
    },
    Rule {
        gate: "one-batch-size",
        scope: &[
            "crates/*/src",
            "crates/*/tests",
            "src",
            "tests",
            "examples",
        ],
        skip: &["tests/source_gates.rs"],
        hit: |l| {
            let knobs = ["batch_rows", "ExecConfig", "with_batch_rows", "feed_lockstep", "RunOpts"];
            idents(l).any(|t| knobs.contains(&t))
        },
        why: "a batch size is a choice again — batch::BATCH_ROWS sets every batch, blocking \
              operators take whole batches, and run takes its controller directly",
        ..RULE
    },
    Rule {
        gate: "one-perf-ledger",
        scope: &["Cargo.toml", "crates", "src", "tests", "examples", "vendor"],
        skip: &["tests/source_gates.rs"],
        hit: |l| {
            l.trim_start().starts_with("criterion")
                || any(l, &["criterion::", "criterion_group!", "criterion_main!", ".criterion]"])
                || any(l, &["[[bench]]", "[profile.bench]"])
        },
        why: "a manifest declares criterion, a [[bench]] target or a bench profile, or Rust \
              source uses criterion — benchmark/ is the one timing harness, cargo bench is \
              not a second one",
        ..RULE
    },
    Rule {
        gate: "bail-only",
        scope: &["crates", "src", "tests", "examples"],
        skip: &["tests/source_gates.rs"],
        hit: |l| {
            let gone = [
                "SwitchDirective",
                "SwitchFetch",
                "SwitchIntersect",
                "SwitchJoin",
                "NeverSwitch",
                "IntersectFeed",
                "JoinBuild",
                "JoinProbe",
                "SortInput",
                "AggInput",
            ];
            idents(l).any(|t| gone.contains(&t))
        },
        why: "a controller answers more than bail-or-continue again, or a checkpoint no \
              controller arms is back — decide returns Option<PlanSpec>, None is the one off \
              switch, and CheckpointKind is what two_pred_bail_controller arms",
        ..RULE
    },
    Rule {
        gate: "counted-runs",
        scope: &["crates/core/src", "crates/bench/src", "crates/systems/src"],
        hit: |l| l.contains("exec::run(") || idents(l).any(|t| t == "run_collect"),
        why: "a map cell, a served query and a chooser count rows through run_count, whose \
              root builds none — not run_collect or exec::run",
        ..RULE
    },
    Rule {
        gate: "no-hidden-input",
        scope: &["crates/*/src"],
        skip: &["crates/obs/src/log.rs", "crates/workload/src/cache.rs", "crates/bench/src/bin"],
        hit: |l| l.contains("std::env::"),
        why: "the environment is read outside obs::log, workload::cache and a binary's argv \
              — quantum and trace sink are fields of MeasureConfig / ServeConfig",
        ..RULE
    },
    Rule {
        gate: "no-hidden-input",
        scope: &["crates/obs/src/trace.rs"],
        hit: declares_static,
        why: "obs::trace holds a static — a sink is a value handed down, not a process global",
        ..RULE
    },
    Rule {
        gate: "no-hidden-input",
        scope: &["crates", "tests", "examples"],
        skip: &["tests/source_gates.rs"],
        hit: |l| l.contains("from_env"),
        why: "a from_env constructor is back — run-time conditions are arguments",
        ..RULE
    },
    Rule {
        gate: "one-figure-table",
        scope: &["crates/bench/src"],
        hit: |l| {
            any(l, &[
                "ALL_FIGURES",
                "NEEDS_ALL_SYSTEMS",
                "run_figure_inner",
                "ChooserTally",
                "FigureOutput::new(\"",
            ])
        },
        why: "a second figure list, the two-slot tally, or a figure body spelling its own id \
              — FIGURES is the table, the runner stamps names",
        ..RULE
    },
    Rule {
        gate: "one-system-a-map",
        scope: &["crates"],
        hit: |l| {
            idents(l).any(|t| {
                ["plan_for", "needs_all_systems", "want_all_systems", "map_all_is_built"]
                    .contains(&t)
            })
        },
        why: "a figure announces the maps it reads again — System A's map is always the \"A\" \
              slice of the all-systems map, so nothing chooses between two ways to build it",
        ..RULE
    },
    Rule {
        gate: "one-way-to-choose",
        scope: &["crates"],
        hit: |l| {
            let gone = [
                "choose_at",
                "choose_over",
                "uncertainty_region",
                "credible_region_around",
                "Stale",
                "with_error",
                "from_histograms",
                "CheckConfig",
                "RebuildPolicy",
                "default_grant",
                "min_grant",
            ];
            l.contains("pub z:") || idents(l).any(|t| gone.contains(&t))
        },
        why: "a second way to choose, clamp, build a credible box or widen for staleness, or a \
              setting only one caller sets — Chooser::choose, SelEstimates::independent, \
              robust::credible_region and Joint::stale are the one way each, and the credible \
              z, the check thresholds, the grants and the rebuild thresholds are constants",
        ..RULE
    },
    Rule {
        gate: "a-decision-builds-no-plan",
        scope: &["crates/systems/src/choice.rs", "crates/systems/src/robust.rs"],
        lines: Lines::Before("#[cfg(test)]"),
        hit: |l| l.contains(".build("),
        why: "a chooser builds a plan to price it — the cost formulas read only a plan's \
              shape, which TwoPredPlan derives once at construction",
        ..RULE
    },
    Rule {
        gate: "a-decision-builds-no-plan",
        scope: &["crates"],
        hit: |l| idents(l).any(|t| t == "prefix_weights"),
        why: "prefix_weights is back — maintained statistics read cumulative counts in one \
              pass, they build no per-call weight vectors",
        ..RULE
    },
    Rule {
        gate: "one-price-list",
        scope: &["crates/systems/src"],
        hit: reads_a_price,
        why: "crates/systems reads a CostModel price — an estimate predicts the counters a \
              plan's kernels charge and CostModel::seconds prices them, with the clock's list",
        ..RULE
    },
    Rule {
        gate: "checked-claims",
        scope: &["crates/bench/src"],
        hit: |l| any(l, &["as in the paper", "as the paper"]),
        why: "a report asserts agreement with the paper in prose — a paper claim is a named \
              check of its figure's claim function, and the report prints that check",
        ..RULE
    },
    Rule {
        gate: "one-figure-table",
        scope: &["scripts/verify.sh"],
        hit: |l| idents(l).any(is_figure_id),
        why: "scripts/verify.sh names a figure id — the figures binary is the gate, not a \
              hand list there",
        ..RULE
    },
];

/// A line that can panic outside a test: `.expect(`, `.unwrap()`, `panic!`
/// or `unreachable!`, not in a comment.
fn may_panic(line: &str) -> bool {
    !line.trim_start().starts_with("//")
        && any(line, &[".expect(", ".unwrap()", "panic!", "unreachable!"])
}

/// The panic ratchet: how many lines of each crate's non-test source
/// [`may_panic`].  A change may lower a count, and then lowers its pin
/// here with it; it never raises one.
const PANIC_SITES: &[(&str, usize)] = &[
    ("crates/bench/src", 24),
    ("crates/core/src", 14),
    ("crates/executor/src", 2),
    ("crates/obs/src", 5),
    ("crates/storage/src", 7),
    ("crates/systems/src", 2),
    ("crates/workload/src", 8),
];

/// One rule per crate of [`PANIC_SITES`].
fn panic_ratchet() -> Vec<Rule> {
    PANIC_SITES
        .iter()
        .map(|(scope, want)| Rule {
            gate: "panic-ratchet",
            scope: std::slice::from_ref(scope),
            lines: Lines::Before("#[cfg(test)]"),
            hit: may_panic,
            want: *want,
            why: "a crate's non-test source has a different number of lines that may panic \
                  than PANIC_SITES pins — return an error instead of adding one, and lower \
                  the pin when one goes",
            ..RULE
        })
        .collect()
}

/// Push the files under `rel` (a file, or a directory walked in name
/// order) that `skip` does not exclude.
fn walk(root: &Path, rel: &str, skip: &[&str], files: &mut Vec<String>) {
    if skip.contains(&rel) {
        return;
    }
    let (dir, rest) = rel.split_once("/*/").map_or((rel, None), |(d, r)| (d, Some(r)));
    let path = root.join(dir);
    if path.is_file() {
        files.push(rel.to_string());
        return;
    }
    let Ok(entries) = std::fs::read_dir(&path) else { return };
    let mut names: Vec<String> = entries
        .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name != "target")
        .collect();
    names.sort();
    for name in names {
        match rest {
            Some(rest) => walk(root, &format!("{dir}/{name}/{rest}"), skip, files),
            None => walk(root, &format!("{dir}/{name}"), skip, files),
        }
    }
}

/// The numbered lines of `text` that `lines` selects.
fn select(text: &str, lines: Lines) -> Vec<(usize, &str)> {
    let mut in_block = false;
    let mut kept = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let keep = match lines {
            Lines::All => true,
            Lines::Before(prefix) if line.starts_with(prefix) => break,
            Lines::Before(_) => true,
            Lines::Inside(open, close) | Lines::Outside(open, close) => {
                let block_line = if in_block {
                    in_block = !line.starts_with(close);
                    true
                } else {
                    in_block = line.contains(open);
                    in_block
                };
                block_line == matches!(lines, Lines::Inside(..))
            }
        };
        if keep {
            kept.push((n + 1, line));
        }
    }
    kept
}

/// The names of the functions `line` defines.
fn defined_fns(line: &str) -> impl Iterator<Item = &str> {
    line.match_indices("fn ").filter_map(|(at, _)| {
        let starts_word = !line[..at].ends_with(is_word);
        let rest = &line[at + 3..];
        let name = &rest[..rest.find(|c| !is_word(c)).unwrap_or(rest.len())];
        (starts_word && !name.is_empty()).then_some(name)
    })
}

/// The names a code line calls as a method or through a path (`.name(`,
/// `::name(`): functions that exist, the workspace's or the standard
/// library's, or the line would not compile.
fn called_fns(line: &str) -> impl Iterator<Item = &str> {
    let code = !line.trim_start().starts_with("//");
    line.match_indices('(').filter_map(move |(at, _)| {
        let before = &line[..at];
        let path = before.trim_end_matches(is_word);
        let name = &before[path.len()..];
        (code && !name.is_empty() && (path.ends_with('.') || path.ends_with("::"))).then_some(name)
    })
}

/// The names `line` may define or spell: its functions, a field, `const`
/// or `static` it declares (or a parameter — the test is by shape), the
/// functions it calls by path, and the pieces between its double quotes,
/// which hold its string literals.
fn defined_names(line: &str) -> impl Iterator<Item = &str> {
    let decl = line.trim_start();
    let decl =
        decl.strip_prefix("pub(crate) ").or_else(|| decl.strip_prefix("pub ")).unwrap_or(decl);
    let decl = ["const ", "static "].iter().find_map(|kw| decl.strip_prefix(kw)).unwrap_or(decl);
    let name = &decl[..decl.find(|c| !is_word(c)).unwrap_or(decl.len())];
    let declared = decl[name.len()..].starts_with(": ").then_some(name);
    defined_fns(line)
        .chain(declared)
        .chain(called_fns(line))
        .chain(line.split('"').skip(1).step_by(2))
}

/// The name a backticked span of a document cites, if it cites one: a
/// path (`a::b::name`, a call's arguments dropped) whose last segment is
/// snake case with an underscore — a test's name, a function's, a field's
/// or a metric's.  Metric names with a layer (`layer.name`) and
/// benchmark rows (`group/name`) are no paths.
fn cited_name(span: &str) -> Option<&str> {
    let path = span.trim();
    let path = path.strip_suffix(')').and_then(|p| p.split_once('(')).map_or(path, |(p, _)| p);
    let segments: Vec<&str> = path.split("::").collect();
    let name = *segments.last()?;
    let is_path = segments.iter().all(|seg| !seg.is_empty() && seg.chars().all(is_word));
    let snake = name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    (is_path && snake && name.contains('_')).then_some(name)
}

/// The `design-cites-real-fns` failures: each name `README.md` or a
/// `docs/*.md` cites that no `.rs` file of the workspace or of `benchmark/`
/// defines as an `fn`, a field or a `const`, calls by path, spells as a
/// string literal or is named (a test suite is cited by its file's name),
/// by file and line.
fn design_citations_missing(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for scope in ["crates", "src", "tests", "examples", "vendor", "benchmark"] {
        walk(root, scope, &[], &mut files);
    }
    let mut defined = std::collections::HashSet::new();
    for (file, stem) in files.iter().filter_map(|f| Some((f, f.strip_suffix(".rs")?))) {
        defined.insert(stem.rsplit('/').next().unwrap_or(stem).to_string());
        let text = std::fs::read_to_string(root.join(file)).expect("readable source");
        defined.extend(text.lines().flat_map(defined_names).map(str::to_string));
    }
    let mut missing = Vec::new();
    for doc in docs(root) {
        let text = std::fs::read_to_string(root.join(&doc)).expect("readable doc");
        for (line, span) in spans(&text) {
            if let Some(name) = cited_name(span).filter(|name| !defined.contains(*name)) {
                missing.push(format!(
                    "[design-cites-real-fns] {doc}:{line}: `{name}` is no name of the workspace \
                     — a renamed or deleted test, field or metric is cited by its old name"
                ));
            }
        }
    }
    missing
}

/// The documents the cross-file rules read: `README.md` and every
/// `docs/*.md`.
fn docs(root: &Path) -> Vec<String> {
    let mut docs = vec!["README.md".to_string()];
    walk(root, "docs", &[], &mut docs);
    docs.retain(|d| d.ends_with(".md"));
    docs
}

/// The backticked spans of `text`, each with the line it starts on.
fn spans(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut line = 1;
    // Spans may wrap lines; the odd pieces between backticks are spans.
    text.split('`').enumerate().filter_map(move |(i, piece)| {
        let at = line;
        line += piece.matches('\n').count();
        (i % 2 == 1).then_some((at, piece))
    })
}

/// The top-level directories of the repository a doc's path may start with.
const REPO_DIRS: &[&str] =
    &["crates/", "tests/", "src/", "examples/", "scripts/", "docs/", "benchmark/", "vendor/"];

/// The `docs-cite-real-paths` failures: each backticked span of
/// `README.md` or `docs/*.md` that starts with a top-level directory but
/// names no file or directory, by line.  A span's path is its first word,
/// cut at its first `:` (a `:line` suffix or an `::item`); spans with `*`
/// or `{` are patterns, not paths.
fn doc_paths_missing(root: &Path) -> Vec<String> {
    let mut missing = Vec::new();
    for doc in docs(root) {
        let text = std::fs::read_to_string(root.join(&doc)).expect("readable doc");
        for (line, span) in spans(&text) {
            let path = span.split_whitespace().next().unwrap_or("");
            let path = path.split_once(':').map_or(path, |(path, _)| path);
            let pattern = span.contains(['*', '{']);
            let cites = !pattern && REPO_DIRS.iter().any(|dir| path.starts_with(dir));
            if cites && !root.join(path).exists() {
                missing.push(format!(
                    "[docs-cite-real-paths] {doc}:{line}: `{path}` does not exist — a moved or \
                     deleted file is cited by its old path"
                ));
            }
        }
    }
    missing
}

#[test]
fn the_source_keeps_every_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for rule in RULES.iter().chain(&panic_ratchet()) {
        let mut hits = Vec::new();
        for scope in rule.scope {
            let mut files = Vec::new();
            walk(root, scope, rule.skip, &mut files);
            if files.is_empty() {
                failures.push(format!("[{}] {scope} holds no file: the rule checks nothing", rule.gate));
            }
            for file in files {
                let bytes = std::fs::read(root.join(&file)).expect("readable file");
                let text = String::from_utf8_lossy(&bytes);
                for (n, line) in select(&text, rule.lines) {
                    if (rule.hit)(line) {
                        hits.push(format!("  {file}:{n}: {}", line.trim()));
                    }
                }
            }
        }
        if hits.len() != rule.want {
            failures.push(format!(
                "[{}] {} (want {} matching lines, found {})\n{}",
                rule.gate,
                rule.why,
                rule.want,
                hits.len(),
                hits.join("\n")
            ));
        }
    }
    failures.extend(design_citations_missing(root));
    failures.extend(doc_paths_missing(root));
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
