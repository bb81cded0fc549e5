//! Criterion benchmarks: one per paper figure (and extension experiment).
//!
//! Each benchmark regenerates its figure end-to-end at reduced scale
//! (2^14-row table, 2^-8 grids), so `cargo bench` both exercises every
//! figure path and tracks the harness's real wall-time.  The full-scale
//! artifacts come from `cargo run --release --bin figures -- all`.

use criterion::{criterion_group, criterion_main, Criterion};
use robustmap_bench::{run_figure, Harness, FIGURES};

fn bench_figures(c: &mut Criterion) {
    let harness = Harness::tiny();
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    for fig in FIGURES {
        group.bench_function(fig.name, |b| {
            b.iter(|| {
                let out = run_figure(&harness, fig.name).expect("known figure");
                criterion::black_box(out.report.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
