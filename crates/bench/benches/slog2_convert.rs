//! CLOG2→SLOG2 conversion benchmarks, including the frame-size
//! ablation (DESIGN.md A1): smaller frames mean a deeper tree and finer
//! random access; this measures what that costs to build.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use slog2::{Converter, TraceSource};
use workloads::synthetic_clog;

fn bench_convert_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("convert_scaling");
    for calls in [200usize, 2000, 10_000] {
        let clog = synthetic_clog(6, calls);
        group.bench_with_input(BenchmarkId::from_parameter(calls), &clog, |b, clog| {
            b.iter(|| {
                Converter::new()
                    .convert(TraceSource::InMemory(clog))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_frame_capacity(c: &mut Criterion) {
    // Ablation A1: the "frame size" parameter the paper mentions tuning.
    let clog = synthetic_clog(6, 5000);
    let mut group = c.benchmark_group("convert_frame_capacity");
    for capacity in [8usize, 64, 512] {
        group.bench_with_input(
            BenchmarkId::from_parameter(capacity),
            &capacity,
            |b, &capacity| {
                b.iter(|| {
                    Converter::new()
                        .frame_capacity(capacity)
                        .convert(TraceSource::InMemory(&clog))
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_file_roundtrip(c: &mut Criterion) {
    let clog = synthetic_clog(6, 2000);
    let slog = Converter::new()
        .convert(TraceSource::InMemory(&clog))
        .unwrap()
        .file;
    c.bench_function("slog2_to_bytes", |b| b.iter(|| slog.to_bytes()));
    let bytes = slog.to_bytes();
    c.bench_function("slog2_from_bytes", |b| {
        b.iter(|| slog2::Slog2File::from_bytes(&bytes).unwrap())
    });
    c.bench_function("clog2_to_bytes", |b| b.iter(|| clog.to_bytes()));
}

fn bench_tree_query(c: &mut Criterion) {
    let clog = synthetic_clog(6, 10_000);
    let slog = Converter::new()
        .convert(TraceSource::InMemory(&clog))
        .unwrap()
        .file;
    let w = slog.range;
    let span = w.span();
    c.bench_function("tree_query_full", |b| b.iter(|| slog.tree.query(w).len()));
    c.bench_function("tree_query_1pct_window", |b| {
        let zoom = slog2::TimeWindow::new(w.t0 + span * 0.495, w.t0 + span * 0.505);
        b.iter(|| slog.tree.query(zoom).len())
    });
    c.bench_function("tree_window_preview", |b| {
        b.iter(|| slog.tree.window_preview(w))
    });
}

fn bench_parallel_convert(c: &mut Criterion) {
    // The sharded-pipeline headline number: serial vs N worker threads
    // over a trace big enough to matter (6 ranks × 12k calls ≈ 144k
    // drawables — above the 100k bar the acceptance criterion sets).
    let clog = synthetic_clog(6, 12_000);
    let mut group = c.benchmark_group("convert_parallel");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| {
                Converter::new()
                    .parallelism(t)
                    .convert(TraceSource::InMemory(&clog))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_convert_scaling,
    bench_frame_capacity,
    bench_file_roundtrip,
    bench_tree_query,
    bench_parallel_convert
);
criterion_main!(benches);
