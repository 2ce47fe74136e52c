//! Criterion bench for the headline algorithm: the end-to-end
//! expander-routed triangle enumeration pipeline, with engine-mode and
//! wire-format ablations. This is the workload the CI bench-regression
//! gate tracks (`BENCH_baseline.json`).

use bench_suite::gnp_family;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use triangle::pipeline::{enumerate_via_decomposition, Packing, PipelineParams};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for n in [32usize, 48] {
        let g = gnp_family(n, 0.3, 42 + n as u64);
        group.bench_with_input(BenchmarkId::new("gnp", n), &g, |b, g| {
            b.iter(|| enumerate_via_decomposition(g, &PipelineParams::default()))
        });
    }
    let (ring, _) = graph::gen::ring_of_cliques(6, 8).unwrap();
    group.bench_with_input(BenchmarkId::new("ring_of_cliques", 48), &ring, |b, g| {
        b.iter(|| enumerate_via_decomposition(g, &PipelineParams::default()))
    });
    // Engine-mode ablation on the densest input: the parallel scheduler's
    // overhead (or speedup, on multi-core hosts) shows up here.
    let g = gnp_family(48, 0.3, 42 + 48);
    group.bench_with_input(BenchmarkId::new("gnp_seq_engine", 48), &g, |b, g| {
        b.iter(|| {
            enumerate_via_decomposition(
                g,
                &PipelineParams {
                    exec: congest::ExecMode::Sequential,
                    ..Default::default()
                },
            )
        })
    });
    // Wire-format ablation: the one-id-per-round exchange the packed
    // format replaced (DESIGN.md §10). The gap between this entry and
    // pipeline/gnp/48 is the packing win the bench gate tracks.
    group.bench_with_input(BenchmarkId::new("gnp_unpacked_exchange", 48), &g, |b, g| {
        b.iter(|| {
            enumerate_via_decomposition(
                g,
                &PipelineParams {
                    packing: Packing::Unpacked,
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
