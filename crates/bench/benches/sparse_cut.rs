//! Criterion bench for E3: Theorem 3 sparse-cut wall-clock on planted-cut
//! vs expander inputs (the expander side measures certification cost).

use criterion::{criterion_group, criterion_main, Criterion};
use expander::prelude::*;
use graph::gen;

fn bench_sparse_cut(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_cut");
    group.sample_size(10);
    let (dumbbell, _) = gen::dumbbell(20, 12, 1).unwrap();
    group.bench_function("dumbbell_detect", |b| {
        b.iter(|| nearly_most_balanced_sparse_cut(&dumbbell, 0.002, ParamMode::Practical, 4, 3))
    });
    let expander = gen::random_regular(64, 8, 5).unwrap();
    group.bench_function("expander_certify", |b| {
        b.iter(|| nearly_most_balanced_sparse_cut(&expander, 0.002, ParamMode::Practical, 4, 3))
    });
    // Truncated walks on this graph soon cover all of it and stay there:
    // the full-support regime of the walk step and the sweep order.
    let expander_512 = gen::random_regular(512, 10, 5).unwrap();
    group.bench_function("expander_certify_512", |b| {
        b.iter(|| nearly_most_balanced_sparse_cut(&expander_512, 0.002, ParamMode::Practical, 4, 3))
    });
    let (bar, _) = gen::barbell(12).unwrap();
    group.bench_function("single_nibble", |b| {
        let params = NibbleParams::new(0.05, bar.m(), ParamMode::Practical);
        b.iter(|| approximate_nibble(&bar, 0, &params, 4))
    });
    group.finish();
}

criterion_group!(benches, bench_sparse_cut);
criterion_main!(benches);
