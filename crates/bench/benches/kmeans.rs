//! Clustering cost: the exact 1-D solver AsyncFilter calls every
//! aggregation, and the general k-means FLDetector uses.

use asyncfl_clustering::one_dim::kmeans_1d;
use asyncfl_clustering::KMeans;
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{RngExt, SeedableRng};
use asyncfl_tensor::Vector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_kmeans_1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_1d");
    let mut rng = StdRng::seed_from_u64(0);
    // 40 = the paper's aggregation bound; 8192 = the scale workloads' Ω,
    // where the divide-and-conquer layers replace an O(k n^2) table.
    for n in [40usize, 1024, 8192] {
        let scores: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        group.bench_with_input(BenchmarkId::new("k3", n), &n, |bench, _| {
            bench.iter(|| black_box(kmeans_1d(&scores, 3)))
        });
    }
    group.finish();
}

fn bench_kmeans_general(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_lloyd");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [40usize, 150] {
        let points: Vec<Vector> = (0..n)
            .map(|_| Vector::from_fn(2, |_| rng.random::<f64>()))
            .collect();
        group.bench_with_input(BenchmarkId::new("k2_2d", n), &n, |bench, _| {
            bench.iter(|| {
                let mut seed_rng = StdRng::seed_from_u64(2);
                black_box(KMeans::new(2).fit(&points, &mut seed_rng))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kmeans_1d, bench_kmeans_general);
criterion_main!(benches);
