//! Training hot-path benchmarks: RNN epochs and the two GBDT split-search
//! kernels (per-node re-sort reference, presort-once production kernel).

use autosuggest_gbdt::{Dataset, Presorted, RegressionTree, TreeParams};
use autosuggest_nn::{RnnClassifier, RnnConfig, SequenceExample};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn synthetic(n: usize, features: usize, seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..features).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    let labels: Vec<f64> = rows
        .iter()
        .map(|r| if r[0] + 0.5 * r[1] > 0.0 { 1.0 } else { 0.0 })
        .collect();
    let names = (0..features).map(|i| format!("f{i}")).collect();
    Dataset::new(names, rows, labels).expect("rectangular")
}

fn sequences(n: usize, vocab: usize, seed: u64) -> Vec<SequenceExample> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.random_range(1..8usize);
            let prefix: Vec<usize> = (0..len).map(|_| rng.random_range(0..vocab)).collect();
            let label = (prefix[len - 1] + 1) % vocab;
            SequenceExample { prefix, extra: vec![rng.random_range(0.0..1.0)], label }
        })
        .collect()
}

/// One epoch of RNN training (one Adam step per example).
fn bench_rnn_epoch(c: &mut Criterion) {
    let vocab = 12;
    let examples = sequences(512, vocab, 7);
    let mut group = c.benchmark_group("rnn_epoch");
    group.sample_size(10);
    group.bench_function("train", |b| {
        b.iter(|| {
            let cfg = RnnConfig {
                vocab,
                classes: vocab,
                extra_dim: 1,
                epochs: 1,
                seed: 11,
                ..Default::default()
            };
            let mut model = RnnClassifier::new(cfg);
            black_box(model.train(&examples))
        })
    });
    group.finish();
}

/// A full tree fit per kernel, at three node sizes. `resort` is the
/// historical per-node per-feature re-sort, `presorted` sorts once per tree
/// and partitions the feature lists down.
fn bench_split_search(c: &mut Criterion) {
    let params = TreeParams::default();
    let mut group = c.benchmark_group("split_search");
    group.sample_size(10);
    for n in [500usize, 2000, 8000] {
        let data = synthetic(n, 18, 3);
        let targets: Vec<f64> = (0..n).map(|i| data.label(i)).collect();
        let idx: Vec<usize> = (0..n).collect();
        group.bench_with_input(BenchmarkId::new("resort", n), &n, |b, _| {
            b.iter(|| black_box(RegressionTree::fit_resort(&data, &targets, &idx, &params)))
        });
        group.bench_with_input(BenchmarkId::new("presorted", n), &n, |b, _| {
            b.iter(|| black_box(RegressionTree::fit(&data, &targets, &idx, &params)))
        });
        group.bench_with_input(BenchmarkId::new("presort_build", n), &n, |b, _| {
            b.iter(|| black_box(Presorted::build(&data, &idx)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rnn_epoch, bench_split_search);
criterion_main!(benches);
