//! Equivalence and determinism suite for the training kernels.
//!
//! Three claims, each checked bit-for-bit through the public API:
//!
//! 1. the presort-once GBDT split search produces the *same tree* as the
//!    per-node re-sort kernel, ties and all;
//! 2. `Gbdt::fit` equals a plain boosting loop over the re-sort kernel that
//!    updates every row through `predict` (pinning the kernel and the
//!    leaf-by-leaf prediction update together);
//! 3. every trainer (GBDT boosting and per-example RNN training) is
//!    bit-identical at 1 thread vs 4 (the pool contract).
//!
//! Thread width is switched in-process via `set_thread_override`; tests
//! that sweep it serialise on a lock because the override is process-global.

use auto_suggest::gbdt::{
    normalize, Dataset, Gbdt, GbdtParams, RegressionTree, TreeParams, LEARNING_RATE,
};
use auto_suggest::nn::{RnnClassifier, RnnConfig, SequenceExample};
use auto_suggest::parallel::set_thread_override;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Random dataset with deliberately heavy value ties (values snapped to a
/// 1/8 grid) so tie-ordering differences between split kernels surface.
/// Labels are 0/1 from a linear rule, or uniform in [-1, 1) when
/// `float_labels` is set — float targets make every gain depend on the
/// order tied rows are summed in.
fn tied_dataset(n: usize, features: usize, seed: u64, float_labels: bool) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..features)
                .map(|_| (rng.random_range(-1.0f64..1.0) * 8.0).round() / 8.0)
                .collect()
        })
        .collect();
    let labels: Vec<f64> = rows
        .iter()
        .map(|r| {
            if float_labels {
                rng.random_range(-1.0f64..1.0)
            } else if r[0] + 0.5 * r[1] - 0.25 * r[2] > 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let names = (0..features).map(|i| format!("f{i}")).collect();
    Dataset::new(names, rows, labels).expect("rectangular")
}

fn sequences(n: usize, vocab: usize, seed: u64) -> Vec<SequenceExample> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.random_range(1..7usize);
            let prefix: Vec<usize> = (0..len).map(|_| rng.random_range(0..vocab)).collect();
            let label = (prefix[len - 1] + 1) % vocab;
            SequenceExample { prefix, extra: vec![rng.random_range(0.0..1.0)], label }
        })
        .collect()
}

/// Exact bit pattern of a model's scores over a probe grid.
fn gbdt_fingerprint(model: &Gbdt, data: &Dataset, features: usize) -> String {
    let mut log = String::new();
    for i in 0..data.len().min(64) {
        let x: Vec<f64> = (0..features).map(|f| data.row(i)[f]).collect();
        log.push_str(&format!("{:016x}\n", model.predict(&x).to_bits()));
    }
    for imp in model.feature_importance() {
        log.push_str(&format!("imp {:016x}\n", imp.to_bits()));
    }
    log
}

fn rnn_fingerprint(model: &RnnClassifier, examples: &[SequenceExample]) -> String {
    let queries: Vec<(&[usize], &[f64])> = examples
        .iter()
        .map(|e| (e.prefix.as_slice(), e.extra.as_slice()))
        .collect();
    let mut log = String::new();
    for row in model.predict_proba_batch(&queries) {
        for p in row {
            log.push_str(&format!("{:016x} ", p.to_bits()));
        }
        log.push('\n');
    }
    log
}

#[test]
fn presorted_tree_matches_historical_resort_kernel() {
    for seed in [3u64, 17, 91] {
        let data = tied_dataset(400, 9, seed, false);
        let targets: Vec<f64> = (0..data.len()).map(|i| data.label(i)).collect();
        let idx: Vec<usize> = (0..data.len()).collect();
        let params = TreeParams { max_depth: 5, ..Default::default() };
        let fast = RegressionTree::fit(&data, &targets, &idx, &params);
        let slow = RegressionTree::fit_resort(&data, &targets, &idx, &params);
        for i in 0..data.len() {
            let x: Vec<f64> = (0..9).map(|f| data.row(i)[f]).collect();
            assert_eq!(
                fast.predict(&x).to_bits(),
                slow.predict(&x).to_bits(),
                "presorted and re-sort kernels diverged (seed {seed}, row {i})"
            );
        }
    }
}

/// Least-squares boosting written out plainly: every round fits the
/// re-sort kernel to the residuals and updates each row through `predict`.
/// Returns every training row's prediction (as `Gbdt::predict` sums it)
/// and the normalised importances.
fn reference_boost(data: &Dataset, params: &GbdtParams) -> (Vec<f64>, Vec<f64>) {
    let n = data.len();
    let base = data.labels().iter().sum::<f64>() / n as f64;
    let idx: Vec<usize> = (0..n).collect();
    let mut preds = vec![base; n];
    let mut trees = Vec::new();
    for _ in 0..params.n_trees {
        let residuals: Vec<f64> = (0..n).map(|i| data.label(i) - preds[i]).collect();
        let tree = RegressionTree::fit_resort(data, &residuals, &idx, &params.tree);
        for (i, p) in preds.iter_mut().enumerate() {
            *p += LEARNING_RATE * tree.predict(data.row(i));
        }
        trees.push(tree);
    }
    let scores = (0..n)
        .map(|i| base + LEARNING_RATE * trees.iter().map(|t| t.predict(data.row(i))).sum::<f64>())
        .collect();
    let mut importance = vec![0.0; data.num_features()];
    for t in &trees {
        t.accumulate_importance(&mut importance);
    }
    normalize(&mut importance);
    (scores, importance)
}

#[test]
fn gbdt_fit_matches_a_reference_booster_over_the_resort_kernel() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let params = GbdtParams { n_trees: 16, ..Default::default() };
    for (seed, float_labels) in [(5u64, true), (8, false)] {
        let data = tied_dataset(2048, 9, seed, float_labels);
        let (want_scores, want_importance) = reference_boost(&data, &params);
        for threads in [1, 4] {
            set_thread_override(Some(threads));
            let model = Gbdt::fit(&data, &params);
            set_thread_override(None);
            for (i, want) in want_scores.iter().enumerate() {
                assert_eq!(
                    model.predict(data.row(i)).to_bits(),
                    want.to_bits(),
                    "seed {seed}, {threads} threads, row {i}"
                );
            }
            let got: Vec<u64> = model.feature_importance().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want_importance.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "seed {seed}, {threads} threads: importances");
        }
    }
}

#[test]
fn trainers_are_bit_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // 2,048 × 9 = 18,432 row-features per root scan, past the 16K size at
    // which a split kernel that fans features out across threads would
    // kick in; float labels make every gain depend on tie order.
    let data = tied_dataset(2048, 9, 5, true);
    let vocab = 9;
    let examples = sequences(120, vocab, 33);

    let fingerprint = |threads: usize| {
        set_thread_override(Some(threads));
        let mut log = String::new();
        let model = Gbdt::fit(&data, &GbdtParams { n_trees: 16, ..Default::default() });
        log.push_str(&gbdt_fingerprint(&model, &data, 9));
        let mut model = RnnClassifier::new(RnnConfig {
            vocab,
            classes: vocab,
            extra_dim: 1,
            epochs: 3,
            seed: 41,
            ..Default::default()
        });
        let loss = model.train(&examples);
        log.push_str(&format!("loss {:016x}\n", loss.to_bits()));
        log.push_str(&rnn_fingerprint(&model, &examples));
        set_thread_override(None);
        log
    };

    let one = fingerprint(1);
    let four = fingerprint(4);
    assert!(one.contains("loss"));
    assert_eq!(one, four, "a trainer diverged between 1 and 4 threads");
}

/// FNV-1a over 64-bit words.
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Trained RNN output bits are pinned across builds, not only across
/// thread counts: an fnv64 of every predicted probability's bit pattern
/// plus the final epoch loss, for a config with auxiliary features (the
/// Fig. 13 `Full` shape) and a sequence-only one, must equal the values
/// recorded before the parameter arena and the AVX-512 Adam lane existed.
/// 60 epochs × 120 examples is past the ~6,700 zero-gradient steps a
/// first moment needs to decay into the subnormals, so the `Decay` lane
/// fires tens of thousands of times in the `Full`-style run.
#[test]
fn rnn_training_bits_are_pinned_across_builds() {
    let vocab = 9;
    let with_extra = sequences(120, vocab, 33);
    let seq_only: Vec<SequenceExample> = with_extra
        .iter()
        .map(|e| SequenceExample { prefix: e.prefix.clone(), extra: vec![], label: e.label })
        .collect();
    let digest = |examples: &[SequenceExample], extra_dim: usize| {
        let mut model = RnnClassifier::new(RnnConfig {
            vocab,
            classes: vocab,
            extra_dim,
            epochs: 60,
            seed: 41,
            ..Default::default()
        });
        let loss = model.train(examples);
        let queries: Vec<(&[usize], &[f64])> = examples
            .iter()
            .map(|e| (e.prefix.as_slice(), e.extra.as_slice()))
            .collect();
        let probs = model.predict_proba_batch(&queries);
        fnv64(probs.iter().flatten().map(|p| p.to_bits()).chain([loss.to_bits()]))
    };
    let full = digest(&with_extra, 1);
    let rnn_only = digest(&seq_only, 0);
    assert_eq!(
        (format!("{full:016x}"), format!("{rnn_only:016x}")),
        ("2df30e1ff8c9b1bd".to_string(), "fe7e9f39088a1e77".to_string()),
        "trained RNN bits moved"
    );
}
