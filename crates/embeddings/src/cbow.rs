//! Continuous bag-of-words (CBOW) with negative sampling
//! (Mikolov et al., 2013), following the word2vec reference implementation.

use embedstab_linalg::{vecops, Mat};
use rand::{Rng, RngExt, SeedableRng};

use crate::negative::{NegativeStep, NegativeTable};
use crate::stats::CorpusStats;
use crate::{Embedding, TrainReport};

/// Hyperparameters for [`CbowTrainer`] (paper Table 4: window 15, 5
/// negatives, lr 0.05; epochs scaled up because the synthetic corpora are
/// small).
#[derive(Clone, Debug)]
pub struct CbowConfig {
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to `lr * min_lr_frac`.
    pub lr: f64,
    /// Floor for the linear learning-rate decay, as a fraction of `lr`.
    pub min_lr_frac: f64,
    /// Maximum context half-window (the effective window is sampled
    /// uniformly from `1..=window` per position, as in word2vec).
    pub window: usize,
    /// Number of negative samples per position.
    pub negatives: usize,
    /// Frequent-word subsampling threshold (word2vec `-sample`); 0 disables.
    pub subsample: f64,
}

impl Default for CbowConfig {
    fn default() -> Self {
        CbowConfig {
            epochs: 10,
            lr: 0.05,
            min_lr_frac: 1e-4,
            window: 8,
            negatives: 5,
            subsample: 1e-3,
        }
    }
}

/// Trains CBOW embeddings by streaming over the corpus with SGD.
#[derive(Clone, Debug, Default)]
pub struct CbowTrainer {
    config: CbowConfig,
}

impl CbowTrainer {
    /// Creates a trainer with the given hyperparameters.
    pub fn new(config: CbowConfig) -> Self {
        CbowTrainer { config }
    }

    /// Trains a `dim`-dimensional embedding, deterministic given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or the corpus is empty.
    pub fn train(&self, stats: &CorpusStats, dim: usize, seed: u64) -> Embedding {
        self.fit(stats, dim, seed, false).0
    }

    /// Trains and also returns first/last-epoch mean negative-sampling
    /// losses.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or the corpus is empty.
    pub fn train_with_report(
        &self,
        stats: &CorpusStats,
        dim: usize,
        seed: u64,
    ) -> (Embedding, TrainReport) {
        self.fit(stats, dim, seed, true)
    }

    /// The training loop; the losses are computed only when `report` is
    /// set (they are zero otherwise).
    fn fit(
        &self,
        stats: &CorpusStats,
        dim: usize,
        seed: u64,
        report: bool,
    ) -> (Embedding, TrainReport) {
        assert!(dim > 0, "dim must be positive");
        assert!(stats.n_tokens() > 0, "corpus must be non-empty");
        let cfg = &self.config;
        let n = stats.vocab_size;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        // word2vec initialization: inputs uniform in +-0.5/dim, outputs zero.
        let scale = 0.5 / dim as f64;
        let mut input = Mat::random_uniform(n, dim, -scale, scale, &mut rng);
        let mut output = Mat::zeros(n, dim);

        let neg_table = NegativeTable::new(&stats.unigram_counts);
        let total_tokens = stats.n_tokens();
        let keep_prob = keep_probabilities(&stats.unigram_counts, total_tokens, cfg.subsample);

        let total_work = (cfg.epochs * total_tokens) as f64;
        let mut processed = 0usize;
        let mut doc_order: Vec<usize> = (0..stats.corpus.docs().len()).collect();

        let mut step = NegativeStep::new(&neg_table, cfg.negatives, dim);
        let mut h = vec![0.0; dim];
        let mut initial_loss = 0.0;
        let mut final_loss = 0.0;
        for epoch in 0..cfg.epochs {
            shuffle(&mut doc_order, &mut rng);
            let mut loss = 0.0;
            let mut positions = 0usize;
            for &di in &doc_order {
                let doc = &stats.corpus.docs()[di];
                for (t, &target) in doc.iter().enumerate() {
                    processed += 1;
                    if cfg.subsample > 0.0 && rng.random::<f64>() > keep_prob[target as usize] {
                        continue;
                    }
                    let b = rng.random_range(1..=cfg.window);
                    let lo = t.saturating_sub(b);
                    let hi = (t + b + 1).min(doc.len());
                    let ctx_count = (hi - lo).saturating_sub(1);
                    if ctx_count == 0 {
                        continue;
                    }
                    // h = mean of context input vectors.
                    h.iter_mut().for_each(|x| *x = 0.0);
                    for (u, &c) in doc[lo..hi].iter().enumerate() {
                        if lo + u != t {
                            vecops::axpy(1.0, input.row(c as usize), &mut h);
                        }
                    }
                    vecops::scale(1.0 / ctx_count as f64, &mut h);

                    let lr = cfg.lr * (1.0 - processed as f64 / total_work).max(cfg.min_lr_frac);
                    step.apply(
                        &mut output,
                        &h,
                        target,
                        lr,
                        &mut rng,
                        report.then_some(&mut loss),
                    );
                    positions += 1;
                    for (u, &c) in doc[lo..hi].iter().enumerate() {
                        if lo + u != t {
                            vecops::axpy(1.0, step.input_grad(), input.row_mut(c as usize));
                        }
                    }
                }
            }
            let mean = loss / positions.max(1) as f64;
            if epoch == 0 {
                initial_loss = mean;
            }
            final_loss = mean;
        }
        (
            Embedding::new(input),
            TrainReport {
                initial_loss,
                final_loss,
            },
        )
    }
}

/// word2vec keep probability per word:
/// `(sqrt(f/t) + 1) * t/f` clamped to `[0, 1]`, where `f` is the word's
/// corpus frequency and `t` the subsample threshold.
fn keep_probabilities(counts: &[u64], total: usize, subsample: f64) -> Vec<f64> {
    counts
        .iter()
        .map(|&c| {
            if subsample <= 0.0 || c == 0 {
                return 1.0;
            }
            let f = c as f64 / total as f64;
            (((f / subsample).sqrt() + 1.0) * subsample / f).min(1.0)
        })
        .collect()
}

fn shuffle<T>(xs: &mut [T], rng: &mut impl Rng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_corpus::{CorpusConfig, LatentModel, LatentModelConfig};

    #[test]
    fn loss_decreases_and_is_finite() {
        let model = LatentModel::new(&LatentModelConfig {
            vocab_size: 60,
            n_topics: 4,
            ..Default::default()
        });
        let corpus = model.generate_corpus(&CorpusConfig {
            n_tokens: 15_000,
            ..Default::default()
        });
        let stats = CorpusStats::compute(std::sync::Arc::new(corpus), 60, 4);
        let (emb, report) = CbowTrainer::default().train_with_report(&stats, 8, 0);
        assert!(report.final_loss < report.initial_loss, "{report:?}");
        assert!(emb.mat().is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let model = LatentModel::new(&LatentModelConfig {
            vocab_size: 40,
            n_topics: 4,
            ..Default::default()
        });
        let corpus = model.generate_corpus(&CorpusConfig {
            n_tokens: 4_000,
            ..Default::default()
        });
        let stats = CorpusStats::compute(std::sync::Arc::new(corpus), 40, 4);
        let a = CbowTrainer::default().train(&stats, 6, 9);
        let b = CbowTrainer::default().train(&stats, 6, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn keep_probabilities_shape() {
        // Rare words are always kept; very frequent words are downsampled.
        let counts = vec![50_000u64, 10, 0];
        let p = keep_probabilities(&counts, 100_000, 1e-3);
        assert!(
            p[0] < 0.1,
            "frequent word should be heavily subsampled, got {}",
            p[0]
        );
        assert_eq!(p[1], 1.0);
        assert_eq!(p[2], 1.0);
        // Disabled subsampling keeps everything.
        let p_off = keep_probabilities(&counts, 100_000, 0.0);
        assert!(p_off.iter().all(|&x| x == 1.0));
    }
}
