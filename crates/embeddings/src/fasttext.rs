//! fastText-style skipgram with character n-gram buckets
//! (Bojanowski et al., 2017), used for the paper's subword-embedding
//! robustness study (Appendix E.1, Figure 12).

use embedstab_corpus::Vocab;
use embedstab_linalg::{vecops, Mat};
use rand::{Rng, RngExt, SeedableRng};

use crate::negative::{NegativeStep, NegativeTable};
use crate::stats::CorpusStats;
use crate::{Embedding, TrainReport};

/// Hyperparameters for [`FastTextTrainer`].
#[derive(Clone, Debug)]
pub struct FastTextConfig {
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly.
    pub lr: f64,
    /// Floor for the linear decay, as a fraction of `lr`.
    pub min_lr_frac: f64,
    /// Maximum context half-window (sampled per position).
    pub window: usize,
    /// Negative samples per (center, context) pair.
    pub negatives: usize,
    /// Frequent-word subsampling threshold; 0 disables.
    pub subsample: f64,
    /// Number of hash buckets for character n-grams.
    pub buckets: usize,
    /// Minimum character n-gram length.
    pub minn: usize,
    /// Maximum character n-gram length.
    pub maxn: usize,
}

impl Default for FastTextConfig {
    fn default() -> Self {
        FastTextConfig {
            epochs: 8,
            lr: 0.05,
            min_lr_frac: 1e-4,
            window: 5,
            negatives: 5,
            subsample: 1e-3,
            buckets: 20_000,
            minn: 3,
            maxn: 5,
        }
    }
}

/// Trains subword skipgram embeddings: each word is represented by its own
/// vector plus the vectors of its hashed character n-grams.
#[derive(Clone, Debug, Default)]
pub struct FastTextTrainer {
    config: FastTextConfig,
}

/// An FNV-1a-style xor-then-multiply hash for n-gram bucketing. It is
/// **not** FNV-1a-64: its prime is `0x1000_0000_01b3`, not FNV's
/// `0x100_0000_01b3`, so it is kept apart from `corpus::codec::Fnv64`.
/// Switching primes would re-bucket every n-gram and change every
/// trained FastText vector.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Computes the bucket ids of all character n-grams of `<word>`.
fn word_ngrams(word: &str, minn: usize, maxn: usize, buckets: usize) -> Vec<u32> {
    let padded: Vec<char> = format!("<{word}>").chars().collect();
    let mut out = Vec::new();
    for len in minn..=maxn {
        if padded.len() < len {
            break;
        }
        for start in 0..=(padded.len() - len) {
            let gram: String = padded[start..start + len].iter().collect();
            out.push((fnv1a(gram.as_bytes()) % buckets as u64) as u32);
        }
    }
    out
}

impl FastTextTrainer {
    /// Creates a trainer with the given hyperparameters.
    pub fn new(config: FastTextConfig) -> Self {
        FastTextTrainer { config }
    }

    /// Trains a `dim`-dimensional embedding, deterministic given `seed`.
    ///
    /// The returned embedding row for word `w` is the composed
    /// representation `(v_w + sum of n-gram vectors) / (1 + #ngrams)`, which
    /// is what fastText exports.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, the corpus is empty, or the vocabulary size
    /// disagrees with the corpus statistics.
    pub fn train(&self, stats: &CorpusStats, vocab: &Vocab, dim: usize, seed: u64) -> Embedding {
        self.fit(stats, vocab, dim, seed, false).0
    }

    /// Trains and also returns first/last-epoch mean losses.
    ///
    /// # Panics
    ///
    /// See [`FastTextTrainer::train`].
    pub fn train_with_report(
        &self,
        stats: &CorpusStats,
        vocab: &Vocab,
        dim: usize,
        seed: u64,
    ) -> (Embedding, TrainReport) {
        self.fit(stats, vocab, dim, seed, true)
    }

    /// The training loop; the losses are computed only when `report` is
    /// set (they are zero otherwise).
    fn fit(
        &self,
        stats: &CorpusStats,
        vocab: &Vocab,
        dim: usize,
        seed: u64,
        report: bool,
    ) -> (Embedding, TrainReport) {
        assert!(dim > 0, "dim must be positive");
        assert!(stats.n_tokens() > 0, "corpus must be non-empty");
        assert_eq!(vocab.len(), stats.vocab_size, "vocab/stats size mismatch");
        let cfg = &self.config;
        let n = stats.vocab_size;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        let ngrams: Vec<Vec<u32>> = (0..n as u32)
            .map(|w| word_ngrams(vocab.word(w), cfg.minn, cfg.maxn, cfg.buckets))
            .collect();

        let scale = 0.5 / dim as f64;
        let mut word_vecs = Mat::random_uniform(n, dim, -scale, scale, &mut rng);
        let mut gram_vecs = Mat::random_uniform(cfg.buckets, dim, -scale, scale, &mut rng);
        let mut output = Mat::zeros(n, dim);

        let neg_table = NegativeTable::new(&stats.unigram_counts);
        let total = stats.n_tokens();
        let keep_prob: Vec<f64> = stats
            .unigram_counts
            .iter()
            .map(|&c| {
                if cfg.subsample <= 0.0 || c == 0 {
                    return 1.0;
                }
                let f = c as f64 / total as f64;
                (((f / cfg.subsample).sqrt() + 1.0) * cfg.subsample / f).min(1.0)
            })
            .collect();

        let total_work = (cfg.epochs * total) as f64;
        let mut processed = 0usize;
        let mut doc_order: Vec<usize> = (0..stats.corpus.docs().len()).collect();

        let mut step = NegativeStep::new(&neg_table, cfg.negatives, dim);
        let mut rep = vec![0.0; dim];
        let mut initial_loss = 0.0;
        let mut final_loss = 0.0;
        for epoch in 0..cfg.epochs {
            shuffle(&mut doc_order, &mut rng);
            let mut loss = 0.0;
            let mut pairs = 0usize;
            for &di in &doc_order {
                let doc = &stats.corpus.docs()[di];
                for (t, &center) in doc.iter().enumerate() {
                    processed += 1;
                    if cfg.subsample > 0.0 && rng.random::<f64>() > keep_prob[center as usize] {
                        continue;
                    }
                    let lr = cfg.lr * (1.0 - processed as f64 / total_work).max(cfg.min_lr_frac);
                    let grams = &ngrams[center as usize];
                    let denom = (1 + grams.len()) as f64;
                    // rep = (v_center + sum of n-gram vectors) / (1 + #ngrams)
                    rep.copy_from_slice(word_vecs.row(center as usize));
                    for &g in grams {
                        vecops::axpy(1.0, gram_vecs.row(g as usize), &mut rep);
                    }
                    vecops::scale(1.0 / denom, &mut rep);

                    let b = rng.random_range(1..=cfg.window);
                    let lo = t.saturating_sub(b);
                    let hi = (t + b + 1).min(doc.len());
                    for (u, &ctx) in doc[lo..hi].iter().enumerate() {
                        if lo + u == t {
                            continue;
                        }
                        step.apply(
                            &mut output,
                            &rep,
                            ctx,
                            lr,
                            &mut rng,
                            report.then_some(&mut loss),
                        );
                        pairs += 1;
                        // Spread the input gradient over the components.
                        let neu1e = step.input_grad();
                        vecops::scale(1.0 / denom, neu1e);
                        vecops::axpy(1.0, neu1e, word_vecs.row_mut(center as usize));
                        for &g in grams {
                            vecops::axpy(1.0, neu1e, gram_vecs.row_mut(g as usize));
                        }
                        // rep changed implicitly; recompute lazily next pair.
                        rep.copy_from_slice(word_vecs.row(center as usize));
                        for &g in grams {
                            vecops::axpy(1.0, gram_vecs.row(g as usize), &mut rep);
                        }
                        vecops::scale(1.0 / denom, &mut rep);
                    }
                }
            }
            let mean = loss / pairs.max(1) as f64;
            if epoch == 0 {
                initial_loss = mean;
            }
            final_loss = mean;
        }

        // Export composed word representations.
        let mut out = Mat::zeros(n, dim);
        for w in 0..n {
            let grams = &ngrams[w];
            let denom = (1 + grams.len()) as f64;
            let row = out.row_mut(w);
            row.copy_from_slice(word_vecs.row(w));
            for &g in grams {
                vecops::axpy(1.0, gram_vecs.row(g as usize), row);
            }
            vecops::scale(1.0 / denom, row);
        }
        (
            Embedding::new(out),
            TrainReport {
                initial_loss,
                final_loss,
            },
        )
    }
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
    fn ngrams_are_stable_and_bounded() {
        let a = word_ngrams("bakelu", 3, 5, 1000);
        let b = word_ngrams("bakelu", 3, 5, 1000);
        assert_eq!(a, b);
        assert!(a.iter().all(|&g| g < 1000));
        // "<bakelu>" has 8 chars: 6 trigrams + 5 four-grams + 4 five-grams.
        assert_eq!(a.len(), 6 + 5 + 4);
    }

    #[test]
    fn shared_prefix_words_share_ngrams() {
        let a = word_ngrams("bakelu", 3, 5, 100_000);
        let b = word_ngrams("bakemo", 3, 5, 100_000);
        let shared = a.iter().filter(|g| b.contains(g)).count();
        assert!(shared >= 3, "topic-prefixed words should share n-grams");
    }

    #[test]
    fn loss_decreases() {
        let model = LatentModel::new(&LatentModelConfig {
            vocab_size: 50,
            n_topics: 4,
            ..Default::default()
        });
        let corpus = model.generate_corpus(&CorpusConfig {
            n_tokens: 8_000,
            ..Default::default()
        });
        let stats = CorpusStats::compute(std::sync::Arc::new(corpus), 50, 4);
        let trainer = FastTextTrainer::new(FastTextConfig {
            epochs: 4,
            buckets: 2_000,
            ..Default::default()
        });
        let (emb, report) = trainer.train_with_report(&stats, &model.vocab, 8, 0);
        assert!(report.final_loss < report.initial_loss, "{report:?}");
        assert!(emb.mat().is_finite());
        assert_eq!(emb.shape(), (50, 8));
    }
}
