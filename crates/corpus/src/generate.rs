//! Corpus generation from a latent model, and the temporal corpus pair.

use std::sync::Arc;

use rand::{Rng, RngExt, SeedableRng};

use crate::codec::{self, Fnv64};
use crate::latent::{DocPlan, DriftConfig, LatentModel, LatentModelConfig};

/// Configuration for sampling one corpus from a [`LatentModel`].
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Total token budget; generation stops at the first document boundary
    /// at or past this count.
    pub n_tokens: usize,
    /// Mean document length (lengths are uniform in `[mean/2, 3*mean/2]`).
    pub doc_len_mean: usize,
    /// Number of distinct topics mixed within one document.
    pub topics_per_doc: usize,
    /// Euclidean norm of the per-document latent noise vector added to the
    /// topic mixture. This is what gives the corpus full-rank latent
    /// structure: with zero noise, co-occurrence factorizes over the K
    /// topics only.
    pub doc_noise: f64,
    /// Word softmax temperature.
    pub temperature: f64,
    /// RNG seed for document sampling.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            n_tokens: 100_000,
            doc_len_mean: 40,
            topics_per_doc: 2,
            doc_noise: 3.0,
            temperature: 1.0,
            seed: 0,
        }
    }
}

/// A generated corpus: a list of documents, each a sequence of word ids.
///
/// Documents are the co-occurrence boundary: context windows never cross
/// document edges, mirroring the paper's Wikipedia preprocessing.
#[derive(Clone, Debug)]
pub struct Corpus {
    docs: Vec<Vec<u32>>,
    n_tokens: usize,
}

impl Corpus {
    /// Wraps pre-tokenized documents as a corpus.
    pub fn from_docs(docs: Vec<Vec<u32>>) -> Self {
        let n_tokens = docs.iter().map(Vec::len).sum();
        Corpus { docs, n_tokens }
    }

    /// The documents.
    pub fn docs(&self) -> &[Vec<u32>] {
        &self.docs
    }

    /// Total number of tokens.
    pub fn n_tokens(&self) -> usize {
        self.n_tokens
    }

    /// Appends documents in place — the corpus-increment primitive behind
    /// streaming retrains. Document order is append order, so a corpus
    /// grown by increments compares equal (and fingerprints equal) to
    /// [`Corpus::from_docs`] over the concatenated document list.
    pub fn append_docs(&mut self, docs: Vec<Vec<u32>>) {
        for doc in docs {
            self.n_tokens += doc.len();
            self.docs.push(doc);
        }
    }

    /// FNV-1a fingerprint of the corpus *content*: the document count,
    /// each document's length, and every token id, in order.
    ///
    /// Unlike the pipeline's world fingerprint — a hash of the generating
    /// *parameters* — this keys on what the corpus actually holds, so a
    /// corpus grown by streaming increments fingerprints as the corpus it
    /// now is, no matter how the documents arrived (one batch or many).
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.docs.len() as u64);
        for doc in &self.docs {
            h.write_u64(doc.len() as u64);
            for &t in doc {
                h.write_u64(u64::from(t));
            }
        }
        h.finish()
    }
}

/// Fingerprint of a full counting state: vocabulary size, counting
/// configuration, and corpus content. This is the checkpoint/identity key
/// of the streaming retrainer and the pipeline's
/// `World::stream_fingerprint` — defined here, once, so the two sides
/// can never drift apart. Two services that reached the same final corpus
/// under the same configuration fingerprint identically, regardless of
/// how the corpus was split into increments.
pub fn corpus_state_fingerprint(
    corpus: &Corpus,
    vocab_size: usize,
    config: &crate::cooc::CoocConfig,
) -> u64 {
    Fnv64::new()
        .write_u64(vocab_size as u64)
        .write_u64(config.window as u64)
        .write_u64(config.distance_weighting as u64)
        .write_u64(corpus.content_fingerprint())
        .finish()
}

impl Corpus {
    /// Appends the corpus to `out` in the world-cache byte layout: a
    /// `u64` document count, then each document as a length-prefixed
    /// `u32` token list.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.docs.len() as u64);
        for doc in &self.docs {
            codec::put_u32_slice(out, doc);
        }
    }

    /// Reads one [`Corpus::encode_into`]-encoded corpus from the front of
    /// `r`, advancing it. Returns `None` on truncated input.
    pub fn decode_from(r: &mut &[u8]) -> Option<Corpus> {
        // Each document costs at least its 8-byte length prefix.
        let n_docs = codec::take_len(r, 8)?;
        let mut docs = Vec::with_capacity(n_docs);
        for _ in 0..n_docs {
            docs.push(codec::take_u32_slice(r)?);
        }
        Some(Corpus::from_docs(docs))
    }

    /// Per-word token counts over a vocabulary of the given size.
    ///
    /// # Panics
    ///
    /// Panics if a token id is `>= vocab_size`.
    pub fn token_counts(&self, vocab_size: usize) -> Vec<u64> {
        let mut counts = vec![0u64; vocab_size];
        for doc in &self.docs {
            for &w in doc {
                counts[w as usize] += 1;
            }
        }
        counts
    }
}

impl LatentModel {
    /// Samples a corpus of at least `config.n_tokens` tokens.
    ///
    /// Each document draws `topics_per_doc` distinct topics with
    /// exponential mixture weights plus a random latent noise vector of
    /// norm `doc_noise`; tokens are then drawn from the softmax word
    /// distribution around the resulting document vector. The noise gives
    /// the co-occurrence statistics full `latent_dim` rank (natural
    /// corpora are not rank-K), which the paper's eigenspace measures rely
    /// on.
    ///
    /// Generation is split in two (see [`LatentModel::sample_documents`]).
    /// A serial plan walks the seeded stream and draws each document's
    /// length, topics and noise; the words, which hold almost all the
    /// cost, are then sampled on the worker pool. Every word takes
    /// exactly one draw, so the plan knows where each document's words
    /// start, and the corpus is bitwise that of drawing the documents in
    /// turn, at any pool width.
    ///
    /// # Panics
    ///
    /// Panics if `topics_per_doc` is zero or exceeds the model's topic count.
    pub fn generate_corpus(&self, config: &CorpusConfig) -> Corpus {
        assert!(config.topics_per_doc > 0, "topics_per_doc must be positive");
        assert!(
            config.topics_per_doc <= self.n_topics(),
            "topics_per_doc exceeds the number of topics"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let d = self.word_vecs.cols();
        let mut total = 0usize;
        let lo = (config.doc_len_mean / 2).max(2);
        let hi = config.doc_len_mean + config.doc_len_mean / 2;
        let docs = self.sample_documents(config.temperature, &mut rng, |rng| {
            if total >= config.n_tokens {
                return None;
            }
            let len = rng.random_range(lo..=hi.max(lo));
            let (topics, weights) = sample_doc_mixture(self, config.topics_per_doc, rng);
            // Document vector: topic mixture plus fixed-norm latent noise.
            let mut h = vec![0.0; d];
            for (&k, &w) in topics.iter().zip(&weights) {
                embedstab_linalg::vecops::axpy(w, self.topic_centers.row(k), &mut h);
            }
            if config.doc_noise > 0.0 {
                let mut g = embedstab_linalg::Mat::random_normal(1, d, rng).into_vec();
                embedstab_linalg::vecops::normalize(&mut g);
                embedstab_linalg::vecops::axpy(config.doc_noise, &g, &mut h);
            }
            total += len;
            Some(DocPlan::reserve(h, len, rng))
        });
        Corpus {
            docs,
            n_tokens: total,
        }
    }
}

fn sample_doc_mixture(
    model: &LatentModel,
    topics_per_doc: usize,
    rng: &mut impl Rng,
) -> (Vec<usize>, Vec<f64>) {
    let k = model.n_topics();
    let mut topics = Vec::with_capacity(topics_per_doc);
    while topics.len() < topics_per_doc {
        let t = rng.random_range(0..k);
        if !topics.contains(&t) {
            topics.push(t);
        }
    }
    // Dirichlet(1, ..., 1) via normalized exponentials.
    let mut weights: Vec<f64> = (0..topics_per_doc)
        .map(|_| -(rng.random_range(f64::MIN_POSITIVE..1.0f64)).ln())
        .collect();
    let total: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= total;
    }
    (topics, weights)
}

/// Configuration for building a "Wiki'17 / Wiki'18" corpus pair.
#[derive(Clone, Debug, Default)]
pub struct TemporalPairConfig {
    /// The shared latent model.
    pub model: LatentModelConfig,
    /// How the latent space drifts between years.
    pub drift: DriftConfig,
    /// Corpus sampling parameters for the '17 corpus.
    pub corpus: CorpusConfig,
    /// Fractional extra tokens in the '18 corpus (the paper observes 15%
    /// disagreement from accumulating just 1% more data).
    pub extra_token_frac: f64,
}

/// A pair of corpora standing in for Wiki'17 and Wiki'18, plus the latent
/// models that generated them.
#[derive(Clone, Debug)]
pub struct TemporalPair {
    /// The '17 ("base year") latent model.
    pub model17: LatentModel,
    /// The '18 model: the base model after [`DriftConfig`] perturbation.
    pub model18: LatentModel,
    /// Corpus sampled from the '17 model, shared with the statistics
    /// counted from it.
    pub corpus17: Arc<Corpus>,
    /// Corpus sampled from the '18 model (re-seeded, optionally larger).
    pub corpus18: Arc<Corpus>,
}

impl TemporalPair {
    /// Appends the pair to `out` in the world-cache byte layout: both
    /// latent models, then both corpora.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.model17.encode_into(out);
        self.model18.encode_into(out);
        self.corpus17.encode_into(out);
        self.corpus18.encode_into(out);
    }

    /// Reads one [`TemporalPair::encode_into`]-encoded pair from the
    /// front of `r`, advancing it. Returns `None` on truncated or
    /// inconsistent input (including corpora whose tokens fall outside the
    /// models' shared vocabulary).
    pub fn decode_from(r: &mut &[u8]) -> Option<TemporalPair> {
        let model17 = LatentModel::decode_from(r)?;
        let model18 = LatentModel::decode_from(r)?;
        let corpus17 = Corpus::decode_from(r)?;
        let corpus18 = Corpus::decode_from(r)?;
        let vocab = model17.vocab_size();
        if model18.vocab_size() != vocab {
            return None;
        }
        for corpus in [&corpus17, &corpus18] {
            for doc in corpus.docs() {
                if doc.iter().any(|&w| (w as usize) >= vocab) {
                    return None;
                }
            }
        }
        Some(TemporalPair {
            model17,
            model18,
            corpus17: Arc::new(corpus17),
            corpus18: Arc::new(corpus18),
        })
    }

    /// Builds the pair deterministically from its configuration.
    pub fn build(config: &TemporalPairConfig) -> Self {
        let model17 = LatentModel::new(&config.model);
        let model18 = model17.drifted(&config.drift);
        let corpus17 = model17.generate_corpus(&config.corpus);
        let mut cfg18 = config.corpus.clone();
        cfg18.n_tokens =
            ((config.corpus.n_tokens as f64) * (1.0 + config.extra_token_frac)).round() as usize;
        cfg18.seed = config.corpus.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let corpus18 = model18.generate_corpus(&cfg18);
        TemporalPair {
            model17,
            model18,
            corpus17: Arc::new(corpus17),
            corpus18: Arc::new(corpus18),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_docs_matches_from_docs_and_fingerprints_by_content() {
        let all = vec![vec![0u32, 1, 2], vec![3, 1], vec![2, 2, 0, 3]];
        let whole = Corpus::from_docs(all.clone());
        let mut grown = Corpus::from_docs(vec![all[0].clone()]);
        grown.append_docs(all[1..].to_vec());
        assert_eq!(grown.n_tokens(), whole.n_tokens());
        assert_eq!(grown.docs(), whole.docs());
        assert_eq!(grown.content_fingerprint(), whole.content_fingerprint());
        // Content changes move the fingerprint; doc-boundary changes do too
        // (the same tokens split differently count differently).
        let mut other = Corpus::from_docs(all.clone());
        other.append_docs(vec![vec![1]]);
        assert_ne!(other.content_fingerprint(), whole.content_fingerprint());
        let merged = Corpus::from_docs(vec![all.concat()]);
        assert_ne!(merged.content_fingerprint(), whole.content_fingerprint());
    }

    #[test]
    fn state_fingerprint_covers_config_and_vocab() {
        use crate::cooc::CoocConfig;
        let corpus = Corpus::from_docs(vec![vec![0u32, 1, 2], vec![3, 1]]);
        let base = CoocConfig {
            window: 4,
            distance_weighting: false,
        };
        let fp = corpus_state_fingerprint(&corpus, 4, &base);
        assert_eq!(fp, corpus_state_fingerprint(&corpus, 4, &base));
        assert_ne!(fp, corpus_state_fingerprint(&corpus, 5, &base));
        assert_ne!(
            fp,
            corpus_state_fingerprint(&corpus, 4, &CoocConfig { window: 5, ..base })
        );
        assert_ne!(
            fp,
            corpus_state_fingerprint(
                &corpus,
                4,
                &CoocConfig {
                    distance_weighting: true,
                    ..base
                }
            )
        );
    }

    fn model() -> LatentModel {
        LatentModel::new(&LatentModelConfig {
            vocab_size: 200,
            n_topics: 5,
            ..Default::default()
        })
    }

    #[test]
    fn corpus_meets_token_budget() {
        let m = model();
        let c = m.generate_corpus(&CorpusConfig {
            n_tokens: 5000,
            ..Default::default()
        });
        assert!(c.n_tokens() >= 5000);
        assert!(c.n_tokens() < 5000 + 100); // at most one extra document
        assert_eq!(c.n_tokens(), c.docs().iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn tokens_in_vocab_range() {
        let m = model();
        let c = m.generate_corpus(&CorpusConfig {
            n_tokens: 2000,
            ..Default::default()
        });
        for doc in c.docs() {
            for &w in doc {
                assert!((w as usize) < m.vocab_size());
            }
        }
    }

    #[test]
    fn same_seed_same_corpus() {
        let m = model();
        let cfg = CorpusConfig {
            n_tokens: 3000,
            seed: 7,
            ..Default::default()
        };
        let a = m.generate_corpus(&cfg);
        let b = m.generate_corpus(&cfg);
        assert_eq!(a.docs(), b.docs());
    }

    #[test]
    fn different_seed_different_corpus() {
        let m = model();
        let a = m.generate_corpus(&CorpusConfig {
            n_tokens: 3000,
            seed: 7,
            ..Default::default()
        });
        let b = m.generate_corpus(&CorpusConfig {
            n_tokens: 3000,
            seed: 8,
            ..Default::default()
        });
        assert_ne!(a.docs(), b.docs());
    }

    #[test]
    fn frequent_words_are_frequent() {
        // Word ids are frequency-ordered in the latent model; the corpus
        // should roughly respect that ordering in aggregate.
        let m = model();
        let c = m.generate_corpus(&CorpusConfig {
            n_tokens: 100_000,
            ..Default::default()
        });
        let counts = c.token_counts(m.vocab_size());
        let head: u64 = counts[..20].iter().sum();
        let tail: u64 = counts[m.vocab_size() - 20..].iter().sum();
        assert!(head > 5 * tail, "head {head} should dwarf tail {tail}");
    }

    #[test]
    fn temporal_pair_codec_round_trips() {
        let pair = TemporalPair::build(&TemporalPairConfig {
            model: LatentModelConfig {
                vocab_size: 120,
                n_topics: 6,
                ..Default::default()
            },
            corpus: CorpusConfig {
                n_tokens: 1500,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut bytes = Vec::new();
        pair.encode_into(&mut bytes);
        let r = &mut bytes.as_slice();
        let back = TemporalPair::decode_from(r).expect("decodes");
        assert!(r.is_empty());
        assert_eq!(back.model17.word_vecs, pair.model17.word_vecs);
        assert_eq!(back.model18.word_vecs, pair.model18.word_vecs);
        assert_eq!(back.corpus17.docs(), pair.corpus17.docs());
        assert_eq!(back.corpus18.docs(), pair.corpus18.docs());
        assert_eq!(back.corpus18.n_tokens(), pair.corpus18.n_tokens());
    }

    #[test]
    fn temporal_pair_respects_extra_tokens() {
        let cfg = TemporalPairConfig {
            model: LatentModelConfig {
                vocab_size: 150,
                ..Default::default()
            },
            corpus: CorpusConfig {
                n_tokens: 4000,
                ..Default::default()
            },
            extra_token_frac: 0.25,
            ..Default::default()
        };
        let pair = TemporalPair::build(&cfg);
        assert!(pair.corpus18.n_tokens() as f64 >= 1.25 * 4000.0);
        // Drift must have changed some latent vectors.
        assert_ne!(pair.model17.word_vecs, pair.model18.word_vecs);
    }
}
