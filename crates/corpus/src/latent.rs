//! The latent semantic ground truth behind the synthetic corpora.

use embedstab_linalg::{pool, vecops, Mat};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::alias::AliasTable;
use crate::codec;
use crate::vocab::Vocab;

/// Configuration for a [`LatentModel`].
#[derive(Clone, Debug)]
pub struct LatentModelConfig {
    /// Vocabulary size `n`. Word ids are ordered by unigram frequency, most
    /// frequent first, matching the paper's "top-m most frequent words"
    /// convention for measures.
    pub vocab_size: usize,
    /// Dimension `D` of the latent semantic space.
    pub latent_dim: usize,
    /// Number of topic centers `K`.
    pub n_topics: usize,
    /// Euclidean norm of each topic center.
    pub topic_scale: f64,
    /// Standard deviation of the word-specific offset from its topic center.
    pub word_noise: f64,
    /// Zipf exponent for unigram frequencies (`freq_i ∝ 1/(i+1)^s`).
    pub zipf_exponent: f64,
    /// Softmax temperature of `p(word | topic)`; lower = more topical.
    pub temperature: f64,
    /// RNG seed for the model itself.
    pub seed: u64,
}

impl Default for LatentModelConfig {
    fn default() -> Self {
        LatentModelConfig {
            vocab_size: 1000,
            latent_dim: 16,
            n_topics: 20,
            topic_scale: 2.0,
            word_noise: 0.6,
            zipf_exponent: 1.05,
            temperature: 1.0,
            seed: 0,
        }
    }
}

/// How the latent space changes between the "Wiki'17" and "Wiki'18" corpora.
///
/// This is the substitution for a year of real-world edits: a fraction of
/// words move in latent space (semantic drift) while everything else stays
/// fixed, and the newer corpus is re-sampled (see
/// [`TemporalPairConfig`](crate::TemporalPairConfig) for the extra-token
/// knob).
#[derive(Clone, Debug)]
pub struct DriftConfig {
    /// Fraction of the vocabulary whose latent vectors drift.
    pub drifted_fraction: f64,
    /// Standard deviation of the Gaussian drift added to each drifted word.
    pub drift_sigma: f64,
    /// RNG seed for selecting and perturbing the drifted words.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            drifted_fraction: 0.1,
            drift_sigma: 0.8,
            seed: 1,
        }
    }
}

/// The latent semantic space: topic centers, per-word latent vectors,
/// Zipfian unigram frequencies, and per-topic word distributions.
///
/// A `LatentModel` is the *ground truth* that both the corpora and the
/// downstream tasks are generated from; word embeddings trained on the
/// generated corpora estimate `word_vecs` up to rotation.
#[derive(Clone, Debug)]
pub struct LatentModel {
    config: LatentModelConfig,
    /// `n x D` matrix of word latent vectors.
    pub word_vecs: Mat,
    /// `K x D` matrix of topic centers.
    pub topic_centers: Mat,
    /// Topic assignment of each word.
    pub word_topics: Vec<usize>,
    /// Normalized Zipfian unigram distribution (non-increasing in word id).
    pub unigram: Vec<f64>,
    /// Synthetic vocabulary strings.
    pub vocab: Vocab,
    topic_tables: Vec<AliasTable>,
}

impl LatentModel {
    /// Builds a latent model from its configuration (deterministic given the
    /// seed).
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size`, `latent_dim`, or `n_topics` is zero.
    pub fn new(config: &LatentModelConfig) -> Self {
        assert!(config.vocab_size > 0, "vocab_size must be positive");
        assert!(config.latent_dim > 0, "latent_dim must be positive");
        assert!(config.n_topics > 0, "n_topics must be positive");
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let (n, d, k) = (config.vocab_size, config.latent_dim, config.n_topics);

        let mut topic_centers = Mat::random_normal(k, d, &mut rng);
        for t in 0..k {
            let row = topic_centers.row_mut(t);
            vecops::normalize(row);
            vecops::scale(config.topic_scale, row);
        }

        let word_topics: Vec<usize> = (0..n).map(|_| rng.random_range(0..k)).collect();
        let noise = Mat::random_normal(n, d, &mut rng);
        let word_vecs = Mat::from_fn(n, d, |i, j| {
            topic_centers[(word_topics[i], j)] + config.word_noise * noise[(i, j)]
        });

        let mut unigram: Vec<f64> = (0..n)
            .map(|i| 1.0 / ((i + 1) as f64).powf(config.zipf_exponent))
            .collect();
        let total: f64 = unigram.iter().sum();
        for u in unigram.iter_mut() {
            *u /= total;
        }

        let vocab = Vocab::synthetic(&word_topics);
        let topic_tables = build_topic_tables(&word_vecs, &topic_centers, &unigram, config);

        LatentModel {
            config: config.clone(),
            word_vecs,
            topic_centers,
            word_topics,
            unigram,
            vocab,
            topic_tables,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &LatentModelConfig {
        &self.config
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.config.vocab_size
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.config.n_topics
    }

    /// Samples a word id from topic `k`'s word distribution.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n_topics`.
    pub fn sample_word(&self, k: usize, rng: &mut impl Rng) -> u32 {
        self.topic_tables[k].sample(rng) as u32
    }

    /// Builds a sampler over words given an arbitrary document vector `h`:
    /// `p(w) ∝ unigram_w * exp(theta_w . h / tau)`.
    ///
    /// This is how both corpus documents and downstream sentences draw
    /// their tokens, so the full `latent_dim`-dimensional geometry — not
    /// just the K topic directions — shapes co-occurrence statistics,
    /// giving the corpus the high intrinsic rank natural language has.
    ///
    /// # Panics
    ///
    /// Panics if `h` does not have `latent_dim` entries or `tau <= 0`.
    pub fn word_sampler(&self, h: &[f64], tau: f64) -> WordSampler {
        assert_eq!(
            h.len(),
            self.config.latent_dim,
            "document vector dimension mismatch"
        );
        assert!(tau > 0.0, "temperature must be positive");
        let n = self.config.vocab_size;
        // Each logit is bitwise `dot(word_vecs.row(w), h)`, eight chains
        // side by side rather than one after another.
        let mut logits = vec![0.0; n];
        vecops::dot_rows(&mut logits, h, |w| self.word_vecs.row(w));
        let mut max_logit = f64::NEG_INFINITY;
        for l in logits.iter_mut() {
            *l /= tau;
            max_logit = max_logit.max(*l);
        }
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for (w, l) in logits.into_iter().enumerate() {
            total += self.unigram[w] * (l - max_logit).exp();
            cumulative.push(total);
        }
        WordSampler { cumulative, total }
    }

    /// Generates documents in two phases: a serial plan and a parallel
    /// sampling of the planned words.
    ///
    /// `plan` is called on the live `rng` until it returns `None`. Each
    /// call makes the document's draws in the generator's own order and
    /// ends its word draws with [`DocPlan::reserve`], which records where
    /// they start and advances `rng` past them. The planned documents are
    /// then sampled on the worker pool, each from its recorded stream, so
    /// the result is bitwise that of drawing every document in turn, at
    /// any pool width. Plans are taken in batches of `PLAN_BATCH`, which
    /// bounds the document vectors held at once.
    ///
    /// # Panics
    ///
    /// Panics if a plan's vector does not have `latent_dim` entries or
    /// `tau <= 0` (see [`LatentModel::word_sampler`]).
    pub fn sample_documents(
        &self,
        tau: f64,
        rng: &mut StdRng,
        mut plan: impl FnMut(&mut StdRng) -> Option<DocPlan>,
    ) -> Vec<Vec<u32>> {
        let mut docs = Vec::new();
        loop {
            let batch: Vec<DocPlan> = std::iter::from_fn(|| plan(rng)).take(PLAN_BATCH).collect();
            let done = batch.len() < PLAN_BATCH;
            docs.extend(pool::parallel_map(&batch, |p| {
                let mut rng = p.rng.clone();
                self.word_sampler(&p.h, tau).sample_many(p.len, &mut rng)
            }));
            if done {
                return docs;
            }
        }
    }

    /// Ground-truth cosine similarity between two words' latent vectors.
    pub fn latent_similarity(&self, i: u32, j: u32) -> f64 {
        vecops::cosine_similarity(
            self.word_vecs.row(i as usize),
            self.word_vecs.row(j as usize),
        )
    }

    /// Appends the model to `out` in the world-cache byte layout: the
    /// configuration scalars, then `word_vecs`, `topic_centers`,
    /// `word_topics`, and `unigram`. The vocabulary and the per-topic
    /// sampling tables are **not** stored: both are deterministic
    /// functions of the stored fields and are rebuilt on decode, exactly
    /// as [`LatentModel::new`] builds them.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let c = &self.config;
        codec::put_u64(out, c.vocab_size as u64);
        codec::put_u64(out, c.latent_dim as u64);
        codec::put_u64(out, c.n_topics as u64);
        codec::put_f64(out, c.topic_scale);
        codec::put_f64(out, c.word_noise);
        codec::put_f64(out, c.zipf_exponent);
        codec::put_f64(out, c.temperature);
        codec::put_u64(out, c.seed);
        codec::put_mat(out, &self.word_vecs);
        codec::put_mat(out, &self.topic_centers);
        codec::put_u64_slice(
            out,
            &self
                .word_topics
                .iter()
                .map(|&t| t as u64)
                .collect::<Vec<_>>(),
        );
        codec::put_f64_slice(out, &self.unigram);
    }

    /// Reads one [`LatentModel::encode_into`]-encoded model from the front
    /// of `r`, advancing it. Returns `None` on truncated or inconsistent
    /// input (shape mismatches, out-of-range topic assignments). The
    /// decoded model is bitwise equivalent to the encoded one: same latent
    /// vectors, same vocabulary, same sampling tables.
    pub fn decode_from(r: &mut &[u8]) -> Option<LatentModel> {
        let config = LatentModelConfig {
            vocab_size: usize::try_from(codec::take_u64(r)?).ok()?,
            latent_dim: usize::try_from(codec::take_u64(r)?).ok()?,
            n_topics: usize::try_from(codec::take_u64(r)?).ok()?,
            topic_scale: codec::take_f64(r)?,
            word_noise: codec::take_f64(r)?,
            zipf_exponent: codec::take_f64(r)?,
            temperature: codec::take_f64(r)?,
            seed: codec::take_u64(r)?,
        };
        let word_vecs = codec::take_mat(r)?;
        let topic_centers = codec::take_mat(r)?;
        let word_topics: Vec<usize> = codec::take_u64_slice(r)?
            .into_iter()
            .map(|t| usize::try_from(t).ok())
            .collect::<Option<_>>()?;
        let unigram = codec::take_f64_slice(r)?;
        let (n, d, k) = (config.vocab_size, config.latent_dim, config.n_topics);
        if n == 0
            || d == 0
            || k == 0
            || word_vecs.shape() != (n, d)
            || topic_centers.shape() != (k, d)
            || word_topics.len() != n
            || unigram.len() != n
            || word_topics.iter().any(|&t| t >= k)
        {
            return None;
        }
        // Semantic validation, so corrupt-but-well-shaped bytes stay a
        // cache miss rather than a panic: rebuilding the sampling tables
        // feeds `unigram * exp(dot(vec, center)/temperature - max)` into
        // `AliasTable::new`, which asserts non-negative finite weights
        // with a positive sum. The bounds below guarantee that
        // arithmetically — and every legitimately encoded model (vectors
        // of magnitude O(10), a normalized positive unigram, temperature
        // near 1) sits far inside them.
        let bounded = |m: &Mat| {
            m.as_slice()
                .iter()
                .all(|x| x.is_finite() && x.abs() <= 1e100)
        };
        if !bounded(&word_vecs)
            || !bounded(&topic_centers)
            || !unigram.iter().all(|&u| u > 0.0 && u <= 1.0)
            || !(config.temperature.is_finite() && (1e-6..=1e6).contains(&config.temperature))
        {
            return None;
        }
        let vocab = Vocab::synthetic(&word_topics);
        let topic_tables = build_topic_tables(&word_vecs, &topic_centers, &unigram, &config);
        Some(LatentModel {
            config,
            word_vecs,
            topic_centers,
            word_topics,
            unigram,
            vocab,
            topic_tables,
        })
    }

    /// Returns a drifted copy of the model: the "Wiki'18" latent space.
    ///
    /// A `drifted_fraction` of words receive Gaussian perturbations of their
    /// latent vectors; the per-topic word distributions are rebuilt. Word
    /// ids, strings, topics, and unigram frequencies are unchanged, so
    /// embeddings trained on corpora from the two models are row-aligned.
    pub fn drifted(&self, drift: &DriftConfig) -> LatentModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(drift.seed);
        let n = self.config.vocab_size;
        let n_drift = ((n as f64) * drift.drifted_fraction).round() as usize;
        let mut indices: Vec<usize> = (0..n).collect();
        // Partial Fisher-Yates: the first n_drift entries are a uniform sample.
        for i in 0..n_drift.min(n.saturating_sub(1)) {
            let j = rng.random_range(i..n);
            indices.swap(i, j);
        }
        let mut word_vecs = self.word_vecs.clone();
        let d = self.config.latent_dim;
        for &w in indices.iter().take(n_drift) {
            let delta = Mat::random_normal(1, d, &mut rng);
            let row = word_vecs.row_mut(w);
            for (r, &dx) in row.iter_mut().zip(delta.row(0)) {
                *r += drift.drift_sigma * dx;
            }
        }
        let topic_tables =
            build_topic_tables(&word_vecs, &self.topic_centers, &self.unigram, &self.config);
        LatentModel {
            config: self.config.clone(),
            word_vecs,
            topic_centers: self.topic_centers.clone(),
            word_topics: self.word_topics.clone(),
            unigram: self.unigram.clone(),
            vocab: self.vocab.clone(),
            topic_tables,
        }
    }
}

/// How many documents [`LatentModel::sample_documents`] plans before it
/// samples them: at Paper scale the planned vectors stay near 2 MB.
const PLAN_BATCH: usize = 256;

/// One planned document: its vector, its length, and the random stream
/// its words are drawn from (see [`LatentModel::sample_documents`]).
#[derive(Clone, Debug)]
pub struct DocPlan {
    h: Vec<f64>,
    len: usize,
    rng: StdRng,
}

impl DocPlan {
    /// Plans `len` words around the document vector `h`, drawn from the
    /// next `len` outputs of `rng`, and advances `rng` past them.
    ///
    /// This leaves `rng` where drawing the words in place would have:
    /// [`WordSampler::sample`] takes exactly one `next_u64` per word.
    pub fn reserve(h: Vec<f64>, len: usize, rng: &mut StdRng) -> DocPlan {
        let plan = DocPlan {
            h,
            len,
            rng: rng.clone(),
        };
        for _ in 0..len {
            rng.next_u64();
        }
        plan
    }
}

/// A cumulative-distribution sampler over the vocabulary for one document
/// vector (see [`LatentModel::word_sampler`]).
#[derive(Clone, Debug)]
pub struct WordSampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl WordSampler {
    /// Draws one word id, taking exactly one `next_u64` from `rng`
    /// ([`DocPlan::reserve`] relies on it).
    pub fn sample(&self, rng: &mut impl Rng) -> u32 {
        let u: f64 = rng.random_range(0.0..self.total);
        let idx = self.cumulative.partition_point(|&c| c <= u);
        idx.min(self.cumulative.len() - 1) as u32
    }

    /// Draws `len` word ids.
    pub fn sample_many(&self, len: usize, rng: &mut impl Rng) -> Vec<u32> {
        (0..len).map(|_| self.sample(rng)).collect()
    }
}

fn build_topic_tables(
    word_vecs: &Mat,
    topic_centers: &Mat,
    unigram: &[f64],
    config: &LatentModelConfig,
) -> Vec<AliasTable> {
    let n = word_vecs.rows();
    (0..topic_centers.rows())
        .map(|k| {
            let center = topic_centers.row(k);
            let mut logits: Vec<f64> = (0..n)
                .map(|w| vecops::dot(word_vecs.row(w), center) / config.temperature)
                .collect();
            let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for (l, u) in logits.iter_mut().zip(unigram) {
                *l = u * (*l - max).exp();
            }
            AliasTable::new(&logits)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> LatentModel {
        LatentModel::new(&LatentModelConfig {
            vocab_size: 300,
            n_topics: 6,
            ..Default::default()
        })
    }

    #[test]
    fn unigram_is_normalized_and_decreasing() {
        let m = small_model();
        let sum: f64 = m.unigram.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for w in m.unigram.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn words_cluster_near_their_topic() {
        let m = small_model();
        let mut own_closer = 0usize;
        for w in 0..m.vocab_size() {
            let own = m.word_topics[w];
            let d_own = vecops::sq_distance(m.word_vecs.row(w), m.topic_centers.row(own));
            let mut min_other = f64::INFINITY;
            for t in 0..m.n_topics() {
                if t != own {
                    let d = vecops::sq_distance(m.word_vecs.row(w), m.topic_centers.row(t));
                    min_other = min_other.min(d);
                }
            }
            if d_own < min_other {
                own_closer += 1;
            }
        }
        // With word_noise well below inter-center distance, most words stay
        // closest to their own topic.
        assert!(own_closer as f64 > 0.7 * m.vocab_size() as f64);
    }

    #[test]
    fn topic_sampling_prefers_topical_words() {
        use rand::SeedableRng;
        let m = small_model();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let k = 2;
        let mut hits = 0usize;
        let draws = 5000;
        for _ in 0..draws {
            let w = m.sample_word(k, &mut rng) as usize;
            if m.word_topics[w] == k {
                hits += 1;
            }
        }
        // Baseline for uniform topics would be ~1/6; topical sampling should
        // be far above that.
        assert!(hits as f64 / draws as f64 > 0.3, "hits = {hits}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_model();
        let b = small_model();
        assert_eq!(a.word_vecs, b.word_vecs);
        assert_eq!(a.word_topics, b.word_topics);
    }

    #[test]
    fn drift_changes_only_a_fraction() {
        let m = small_model();
        let drifted = m.drifted(&DriftConfig {
            drifted_fraction: 0.2,
            drift_sigma: 1.0,
            seed: 9,
        });
        let mut changed = 0usize;
        for w in 0..m.vocab_size() {
            if m.word_vecs.row(w) != drifted.word_vecs.row(w) {
                changed += 1;
            }
        }
        assert_eq!(changed, (0.2f64 * 300.0).round() as usize);
        assert_eq!(m.unigram, drifted.unigram);
        assert_eq!(m.word_topics, drifted.word_topics);
    }

    #[test]
    fn codec_round_trips_model_and_samplers() {
        let m = small_model().drifted(&DriftConfig::default());
        let mut bytes = Vec::new();
        m.encode_into(&mut bytes);
        let r = &mut bytes.as_slice();
        let back = LatentModel::decode_from(r).expect("decodes");
        assert!(r.is_empty());
        assert_eq!(back.word_vecs, m.word_vecs);
        assert_eq!(back.topic_centers, m.topic_centers);
        assert_eq!(back.word_topics, m.word_topics);
        assert_eq!(back.unigram, m.unigram);
        assert_eq!(back.config().seed, m.config().seed);
        for i in 0..m.vocab_size() as u32 {
            assert_eq!(back.vocab.word(i), m.vocab.word(i));
        }
        // The rebuilt sampling tables draw identical sequences.
        let mut ra = rand::rngs::StdRng::seed_from_u64(11);
        let mut rb = rand::rngs::StdRng::seed_from_u64(11);
        for k in 0..m.n_topics() {
            for _ in 0..50 {
                assert_eq!(m.sample_word(k, &mut ra), back.sample_word(k, &mut rb));
            }
        }
        for cut in 0..bytes.len().min(200) {
            assert!(LatentModel::decode_from(&mut &bytes[..cut]).is_none());
        }
    }

    #[test]
    fn corrupt_floats_are_a_miss_not_a_panic() {
        let m = small_model();
        let mut bytes = Vec::new();
        m.encode_into(&mut bytes);
        // The unigram slice is the final section; smashing the last
        // value's top byte produces a negative/NaN weight, which must be
        // rejected before the sampling tables are rebuilt (AliasTable
        // asserts on bad weights — a corrupt cache file must decode to
        // None, never panic).
        let n = bytes.len();
        let mut corrupt = bytes.clone();
        corrupt[n - 1] = 0xFF;
        assert!(LatentModel::decode_from(&mut corrupt.as_slice()).is_none());
        // Same for a non-finite latent vector entry: word_vecs starts
        // right after the 8 config scalars (mat header = 8 bytes).
        let vec_region = 8 * 8 + 8;
        let mut corrupt = bytes.clone();
        for b in corrupt[vec_region..vec_region + 8].iter_mut() {
            *b = 0xFF; // 0xFFFF... = a negative NaN
        }
        assert!(LatentModel::decode_from(&mut corrupt.as_slice()).is_none());
        // And an insane temperature (division hazard in the softmax).
        let mut corrupt = bytes;
        corrupt[6 * 8..7 * 8].copy_from_slice(&1e-300f64.to_le_bytes());
        assert!(LatentModel::decode_from(&mut corrupt.as_slice()).is_none());
    }

    #[test]
    fn sample_many_takes_one_draw_per_word() {
        let m = small_model();
        let sampler = m.word_sampler(&vec![0.3; m.config().latent_dim], 1.0);
        for len in [0usize, 1, 37] {
            let mut rng = StdRng::seed_from_u64(len as u64);
            let mut skipped = rng.clone();
            assert_eq!(sampler.sample_many(len, &mut rng).len(), len);
            for _ in 0..len {
                skipped.next_u64();
            }
            assert_eq!(rng.next_u64(), skipped.next_u64(), "len {len}");
        }
    }

    #[test]
    fn planned_documents_match_drawing_them_in_turn() {
        // Enough documents to cross several plan batches, with a draw
        // after each document's words, as the sentiment generator makes.
        let m = small_model();
        let d = m.config().latent_dim;
        let n_docs = 2 * PLAN_BATCH + 37;
        let draw_doc = |rng: &mut StdRng| {
            let h = Mat::random_normal(1, d, rng).into_vec();
            let len = rng.random_range(0..9usize);
            (h, len)
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut serial = Vec::new();
        for _ in 0..n_docs {
            let (h, len) = draw_doc(&mut rng);
            serial.push(m.word_sampler(&h, 0.8).sample_many(len, &mut rng));
            rng.next_u64();
        }
        let serial_next = rng.next_u64();

        let mut rng = StdRng::seed_from_u64(3);
        let mut planned = 0;
        let docs = m.sample_documents(0.8, &mut rng, |rng| {
            if planned == n_docs {
                return None;
            }
            planned += 1;
            let (h, len) = draw_doc(rng);
            let plan = DocPlan::reserve(h, len, rng);
            rng.next_u64();
            Some(plan)
        });
        assert_eq!(docs, serial);
        assert_eq!(rng.next_u64(), serial_next);
    }

    #[test]
    fn zero_drift_is_identity_on_vectors() {
        let m = small_model();
        let drifted = m.drifted(&DriftConfig {
            drifted_fraction: 0.0,
            drift_sigma: 1.0,
            seed: 9,
        });
        assert_eq!(m.word_vecs, drifted.word_vecs);
    }
}
