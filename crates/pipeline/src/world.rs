//! The experiment "world": the corpus pair, corpus statistics, and
//! downstream datasets, built once and shared by every run.

use std::sync::Arc;

use embedstab_corpus::{
    CorpusConfig, DriftConfig, LatentModelConfig, TemporalPair, TemporalPairConfig, Vocab,
};
use embedstab_downstream::tasks::ner::{NerDataset, NerSpec};
use embedstab_downstream::tasks::sentiment::{SentimentDataset, SentimentSpec};
use embedstab_embeddings::CorpusStats;

use crate::scale::ScaleParams;

/// A stable fingerprint of everything that determines a trained
/// embedding pair's values: the corpus-shaping scale parameters and the
/// master seed. Two worlds with equal fingerprints train bitwise-equal
/// embeddings for the same `(algo, dim, seed)`, which makes it the world
/// component of the on-disk pair-cache key ([`World::fingerprint`]).
///
/// Deliberately **narrower** than the world-cache key
/// ([`crate::world_cache::world_fingerprint`]), which must also cover the
/// dataset-shaping parameters: a trained pair is reusable across a
/// `sentiment_train` change, but a cached world (which embeds the
/// datasets) is not.
pub fn pair_fingerprint(params: &ScaleParams, master_seed: u64) -> u64 {
    // FNV-1a over the corpus-determining fields, in a fixed order.
    embedstab_corpus::codec::Fnv64::new()
        .write_u64(master_seed)
        .write_u64(params.vocab_size as u64)
        .write_u64(params.n_topics as u64)
        .write_u64(params.latent_dim as u64)
        .write_u64(params.corpus_tokens as u64)
        .write_u64(params.window as u64)
        .finish()
}

/// Everything that is fixed across an experiment: the Wiki'17/Wiki'18
/// corpus pair (and their trainer statistics) plus the downstream
/// datasets, which are generated from the *base* latent model so the
/// downstream data does not change between years (as in the paper).
pub struct World {
    /// Scale parameters the world was built with.
    pub params: ScaleParams,
    /// Master seed the world was built with (part of the cache identity).
    pub master_seed: u64,
    /// The corpus pair and latent models.
    pub pair: TemporalPair,
    /// Trainer statistics for the '17 corpus.
    pub stats17: CorpusStats,
    /// Trainer statistics for the '18 corpus.
    pub stats18: CorpusStats,
    /// The four sentiment datasets (sst2, mr, subj, mpqa), shared with
    /// [`SentimentTask`](embedstab_downstream::SentimentTask) values.
    pub sentiment: Vec<Arc<SentimentDataset>>,
    /// The NER dataset, shared with
    /// [`NerTask`](embedstab_downstream::NerTask) values.
    pub ner: Arc<NerDataset>,
}

impl World {
    /// Builds a world deterministically from scale parameters and a master
    /// seed (which offsets the corpus/model seeds so different worlds are
    /// independent).
    pub fn build(params: &ScaleParams, master_seed: u64) -> World {
        // Per-coordinate noise scales keep vector norms constant across
        // latent dimensions (defaults were calibrated at D = 16).
        let dim_scale = (16.0 / params.latent_dim as f64).sqrt();
        let cfg = TemporalPairConfig {
            model: LatentModelConfig {
                vocab_size: params.vocab_size,
                latent_dim: params.latent_dim,
                n_topics: params.n_topics,
                word_noise: 0.6 * dim_scale,
                seed: master_seed,
                ..Default::default()
            },
            drift: DriftConfig {
                drift_sigma: 0.8 * dim_scale,
                seed: master_seed.wrapping_add(1),
                ..Default::default()
            },
            corpus: CorpusConfig {
                n_tokens: params.corpus_tokens,
                seed: master_seed.wrapping_add(2),
                ..Default::default()
            },
            // The paper motivates with "1% more data"; a visible default.
            extra_token_frac: 0.02,
        };
        let pair = TemporalPair::build(&cfg);
        // The two statistics stay serial, so only one count's scratch maps
        // are live at a time. Joined on the pool, the pair took 0.14-0.20 s
        // instead of 0.28-0.37 s at Small on 2 vCPUs, but peak RSS rose
        // from ~52 MB to ~72 MB. The corpora and datasets above and below
        // already sample their words on the pool.
        let stats17 = CorpusStats::compute(pair.corpus17.clone(), params.vocab_size, params.window);
        let stats18 = CorpusStats::compute(pair.corpus18.clone(), params.vocab_size, params.window);
        let sentiment = SentimentSpec::all_four()
            .into_iter()
            .map(|mut spec| {
                spec.n_train = params.sentiment_train;
                spec.n_valid = (params.sentiment_train / 5).max(20);
                spec.n_test = params.sentiment_test;
                Arc::new(spec.generate(&pair.model17))
            })
            .collect();
        let ner = Arc::new(
            NerSpec {
                n_train: params.ner_train,
                n_valid: (params.ner_train / 5).max(10),
                n_test: params.ner_test,
                ..Default::default()
            }
            .generate(&pair.model17),
        );
        World {
            params: params.clone(),
            master_seed,
            pair,
            stats17,
            stats18,
            sentiment,
            ner,
        }
    }

    /// The world's [`pair_fingerprint`]: the world component of the
    /// on-disk pair-cache key.
    pub fn fingerprint(&self) -> u64 {
        pair_fingerprint(&self.params, self.master_seed)
    }

    /// The *content* fingerprint of the world's accumulated ('18) corpus
    /// under its counting configuration —
    /// [`embedstab_corpus::corpus_state_fingerprint`] over `corpus18`.
    ///
    /// [`World::fingerprint`] keys on generating *parameters*, which is
    /// right for caches of things this process would regenerate
    /// identically. A continuous-retraining service seeded from a world
    /// outgrows its parameters with every streamed increment; its
    /// checkpoints key on this content fingerprint instead, so an
    /// incremental world always fingerprints as the corpus it now holds.
    /// `embedstab_stream`'s `ContinuousRetrainer::from_world` starts at
    /// exactly this value and moves away from it on the first increment.
    pub fn stream_fingerprint(&self) -> u64 {
        embedstab_corpus::corpus_state_fingerprint(
            &self.pair.corpus18,
            self.params.vocab_size,
            &embedstab_corpus::CoocConfig {
                window: self.params.window,
                distance_weighting: false,
            },
        )
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.pair.model17.vocab
    }

    /// The sentiment dataset with the given name.
    ///
    /// # Panics
    ///
    /// Panics if no dataset has that name.
    pub fn sentiment_dataset(&self, name: &str) -> &SentimentDataset {
        self.sentiment_dataset_arc(name)
    }

    /// The shared handle for the sentiment dataset with the given name
    /// (what [`SentimentTask`](embedstab_downstream::SentimentTask) takes).
    ///
    /// # Panics
    ///
    /// Panics if no dataset has that name.
    pub fn sentiment_dataset_arc(&self, name: &str) -> &Arc<SentimentDataset> {
        self.sentiment
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("no sentiment dataset named '{name}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn tiny_world_builds_consistently() {
        let params = Scale::Tiny.params();
        let w = World::build(&params, 0);
        assert_eq!(w.sentiment.len(), 4);
        assert_eq!(w.sentiment_dataset("subj").name, "subj");
        assert_eq!(w.stats17.vocab_size, params.vocab_size);
        assert!(w.stats18.n_tokens() > w.stats17.n_tokens());
        assert!(!w.ner.train.is_empty());
    }

    #[test]
    #[should_panic(expected = "no sentiment dataset")]
    fn unknown_dataset_panics() {
        let w = World::build(&Scale::Tiny.params(), 0);
        let _ = w.sentiment_dataset("imdb");
    }
}
