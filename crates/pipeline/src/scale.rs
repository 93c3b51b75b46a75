//! Experiment scale presets.

use embedstab_quant::Precision;

/// How large an experiment to run.
///
/// The paper's grids (400k-word vocabulary, 4.5B-token corpora, dimensions
/// 25-800) are scaled to what a small machine reproduces in minutes; the
/// *shape* of every result is preserved. Dimensions map onto the paper's
/// sweep position-for-position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Integration-test scale: seconds.
    Tiny,
    /// Default reproduction scale: minutes per figure on 2 cores.
    Small,
    /// Closer-to-paper scale: hours.
    Paper,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Paper];

    /// The scale's name: its `--scale` value and its tag in row file
    /// names. [`Scale::from_str`](std::str::FromStr) reads it back.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// The concrete parameter set for this scale.
    pub fn params(self) -> ScaleParams {
        match self {
            Scale::Tiny => ScaleParams {
                vocab_size: 220,
                n_topics: 10,
                latent_dim: 24,
                corpus_tokens: 25_000,
                window: 5,
                dims: vec![4, 8, 16],
                // 1, 4 and 32 bits, from the sweep: `params` has no panic path.
                precisions: Precision::SWEEP
                    .into_iter()
                    .filter(|p| matches!(p.bits(), 1 | 4 | 32))
                    .collect(),
                // Three seeds, like Small/Paper: the paper's headline trends
                // are statements about seed-averaged disagreement, and a
                // single-seed grid is too noisy to exhibit them reliably.
                seeds: vec![0, 1, 2],
                top_m: 220,
                sentiment_train: 250,
                sentiment_test: 200,
                ner_train: 80,
                ner_test: 60,
                lstm_hidden: 8,
                lstm_epochs: 2,
                logreg_epochs: 25,
                knn_queries: 100,
            },
            Scale::Small => ScaleParams {
                vocab_size: 1000,
                n_topics: 20,
                latent_dim: 160,
                corpus_tokens: 200_000,
                window: 8,
                dims: vec![4, 8, 16, 32, 64, 128],
                precisions: Precision::SWEEP.to_vec(),
                seeds: vec![0, 1, 2],
                top_m: 1000,
                sentiment_train: 1200,
                sentiment_test: 600,
                ner_train: 400,
                ner_test: 300,
                lstm_hidden: 16,
                lstm_epochs: 4,
                logreg_epochs: 40,
                knn_queries: 500,
            },
            Scale::Paper => ScaleParams {
                vocab_size: 4000,
                n_topics: 40,
                latent_dim: 1000,
                corpus_tokens: 2_000_000,
                window: 15,
                dims: vec![25, 50, 100, 200, 400, 800],
                precisions: Precision::SWEEP.to_vec(),
                seeds: vec![0, 1, 2],
                top_m: 4000,
                sentiment_train: 4000,
                sentiment_test: 1500,
                ner_train: 1200,
                ner_test: 800,
                lstm_hidden: 32,
                lstm_epochs: 6,
                logreg_epochs: 60,
                knn_queries: 1000,
            },
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(name: &str) -> Result<Scale, String> {
        Scale::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown scale '{name}'; use tiny|small|paper"))
    }
}

/// Concrete sizes for one scale.
#[derive(Clone, Debug)]
pub struct ScaleParams {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Latent topics.
    pub n_topics: usize,
    /// Latent dimension of the ground-truth space.
    pub latent_dim: usize,
    /// Tokens per corpus.
    pub corpus_tokens: usize,
    /// Co-occurrence window.
    pub window: usize,
    /// Embedding dimension sweep (stands in for the paper's 25..800).
    pub dims: Vec<usize>,
    /// Precision sweep.
    pub precisions: Vec<Precision>,
    /// Embedding / downstream seeds.
    pub seeds: Vec<u64>,
    /// Words used when computing measures (paper: top 10k).
    pub top_m: usize,
    /// Sentiment training examples per dataset.
    pub sentiment_train: usize,
    /// Sentiment test examples per dataset.
    pub sentiment_test: usize,
    /// NER training sentences.
    pub ner_train: usize,
    /// NER test sentences.
    pub ner_test: usize,
    /// BiLSTM hidden size.
    pub lstm_hidden: usize,
    /// BiLSTM epochs.
    pub lstm_epochs: usize,
    /// Logistic-regression epochs.
    pub logreg_epochs: usize,
    /// Query words for the k-NN measure.
    pub knn_queries: usize,
}

impl ScaleParams {
    /// The largest dimension of the sweep (used for the EIS reference
    /// embeddings, as in the paper).
    pub fn max_dim(&self) -> usize {
        self.dims.iter().copied().max().expect("dims non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let t = Scale::Tiny.params();
        let s = Scale::Small.params();
        let p = Scale::Paper.params();
        assert!(t.vocab_size < s.vocab_size && s.vocab_size < p.vocab_size);
        assert!(t.corpus_tokens < s.corpus_tokens && s.corpus_tokens < p.corpus_tokens);
        assert_eq!(p.dims, vec![25, 50, 100, 200, 400, 800]);
    }

    #[test]
    fn names_round_trip() {
        for scale in Scale::ALL {
            assert_eq!(scale.name().parse::<Scale>(), Ok(scale));
        }
        let err = "bogus".parse::<Scale>().expect_err("no such scale");
        assert_eq!(err, "unknown scale 'bogus'; use tiny|small|paper");
    }

    #[test]
    fn max_dim_is_last() {
        assert_eq!(Scale::Small.params().max_dim(), 128);
    }
}
