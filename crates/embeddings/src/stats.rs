//! Precomputed per-corpus statistics shared by all trainers.

use std::sync::Arc;

use embedstab_corpus::{ppmi, Cooc, CoocConfig, Corpus, SparseMatrix};

/// Everything the embedding trainers need from a corpus, computed once:
/// flat and distance-weighted co-occurrence tables, the PPMI matrix, and
/// unigram counts.
///
/// The experiment pipeline computes one `CorpusStats` per corpus and shares
/// it across the whole `algo x dim x seed` training grid.
#[derive(Clone, Debug)]
pub struct CorpusStats {
    /// The underlying corpus (shared so worlds and grids can own stats).
    pub corpus: Arc<Corpus>,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Context window used for counting.
    pub window: usize,
    /// Flat-weighted co-occurrence (for PPMI / MC).
    pub cooc_flat: Cooc,
    /// `1/distance`-weighted co-occurrence (for GloVe).
    pub cooc_weighted: Cooc,
    /// PPMI of the flat counts (for MC).
    pub ppmi: SparseMatrix,
    /// Token counts per word (for negative sampling and subsampling).
    pub unigram_counts: Vec<u64>,
}

impl CorpusStats {
    /// Computes all statistics for `corpus` over a vocabulary of
    /// `vocab_size` words with the given context `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or the corpus contains out-of-vocabulary
    /// ids.
    pub fn compute(corpus: Arc<Corpus>, vocab_size: usize, window: usize) -> Self {
        let count = |distance_weighting| {
            let config = CoocConfig {
                window,
                distance_weighting,
            };
            Cooc::count(&corpus, vocab_size, &config).unwrap_or_else(|e| panic!("{e}"))
        };
        let (cooc_flat, cooc_weighted) = (count(false), count(true));
        let ppmi_mat = ppmi(&cooc_flat);
        let unigram_counts = corpus.token_counts(vocab_size);
        CorpusStats {
            corpus,
            vocab_size,
            window,
            cooc_flat,
            cooc_weighted,
            ppmi: ppmi_mat,
            unigram_counts,
        }
    }

    /// Total number of tokens in the corpus.
    pub fn n_tokens(&self) -> usize {
        self.corpus.n_tokens()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_corpus::Corpus;

    #[test]
    fn stats_are_consistent() {
        let corpus = Arc::new(Corpus::from_docs(vec![vec![0, 1, 2, 1, 0], vec![2, 2, 1]]));
        let stats = CorpusStats::compute(corpus, 3, 2);
        assert_eq!(stats.n_tokens(), 8);
        assert_eq!(stats.unigram_counts, vec![2, 3, 3]);
        assert!(stats.cooc_flat.total() >= stats.cooc_weighted.total());
        assert!(stats.ppmi.nnz() > 0);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn out_of_vocab_panics() {
        let _ = CorpusStats::compute(Arc::new(Corpus::from_docs(vec![vec![0, 9]])), 2, 8);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = CorpusStats::compute(Arc::new(Corpus::from_docs(vec![vec![0, 1]])), 2, 0);
    }
}
