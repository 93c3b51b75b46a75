//! Truncated-SVD embeddings on the PPMI matrix (Levy & Goldberg, 2014).
//!
//! The paper's matrix-completion algorithm fits the PPMI matrix by SGD;
//! the classical spectral alternative factorizes it directly:
//! `X = U_k diag(s_k)^p` from the rank-`k` SVD of PPMI, with `p = 0.5`
//! (the symmetric split that best matches word2vec's implicit
//! factorization). This trainer rides the randomized range-finder SVD
//! ([`Mat::svd_randomized`]) so the factorization cost is a handful of
//! blocked GEMMs plus a `k x k`-scale Jacobi solve instead of full
//! Jacobi sweeps over the `vocab x vocab` matrix.

use embedstab_corpus::SparseMatrix;
use embedstab_linalg::{Mat, RandomizedSvd, SvdMethod};

use crate::Embedding;

/// Hyperparameters for [`PpmiSvdTrainer`].
#[derive(Clone, Debug)]
pub struct PpmiSvdConfig {
    /// Exponent on the singular values (`0.5` = symmetric split).
    pub eigen_power: f64,
    /// Oversampling columns for the randomized range finder.
    pub oversample: usize,
    /// Subspace (power) iterations sharpening the sketch.
    pub power_iters: usize,
    /// Subspace iterations on the **warm** path
    /// ([`PpmiSvdTrainer::train_warm`]); fewer than `power_iters` because
    /// the previous basis already nearly spans the answer. Clamped to at
    /// least 1 by the warm SVD itself.
    pub warm_power_iters: usize,
}

impl Default for PpmiSvdConfig {
    fn default() -> Self {
        PpmiSvdConfig {
            eigen_power: 0.5,
            oversample: 8,
            power_iters: 2,
            warm_power_iters: 1,
        }
    }
}

/// Trains spectral embeddings by truncated SVD of the PPMI matrix.
#[derive(Clone, Debug, Default)]
pub struct PpmiSvdTrainer {
    config: PpmiSvdConfig,
}

impl PpmiSvdTrainer {
    /// Creates a trainer with the given hyperparameters.
    pub fn new(config: PpmiSvdConfig) -> Self {
        PpmiSvdTrainer { config }
    }

    /// Trains a `dim`-dimensional embedding, deterministic given `seed`
    /// (the seed drives the SVD sketch; the factorization itself is
    /// deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the PPMI matrix is not square or `dim` is zero or larger
    /// than the vocabulary.
    pub fn train(&self, ppmi: &SparseMatrix, dim: usize, seed: u64) -> Embedding {
        let cfg = RandomizedSvd {
            rank: dim,
            oversample: self.config.oversample,
            power_iters: self.config.power_iters,
            seed,
        };
        self.train_with_method(ppmi, dim, SvdMethod::Randomized(cfg))
    }

    /// Trains with an explicit SVD backend; `SvdMethod::Exact` is the
    /// reference the conformance tests compare the sketched path against.
    ///
    /// # Panics
    ///
    /// Panics if the PPMI matrix is not square or `dim` is zero or larger
    /// than the vocabulary.
    pub fn train_with_method(
        &self,
        ppmi: &SparseMatrix,
        dim: usize,
        method: SvdMethod,
    ) -> Embedding {
        assert_eq!(ppmi.n_rows(), ppmi.n_cols(), "PPMI matrix must be square");
        assert!(
            dim > 0 && dim <= ppmi.n_rows(),
            "dim must be in 1..=vocab_size"
        );
        let dense = ppmi.to_dense();
        let svd = dense.svd_with(method);
        self.scale_spectrum(svd, dim)
    }

    /// Trains like [`PpmiSvdTrainer::train`], but seeds the randomized
    /// SVD's range finder with `warm` — an (approximately) orthonormal
    /// basis of the previous retrain's embedding columns — via
    /// [`Mat::svd_randomized_warm`]. This is the incremental-retrain
    /// path: when the PPMI matrix has only drifted by a corpus delta, the
    /// stale basis plus `warm_power_iters` subspace refreshes replaces
    /// the cold sketch and its `power_iters` iterations, roughly halving
    /// the factorization GEMMs. Results track the cold path within the
    /// subspace-convergence tolerance (pinned by `embedstab_stream`'s
    /// keystone test), not bitwise.
    ///
    /// An unusable basis (wrong row count, zero columns) falls back to
    /// the cold path inside the warm SVD, so callers can pass whatever
    /// they have without pre-validating. Returns `None`, rather than
    /// panicking as the batch paths do, if the PPMI matrix is not square
    /// or `dim` is zero or larger than the vocabulary: this is the call a
    /// long-lived retraining service makes.
    pub fn train_warm(
        &self,
        ppmi: &SparseMatrix,
        dim: usize,
        seed: u64,
        warm: &Mat,
    ) -> Option<Embedding> {
        if ppmi.n_rows() != ppmi.n_cols() || dim == 0 || dim > ppmi.n_rows() {
            return None;
        }
        let cfg = RandomizedSvd {
            rank: dim,
            oversample: self.config.oversample,
            power_iters: self.config.warm_power_iters,
            seed,
        };
        // The sparse PPMI matrix is its own SketchOp, so the warm range
        // finder runs on O(nnz * l) sparse products — no densification.
        Some(
            match embedstab_linalg::svd_randomized_warm_op(ppmi, cfg, warm) {
                Some(svd) => self.scale_spectrum(svd, dim),
                None => self.train(ppmi, dim, seed),
            },
        )
    }

    /// `X = U_k diag(s_k)^p` — the shared tail of every training path.
    fn scale_spectrum(&self, svd: embedstab_linalg::Svd, dim: usize) -> Embedding {
        let k = dim.min(svd.s.len());
        let mut x = svd.u.truncate_cols(k);
        for j in 0..k {
            let w = svd.s[j].powf(self.config.eigen_power);
            for i in 0..x.rows() {
                x[(i, j)] *= w;
            }
        }
        Embedding::new(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_corpus::{Cooc, CoocConfig, CorpusConfig, LatentModel, LatentModelConfig};
    use embedstab_linalg::vecops;

    fn small_world() -> (LatentModel, SparseMatrix) {
        let model = LatentModel::new(&LatentModelConfig {
            vocab_size: 80,
            n_topics: 4,
            ..Default::default()
        });
        let corpus = model.generate_corpus(&CorpusConfig {
            n_tokens: 20_000,
            ..Default::default()
        });
        let cooc = Cooc::count(&corpus, 80, &CoocConfig::default()).expect("valid corpus");
        (model, embedstab_corpus::ppmi(&cooc))
    }

    #[test]
    fn recovers_topic_structure() {
        let (model, ppmi) = small_world();
        let emb = PpmiSvdTrainer::default().train(&ppmi, 8, 0);
        let mut same = (0.0, 0usize);
        let mut diff = (0.0, 0usize);
        for i in 0..60u32 {
            for j in (i + 1)..60u32 {
                let sim = vecops::cosine_similarity(emb.vector(i), emb.vector(j));
                if model.word_topics[i as usize] == model.word_topics[j as usize] {
                    same = (same.0 + sim, same.1 + 1);
                } else {
                    diff = (diff.0 + sim, diff.1 + 1);
                }
            }
        }
        let (same_mean, diff_mean) = (same.0 / same.1 as f64, diff.0 / diff.1 as f64);
        assert!(
            same_mean > diff_mean + 0.05,
            "same-topic {same_mean:.3} should exceed different-topic {diff_mean:.3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, ppmi) = small_world();
        let t = PpmiSvdTrainer::default();
        assert_eq!(t.train(&ppmi, 6, 3), t.train(&ppmi, 6, 3));
    }

    #[test]
    fn warm_train_tracks_cold_train_spectrum() {
        // Warm-start with the orthonormalized previous embedding (trained
        // on the same PPMI): the warm path must reproduce the cold
        // factorization's singular profile to subspace-iteration accuracy.
        let (_, ppmi) = small_world();
        let t = PpmiSvdTrainer::default();
        let cold = t.train(&ppmi, 8, 0);
        let basis = cold.mat().orthonormalize();
        let warm = t.train_warm(&ppmi, 8, 0, &basis).expect("valid shape");
        assert_eq!(warm.shape(), cold.shape());
        for j in 0..8 {
            let nw = vecops::norm2(&warm.mat().col(j));
            let nc = vecops::norm2(&cold.mat().col(j));
            assert!(
                (nw - nc).abs() / nc < 1e-2,
                "column {j}: warm norm {nw} vs cold {nc}"
            );
        }
        // An unusable basis silently takes the cold path.
        let fallback = t
            .train_warm(&ppmi, 8, 0, &Mat::zeros(3, 2))
            .expect("valid shape");
        assert_eq!(fallback.shape(), cold.shape());
        // An impossible dimension is a `None`, not a panic.
        assert!(t.train_warm(&ppmi, 0, 0, &basis).is_none());
        assert!(t.train_warm(&ppmi, ppmi.n_rows() + 1, 0, &basis).is_none());
    }

    #[test]
    fn randomized_matches_exact_factorization() {
        // The rank-8 cut of this PPMI spectrum lands between two nearly
        // equal singular values, so the *subspace* is only defined up to
        // mixing within that cluster. What both backends must agree on is
        // the spectrum itself: column j of X has norm s_j^p, so the
        // per-column norms are the trained embedding's singular profile.
        let (_, ppmi) = small_world();
        let t = PpmiSvdTrainer::default();
        let xr = t.train(&ppmi, 8, 0);
        let xe = t.train_with_method(&ppmi, 8, SvdMethod::Exact);
        for j in 0..8 {
            let nr = vecops::norm2(&xr.mat().col(j));
            let ne = vecops::norm2(&xe.mat().col(j));
            let rel = (nr - ne).abs() / ne;
            assert!(rel < 1e-2, "column {j}: norm {nr} vs exact {ne} ({rel})");
        }
        // And the sketched factorization captures the same total energy.
        let er = xr.mat().frobenius_norm_sq();
        let ee = xe.mat().frobenius_norm_sq();
        assert!((er - ee).abs() / ee < 1e-2, "energy {er} vs {ee}");
    }
}
