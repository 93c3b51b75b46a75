//! Online matrix completion (MC) embeddings on the PPMI matrix.
//!
//! Solves `min_X sum_{(i,j) in observed} (X_i . X_j - A_ij)^2` with
//! per-entry SGD, following the online matrix-completion approach of
//! Jin et al. (2016) that the paper uses as its third embedding algorithm.

use embedstab_corpus::SparseMatrix;
use embedstab_linalg::opt::shuffle;
use embedstab_linalg::Mat;
use rand::SeedableRng;

use crate::{Embedding, TrainReport};

/// Hyperparameters for [`McTrainer`] (paper Table 4: lr 0.2 with decay
/// starting after 20 epochs).
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Number of passes over the observed entries.
    pub epochs: usize,
    /// Initial SGD learning rate.
    pub lr: f64,
    /// Epoch after which the learning rate is halved every epoch.
    pub lr_decay_start: usize,
    /// Half-width of the uniform initialization (scaled by `1/sqrt(dim)`).
    pub init_scale: f64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            epochs: 25,
            lr: 0.1,
            lr_decay_start: 15,
            init_scale: 0.5,
        }
    }
}

/// Trains matrix-completion embeddings from a PPMI matrix.
#[derive(Clone, Debug, Default)]
pub struct McTrainer {
    config: McConfig,
}

impl McTrainer {
    /// Creates a trainer with the given hyperparameters.
    pub fn new(config: McConfig) -> Self {
        McTrainer { config }
    }

    /// Trains a `dim`-dimensional embedding, deterministic given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the PPMI matrix is not square or `dim` is zero.
    pub fn train(&self, ppmi: &SparseMatrix, dim: usize, seed: u64) -> Embedding {
        self.train_with_report(ppmi, dim, seed).0
    }

    /// Trains and also returns first/last-epoch mean losses.
    ///
    /// # Panics
    ///
    /// Panics if the PPMI matrix is not square or `dim` is zero.
    pub fn train_with_report(
        &self,
        ppmi: &SparseMatrix,
        dim: usize,
        seed: u64,
    ) -> (Embedding, TrainReport) {
        assert_eq!(ppmi.n_rows(), ppmi.n_cols(), "PPMI matrix must be square");
        assert!(dim > 0, "dim must be positive");
        let n = ppmi.n_rows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scale = self.config.init_scale / (dim as f64).sqrt();
        let mut x = Mat::random_uniform(n, dim, -scale, scale, &mut rng);
        let mut entries = ppmi.to_entries();

        let mut initial_loss = 0.0;
        let mut final_loss = 0.0;
        let mut lr = self.config.lr;
        let mut xi_old = vec![0.0; dim];
        for epoch in 0..self.config.epochs {
            if epoch > self.config.lr_decay_start {
                lr *= 0.5;
            }
            shuffle(&mut entries, &mut rng);
            let mut loss = 0.0;
            for &(i, j, a) in &entries {
                let (i, j) = (i as usize, j as usize);
                if i == j {
                    // Diagonal entries pin row norms; fit them too.
                    let row = x.row_mut(i);
                    let p = embedstab_linalg::vecops::dot(row, row);
                    let e = p - a;
                    loss += e * e;
                    let g = (2.0 * lr * e).clamp(-0.5, 0.5);
                    for v in row.iter_mut() {
                        *v -= g * *v;
                    }
                    continue;
                }
                let (xi, xj) = x.two_rows_mut(i, j);
                let p = embedstab_linalg::vecops::dot(xi, xj);
                let e = p - a;
                loss += e * e;
                let g = (lr * e).clamp(-0.5, 0.5);
                xi_old.copy_from_slice(xi);
                embedstab_linalg::vecops::axpy(-g, xj, xi);
                embedstab_linalg::vecops::axpy(-g, &xi_old, xj);
            }
            let mean = loss / entries.len().max(1) as f64;
            if epoch == 0 {
                initial_loss = mean;
            }
            final_loss = mean;
        }
        (
            Embedding::new(x),
            TrainReport {
                initial_loss,
                final_loss,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_corpus::{Cooc, CoocConfig, CorpusConfig, LatentModel, LatentModelConfig};

    fn small_ppmi() -> SparseMatrix {
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
        embedstab_corpus::ppmi(&cooc)
    }

    #[test]
    fn loss_decreases() {
        let ppmi = small_ppmi();
        let (emb, report) = McTrainer::default().train_with_report(&ppmi, 8, 0);
        assert!(report.final_loss < report.initial_loss * 0.8, "{report:?}");
        assert!(emb.mat().is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let ppmi = small_ppmi();
        let a = McTrainer::default().train(&ppmi, 6, 3);
        let b = McTrainer::default().train(&ppmi, 6, 3);
        assert_eq!(a, b);
        let c = McTrainer::default().train(&ppmi, 6, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn reconstructs_planted_low_rank_gram() {
        // Plant A = Z Z^T with Z in R^{20x4} and observe all entries; MC with
        // dim 4 should reach a small residual.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let z = Mat::random_normal(20, 4, &mut rng).scale(0.7);
        let a = z.matmul_nt(&z);
        let mut sm = SparseMatrix::new(20, 20);
        for i in 0..20u32 {
            for j in 0..20u32 {
                sm.push(i, j, a[(i as usize, j as usize)]);
            }
        }
        let trainer = McTrainer::new(McConfig {
            epochs: 200,
            lr: 0.05,
            lr_decay_start: 150,
            init_scale: 0.5,
        });
        let (emb, report) = trainer.train_with_report(&sm, 4, 0);
        assert!(report.final_loss < 0.05, "final loss {}", report.final_loss);
        let recon = emb.mat().matmul_nt(emb.mat());
        let rel = recon.sub(&a).frobenius_norm() / a.frobenius_norm();
        assert!(rel < 0.2, "relative reconstruction error {rel}");
    }
}
