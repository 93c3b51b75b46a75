//! GloVe: global vectors from weighted co-occurrence factorization
//! (Pennington et al., 2014).

use embedstab_corpus::Cooc;
use embedstab_linalg::opt::shuffle;
use embedstab_linalg::Mat;
use rand::SeedableRng;

use crate::{Embedding, TrainReport};

/// Hyperparameters for [`GloveTrainer`].
///
/// The paper uses `xmax = 100` on 4.5B-token corpora; the default here is
/// scaled down for the synthetic corpora (hundreds of thousands of tokens)
/// so that the weighting function still discriminates counts.
#[derive(Clone, Debug)]
pub struct GloveConfig {
    /// Number of passes over the non-zero co-occurrence entries.
    pub epochs: usize,
    /// AdaGrad learning rate.
    pub lr: f64,
    /// Weighting-function cutoff: counts above `xmax` get weight 1.
    pub xmax: f64,
    /// Weighting-function exponent.
    pub alpha: f64,
    /// Half-width of the uniform initialization (scaled by `1/dim`).
    pub init_scale: f64,
}

impl Default for GloveConfig {
    fn default() -> Self {
        GloveConfig {
            epochs: 30,
            lr: 0.05,
            xmax: 10.0,
            alpha: 0.75,
            init_scale: 0.5,
        }
    }
}

/// Trains GloVe embeddings from a (distance-weighted) co-occurrence table.
///
/// Word and context embeddings plus biases are fit with AdaGrad on
/// `f(x_ij) (w_i . c_j + b_i + b~_j - ln x_ij)^2`; the returned embedding is
/// the standard `W + C` sum.
#[derive(Clone, Debug, Default)]
pub struct GloveTrainer {
    config: GloveConfig,
}

impl GloveTrainer {
    /// Creates a trainer with the given hyperparameters.
    pub fn new(config: GloveConfig) -> Self {
        GloveTrainer { config }
    }

    /// Trains a `dim`-dimensional embedding, deterministic given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn train(&self, cooc: &Cooc, dim: usize, seed: u64) -> Embedding {
        self.train_with_report(cooc, dim, seed).0
    }

    /// Trains and also returns first/last-epoch mean weighted losses.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn train_with_report(
        &self,
        cooc: &Cooc,
        dim: usize,
        seed: u64,
    ) -> (Embedding, TrainReport) {
        assert!(dim > 0, "dim must be positive");
        let n = cooc.n();
        let cfg = &self.config;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scale = cfg.init_scale / dim as f64;
        let mut w = Mat::random_uniform(n, dim, -scale, scale, &mut rng);
        let mut c = Mat::random_uniform(n, dim, -scale, scale, &mut rng);
        let mut bw = vec![0.0f64; n];
        let mut bc = vec![0.0f64; n];
        // AdaGrad accumulators, initialized to 1 as in the reference code.
        let mut gw = Mat::from_fn(n, dim, |_, _| 1.0);
        let mut gc = Mat::from_fn(n, dim, |_, _| 1.0);
        let mut gbw = vec![1.0f64; n];
        let mut gbc = vec![1.0f64; n];

        let mut entries = cooc.entries();
        let mut initial_loss = 0.0;
        let mut final_loss = 0.0;
        for epoch in 0..cfg.epochs {
            shuffle(&mut entries, &mut rng);
            let mut loss = 0.0;
            for &(i, j, x) in &entries {
                let (i, j) = (i as usize, j as usize);
                let weight = if x < cfg.xmax {
                    (x / cfg.xmax).powf(cfg.alpha)
                } else {
                    1.0
                };
                let diff =
                    embedstab_linalg::vecops::dot(w.row(i), c.row(j)) + bw[i] + bc[j] - x.ln();
                loss += 0.5 * weight * diff * diff;
                let fdiff = (weight * diff).clamp(-10.0, 10.0);
                // AdaGrad updates for w_i and c_j.
                {
                    let wi = w.row_mut(i);
                    let cjv: Vec<f64> = c.row(j).to_vec();
                    let gwi = gw.row_mut(i);
                    let gcj = gc.row_mut(j);
                    let cj = c.row_mut(j);
                    for k in 0..dim {
                        let grad_w = fdiff * cjv[k];
                        let grad_c = fdiff * wi[k];
                        wi[k] -= cfg.lr * grad_w / gwi[k].sqrt();
                        cj[k] -= cfg.lr * grad_c / gcj[k].sqrt();
                        gwi[k] += grad_w * grad_w;
                        gcj[k] += grad_c * grad_c;
                    }
                }
                bw[i] -= cfg.lr * fdiff / gbw[i].sqrt();
                bc[j] -= cfg.lr * fdiff / gbc[j].sqrt();
                gbw[i] += fdiff * fdiff;
                gbc[j] += fdiff * fdiff;
            }
            let mean = loss / entries.len().max(1) as f64;
            if epoch == 0 {
                initial_loss = mean;
            }
            final_loss = mean;
        }
        (
            Embedding::new(w.add(&c)),
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
    use embedstab_corpus::{
        Cooc, CoocConfig, Corpus, CorpusConfig, LatentModel, LatentModelConfig,
    };

    fn small_cooc() -> Cooc {
        let model = LatentModel::new(&LatentModelConfig {
            vocab_size: 80,
            n_topics: 4,
            ..Default::default()
        });
        let corpus = model.generate_corpus(&CorpusConfig {
            n_tokens: 20_000,
            ..Default::default()
        });
        Cooc::count(
            &corpus,
            80,
            &CoocConfig {
                window: 8,
                distance_weighting: true,
            },
        )
        .expect("valid corpus")
    }

    #[test]
    fn loss_decreases() {
        let cooc = small_cooc();
        let (emb, report) = GloveTrainer::default().train_with_report(&cooc, 8, 0);
        assert!(report.final_loss < report.initial_loss * 0.8, "{report:?}");
        assert!(emb.mat().is_finite());
        assert_eq!(emb.shape(), (80, 8));
    }

    #[test]
    fn deterministic_given_seed() {
        let cooc = small_cooc();
        let a = GloveTrainer::default().train(&cooc, 6, 1);
        let b = GloveTrainer::default().train(&cooc, 6, 1);
        assert_eq!(a, b);
        let c = GloveTrainer::default().train(&cooc, 6, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn weighting_function_caps_at_one() {
        // Indirect check: training on a table with one huge count should not
        // blow up (weight saturates at 1, fdiff is clamped).
        let docs = vec![vec![0u32, 1, 0, 1, 0, 1, 0, 1, 0, 1]; 200];
        let corpus = Corpus::from_docs(docs);
        let cooc = Cooc::count(
            &corpus,
            2,
            &CoocConfig {
                window: 1,
                distance_weighting: false,
            },
        )
        .expect("valid corpus");
        let (emb, _) = GloveTrainer::default().train_with_report(&cooc, 4, 0);
        assert!(emb.mat().is_finite());
    }
}
