//! Masked language modeling pre-training (Devlin et al., 2019 recipe:
//! 15% of tokens selected; 80% become `[MASK]`, 10% a random token, 10%
//! stay unchanged).

use embedstab_corpus::Corpus;
use embedstab_linalg::opt::{shuffle, Adam};
use embedstab_linalg::{vecops, Mat};
use rand::{Rng, RngExt, SeedableRng};

use crate::model::{Grads, MiniBert};

/// MLM pre-training hyperparameters.
#[derive(Clone, Debug)]
pub struct MlmTrainConfig {
    /// Passes over the (chunked) corpus.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Sequences per optimizer step.
    pub batch: usize,
    /// Fraction of tokens selected for prediction.
    pub mask_prob: f64,
    /// Sampling seed (masking, ordering).
    pub seed: u64,
}

impl Default for MlmTrainConfig {
    fn default() -> Self {
        MlmTrainConfig {
            epochs: 2,
            lr: 1e-3,
            batch: 8,
            mask_prob: 0.15,
            seed: 0,
        }
    }
}

impl MiniBert {
    /// Pre-trains the model with masked language modeling over a corpus,
    /// returning per-epoch mean losses (per masked token).
    ///
    /// Deterministic given the model's initialization seed and
    /// `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the corpus yields no usable sequences.
    pub fn train_mlm(&mut self, corpus: &Corpus, config: &MlmTrainConfig) -> Vec<f64> {
        let max_len = self.config().max_len;
        let mut sequences: Vec<Vec<u32>> = Vec::new();
        for doc in corpus.docs() {
            for chunk in doc.chunks(max_len) {
                if chunk.len() >= 4 {
                    sequences.push(chunk.to_vec());
                }
            }
        }
        assert!(
            !sequences.is_empty(),
            "corpus yields no sequences of length >= 4"
        );

        let mut opt = VisitOpt::new(self, config.lr);
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let vocab = self.config().vocab_size;
        let mask_id = self.mask_id();
        let mut order: Vec<usize> = (0..sequences.len()).collect();
        let mut losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            shuffle(&mut order, &mut rng);
            let mut epoch_loss = 0.0;
            let mut masked_total = 0usize;
            for batch in order.chunks(config.batch.max(1)) {
                let mut grads = self.zero_grads();
                let mut batch_masked = 0usize;
                // First pass: count masked tokens for normalization.
                let mut plans = Vec::with_capacity(batch.len());
                for &si in batch {
                    let plan =
                        mask_plan(&sequences[si], config.mask_prob, vocab, mask_id, &mut rng);
                    batch_masked += plan.targets.len();
                    plans.push((si, plan));
                }
                if batch_masked == 0 {
                    continue;
                }
                let inv = 1.0 / batch_masked as f64;
                for (_si, plan) in &plans {
                    let caches = self.forward(&plan.input);
                    let d = caches.out.cols();
                    let mut d_out = Mat::zeros(caches.out.rows(), d);
                    for &(pos, gold) in &plan.targets {
                        let y = caches.out.row(pos);
                        let mut logits: Vec<f64> = (0..vocab)
                            .map(|w| vecops::dot(self.decoder.row(w), y) + self.dec_b[w])
                            .collect();
                        vecops::softmax_inplace(&mut logits);
                        epoch_loss -= logits[gold as usize].max(1e-12).ln();
                        for w in 0..vocab {
                            let dl = (logits[w] - if w == gold as usize { 1.0 } else { 0.0 }) * inv;
                            if dl == 0.0 {
                                continue;
                            }
                            vecops::axpy(dl, self.decoder.row(w), d_out.row_mut(pos));
                            vecops::axpy(dl, y, grads.decoder.row_mut(w));
                            grads.dec_b[w] += dl;
                        }
                    }
                    self.backward(&caches, &d_out, &mut grads);
                }
                masked_total += batch_masked;
                opt.step(self, &mut grads);
            }
            losses.push(epoch_loss / masked_total.max(1) as f64);
        }
        losses
    }
}

/// A masked copy of a sequence plus the positions/targets to predict.
struct MaskPlan {
    input: Vec<u32>,
    targets: Vec<(usize, u32)>,
}

fn mask_plan(
    seq: &[u32],
    mask_prob: f64,
    vocab: usize,
    mask_id: u32,
    rng: &mut impl Rng,
) -> MaskPlan {
    let mut input = seq.to_vec();
    let mut targets = Vec::new();
    for (pos, tok) in input.iter_mut().enumerate() {
        if rng.random::<f64>() >= mask_prob {
            continue;
        }
        targets.push((pos, *tok));
        let roll: f64 = rng.random();
        if roll < 0.8 {
            *tok = mask_id;
        } else if roll < 0.9 {
            *tok = rng.random_range(0..vocab as u32);
        } // else: keep the original token
    }
    if targets.is_empty() {
        // Guarantee at least one prediction per sequence.
        let pos = rng.random_range(0..seq.len());
        targets.push((pos, seq[pos]));
        input[pos] = mask_id;
    }
    MaskPlan { input, targets }
}

/// Adam over every parameter block, paired with gradients by visiting both
/// structures in the same fixed order.
struct VisitOpt {
    adams: Vec<Adam>,
}

impl VisitOpt {
    fn new(model: &mut MiniBert, lr: f64) -> Self {
        let mut sizes = Vec::new();
        model.visit_mut(&mut |s: &mut [f64]| sizes.push(s.len()));
        VisitOpt {
            adams: sizes.into_iter().map(|n| Adam::new(n, lr)).collect(),
        }
    }

    fn step(&mut self, model: &mut MiniBert, grads: &mut Grads) {
        let mut gslices: Vec<Vec<f64>> = Vec::with_capacity(self.adams.len());
        grads.visit_mut(&mut |s: &mut [f64]| gslices.push(s.to_vec()));
        let mut idx = 0usize;
        model.visit_mut(&mut |p: &mut [f64]| {
            self.adams[idx].step(p, &gslices[idx]);
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BertConfig;
    use embedstab_corpus::{CorpusConfig, LatentModel, LatentModelConfig};

    fn corpus() -> (LatentModel, Corpus) {
        let model = LatentModel::new(&LatentModelConfig {
            vocab_size: 60,
            n_topics: 4,
            ..Default::default()
        });
        let c = model.generate_corpus(&CorpusConfig {
            n_tokens: 6_000,
            ..Default::default()
        });
        (model, c)
    }

    #[test]
    fn mlm_loss_decreases() {
        let (_m, c) = corpus();
        let mut bert = MiniBert::new(&BertConfig {
            vocab_size: 60,
            dim: 16,
            heads: 2,
            layers: 2,
            max_len: 16,
            ffn_mult: 2,
            seed: 0,
        });
        let losses = bert.train_mlm(
            &c,
            &MlmTrainConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        assert_eq!(losses.len(), 3);
        assert!(
            losses[2] < losses[0] * 0.9,
            "MLM loss should fall: {losses:?}"
        );
        // Better than uniform guessing.
        assert!(
            losses[2] < (60.0f64).ln(),
            "final loss {} vs ln(60)",
            losses[2]
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (_m, c) = corpus();
        let cfg = BertConfig {
            vocab_size: 60,
            dim: 8,
            heads: 2,
            layers: 1,
            max_len: 12,
            ffn_mult: 2,
            seed: 1,
        };
        let mut a = MiniBert::new(&cfg);
        let mut b = MiniBert::new(&cfg);
        let tcfg = MlmTrainConfig {
            epochs: 1,
            ..Default::default()
        };
        let la = a.train_mlm(&c, &tcfg);
        let lb = b.train_mlm(&c, &tcfg);
        assert_eq!(la, lb);
        let ea = a.encode(&[5, 9, 2]);
        let eb = b.encode(&[5, 9, 2]);
        assert_eq!(ea, eb);
    }

    #[test]
    fn mask_plan_respects_rates() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let seq: Vec<u32> = (0..50).map(|i| i % 20).collect();
        let mut masked = 0usize;
        let mut mask_token = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let plan = mask_plan(&seq, 0.15, 20, 20, &mut rng);
            masked += plan.targets.len();
            mask_token += plan.input.iter().filter(|&&t| t == 20).count();
            // Targets record the original tokens.
            for &(pos, gold) in &plan.targets {
                assert_eq!(gold, seq[pos]);
            }
        }
        let rate = masked as f64 / (trials * 50) as f64;
        assert!((rate - 0.15).abs() < 0.02, "mask rate {rate}");
        // ~80% of selections become the [MASK] token.
        let mask_frac = mask_token as f64 / masked as f64;
        assert!(
            (mask_frac - 0.8).abs() < 0.06,
            "mask-token fraction {mask_frac}"
        );
    }
}
