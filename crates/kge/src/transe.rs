//! TransE (Bordes et al., 2013) with the paper's training protocol
//! (Table 7): margin ranking loss, L1 distance, uniform corruption, SGD,
//! entity renormalization, and early stopping on validation mean rank.

use embedstab_linalg::opt::shuffle;
use embedstab_linalg::{vecops, Mat};
use embedstab_quant::{optimal_clip, quantize_value, Precision};
use rand::{RngExt, SeedableRng};

use crate::eval::{link_prediction_ranks, mean_rank};
use crate::graph::KnowledgeGraph;

/// TransE training hyperparameters (paper Table 7, scaled to the synthetic
/// graphs).
#[derive(Clone, Debug)]
pub struct TranseConfig {
    /// Maximum training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// Ranking margin `gamma`.
    pub margin: f64,
    /// Early-stopping patience, in evaluation rounds (an evaluation runs
    /// every `eval_every` epochs on validation mean rank); 0 disables.
    pub patience: usize,
    /// Epochs between early-stopping evaluations.
    pub eval_every: usize,
}

impl Default for TranseConfig {
    fn default() -> Self {
        TranseConfig {
            epochs: 120,
            lr: 0.02,
            margin: 1.0,
            patience: 5,
            eval_every: 10,
        }
    }
}

/// Trained TransE embeddings: one vector per entity and per relation.
#[derive(Clone, Debug, PartialEq)]
pub struct TranseEmbeddings {
    /// `n_entities x dim`.
    pub entities: Mat,
    /// `n_relations x dim`.
    pub relations: Mat,
}

impl TranseEmbeddings {
    /// The L1 score `||e_h + r - e_t||_1` (lower = more plausible).
    pub fn score(&self, head: u32, rel: u32, tail: u32) -> f64 {
        let h = self.entities.row(head as usize);
        let r = self.relations.row(rel as usize);
        let t = self.entities.row(tail as usize);
        let mut s = 0.0;
        for j in 0..h.len() {
            s += (h[j] + r[j] - t[j]).abs();
        }
        s
    }

    /// Memory per vector in bits at a given precision (the x-axis of
    /// paper Figure 3).
    pub fn bits_per_vector(&self, precision: Precision) -> u64 {
        self.entities.cols() as u64 * precision.bits() as u64
    }
}

/// Trains TransE on a knowledge graph, deterministic given `seed`.
///
/// # Panics
///
/// Panics if `dim` is zero or the graph has no training triplets.
pub fn train_transe(
    kg: &KnowledgeGraph,
    dim: usize,
    config: &TranseConfig,
    seed: u64,
) -> TranseEmbeddings {
    assert!(dim > 0, "dim must be positive");
    assert!(!kg.train.is_empty(), "graph has no training triplets");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let bound = 6.0 / (dim as f64).sqrt();
    let mut ent = Mat::random_uniform(kg.n_entities, dim, -bound, bound, &mut rng);
    let mut rel = Mat::random_uniform(kg.n_relations, dim, -bound, bound, &mut rng);
    // Relations normalized once after init (Bordes et al.).
    for r in 0..kg.n_relations {
        vecops::normalize(rel.row_mut(r));
    }

    let mut order: Vec<usize> = (0..kg.train.len()).collect();
    let mut best: Option<(f64, TranseEmbeddings)> = None;
    let mut strikes = 0usize;
    for epoch in 0..config.epochs {
        // Entity renormalization at the start of every epoch.
        for e in 0..kg.n_entities {
            vecops::normalize(ent.row_mut(e));
        }
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let pos = kg.train[i];
            // Uniform corruption of head or tail.
            let corrupt_head = rng.random::<f64>() < 0.5;
            let candidate = rng.random_range(0..kg.n_entities as u32);
            let neg = if corrupt_head {
                crate::graph::Triplet {
                    head: candidate,
                    ..pos
                }
            } else {
                crate::graph::Triplet {
                    tail: candidate,
                    ..pos
                }
            };
            sgd_step(&mut ent, &mut rel, pos, neg, config.margin, config.lr);
        }
        // Early stopping on validation mean rank.
        if config.patience > 0
            && !kg.valid.is_empty()
            && (epoch + 1) % config.eval_every.max(1) == 0
        {
            let current = TranseEmbeddings {
                entities: ent.clone(),
                relations: rel.clone(),
            };
            let ranks = link_prediction_ranks(&current, kg.n_entities, &kg.valid);
            let mr = mean_rank(&ranks);
            match &best {
                Some((best_mr, _)) if mr >= *best_mr => {
                    strikes += 1;
                    if strikes >= config.patience {
                        break;
                    }
                }
                _ => {
                    best = Some((mr, current));
                    strikes = 0;
                }
            }
        }
    }
    match best {
        Some((_, model)) => model,
        None => TranseEmbeddings {
            entities: ent,
            relations: rel,
        },
    }
}

/// One margin-ranking SGD step on a (positive, negative) triplet pair with
/// the L1 distance: if `margin + d(pos) - d(neg) > 0`, move the positive
/// triple together and the negative apart along the sign gradients.
fn sgd_step(
    ent: &mut Mat,
    rel: &mut Mat,
    pos: crate::graph::Triplet,
    neg: crate::graph::Triplet,
    margin: f64,
    lr: f64,
) {
    let dim = ent.cols();
    let d_pos = l1(ent, rel, pos);
    let d_neg = l1(ent, rel, neg);
    if margin + d_pos - d_neg <= 0.0 {
        return;
    }
    // d|x|/dx = sign(x); positive triplet pulled together.
    for j in 0..dim {
        let sp = (ent[(pos.head as usize, j)] + rel[(pos.rel as usize, j)]
            - ent[(pos.tail as usize, j)])
            .signum();
        ent[(pos.head as usize, j)] -= lr * sp;
        rel[(pos.rel as usize, j)] -= lr * sp;
        ent[(pos.tail as usize, j)] += lr * sp;
        let sn = (ent[(neg.head as usize, j)] + rel[(neg.rel as usize, j)]
            - ent[(neg.tail as usize, j)])
            .signum();
        ent[(neg.head as usize, j)] += lr * sn;
        rel[(neg.rel as usize, j)] += lr * sn;
        ent[(neg.tail as usize, j)] -= lr * sn;
    }
}

fn l1(ent: &Mat, rel: &Mat, t: crate::graph::Triplet) -> f64 {
    let mut s = 0.0;
    for j in 0..ent.cols() {
        s += (ent[(t.head as usize, j)] + rel[(t.rel as usize, j)] - ent[(t.tail as usize, j)])
            .abs();
    }
    s
}

/// Uniformly quantizes a pair of TransE embeddings, sharing the clip
/// thresholds computed from the first one (entity and relation tables get
/// separate thresholds), mirroring the word-embedding protocol.
///
/// Note: the paper does *not* Procrustes-align knowledge-graph embedding
/// pairs (alignment hurt quality; Appendix C.5), and neither does this.
pub fn quantize_transe_pair(
    a: &TranseEmbeddings,
    b: &TranseEmbeddings,
    precision: Precision,
) -> (TranseEmbeddings, TranseEmbeddings) {
    if precision.is_full() {
        return (a.clone(), b.clone());
    }
    let clip_e = optimal_clip(a.entities.as_slice(), precision);
    let clip_r = optimal_clip(a.relations.as_slice(), precision);
    let q = |m: &Mat, clip: f64| -> Mat {
        let mut out = m.clone();
        for v in out.as_mut_slice() {
            *v = quantize_value(*v, clip, precision);
        }
        out
    };
    (
        TranseEmbeddings {
            entities: q(&a.entities, clip_e),
            relations: q(&a.relations, clip_r),
        },
        TranseEmbeddings {
            entities: q(&b.entities, clip_e),
            relations: q(&b.relations, clip_r),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KgSpec;

    fn small_kg() -> KnowledgeGraph {
        KgSpec {
            n_entities: 120,
            n_types: 6,
            n_relations: 8,
            triplets_per_relation: 120,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn training_beats_random_ranks() {
        let kg = small_kg();
        let trained = train_transe(&kg, 16, &TranseConfig::default(), 0);
        let ranks = link_prediction_ranks(&trained, kg.n_entities, &kg.test);
        let mr = mean_rank(&ranks);
        // Random embeddings rank the true entity around n/2 = 60.
        assert!(mr < 30.0, "mean rank {mr} should beat random (~60)");
    }

    #[test]
    fn deterministic_given_seed() {
        let kg = small_kg();
        let cfg = TranseConfig {
            epochs: 10,
            patience: 0,
            ..Default::default()
        };
        let a = train_transe(&kg, 8, &cfg, 3);
        let b = train_transe(&kg, 8, &cfg, 3);
        assert_eq!(a, b);
        let c = train_transe(&kg, 8, &cfg, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn score_is_l1_translation_distance() {
        let emb = TranseEmbeddings {
            entities: Mat::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]),
            relations: Mat::from_rows(&[&[1.0, 0.0]]),
        };
        // ||(0,0) + (1,0) - (1,1)||_1 = |0| + |-1| = 1.
        assert!((emb.score(0, 0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantization_shares_clip_and_degrades_gracefully() {
        let kg = small_kg();
        let cfg = TranseConfig {
            epochs: 30,
            patience: 0,
            ..Default::default()
        };
        let a = train_transe(&kg, 16, &cfg, 0);
        let b = train_transe(&kg, 16, &cfg, 1);
        let (qa1, _qb1) = quantize_transe_pair(&a, &b, Precision::new(1));
        let (qa8, _qb8) = quantize_transe_pair(&a, &b, Precision::new(8));
        let err1 = qa1.entities.sub(&a.entities).frobenius_norm();
        let err8 = qa8.entities.sub(&a.entities).frobenius_norm();
        assert!(
            err8 < err1,
            "higher precision must quantize more faithfully"
        );
        let (qf, _) = quantize_transe_pair(&a, &b, Precision::FULL);
        assert_eq!(qf, a);
    }
}
