//! Embedding distance measures (paper Section 2.4 and Definition 2).
//!
//! Every measure is *distance-like*: higher values predict more downstream
//! instability. Measures whose raw form is a similarity (the k-NN measure
//! and the eigenspace overlap score) are reported as `1 - similarity`,
//! matching the `1 - k-NN` / `1 - Eigenspace Overlap` rows of the paper's
//! tables.

mod displacement;
mod eis;
mod knn;
mod overlap;
mod pip;

pub use displacement::SemanticDisplacement;
pub use eis::EisMeasure;
pub use knn::KnnMeasure;
pub use overlap::{overlap_distance_from_bases, EigenspaceOverlap};
pub use pip::PipLoss;

use embedstab_embeddings::Embedding;
use embedstab_linalg::{pool, Mat, Svd};
pub use embedstab_linalg::{RandomizedSvd, SvdMethod};
use serde::{Deserialize, Serialize};

/// A pairwise embedding distance: higher = predicted less stable.
pub trait DistanceMeasure {
    /// Display name matching the paper's tables.
    fn name(&self) -> &'static str;

    /// Computes the distance between two embeddings over the same
    /// (frequency-ordered) vocabulary.
    fn distance(&self, x: &Embedding, y: &Embedding) -> f64;
}

/// Identifies one of the five measures in the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MeasureKind {
    /// Eigenspace instability measure (the paper's contribution).
    Eis,
    /// `1 -` k-nearest-neighbors overlap.
    Knn,
    /// Semantic displacement (Hamilton et al., 2016).
    SemanticDisplacement,
    /// Pairwise inner product loss (Yin & Shen, 2018).
    PipLoss,
    /// `1 -` eigenspace overlap score (May et al., 2019).
    EigenspaceOverlap,
}

impl MeasureKind {
    /// All five measures, in the paper's table order.
    pub const ALL: [MeasureKind; 5] = [
        MeasureKind::Eis,
        MeasureKind::Knn,
        MeasureKind::SemanticDisplacement,
        MeasureKind::PipLoss,
        MeasureKind::EigenspaceOverlap,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            MeasureKind::Eis => "Eigenspace Instability",
            MeasureKind::Knn => "1 - k-NN",
            MeasureKind::SemanticDisplacement => "Semantic Displacement",
            MeasureKind::PipLoss => "PIP Loss",
            MeasureKind::EigenspaceOverlap => "1 - Eigenspace Overlap",
        }
    }
}

impl std::fmt::Display for MeasureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The five distances computed for one embedding pair.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeasureValues {
    /// Eigenspace instability measure.
    pub eis: f64,
    /// `1 -` k-NN overlap.
    pub knn_dist: f64,
    /// Semantic displacement.
    pub semantic_displacement: f64,
    /// PIP loss.
    pub pip_loss: f64,
    /// `1 -` eigenspace overlap score.
    pub overlap_dist: f64,
}

impl MeasureValues {
    /// The value for one measure.
    pub fn get(&self, kind: MeasureKind) -> f64 {
        match kind {
            MeasureKind::Eis => self.eis,
            MeasureKind::Knn => self.knn_dist,
            MeasureKind::SemanticDisplacement => self.semantic_displacement,
            MeasureKind::PipLoss => self.pip_loss,
            MeasureKind::EigenspaceOverlap => self.overlap_dist,
        }
    }
}

/// The paper's EIS eigenvalue exponent (tuned in Appendix D.3).
pub const EIS_ALPHA: f64 = 3.0;

/// The paper's neighbour count for the k-NN measure (Appendix D.3).
pub const KNN_K: usize = 5;

/// The paper's number of k-NN query words (capped at the vocabulary).
const KNN_QUERIES: usize = 1000;

/// Rank truncation of the eigenspace bases (relative to the top singular value).
const RANK_TOL: f64 = 1e-10;

/// Computes all five measures for embedding pairs while sharing the
/// expensive SVD work between the eigenspace-based measures.
///
/// [`MeasureSuite::reference`] holds what depends on the left embedding
/// `x` alone, and [`MeasureSuite::score`] scores one `y` against it, so a
/// caller comparing many embeddings with one `x` (the serving gate) pays
/// for `x` once. [`MeasureSuite::compute_all`] is the two in turn.
#[derive(Clone, Debug)]
pub struct MeasureSuite {
    eis: EisAnchor,
    knn: KnnMeasure,
}

/// Where EIS takes its reference embeddings `E` and `E~` from.
#[derive(Clone, Debug)]
enum EisAnchor {
    /// Fixed references: the paper's highest-dimensional full-precision
    /// '17/'18 pair (the offline sweep).
    Fixed(EisMeasure),
    /// The scored pair `(x, y)` itself, built from the two SVDs the score
    /// computes anyway (the serving gate, which has only the live snapshot
    /// to anchor on). Its scores track the fixed anchor's but are not on an
    /// identical numeric scale: calibrate a ceiling on observed scores of
    /// this anchor (e.g. a dry-run known-good retrain, plus headroom), not
    /// on sweep values.
    Pair { alpha: f64 },
}

/// The reference side of a score, computed once per left embedding `x`:
/// its SVD, its rank-truncated left basis, and its k-NN neighbour lists.
#[derive(Clone, Debug)]
pub struct MeasureReference {
    svd: Svd,
    basis: Mat,
    neighbors: Vec<Vec<u32>>,
}

impl MeasureSuite {
    /// Creates a suite with EIS references `e17`/`e18`, EIS exponent
    /// `alpha` (paper default [`EIS_ALPHA`]), and the k-NN measure at its
    /// paper defaults ([`KNN_K`], 1000 queries) seeded by `knn_seed`.
    pub fn new(e17: &Embedding, e18: &Embedding, alpha: f64, knn_seed: u64) -> Self {
        MeasureSuite {
            eis: EisAnchor::Fixed(EisMeasure::new(e17, e18, alpha)),
            knn: KnnMeasure::new(KNN_K, KNN_QUERIES, knn_seed),
        }
    }

    /// Like [`MeasureSuite::new`], but EIS is anchored on each scored pair
    /// itself: a score is bitwise `MeasureSuite::new(x, y, alpha,
    /// knn_seed).compute_all(x, y)`, without decomposing either side
    /// twice. Its EIS is on its own scale (see `EisAnchor::Pair`).
    pub fn pair_anchored(alpha: f64, knn_seed: u64) -> Self {
        MeasureSuite {
            eis: EisAnchor::Pair { alpha },
            knn: KnnMeasure::new(KNN_K, KNN_QUERIES, knn_seed),
        }
    }

    /// Overrides the k-NN configuration.
    pub fn with_knn(mut self, knn: KnnMeasure) -> Self {
        self.knn = knn;
        self
    }

    /// The reference side of every score against `x`: its k-NN neighbour
    /// lists beside its SVD, on the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer than 2 words.
    pub fn reference(&self, x: &Embedding) -> MeasureReference {
        let (neighbors, svd) = pool::join(|| self.knn.neighbors(x), || x.mat().svd());
        MeasureReference {
            basis: svd.u_rank(RANK_TOL),
            svd,
            neighbors,
        }
    }

    /// Computes all five measures for the pair `(x, y)` given `x`'s
    /// [`MeasureSuite::reference`]. The k-NN search takes the calling
    /// thread, where its query tiles may still split across the pool;
    /// `y`'s SVD and the spectral measures run beside it.
    ///
    /// # Panics
    ///
    /// Panics if the embeddings have different vocabulary sizes, their
    /// vocabulary size differs from fixed EIS references', or
    /// `reference` was not computed from an embedding of `x`'s shape.
    pub fn score(
        &self,
        x: &Embedding,
        reference: &MeasureReference,
        y: &Embedding,
    ) -> MeasureValues {
        assert_eq!(
            x.vocab_size(),
            y.vocab_size(),
            "embeddings must share a vocabulary"
        );
        let (knn_dist, spectral) = pool::join(
            || 1.0 - self.knn.overlap_from_neighbors(&reference.neighbors, y),
            || {
                let svd_y = y.mat().svd();
                let uy = svd_y.u_rank(RANK_TOL);
                let eis = match &self.eis {
                    EisAnchor::Fixed(eis) => eis.distance_from_bases(&reference.basis, &uy),
                    EisAnchor::Pair { alpha } => EisMeasure::from_reference_svds(
                        &reference.svd,
                        &svd_y,
                        x.vocab_size(),
                        *alpha,
                    )
                    .distance_from_bases(&reference.basis, &uy),
                };
                [
                    eis,
                    SemanticDisplacement.distance(x, y),
                    PipLoss.distance(x, y),
                    overlap_distance_from_bases(&reference.basis, &uy),
                ]
            },
        );
        let [eis, semantic_displacement, pip_loss, overlap_dist] = spectral;
        MeasureValues {
            eis,
            knn_dist,
            semantic_displacement,
            pip_loss,
            overlap_dist,
        }
    }

    /// Computes all five measures for the pair `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the embeddings have different vocabulary sizes or their
    /// vocabulary size differs from fixed EIS references'.
    pub fn compute_all(&self, x: &Embedding, y: &Embedding) -> MeasureValues {
        self.score(x, &self.reference(x), y)
    }
}

/// Rank-truncated left singular vectors of an embedding matrix, computed
/// with the default [`SvdMethod::Auto`] backend.
pub(crate) fn left_singular_basis(m: &Mat) -> Mat {
    left_singular_basis_with(m, SvdMethod::Auto)
}

/// Rank-truncated left singular vectors computed with an explicit SVD
/// backend. This is the seam the eigenspace measures and the
/// kernel-conformance tests share: swapping the backend here must not
/// change any measure value beyond roundoff.
pub fn left_singular_basis_with(m: &Mat, method: SvdMethod) -> Mat {
    m.svd_with(method).u_rank(RANK_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn suite_on_identical_embeddings() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let e = Embedding::new(Mat::random_normal(40, 6, &mut rng));
        let suite = MeasureSuite::new(&e, &e, 3.0, 7);
        let vals = suite.compute_all(&e, &e);
        assert!(vals.eis.abs() < 1e-9, "eis {}", vals.eis);
        assert!(vals.knn_dist.abs() < 1e-12);
        assert!(vals.semantic_displacement.abs() < 1e-9);
        assert!(vals.pip_loss.abs() < 1e-9);
        assert!(vals.overlap_dist.abs() < 1e-9);
    }

    #[test]
    fn all_measures_positive_for_different_embeddings() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = Embedding::new(Mat::random_normal(40, 6, &mut rng));
        let y = Embedding::new(Mat::random_normal(40, 6, &mut rng));
        let suite = MeasureSuite::new(&x, &y, 3.0, 7);
        let vals = suite.compute_all(&x, &y);
        for kind in MeasureKind::ALL {
            assert!(vals.get(kind) > 0.0, "{kind} should be positive");
        }
    }

    fn bits(v: MeasureValues) -> [u64; 5] {
        MeasureKind::ALL.map(|kind| v.get(kind).to_bits())
    }

    #[test]
    fn pair_anchored_score_is_bitwise_the_suite_anchored_on_the_pair() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // 40 rows take the exact SVD, 300 the randomized one.
        for (n, d) in [(40, 6), (300, 8)] {
            let x = Embedding::new(Mat::random_normal(n, d, &mut rng));
            let mut noisy = x.mat().clone();
            noisy.axpy(0.3, &Mat::random_normal(n, d, &mut rng));
            let y = Embedding::new(noisy);
            let suite = MeasureSuite::pair_anchored(3.0, 0);
            let split = suite.score(&x, &suite.reference(&x), &y);
            let one_shot = MeasureSuite::new(&x, &y, 3.0, 0)
                .with_knn(KnnMeasure::new(5, 1000, 0))
                .compute_all(&x, &y);
            assert_eq!(bits(split), bits(one_shot), "n {n}, d {d}");
            assert!(split.eis > 0.0);
        }
    }

    #[test]
    fn one_reference_scores_each_candidate_as_compute_all() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let e = |rng: &mut rand::rngs::StdRng| Embedding::new(Mat::random_normal(50, 5, rng));
        let (e17, e18, x) = (e(&mut rng), e(&mut rng), e(&mut rng));
        let candidates = [e(&mut rng), e(&mut rng)];
        for suite in [
            MeasureSuite::new(&e17, &e18, 3.0, 7).with_knn(KnnMeasure::new(3, 20, 7)),
            MeasureSuite::pair_anchored(2.0, 1),
        ] {
            let reference = suite.reference(&x);
            let scores = candidates
                .each_ref()
                .map(|y| suite.score(&x, &reference, y));
            assert_ne!(bits(scores[0]), bits(scores[1]));
            for (y, score) in candidates.iter().zip(scores) {
                assert_eq!(bits(score), bits(suite.compute_all(&x, y)));
            }
        }
    }

    #[test]
    fn kind_names_match_tables() {
        assert_eq!(MeasureKind::Eis.name(), "Eigenspace Instability");
        assert_eq!(MeasureKind::Knn.name(), "1 - k-NN");
        assert_eq!(MeasureKind::ALL.len(), 5);
    }
}
