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
use embedstab_linalg::Mat;
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

/// Computes all five measures for embedding pairs while sharing the
/// expensive SVD work between the eigenspace-based measures.
///
/// The suite owns the EIS reference embeddings (the paper uses the
/// highest-dimensional full-precision Wiki'17/Wiki'18 embeddings as `E` and
/// `E~`) and the k-NN query sampling configuration.
#[derive(Clone, Debug)]
pub struct MeasureSuite {
    eis: EisMeasure,
    knn: KnnMeasure,
}

impl MeasureSuite {
    /// Creates a suite with EIS references `e17`/`e18`, EIS exponent
    /// `alpha` (paper default 3), and the k-NN measure at its paper
    /// defaults (`k = 5`, 1000 queries) seeded by `knn_seed`.
    pub fn new(e17: &Embedding, e18: &Embedding, alpha: f64, knn_seed: u64) -> Self {
        MeasureSuite {
            eis: EisMeasure::new(e17, e18, alpha),
            knn: KnnMeasure::new(5, 1000, knn_seed),
        }
    }

    /// Overrides the k-NN configuration.
    pub fn with_knn(mut self, knn: KnnMeasure) -> Self {
        self.knn = knn;
        self
    }

    /// Computes all five measures for the pair `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the embeddings have different vocabulary sizes or their
    /// vocabulary size differs from the EIS references'.
    pub fn compute_all(&self, x: &Embedding, y: &Embedding) -> MeasureValues {
        assert_eq!(
            x.vocab_size(),
            y.vocab_size(),
            "embeddings must share a vocabulary"
        );
        let ux = left_singular_basis(x.mat());
        let uy = left_singular_basis(y.mat());
        MeasureValues {
            eis: self.eis.distance_from_bases(&ux, &uy),
            knn_dist: self.knn.distance(x, y),
            semantic_displacement: SemanticDisplacement.distance(x, y),
            pip_loss: PipLoss.distance(x, y),
            overlap_dist: overlap::overlap_distance_from_bases(&ux, &uy),
        }
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
    m.svd_with(method).u_rank(1e-10)
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

    #[test]
    fn kind_names_match_tables() {
        assert_eq!(MeasureKind::Eis.name(), "Eigenspace Instability");
        assert_eq!(MeasureKind::Knn.name(), "1 - k-NN");
        assert_eq!(MeasureKind::ALL.len(), 5);
    }
}
