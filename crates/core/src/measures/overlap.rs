//! The eigenspace overlap score (May et al., 2019).

use embedstab_embeddings::Embedding;
use embedstab_linalg::{Mat, SvdMethod};

use super::{left_singular_basis_with, DistanceMeasure};

/// The eigenspace overlap score `1/max(d, k) * ||U^T U~||_F^2` where `U`,
/// `U~` are the left singular vectors of the two embeddings, reported as
/// the distance `1 - overlap`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EigenspaceOverlap;

impl DistanceMeasure for EigenspaceOverlap {
    /// [`overlap_distance_from_bases`] of both sides' `Auto` bases.
    ///
    /// # Panics
    ///
    /// Panics if the embeddings have different vocabulary sizes.
    fn distance(&self, x: &Embedding, y: &Embedding) -> f64 {
        assert_eq!(x.vocab_size(), y.vocab_size(), "vocabulary mismatch");
        overlap_distance_from_bases(
            &left_singular_basis_with(x.mat(), SvdMethod::Auto),
            &left_singular_basis_with(y.mat(), SvdMethod::Auto),
        )
    }
}

/// `1 - overlap` from precomputed orthonormal bases, clamped at 0 against
/// roundoff — the seam shared by [`super::MeasureSuite`] and callers that
/// already hold the singular bases (e.g. the serving layer's stability
/// gate, which decomposes each embedding exactly once per evaluation).
pub fn overlap_distance_from_bases(ux: &Mat, uy: &Mat) -> f64 {
    let denom = ux.cols().max(uy.cols()).max(1) as f64;
    (1.0 - ux.matmul_tn(uy).frobenius_norm_sq() / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn full_overlap_for_same_span() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let x = Mat::random_normal(30, 4, &mut rng);
        // y spans the same column space: x times an invertible matrix.
        let t = Mat::random_normal(4, 4, &mut rng).add(&Mat::identity(4).scale(3.0));
        let y = x.matmul(&t);
        let d = EigenspaceOverlap.distance(&Embedding::new(x), &Embedding::new(y));
        assert!(
            (0.0..1e-8).contains(&d),
            "same span must overlap fully, got distance {d}"
        );
    }

    #[test]
    fn orthogonal_spans_have_zero_overlap() {
        // Columns of x live on even coordinates, y on odd ones.
        let x = Mat::from_fn(10, 2, |i, j| if i == 2 * j { 1.0 } else { 0.0 });
        let y = Mat::from_fn(10, 2, |i, j| if i == 2 * j + 1 { 1.0 } else { 0.0 });
        let d = EigenspaceOverlap.distance(&Embedding::new(x), &Embedding::new(y));
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_bounded_by_one_for_mixed_dims() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = Embedding::new(Mat::random_normal(30, 3, &mut rng));
        let y = Embedding::new(Mat::random_normal(30, 7, &mut rng));
        let d = EigenspaceOverlap.distance(&x, &y);
        assert!((0.0..=1.0).contains(&d), "distance {d}");
    }
}
