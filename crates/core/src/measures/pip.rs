//! The pairwise inner product (PIP) loss (Yin & Shen, 2018).

use embedstab_embeddings::Embedding;

use super::DistanceMeasure;

/// The PIP loss `|| X X^T - Y Y^T ||_F`, computed without materializing the
/// `n x n` Gram matrices via
/// `||X^T X||_F^2 + ||Y^T Y||_F^2 - 2 ||X^T Y||_F^2`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipLoss;

impl DistanceMeasure for PipLoss {
    /// # Panics
    ///
    /// Panics if the embeddings have different vocabulary sizes.
    fn distance(&self, x: &Embedding, y: &Embedding) -> f64 {
        assert_eq!(x.vocab_size(), y.vocab_size(), "vocabulary mismatch");
        let xx = x.mat().gram().frobenius_norm_sq();
        let yy = y.mat().gram().frobenius_norm_sq();
        let xy = x.mat().matmul_tn(y.mat()).frobenius_norm_sq();
        // Clamp: roundoff can make the sum marginally negative when X == Y.
        (xx + yy - 2.0 * xy).max(0.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_linalg::Mat;
    use rand::SeedableRng;

    #[test]
    fn matches_naive_dense_computation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let x = Mat::random_normal(15, 4, &mut rng);
        let y = Mat::random_normal(15, 6, &mut rng); // different dims allowed
        let naive = x.matmul_nt(&x).sub(&y.matmul_nt(&y)).frobenius_norm();
        let fast = PipLoss.distance(&Embedding::new(x), &Embedding::new(y));
        assert!((naive - fast).abs() < 1e-8, "naive {naive} vs fast {fast}");
    }

    #[test]
    fn zero_for_identical_and_rotated() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = Mat::random_normal(20, 5, &mut rng);
        let (q, _) = Mat::random_normal(5, 5, &mut rng).qr();
        let y = x.matmul(&q);
        // The Gram-trick cancellation leaves roundoff of order
        // sqrt(eps) * ||X^T X||_F, so compare against that scale.
        let scale = xe_scale(&x);
        let xe = Embedding::new(x);
        assert!(PipLoss.distance(&xe, &xe) < 1e-5 * scale);
        assert!(
            PipLoss.distance(&xe, &Embedding::new(y)) < 1e-5 * scale,
            "PIP is rotation-invariant"
        );
    }

    fn xe_scale(x: &Mat) -> f64 {
        x.gram().frobenius_norm().sqrt()
    }
}
