//! Semantic displacement (Hamilton et al., 2016).

use embedstab_embeddings::Embedding;
use embedstab_linalg::{orthogonal_procrustes, vecops};

use super::DistanceMeasure;

/// Semantic displacement: the mean cosine distance between corresponding
/// rows after optimally rotating `y` onto `x` with orthogonal Procrustes,
/// `1/n * sum_i cos-dist(X_i, (Y Omega)_i)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SemanticDisplacement;

impl DistanceMeasure for SemanticDisplacement {
    /// # Panics
    ///
    /// Panics if the embeddings have different shapes.
    fn distance(&self, x: &Embedding, y: &Embedding) -> f64 {
        assert_eq!(
            x.shape(),
            y.shape(),
            "semantic displacement requires equal shapes"
        );
        let omega = orthogonal_procrustes(x.mat(), y.mat());
        let aligned = y.mat().matmul(&omega);
        let n = x.vocab_size();
        let mut total = 0.0;
        for i in 0..n {
            total += vecops::cosine_distance(x.mat().row(i), aligned.row(i));
        }
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_linalg::Mat;
    use rand::SeedableRng;

    #[test]
    fn zero_for_rotated_copy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let x = Mat::random_normal(25, 4, &mut rng);
        let (q, _) = Mat::random_normal(4, 4, &mut rng).qr();
        let y = x.matmul(&q);
        let d = SemanticDisplacement.distance(&Embedding::new(x), &Embedding::new(y));
        assert!(
            d < 1e-9,
            "displacement of a pure rotation should vanish, got {d}"
        );
    }

    #[test]
    fn positive_for_perturbed_copy_and_scales_with_noise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = Mat::random_normal(40, 6, &mut rng);
        let mut small = x.clone();
        small.axpy(0.05, &Mat::random_normal(40, 6, &mut rng));
        let mut large = x.clone();
        large.axpy(0.5, &Mat::random_normal(40, 6, &mut rng));
        let x = Embedding::new(x);
        let d_small = SemanticDisplacement.distance(&x, &Embedding::new(small));
        let d_large = SemanticDisplacement.distance(&x, &Embedding::new(large));
        assert!(d_small > 0.0);
        assert!(d_large > d_small, "more noise => more displacement");
    }
}
