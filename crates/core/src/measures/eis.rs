//! The eigenspace instability measure (paper Definition 2, Appendix B.1) —
//! the paper's core contribution.

use embedstab_embeddings::Embedding;
use embedstab_linalg::{Mat, SvdMethod};

use super::{left_singular_basis_with, DistanceMeasure, RANK_TOL};

/// The eigenspace instability measure
/// `EI_Sigma(X, X~) = tr((U U^T + U~ U~^T - 2 U~ U~^T U U^T) Sigma) / tr(Sigma)`
/// with `Sigma = (E E^T)^alpha + (E~ E~^T)^alpha`.
///
/// `E` and `E~` are fixed reference embeddings — the paper uses the
/// highest-dimensional full-precision Wiki'17 and Wiki'18 embeddings — and
/// `alpha` (default 3, tuned in Appendix D.3) controls how much the
/// high-eigenvalue directions of their Gram matrices dominate the label
/// covariance.
///
/// By Proposition 1, this measure *equals* the expected prediction
/// disagreement between the linear regression models trained on `X` and
/// `X~` under labels `y ~ (0, Sigma)`; see [`crate::theory`] for the
/// Monte-Carlo verification.
///
/// The implementation follows the efficient `O(n d^2)` scheme of
/// Appendix B.1: only `U^T (V R^alpha)`-shaped products are formed, never an
/// `n x n` matrix.
#[derive(Clone, Debug)]
pub struct EisMeasure {
    /// `V R^alpha` of the '17 reference (`n x r17`).
    z17: Mat,
    /// `V~ R~^alpha` of the '18 reference (`n x r18`).
    z18: Mat,
    /// `tr(Sigma) = tr(R^{2 alpha}) + tr(R~^{2 alpha})`.
    trace_sigma: f64,
    vocab_size: usize,
}

impl EisMeasure {
    /// Builds the measure from the two reference embeddings and the
    /// eigenvalue-weighting exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if the references have different vocabulary sizes or either
    /// is all-zero.
    pub fn new(e17: &Embedding, e18: &Embedding, alpha: f64) -> Self {
        assert_eq!(
            e17.vocab_size(),
            e18.vocab_size(),
            "reference embeddings must share a vocabulary"
        );
        Self::from_reference_svds(&e17.mat().svd(), &e18.mat().svd(), e17.vocab_size(), alpha)
    }

    /// Builds the measure from precomputed reference SVDs, so hyperparameter
    /// sweeps over `alpha` (paper Table 8) do not repeat the expensive
    /// decompositions.
    ///
    /// # Panics
    ///
    /// Panics if the SVDs' row counts differ from `vocab_size` or both
    /// references are zero.
    pub fn from_reference_svds(
        svd17: &embedstab_linalg::Svd,
        svd18: &embedstab_linalg::Svd,
        vocab_size: usize,
        alpha: f64,
    ) -> Self {
        assert_eq!(svd17.u.rows(), vocab_size, "reference SVD row mismatch");
        assert_eq!(svd18.u.rows(), vocab_size, "reference SVD row mismatch");
        let (z17, t17) = weighted_left_basis(svd17, alpha);
        let (z18, t18) = weighted_left_basis(svd18, alpha);
        let trace_sigma = t17 + t18;
        assert!(trace_sigma > 0.0, "reference embeddings must be non-zero");
        EisMeasure {
            z17,
            z18,
            trace_sigma,
            vocab_size,
        }
    }

    /// Computes the measure from precomputed orthonormal left singular
    /// bases `U` (of `X`) and `U~` (of `X~`), sharing SVD work with other
    /// eigenspace measures.
    ///
    /// # Panics
    ///
    /// Panics if the bases' row counts differ from the references'.
    pub fn distance_from_bases(&self, ux: &Mat, uy: &Mat) -> f64 {
        assert_eq!(ux.rows(), self.vocab_size, "basis row count mismatch");
        assert_eq!(uy.rows(), self.vocab_size, "basis row count mismatch");
        let c = uy.matmul_tn(ux); // U~^T U  (dy x dx)
        let num = self.sigma_term(ux, uy, &c, &self.z17) + self.sigma_term(ux, uy, &c, &self.z18);
        // Roundoff guard: the measure is a trace of a PSD-weighted
        // difference of projectors and lies in [0, 1].
        (num / self.trace_sigma).clamp(0.0, 1.0)
    }

    /// `tr((U U^T + U~ U~^T - 2 U~ U~^T U U^T) Z Z^T)` for one reference
    /// factor `Z = V R^alpha`, via
    /// `||U^T Z||_F^2 + ||U~^T Z||_F^2 - 2 <U~^T Z, (U~^T U)(U^T Z)>_F`.
    fn sigma_term(&self, ux: &Mat, uy: &Mat, c: &Mat, z: &Mat) -> f64 {
        let q = ux.matmul_tn(z); // U^T Z   (dx x r)
        let p = uy.matmul_tn(z); // U~^T Z  (dy x r)
        q.frobenius_norm_sq() + p.frobenius_norm_sq() - 2.0 * p.frob_inner(&c.matmul(&q))
    }
}

impl DistanceMeasure for EisMeasure {
    /// [`EisMeasure::distance_from_bases`] of both sides' `Auto` bases.
    ///
    /// # Panics
    ///
    /// Panics if either embedding's vocabulary size differs from the
    /// references'.
    fn distance(&self, x: &Embedding, y: &Embedding) -> f64 {
        self.distance_from_bases(
            &left_singular_basis_with(x.mat(), SvdMethod::Auto),
            &left_singular_basis_with(y.mat(), SvdMethod::Auto),
        )
    }
}

/// Returns `(U diag(s^alpha), sum s^{2 alpha})` for a rank-truncated SVD.
fn weighted_left_basis(svd: &embedstab_linalg::Svd, alpha: f64) -> (Mat, f64) {
    let rank = svd.rank(RANK_TOL);
    let mut z = svd.u.truncate_cols(rank);
    let mut trace = 0.0;
    for j in 0..rank {
        let w = svd.s[j].powf(alpha);
        trace += w * w;
        for i in 0..z.rows() {
            z[(i, j)] *= w;
        }
    }
    (z, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rand_emb(n: usize, d: usize, seed: u64) -> Embedding {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Embedding::new(Mat::random_normal(n, d, &mut rng))
    }

    #[test]
    fn zero_for_identical_embeddings() {
        let e = rand_emb(40, 6, 0);
        let m = EisMeasure::new(&e, &e, 3.0);
        assert!(m.distance(&e, &e) < 1e-9);
    }

    #[test]
    fn zero_for_same_column_space() {
        // X~ = X T for invertible T spans the same space: projectors equal.
        let e = rand_emb(40, 5, 1);
        let m = EisMeasure::new(&e, &e, 2.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let t = Mat::random_normal(5, 5, &mut rng).add(&Mat::identity(5).scale(3.0));
        let y = Embedding::new(e.mat().matmul(&t));
        assert!(m.distance(&e, &y) < 1e-8);
    }

    #[test]
    fn one_for_orthogonal_spans_covering_sigma() {
        // E = X spans coords {0,1}; E~ = X~ spans {2,3}. With Sigma built
        // from both references, orthogonal spans give exactly 1.
        let x = Mat::from_fn(10, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        let y = Mat::from_fn(10, 2, |i, j| if i == j + 2 { 1.0 } else { 0.0 });
        let (xe, ye) = (Embedding::new(x), Embedding::new(y));
        let m = EisMeasure::new(&xe, &ye, 1.0);
        let d = m.distance(&xe, &ye);
        assert!((d - 1.0).abs() < 1e-9, "expected 1.0, got {d}");
    }

    #[test]
    fn bounded_in_unit_interval() {
        let e17 = rand_emb(50, 12, 3);
        let e18 = rand_emb(50, 12, 4);
        let m = EisMeasure::new(&e17, &e18, 3.0);
        for seed in 0..5 {
            let x = rand_emb(50, 4 + seed as usize, 10 + seed);
            let y = rand_emb(50, 4 + seed as usize, 20 + seed);
            let d = m.distance(&x, &y);
            assert!((0.0..=1.0).contains(&d), "EIS {d} out of range");
        }
    }

    #[test]
    fn grows_with_perturbation() {
        let e = rand_emb(60, 10, 5);
        let m = EisMeasure::new(&e, &e, 3.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let noise = Mat::random_normal(60, 10, &mut rng);
        let mut prev = 0.0;
        for &eps in &[0.01, 0.1, 0.5, 2.0] {
            let mut y = e.mat().clone();
            y.axpy(eps, &noise);
            let d = m.distance(&e, &Embedding::new(y));
            assert!(d >= prev - 1e-9, "EIS should grow with noise: {d} < {prev}");
            prev = d;
        }
        assert!(prev > 0.01, "large noise must register ({prev})");
    }

    #[test]
    fn matches_dense_definition() {
        // Definition 2 computed with explicit n x n projectors must agree
        // with the efficient Appendix B.1 implementation.
        let e17 = rand_emb(25, 6, 7);
        let e18 = rand_emb(25, 6, 8);
        let x = rand_emb(25, 4, 9);
        let y = rand_emb(25, 5, 10);
        for &alpha in &[0.0, 1.0, 3.0] {
            let m = EisMeasure::new(&e17, &e18, alpha);
            let fast = m.distance(&x, &y);
            let dense = crate::theory::eis_dense(
                x.mat(),
                y.mat(),
                &crate::theory::sigma_dense(e17.mat(), e18.mat(), alpha),
            );
            assert!(
                (fast - dense).abs() < 1e-8,
                "alpha {alpha}: fast {fast} vs dense {dense}"
            );
        }
    }
}
