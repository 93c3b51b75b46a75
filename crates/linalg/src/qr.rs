//! Thin Householder QR decomposition.

use crate::Mat;

impl Mat {
    /// Thin QR decomposition `self = Q * R` for an `m x n` matrix with
    /// `m >= n`: `Q` is `m x n` with orthonormal columns, `R` is `n x n`
    /// upper triangular.
    ///
    /// # Panics
    ///
    /// Panics if `rows < cols`.
    pub fn qr(&self) -> (Mat, Mat) {
        let (m, n) = self.shape();
        assert!(m >= n, "thin QR requires rows >= cols ({m} < {n})");
        self.householder()
    }

    /// Projects the columns of the matrix onto an orthonormal basis of its
    /// column space via QR, returning the `Q` factor.
    ///
    /// Total: for a wide matrix (`rows < cols`) the first `rows` columns
    /// are an orthonormal basis of the whole space and the remaining
    /// columns are zero, so a long-lived caller (the streaming retrainer's
    /// warm bases) never dies on a shape.
    pub fn orthonormalize(&self) -> Mat {
        self.householder().0
    }

    /// Householder QR for any shape: `Q` is `m x n`, `R` is `n x n` and
    /// `Q R` reproduces the matrix. With `m >= n` this is the thin QR;
    /// with `m < n` only `m` reflections exist, and the trailing `n - m`
    /// columns of `Q` (rows of `R`) are zero.
    fn householder(&self) -> (Mat, Mat) {
        let (m, n) = self.shape();
        let steps = m.min(n);
        // Work on the transpose so Householder vectors are contiguous rows.
        let mut rt = self.transpose(); // n x m; row k = column k of the work matrix
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(steps);
        for k in 0..steps {
            // Build the Householder vector from entries k.. of column k.
            let col = &rt.row(k)[k..];
            let alpha = crate::vecops::norm2(col);
            let mut v = col.to_vec();
            if alpha > 0.0 {
                let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
                v[0] += sign * alpha;
                crate::vecops::normalize(&mut v);
            }
            // Apply I - 2vv^T to columns k.. of every remaining work column.
            for j in k..n {
                let row = &mut rt.row_mut(j)[k..];
                let proj = 2.0 * crate::vecops::dot(&v, row);
                crate::vecops::axpy(-proj, &v, row);
            }
            vs.push(v);
        }
        // R = upper triangle of the reduced matrix.
        let mut r = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..steps.min(j + 1) {
                r[(i, j)] = rt.row(j)[i];
            }
        }
        // Q = H_0 H_1 ... H_{steps-1} * [I_steps; 0], built column by column.
        let mut qt = Mat::zeros(n, m); // row j = column j of Q
        for j in 0..steps {
            qt.row_mut(j)[j] = 1.0;
            for k in (0..steps).rev() {
                let v = &vs[k];
                let row = &mut qt.row_mut(j)[k..];
                let proj = 2.0 * crate::vecops::dot(v, row);
                crate::vecops::axpy(-proj, v, row);
            }
        }
        (qt.transpose(), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn check_qr(a: &Mat) {
        let (q, r) = a.qr();
        // Reconstruction.
        let qr = q.matmul(&r);
        let scale = a.frobenius_norm().max(1.0);
        assert!(
            qr.sub(a).frobenius_norm() / scale < 1e-10,
            "QR reconstruction failed"
        );
        // Orthonormal columns.
        let qtq = q.gram();
        let eye = Mat::identity(a.cols());
        assert!(qtq.sub(&eye).frobenius_norm() < 1e-10, "Q not orthonormal");
        // R upper triangular.
        for i in 0..r.rows() {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0, "R not upper triangular");
            }
        }
    }

    #[test]
    fn qr_random_tall() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for &(m, n) in &[(5, 5), (20, 7), (50, 3), (9, 1)] {
            let a = Mat::random_normal(m, n, &mut rng);
            check_qr(&a);
        }
    }

    #[test]
    fn qr_rank_deficient_still_orthonormal_q() {
        // Two identical columns: rank 1.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let (q, r) = a.qr();
        let qtq = q.gram();
        assert!(qtq.sub(&Mat::identity(2)).frobenius_norm() < 1e-10);
        assert!(q.matmul(&r).sub(&a).frobenius_norm() < 1e-10);
    }

    #[test]
    fn orthonormalize_wide_pads_with_zero_columns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let a = Mat::random_normal(3, 5, &mut rng);
        let q = a.orthonormalize();
        assert_eq!(q.shape(), (3, 5));
        let head = q.truncate_cols(3);
        assert!(head.gram().sub(&Mat::identity(3)).frobenius_norm() < 1e-10);
        assert!(q.as_slice().chunks(5).all(|row| row[3..] == [0.0, 0.0]));
        // The tall path is the thin QR's Q, bit for bit.
        let tall = a.transpose();
        assert_eq!(tall.orthonormalize(), tall.qr().0);
    }

    #[test]
    #[should_panic(expected = "rows >= cols")]
    fn qr_wide_panics() {
        let a = Mat::zeros(2, 5);
        let _ = a.qr();
    }
}
