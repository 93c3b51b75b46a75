//! Singular value decomposition: one-sided Jacobi plus a randomized
//! range-finder fast path.
//!
//! Two backends live here, selected by [`SvdMethod`]:
//!
//! - **Exact one-sided Jacobi** ([`Mat::svd_exact`]): orthogonalizes the
//!   columns of the input by plane rotations. Simple and numerically
//!   robust, but every rotation sweeps full-length columns, so tall
//!   embedding matrices (`vocab x dim`) pay `O(sweeps * dim^2 * vocab)`
//!   in memory-bound rotations.
//! - **Randomized range finder** ([`Mat::svd_randomized`], Halko,
//!   Martinsson & Tropp, 2011): sketches the column space with a seeded
//!   Gaussian test matrix, orthonormalizes via QR, optionally refines with
//!   subspace (power) iterations, and runs Jacobi only on the small
//!   projected problem `B = Q^T A`. All the heavy lifting becomes blocked
//!   GEMM calls. With a full-width sketch (`l = min(m, n)`) the projection
//!   is exact up to roundoff, so the default [`SvdMethod::Auto`] dispatch
//!   can use it for tall matrices without an accuracy cliff; the
//!   kernel-conformance test suite pins this.
//!
//! [`Mat::svd`] is `svd_with(SvdMethod::Auto)`: randomized for tall
//! operands (long side at least [`RANDOMIZED_MIN_DIM`] and at least
//! [`RANDOMIZED_ASPECT`]`x` the short side), exact Jacobi for everything
//! small, square-ish, or degenerate. Pass [`SvdMethod::Exact`] to force
//! the Jacobi path (Procrustes rotations and the conformance tests do).

use crate::Mat;
use rand::SeedableRng;

/// Maximum number of Jacobi sweeps before giving up (in practice well under
/// 30 sweeps are needed for convergence at `f64` precision).
const MAX_SWEEPS: usize = 64;

/// Relative off-diagonal tolerance for convergence.
const TOL: f64 = 1e-12;

/// [`SvdMethod::Auto`] uses the randomized path only when the long
/// dimension is at least this large...
pub const RANDOMIZED_MIN_DIM: usize = 256;

/// ...and at least this many times the short dimension (tall/wide enough
/// that the projected problem is genuinely small).
pub const RANDOMIZED_ASPECT: usize = 4;

/// Default sketch seed shared by [`SvdMethod::Auto`] and the
/// [`RandomizedSvd`] constructors, so results are deterministic without a
/// caller-provided RNG.
const DEFAULT_SKETCH_SEED: u64 = 0x5eed_cafe;

/// Which SVD backend to run. See the module docs for the trade-off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SvdMethod {
    /// Randomized for tall operands, exact Jacobi otherwise (the
    /// [`Mat::svd`] default).
    Auto,
    /// Always one-sided Jacobi on the full matrix.
    Exact,
    /// Always the randomized range finder with the given configuration.
    Randomized(RandomizedSvd),
}

/// Configuration for the randomized range-finder SVD.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RandomizedSvd {
    /// Number of singular triplets to return (clamped to `min(m, n)`).
    pub rank: usize,
    /// Extra sketch columns beyond `rank` for range-capture headroom
    /// (only matters when truncating; clamped so `rank + oversample`
    /// never exceeds `min(m, n)`).
    pub oversample: usize,
    /// Subspace (power) iterations `Q <- orth(A * orth(A^T Q))` that
    /// sharpen the sketch toward the dominant singular directions; only
    /// needed for truncated decompositions of slowly decaying spectra.
    pub power_iters: usize,
    /// Seed of the Gaussian test matrix (fixed default for determinism).
    pub seed: u64,
}

impl RandomizedSvd {
    /// Full-width sketch: `l = min(m, n)`, no oversampling, no power
    /// iterations. The range capture is exact up to roundoff, so this is
    /// a drop-in replacement for [`Mat::svd_exact`] on tall matrices.
    pub fn full() -> Self {
        RandomizedSvd {
            rank: usize::MAX,
            oversample: 0,
            power_iters: 0,
            seed: DEFAULT_SKETCH_SEED,
        }
    }

    /// Rank-`k` truncated sketch at the standard defaults (oversample 8,
    /// two power iterations).
    pub fn truncated(rank: usize) -> Self {
        RandomizedSvd {
            rank,
            oversample: 8,
            power_iters: 2,
            seed: DEFAULT_SKETCH_SEED,
        }
    }

    /// Replaces the sketch seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the power-iteration count.
    #[must_use]
    pub fn with_power_iters(mut self, iters: usize) -> Self {
        self.power_iters = iters;
        self
    }
}

/// The result of a singular value decomposition `A = U S V^T`.
///
/// For an `m x n` input with `r = min(m, n)`, `u` is `m x r`, `s` holds the
/// `r` singular values in non-increasing order, and `v` is `n x r`.
/// Exception: a truncated randomized decomposition
/// ([`RandomizedSvd::truncated`]) returns only the leading `r = rank`
/// triplets, so `u` is `m x rank`, `s` has `rank` entries, and `v` is
/// `n x rank`.
/// Columns of `u` corresponding to zero singular values are zero vectors;
/// use [`Svd::rank`] / [`Svd::u_rank`] to work with the non-degenerate part.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors (`m x r`).
    pub u: Mat,
    /// Singular values, non-increasing.
    pub s: Vec<f64>,
    /// Right singular vectors (`n x r`).
    pub v: Mat,
}

impl Svd {
    /// Reconstructs the original matrix `U * diag(S) * V^T`.
    pub fn reconstruct(&self) -> Mat {
        let r = self.s.len();
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            let row = us.row_mut(i);
            for j in 0..r {
                row[j] *= self.s[j];
            }
        }
        us.matmul_nt(&self.v)
    }

    /// Numerical rank: the number of singular values greater than
    /// `tol * max_singular_value`.
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.s.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        self.s.iter().take_while(|&&x| x > tol * smax).count()
    }

    /// Left singular vectors restricted to the numerical rank (`m x rank`).
    ///
    /// This is the orthonormal basis of the column space that the eigenspace
    /// instability measure projects onto.
    pub fn u_rank(&self, tol: f64) -> Mat {
        self.u.truncate_cols(self.rank(tol))
    }

    /// Right singular vectors restricted to the numerical rank (`n x rank`).
    pub fn v_rank(&self, tol: f64) -> Mat {
        self.v.truncate_cols(self.rank(tol))
    }
}

impl Mat {
    /// Computes the thin singular value decomposition of the matrix with
    /// the [`SvdMethod::Auto`] backend choice: the randomized range finder
    /// for tall operands, exact one-sided Jacobi otherwise.
    ///
    /// Works for any shape; internally operates on the transpose when the
    /// matrix is wide. Singular values are returned in non-increasing order.
    ///
    /// # Example
    ///
    /// ```
    /// use embedstab_linalg::Mat;
    /// let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
    /// let svd = a.svd();
    /// assert!((svd.s[0] - 2.0).abs() < 1e-12);
    /// assert!((svd.s[1] - 1.0).abs() < 1e-12);
    /// ```
    pub fn svd(&self) -> Svd {
        self.svd_with(SvdMethod::Auto)
    }

    /// Computes the thin SVD with an explicit backend choice.
    pub fn svd_with(&self, method: SvdMethod) -> Svd {
        match method {
            SvdMethod::Exact => self.svd_exact(),
            SvdMethod::Randomized(cfg) => self.svd_randomized(cfg),
            SvdMethod::Auto => {
                let (m, n) = self.shape();
                let (big, small) = (m.max(n), m.min(n));
                if small > 0 && big >= RANDOMIZED_MIN_DIM && big >= RANDOMIZED_ASPECT * small {
                    self.svd_randomized(RandomizedSvd::full())
                } else {
                    self.svd_exact()
                }
            }
        }
    }

    /// Computes the thin SVD by one-sided Jacobi on the full matrix.
    ///
    /// This is the accuracy reference the kernel-conformance tests compare
    /// the randomized backend against, and the fallback [`SvdMethod::Auto`]
    /// uses for small, square-ish, or empty inputs.
    pub fn svd_exact(&self) -> Svd {
        if self.rows() >= self.cols() {
            svd_tall(self)
        } else {
            let t = svd_tall(&self.transpose());
            Svd {
                u: t.v,
                s: t.s,
                v: t.u,
            }
        }
    }

    /// Computes the thin SVD with the randomized range finder (Halko,
    /// Martinsson & Tropp, 2011): sketch, QR, optional subspace
    /// iterations, then exact Jacobi on the small projected matrix
    /// `B = Q^T A`.
    ///
    /// With [`RandomizedSvd::full`] the sketch spans the whole short
    /// dimension and the factorization is exact up to roundoff; with
    /// [`RandomizedSvd::truncated`] only the leading `rank` triplets are
    /// returned. Deterministic given `cfg.seed`.
    pub fn svd_randomized(&self, cfg: RandomizedSvd) -> Svd {
        if self.rows() >= self.cols() {
            svd_randomized_tall(self, cfg)
        } else {
            let t = svd_randomized_tall(&self.transpose(), cfg);
            Svd {
                u: t.v,
                s: t.s,
                v: t.u,
            }
        }
    }

    /// Randomized SVD with a **warm-started** range finder: instead of
    /// sketching the column space with a fresh Gaussian test matrix, the
    /// initial basis is `orth(warm)` — typically the left singular basis
    /// from the previous step of an incrementally updated matrix — and at
    /// least one subspace iteration refreshes it against the current
    /// matrix.
    ///
    /// When the matrix has drifted only a little since `warm` was
    /// computed (the streaming-retrain case), the stale basis already
    /// nearly spans the dominant left subspace, so the expensive sketch
    /// GEMM `A * Omega` is skipped and fewer subspace iterations are
    /// needed than a cold truncated run: with `cfg.power_iters = 1` this
    /// costs 2 large GEMMs against the cold default's 6 (the final
    /// refresh doubles as the projection — see below). The mandatory
    /// iteration is not an optimization knob: projecting onto the stale
    /// basis *without* refreshing it through the current matrix would
    /// bias every factor toward the previous step's subspace.
    ///
    /// If `warm` is narrower than the sketch width
    /// (`rank + oversample`), the remaining columns are filled with a
    /// seeded Gaussian sketch of the current matrix, so lost or brand-new
    /// directions can still enter the basis. Deterministic given
    /// `cfg.seed` and `warm`.
    ///
    /// Falls back to the cold [`Mat::svd_randomized`] when the warm basis
    /// is unusable: wrong row count, no columns, or a wide (`m < n`)
    /// input (whose range finder runs on the transpose, where a *left*
    /// warm basis is the wrong side).
    pub fn svd_randomized_warm(&self, cfg: RandomizedSvd, warm: &Mat) -> Svd {
        svd_randomized_warm_op(self, cfg, warm).unwrap_or_else(|| self.svd_randomized(cfg))
    }
}

/// What the randomized range finder actually needs from the matrix being
/// factorized: its shape and products `A * X` / `A^T * X` against skinny
/// dense blocks. `Mat` is the dense instance; sparse matrix types (e.g.
/// the PPMI statistics in `embedstab_corpus`) implement it so the
/// sketched SVD runs in `O(nnz * l)` per product without densification.
pub trait SketchOp {
    /// `(rows, cols)` of the operator.
    fn op_shape(&self) -> (usize, usize);
    /// `A * x`, where `x` is `cols x k`.
    fn apply(&self, x: &Mat) -> Mat;
    /// `A^T * x`, where `x` is `rows x k`.
    fn apply_t(&self, x: &Mat) -> Mat;
}

impl SketchOp for Mat {
    fn op_shape(&self) -> (usize, usize) {
        self.shape()
    }

    fn apply(&self, x: &Mat) -> Mat {
        self.matmul(x)
    }

    fn apply_t(&self, x: &Mat) -> Mat {
        self.matmul_tn(x)
    }
}

/// The warm-started range finder behind [`Mat::svd_randomized_warm`],
/// generic over [`SketchOp`] so implicit operators skip densification.
///
/// Returns `None` when the warm basis is unusable for this operator —
/// wide (`m < n`) shape, wrong row count, no columns, or an empty
/// operator — in which case the caller falls back to its cold path
/// (dense callers: [`Mat::svd_randomized`]).
pub fn svd_randomized_warm_op<A: SketchOp>(a: &A, cfg: RandomizedSvd, warm: &Mat) -> Option<Svd> {
    let (m, n) = a.op_shape();
    if m < n || warm.rows() != m || warm.cols() == 0 || n == 0 {
        return None;
    }
    let l = cfg.rank.saturating_add(cfg.oversample).min(n).max(1);
    let seeded = if warm.cols() > l {
        warm.truncate_cols(l)
    } else if warm.cols() < l {
        let extra = l - warm.cols();
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let omega = Mat::random_normal(n, extra, &mut rng);
        let fresh = a.apply(&omega);
        Mat::from_fn(m, l, |i, j| {
            if j < warm.cols() {
                warm[(i, j)]
            } else {
                fresh[(i, j - warm.cols())]
            }
        })
    } else {
        warm.clone()
    };
    let mut q = seeded.orthonormalize();
    for _ in 1..cfg.power_iters.max(1) {
        let z = a.apply_t(&q).orthonormalize();
        q = a.apply(&z).orthonormalize();
    }
    // The mandatory final iteration refreshes the stale basis into the
    // *row* space (`Z = orth(A^T Q)`) and projects there: with
    // `Y = A Z = U S W^T` exactly, `A ~ (A Z) Z^T = U S (Z W)^T`.
    // This reuses the refresh product as the projection, so the step
    // costs two full-size products where the cold tail's
    // project-and-lift would need a third (`Q^T A`).
    let z = a.apply_t(&q).orthonormalize();
    let y = a.apply(&z);
    let ys = y.svd_exact();
    let keep = cfg.rank.min(ys.s.len());
    Some(Svd {
        u: ys.u.truncate_cols(keep),
        s: ys.s[..keep].to_vec(),
        v: z.matmul(&ys.v).truncate_cols(keep),
    })
}

/// Randomized range-finder SVD of a tall (`m >= n`) matrix.
fn svd_randomized_tall(a: &Mat, cfg: RandomizedSvd) -> Svd {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    if n == 0 {
        return Svd {
            u: Mat::zeros(m, 0),
            s: Vec::new(),
            v: Mat::zeros(0, 0),
        };
    }
    // Sketch width: requested rank plus oversampling, never wider than the
    // short dimension (a wider sketch would be rank-deficient anyway).
    let l = cfg.rank.saturating_add(cfg.oversample).min(n).max(1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let omega = Mat::random_normal(n, l, &mut rng);
    // Range finder: Q spans col(A * Omega) which, for l = n, equals col(A)
    // almost surely, making Q Q^T A = A up to roundoff.
    let mut q = a.matmul(&omega).orthonormalize();
    for _ in 0..cfg.power_iters {
        let z = a.matmul_tn(&q).orthonormalize();
        q = a.matmul(&z).orthonormalize();
    }
    project_and_lift(a, &q, cfg.rank)
}

/// Shared tail of the randomized paths: solve the projected problem
/// `B = Q^T A` exactly, lift the left factors back through `Q`, truncate
/// to `rank`.
fn project_and_lift(a: &Mat, q: &Mat, rank: usize) -> Svd {
    let b = q.matmul_tn(a);
    let bs = b.svd_exact();
    let u = q.matmul(&bs.u);
    let keep = rank.min(bs.s.len());
    if keep < bs.s.len() {
        Svd {
            u: u.truncate_cols(keep),
            s: bs.s[..keep].to_vec(),
            v: bs.v.truncate_cols(keep),
        }
    } else {
        Svd {
            u,
            s: bs.s,
            v: bs.v,
        }
    }
}

/// One-sided Jacobi SVD of a tall (`m >= n`) matrix.
fn svd_tall(a: &Mat) -> Svd {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    // `w` holds the columns of `a` as contiguous rows (n x m).
    let mut w = a.transpose();
    // `vt` accumulates the right singular vectors as rows (n x n).
    let mut vt = Mat::identity(n);

    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n.saturating_sub(1) {
            for q in (p + 1)..n {
                let (alpha, beta, gamma) = gram_pair(w.row(p), w.row(q));
                if gamma.abs() <= TOL * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                rotated = true;
                // Jacobi rotation zeroing the (p, q) entry of W W^T.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate_rows(&mut w, p, q, c, s);
                rotate_rows(&mut vt, p, q, c, s);
            }
        }
        if !rotated {
            break;
        }
    }

    // Singular values are the column norms; normalize to get U.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n).map(|j| crate::vecops::norm2(w.row(j))).collect();
    // total_cmp: a NaN norm (non-finite input) must not panic mid-factorization.
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

    let mut u = Mat::zeros(m, n);
    let mut s = Vec::with_capacity(n);
    let mut v = Mat::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        let sigma = norms[old_j];
        s.push(sigma);
        if sigma > 0.0 {
            let wrow = w.row(old_j);
            for i in 0..m {
                u[(i, new_j)] = wrow[i] / sigma;
            }
        }
        let vrow = vt.row(old_j);
        for i in 0..n {
            v[(i, new_j)] = vrow[i];
        }
    }
    Svd { u, s, v }
}

/// `(p·p, q·q, p·q)`, each summed in index order exactly as
/// [`crate::vecops::dot`] sums it. One pass runs the three sums as
/// independent chains, so the pair costs about one dot's latency instead
/// of three, with the same bits.
fn gram_pair(p: &[f64], q: &[f64]) -> (f64, f64, f64) {
    let (mut pp, mut qq, mut pq) = (0.0, 0.0, 0.0);
    for (&x, &y) in p.iter().zip(q) {
        pp += x * x;
        qq += y * y;
        pq += x * y;
    }
    (pp, qq, pq)
}

/// Applies the rotation `[c -s; s c]` to rows `p`, `q` of `m` in place.
fn rotate_rows(m: &mut Mat, p: usize, q: usize, c: f64, s: f64) {
    let (rp, rq) = m.two_rows_mut(p, q);
    for (a, b) in rp.iter_mut().zip(rq.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn check_svd(a: &Mat, tol: f64) {
        let svd = a.svd();
        let scale = a.frobenius_norm().max(1.0);
        assert!(
            svd.reconstruct().sub(a).frobenius_norm() / scale < tol,
            "reconstruction failed"
        );
        // Descending singular values, non-negative.
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "singular values not sorted");
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
        // Orthonormality of U (on the numerical rank) and V.
        let r = svd.rank(1e-10);
        let ur = svd.u_rank(1e-10);
        assert!(ur.gram().sub(&Mat::identity(r)).frobenius_norm() < 1e-8);
        let vtv = svd.v.gram();
        assert!(vtv.sub(&Mat::identity(svd.v.cols())).frobenius_norm() < 1e-8);
    }

    #[test]
    fn svd_diagonal_known() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, -4.0], &[0.0, 0.0]]);
        let svd = a.svd();
        assert!((svd.s[0] - 4.0).abs() < 1e-12);
        assert!((svd.s[1] - 3.0).abs() < 1e-12);
        check_svd(&a, 1e-10);
    }

    #[test]
    fn svd_random_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for &(m, n) in &[(1, 1), (6, 6), (40, 8), (8, 40), (100, 3), (17, 5)] {
            let a = Mat::random_normal(m, n, &mut rng);
            check_svd(&a, 1e-9);
        }
    }

    #[test]
    fn svd_rank_deficient() {
        // Rank-1: outer product.
        let u = [1.0, 2.0, 3.0, 4.0];
        let v = [5.0, 6.0];
        let a = Mat::from_fn(4, 2, |i, j| u[i] * v[j]);
        let svd = a.svd();
        assert_eq!(svd.rank(1e-9), 1);
        let expected =
            (u.iter().map(|x| x * x).sum::<f64>() * v.iter().map(|x| x * x).sum::<f64>()).sqrt();
        assert!((svd.s[0] - expected).abs() < 1e-9);
        check_svd(&a, 1e-9);
    }

    #[test]
    fn svd_zero_matrix() {
        let a = Mat::zeros(5, 3);
        let svd = a.svd();
        assert_eq!(svd.rank(1e-9), 0);
        assert!(svd.s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn randomized_full_matches_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        for &(m, n) in &[(60, 6), (300, 17), (12, 80)] {
            let a = Mat::random_normal(m, n, &mut rng);
            let exact = a.svd_exact();
            let rand_svd = a.svd_randomized(RandomizedSvd::full());
            let scale = exact.s[0].max(1.0);
            for (se, sr) in exact.s.iter().zip(&rand_svd.s) {
                assert!(
                    (se - sr).abs() < 1e-9 * scale,
                    "{m}x{n}: exact {se} vs randomized {sr}"
                );
            }
            let recon = rand_svd.reconstruct();
            assert!(recon.sub(&a).frobenius_norm() / a.frobenius_norm() < 1e-10);
            let r = rand_svd.s.len();
            assert!(rand_svd.u.gram().sub(&Mat::identity(r)).frobenius_norm() < 1e-8);
            assert!(rand_svd.v.gram().sub(&Mat::identity(r)).frobenius_norm() < 1e-8);
        }
    }

    #[test]
    fn randomized_truncated_captures_leading_spectrum() {
        // Geometric spectrum: sigma_j = 2^-j; rank-4 sketch with power
        // iterations must nail the first four values.
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let u = Mat::random_normal(200, 12, &mut rng).orthonormalize();
        let v = Mat::random_normal(12, 12, &mut rng).orthonormalize();
        let mut us = u.clone();
        for j in 0..12 {
            let sigma = 0.5f64.powi(j as i32);
            for i in 0..us.rows() {
                us[(i, j as usize)] *= sigma;
            }
        }
        let a = us.matmul_nt(&v);
        let exact = a.svd_exact();
        let trunc = a.svd_randomized(RandomizedSvd::truncated(4));
        assert_eq!(trunc.s.len(), 4);
        assert_eq!(trunc.u.shape(), (200, 4));
        assert_eq!(trunc.v.shape(), (12, 4));
        for j in 0..4 {
            assert!(
                (trunc.s[j] - exact.s[j]).abs() < 1e-8,
                "sigma_{j}: {} vs {}",
                trunc.s[j],
                exact.s[j]
            );
        }
    }

    #[test]
    fn randomized_deterministic_given_seed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = Mat::random_normal(300, 10, &mut rng);
        let s1 = a.svd_randomized(RandomizedSvd::full());
        let s2 = a.svd_randomized(RandomizedSvd::full());
        assert_eq!(s1.u, s2.u);
        assert_eq!(s1.s, s2.s);
        assert_eq!(s1.v, s2.v);
    }

    #[test]
    fn auto_dispatches_randomized_for_tall_and_exact_for_small() {
        // Tall enough for the randomized path: results must still satisfy
        // every SVD contract to the same tolerances.
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let tall = Mat::random_normal(512, 16, &mut rng);
        check_svd(&tall, 1e-9);
        let auto = tall.svd();
        let exact = tall.svd_exact();
        for (sa, se) in auto.s.iter().zip(&exact.s) {
            assert!((sa - se).abs() < 1e-9 * exact.s[0]);
        }
        // Not tall enough (aspect < RANDOMIZED_ASPECT): stays on the exact
        // path bit-for-bit.
        let squarish = Mat::random_normal(300, 80, &mut rng);
        let a = squarish.svd();
        let e = squarish.svd_exact();
        assert_eq!(a.s, e.s);
        assert_eq!(a.u, e.u);
    }

    #[test]
    fn randomized_rank_deficient_and_zero() {
        let u = [1.0, 2.0, 3.0, 4.0];
        let v = [5.0, 6.0];
        let a = Mat::from_fn(4, 2, |i, j| u[i] * v[j]);
        let svd = a.svd_randomized(RandomizedSvd::full());
        assert_eq!(svd.rank(1e-9), 1);
        assert!(svd.reconstruct().sub(&a).frobenius_norm() < 1e-9 * a.frobenius_norm());
        let z = Mat::zeros(5, 3);
        let zs = z.svd_randomized(RandomizedSvd::full());
        assert!(zs.s.iter().all(|&x| x == 0.0));
        assert!(zs.reconstruct().frobenius_norm() == 0.0);
    }

    /// A tall matrix with a geometric spectrum plus a small seeded
    /// perturbation of it — the "drifted retrain" pair the warm start is
    /// designed for.
    fn drifted_pair() -> (Mat, Mat) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let u = Mat::random_normal(200, 12, &mut rng).orthonormalize();
        let v = Mat::random_normal(12, 12, &mut rng).orthonormalize();
        let mut us = u.clone();
        for j in 0..12 {
            let sigma = 2.0 * 0.7f64.powi(j as i32);
            for i in 0..us.rows() {
                us[(i, j)] *= sigma;
            }
        }
        let a = us.matmul_nt(&v);
        let noise = Mat::random_normal(200, 12, &mut rng);
        let drifted = Mat::from_fn(200, 12, |i, j| a[(i, j)] + 0.01 * noise[(i, j)]);
        (a, drifted)
    }

    #[test]
    fn warm_start_recovers_leading_spectrum_of_drifted_matrix() {
        let (a, drifted) = drifted_pair();
        let prev = a.svd_randomized(RandomizedSvd::truncated(4));
        let cfg = RandomizedSvd::truncated(4).with_power_iters(1);
        let warm = drifted.svd_randomized_warm(cfg, &prev.u);
        let exact = drifted.svd_exact();
        assert_eq!(warm.s.len(), 4);
        assert_eq!(warm.u.shape(), (200, 4));
        for j in 0..4 {
            assert!(
                (warm.s[j] - exact.s[j]).abs() < 1e-6 * exact.s[0],
                "sigma_{j}: warm {} vs exact {}",
                warm.s[j],
                exact.s[j]
            );
        }
        // Orthonormal factors, like any other backend.
        assert!(warm.u.gram().sub(&Mat::identity(4)).frobenius_norm() < 1e-8);
        assert!(warm.v.gram().sub(&Mat::identity(4)).frobenius_norm() < 1e-8);
    }

    #[test]
    fn warm_start_is_deterministic_and_pads_narrow_bases() {
        let (a, drifted) = drifted_pair();
        // A warm basis narrower than rank + oversample: the pad columns
        // come from a seeded sketch, so the result is still deterministic
        // and still captures the leading spectrum.
        let prev = a.svd_randomized(RandomizedSvd::truncated(2));
        let cfg = RandomizedSvd::truncated(6);
        let w1 = drifted.svd_randomized_warm(cfg, &prev.u);
        let w2 = drifted.svd_randomized_warm(cfg, &prev.u);
        assert_eq!(w1.u, w2.u);
        assert_eq!(w1.s, w2.s);
        assert_eq!(w1.v, w2.v);
        let exact = drifted.svd_exact();
        for j in 0..6 {
            assert!((w1.s[j] - exact.s[j]).abs() < 1e-6 * exact.s[0]);
        }
    }

    #[test]
    fn warm_start_falls_back_cold_on_unusable_basis() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let a = Mat::random_normal(120, 9, &mut rng);
        let cfg = RandomizedSvd::truncated(4);
        let cold = a.svd_randomized(cfg);
        // Wrong row count, zero columns, and a wide input all take the
        // cold path bit-for-bit.
        let bad_rows = Mat::random_normal(60, 4, &mut rng);
        let got = a.svd_randomized_warm(cfg, &bad_rows);
        assert_eq!(got.u, cold.u);
        assert_eq!(got.s, cold.s);
        let empty = Mat::zeros(120, 0);
        let got = a.svd_randomized_warm(cfg, &empty);
        assert_eq!(got.s, cold.s);
        let wide = a.transpose();
        let wide_cold = wide.svd_randomized(cfg);
        let wide_warm = wide.svd_randomized_warm(cfg, &Mat::random_normal(9, 4, &mut rng));
        assert_eq!(wide_warm.s, wide_cold.s);
    }

    #[test]
    fn svd_singular_values_match_gram_eigs() {
        // For A^T A, the eigenvalues are squared singular values; verify via
        // trace identities: sum s_i^2 = ||A||_F^2.
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let a = Mat::random_normal(30, 7, &mut rng);
        let svd = a.svd();
        let sum_sq: f64 = svd.s.iter().map(|x| x * x).sum();
        assert!((sum_sq - a.frobenius_norm_sq()).abs() / sum_sq < 1e-10);
    }
}
