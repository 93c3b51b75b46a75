//! Vector kernels shared by trainers and measures.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// Continues one dot-product chain per entry of `acc`: entry `i` adds
/// `row(i)[j] * x[j]` for `j` left to right, starting from its current
/// value. Up to eight chains run side by side, so the adds of one chain
/// overlap the latency of another's.
///
/// Each chain is the same sequence of floating-point operations as
/// [`dot`]. From `acc[i] == 0.0` it ends at bitwise `dot(row(i), x)`, and
/// a chain split at any column continues exactly: from
/// `acc[i] == dot(&a[..k], &x[..k])` over `row(i) == &a[k..]` and
/// `&x[k..]` it ends at bitwise `dot(a, x)`.
///
/// The rows may lie anywhere (the negative-sampling step scores scattered
/// output rows). When the chains' operands lie side by side in memory,
/// [`dot_cols`] reads them without gathering.
///
/// # Panics
///
/// Panics if a row's length differs from `x`'s.
pub fn dot_rows<'a>(acc: &mut [f64], x: &[f64], row: impl Fn(usize) -> &'a [f64]) {
    let mut i = 0;
    while acc.len() - i >= 8 {
        row_chains::<8>(&mut acc[i..i + 8], x, |l| row(i + l));
        i += 8;
    }
    if acc.len() - i >= 4 {
        row_chains::<4>(&mut acc[i..i + 4], x, |l| row(i + l));
        i += 4;
    }
    if acc.len() - i >= 2 {
        row_chains::<2>(&mut acc[i..i + 2], x, |l| row(i + l));
        i += 2;
    }
    if acc.len() > i {
        row_chains::<1>(&mut acc[i..], x, |l| row(i + l));
    }
}

/// `N` chains of [`dot_rows`] in lockstep.
#[inline(always)]
fn row_chains<'a, const N: usize>(acc: &mut [f64], x: &[f64], row: impl Fn(usize) -> &'a [f64]) {
    let n = x.len();
    let rows: [&[f64]; N] = std::array::from_fn(|l| {
        let r = row(l);
        assert_eq!(r.len(), n, "dot_rows requires equal lengths");
        &r[..n]
    });
    let mut s: [f64; N] = std::array::from_fn(|l| acc[l]);
    for (j, &xj) in x.iter().enumerate() {
        for (si, r) in s.iter_mut().zip(&rows) {
            *si += r[j] * xj;
        }
    }
    acc.copy_from_slice(&s);
}

/// [`dot_rows`] over the columns of `cols`, a row-major
/// `x.len() x acc.len()` matrix: entry `i` adds `cols[j][i] * x[j]` for
/// `j` left to right. Each chain is bitwise [`dot`] of column `i` and
/// `x`, continued from `acc[i]` as in [`dot_rows`] (a product's bits do
/// not depend on its operands' order, NaN payloads aside). A row of
/// `cols` holds eight chains' operands side by side, so they load as
/// vectors; this is the layout of a transposed weight matrix, or of a
/// sentence's inputs with the tokens as columns.
///
/// # Panics
///
/// Panics if `cols.len() != x.len() * acc.len()`.
pub fn dot_cols(acc: &mut [f64], x: &[f64], cols: &[f64]) {
    let lanes = acc.len();
    assert_eq!(
        cols.len(),
        x.len() * lanes,
        "dot_cols requires an x.len() x acc.len() matrix"
    );
    let mut i = 0;
    while lanes - i >= 8 {
        let mut s: [f64; 8] = std::array::from_fn(|l| acc[i + l]);
        for (j, &xj) in x.iter().enumerate() {
            let c = &cols[j * lanes + i..j * lanes + i + 8];
            for (si, &cl) in s.iter_mut().zip(c) {
                *si += cl * xj;
            }
        }
        acc[i..i + 8].copy_from_slice(&s);
        i += 8;
    }
    for (l, a) in acc.iter_mut().enumerate().skip(i) {
        for (j, &xj) in x.iter().enumerate() {
            *a += cols[j * lanes + l] * xj;
        }
    }
}

/// `y += alpha * x` in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` in place.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Normalizes `x` to unit Euclidean norm; leaves zero vectors untouched.
pub fn normalize(x: &mut [f64]) {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
}

/// Cosine similarity in `[-1, 1]`; `0` when either vector is zero.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    cosine_from_norms(dot(a, b), norm2(a), norm2(b))
}

/// [`cosine_similarity`] from its parts: `dot(a, b)`, `norm2(a)` and
/// `norm2(b)`. Callers that reuse norms across many pairs (the
/// [`cosine_top_k`](crate::topk::cosine_top_k) kernel) get the same bits
/// as the direct call.
#[inline]
pub(crate) fn cosine_from_norms(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine distance `1 - cosine_similarity`.
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    1.0 - cosine_similarity(a, b)
}

/// `sum_i |a_i - b_i|` (L1 distance).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l1_distance requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Squared Euclidean distance.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn sq_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_distance requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Numerically stable logistic sigmoid: `1 / (1 + e^-x)` for `x >= 0`,
/// `e^x / (1 + e^x)` below. Both forms share one `e = exp(-|x|)` and
/// differ only in the numerator, so choosing the numerator gives the two
/// branches' bits without a branch: gate activations take either sign
/// at random, and a mispredicted branch per call nearly doubled its cost.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    let e = (-x.abs()).exp();
    let num = if x >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// Log-sum-exp of a slice; `-inf` for an empty slice.
pub fn logsumexp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// In-place softmax; stable for any finite input.
pub fn softmax_inplace(xs: &mut [f64]) {
    let lse = logsumexp(xs);
    for x in xs.iter_mut() {
        *x = (*x - lse).exp();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_axpy_norm() {
        let a = [1.0, 2.0, 3.0];
        let mut b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        axpy(2.0, &a, &mut b);
        assert_eq!(b, [6.0, 9.0, 12.0]);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_bounds_and_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_matches_the_two_branch_form_bitwise() {
        let two_branch = |x: f64| {
            if x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            }
        };
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
        ];
        xs.extend([
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            745.0,
            -745.0,
        ]);
        for i in 0..4000 {
            let x = (i as f64 - 2000.0) * 0.0173;
            xs.extend([x, x * 1e-9, x * 41.0]);
        }
        for x in xs {
            assert_eq!(sigmoid(x).to_bits(), two_branch(x).to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn sigmoid_stable() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn logsumexp_and_softmax() {
        let xs = [1000.0, 1000.0];
        assert!((logsumexp(&xs) - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        let mut p = [0.0, (2.0f64).ln()];
        softmax_inplace(&mut p);
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn distances() {
        assert_eq!(l1_distance(&[1.0, -1.0], &[0.0, 1.0]), 3.0);
        assert_eq!(sq_distance(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
    }
}
