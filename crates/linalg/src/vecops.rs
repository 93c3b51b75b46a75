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

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
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
