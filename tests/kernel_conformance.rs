//! Kernel-conformance suite: pins the accuracy of the packed blocked GEMM
//! and the randomized range-finder SVD against their reference
//! implementations (`Mat::matmul_naive`, `Mat::svd_exact`), and the cosine
//! top-k kernel bitwise against a naive scalar scan, so the hot paths can
//! keep changing underneath without the figures drifting.
//!
//! Rettenmeier (2020) shows stability estimates are sensitive to numerical
//! noise in the factorization itself; these bounds are the contract every
//! kernel rewrite must keep.

use embedstab::linalg::topk::GEMM_MIN_ROWS;
use embedstab::linalg::{
    cmp_desc_nan_last, cosine_top_k, row_norms, vecops, Mat, RandomizedSvd, SvdMethod,
};
use proptest::prelude::*;

/// Relative Frobenius error bound for GEMM vs the naive triple loop.
const GEMM_TOL: f64 = 1e-10;

fn rel_err(got: &Mat, want: &Mat) -> f64 {
    got.sub(want).frobenius_norm() / want.frobenius_norm().max(1.0)
}

/// Adversarial GEMM shapes: degenerate vectors, micro/cache-block
/// boundaries and off-by-one neighbors, and the packed-vs-small threshold.
const GEMM_SHAPES: &[(usize, usize, usize)] = &[
    (1, 40, 1),    // outer product of row/column vectors
    (1, 1, 40),    // 1xN
    (40, 1, 1),    // Nx1
    (3, 5, 7),     // tiny, under the packing threshold
    (6, 8, 6),     // exactly one register tile
    (7, 9, 9),     // one tile plus ragged edges
    (32, 32, 32),  // exactly at the packing threshold
    (33, 31, 35),  // just across it
    (120, 40, 8),  // exactly MC rows
    (121, 40, 9),  // MC + 1 rows, NR + 1 cols
    (48, 256, 16), // exactly KC deep
    (48, 257, 16), // KC + 1 deep
    (16, 40, 512), // exactly NC wide
    (17, 40, 513), // NC + 1 wide
];

/// Strategy: one adversarial shape plus random operand data, with roughly
/// a quarter of A's rows zeroed (the packed kernel and the naive loop take
/// different shortcuts on zeros).
fn gemm_case() -> impl Strategy<Value = (Mat, Mat)> {
    (0usize..GEMM_SHAPES.len()).prop_flat_map(|idx| {
        let (m, k, n) = GEMM_SHAPES[idx];
        (
            proptest::collection::vec(-2.0f64..2.0, m * k),
            proptest::collection::vec(-2.0f64..2.0, k * n),
            proptest::collection::vec(0u8..4, m),
        )
            .prop_map(move |(da, db, zero_marks)| {
                let mut a = Mat::from_vec(m, k, da);
                for (i, &z) in zero_marks.iter().enumerate() {
                    if z == 0 {
                        a.row_mut(i).iter_mut().for_each(|v| *v = 0.0);
                    }
                }
                (a, Mat::from_vec(k, n, db))
            })
    })
}

/// Adversarial cosine top-k shapes: `(vocab rows, dim, extra query rows)`.
/// Every vocab row is also a query, so the query count is `vocab + extra`.
const TOPK_SHAPES: &[(usize, usize, usize)] = &[
    (2, 3, 1),   // the smallest vocabulary with a neighbor
    (5, 1, 2),   // one dimension: every cosine is -1, 0 or 1
    (127, 4, 2), // 129 queries: one 128-query tile plus one
    (128, 6, 0), // exactly one tile
    (300, 5, 3), // two tiles plus a ragged one
];

/// One top-k case: vocab, queries, k, and the per-query excluded ids.
type TopkCase = (Mat, Mat, usize, Option<Vec<u32>>);

/// Strategy: a shape, then per-row marks that plant zero rows, NaN and
/// infinite entries, and finite rows whose norm is too large or too small
/// to screen, with values optionally rounded to integers so exact ties
/// are common.
fn topk_case() -> impl Strategy<Value = TopkCase> {
    (0usize..TOPK_SHAPES.len()).prop_flat_map(|idx| {
        let (n, d, extra) = TOPK_SHAPES[idx];
        let rows = n + extra;
        (
            proptest::collection::vec(-2.0f64..2.0, rows * d),
            proptest::collection::vec(0u8..24, rows),
            1usize..n + 4,
            (0u8..2, 0u8..2),
        )
            .prop_map(move |(data, marks, k, (exclude, round))| {
                let mut all = Mat::from_vec(rows, d, data);
                plant_marks(&mut all, &marks, round == 1);
                let vocab = Mat::from_vec(n, d, all.as_slice()[..n * d].to_vec());
                let excluded =
                    (exclude == 1).then(|| (0..rows as u32).map(|i| i % n as u32).collect());
                (vocab, all, k, excluded)
            })
    })
}

/// Plants the top-k marks: row `i` becomes a zero row (mark 0), gets a NaN
/// (1) or infinite (2) entry, or is scaled to a norm too large (3) or too
/// small (4) to screen; any other mark leaves it finite. With `round`,
/// values are rounded to integers first, so exact ties are common.
fn plant_marks(m: &mut Mat, marks: &[u8], round: bool) {
    for (i, &mark) in marks.iter().enumerate() {
        let row = m.row_mut(i);
        if round {
            row.iter_mut().for_each(|v| *v = v.round());
        }
        match mark {
            0 => row.fill(0.0),
            1 => row[0] = f64::NAN,
            2 => row[0] = f64::INFINITY,
            3 => row.iter_mut().for_each(|v| *v *= 1e150),
            4 => row.iter_mut().for_each(|v| *v *= 1e-160),
            _ => {}
        }
    }
}

/// Dimensions for the thin-tile screen, whose dot runs in 16 lanes plus a
/// scalar tail: tail only (1, 3), full lanes and a tail (19), and full
/// lanes only (64).
const THIN_DIMS: [usize; 4] = [1, 3, 19, 64];

/// Query counts for the thin-tile screen: the serving layer's 1 and 2,
/// and both sides of the crossover to GEMM.
const THIN_QUERIES: [usize; 4] = [1, 2, GEMM_MIN_ROWS - 1, GEMM_MIN_ROWS];

/// Strategy: a few queries against a vocabulary of 300 or more words, so
/// the screen runs on thin tiles, with the marks of [`topk_case`]. Even
/// queries copy a vocabulary row (exact self-matches), odd ones are
/// their own vectors; `k` is small or reaches past the vocabulary.
fn thin_topk_case() -> impl Strategy<Value = TopkCase> {
    (
        0usize..THIN_DIMS.len(),
        0usize..THIN_QUERIES.len(),
        300usize..340,
    )
        .prop_flat_map(|(di, qi, n)| {
            let (d, q) = (THIN_DIMS[di], THIN_QUERIES[qi]);
            (
                proptest::collection::vec(-2.0f64..2.0, (n + q) * d),
                proptest::collection::vec(0u8..24, n + q),
                1usize..12,
                (0u8..2, 0u8..2, 0u8..2),
            )
                .prop_map(move |(data, marks, k, (exclude, round, past_vocab))| {
                    let mut all = Mat::from_vec(n + q, d, data);
                    plant_marks(&mut all, &marks, round == 1);
                    let vocab = Mat::from_vec(n, d, all.as_slice()[..n * d].to_vec());
                    let queries = Mat::from_fn(q, d, |i, j| {
                        if i % 2 == 0 {
                            vocab[((i * 37) % n, j)]
                        } else {
                            all[(n + i, j)]
                        }
                    });
                    let k = if past_vocab == 1 { n - 2 + k % 6 } else { k };
                    let excluded = (exclude == 1)
                        .then(|| (0..q as u32).map(|i| (i * 37) % n as u32).collect());
                    (vocab, queries, k, excluded)
                })
        })
}

/// The reference: every candidate scored with the scalar
/// `cosine_similarity`, fully sorted (descending, NaN last, lower id
/// first), the first `k` kept, similarities as bits.
fn naive_top_k(
    vocab: &Mat,
    queries: &Mat,
    k: usize,
    exclude: Option<&[u32]>,
) -> Vec<Vec<(u32, u64)>> {
    (0..queries.rows())
        .map(|qi| {
            let mut all: Vec<(u32, f64)> = (0..vocab.rows() as u32)
                .filter(|&w| exclude.is_none_or(|e| e[qi] != w))
                .map(|w| {
                    (
                        w,
                        vecops::cosine_similarity(queries.row(qi), vocab.row(w as usize)),
                    )
                })
                .collect();
            all.sort_by(|a, b| cmp_desc_nan_last(a.1, b.1).then(a.0.cmp(&b.0)));
            all.into_iter()
                .take(k)
                .map(|(w, s)| (w, s.to_bits()))
                .collect()
        })
        .collect()
}

fn kernel_top_k(
    vocab: &Mat,
    queries: &Mat,
    k: usize,
    exclude: Option<&[u32]>,
) -> Vec<Vec<(u32, u64)>> {
    cosine_top_k(vocab, &row_norms(vocab), queries, k, exclude)
        .into_iter()
        .map(|l| l.into_iter().map(|(w, s)| (w, s.to_bits())).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked GEMM (all orientations) matches the naive triple loop to
    /// 1e-10 relative Frobenius error on adversarial shapes with planted
    /// zero rows.
    #[test]
    fn gemm_matches_naive_random_shapes((a, b) in gemm_case()) {
        let want = a.matmul_naive(&b);
        prop_assert!(rel_err(&a.matmul(&b), &want) < GEMM_TOL);
        let at = a.transpose();
        prop_assert!(rel_err(&at.matmul_tn(&b), &want) < GEMM_TOL);
        let bt = b.transpose();
        prop_assert!(rel_err(&a.matmul_nt(&bt), &want) < GEMM_TOL);
    }

    /// Randomized SVD on random tall matrices: `A ~= U S V^T` with
    /// orthonormal factors and singular values matching exact Jacobi.
    #[test]
    fn randomized_svd_matches_exact_random(
        data in proptest::collection::vec(-2.0f64..2.0, 60 * 6),
        wide in 0u8..2,
    ) {
        let a = if wide == 0 {
            Mat::from_vec(60, 6, data)
        } else {
            Mat::from_vec(6, 60, data)
        };
        prop_assume!(a.frobenius_norm() > 1e-6);
        let exact = a.svd_exact();
        let rsvd = a.svd_randomized(RandomizedSvd::full());
        let scale = exact.s[0].max(1.0);
        for (se, sr) in exact.s.iter().zip(&rsvd.s) {
            prop_assert!((se - sr).abs() < 1e-8 * scale);
        }
        let rel = rsvd.reconstruct().sub(&a).frobenius_norm() / a.frobenius_norm();
        prop_assert!(rel < 1e-9, "reconstruction error {rel}");
        let r = rsvd.rank(1e-10);
        let ur = rsvd.u_rank(1e-10);
        prop_assert!(ur.gram().sub(&Mat::identity(r)).frobenius_norm() < 1e-8);
        let vr = rsvd.v_rank(1e-10);
        prop_assert!(vr.gram().sub(&Mat::identity(r)).frobenius_norm() < 1e-8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cosine top-k kernel returns the naive scan's ids and similarity
    /// bits on adversarial shapes, `k` up to past the vocabulary, with and
    /// without an excluded id per query.
    #[test]
    fn cosine_top_k_matches_naive_scan((vocab, queries, k, exclude) in topk_case()) {
        let exclude = exclude.as_deref();
        prop_assert_eq!(
            kernel_top_k(&vocab, &queries, k, exclude),
            naive_top_k(&vocab, &queries, k, exclude)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Thin query tiles, screened without GEMM, return the naive scan's
    /// ids and similarity bits: 1, 2 and crossover - 1 queries on the
    /// lane screen and crossover queries on GEMM, for `d` in 1, 3, 19 and
    /// 64.
    #[test]
    fn cosine_top_k_thin_tiles_match_naive_scan(
        (vocab, queries, k, exclude) in thin_topk_case()
    ) {
        let exclude = exclude.as_deref();
        prop_assert_eq!(
            kernel_top_k(&vocab, &queries, k, exclude),
            naive_top_k(&vocab, &queries, k, exclude)
        );
    }
}

#[test]
fn cosine_top_k_full_tile_plus_thin_tail_matches_naive_scan() {
    // 130 queries: one full 128-query GEMM tile, then a 2-query tail on
    // the lane screen, with every mark planted in both operands.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(130);
    for d in [3, 19, 64] {
        let mut vocab = Mat::random_normal(300, d, &mut rng);
        let marks: Vec<u8> = (0..300).map(|i| (i * 7 % 24) as u8).collect();
        plant_marks(&mut vocab, &marks, false);
        let mut queries = Mat::random_normal(130, d, &mut rng);
        plant_marks(&mut queries, &marks[..130], false);
        for i in (0..130).step_by(3) {
            queries.row_mut(i).copy_from_slice(vocab.row(i * 2));
        }
        let exclude: Vec<u32> = (0..130).map(|i| i * 2).collect();
        for k in [1, 5, 301] {
            for exclude in [None, Some(&exclude[..])] {
                assert_eq!(
                    kernel_top_k(&vocab, &queries, k, exclude),
                    naive_top_k(&vocab, &queries, k, exclude),
                    "d {d}, k {k}"
                );
            }
        }
    }
}

#[test]
fn cosine_top_k_falls_back_to_an_exact_scan() {
    // Two of three rows cannot be screened, so with k = 2 each query sees
    // fewer than k screened scores and is scanned exactly; the NaN query
    // row is scanned exactly too.
    let vocab = Mat::from_rows(&[&[1.0, 0.0], &[f64::NAN, 1.0], &[0.5, f64::INFINITY]]);
    let queries = Mat::from_rows(&[&[1.0, 1.0], &[f64::NAN, 0.0], &[0.0, 0.0]]);
    for exclude in [None, Some(&[0u32, 1, 2][..])] {
        assert_eq!(
            kernel_top_k(&vocab, &queries, 2, exclude),
            naive_top_k(&vocab, &queries, 2, exclude)
        );
    }
}

#[test]
fn gemm_all_variants_match_naive_on_adversarial_shapes() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0);
    for &(m, k, n) in GEMM_SHAPES {
        let mut a = Mat::random_normal(m, k, &mut rng);
        let mut b = Mat::random_normal(k, n, &mut rng);
        // Plant zero rows/columns to hit the zero-skip shortcuts.
        if m > 2 {
            a.row_mut(m / 2).iter_mut().for_each(|v| *v = 0.0);
        }
        if k > 2 {
            b.row_mut(k / 2).iter_mut().for_each(|v| *v = 0.0);
        }
        let want = a.matmul_naive(&b);
        assert!(
            rel_err(&a.matmul(&b), &want) < GEMM_TOL,
            "matmul {m}x{k}x{n}"
        );
        // Transposed variants against explicitly transposed naive products.
        let at = a.transpose();
        assert!(
            rel_err(&at.matmul_tn(&b), &want) < GEMM_TOL,
            "matmul_tn {m}x{k}x{n}"
        );
        let bt = b.transpose();
        assert!(
            rel_err(&a.matmul_nt(&bt), &want) < GEMM_TOL,
            "matmul_nt {m}x{k}x{n}"
        );
    }
}

#[test]
fn gram_matches_naive_transpose_product() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1);
    for &(m, k) in &[(1usize, 7usize), (7, 1), (40, 40), (257, 33), (1000, 64)] {
        let a = Mat::random_normal(m, k, &mut rng);
        let want = a.transpose().matmul_naive(&a);
        assert!(rel_err(&a.gram(), &want) < GEMM_TOL, "gram {m}x{k}");
    }
}

/// Checks every SVD contract: reconstruction, orthonormal factors, ordered
/// non-negative singular values, and agreement with exact Jacobi.
fn check_randomized_svd(a: &Mat, cfg: RandomizedSvd) {
    let exact = a.svd_exact();
    let rsvd = a.svd_randomized(cfg);
    let scale = exact.s.first().copied().unwrap_or(0.0).max(1.0);
    // Singular values match exact Jacobi.
    for (j, (se, sr)) in exact.s.iter().zip(&rsvd.s).enumerate() {
        assert!(
            (se - sr).abs() < 1e-8 * scale,
            "{}x{} sigma_{j}: exact {se} vs randomized {sr}",
            a.rows(),
            a.cols()
        );
    }
    // Full-width sketches must reconstruct A.
    if rsvd.s.len() == a.rows().min(a.cols()) {
        let recon = rsvd.reconstruct();
        let rel = recon.sub(a).frobenius_norm() / a.frobenius_norm().max(1.0);
        assert!(rel < 1e-9, "{}x{} reconstruction {rel}", a.rows(), a.cols());
    }
    // Orthonormal factors (restricted to the numerical rank for U).
    let r = rsvd.rank(1e-10);
    let ur = rsvd.u_rank(1e-10);
    assert!(
        ur.gram().sub(&Mat::identity(r)).frobenius_norm() < 1e-8,
        "U columns must be orthonormal"
    );
    let vr = rsvd.v_rank(1e-10);
    assert!(
        vr.gram().sub(&Mat::identity(r)).frobenius_norm() < 1e-8,
        "V columns must be orthonormal"
    );
    // Ordered, non-negative.
    for w in rsvd.s.windows(2) {
        assert!(w[0] >= w[1] - 1e-12, "singular values not sorted");
    }
    assert!(rsvd.s.iter().all(|&x| x >= 0.0));
}

#[test]
fn randomized_svd_conforms_on_adversarial_shapes() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC2);
    for &(m, n) in &[
        (1usize, 1usize),
        (40, 1),
        (1, 40),
        (50, 7),
        (7, 50),
        (300, 20),
        (257, 33),
    ] {
        let a = Mat::random_normal(m, n, &mut rng);
        check_randomized_svd(&a, RandomizedSvd::full());
    }
}

#[test]
fn randomized_svd_conforms_on_rank_deficient_inputs() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3);
    // Rank-3 matrix embedded in 120x12, plus a zero matrix.
    let left = Mat::random_normal(120, 3, &mut rng);
    let right = Mat::random_normal(3, 12, &mut rng);
    let low_rank = left.matmul(&right);
    check_randomized_svd(&low_rank, RandomizedSvd::full());
    let svd = low_rank.svd_randomized(RandomizedSvd::full());
    assert_eq!(svd.rank(1e-9), 3);

    let zero = Mat::zeros(30, 5);
    let zsvd = zero.svd_randomized(RandomizedSvd::full());
    assert!(zsvd.s.iter().all(|&s| s == 0.0));
    assert_eq!(zsvd.rank(1e-9), 0);
}

#[test]
fn randomized_svd_truncated_tracks_leading_triplets() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4);
    // Planted geometric spectrum (sigma_j = 2^-j): the leading triplets
    // are well separated, so the truncated sketch must nail them.
    let u = Mat::random_normal(400, 24, &mut rng).orthonormalize();
    let v = Mat::random_normal(24, 24, &mut rng).orthonormalize();
    let mut us = u.clone();
    for j in 0..24 {
        let sigma = 0.5f64.powi(j as i32);
        for i in 0..us.rows() {
            us[(i, j)] *= sigma;
        }
    }
    let a = us.matmul_nt(&v);
    let exact = a.svd_exact();
    let k = 6;
    let trunc = a.svd_randomized(RandomizedSvd::truncated(k));
    assert_eq!(trunc.s.len(), k);
    assert_eq!(trunc.u.shape(), (400, k));
    assert_eq!(trunc.v.shape(), (24, k));
    for j in 0..k {
        let rel = (trunc.s[j] - exact.s[j]).abs() / exact.s[0];
        assert!(rel < 1e-8, "sigma_{j} rel err {rel}");
    }
    // The truncated factors reproduce the best rank-k approximation error.
    let best: f64 = exact.s[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
    let got = trunc.reconstruct().sub(&a).frobenius_norm();
    assert!(
        got < best * (1.0 + 1e-6) + 1e-9,
        "rank-{k} error {got} vs optimal {best}"
    );
}

#[test]
fn randomized_svd_truncated_is_quasi_optimal_on_flat_spectra() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC6);
    // A Gaussian matrix has a flat (Marchenko-Pastur) spectrum — the
    // adversarial case for sketched truncation, where exact value-tracking
    // is not achievable. The HMT guarantee that *is* the contract: the
    // rank-k reconstruction error stays within a small factor of optimal.
    let a = Mat::random_normal(400, 24, &mut rng);
    let exact = a.svd_exact();
    let k = 6;
    let trunc = a.svd_randomized(RandomizedSvd::truncated(k));
    let best: f64 = exact.s[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
    let got = trunc.reconstruct().sub(&a).frobenius_norm();
    assert!(got < 1.5 * best, "rank-{k} error {got} vs optimal {best}");
    // Leading values are still captured to within a few percent.
    for j in 0..k {
        let rel = (trunc.s[j] - exact.s[j]).abs() / exact.s[j];
        assert!(rel < 0.05, "sigma_{j} rel err {rel}");
    }
}

#[test]
fn auto_dispatch_agrees_with_exact_across_the_threshold() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC5);
    // One shape on each side of the randomized-dispatch heuristic.
    for &(m, n) in &[(255usize, 16usize), (256, 64), (1024, 32)] {
        let a = Mat::random_normal(m, n, &mut rng);
        let auto = a.svd_with(SvdMethod::Auto);
        let exact = a.svd_with(SvdMethod::Exact);
        for (sa, se) in auto.s.iter().zip(&exact.s) {
            assert!(
                (sa - se).abs() < 1e-8 * exact.s[0].max(1.0),
                "{m}x{n}: auto {sa} vs exact {se}"
            );
        }
    }
}
