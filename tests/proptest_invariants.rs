//! Cross-crate property-based tests on the core invariants of the
//! reproduction.

use embedstab::core::measures::{
    left_singular_basis_with, overlap_distance_from_bases, DistanceMeasure, EisMeasure, KnnMeasure,
    PipLoss,
};
use embedstab::core::selection::{budget_selection, pairwise_selection, ConfigPoint};
use embedstab::core::stats;
use embedstab::embeddings::Embedding;
use embedstab::linalg::Mat;
use embedstab::linalg::{RandomizedSvd, SvdMethod};
use embedstab::quant::{bits_per_word, quantize, Precision};
use proptest::prelude::*;

fn embedding_strategy(n: usize, d: usize) -> impl Strategy<Value = Embedding> {
    proptest::collection::vec(-3.0f64..3.0, n * d)
        .prop_map(move |data| Embedding::new(Mat::from_vec(n, d, data)))
}

/// The PIP loss computed from SVD factors instead of Gram products: with
/// `X = U S V^T`, `||X X^T - Y Y^T||_F^2` equals
/// `sum s_x^4 + sum s_y^4 - 2 ||S_x (U_x^T U_y) S_y||_F^2`.
fn pip_via_svd(x: &Embedding, y: &Embedding, method: SvdMethod) -> f64 {
    let sx = x.mat().svd_with(method);
    let sy = y.mat().svd_with(method);
    let mut cross = sx.u.matmul_tn(&sy.u);
    for i in 0..cross.rows() {
        let si = sx.s[i];
        for (v, sj) in cross.row_mut(i).iter_mut().zip(&sy.s) {
            *v *= si * sj;
        }
    }
    let xx: f64 = sx.s.iter().map(|s| s.powi(4)).sum();
    let yy: f64 = sy.s.iter().map(|s| s.powi(4)).sum();
    (xx + yy - 2.0 * cross.frobenius_norm_sq()).max(0.0).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// EIS is always in [0, 1], zero on identical pairs, and symmetric.
    #[test]
    fn eis_bounds_and_symmetry(
        x in embedding_strategy(20, 4),
        y in embedding_strategy(20, 4),
    ) {
        prop_assume!(x.mat().frobenius_norm() > 1e-6);
        prop_assume!(y.mat().frobenius_norm() > 1e-6);
        let eis = EisMeasure::new(&x, &y, 2.0);
        let d_xy = eis.distance(&x, &y);
        let d_yx = eis.distance(&y, &x);
        prop_assert!((0.0..=1.0).contains(&d_xy));
        prop_assert!((d_xy - d_yx).abs() < 1e-8, "EIS must be symmetric");
        prop_assert!(eis.distance(&x, &x) < 1e-8);
    }

    /// Quantization error is monotone in precision, and memory accounting
    /// is exact.
    #[test]
    fn quantization_monotone_and_memory_exact(
        emb in embedding_strategy(15, 6),
        bits_lo in 1u8..4,
    ) {
        let bits_hi = bits_lo + 2;
        let q_lo = quantize(&emb, Precision::new(bits_lo), None);
        let q_hi = quantize(&emb, Precision::new(bits_hi), None);
        prop_assert!(q_hi.mse <= q_lo.mse + 1e-12);
        prop_assert_eq!(
            bits_per_word(emb.dim(), Precision::new(bits_lo)),
            (emb.dim() as u64) * bits_lo as u64
        );
    }

    /// A measure that equals the instability exactly makes zero selection
    /// errors; one that equals its negation errs on every decidable pair.
    #[test]
    fn selection_consistency(
        instabilities in proptest::collection::vec(0.01f64..0.5, 4..10),
    ) {
        let perfect: Vec<ConfigPoint> = instabilities
            .iter()
            .enumerate()
            .map(|(i, &di)| ConfigPoint { dim: 4 << i, bits: 32, measure: di, instability: di })
            .collect();
        prop_assert_eq!(pairwise_selection(&perfect).error_rate, 0.0);
        let inverted: Vec<ConfigPoint> = perfect
            .iter()
            .map(|p| ConfigPoint { measure: -p.measure, ..*p })
            .collect();
        let distinct = instabilities
            .iter()
            .any(|a| instabilities.iter().any(|b| a != b));
        if distinct {
            prop_assert!(pairwise_selection(&inverted).error_rate > 0.99);
        }
        // Budget selection gap is non-negative and bounded by the spread.
        let rep = budget_selection(&perfect);
        prop_assert!(rep.mean_gap >= 0.0);
    }

    /// Spearman is invariant under strictly monotone transformations of
    /// either argument — the property that justifies comparing measures on
    /// different scales (PIP vs EIS) by rank correlation.
    #[test]
    fn spearman_scale_free(values in proptest::collection::vec(0.0f64..1.0, 5..20)) {
        let others: Vec<f64> = values.iter().map(|v| (v * 3.7).exp()).collect();
        let rho = stats::spearman(&values, &others);
        prop_assert!((rho - 1.0).abs() < 1e-9);
    }

    /// The SVD-backed measures are invariant under the kernel swap: the
    /// eigenspace overlap, PIP loss, and EIS distances agree to 1e-8
    /// whether the singular bases come from exact Jacobi or the
    /// randomized range finder on the same embedding pair.
    #[test]
    fn measures_invariant_under_svd_backend(
        x in embedding_strategy(40, 5),
        y in embedding_strategy(40, 5),
    ) {
        prop_assume!(x.mat().frobenius_norm() > 1e-6);
        prop_assume!(y.mat().frobenius_norm() > 1e-6);
        let exact = SvdMethod::Exact;
        let rsvd = SvdMethod::Randomized(RandomizedSvd::full());
        let bases = |method| {
            (left_singular_basis_with(x.mat(), method), left_singular_basis_with(y.mat(), method))
        };
        let ((ux_e, uy_e), (ux_r, uy_r)) = (bases(exact), bases(rsvd));

        let ov_e = overlap_distance_from_bases(&ux_e, &uy_e);
        let ov_r = overlap_distance_from_bases(&ux_r, &uy_r);
        prop_assert!((ov_e - ov_r).abs() < 1e-8, "overlap: {ov_e} vs {ov_r}");

        let eis = EisMeasure::new(&x, &y, 2.0);
        let eis_e = eis.distance_from_bases(&ux_e, &uy_e);
        let eis_r = eis.distance_from_bases(&ux_r, &uy_r);
        prop_assert!((eis_e - eis_r).abs() < 1e-8, "EIS: {eis_e} vs {eis_r}");

        // PIP is unnormalized, so compare at its own scale; the SVD paths
        // must also agree with the Gram-product implementation.
        let pip_scale = x.mat().gram().frobenius_norm().max(1.0);
        let pip_direct = PipLoss.distance(&x, &y);
        let pip_e = pip_via_svd(&x, &y, exact);
        let pip_r = pip_via_svd(&x, &y, rsvd);
        prop_assert!((pip_e - pip_r).abs() < 1e-8 * pip_scale, "PIP: {pip_e} vs {pip_r}");
        prop_assert!((pip_e - pip_direct).abs() < 1e-6 * pip_scale, "PIP svd vs gram: {pip_e} vs {pip_direct}");
    }

    /// k-NN distance and PIP loss are invariant under orthogonal rotation
    /// of one embedding (rotations do not change geometry), while EIS with
    /// fixed references is too.
    #[test]
    fn rotation_invariance(emb in embedding_strategy(18, 4), seed in 0u64..500) {
        use rand::SeedableRng;
        prop_assume!(emb.mat().frobenius_norm() > 1e-6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (q, _) = Mat::random_normal(4, 4, &mut rng).qr();
        let rotated = Embedding::new(emb.mat().matmul(&q));
        let knn = KnnMeasure::new(3, 18, 0);
        prop_assert!(knn.distance(&emb, &rotated) < 1e-9);
        let pip_scale = emb.mat().gram().frobenius_norm().sqrt().max(1.0);
        prop_assert!(PipLoss.distance(&emb, &rotated) < 1e-5 * pip_scale);
        let eis = EisMeasure::new(&emb, &emb, 1.0);
        prop_assert!(eis.distance(&emb, &rotated) < 1e-8);
    }
}
