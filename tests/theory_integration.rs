//! Cross-crate validation of Proposition 1 and the measure suite on
//! *trained* embeddings (not just random matrices).

use embedstab::core::measures::{DistanceMeasure, EisMeasure, MeasureKind, MeasureSuite};
use embedstab::core::theory::{eis_dense, monte_carlo_disagreement, SigmaFactor};
use embedstab::embeddings::Algo;
use embedstab::pipeline::{EmbeddingGrid, Scale, World};

fn trained_pairs() -> (World, EmbeddingGrid) {
    let params = Scale::Tiny.params();
    let world = World::build(&params, 0);
    let grid = EmbeddingGrid::build(&world, &[Algo::Mc], &params.dims, &[0], None);
    (world, grid)
}

/// Proposition 1 on trained embeddings: the efficient EIS implementation,
/// the dense trace formula, and the Monte-Carlo OLS estimate all agree.
#[test]
fn proposition_1_on_trained_embeddings() {
    let (world, grid) = trained_pairs();
    let max_dim = world.params.max_dim();
    let (e17, e18) = grid.pair(Algo::Mc, max_dim, 0);
    let sigma = SigmaFactor::from_references(e17.mat(), e18.mat(), 3.0);
    let eis = EisMeasure::new(e17, e18, 3.0);
    for &dim in &world.params.dims {
        let (x17, x18) = grid.pair(Algo::Mc, dim, 0);
        let fast = eis.distance(x17, x18);
        let dense = eis_dense(x17.mat(), x18.mat(), &sigma.dense());
        assert!(
            (fast - dense).abs() < 1e-8,
            "d={dim}: efficient {fast} vs dense {dense}"
        );
        let mc = monte_carlo_disagreement(x17.mat(), x18.mat(), &sigma, 3000, 5);
        assert!(
            (fast - mc).abs() < 0.02,
            "d={dim}: EIS {fast:.4} vs Monte-Carlo {mc:.4}"
        );
    }
}

/// The EIS of trained pairs falls as precision grows at a fixed dimension
/// (the measure-level stability-memory trend that drives the paper's
/// selection results; see EXPERIMENTS.md for why the precision axis is the
/// robust one at laptop scale).
#[test]
fn eis_decreases_with_precision_on_trained_pairs() {
    use embedstab::quant::{quantize_pair, Precision};
    let (world, grid) = trained_pairs();
    let max_dim = world.params.max_dim();
    let (e17, e18) = grid.pair(Algo::Mc, max_dim, 0);
    let eis = EisMeasure::new(e17, e18, 3.0);
    let mid_dim = world.params.dims[world.params.dims.len() / 2];
    let (x17, x18) = grid.pair(Algo::Mc, mid_dim, 0);
    let values: Vec<f64> = [Precision::new(1), Precision::new(4), Precision::FULL]
        .iter()
        .map(|&p| {
            let (q17, q18) = quantize_pair(x17, x18, p);
            eis.distance(&q17.embedding, &q18.embedding)
        })
        .collect();
    assert!(
        values[0] > values[2],
        "EIS should fall from 1-bit to full precision: {values:?}"
    );
    assert!(
        values[1] <= values[0],
        "4-bit EIS should not exceed 1-bit EIS: {values:?}"
    );
}

/// All five measures agree that identical embeddings are identical and
/// that trained '17/'18 pairs are not.
#[test]
fn measure_suite_sanity_on_trained_pairs() {
    let (world, grid) = trained_pairs();
    let (x17, x18) = grid.pair(Algo::Mc, world.params.max_dim(), 0);
    let suite = MeasureSuite::new(x17, x18, 3.0, 0);
    let same = suite.compute_all(x17, x17);
    let diff = suite.compute_all(x17, x18);
    for kind in MeasureKind::ALL {
        assert!(same.get(kind).abs() < 1e-6, "{kind} on identical pair");
        assert!(
            diff.get(kind) > same.get(kind),
            "{kind} must detect the corpus change"
        );
    }
}
