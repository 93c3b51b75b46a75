//! End-to-end integration tests: the paper's headline shapes must hold on
//! a tiny world, across crates.

use embedstab::core::measures::MeasureKind;
use embedstab::core::selection::{pairwise_selection, ConfigPoint};
use embedstab::core::stats;
use embedstab::embeddings::Algo;
use embedstab::pipeline::{EmbeddingGrid, Experiment, Row, Scale, World};
use embedstab::quant::Precision;

fn tiny_world() -> (World, EmbeddingGrid) {
    let params = Scale::Tiny.params();
    let world = World::build(&params, 0);
    let grid = EmbeddingGrid::build(
        &world,
        &[Algo::Cbow, Algo::Mc],
        &params.dims,
        &params.seeds,
        None,
    );
    (world, grid)
}

/// The stability-memory tradeoff (paper Figures 1-2): the lowest-memory
/// configurations must be less stable than the highest-memory ones.
#[test]
fn stability_memory_tradeoff_holds() {
    let (world, grid) = tiny_world();
    let rows = Experiment::new(&world)
        .grid(&grid)
        .tasks(["sst2"])
        .algos([Algo::Cbow, Algo::Mc])
        .run();
    let lo = mean_di_at_memory_extreme(&rows, true);
    let hi = mean_di_at_memory_extreme(&rows, false);
    assert!(
        lo > hi,
        "low-memory configs should disagree more (low {lo:.3} vs high {hi:.3})"
    );
    // Downstream quality at full precision must be non-degenerate on
    // average for the comparison to mean anything (individual tiny-scale
    // configurations can sit near chance).
    let q: Vec<f64> = rows
        .iter()
        .filter(|r| r.bits == 32)
        .map(|r| r.quality17)
        .collect();
    assert!(
        stats::mean(&q) > 0.55,
        "degenerate full-precision models (mean quality {:.3})",
        stats::mean(&q)
    );
}

fn mean_di_at_memory_extreme(rows: &[Row], lowest: bool) -> f64 {
    let target = if lowest {
        rows.iter().map(|r| r.memory).min()
    } else {
        rows.iter().map(|r| r.memory).max()
    }
    .expect("rows");
    let dis: Vec<f64> = rows
        .iter()
        .filter(|r| r.memory == target)
        .map(|r| r.disagreement)
        .collect();
    stats::mean(&dis)
}

/// The NER task shows the same direction of effect over precision.
#[test]
fn ner_precision_effect() {
    let (world, grid) = tiny_world();
    let rows = Experiment::new(&world)
        .grid(&grid)
        .tasks(["ner"])
        .algos([Algo::Cbow])
        .precisions([Precision::new(1), Precision::FULL])
        .run();
    let one_bit: Vec<f64> = rows
        .iter()
        .filter(|r| r.bits == 1)
        .map(|r| r.disagreement)
        .collect();
    let full: Vec<f64> = rows
        .iter()
        .filter(|r| r.bits == 32)
        .map(|r| r.disagreement)
        .collect();
    assert!(
        stats::mean(&one_bit) > stats::mean(&full),
        "1-bit NER should be less stable than full precision"
    );
}

/// The eigenspace instability measure must correlate positively with
/// downstream disagreement across the grid (paper Table 1), and beat a
/// coin flip as a pairwise selector (paper Table 2).
#[test]
fn eis_predicts_downstream_instability() {
    let (world, grid) = tiny_world();
    let rows = Experiment::new(&world)
        .grid(&grid)
        .tasks(["sst2"])
        .algos([Algo::Cbow])
        .with_measures(true)
        .run();
    let xs: Vec<f64> = rows
        .iter()
        .map(|r| r.measures.expect("measures").get(MeasureKind::Eis))
        .collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.disagreement).collect();
    let rho = stats::spearman(&xs, &ys);
    assert!(
        rho > 0.2,
        "EIS should correlate with disagreement, rho = {rho:.2}"
    );

    let points: Vec<ConfigPoint> = rows
        .iter()
        .map(|r| ConfigPoint {
            dim: r.dim,
            bits: r.bits,
            measure: r.measures.expect("measures").get(MeasureKind::Eis),
            instability: r.disagreement,
        })
        .collect();
    let report = pairwise_selection(&points);
    assert!(
        report.error_rate < 0.5,
        "EIS should beat random pairwise selection, error {:.2}",
        report.error_rate
    );
}

/// Same seeds, same world => bit-identical rows (full-pipeline
/// determinism, which the paper's seed-matching protocol depends on).
#[test]
fn pipeline_is_deterministic() {
    let (world, grid) = tiny_world();
    let run = || {
        Experiment::new(&world)
            .grid(&grid)
            .tasks(["subj"])
            .algos([Algo::Mc])
            .dims([8])
            .run()
    };
    let a = run();
    let b = run();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.disagreement, y.disagreement);
        assert_eq!(x.quality17, y.quality17);
    }
}

/// Quantization at full precision must be a no-op end to end: identical
/// predictions, zero extra disagreement relative to the unquantized pair.
#[test]
fn full_precision_quantization_is_identity() {
    let (_world, grid) = tiny_world();
    let (x17, x18) = grid.pair(Algo::Cbow, 8, 0);
    let (q17, q18) = grid.quantized_pair(Algo::Cbow, 8, 0, Precision::FULL);
    assert_eq!(&q17, x17.as_ref());
    assert_eq!(&q18, x18.as_ref());
}
