//! The row type of the [`Experiment`](crate::Experiment) builder: one
//! [`Row`] per configuration it runs.

use embedstab_core::MeasureValues;
use serde::{Deserialize, Serialize};

/// One experiment observation: a downstream task trained on one embedding
/// configuration pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Row {
    /// Task name (`sst2`, `mr`, `subj`, `mpqa`, `ner`).
    pub task: String,
    /// Embedding algorithm name.
    pub algo: String,
    /// Embedding dimension.
    pub dim: usize,
    /// Precision in bits.
    pub bits: u8,
    /// Memory in bits/word.
    pub memory: u64,
    /// Seed shared by embedding and downstream training.
    pub seed: u64,
    /// Downstream prediction disagreement in `[0, 1]` (entity tokens only
    /// for NER, as in the paper).
    pub disagreement: f64,
    /// Quality of the '17-side model (accuracy / micro-F1).
    pub quality17: f64,
    /// Quality of the '18-side model.
    pub quality18: f64,
    /// The five embedding distance measures, when requested.
    pub measures: Option<MeasureValues>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::grid::EmbeddingGrid;
    use crate::scale::Scale;
    use crate::world::World;
    use embedstab_embeddings::Algo;
    use embedstab_quant::Precision;

    fn tiny_setup() -> (World, EmbeddingGrid) {
        let mut params = Scale::Tiny.params();
        params.dims = vec![4, 16];
        params.precisions = vec![Precision::new(1), Precision::FULL];
        params.seeds = vec![0];
        let world = World::build(&params, 0);
        let grid = EmbeddingGrid::build(&world, &[Algo::Mc], &params.dims, &params.seeds, None);
        (world, grid)
    }

    /// The grid runs of these tests: one task over the prebuilt MC grid.
    fn experiment<'w>(world: &'w World, grid: &'w EmbeddingGrid, task: &str) -> Experiment<'w> {
        Experiment::new(world)
            .grid(grid)
            .tasks([task])
            .algos([Algo::Mc])
    }

    #[test]
    fn sentiment_grid_produces_rows_with_shape() {
        let (world, grid) = tiny_setup();
        let rows = experiment(&world, &grid, "sst2").with_measures(true).run();
        assert_eq!(rows.len(), 4); // 2 dims x 2 precisions x 1 seed
        for r in &rows {
            assert!(r.disagreement >= 0.0 && r.disagreement <= 1.0);
            assert!(r.quality17 > 0.4, "degenerate quality {}", r.quality17);
            let m = r.measures.expect("measures requested");
            assert!(m.eis >= 0.0 && m.eis <= 1.0);
        }
        // Identity check on memory accounting.
        assert!(rows.iter().any(|r| r.memory == 4));
        assert!(rows.iter().any(|r| r.memory == 512));
    }

    #[test]
    fn ner_grid_runs() {
        let (world, grid) = tiny_setup();
        let rows = experiment(&world, &grid, "ner").run();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.task, "ner");
            assert!(r.disagreement >= 0.0 && r.disagreement <= 1.0);
            assert!(r.measures.is_none());
        }
    }

    #[test]
    fn relaxed_seeds_change_results() {
        let (world, grid) = tiny_setup();
        let a = experiment(&world, &grid, "sst2").run();
        let b = experiment(&world, &grid, "sst2").relax_seeds(true).run();
        // Relaxing seeds adds model randomness, so disagreement shifts for
        // at least one configuration.
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.disagreement != y.disagreement),
            "relaxed seeds had no effect"
        );
    }
}
