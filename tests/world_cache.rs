//! Integration contract of the world files in the `CacheStore`: a loaded
//! world is interchangeable with a freshly built one — the full
//! experiment grid (downstream disagreement, quality, and all five
//! distance measures) reproduces **bitwise**, across master seeds.

use embedstab::embeddings::Algo;
use embedstab::pipeline::{CacheStore, Experiment, Row, Scale, ScaleParams, World};
use embedstab::quant::Precision;
use proptest::prelude::*;

fn tiny_params() -> ScaleParams {
    let mut params = Scale::Tiny.params();
    params.dims = vec![4, 8];
    params.precisions = vec![Precision::new(2), Precision::FULL];
    params.seeds = vec![0];
    params.corpus_tokens = 6000;
    params.sentiment_train = 80;
    params.sentiment_test = 50;
    params.ner_train = 40;
    params.ner_test = 25;
    params
}

fn scratch(label: &str) -> std::path::PathBuf {
    let dir = embedstab::pipeline::cache::scratch_dir(label);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Rows keyed bitwise: every float as raw bits, measures included.
fn bitwise_keys(rows: &[Row]) -> Vec<(String, String, usize, u8, u64, [u64; 3], Vec<u64>)> {
    rows.iter()
        .map(|r| {
            (
                r.task.clone(),
                r.algo.clone(),
                r.dim,
                r.bits,
                r.seed,
                [
                    r.disagreement.to_bits(),
                    r.quality17.to_bits(),
                    r.quality18.to_bits(),
                ],
                r.measures
                    .map(|m| {
                        vec![
                            m.eis.to_bits(),
                            m.knn_dist.to_bits(),
                            m.semantic_displacement.to_bits(),
                            m.pip_loss.to_bits(),
                            m.overlap_dist.to_bits(),
                        ]
                    })
                    .unwrap_or_default(),
            )
        })
        .collect()
}

fn grid_rows(world: &World) -> Vec<Row> {
    Experiment::new(world)
        .tasks(["sst2", "ner"])
        .algos([Algo::Mc])
        .with_measures(true)
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The acceptance contract: for any master seed, a world loaded from
    /// the cache produces grid rows bitwise identical to the freshly
    /// built world it was stored from — disagreement, quality, and all
    /// five measures.
    #[test]
    fn loaded_world_reproduces_built_world_rows_bitwise(master_seed in 0u64..1000) {
        let dir = scratch("world_cache_rows");
        let params = tiny_params();
        let built = World::build(&params, master_seed);
        let cache = CacheStore::open(&dir).expect("open");
        cache.store_world(&built).expect("store");
        let loaded = cache.load_world(&params, master_seed).expect("hit");
        prop_assert_eq!(bitwise_keys(&grid_rows(&loaded)), bitwise_keys(&grid_rows(&built)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
