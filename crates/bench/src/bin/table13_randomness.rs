//! Table 13 (Appendix E.3): how much instability each downstream
//! randomness source contributes, compared to changing the embedding
//! training data — with fixed full-precision embeddings, vary only the
//! model-initialization seed, only the sampling-order seed, or only the
//! embedding corpus.
//!
//! Usage: `table13_randomness [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{setup, GridArgs};
use embedstab_core::disagreement;
use embedstab_downstream::models::{BowSentimentModel, TrainSpec};
use embedstab_embeddings::Algo;
use embedstab_pipeline::report::{pct, print_table};

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let exp = setup(&args, &[Algo::Cbow, Algo::Mc]);
    let params = &exp.world.params;
    // The paper uses the 400-dimensional full-precision embeddings; use
    // the second-largest dimension of the sweep.
    let dim = params.dims[params.dims.len().saturating_sub(2)];
    let base = TrainSpec {
        lr: 0.01,
        epochs: params.logreg_epochs,
        ..Default::default()
    };

    println!("\n=== Table 13: downstream randomness sources (dim={dim}, b=32) ===");
    let mut table = Vec::new();
    for algo in [Algo::Cbow, Algo::Mc] {
        for ds in &exp.world.sentiment {
            let mut dis = [0.0f64; 3];
            let mut counts = [0usize; 3];
            for &seed in &params.seeds {
                let (x17, x18) = exp.grid.pair(algo, dim, seed);
                let spec = TrainSpec {
                    init_seed: seed,
                    sample_seed: seed,
                    ..base.clone()
                };
                let reference = BowSentimentModel::train(x17, &ds.train, &spec);
                let ref_preds = reference.predict(x17, &ds.test);
                // (1) model initialization seed.
                let m = BowSentimentModel::train(
                    x17,
                    &ds.train,
                    &TrainSpec {
                        init_seed: seed.wrapping_add(500),
                        ..spec.clone()
                    },
                );
                dis[0] += disagreement(&ref_preds, &m.predict(x17, &ds.test));
                counts[0] += 1;
                // (2) sampling order seed.
                let m = BowSentimentModel::train(
                    x17,
                    &ds.train,
                    &TrainSpec {
                        sample_seed: seed.wrapping_add(500),
                        ..spec.clone()
                    },
                );
                dis[1] += disagreement(&ref_preds, &m.predict(x17, &ds.test));
                counts[1] += 1;
                // (3) embedding training data ('17 vs '18 corpus).
                let m = BowSentimentModel::train(x18, &ds.train, &spec);
                dis[2] += disagreement(&ref_preds, &m.predict(x18, &ds.test));
                counts[2] += 1;
            }
            table.push(vec![
                algo.name().to_string(),
                ds.name.clone(),
                pct(dis[0] / counts[0] as f64),
                pct(dis[1] / counts[1] as f64),
                pct(dis[2] / counts[2] as f64),
            ]);
        }
    }
    print_table(
        &[
            "algo",
            "task",
            "init-seed %",
            "sample-seed %",
            "embedding-data %",
        ],
        &table,
    );
    println!("\nPaper shape: at full precision and high dimension the downstream seeds");
    println!("contribute instability comparable to the embedding-data change; at low");
    println!("memory the embedding change dominates (Appendix E.3).");
}
