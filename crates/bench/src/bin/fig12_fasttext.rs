//! Figure 12 (Appendix E.1): the stability-memory tradeoff for fastText
//! skipgram subword embeddings on SST-2 and NER.
//!
//! Usage: `fig12_fasttext [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{aggregate, GridArgs};
use embedstab_embeddings::Algo;
use embedstab_pipeline::report::{pct, print_table};
use embedstab_pipeline::{Experiment, World};

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let mut params = args.scale.params();
    // Subword training is ~an order of magnitude costlier per token than
    // CBOW; one seed and the lower dimensions preserve the trend.
    params.seeds = vec![0];
    if params.dims.len() > 4 {
        params.dims.truncate(params.dims.len() - 1);
    }
    let world = World::load_or_build(&params, 0, &args.cache());

    println!("\n=== Figure 12: fastText skipgram memory tradeoff ===");
    let mut rows = Experiment::new(&world)
        .tasks(["sst2", "ner"])
        .algos([Algo::FastTextSg])
        .cache_dir(&args.cache_dir)
        .run();
    let ner: Vec<_> = rows.iter().filter(|r| r.task == "ner").cloned().collect();
    rows.retain(|r| r.task == "sst2");
    let sst2 = rows;
    for (task, rows) in [("sst2", &sst2), ("ner", &ner)] {
        println!("\n--- FT-SG, {task} ---");
        let mut table = Vec::new();
        for a in aggregate(rows) {
            table.push(vec![
                a.bits.to_string(),
                a.dim.to_string(),
                a.memory.to_string(),
                pct(a.mean_di),
            ]);
        }
        print_table(&["bits", "dim", "bits/word", "disagree%"], &table);
    }
    println!("\nPaper shape: instability falls with memory; the dimension trend is");
    println!("weaker for SST-2 at high precision (Appendix E.1).");
}
