//! Table 1: Spearman correlation between each embedding distance measure
//! and downstream prediction disagreement, across the dimension-precision
//! grid, for SST-2, Subj, and NER x CBOW/GloVe/MC.
//!
//! Usage: `table1_spearman [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{print_measure_table, spearman_for, standard_rows, GridArgs};
use embedstab_pipeline::report::num;

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let tasks = ["sst2", "subj", "ner"];
    let rows = standard_rows(&args, &tasks);

    println!("\n=== Table 1: Spearman correlation (measure vs downstream disagreement) ===");
    print_measure_table(&rows, &tasks, |sub, kind| {
        spearman_for(sub, kind)
            .map(|r| num(r, 2))
            .unwrap_or_else(|| "n/a".into())
    });
    println!("\nPaper shape: Eigenspace Instability and 1-k-NN dominate (>=0.68 in the");
    println!("paper); Semantic Displacement / PIP / 1-Eigenspace Overlap are weaker.");
}
