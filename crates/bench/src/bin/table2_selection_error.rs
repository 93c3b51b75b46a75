//! Table 2: selection error when using each embedding distance measure to
//! pick the more stable of two dimension-precision configurations
//! (evaluated per seed, averaged, as in Section 5.2).
//!
//! Usage: `table2_selection_error [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{mean_over_seeds, print_measure_table, standard_rows, GridArgs};
use embedstab_core::selection::pairwise_selection;

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let tasks = ["sst2", "subj", "ner"];
    let rows = standard_rows(&args, &tasks);

    println!("\n=== Table 2: pairwise dimension-precision selection error ===");
    print_measure_table(&rows, &tasks, |sub, kind| {
        mean_over_seeds(sub, kind, 1.0, |pts| pairwise_selection(pts).error_rate)
    });
    println!("\nPaper shape: EIS and 1-k-NN have the lowest error rates (0.11-0.24 in");
    println!("the paper); the weaker measures run up to ~3x higher.");
}
