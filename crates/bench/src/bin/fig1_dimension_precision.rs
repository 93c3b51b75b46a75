//! Figure 1: downstream instability of sentiment (SST-2) and NER tasks
//! under varying dimension (top row, at full precision) and varying
//! precision (bottom row, at the mid dimension) for CBOW, GloVe, and MC.
//!
//! Usage: `fig1_dimension_precision [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{aggregate, standard_rows, GridArgs};
use embedstab_pipeline::report::{pct, print_table};

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let params = args.scale.params();
    let rows = standard_rows(&args, &["sst2", "ner"]);
    let mid_dim = params.dims[params.dims.len() / 2];

    for task in ["sst2", "ner"] {
        let agg = aggregate(&rows[task]);
        println!("\n=== Figure 1 ({task}): % disagreement vs dimension (b=32) ===");
        let mut table = Vec::new();
        for a in agg.iter().filter(|a| a.bits == 32) {
            table.push(vec![
                a.algo.clone(),
                a.dim.to_string(),
                pct(a.mean_di),
                pct(a.std_di),
            ]);
        }
        print_table(&["algo", "dim", "disagree%", "std%"], &table);

        println!("\n=== Figure 1 ({task}): % disagreement vs precision (dim={mid_dim}) ===");
        let mut table = Vec::new();
        for a in agg.iter().filter(|a| a.dim == mid_dim) {
            table.push(vec![
                a.algo.clone(),
                a.bits.to_string(),
                pct(a.mean_di),
                pct(a.std_di),
            ]);
        }
        print_table(&["algo", "bits", "disagree%", "std%"], &table);
    }
    println!("\nPaper shape: instability decreases as dimension or precision grows,");
    println!("with compression below 4 bits hurting most (paper Fig. 1).");
}
