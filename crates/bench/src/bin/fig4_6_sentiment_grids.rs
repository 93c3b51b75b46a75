//! Figures 4, 5, and 6 (Appendix D.1): the dimension, precision, and
//! joint memory tradeoffs on the remaining sentiment tasks
//! (Subj, MR, MPQA; plus SST-2 in Figure 6).
//!
//! Usage: `fig4_6_sentiment_grids [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{aggregate, standard_rows, GridArgs};
use embedstab_pipeline::report::{pct, print_table};

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let params = args.scale.params();
    let rows = standard_rows(&args, &["sst2", "mr", "subj", "mpqa"]);
    let mid_dim = params.dims[params.dims.len() / 2];
    let min_bits = params
        .precisions
        .iter()
        .map(|p| p.bits())
        .min()
        .expect("precisions");

    // Figure 4: dimension effect at full precision and at the lowest
    // precision.
    for bits in [32u8, min_bits] {
        println!("\n=== Figure 4: % disagreement vs dimension at b={bits} ===");
        let mut table = Vec::new();
        for task in ["subj", "mr", "mpqa"] {
            for a in aggregate(&rows[task]).iter().filter(|a| a.bits == bits) {
                table.push(vec![
                    task.to_string(),
                    a.algo.clone(),
                    a.dim.to_string(),
                    pct(a.mean_di),
                ]);
            }
        }
        print_table(&["task", "algo", "dim", "disagree%"], &table);
    }

    // Figure 5: precision effect at the mid dimension.
    println!("\n=== Figure 5: % disagreement vs precision (dim={mid_dim}) ===");
    let mut table = Vec::new();
    for task in ["subj", "mr", "mpqa"] {
        for a in aggregate(&rows[task]).iter().filter(|a| a.dim == mid_dim) {
            table.push(vec![
                task.to_string(),
                a.algo.clone(),
                a.bits.to_string(),
                pct(a.mean_di),
            ]);
        }
    }
    print_table(&["task", "algo", "bits", "disagree%"], &table);

    // Figure 6: the full memory grid for all four sentiment tasks.
    println!("\n=== Figure 6: % disagreement vs memory, all sentiment tasks ===");
    let mut table = Vec::new();
    for task in ["sst2", "subj", "mr", "mpqa"] {
        for a in aggregate(&rows[task]) {
            table.push(vec![
                task.to_string(),
                a.algo.clone(),
                a.bits.to_string(),
                a.dim.to_string(),
                a.memory.to_string(),
                pct(a.mean_di),
            ]);
        }
    }
    print_table(
        &["task", "algo", "bits", "dim", "bits/word", "disagree%"],
        &table,
    );
    println!("\nPaper shape: instability falls with memory on every sentiment task;");
    println!("Subj is the most stable, MR the least (Appendix D.1).");
}
