//! Figures 7 and 8 (Appendix D.2): quality-memory and quality-stability
//! tradeoffs for the sentiment tasks (Fig. 7) and NER (Fig. 8), CBOW and
//! MC embeddings.
//!
//! Usage: `fig7_8_quality [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{aggregate, standard_rows, GridArgs};
use embedstab_pipeline::report::{pct, print_table};

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let rows = standard_rows(&args, &["sst2", "subj", "mr", "mpqa", "ner"]);

    println!("\n=== Figures 7/8: quality vs memory and quality vs stability ===");
    for task in ["sst2", "subj", "mr", "mpqa", "ner"] {
        println!(
            "\n--- {task} (quality = {}) ---",
            if task == "ner" {
                "micro-F1"
            } else {
                "accuracy"
            }
        );
        let mut table = Vec::new();
        for a in aggregate(&rows[task])
            .iter()
            .filter(|a| a.algo == "CBOW" || a.algo == "MC")
        {
            table.push(vec![
                a.algo.clone(),
                a.bits.to_string(),
                a.dim.to_string(),
                a.memory.to_string(),
                pct(a.mean_quality),
                pct(a.mean_di),
            ]);
        }
        print_table(
            &["algo", "bits", "dim", "bits/word", "quality%", "disagree%"],
            &table,
        );
    }
    println!("\nPaper shape: quality rises with memory and is driven mostly by the");
    println!("dimension, while instability is driven more by the precision; for NER");
    println!("quality and stability correlate clearly (Appendix D.2).");
}
