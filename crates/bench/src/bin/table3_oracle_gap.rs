//! Table 3: average absolute gap (in % disagreement) to the oracle when
//! selecting the dimension-precision combination under fixed memory
//! budgets, including the naive high/low-precision baselines.
//!
//! Usage: `table3_oracle_gap [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{mean_over_seeds, rows_for_algo, standard_rows, GridArgs};
use embedstab_core::measures::MeasureKind;
use embedstab_core::selection::{budget_baseline, budget_selection, BudgetBaseline};
use embedstab_pipeline::report::print_table;

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let tasks = ["sst2", "subj", "ner"];
    let rows = standard_rows(&args, &tasks);
    let algos = ["CBOW", "GloVe", "MC"];

    println!("\n=== Table 3: mean gap to oracle under fixed memory budgets (abs %) ===");
    let mut header: Vec<String> = vec!["selector".into()];
    for task in tasks {
        for algo in algos {
            header.push(format!("{task}/{algo}"));
        }
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Vec::new();

    // Measure-driven selectors.
    for kind in MeasureKind::ALL {
        let mut line = vec![kind.name().to_string()];
        for task in tasks {
            for algo in algos {
                let sub = rows_for_algo(&rows[task], algo);
                line.push(mean_over_seeds(&sub, kind, 100.0, |pts| {
                    budget_selection(pts).mean_gap
                }));
            }
        }
        table.push(line);
    }
    // Naive baselines (measure values irrelevant; any kind's points work).
    for (name, baseline) in [
        ("High Precision", BudgetBaseline::HighPrecision),
        ("Low Precision", BudgetBaseline::LowPrecision),
    ] {
        let mut line = vec![name.to_string()];
        for task in tasks {
            for algo in algos {
                let sub = rows_for_algo(&rows[task], algo);
                line.push(mean_over_seeds(&sub, MeasureKind::Eis, 100.0, |pts| {
                    budget_baseline(pts, baseline).mean_gap
                }));
            }
        }
        table.push(line);
    }
    print_table(&header_refs, &table);
    println!("\nPaper shape: EIS and 1-k-NN stay closest to the oracle; PIP and the");
    println!("low-precision baseline can be several points worse.");
}
