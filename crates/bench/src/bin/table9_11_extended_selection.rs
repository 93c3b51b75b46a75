//! Tables 9, 10, and 11 (Appendix D.5): the extended selection results —
//! Spearman/selection/oracle-gap on MR and MPQA (Table 9), and the
//! worst-case variants of the pairwise and budget selection evaluations
//! (Tables 10 and 11) on SST-2, Subj, and NER.
//!
//! Usage: `table9_11_extended_selection [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{
    config_points_per_seed, mean_over_seeds, print_measure_table, rows_for_algo, spearman_for,
    standard_rows, GridArgs,
};
use embedstab_core::measures::MeasureKind;
use embedstab_core::selection::{
    budget_baseline, budget_selection, pairwise_selection, BudgetBaseline,
};
use embedstab_pipeline::report::num;
use embedstab_pipeline::Row;

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let rows = standard_rows(&args, &["sst2", "subj", "ner", "mr", "mpqa"]);
    let algos = ["CBOW", "GloVe", "MC"];

    // Table 9: MR and MPQA versions of Tables 1, 2, 3.
    let t9 = ["mr", "mpqa"];
    println!("\n=== Table 9a: Spearman correlations (MR, MPQA) ===");
    print_measure_table(&rows, &t9, |sub, kind| {
        spearman_for(sub, kind)
            .map(|r| num(r, 2))
            .unwrap_or_else(|| "n/a".into())
    });
    println!("\n=== Table 9b: pairwise selection error (MR, MPQA) ===");
    print_measure_table(&rows, &t9, |sub, kind| {
        mean_over_seeds(sub, kind, 1.0, |pts| pairwise_selection(pts).error_rate)
    });
    println!("\n=== Table 9c: mean oracle gap under memory budgets (MR, MPQA, abs %) ===");
    print_measure_table(&rows, &t9, |sub, kind| {
        mean_over_seeds(sub, kind, 100.0, |pts| budget_selection(pts).mean_gap)
    });

    // Table 10: worst-case pairwise selection increase (abs %).
    let t_main = ["sst2", "subj", "ner"];
    println!("\n=== Table 10: worst-case pairwise instability increase (abs %) ===");
    print_measure_table(&rows, &t_main, |sub, kind| {
        worst_over_seeds(sub, kind, |pts| pairwise_selection(pts).worst_case_increase)
    });

    // Table 11: worst-case budget gap (abs %), with naive baselines.
    println!("\n=== Table 11: worst-case oracle gap under memory budgets (abs %) ===");
    print_measure_table(&rows, &t_main, |sub, kind| {
        worst_over_seeds(sub, kind, |pts| budget_selection(pts).worst_gap)
    });
    for (name, baseline) in [
        ("High Precision", BudgetBaseline::HighPrecision),
        ("Low Precision", BudgetBaseline::LowPrecision),
    ] {
        let mut line = vec![name.to_string()];
        for task in t_main {
            for algo in algos {
                let sub = rows_for_algo(&rows[task], algo);
                line.push(worst_over_seeds(&sub, MeasureKind::Eis, |pts| {
                    budget_baseline(pts, baseline).worst_gap
                }));
            }
        }
        println!("  baseline {}", line.join("  "));
    }
    println!("\nPaper shape: EIS and 1-k-NN remain the top performers in the worst");
    println!("case as well (Appendix D.5).");
}

fn worst_over_seeds(
    sub: &[Row],
    kind: MeasureKind,
    f: impl Fn(&[embedstab_core::selection::ConfigPoint]) -> f64,
) -> String {
    let vals: Vec<f64> = config_points_per_seed(sub, kind)
        .iter()
        .map(|pts| 100.0 * f(pts))
        .collect();
    if vals.is_empty() {
        "n/a".into()
    } else {
        num(vals.iter().cloned().fold(0.0f64, f64::max), 2)
    }
}
