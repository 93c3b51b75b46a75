//! Figure 15 (Appendix E.5): downstream instability as a function of the
//! downstream model's learning rate, for CBOW and MC on SST-2 and MR at
//! two dimensions.
//!
//! Usage: `fig15_learning_rate [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{aggregate, setup, GridArgs};
use embedstab_embeddings::Algo;
use embedstab_pipeline::report::{pct, print_table};
use embedstab_pipeline::Experiment;
use embedstab_quant::Precision;

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let exp = setup(&args, &[Algo::Cbow, Algo::Mc]);
    let params = &exp.world.params;
    let dims = vec![
        params.dims[params.dims.len() / 2],
        *params.dims.last().expect("dims"),
    ];
    let lrs = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

    println!("\n=== Figure 15: instability vs downstream learning rate (b=32) ===");
    let mut table = Vec::new();
    for task in ["sst2", "mr"] {
        for &lr in &lrs {
            let rows = Experiment::new(&exp.world)
                .grid(&exp.grid)
                .tasks([task])
                .algos([Algo::Cbow, Algo::Mc])
                .lr_override(lr)
                .dims(dims.clone())
                .precisions([Precision::FULL])
                .run();
            for a in aggregate(&rows) {
                table.push(vec![
                    task.to_string(),
                    a.algo.clone(),
                    a.dim.to_string(),
                    format!("{lr:.0e}"),
                    pct(a.mean_di),
                    pct(a.mean_quality),
                ]);
            }
        }
    }
    print_table(
        &["task", "algo", "dim", "lr", "disagree%", "accuracy%"],
        &table,
    );
    println!("\nPaper shape: very small and very large learning rates are the least");
    println!("stable; the accuracy-optimal rates sit in the stable middle (App. E.5).");
}
