//! Runs every table/figure reproduction binary in sequence — the
//! one-command analogue of the paper artifact's `run_analysis.sh`.
//!
//! Usage: `run_all [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`
//!
//! The command line is checked once, then passed unchanged to every
//! binary, so a mistyped flag exits 2 before anything runs.
//!
//! The binaries share one row file per task and scale,
//! `results/rows_<task>_<scale>_<fingerprint>.jsonl`, and one pair cache,
//! `cache/`: the first binary that needs a task's grid computes it, and
//! the rest read its rows. A run after a `coordinator` run of the same
//! scale in the same directory reads the fleet's merged rows.

use std::process::Command;

use embedstab_bench::{Cli, GridArgs, GRID_FLAGS};

const BINARIES: &[&str] = &[
    // Theory first: cheap and self-contained.
    "prop1_validation",
    // Main-body figures and tables (share the standard row files).
    "fig1_dimension_precision",
    "fig2_memory_tradeoff",
    "table1_spearman",
    "table2_selection_error",
    "table3_oracle_gap",
    // Appendix analyses on the same rows.
    "fig4_6_sentiment_grids",
    "fig7_8_quality",
    "fig9_measure_scatter",
    "table9_11_extended_selection",
    // Independent substrates.
    "fig3_kge",
    "fig10_kge_thresholds",
    "fig11_bert",
    "fig12_fasttext",
    "fig13_complex_models",
    "table13_randomness",
    "fig14_seeds_finetune",
    "fig15_learning_rate",
    // Hyperparameter sweep last (reuses rows + rebuilds a 2-algo grid).
    "table8_hyperparams",
];

fn main() {
    // One check of the command line here, not one failed launch per
    // binary; the arguments are then forwarded unchanged.
    let mut cli = Cli::new(format!("usage: run_all {GRID_FLAGS}"));
    let passthrough = cli.given().to_vec();
    GridArgs::read_all(&mut cli);
    let mut failures = Vec::new();
    for (i, bin) in BINARIES.iter().enumerate() {
        println!("\n================================================================");
        println!("[{}/{}] {}", i + 1, BINARIES.len(), bin);
        println!("================================================================");
        let status = Command::new(
            std::env::current_exe()
                .expect("self path")
                .parent()
                .expect("bin dir")
                .join(bin),
        )
        .args(&passthrough)
        .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("[run_all] {bin} exited with {s}");
                failures.push(*bin);
            }
            Err(e) => {
                eprintln!("[run_all] could not launch {bin}: {e}");
                failures.push(*bin);
            }
        }
    }
    if failures.is_empty() {
        println!("\n[run_all] all {} artifacts regenerated", BINARIES.len());
    } else {
        eprintln!("\n[run_all] failures: {failures:?}");
        std::process::exit(1);
    }
}
