//! Figure 9 (Appendix D.4): downstream NER disagreement versus each
//! embedding distance measure, with Spearman correlations, per algorithm.
//!
//! Usage: `fig9_measure_scatter [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{rows_for_algo, spearman_for, standard_rows, GridArgs};
use embedstab_core::measures::MeasureKind;
use embedstab_pipeline::report::{num, pct, print_table};

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let rows = standard_rows(&args, &["sst2", "ner"]);
    let ner = &rows["ner"];

    for algo in ["CBOW", "GloVe", "MC"] {
        let sub = rows_for_algo(ner, algo);
        println!("\n=== Figure 9 ({algo}): NER disagreement vs measures ===");
        let mut table = Vec::new();
        let mut sorted = sub.clone();
        // One NaN disagreement row must not panic the figure; it sorts
        // to the bottom of the table instead.
        sorted.sort_by(|a, b| embedstab_core::stats::cmp_nan_last(a.disagreement, b.disagreement));
        for r in &sorted {
            let Some(m) = r.measures else { continue };
            table.push(vec![
                format!("d={} b={}", r.dim, r.bits),
                pct(r.disagreement),
                num(m.eis, 4),
                num(m.knn_dist, 3),
                num(m.semantic_displacement, 3),
                num(m.pip_loss, 1),
                num(m.overlap_dist, 3),
            ]);
        }
        print_table(
            &[
                "config",
                "disagree%",
                "EIS",
                "1-kNN",
                "SemDisp",
                "PIP",
                "1-overlap",
            ],
            &table,
        );
        let mut rho_line = Vec::new();
        for kind in MeasureKind::ALL {
            let rho = spearman_for(&sub, kind)
                .map(|r| num(r, 2))
                .unwrap_or_else(|| "n/a".into());
            rho_line.push(format!("{} rho={}", kind.name(), rho));
        }
        println!("{}", rho_line.join("  |  "));
    }
    println!("\nPaper shape: EIS and 1-kNN increase monotonically-ish with");
    println!("disagreement; PIP and overlap are much noisier (Appendix D.4).");
}
