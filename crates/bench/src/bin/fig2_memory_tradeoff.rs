//! Figure 2 + Section 3.3: downstream instability of NER across memory
//! budgets for every dimension-precision combination, the linear-log rule
//! of thumb, and the relative impact of dimension vs precision.
//!
//! Usage: `fig2_memory_tradeoff [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{aggregate, standard_rows, GridArgs};
use embedstab_core::stats::{linear_log_fit, TrendPoint};
use embedstab_core::trend::{fit_rule_of_thumb, Observation};
use embedstab_pipeline::report::{num, pct, print_table};
use embedstab_pipeline::Row;

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let rows = standard_rows(&args, &["sst2", "mr", "subj", "mpqa", "ner"]);

    // Figure 2 proper: NER instability vs bits/word, one line per precision.
    println!("\n=== Figure 2: NER % disagreement vs memory (bits/word) ===");
    let agg = aggregate(&rows["ner"]);
    let mut table = Vec::new();
    for a in &agg {
        table.push(vec![
            a.algo.clone(),
            a.bits.to_string(),
            a.dim.to_string(),
            a.memory.to_string(),
            pct(a.mean_di),
        ]);
    }
    print_table(&["algo", "bits", "dim", "bits/word", "disagree%"], &table);

    // Rule of thumb (Section 3.3 / Appendix C.4): fit over the five tasks
    // and the CBOW + MC algorithms, below the plateau cutoff. The paper's
    // cutoff (10^3 of a 25.6k-bit range) is mirrored proportionally.
    let all: Vec<&Row> = rows.values().flatten().collect();
    let max_mem = all.iter().map(|r| r.memory).max().unwrap_or(1) as f64;
    let cutoff = max_mem / 25.6;
    let obs: Vec<Observation> = all
        .iter()
        .filter(|r| r.algo == "CBOW" || r.algo == "MC")
        .map(|r| Observation {
            group: format!("{}/{}", r.task, r.algo),
            memory_bits: r.memory as f64,
            disagreement_pct: 100.0 * r.disagreement,
        })
        .collect();
    match fit_rule_of_thumb(&obs, cutoff) {
        Some(fit) => {
            println!(
                "\nRule of thumb (memory <= {cutoff:.0} bits/word, {} points):",
                fit.n_points
            );
            println!(
                "  DI_T ~ C_T - {:.2} * log2(bits/word)   (paper: 1.3)",
                fit.drop_per_doubling
            );
            let lo = fit
                .intercepts
                .iter()
                .zip(&fit.groups)
                .map(|(c, g)| (fit.predict(g, cutoff), c))
                .fold(f64::INFINITY, |m, (p, _)| m.min(p))
                .max(0.5);
            println!(
                "  2x memory => -{:.2}% absolute; relative reduction up to {:.0}% at DI={:.1}%",
                fit.drop_per_doubling,
                100.0 * fit.relative_reduction(lo),
                lo
            );
        }
        None => println!("\nRule of thumb: no observations under the cutoff"),
    }

    // Dimension vs precision slopes (Section 3.3): fit log2(dim) with a
    // per-(task, algo, bits) intercept, and log2(bits) with a
    // per-(task, algo, dim) intercept.
    let slope = |x_of: &dyn Fn(&Row) -> f64, group_of: &dyn Fn(&Row) -> String| -> Option<f64> {
        let mut groups: Vec<String> = Vec::new();
        let mut pts = Vec::new();
        for r in all.iter().filter(|r| r.algo == "CBOW" || r.algo == "MC") {
            if (r.memory as f64) > cutoff {
                continue;
            }
            let g = group_of(r);
            let task = match groups.iter().position(|x| *x == g) {
                Some(i) => i,
                None => {
                    groups.push(g);
                    groups.len() - 1
                }
            };
            pts.push(TrendPoint {
                task,
                x: x_of(r),
                y: 100.0 * r.disagreement,
            });
        }
        linear_log_fit(&pts, groups.len()).map(|f| f.slope)
    };
    let dim_slope = slope(&|r| r.dim as f64, &|r| {
        format!("{}/{}/b{}", r.task, r.algo, r.bits)
    });
    let prec_slope = slope(&|r| r.bits as f64, &|r| {
        format!("{}/{}/d{}", r.task, r.algo, r.dim)
    });
    println!("\nIndependent linear-log slopes below the cutoff (paper: dim 1.2, precision 1.4):");
    println!(
        "  2x dimension => -{}% absolute",
        dim_slope.map(|s| num(s, 2)).unwrap_or_else(|| "n/a".into())
    );
    println!(
        "  2x precision => -{}% absolute",
        prec_slope
            .map(|s| num(s, 2))
            .unwrap_or_else(|| "n/a".into())
    );
}
