//! Figure 3: stability-memory tradeoff for TransE knowledge-graph
//! embeddings — unstable-rank@10 for link prediction (left) and prediction
//! disagreement for triplet classification (right), between embeddings
//! trained on the full graph and on 95% of its training triplets.
//!
//! Usage: `fig3_kge [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_core::disagreement;
use embedstab_core::trend::{fit_rule_of_thumb, Observation};
use embedstab_kge::{
    link_prediction_ranks, make_negatives, mean_rank, quantize_transe_pair, train_transe,
    unstable_rank_at_10, KgSpec, TranseConfig, TripletClassifier,
};
use embedstab_pipeline::report::{num, pct, print_table};
use embedstab_pipeline::Scale;
use embedstab_quant::Precision;

fn main() {
    let scale = embedstab_bench::GridArgs::parse(env!("CARGO_BIN_NAME")).scale;
    let (dims, spec) = match scale {
        Scale::Tiny => (
            vec![4, 8, 16],
            KgSpec {
                n_entities: 120,
                n_relations: 8,
                triplets_per_relation: 100,
                ..Default::default()
            },
        ),
        Scale::Small => (vec![4, 8, 16, 32, 64], KgSpec::default()),
        Scale::Paper => (
            vec![10, 20, 50, 100, 200, 400],
            KgSpec {
                n_entities: 2000,
                n_relations: 40,
                triplets_per_relation: 800,
                ..Default::default()
            },
        ),
    };
    let precisions = match scale {
        Scale::Tiny => vec![Precision::new(1), Precision::new(4), Precision::FULL],
        _ => Precision::SWEEP.to_vec(),
    };
    let cfg = TranseConfig::default();

    println!("\n=== Figure 3: TransE stability vs memory (bits/vector) ===");
    let kg = spec.generate();
    let kg95 = kg.subsample_train(0.95, 1);
    println!(
        "graph: {} entities, {} relations, {} train triplets ({} in the 95% subsample)",
        kg.n_entities,
        kg.n_relations,
        kg.train.len(),
        kg95.train.len()
    );
    let valid_neg = make_negatives(&kg, &kg.valid, 0);
    let test_neg = make_negatives(&kg, &kg.test, 1);

    let mut table = Vec::new();
    let mut obs_link = Vec::new();
    for &dim in &dims {
        let full = train_transe(&kg, dim, &cfg, 0);
        let sub = train_transe(&kg95, dim, &cfg, 0);
        for &prec in &precisions {
            let (qf, qs) = quantize_transe_pair(&full, &sub, prec);
            // Link prediction instability.
            let ranks_f = link_prediction_ranks(&qf, kg.n_entities, &kg.test);
            let ranks_s = link_prediction_ranks(&qs, kg.n_entities, &kg.test);
            let unstable = unstable_rank_at_10(&ranks_f, &ranks_s);
            // Triplet classification disagreement: thresholds tuned on the
            // FB15K-95 side and reused for the full graph (paper Fig. 3).
            let clf = TripletClassifier::fit(&qs, &kg.valid, &valid_neg, kg.n_relations);
            let mut preds_f = clf.predict(&qf, &kg.test);
            preds_f.extend(clf.predict(&qf, &test_neg));
            let mut preds_s = clf.predict(&qs, &kg.test);
            preds_s.extend(clf.predict(&qs, &test_neg));
            let di = disagreement(&preds_f, &preds_s);
            let memory = dim as u64 * prec.bits() as u64;
            obs_link.push(Observation {
                group: "link".into(),
                memory_bits: memory as f64,
                disagreement_pct: 100.0 * unstable,
            });
            table.push(vec![
                dim.to_string(),
                prec.bits().to_string(),
                memory.to_string(),
                pct(unstable),
                pct(di),
                num(mean_rank(&ranks_f), 1),
            ]);
        }
    }
    print_table(
        &[
            "dim",
            "bits",
            "bits/vec",
            "unstable-rank@10 %",
            "triplet-cls disagree%",
            "mean rank",
        ],
        &table,
    );

    if let Some(fit) = fit_rule_of_thumb(&obs_link, f64::INFINITY) {
        println!(
            "\nLinear-log fit: 2x memory => -{:.2}% unstable-rank@10 (paper: 7-19% relative)",
            fit.drop_per_doubling
        );
    }
    println!("Paper shape: both instability metrics fall as bits/vector grows.");
}
