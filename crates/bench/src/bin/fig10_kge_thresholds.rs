//! Figure 10 (Appendix D.6): triplet classification stability when the
//! decision thresholds are tuned *per dataset* (each embedding fits its
//! own thresholds) instead of shared — the tradeoff flattens faster at
//! high precision, as the paper observes.
//!
//! Usage: `fig10_kge_thresholds [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_core::disagreement;
use embedstab_kge::{
    make_negatives, quantize_transe_pair, train_transe, KgSpec, TranseConfig, TripletClassifier,
};
use embedstab_pipeline::report::{pct, print_table};
use embedstab_pipeline::Scale;
use embedstab_quant::Precision;

fn main() {
    let scale = embedstab_bench::GridArgs::parse(env!("CARGO_BIN_NAME")).scale;
    let dims = match scale {
        Scale::Tiny => vec![4, 8, 16],
        Scale::Small => vec![4, 8, 16, 32, 64],
        Scale::Paper => vec![10, 20, 50, 100, 200, 400],
    };
    let precisions = match scale {
        Scale::Tiny => vec![Precision::new(1), Precision::new(4), Precision::FULL],
        _ => Precision::SWEEP.to_vec(),
    };
    let spec = match scale {
        Scale::Tiny => KgSpec {
            n_entities: 120,
            n_relations: 8,
            triplets_per_relation: 100,
            ..Default::default()
        },
        _ => KgSpec::default(),
    };
    let cfg = TranseConfig::default();
    let kg = spec.generate();
    let kg95 = kg.subsample_train(0.95, 1);
    let valid_neg = make_negatives(&kg, &kg.valid, 0);
    let test_neg = make_negatives(&kg, &kg.test, 1);

    println!("\n=== Figure 10: triplet classification, thresholds tuned per dataset ===");
    let mut table = Vec::new();
    for &dim in &dims {
        let full = train_transe(&kg, dim, &cfg, 0);
        let sub = train_transe(&kg95, dim, &cfg, 0);
        for &prec in &precisions {
            let (qf, qs) = quantize_transe_pair(&full, &sub, prec);
            // Each embedding gets its own thresholds (the per-dataset
            // variant), instead of sharing the FB15K-95 thresholds.
            let clf_f = TripletClassifier::fit(&qf, &kg.valid, &valid_neg, kg.n_relations);
            let clf_s = TripletClassifier::fit(&qs, &kg.valid, &valid_neg, kg.n_relations);
            let mut preds_f = clf_f.predict(&qf, &kg.test);
            preds_f.extend(clf_f.predict(&qf, &test_neg));
            let mut preds_s = clf_s.predict(&qs, &kg.test);
            preds_s.extend(clf_s.predict(&qs, &test_neg));
            let di = disagreement(&preds_f, &preds_s);
            let acc = clf_f.accuracy(&qf, &kg.test, &test_neg);
            table.push(vec![
                dim.to_string(),
                prec.bits().to_string(),
                (dim as u64 * prec.bits() as u64).to_string(),
                pct(di),
                pct(acc),
            ]);
        }
    }
    print_table(
        &["dim", "bits", "bits/vec", "disagree%", "accuracy%"],
        &table,
    );
    println!("\nPaper shape: trends hold but plateau faster than with shared thresholds");
    println!("(compare against fig3_kge).");
}
