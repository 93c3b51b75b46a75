//! Table 8 (Appendix D.3): tuning the measure hyperparameters — the
//! eigenvalue exponent alpha of the eigenspace instability measure and the
//! k of the k-NN measure — by average Spearman correlation with downstream
//! disagreement across tasks (CBOW and MC, as in the paper).
//!
//! Usage: `table8_hyperparams [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use std::collections::BTreeMap;

use embedstab_bench::{setup, standard_rows, GridArgs};
use embedstab_core::measures::{
    left_singular_basis_with, DistanceMeasure, EisMeasure, KnnMeasure, SvdMethod,
};
use embedstab_core::stats;
use embedstab_embeddings::Algo;
use embedstab_linalg::Svd;
use embedstab_pipeline::report::{num, print_table};

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let params = args.scale.params();
    let rows = standard_rows(&args, &["sst2", "subj", "ner"]);
    let exp = setup(&args, &[Algo::Cbow, Algo::Mc]);
    let algos = [Algo::Cbow, Algo::Mc];
    let top_m = params.top_m;

    // DI lookup per (task, algo, dim, bits, seed).
    let di: BTreeMap<(String, String, usize, u8, u64), f64> = rows
        .iter()
        .flat_map(|(task, rs)| {
            rs.iter().map(move |r| {
                (
                    (task.clone(), r.algo.clone(), r.dim, r.bits, r.seed),
                    r.disagreement,
                )
            })
        })
        .collect();

    // Shared per-config left singular bases and quantized pairs (the
    // expensive part, computed once for the whole sweep).
    eprintln!("[table8] computing per-config singular bases...");
    let mut bases = Vec::new();
    for &algo in &algos {
        for &seed in &params.seeds {
            for &dim in &params.dims {
                for &prec in &params.precisions {
                    let (q17, q18) = exp.grid.quantized_pair(algo, dim, seed, prec);
                    let m = top_m.min(q17.vocab_size());
                    let q17 = q17.top_rows(m);
                    let q18 = q18.top_rows(m);
                    let ux = left_singular_basis_with(q17.mat(), SvdMethod::Auto);
                    let uy = left_singular_basis_with(q18.mat(), SvdMethod::Auto);
                    bases.push((algo, seed, dim, prec, q17, q18, ux, uy));
                }
            }
        }
    }
    // Reference SVDs per (algo, seed), shared across the alpha sweep.
    let mut ref_svds: BTreeMap<(Algo, u64), (Svd, Svd, usize)> = BTreeMap::new();
    for &algo in &algos {
        for &seed in &params.seeds {
            let (e17, e18) = exp.grid.pair(algo, params.max_dim(), seed);
            let m = top_m.min(e17.vocab_size());
            ref_svds.insert(
                (algo, seed),
                (e17.top_rows(m).mat().svd(), e18.top_rows(m).mat().svd(), m),
            );
        }
    }

    // Alpha sweep: Spearman of EIS_alpha vs DI, averaged over task x algo.
    println!("\n=== Table 8a: alpha for the eigenspace instability measure ===");
    let mut alpha_table = Vec::new();
    for alpha in 0..=8 {
        let alpha = alpha as f64;
        let eis: BTreeMap<(Algo, u64), EisMeasure> = ref_svds
            .iter()
            .map(|(&key, (s17, s18, m))| {
                (key, EisMeasure::from_reference_svds(s17, s18, *m, alpha))
            })
            .collect();
        let mut rhos = Vec::new();
        for task in rows.keys() {
            for &algo in &algos {
                let mut xs = Vec::new();
                let mut ys = Vec::new();
                for (a, s, dim, prec, _q17, _q18, ux, uy) in &bases {
                    if *a != algo {
                        continue;
                    }
                    let key = (task.clone(), algo.name().to_string(), *dim, prec.bits(), *s);
                    let Some(&d) = di.get(&key) else { continue };
                    xs.push(eis[&(algo, *s)].distance_from_bases(ux, uy));
                    ys.push(d);
                }
                if xs.len() >= 3 {
                    rhos.push(stats::spearman(&xs, &ys));
                }
            }
        }
        alpha_table.push(vec![num(alpha, 0), num(stats::mean(&rhos), 3)]);
    }
    print_table(&["alpha", "mean Spearman"], &alpha_table);

    // k sweep for the k-NN measure.
    println!("\n=== Table 8b: k for the k-NN measure ===");
    let mut k_table = Vec::new();
    for k in [1usize, 2, 5, 10, 50, 100] {
        let mut rhos = Vec::new();
        for task in rows.keys() {
            for &algo in &algos {
                let mut xs = Vec::new();
                let mut ys = Vec::new();
                for (a, s, dim, prec, q17, q18, _ux, _uy) in &bases {
                    if *a != algo {
                        continue;
                    }
                    let key = (task.clone(), algo.name().to_string(), *dim, prec.bits(), *s);
                    let Some(&d) = di.get(&key) else { continue };
                    let knn = KnnMeasure::new(k, params.knn_queries.min(200), *s);
                    xs.push(knn.distance(q17, q18));
                    ys.push(d);
                }
                if xs.len() >= 3 {
                    rhos.push(stats::spearman(&xs, &ys));
                }
            }
        }
        k_table.push(vec![k.to_string(), num(stats::mean(&rhos), 3)]);
    }
    print_table(&["k", "mean Spearman"], &k_table);
    println!("\nPaper shape: correlation jumps once alpha >= 2 and peaks near alpha=3;");
    println!("small k (2-10) beats very large k (Appendix D.3).");
}
