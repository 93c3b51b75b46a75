//! Proposition 1, numerically: the eigenspace instability measure equals
//! the expected prediction disagreement of least-squares linear models
//! trained on the two embeddings, for labels y ~ (0, Sigma).
//!
//! Validates the identity both on random matrices and on actually trained
//! embedding pairs.
//!
//! Usage: `prop1_validation [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{setup, GridArgs};
use embedstab_core::theory::{eis_dense, monte_carlo_disagreement, SigmaFactor};
use embedstab_embeddings::Algo;
use embedstab_linalg::Mat;
use embedstab_pipeline::report::{num, print_table};
use embedstab_pipeline::Scale;
use rand::SeedableRng;

fn main() {
    println!("\n=== Proposition 1: EIS == E[OLS disagreement] / E[||y||^2] ===");
    let mut table = Vec::new();

    // Random-matrix instances across shapes and alpha.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    for (n, dx, dy, alpha) in [(40, 5, 5, 1.0), (60, 8, 4, 2.0), (50, 6, 10, 3.0)] {
        let x = Mat::random_normal(n, dx, &mut rng);
        let y = Mat::random_normal(n, dy, &mut rng);
        let e17 = Mat::random_normal(n, 8, &mut rng);
        let e18 = Mat::random_normal(n, 8, &mut rng);
        let sigma = SigmaFactor::from_references(&e17, &e18, alpha);
        let exact = eis_dense(&x, &y, &sigma.dense());
        let mc = monte_carlo_disagreement(&x, &y, &sigma, 3000, 7);
        table.push(vec![
            format!("random n={n} d=({dx},{dy}) a={alpha}"),
            num(exact, 4),
            num(mc, 4),
            num((exact - mc).abs(), 4),
        ]);
    }

    // Trained embeddings from a tiny world: the identity is about the
    // matrices, so it must hold for real (Wiki'17, Wiki'18) pairs too.
    let mut args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    // The identity is about matrices: the Tiny grid shows it at any scale.
    args.scale = Scale::Tiny;
    let exp = setup(&args, &[Algo::Mc]);
    let dims = exp.world.params.dims.clone();
    for &dim in &dims {
        let (x17, x18) = exp.grid.pair(Algo::Mc, dim, 0);
        let (e17, e18) = exp.grid.pair(Algo::Mc, *dims.last().expect("dims"), 0);
        let sigma = SigmaFactor::from_references(e17.mat(), e18.mat(), 3.0);
        let exact = eis_dense(x17.mat(), x18.mat(), &sigma.dense());
        let mc = monte_carlo_disagreement(x17.mat(), x18.mat(), &sigma, 2000, 9);
        table.push(vec![
            format!("MC embeddings d={dim} a=3"),
            num(exact, 4),
            num(mc, 4),
            num((exact - mc).abs(), 4),
        ]);
    }
    print_table(
        &["instance", "EIS (exact)", "Monte-Carlo", "|diff|"],
        &table,
    );
    println!("\nThe Monte-Carlo estimate converges to the exact measure (Prop. 1).");
}
