//! Quickstart: the paper's pipeline end to end on a tiny world.
//!
//! 1. Generate a "Wiki'17"/"Wiki'18" corpus pair with latent drift.
//! 2. Train CBOW embeddings on both, align, and compress them.
//! 3. Train paired sentiment models and measure prediction disagreement.
//! 4. Compare against the eigenspace instability measure — the paper's
//!    estimator of that disagreement that needs no downstream training.
//!
//! Run with: `cargo run --release --example quickstart`

use embedstab::core::disagreement;
use embedstab::core::measures::{DistanceMeasure, EisMeasure};
use embedstab::corpus::LatentModelConfig;
use embedstab::corpus::{CorpusConfig, DriftConfig, TemporalPair, TemporalPairConfig};
use embedstab::downstream::models::{BowSentimentModel, TrainSpec};
use embedstab::downstream::tasks::sentiment::SentimentSpec;
use embedstab::embeddings::{train_embedding, Algo, CorpusStats};
use embedstab::quant::{quantize_pair, Precision};

fn main() {
    // 1. Two corpora a "year" apart: 10% of words drift in latent space,
    //    and the newer corpus has 2% more data.
    let pair = TemporalPair::build(&TemporalPairConfig {
        model: LatentModelConfig {
            vocab_size: 400,
            n_topics: 10,
            ..Default::default()
        },
        drift: DriftConfig {
            drifted_fraction: 0.1,
            ..Default::default()
        },
        corpus: CorpusConfig {
            n_tokens: 60_000,
            ..Default::default()
        },
        extra_token_frac: 0.02,
    });
    println!(
        "corpora: {} / {} tokens over {} words",
        pair.corpus17.n_tokens(),
        pair.corpus18.n_tokens(),
        pair.model17.vocab_size()
    );

    // 2. Train embeddings on each corpus, align '18 to '17, quantize.
    let stats17 = CorpusStats::compute(pair.corpus17.clone(), 400, 6);
    let stats18 = CorpusStats::compute(pair.corpus18.clone(), 400, 6);
    let dim = 16;
    let x17 = train_embedding(Algo::Cbow, &stats17, &pair.model17.vocab, dim, 0);
    let x18 = train_embedding(Algo::Cbow, &stats18, &pair.model17.vocab, dim, 0).align_to(&x17);

    // 3. For each precision: compress the pair, train paired downstream
    //    models with identical seeds, and measure disagreement.
    let dataset = SentimentSpec {
        n_train: 400,
        n_valid: 50,
        n_test: 300,
        ..SentimentSpec::sst2()
    }
    .generate(&pair.model17);
    let spec = TrainSpec {
        lr: 0.01,
        epochs: 30,
        ..Default::default()
    };
    // EIS references: the full-precision pair itself (the paper uses the
    // highest-dimensional full-precision embeddings).
    let eis = EisMeasure::new(&x17, &x18, 3.0);

    println!("\nbits  memory(bits/word)  disagreement%  EIS");
    for bits in [1u8, 2, 4, 8, 32] {
        let (q17, q18) = quantize_pair(&x17, &x18, Precision::new(bits));
        let m17 = BowSentimentModel::train(&q17.embedding, &dataset.train, &spec);
        let m18 = BowSentimentModel::train(&q18.embedding, &dataset.train, &spec);
        let di = disagreement(
            &m17.predict(&q17.embedding, &dataset.test),
            &m18.predict(&q18.embedding, &dataset.test),
        );
        let measure = eis.distance(&q17.embedding, &q18.embedding);
        println!(
            "{bits:>4}  {:>17}  {:>12.1}  {measure:.4}",
            dim * bits as usize,
            100.0 * di
        );
    }
    println!("\nBoth columns fall as precision grows: more memory, more stability,");
    println!("and the EIS tracks the downstream disagreement without ever training");
    println!("a downstream model.");
}
