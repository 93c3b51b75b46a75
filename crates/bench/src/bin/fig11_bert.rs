//! Figure 11 (Appendix D.7): downstream instability of mini-BERT
//! contextual embeddings on the four sentiment tasks, varying (a) the
//! transformer output dimension and (b) the precision of the extracted
//! features.
//!
//! Usage: `fig11_bert [--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]`

use embedstab_bench::{world_from_args, GridArgs};
use embedstab_core::disagreement;
use embedstab_corpus::Corpus;
use embedstab_ctx::{BertConfig, MiniBert, MlmTrainConfig};
use embedstab_downstream::models::{LogReg, TrainSpec};
use embedstab_downstream::tasks::sentiment::SentimentExample;
use embedstab_linalg::Mat;
use embedstab_pipeline::report::{pct, print_table};
use embedstab_pipeline::Scale;
use embedstab_quant::{optimal_clip, quantize_value, Precision};

fn main() {
    let args = GridArgs::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    let params = scale.params();
    let (dims, mlm_tokens, epochs) = match scale {
        Scale::Tiny => (vec![8, 16], 6_000usize, 1usize),
        Scale::Small => (vec![8, 16, 32, 64], 40_000, 2),
        Scale::Paper => (vec![16, 32, 64, 128, 256], 200_000, 2),
    };
    let base_dim = dims[dims.len() / 2];
    let world = world_from_args(&args);
    let sub17 = subsample(&world.pair.corpus17, mlm_tokens);
    let sub18 = subsample(&world.pair.corpus18, mlm_tokens);

    println!("\n=== Figure 11a: disagreement vs transformer output dimension ===");
    let mut dim_table = Vec::new();
    let mut berts: Vec<(usize, MiniBert, MiniBert)> = Vec::new();
    for &dim in &dims {
        let heads = if dim >= 16 { 4 } else { 2 };
        let mk = |seed: u64| {
            MiniBert::new(&BertConfig {
                vocab_size: params.vocab_size,
                dim,
                heads,
                layers: 3,
                max_len: 24,
                ffn_mult: 2,
                seed,
            })
        };
        let mut b17 = mk(0);
        let mut b18 = mk(0);
        b17.train_mlm(
            &sub17,
            &MlmTrainConfig {
                epochs,
                seed: 0,
                ..Default::default()
            },
        );
        b18.train_mlm(
            &sub18,
            &MlmTrainConfig {
                epochs,
                seed: 0,
                ..Default::default()
            },
        );
        for ds in &world.sentiment {
            let di = sentiment_disagreement(&b17, &b18, &ds.train, &ds.test, Precision::FULL);
            dim_table.push(vec![ds.name.clone(), dim.to_string(), pct(di)]);
        }
        berts.push((dim, b17, b18));
    }
    print_table(&["task", "dim", "disagree%"], &dim_table);

    println!("\n=== Figure 11b: disagreement vs feature precision (dim={base_dim}) ===");
    let (_, b17, b18) = berts
        .iter()
        .find(|(d, _, _)| *d == base_dim)
        .expect("base dim trained");
    let mut prec_table = Vec::new();
    let precisions = match scale {
        Scale::Tiny => vec![Precision::new(1), Precision::new(4), Precision::FULL],
        _ => Precision::SWEEP.to_vec(),
    };
    for &prec in &precisions {
        for ds in &world.sentiment {
            let di = sentiment_disagreement(b17, b18, &ds.train, &ds.test, prec);
            prec_table.push(vec![ds.name.clone(), prec.bits().to_string(), pct(di)]);
        }
    }
    print_table(&["task", "bits", "disagree%"], &prec_table);
    println!("\nPaper shape: higher dimension/precision tend to be more stable, but the");
    println!("trends are noisier than for pre-trained word embeddings (Section 6.2).");
}

/// Keeps roughly the first `n_tokens` tokens (the paper pre-trains on a
/// 10% Wikipedia subsample).
fn subsample(corpus: &Corpus, n_tokens: usize) -> Corpus {
    let mut docs = Vec::new();
    let mut total = 0usize;
    for d in corpus.docs() {
        if total >= n_tokens {
            break;
        }
        total += d.len();
        docs.push(d.clone());
    }
    Corpus::from_docs(docs)
}

/// Trains the paired linear classifiers on (optionally quantized) BERT
/// features and returns their test disagreement.
fn sentiment_disagreement(
    b17: &MiniBert,
    b18: &MiniBert,
    train: &[SentimentExample],
    test: &[SentimentExample],
    precision: Precision,
) -> f64 {
    let f17_train = features(b17, train);
    let f17_test = features(b17, test);
    let f18_train = features(b18, train);
    let f18_test = features(b18, test);
    // Quantize features with the clip threshold from the '17 model, as the
    // embeddings pipeline does.
    let (f17_train, clip) = quantize_features(f17_train, precision, None);
    let (f17_test, _) = quantize_features(f17_test, precision, clip);
    let (f18_train, _) = quantize_features(f18_train, precision, clip);
    let (f18_test, _) = quantize_features(f18_test, precision, clip);
    let labels: Vec<bool> = train.iter().map(|e| e.label).collect();
    let spec = TrainSpec {
        lr: 0.01,
        epochs: 30,
        ..Default::default()
    };
    let m17 = LogReg::train(&f17_train, &labels, &spec);
    let m18 = LogReg::train(&f18_train, &labels, &spec);
    disagreement(&m17.predict_all(&f17_test), &m18.predict_all(&f18_test))
}

fn features(bert: &MiniBert, examples: &[SentimentExample]) -> Mat {
    let d = bert.config().dim;
    let max_len = bert.config().max_len;
    let mut out = Mat::zeros(examples.len(), d);
    for (i, ex) in examples.iter().enumerate() {
        if ex.tokens.is_empty() {
            continue;
        }
        let tokens = &ex.tokens[..ex.tokens.len().min(max_len)];
        out.row_mut(i)
            .copy_from_slice(&bert.sentence_embedding(tokens));
    }
    out
}

fn quantize_features(mut f: Mat, precision: Precision, clip: Option<f64>) -> (Mat, Option<f64>) {
    if precision.is_full() {
        return (f, None);
    }
    let clip = clip.unwrap_or_else(|| optimal_clip(f.as_slice(), precision));
    for v in f.as_mut_slice() {
        *v = quantize_value(*v, clip, precision);
    }
    (f, Some(clip))
}
