//! Criterion micro-benchmarks for the performance-facing kernels behind
//! every experiment: GEMM, SVD, quantization, corpus generation,
//! co-occurrence counting, the
//! embedding distance measures, serve's batched nearest-neighbor query,
//! the retrain step's ingest, PPMI refresh and gate score, and downstream
//! training.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use embedstab_core::measures::{
    DistanceMeasure, EigenspaceOverlap, EisMeasure, KnnMeasure, PipLoss, SemanticDisplacement,
};
use embedstab_corpus::{ppmi, Cooc, CoocConfig, CorpusConfig, LatentModel, LatentModelConfig};
use embedstab_downstream::models::{BiLstmTagger, LogReg, LstmConfig, TrainSpec};
use embedstab_downstream::NerSpec;
use embedstab_embeddings::{CorpusStats, Embedding, PpmiSvdTrainer};
use embedstab_linalg::Mat;
use embedstab_quant::{quantize, Precision};
use embedstab_serve::{SnapshotStore, StabilityGate};
use rand::SeedableRng;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    // Blocked kernel across the 256-1024 sizes the figures actually hit,
    // with the naive triple loop as the "before" reference at the sizes
    // where it finishes in reasonable time.
    for &s in &[256usize, 512, 1024] {
        let a = Mat::random_normal(s, s, &mut rng);
        let b = Mat::random_normal(s, s, &mut rng);
        c.bench_function(&format!("gemm_{s}"), |bench| {
            bench.iter(|| black_box(a.matmul(black_box(&b))));
        });
        if s <= 512 {
            c.bench_function(&format!("gemm_naive_{s}"), |bench| {
                bench.iter(|| black_box(a.matmul_naive(black_box(&b))));
            });
        }
    }
    // Transposed variants share the packed kernel; keep them visible so a
    // packing regression in either orientation shows up.
    let a = Mat::random_normal(512, 512, &mut rng);
    let b = Mat::random_normal(512, 512, &mut rng);
    c.bench_function("gemm_tn_512", |bench| {
        bench.iter(|| black_box(a.matmul_tn(black_box(&b))));
    });
    c.bench_function("gemm_nt_512", |bench| {
        bench.iter(|| black_box(a.matmul_nt(black_box(&b))));
    });
    let tall = Mat::random_normal(1000, 64, &mut rng);
    c.bench_function("gram_1000x64", |bench| {
        bench.iter(|| black_box(tall.gram()));
    });
}

fn bench_svd(c: &mut Criterion) {
    use embedstab_linalg::{RandomizedSvd, SvdMethod};
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    // Auto dispatch (randomized for the tall sizes); bench names predate
    // the dispatch and are kept stable for baseline comparisons.
    for &(n, d) in &[(200usize, 16usize), (500, 32), (1000, 64)] {
        let a = Mat::random_normal(n, d, &mut rng);
        c.bench_function(&format!("jacobi_svd_{n}x{d}"), |bench| {
            bench.iter(|| black_box(a.svd()));
        });
    }
    // Before/after at the headline size: exact Jacobi vs the randomized
    // range finder, plus a truncated sketch as used by rank-k consumers.
    let a = Mat::random_normal(1000, 64, &mut rng);
    c.bench_function("svd_exact_1000x64", |bench| {
        bench.iter(|| black_box(a.svd_with(SvdMethod::Exact)));
    });
    c.bench_function("svd_randomized_1000x64", |bench| {
        bench.iter(|| black_box(a.svd_randomized(RandomizedSvd::full())));
    });
    c.bench_function("svd_randomized_1000x64_rank16", |bench| {
        bench.iter(|| black_box(a.svd_randomized(RandomizedSvd::truncated(16))));
    });
}

fn bench_quantization(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let emb = Embedding::new(Mat::random_normal(1000, 64, &mut rng));
    for bits in [1u8, 4, 8] {
        c.bench_function(&format!("quantize_1000x64_b{bits}"), |bench| {
            bench.iter(|| black_box(quantize(&emb, Precision::new(bits), None)));
        });
    }
}

fn bench_generate(c: &mut Criterion) {
    // The Small world's corpus: a 1000-word, 160-dim latent model and
    // 200k tokens (about 5000 documents, planned serially and sampled on
    // the pool).
    let model = LatentModel::new(&LatentModelConfig {
        vocab_size: 1000,
        latent_dim: 160,
        n_topics: 20,
        ..Default::default()
    });
    let config = CorpusConfig {
        n_tokens: 200_000,
        ..Default::default()
    };
    c.bench_function("generate_corpus_small", |bench| {
        bench.iter(|| black_box(model.generate_corpus(&config)));
    });
}

fn bench_cooccurrence(c: &mut Criterion) {
    let model = LatentModel::new(&LatentModelConfig {
        vocab_size: 500,
        ..Default::default()
    });
    let corpus = model.generate_corpus(&CorpusConfig {
        n_tokens: 50_000,
        ..Default::default()
    });
    c.bench_function("cooc_50k_tokens_w8", |bench| {
        bench.iter(|| {
            black_box(Cooc::count(
                &corpus,
                500,
                &CoocConfig {
                    window: 8,
                    distance_weighting: false,
                },
            ))
            .expect("valid corpus")
        });
    });
}

fn bench_measures(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let x = Embedding::new(Mat::random_normal(1000, 32, &mut rng));
    let mut noisy = x.mat().clone();
    noisy.axpy(0.1, &Mat::random_normal(1000, 32, &mut rng));
    let y = Embedding::new(noisy);
    let e17 = Embedding::new(Mat::random_normal(1000, 64, &mut rng));
    let e18 = Embedding::new(Mat::random_normal(1000, 64, &mut rng));
    let eis = EisMeasure::new(&e17, &e18, 3.0);
    c.bench_function("measure_eis_1000x32", |bench| {
        bench.iter(|| black_box(eis.distance_between(&x, &y)));
    });
    // The serving gate's shape: k = 5 over 1000 query words on both sides.
    let knn = KnnMeasure::new(5, 1000, 0);
    c.bench_function("measure_knn_1000x32_q1000", |bench| {
        bench.iter(|| black_box(knn.distance(&x, &y)));
    });
    c.bench_function("measure_pip_1000x32", |bench| {
        bench.iter(|| black_box(PipLoss.distance(&x, &y)));
    });
    c.bench_function("measure_semdisp_1000x32", |bench| {
        bench.iter(|| black_box(SemanticDisplacement.distance(&x, &y)));
    });
    c.bench_function("measure_overlap_1000x32", |bench| {
        bench.iter(|| black_box(EigenspaceOverlap.distance(&x, &y)));
    });
}

fn bench_nearest(c: &mut Criterion) {
    // Serve's nearest query against an 8-bit 1000 x 64 snapshot, k = 5:
    // thin requests (the loadgen sends q2) around the cosine top-k
    // kernel's GEMM crossover, up to a coalesced batch of 64 queries.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let dir = embedstab_pipeline::cache::scratch_dir("bench_nearest");
    std::fs::remove_dir_all(&dir).ok();
    let mut store = SnapshotStore::open(&dir).expect("open snapshot store");
    let emb = Embedding::new(Mat::random_normal(1000, 64, &mut rng));
    store
        .publish(&emb, Precision::new(8), None)
        .expect("publish snapshot");
    let snap = store.live().expect("live snapshot");
    for q in [1usize, 2, 4, 8, 16, 64] {
        let queries = Mat::random_normal(q, 64, &mut rng);
        c.bench_function(&format!("nearest_batch_1000x64_q{q}_k5"), |bench| {
            bench.iter(|| black_box(snap.try_nearest_batch(black_box(&queries), 5)));
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_retrain(c: &mut Criterion) {
    // The retrain step's pieces at Small scale (1000 words, 200k tokens,
    // window 8): a 1% (2k-token) ingest into the standing table, the PPMI
    // refresh over every row, and a dim-32 8-bit candidate scored against
    // the live snapshot (live side included, as `StabilityGate::score`
    // computes it).
    let model = LatentModel::new(&LatentModelConfig {
        vocab_size: 1000,
        ..Default::default()
    });
    let corpus = model.generate_corpus(&CorpusConfig {
        n_tokens: 200_000,
        ..Default::default()
    });
    let config = CoocConfig::default();
    let cooc = Cooc::count(&corpus, 1000, &config).expect("valid corpus");
    let delta = model
        .generate_corpus(&CorpusConfig {
            n_tokens: 2_000,
            seed: 1,
            ..Default::default()
        })
        .docs()
        .to_vec();
    c.bench_function("cooc_accumulate_small_1pct", |bench| {
        bench.iter_batched(
            || cooc.clone(),
            |mut table| {
                table.accumulate(&delta, &config).expect("valid delta");
                table
            },
            BatchSize::LargeInput,
        );
    });
    c.bench_function("ppmi_refresh_small", |bench| {
        bench.iter(|| black_box(ppmi(&cooc)));
    });
    let prev = ppmi(&cooc);
    let trainer = PpmiSvdTrainer::default();
    let dir = embedstab_pipeline::cache::scratch_dir("bench_gate");
    std::fs::remove_dir_all(&dir).ok();
    let mut store = SnapshotStore::open(&dir).expect("open snapshot store");
    store
        .publish(&trainer.train(&prev, 32, 1), Precision::new(8), None)
        .expect("publish snapshot");
    let live = store.live().expect("live snapshot");
    let candidate = trainer.train(&prev, 32, 2);
    let gate = StabilityGate::new();
    c.bench_function("gate_score_small", |bench| {
        bench.iter(|| black_box(gate.score(live, black_box(&candidate))));
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_training(c: &mut Criterion) {
    let model = LatentModel::new(&LatentModelConfig {
        vocab_size: 300,
        ..Default::default()
    });
    let corpus = model.generate_corpus(&CorpusConfig {
        n_tokens: 20_000,
        ..Default::default()
    });
    let stats = CorpusStats::compute(Arc::new(corpus), 300, 6);
    c.bench_function("train_mc_d16_20k", |bench| {
        bench.iter(|| {
            black_box(embedstab_embeddings::train_embedding(
                embedstab_embeddings::Algo::Mc,
                &stats,
                &model.vocab,
                16,
                0,
            ))
        });
    });
    // CBOW, the sweep's second-largest stage, on the same corpus.
    for dim in [32usize, 128] {
        c.bench_function(&format!("train_cbow_d{dim}"), |bench| {
            bench.iter(|| {
                black_box(embedstab_embeddings::train_embedding(
                    embedstab_embeddings::Algo::Cbow,
                    &stats,
                    &model.vocab,
                    dim,
                    0,
                ))
            });
        });
    }
    // The BiLSTM NER tagger, the sweep's largest stage: fit 100 sentences
    // for 2 epochs at hidden 16, then tag 100 test sentences.
    let ner = NerSpec {
        n_train: 100,
        n_valid: 0,
        n_test: 100,
        ..Default::default()
    }
    .generate(&model);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for dim in [32usize, 128] {
        let emb = Embedding::new(Mat::random_normal(300, dim, &mut rng));
        let config = LstmConfig {
            hidden: 16,
            epochs: 2,
            ..Default::default()
        };
        c.bench_function(&format!("train_bilstm_ner_d{dim}"), |bench| {
            bench.iter(|| {
                let tagger = BiLstmTagger::train(&emb, &ner.train, &config);
                black_box(tagger.predict_all(&emb, &ner.test))
            });
        });
    }
    // Logistic regression on synthetic features.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let feats = Mat::random_normal(500, 32, &mut rng);
    let labels: Vec<bool> = (0..500).map(|i| feats[(i, 0)] > 0.0).collect();
    c.bench_function("train_logreg_500x32", |bench| {
        bench.iter(|| {
            black_box(LogReg::train(
                &feats,
                &labels,
                &TrainSpec {
                    epochs: 10,
                    ..Default::default()
                },
            ))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm, bench_svd, bench_quantization, bench_generate,
              bench_cooccurrence, bench_measures, bench_nearest, bench_retrain,
              bench_training
}
criterion_main!(benches);
