//! Golden test for the sweep: the bits of a grid run's rows are pinned,
//! not just compared between two runs of the same code.
//!
//! A Tiny `Experiment` runs tasks `sst2` and `ner` over the main
//! algorithms (CBOW, GloVe, MC) with the five measures on: 162 rows
//! (2 tasks x 3 algos x 3 dims x 3 precisions x 3 seeds). One FNV-64 hash
//! covers every field of every row, in enumeration order. It pins the
//! embedding trainers, quantization, both downstream models (logistic
//! regression and the BiLSTM tagger) and the measures together. Speed
//! work that keeps every floating-point sum in its order must leave this
//! value unchanged; so must the worker count (`EMBEDSTAB_THREADS`). A
//! change that reorders sums re-pins it, with the reason.
//!
//! A second hash pins what the grid does not reach through the same
//! kernels: fastText skipgram, the BiLSTM-CRF tagger, and the reported
//! training losses of CBOW, fastText and the BiLSTM tagger.

use embedstab::corpus::codec::Fnv64;
use embedstab::downstream::models::{BiLstmCrfTagger, BiLstmTagger, LstmConfig};
use embedstab::embeddings::cbow::CbowTrainer;
use embedstab::embeddings::fasttext::{FastTextConfig, FastTextTrainer};
use embedstab::embeddings::{Algo, Embedding};
use embedstab::pipeline::{Experiment, Row, Scale, World};

/// The hash the sweep below produced when it was pinned.
const GOLDEN: u64 = 0xe6a7_47d8_aa95_9f8d;

/// The hash of the off-grid trainers below when it was pinned.
const GOLDEN_OFF_GRID: u64 = 0x3379_04bd_652f_661b;

fn put_row(h: &mut Fnv64, r: &Row) {
    for name in [&r.task, &r.algo] {
        h.write_u64(name.len() as u64).write(name.as_bytes());
    }
    h.write_u64(r.dim as u64)
        .write_u64(u64::from(r.bits))
        .write_u64(r.memory)
        .write_u64(r.seed);
    for v in [r.disagreement, r.quality17, r.quality18] {
        h.write_u64(v.to_bits());
    }
    let m = r.measures.as_ref().expect("measures requested");
    for v in [
        m.eis,
        m.knn_dist,
        m.semantic_displacement,
        m.pip_loss,
        m.overlap_dist,
    ] {
        h.write_u64(v.to_bits());
    }
}

#[test]
fn tiny_sweep_reproduces_the_pinned_bits() {
    let world = World::build(&Scale::Tiny.params(), 7);
    let rows = Experiment::new(&world)
        .tasks(["sst2", "ner"])
        .algos(Algo::MAIN)
        .with_measures(true)
        .run();
    assert_eq!(rows.len(), 162);
    let mut h = Fnv64::new();
    for r in &rows {
        put_row(&mut h, r);
    }
    assert_eq!(h.finish(), GOLDEN, "row bits moved: {:#018x}", h.finish());
}

fn put_embedding(h: &mut Fnv64, e: &Embedding) {
    let m = e.mat();
    h.write_u64(m.rows() as u64).write_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.write_u64(v.to_bits());
    }
}

fn put_tags(h: &mut Fnv64, preds: &[Vec<u8>]) {
    for p in preds {
        h.write_u64(p.len() as u64).write(p);
    }
}

#[test]
fn off_grid_trainers_reproduce_the_pinned_bits() {
    let world = World::build(&Scale::Tiny.params(), 7);
    let mut h = Fnv64::new();
    let (cbow, report) = CbowTrainer::default().train_with_report(&world.stats17, 8, 3);
    put_embedding(&mut h, &cbow);
    h.write_u64(report.initial_loss.to_bits())
        .write_u64(report.final_loss.to_bits());
    let fasttext = FastTextTrainer::new(FastTextConfig {
        epochs: 2,
        buckets: 2_000,
        ..Default::default()
    });
    let (ft, report) = fasttext.train_with_report(&world.stats17, world.vocab(), 8, 3);
    put_embedding(&mut h, &ft);
    h.write_u64(report.initial_loss.to_bits())
        .write_u64(report.final_loss.to_bits());
    assert_eq!(ft, fasttext.train(&world.stats17, world.vocab(), 8, 3));

    let ner = &world.ner;
    let config = LstmConfig {
        hidden: 8,
        epochs: 2,
        init_seed: 3,
        sample_seed: 4,
        ..Default::default()
    };
    let (tagger, losses) = BiLstmTagger::train_with_report(&cbow, &ner.train, &config);
    for l in losses {
        h.write_u64(l.to_bits());
    }
    put_tags(&mut h, &tagger.predict_all(&cbow, &ner.test));
    let crf = BiLstmCrfTagger::train(&cbow, &ner.train, &config);
    put_tags(&mut h, &crf.predict_all(&cbow, &ner.test));
    assert_eq!(
        h.finish(),
        GOLDEN_OFF_GRID,
        "off-grid bits moved: {:#018x}",
        h.finish()
    );
}
