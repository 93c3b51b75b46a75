//! Golden test for the world: the bits of a Tiny `World::build` are
//! pinned, not just compared between two builds of the same code.
//!
//! One FNV-64 hash covers both corpora, both PPMI tables and unigram
//! counts, and every token, label and tag of the four sentiment datasets
//! and the NER dataset. The corpus and dataset generators plan their
//! documents serially and sample them on the worker pool; the plan fixes
//! every document's random stream, so this value must not depend on the
//! worker count (`EMBEDSTAB_THREADS`) or on how documents are grouped
//! into planning batches. Tiny's corpora hold more than 600 documents
//! each, several batches' worth.

use embedstab::corpus::codec::Fnv64;
use embedstab::corpus::Corpus;
use embedstab::embeddings::CorpusStats;
use embedstab::pipeline::{Scale, World};

/// The hash the world below produced when it was pinned.
const GOLDEN: u64 = 0x1cd1_a86d_28dd_66c8;

fn put_tokens(h: &mut Fnv64, tokens: &[u32]) {
    h.write_u64(tokens.len() as u64);
    for &t in tokens {
        h.write_u64(u64::from(t));
    }
}

fn put_corpus(h: &mut Fnv64, corpus: &Corpus) {
    h.write_u64(corpus.docs().len() as u64);
    for doc in corpus.docs() {
        put_tokens(h, doc);
    }
}

fn put_stats(h: &mut Fnv64, stats: &CorpusStats) {
    let ppmi = &stats.ppmi;
    h.write_u64(ppmi.n_rows() as u64)
        .write_u64(ppmi.n_cols() as u64)
        .write_u64(ppmi.nnz() as u64);
    for (i, j, v) in ppmi.iter_entries() {
        h.write_u64(u64::from(i))
            .write_u64(u64::from(j))
            .write_u64(v.to_bits());
    }
    for &c in &stats.unigram_counts {
        h.write_u64(c);
    }
}

#[test]
fn tiny_world_reproduces_the_pinned_bits() {
    let world = World::build(&Scale::Tiny.params(), 7);
    assert!(world.pair.corpus17.docs().len() > 600);
    let mut h = Fnv64::new();
    put_corpus(&mut h, &world.pair.corpus17);
    put_corpus(&mut h, &world.pair.corpus18);
    put_stats(&mut h, &world.stats17);
    put_stats(&mut h, &world.stats18);
    for ds in &world.sentiment {
        h.write_u64(ds.name.len() as u64).write(ds.name.as_bytes());
        for split in [&ds.train, &ds.valid, &ds.test] {
            h.write_u64(split.len() as u64);
            for ex in split {
                put_tokens(&mut h, &ex.tokens);
                h.write_u64(u64::from(ex.label));
            }
        }
    }
    let ner = &world.ner;
    for &t in &ner.entity_topics {
        h.write_u64(t as u64);
    }
    for split in [&ner.train, &ner.valid, &ner.test] {
        h.write_u64(split.len() as u64);
        for s in split {
            put_tokens(&mut h, &s.tokens);
            h.write(&s.tags);
        }
    }
    assert_eq!(h.finish(), GOLDEN, "world bits moved: {:#018x}", h.finish());
}
