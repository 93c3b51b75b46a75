//! The world file format of the [`CacheStore`]: one fully built
//! [`World`].
//!
//! At the `Paper` scale, building the world — sampling two multi-million
//! token corpora, counting two co-occurrence tables, factoring PPMI, and
//! generating five downstream datasets — dominates the cost of a *sharded*
//! grid run, because every shard process used to rebuild it from scratch.
//! The cache closes that gap: a fleet coordinator (or any first run)
//! builds the world once and stores it ([`World::load_or_build`]), and
//! every shard and every later run in the same cache directory loads it
//! back **bitwise identical** — the stability protocol's guarantee that
//! a sharded run reproduces the unsharded run exactly survives the
//! round trip (`tests/world_cache.rs` and the bench crate's `coordinator`
//! test pin this).
//!
//! The file rides the pair file's conventions: the artifact envelope
//! ([`codec::seal`], magic `ESWC`), raw `f64` bit dumps for every float,
//! and [`codec::atomic_write`]. The co-occurrence tables and the PPMI
//! matrix are **stored, not recomputed** on load, to skip the count.
//! Counting is deterministic — a recount gives the same bits, and the
//! stream crate's proptests pin that a streamed table equals a one-shot
//! count — so storing them saves time, not bits.
//!
//! The key is [`world_fingerprint`], which mixes the master seed and
//! *every* [`ScaleParams`] field — unlike the pair fingerprint
//! ([`World::fingerprint`]), which only covers the five corpus-shaping
//! parameters. A trained pair really is identical across dataset-size
//! changes, but a cached *world* is not: it embeds the sentiment/NER
//! datasets, so reusing one across e.g. a `sentiment_train` change would
//! silently evaluate the wrong data.

use std::sync::Arc;

use embedstab_corpus::codec::{self, Fnv64};
use embedstab_corpus::{Cooc, SparseMatrix, TemporalPair};
use embedstab_downstream::{NerDataset, SentimentDataset};
use embedstab_embeddings::CorpusStats;

use crate::scale::ScaleParams;
use crate::store::{CacheKey, CacheStore};
use crate::world::World;

/// Bump when the world file layout changes; old files are ignored, not
/// misread.
pub const WORLD_CACHE_FORMAT_VERSION: u32 = 2;

pub(crate) const MAGIC: [u8; 4] = *b"ESWC";

/// A stable fingerprint of everything that determines a built [`World`]:
/// the master seed and **all** scale parameters, including the
/// dataset-shaping ones (`sentiment_train`, `ner_test`, ...) and the
/// sweep/downstream knobs. Deliberately conservative: a changed `dims`
/// list rebuilds a world it could in principle have reused, but no cached
/// world is ever wrongly reused across a parameter change (the
/// perturb-each-field test below pins that every field matters).
pub fn world_fingerprint(params: &ScaleParams, master_seed: u64) -> u64 {
    // FNV-1a, like the pair-cache fingerprint, but over a tagged,
    // length-prefixed field list so the two key spaces cannot collide by
    // construction order.
    let mut h = Fnv64::new();
    for b in b"world-cache" {
        h.write_u64(u64::from(*b));
    }
    h.write_u64(master_seed);
    h.write_u64(params.vocab_size as u64);
    h.write_u64(params.n_topics as u64);
    h.write_u64(params.latent_dim as u64);
    h.write_u64(params.corpus_tokens as u64);
    h.write_u64(params.window as u64);
    h.write_u64(params.dims.len() as u64);
    for &d in &params.dims {
        h.write_u64(d as u64);
    }
    h.write_u64(params.precisions.len() as u64);
    for &p in &params.precisions {
        h.write_u64(p.bits() as u64);
    }
    h.write_u64(params.seeds.len() as u64);
    for &s in &params.seeds {
        h.write_u64(s);
    }
    h.write_u64(params.top_m as u64);
    h.write_u64(params.sentiment_train as u64);
    h.write_u64(params.sentiment_test as u64);
    h.write_u64(params.ner_train as u64);
    h.write_u64(params.ner_test as u64);
    h.write_u64(params.lstm_hidden as u64);
    h.write_u64(params.lstm_epochs as u64);
    h.write_u64(params.logreg_epochs as u64);
    h.write_u64(params.knn_queries as u64);
    h.finish()
}

pub(crate) fn encode_world(world: &World) -> Vec<u8> {
    let fingerprint = world_fingerprint(&world.params, world.master_seed);
    codec::seal(MAGIC, WORLD_CACHE_FORMAT_VERSION, fingerprint, 0, |out| {
        world.pair.encode_into(out);
        for stats in [&world.stats17, &world.stats18] {
            stats.cooc_flat.encode_into(out);
            stats.cooc_weighted.encode_into(out);
            stats.ppmi.encode_into(out);
            codec::put_u64_slice(out, &stats.unigram_counts);
        }
        // A dataset count past u32::MAX would truncate into a header that
        // decodes cleanly but describes fewer datasets; real worlds hold two.
        debug_assert!(world.sentiment.len() <= u32::MAX as usize);
        codec::put_u32(out, world.sentiment.len() as u32);
        for ds in &world.sentiment {
            ds.encode_into(out);
        }
        world.ner.encode_into(out);
    })
}

pub(crate) fn decode_world(bytes: &[u8], params: &ScaleParams, master_seed: u64) -> Option<World> {
    let r = &mut match codec::unseal(bytes, MAGIC, WORLD_CACHE_FORMAT_VERSION) {
        Ok((fingerprint, body)) if fingerprint == world_fingerprint(params, master_seed) => body,
        _ => return None,
    };
    let pair = TemporalPair::decode_from(r)?;
    if pair.model17.vocab_size() != params.vocab_size {
        return None;
    }
    let mut stats = Vec::with_capacity(2);
    for corpus in [&pair.corpus17, &pair.corpus18] {
        let cooc_flat = Cooc::decode_from(r)?;
        let cooc_weighted = Cooc::decode_from(r)?;
        let ppmi = SparseMatrix::decode_from(r)?;
        let unigram_counts = codec::take_u64_slice(r)?;
        if cooc_flat.n() != params.vocab_size
            || cooc_weighted.n() != params.vocab_size
            || ppmi.n_rows() != params.vocab_size
            || unigram_counts.len() != params.vocab_size
        {
            return None;
        }
        stats.push(CorpusStats {
            corpus: Arc::clone(corpus),
            vocab_size: params.vocab_size,
            window: params.window,
            cooc_flat,
            cooc_weighted,
            ppmi,
            unigram_counts,
        });
    }
    let stats18 = stats.pop().expect("two stats");
    let stats17 = stats.pop().expect("two stats");
    let n_sentiment = codec::take_u32(r)? as usize;
    let mut sentiment = Vec::with_capacity(n_sentiment.min(16));
    for _ in 0..n_sentiment {
        sentiment.push(Arc::new(SentimentDataset::decode_from(r)?));
    }
    let ner = Arc::new(NerDataset::decode_from(r)?);
    if !r.is_empty() {
        return None;
    }
    Some(World {
        params: params.clone(),
        master_seed,
        pair,
        stats17,
        stats18,
        sentiment,
        ner,
    })
}

impl World {
    /// Loads the world for `(params, master_seed)` from `store`, or — on
    /// a miss — builds it and stores it for the next process. The grid
    /// binaries get their world here, from their `--cache-dir`: a fleet
    /// coordinator warms the store once and every shard loads it (from
    /// the coordinator's own directory on a loopback `coordinator` run,
    /// from a pulled copy on a remote worker), and a second run at the
    /// same scale rebuilds nothing.
    ///
    /// A load is logged as `[world] loaded ...` and a build as
    /// `[world] built ...` (the `coordinator` integration test counts
    /// these markers in the fleet's one log to prove shards never
    /// rebuild). A failed store is a warning, not an error: the built
    /// world is still returned.
    pub fn load_or_build(params: &ScaleParams, master_seed: u64, store: &CacheStore) -> World {
        let name = CacheKey::world(params, master_seed).name();
        if let Some(world) = store.load_world(params, master_seed) {
            log_line!("[world] loaded {name}");
            return world;
        }
        let world = World::build(params, master_seed);
        match store.store_world(&world) {
            Ok(path) => log_line!("[world] built and stored {}", path.display()),
            Err(e) => log_line!("[world] warning: built but could not store: {e}"),
        }
        world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::scratch_dir;
    use crate::scale::Scale;
    use embedstab_quant::Precision;

    fn tiny_params() -> ScaleParams {
        let mut params = Scale::Tiny.params();
        params.corpus_tokens = 4000;
        params.sentiment_train = 60;
        params.sentiment_test = 40;
        params.ner_train = 30;
        params.ner_test = 20;
        params
    }

    /// Every `ScaleParams` field (and the master seed) must move the
    /// world-cache fingerprint — a cached world must never be reused
    /// across a parameter change, dataset sizes included.
    #[test]
    fn fingerprint_covers_every_field() {
        let base = tiny_params();
        let perturbations: Vec<(&str, ScaleParams)> = vec![
            ("vocab_size", {
                let mut p = base.clone();
                p.vocab_size += 1;
                p
            }),
            ("n_topics", {
                let mut p = base.clone();
                p.n_topics += 1;
                p
            }),
            ("latent_dim", {
                let mut p = base.clone();
                p.latent_dim += 1;
                p
            }),
            ("corpus_tokens", {
                let mut p = base.clone();
                p.corpus_tokens += 1;
                p
            }),
            ("window", {
                let mut p = base.clone();
                p.window += 1;
                p
            }),
            ("dims", {
                let mut p = base.clone();
                p.dims.push(99);
                p
            }),
            ("precisions", {
                let mut p = base.clone();
                p.precisions.push(Precision::new(2));
                p
            }),
            ("seeds", {
                let mut p = base.clone();
                p.seeds.push(7);
                p
            }),
            ("top_m", {
                let mut p = base.clone();
                p.top_m += 1;
                p
            }),
            ("sentiment_train", {
                let mut p = base.clone();
                p.sentiment_train += 1;
                p
            }),
            ("sentiment_test", {
                let mut p = base.clone();
                p.sentiment_test += 1;
                p
            }),
            ("ner_train", {
                let mut p = base.clone();
                p.ner_train += 1;
                p
            }),
            ("ner_test", {
                let mut p = base.clone();
                p.ner_test += 1;
                p
            }),
            ("lstm_hidden", {
                let mut p = base.clone();
                p.lstm_hidden += 1;
                p
            }),
            ("lstm_epochs", {
                let mut p = base.clone();
                p.lstm_epochs += 1;
                p
            }),
            ("logreg_epochs", {
                let mut p = base.clone();
                p.logreg_epochs += 1;
                p
            }),
            ("knn_queries", {
                let mut p = base.clone();
                p.knn_queries += 1;
                p
            }),
        ];
        let mut seen = vec![("base", world_fingerprint(&base, 0))];
        seen.push(("master_seed", world_fingerprint(&base, 1)));
        for (field, p) in &perturbations {
            seen.push((field, world_fingerprint(p, 0)));
        }
        for (i, &(fa, a)) in seen.iter().enumerate() {
            for &(fb, b) in &seen[i + 1..] {
                assert_ne!(a, b, "fingerprint collision between {fa} and {fb}");
            }
        }
    }

    /// The pair-cache fingerprint intentionally ignores dataset-shaping
    /// params (a trained pair does not depend on them); the world-cache
    /// fingerprint must not.
    #[test]
    fn world_fingerprint_is_stricter_than_pair_fingerprint() {
        let base = tiny_params();
        let mut bigger = base.clone();
        bigger.sentiment_train += 100;
        let wa = World::build(&base, 0);
        let wb = World::build(&bigger, 0);
        assert_eq!(wa.fingerprint(), wb.fingerprint());
        assert_ne!(
            world_fingerprint(&base, 0),
            world_fingerprint(&bigger, 0),
            "dataset sizes must key the world cache"
        );
    }

    #[test]
    fn store_load_round_trips_the_world() {
        let dir = scratch_dir("world_cache_roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let params = tiny_params();
        let cache = CacheStore::open(&dir).expect("open");
        let key = CacheKey::world(&params, 3).name();
        assert!(!cache.has(&key));
        assert!(cache.load_world(&params, 3).is_none());
        let built = World::build(&params, 3);
        let path = cache.store_world(&built).expect("store");
        assert!(cache.has(&key));
        let loaded = cache.load_world(&params, 3).expect("hit");
        assert_eq!(loaded.master_seed, 3);
        assert_eq!(
            loaded.pair.model17.word_vecs.as_slice(),
            built.pair.model17.word_vecs.as_slice()
        );
        assert_eq!(loaded.pair.corpus18.docs(), built.pair.corpus18.docs());
        // Built or loaded, a world holds each corpus once: its statistics
        // share the pair's allocation.
        for world in [&built, &loaded] {
            assert!(Arc::ptr_eq(&world.pair.corpus17, &world.stats17.corpus));
            assert!(Arc::ptr_eq(&world.pair.corpus18, &world.stats18.corpus));
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&loaded.stats17.cooc_flat.row_sums()),
            bits(&built.stats17.cooc_flat.row_sums())
        );
        assert_eq!(
            loaded.stats18.ppmi.to_entries().len(),
            built.stats18.ppmi.to_entries().len()
        );
        assert_eq!(loaded.stats17.unigram_counts, built.stats17.unigram_counts);
        assert_eq!(loaded.sentiment.len(), built.sentiment.len());
        for (l, b) in loaded.sentiment.iter().zip(&built.sentiment) {
            assert_eq!(l.name, b.name);
            assert_eq!(l.train, b.train);
            assert_eq!(l.test, b.test);
        }
        assert_eq!(loaded.ner.train, built.ner.train);
        // A different master seed misses.
        assert!(cache.load_world(&params, 4).is_none());
        // A truncated file is a miss, not an error (and rebuildable).
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");
        assert!(cache.load_world(&params, 3).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_build_builds_then_loads() {
        let dir = scratch_dir("world_cache_lob");
        std::fs::remove_dir_all(&dir).ok();
        let params = tiny_params();
        let cache = CacheStore::open(&dir).expect("open");
        let path = cache
            .path(&CacheKey::world(&params, 0).name())
            .expect("key");
        assert!(!path.exists());
        let first = World::load_or_build(&params, 0, &cache);
        assert!(path.exists(), "a miss must store the world");
        let stored = std::fs::metadata(&path).expect("stat");
        let second = World::load_or_build(&params, 0, &cache);
        // Store-if-absent: a hit leaves the stored file alone.
        let restat = std::fs::metadata(&path).expect("stat");
        assert_eq!(restat.len(), stored.len());
        assert_eq!(
            restat.modified().expect("mtime"),
            stored.modified().expect("mtime")
        );
        assert_eq!(
            first.pair.model18.word_vecs.as_slice(),
            second.pair.model18.word_vecs.as_slice()
        );
        assert_eq!(
            first.stats18.cooc_weighted.total().to_bits(),
            second.stats18.cooc_weighted.total().to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
