//! The embedding training grid: parallel training, with the trained pairs
//! loaded from and stored into an optional [`CacheStore`].

use std::collections::BTreeMap;
use std::sync::Arc;

use embedstab_embeddings::{train_embedding, Algo, Embedding};
use embedstab_quant::{quantize_pair, Precision};

use crate::pool::parallel_map;
use crate::store::CacheStore;
use crate::world::World;

/// Key of one trained embedding pair.
pub type PairKey = (Algo, usize, u64);

/// All full-precision embedding pairs for an experiment, trained once.
///
/// For every `(algorithm, dimension, seed)` the grid holds the '17
/// embedding and the '18 embedding **already aligned to it** with
/// orthogonal Procrustes, as the paper does before compression and
/// downstream training. Quantized pairs are derived on demand with the
/// clip threshold shared from the '17 side (Appendix C.2).
pub struct EmbeddingGrid {
    // BTreeMap, not HashMap: today every consumer goes through keyed
    // `get`, but the first person to add `for (k, v) in &grid.pairs` to a
    // float-summing report would silently reintroduce the PR 5 class of
    // per-process-order bugs. Key-ordered storage makes any future
    // iteration deterministic by construction.
    pairs: BTreeMap<PairKey, (Arc<Embedding>, Arc<Embedding>)>,
}

impl EmbeddingGrid {
    /// Trains the full grid over the given algorithms, dimensions, and
    /// seeds, parallelizing across available cores, through `cache` as in
    /// [`EmbeddingGrid::build_pairs`].
    pub fn build(
        world: &World,
        algos: &[Algo],
        dims: &[usize],
        seeds: &[u64],
        cache: Option<&CacheStore>,
    ) -> Self {
        let mut keys: Vec<PairKey> = Vec::new();
        for &algo in algos {
            for &dim in dims {
                for &seed in seeds {
                    keys.push((algo, dim, seed));
                }
            }
        }
        Self::build_pairs(world, &keys, cache)
    }

    /// Trains exactly the given pair keys — the entry point the
    /// [`Experiment`](crate::Experiment) runner uses, so a shard only pays
    /// for the pairs its configurations actually touch. With a
    /// [`CacheStore`], it loads cached pairs and stores the ones it trains,
    /// so re-runs and sibling shard processes skip training.
    pub fn build_pairs(world: &World, keys: &[PairKey], cache: Option<&CacheStore>) -> Self {
        let world_fp = world.fingerprint();
        let mut jobs: Vec<PairKey> = keys.to_vec();
        jobs.sort();
        jobs.dedup();
        // Train the biggest jobs first for better load balancing.
        jobs.sort_by_key(|&(_, dim, _)| std::cmp::Reverse(dim));
        let trained = parallel_map(&jobs, |&(algo, dim, seed)| {
            if let Some(cache) = cache {
                if let Some((x17, x18)) = cache.load_pair(world_fp, (algo, dim, seed)) {
                    return (Arc::new(x17), Arc::new(x18));
                }
            }
            let x17 = train_embedding(algo, &world.stats17, world.vocab(), dim, seed);
            let x18 = train_embedding(algo, &world.stats18, world.vocab(), dim, seed);
            let x18 = x18.align_to(&x17);
            if let Some(cache) = cache {
                if let Err(e) = cache.store_pair(world_fp, (algo, dim, seed), &x17, &x18) {
                    log_line!("[grid] warning: could not cache ({algo}, d={dim}, s={seed}): {e}");
                }
            }
            (Arc::new(x17), Arc::new(x18))
        });
        EmbeddingGrid {
            pairs: jobs.into_iter().zip(trained).collect(),
        }
    }

    /// Number of trained pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pairs were trained.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The full-precision aligned pair for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration was not part of the build grid.
    pub fn pair(&self, algo: Algo, dim: usize, seed: u64) -> (&Arc<Embedding>, &Arc<Embedding>) {
        let (a, b) = self
            .pairs
            .get(&(algo, dim, seed))
            .unwrap_or_else(|| panic!("pair ({algo}, d={dim}, seed {seed}) not in grid"));
        (a, b)
    }

    /// A quantized copy of the pair at the given precision (clip threshold
    /// shared from the '17 embedding).
    ///
    /// # Panics
    ///
    /// Panics if the configuration was not part of the build grid.
    pub fn quantized_pair(
        &self,
        algo: Algo,
        dim: usize,
        seed: u64,
        precision: Precision,
    ) -> (Embedding, Embedding) {
        let (x17, x18) = self.pair(algo, dim, seed);
        let (q17, q18) = quantize_pair(x17, x18, precision);
        (q17.embedding, q18.embedding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::world::World;

    #[test]
    fn grid_trains_aligns_and_quantizes() {
        let params = Scale::Tiny.params();
        let world = World::build(&params, 0);
        let grid = EmbeddingGrid::build(&world, &[Algo::Mc], &[4, 8], &[0], None);
        assert_eq!(grid.len(), 2);
        let (x17, x18) = grid.pair(Algo::Mc, 8, 0);
        assert_eq!(x17.shape(), (params.vocab_size, 8));
        assert_eq!(x18.shape(), (params.vocab_size, 8));
        let (q17, q18) = grid.quantized_pair(Algo::Mc, 8, 0, Precision::new(1));
        // 1-bit embeddings have at most two distinct values each.
        let distinct: std::collections::BTreeSet<u64> =
            q17.mat().as_slice().iter().map(|x| x.to_bits()).collect();
        assert!(distinct.len() <= 2);
        assert_eq!(q18.shape(), (params.vocab_size, 8));
        // Full precision returns the aligned originals.
        let (f17, _f18) = grid.quantized_pair(Algo::Mc, 8, 0, Precision::FULL);
        assert_eq!(&f17, x17.as_ref());
    }

    #[test]
    fn cached_build_round_trips_bitwise() {
        let params = Scale::Tiny.params();
        let world = World::build(&params, 0);
        let dir = crate::cache::scratch_dir("grid_cache");
        std::fs::remove_dir_all(&dir).ok();
        let cache = CacheStore::open(&dir).expect("open cache");
        let cold = EmbeddingGrid::build_pairs(&world, &[(Algo::Mc, 4, 0)], Some(&cache));
        let key = crate::CacheKey::pair(world.fingerprint(), (Algo::Mc, 4, 0)).name();
        assert!(cache.has(&key), "cache file written");
        let warm = EmbeddingGrid::build_pairs(&world, &[(Algo::Mc, 4, 0)], Some(&cache));
        let (c17, c18) = cold.pair(Algo::Mc, 4, 0);
        let (w17, w18) = warm.pair(Algo::Mc, 4, 0);
        assert_eq!(c17.as_ref(), w17.as_ref(), "cache must round-trip bitwise");
        assert_eq!(c18.as_ref(), w18.as_ref());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_pairs_dedups_keys() {
        let world = World::build(&Scale::Tiny.params(), 0);
        let grid = EmbeddingGrid::build_pairs(&world, &[(Algo::Mc, 4, 0), (Algo::Mc, 4, 0)], None);
        assert_eq!(grid.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not in grid")]
    fn missing_pair_panics() {
        let world = World::build(&Scale::Tiny.params(), 0);
        let grid = EmbeddingGrid::build(&world, &[Algo::Mc], &[4], &[0], None);
        let _ = grid.pair(Algo::Cbow, 4, 0);
    }
}
