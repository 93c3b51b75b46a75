//! The pair file format of the [`CacheStore`](crate::CacheStore): one
//! trained + aligned embedding pair.
//!
//! Training the full-precision `(algo, dim, seed)` grid dominates the cost
//! of an experiment at the `Small`/`Paper` scales. The store keeps each
//! aligned pair once, keyed by the world's pair fingerprint
//! ([`World::fingerprint`](crate::World::fingerprint)) and the pair key
//! ([`CacheKey::pair`](crate::CacheKey::pair)), so re-runs and sibling
//! shard processes skip straight to downstream training.
//!
//! A file is a raw little-endian dump of both matrices in the artifact
//! envelope ([`codec::seal`], magic `ESPC`, keyed by the pair
//! fingerprint). `f64` bits round-trip exactly, so rows computed from
//! cached pairs are bitwise identical to rows computed from freshly
//! trained pairs (the `experiment_api` integration tests pin this), and a
//! flipped bit is a miss. [`codec::atomic_write`] makes concurrent shard
//! processes race-safe: the last writer wins with identical bytes.

use std::path::PathBuf;

use embedstab_corpus::codec;
use embedstab_embeddings::Embedding;

/// Bump when the file layout changes — or when a numeric change upstream
/// alters what trained pairs contain; old files are ignored, not misread.
///
/// v2: `Cooc::row_sums` switched to sorted-order accumulation, which
/// rounds PPMI (and therefore trained embeddings) differently than the
/// per-process hash-order sums v1 pairs were trained from. Reusing a v1
/// pair next to freshly trained ones would mix the two numeric regimes
/// inside one "bitwise reproducible" run, so v1 files are retired.
///
/// v3: the checksummed artifact envelope ([`codec::seal`]).
pub const CACHE_FORMAT_VERSION: u32 = 3;

pub(crate) const MAGIC: [u8; 4] = *b"ESPC";

pub(crate) fn encode_pair(e17: &Embedding, e18: &Embedding, world_fp: u64) -> Vec<u8> {
    let (n, d) = e17.shape();
    let hint = 16 + 2 * n * d * 8;
    codec::seal(MAGIC, CACHE_FORMAT_VERSION, world_fp, hint, |out| {
        codec::put_mat(out, e17.mat());
        codec::put_mat(out, e18.mat());
    })
}

pub(crate) fn read_pair(bytes: &[u8], world_fp: u64) -> Option<(Embedding, Embedding)> {
    let r = &mut match codec::unseal(bytes, MAGIC, CACHE_FORMAT_VERSION) {
        Ok((fingerprint, body)) if fingerprint == world_fp => body,
        _ => return None,
    };
    let m17 = codec::take_mat(r)?;
    let m18 = codec::take_mat(r)?;
    if m17.shape() != m18.shape() || !r.is_empty() {
        return None;
    }
    Some((Embedding::new(m17), Embedding::new(m18)))
}

/// A process-unique scratch directory under the system temp dir (test
/// helper; the pipeline never picks cache locations itself).
pub fn scratch_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("embedstab_{label}_{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheStore;
    use embedstab_embeddings::Algo;
    use embedstab_linalg::Mat;
    use rand::SeedableRng;
    use std::fs;

    fn pair(seed: u64) -> (Embedding, Embedding) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            Embedding::new(Mat::random_normal(7, 3, &mut rng)),
            Embedding::new(Mat::random_normal(7, 3, &mut rng)),
        )
    }

    #[test]
    fn round_trips_bitwise() {
        let dir = scratch_dir("cache_roundtrip");
        let cache = CacheStore::open(&dir).expect("open");
        let key = (Algo::Mc, 3, 0);
        assert!(cache.load_pair(42, key).is_none());
        let (e17, e18) = pair(5);
        cache.store_pair(42, key, &e17, &e18).expect("store");
        let (l17, l18) = cache.load_pair(42, key).expect("hit");
        assert_eq!(l17, e17);
        assert_eq!(l18, e18);
        // No stray temp files left behind.
        let stray = fs::read_dir(&dir)
            .expect("dir")
            .filter(|e| {
                e.as_ref()
                    .expect("entry")
                    .path()
                    .extension()
                    .is_some_and(|x| x.to_string_lossy().starts_with("tmp"))
            })
            .count();
        assert_eq!(stray, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_fingerprint_or_corrupt_file_misses() {
        let dir = scratch_dir("cache_miss");
        let cache = CacheStore::open(&dir).expect("open");
        let key = (Algo::Cbow, 3, 7);
        let (e17, e18) = pair(9);
        let path = cache.store_pair(1, key, &e17, &e18).expect("store");
        // A different world must not see the entry (the fingerprint is
        // also baked into the file name).
        assert!(cache.load_pair(2, key).is_none());
        // Truncated file: treated as a miss, not a panic.
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(cache.load_pair(1, key).is_none());
        // Header with a bumped version: also a miss.
        let mut stale = bytes.clone();
        stale[4] = 99;
        fs::write(&path, &stale).expect("rewrite");
        assert!(cache.load_pair(1, key).is_none());
        fs::remove_dir_all(&dir).ok();
    }
}
