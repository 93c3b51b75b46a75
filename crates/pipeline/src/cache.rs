//! A versioned on-disk cache of trained + aligned embedding pairs.
//!
//! Training the full-precision `(algo, dim, seed)` grid dominates the cost
//! of an experiment at the `Small`/`Paper` scales. The cache stores each
//! aligned pair once, keyed by the world fingerprint (scale parameters +
//! master seed) and the pair key, so re-runs and sibling shard processes
//! skip straight to downstream training.
//!
//! A file is a raw little-endian dump of both matrices in the artifact
//! envelope ([`codec::seal`], magic `ESPC`, keyed by the world
//! fingerprint). `f64` bits round-trip exactly, so rows computed from
//! cached pairs are bitwise identical to rows computed from freshly
//! trained pairs (the `experiment_api` integration tests pin this), and a
//! flipped bit is a miss. [`codec::atomic_write`] makes concurrent shard
//! processes race-safe: the last writer wins with identical bytes.

use std::fs;
use std::io;
use std::path::PathBuf;

use embedstab_corpus::codec::{self, atomic_write};
use embedstab_embeddings::Embedding;

use crate::grid::PairKey;

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

/// Handle to one cache directory, bound to one world fingerprint.
pub struct PairCache {
    dir: PathBuf,
    world_fp: u64,
}

impl PairCache {
    /// Opens (creating if needed) a cache directory for a world with the
    /// given fingerprint.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory.
    pub fn open(dir: impl Into<PathBuf>, world_fp: u64) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(PairCache { dir, world_fp })
    }

    /// The file path for one pair key.
    pub fn path(&self, key: PairKey) -> PathBuf {
        let (algo, dim, seed) = key;
        let algo = algo.name().to_ascii_lowercase();
        self.dir.join(format!(
            "pair_v{CACHE_FORMAT_VERSION}_{:016x}_{algo}_d{dim}_s{seed}.bin",
            self.world_fp
        ))
    }

    /// Loads a cached aligned pair, or `None` if absent, stale-versioned,
    /// or corrupt (corrupt files are treated as misses and retrained over).
    pub fn load(&self, key: PairKey) -> Option<(Embedding, Embedding)> {
        let bytes = fs::read(self.path(key)).ok()?;
        read_pair(&bytes, self.world_fp)
    }

    /// Atomically stores an aligned pair under its key.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or renaming the file.
    pub fn store(&self, key: PairKey, e17: &Embedding, e18: &Embedding) -> io::Result<()> {
        atomic_write(&self.path(key), &encode_pair(e17, e18, self.world_fp))
    }
}

fn encode_pair(e17: &Embedding, e18: &Embedding, world_fp: u64) -> Vec<u8> {
    let (n, d) = e17.shape();
    let hint = 16 + 2 * n * d * 8;
    codec::seal(MAGIC, CACHE_FORMAT_VERSION, world_fp, hint, |out| {
        codec::put_mat(out, e17.mat());
        codec::put_mat(out, e18.mat());
    })
}

fn read_pair(bytes: &[u8], world_fp: u64) -> Option<(Embedding, Embedding)> {
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
    use embedstab_embeddings::Algo;
    use embedstab_linalg::Mat;
    use rand::SeedableRng;

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
        let cache = PairCache::open(&dir, 42).expect("open");
        let key = (Algo::Mc, 3, 0);
        assert!(cache.load(key).is_none());
        let (e17, e18) = pair(5);
        cache.store(key, &e17, &e18).expect("store");
        let (l17, l18) = cache.load(key).expect("hit");
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
        let cache = PairCache::open(&dir, 1).expect("open");
        let key = (Algo::Cbow, 3, 7);
        let (e17, e18) = pair(9);
        cache.store(key, &e17, &e18).expect("store");
        // A cache bound to a different world must not see the entry (the
        // fingerprint is also baked into the file name).
        let other = PairCache::open(&dir, 2).expect("open");
        assert!(other.load(key).is_none());
        // Truncated file: treated as a miss, not a panic.
        let path = cache.path(key);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(cache.load(key).is_none());
        // Header with a bumped version: also a miss.
        let mut stale = bytes.clone();
        stale[4] = 99;
        fs::write(&path, &stale).expect("rewrite");
        assert!(cache.load(key).is_none());
        fs::remove_dir_all(&dir).ok();
    }
}
