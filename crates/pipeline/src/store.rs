//! The one on-disk cache: built worlds and trained pairs, in one
//! directory, addressed by content-derived keys.
//!
//! The paper's pipeline builds each world and trains and aligns each
//! embedding pair once, then reuses them for every task and measure.
//! [`CacheStore`] is where that reuse lives. One directory holds both
//! families — world files ([`crate::world_cache`]) and pair files
//! ([`crate::cache`]) — and every file is named by its [`CacheKey`] and
//! sealed in the artifact envelope ([`codec::seal`]) under the same
//! fingerprint.
//!
//! The pipeline reads and writes through the typed methods
//! ([`CacheStore::load_world`], [`CacheStore::store_pair`], ...), which
//! treat a missing, stale or corrupt file as a miss. Fleet workers ship
//! files between machines through the get/put/has API over bare keys,
//! and **prove they got them**: [`verify`] unseals the bytes under the
//! key's magic and version, which checks the body checksum, and matches
//! the fingerprint to the key.
//!
//! Keys are the bare cache file names (`world_v2_<fp>.bin`,
//! `pair_v3_<fp>_<algo>_d<dim>_s<seed>.bin`). [`CacheKey::name`] is the
//! one writer of those names and [`parse_key`] the one parser; it accepts
//! exactly the names the writer produces (no path separators, no `..`, no
//! foreign extensions), so a malicious or corrupt key can never escape
//! the store's directory.

use std::fs;
use std::io;
use std::path::PathBuf;

use embedstab_corpus::codec::{self, atomic_write};
use embedstab_embeddings::{Algo, Embedding};

use crate::cache::{encode_pair, read_pair, CACHE_FORMAT_VERSION};
use crate::grid::PairKey;
use crate::scale::ScaleParams;
use crate::world::World;
use crate::world_cache::{
    decode_world, encode_world, world_fingerprint, WORLD_CACHE_FORMAT_VERSION,
};

/// Which cache family a key belongs to; the name prefixes differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheFamily {
    /// A serialized [`World`] (`world_v*_*.bin`, magic `ESWC`).
    World,
    /// A trained + aligned embedding pair (`pair_v*_*.bin`, magic
    /// `ESPC`) for one `(algo, dim, seed)`.
    Pair(PairKey),
}

impl CacheFamily {
    fn magic(self) -> [u8; 4] {
        match self {
            CacheFamily::World => crate::world_cache::MAGIC,
            CacheFamily::Pair(_) => crate::cache::MAGIC,
        }
    }
}

/// A cache key: family, format version, and the fingerprint that both
/// names the file and is embedded in its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Which family (and magic) the key addresses.
    pub family: CacheFamily,
    /// The `vN` format version baked into the name.
    pub version: u32,
    /// The fingerprint baked into the name (world fingerprint for world
    /// files, the owning world's pair fingerprint for pair files).
    pub fingerprint: u64,
}

impl CacheKey {
    /// The key of the world built from `(params, master_seed)`, at the
    /// current world format version.
    pub fn world(params: &ScaleParams, master_seed: u64) -> CacheKey {
        CacheKey {
            family: CacheFamily::World,
            version: WORLD_CACHE_FORMAT_VERSION,
            fingerprint: world_fingerprint(params, master_seed),
        }
    }

    /// The key of one pair trained in a world whose pair fingerprint
    /// ([`World::fingerprint`]) is `world_fp`, at the current pair format
    /// version.
    pub fn pair(world_fp: u64, pair: PairKey) -> CacheKey {
        CacheKey {
            family: CacheFamily::Pair(pair),
            version: CACHE_FORMAT_VERSION,
            fingerprint: world_fp,
        }
    }

    /// The cache file name: the one writer of cache names, whose output
    /// [`parse_key`] turns back into this key.
    pub fn name(&self) -> String {
        let (version, fp) = (self.version, self.fingerprint);
        match self.family {
            CacheFamily::World => format!("world_v{version}_{fp:016x}.bin"),
            CacheFamily::Pair((algo, dim, seed)) => {
                let algo = algo.name().to_ascii_lowercase();
                format!("pair_v{version}_{fp:016x}_{algo}_d{dim}_s{seed}.bin")
            }
        }
    }
}

/// A typed store failure: bad keys and corrupt bytes are distinct from
/// transport-level I/O errors so receivers can re-pull on corruption but
/// surface I/O problems as-is.
#[derive(Debug)]
pub enum StoreError {
    /// The key is not a well-formed cache file name.
    BadKey {
        /// The offending key.
        key: String,
    },
    /// The bytes are not the artifact the key promises (wrong magic,
    /// version or fingerprint, or a body that fails its checksum) — a
    /// corrupt or mis-addressed transfer, never written to disk.
    Corrupt {
        /// The key the bytes were offered under.
        key: String,
        /// What failed to match.
        detail: String,
    },
    /// An underlying filesystem error.
    Io(io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadKey { key } => {
                write!(f, "'{key}' is not a well-formed cache key")
            }
            StoreError::Corrupt { key, detail } => {
                write!(f, "bytes offered under '{key}' are corrupt: {detail}")
            }
            StoreError::Io(e) => write!(f, "cache store I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Parses a cache key (a bare cache file name) into its family, version,
/// and fingerprint. Returns `None` for anything [`CacheKey::name`] would
/// not write — including names with path separators or `..`, so keys
/// received over a wire cannot address outside the store.
pub fn parse_key(key: &str) -> Option<CacheKey> {
    let rest = key.strip_suffix(".bin")?;
    let (is_world, rest) = if let Some(r) = rest.strip_prefix("world_v") {
        (true, r)
    } else {
        (false, rest.strip_prefix("pair_v")?)
    };
    let (version, rest) = rest.split_once('_')?;
    let (fp_hex, tail) = if is_world {
        (rest, "")
    } else {
        rest.split_once('_')?
    };
    let family = if is_world {
        CacheFamily::World
    } else {
        // pair tail: <algo>_d<dim>_s<seed>
        let mut parts = tail.split('_');
        let algo = parts.next()?;
        let algo = [Algo::Cbow, Algo::Glove, Algo::Mc, Algo::FastTextSg]
            .into_iter()
            .find(|a| a.name().to_ascii_lowercase() == algo)?;
        let dim = parts.next()?.strip_prefix('d')?.parse().ok()?;
        let seed = parts.next()?.strip_prefix('s')?.parse().ok()?;
        CacheFamily::Pair((algo, dim, seed))
    };
    let parsed = CacheKey {
        family,
        version: version.parse().ok()?,
        fingerprint: u64::from_str_radix(fp_hex, 16).ok()?,
    };
    // Only the writer's exact spelling: no extra segments, signs, leading
    // zeros, upper-case hex or short fingerprints.
    (parsed.name() == key).then_some(parsed)
}

/// Verifies that `bytes` really are the artifact `key` names: the
/// envelope unseals under the family's magic and the key's format version
/// (so the body matches its checksum), and the envelope's fingerprint is
/// the key's. This is the receipt-time proof a fleet worker runs before
/// trusting a transferred cache file.
///
/// # Errors
///
/// [`StoreError::BadKey`] for an unparseable key, [`StoreError::Corrupt`]
/// naming the first mismatch otherwise.
pub fn verify(key: &str, bytes: &[u8]) -> Result<CacheKey, StoreError> {
    let parsed = parse_key(key).ok_or_else(|| StoreError::BadKey {
        key: key.to_string(),
    })?;
    let corrupt = |detail: String| StoreError::Corrupt {
        key: key.to_string(),
        detail,
    };
    let (fingerprint, _) = codec::unseal(bytes, parsed.family.magic(), parsed.version)
        .map_err(|e| corrupt(e.to_string()))?;
    if fingerprint != parsed.fingerprint {
        return Err(corrupt(format!(
            "embedded fingerprint {fingerprint:016x} differs from the key's {:016x}",
            parsed.fingerprint
        )));
    }
    Ok(parsed)
}

/// The cache directory: worlds and pairs as key-named files, read and
/// written through typed loads and stores or shipped as bare keys.
pub struct CacheStore {
    dir: PathBuf,
}

impl CacheStore {
    /// Opens (creating if needed) the cache directory — the one the
    /// binaries' `--cache-dir` flag names.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CacheStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CacheStore { dir })
    }

    /// The on-disk path a key resolves to, or `None` for a malformed key.
    pub fn path(&self, key: &str) -> Option<PathBuf> {
        parse_key(key).map(|_| self.dir.join(key))
    }

    /// True if the keyed file exists (no content check; `get` verifies).
    pub fn has(&self, key: &str) -> bool {
        self.path(key).is_some_and(|p| p.exists())
    }

    /// Reads and verifies the keyed file. `Ok(None)` means absent; corrupt
    /// on-disk bytes are a typed error (the caller decides whether to
    /// delete, rebuild, or refuse to serve them).
    ///
    /// # Errors
    ///
    /// [`StoreError::BadKey`] for a malformed key, [`StoreError::Corrupt`]
    /// for a file whose header no longer matches its name, or any I/O
    /// error other than not-found.
    pub fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.path(key).ok_or_else(|| StoreError::BadKey {
            key: key.to_string(),
        })?;
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        verify(key, &bytes)?;
        Ok(Some(bytes))
    }

    /// Verifies `bytes` against `key` and atomically writes them into the
    /// directory — the receiving half of a cache transfer. Corrupt bytes
    /// never reach disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadKey`] / [`StoreError::Corrupt`] from
    /// [`verify`], or any I/O error from the atomic write.
    pub fn put(&self, key: &str, bytes: &[u8]) -> Result<PathBuf, StoreError> {
        verify(key, bytes)?;
        let path = self.dir.join(key);
        atomic_write(&path, bytes)?;
        Ok(path)
    }

    /// All well-formed keys currently present, sorted (malformed file
    /// names — temp files, foreign droppings — are skipped, not errors).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing the directory.
    pub fn keys(&self) -> io::Result<Vec<String>> {
        let mut out: Vec<String> = fs::read_dir(&self.dir)?
            .flatten()
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| parse_key(name).is_some())
            .collect();
        out.sort();
        Ok(out)
    }

    /// Writes `bytes` under `key` atomically, returning the path.
    fn write(&self, key: CacheKey, bytes: &[u8]) -> io::Result<PathBuf> {
        let path = self.dir.join(key.name());
        atomic_write(&path, bytes)?;
        Ok(path)
    }

    /// Loads the world for `(params, master_seed)`, or `None` if absent,
    /// stale-versioned, or corrupt (all misses, never errors — a rebuild
    /// overwrites the bad file).
    pub fn load_world(&self, params: &ScaleParams, master_seed: u64) -> Option<World> {
        let bytes = fs::read(self.dir.join(CacheKey::world(params, master_seed).name())).ok()?;
        decode_world(&bytes, params, master_seed)
    }

    /// Atomically stores a built world under its key, returning the path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or renaming the file.
    pub fn store_world(&self, world: &World) -> io::Result<PathBuf> {
        let key = CacheKey::world(&world.params, world.master_seed);
        self.write(key, &encode_world(world))
    }

    /// Loads the aligned pair `pair` of the world with pair fingerprint
    /// `world_fp`, or `None` if absent, stale-versioned, or corrupt
    /// (corrupt files are misses and get retrained over).
    pub fn load_pair(&self, world_fp: u64, pair: PairKey) -> Option<(Embedding, Embedding)> {
        let bytes = fs::read(self.dir.join(CacheKey::pair(world_fp, pair).name())).ok()?;
        read_pair(&bytes, world_fp)
    }

    /// Atomically stores an aligned pair under its key, returning the
    /// path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or renaming the file.
    pub fn store_pair(
        &self,
        world_fp: u64,
        pair: PairKey,
        e17: &Embedding,
        e18: &Embedding,
    ) -> io::Result<PathBuf> {
        let key = CacheKey::pair(world_fp, pair);
        self.write(key, &encode_pair(e17, e18, world_fp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::scratch_dir;

    fn world_bytes(version: u32, fp: u64) -> Vec<u8> {
        codec::seal(*b"ESWC", version, fp, 0, |out| {
            out.extend_from_slice(b"payload payload payload")
        })
    }

    fn pair_bytes(version: u32, fp: u64) -> Vec<u8> {
        codec::seal(*b"ESPC", version, fp, 0, |out| {
            out.extend_from_slice(b"pairpayload")
        })
    }

    #[test]
    fn parse_key_accepts_both_families_and_rejects_junk() {
        let w = parse_key("world_v1_00000000deadbeef.bin").expect("world key");
        assert_eq!(w.family, CacheFamily::World);
        assert_eq!(w.version, 1);
        assert_eq!(w.fingerprint, 0xdead_beef);
        let p = parse_key("pair_v2_00000000deadbeef_cbow_d25_s0.bin").expect("pair key");
        assert_eq!(p.family, CacheFamily::Pair((Algo::Cbow, 25, 0)));
        assert_eq!(p.version, 2);
        assert_eq!(p.fingerprint, 0xdead_beef);
        let ft = parse_key("pair_v3_00000000deadbeef_ft-sg_d8_s1.bin").expect("fastText key");
        assert_eq!(ft.family, CacheFamily::Pair((Algo::FastTextSg, 8, 1)));
        for bad in [
            "",
            "world_v1_00000000deadbeef",                  // no extension
            "world_v1_deadbeef.bin",                      // short fingerprint
            "world_v1_00000000DEADBEEF.bin",              // upper-case hex
            "world_vx_00000000deadbeef.bin",              // non-numeric version
            "world_v01_00000000deadbeef.bin",             // padded version
            "../world_v1_00000000deadbeef.bin",           // traversal
            "a/world_v1_00000000deadbeef.bin",            // separator
            "a\\world_v1_00000000deadbeef.bin",           // windows separator
            "snap_v1_00000000deadbeef.bin",               // foreign family
            "pair_v2_00000000deadbeef.bin",               // pair without tail
            "pair_v2_00000000deadbeef_cbow.bin",          // pair tail too short
            "pair_v2_00000000deadbeef_cbow_d25_s0_x.bin", // tail too long
            "pair_v2_00000000deadbeef_lsa_d25_s0.bin",    // unknown algorithm
            "pair_v2_00000000deadbeef_cbow_d+25_s0.bin",  // signed dimension
            "pair_v2_00000000deadbeef_cb/ow_d2_s0.bin",
            "world_v1_00000000deadbeef.bin.tmp123",
        ] {
            assert!(parse_key(bad).is_none(), "'{bad}' must not parse");
        }
    }

    #[test]
    fn real_cache_paths_round_trip_through_keys() {
        // The writer and the parser are inverses, and the typed stores
        // write exactly the writer's names, or fleet workers could never
        // address real files.
        let params = crate::Scale::Tiny.params();
        let world = CacheKey::world(&params, 0);
        assert_eq!(world.family, CacheFamily::World);
        assert_eq!(world.version, crate::WORLD_CACHE_FORMAT_VERSION);
        assert_eq!(world.fingerprint, world_fingerprint(&params, 0));
        let pair = CacheKey::pair(0xfeed, (Algo::Cbow, 25, 3));
        assert_eq!(pair.name(), "pair_v3_000000000000feed_cbow_d25_s3.bin");
        for key in [world, pair] {
            assert_eq!(parse_key(&key.name()), Some(key));
        }

        let dir = scratch_dir("store_key_compat");
        std::fs::remove_dir_all(&dir).ok();
        let store = CacheStore::open(&dir).expect("open");
        let (e17, e18) = (
            Embedding::new(embedstab_linalg::Mat::zeros(3, 2)),
            Embedding::new(embedstab_linalg::Mat::zeros(3, 2)),
        );
        let path = store
            .store_pair(0xfeed, (Algo::Cbow, 25, 3), &e17, &e18)
            .expect("store pair");
        assert_eq!(path, dir.join(pair.name()));
        assert_eq!(store.keys().expect("keys"), vec![pair.name()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_verifies_and_get_round_trips() {
        let root = scratch_dir("store_putget");
        std::fs::remove_dir_all(&root).ok();
        let store = CacheStore::open(&root).expect("open");
        let key = "world_v1_00000000000000aa.bin";
        let bytes = world_bytes(1, 0xaa);
        assert!(!store.has(key));
        assert!(store.get(key).expect("absent is ok-none").is_none());
        let path = store.put(key, &bytes).expect("put");
        assert_eq!(path, root.join(key));
        assert!(store.has(key));
        assert_eq!(store.get(key).expect("get").expect("present"), bytes);

        let pkey = "pair_v2_00000000000000aa_cbow_d25_s0.bin";
        store.put(pkey, &pair_bytes(2, 0xaa)).expect("pair put");
        assert_eq!(store.path(pkey), Some(root.join(pkey)));
        assert_eq!(
            store.keys().expect("keys"),
            vec![pkey.to_string(), key.to_string()]
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn put_refuses_mismatched_bytes() {
        let root = scratch_dir("store_refuse");
        std::fs::remove_dir_all(&root).ok();
        let store = CacheStore::open(&root).expect("open");
        let key = "world_v1_00000000000000aa.bin";
        // Wrong fingerprint in the header.
        match store.put(key, &world_bytes(1, 0xbb)) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("fingerprint mismatch must be Corrupt, got {other:?}"),
        }
        // Wrong version in the header.
        match store.put(key, &world_bytes(9, 0xaa)) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("version mismatch must be Corrupt, got {other:?}"),
        }
        // Wrong family magic.
        match store.put(key, &pair_bytes(1, 0xaa)) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("magic mismatch must be Corrupt, got {other:?}"),
        }
        // Truncated header.
        match store.put(key, b"ESWC") {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("short bytes must be Corrupt, got {other:?}"),
        }
        // Malformed key.
        match store.put("../evil.bin", &world_bytes(1, 0xaa)) {
            Err(StoreError::BadKey { .. }) => {}
            other => panic!("bad key must be BadKey, got {other:?}"),
        }
        // Nothing reached disk.
        assert!(!store.has(key));
        assert!(store.keys().expect("keys").is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn get_flags_on_disk_corruption() {
        let root = scratch_dir("store_disk_corrupt");
        std::fs::remove_dir_all(&root).ok();
        let store = CacheStore::open(&root).expect("open");
        let key = "world_v1_00000000000000aa.bin";
        store.put(key, &world_bytes(1, 0xaa)).expect("put");
        // Smash the embedded fingerprint on disk.
        let path = store.path(key).expect("path");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[8] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        match store.get(key) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("corrupt disk bytes must be Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
