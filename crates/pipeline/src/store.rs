//! A content-addressed view over the on-disk cache families, for shipping
//! cache files between machines.
//!
//! The world cache ([`crate::world_cache`]) and the pair cache
//! ([`crate::cache`]) already key every file by a content-derived
//! fingerprint, in the file *name* and in its artifact envelope
//! ([`codec::seal`]). [`CacheStore`] exposes both families under those
//! keys with a get/put/has API, so a fleet worker with an empty disk can
//! pull exactly the bytes it needs by fingerprint and **prove it got
//! them**: [`verify`] unseals them under the key's magic and version,
//! which checks the body checksum, and matches the fingerprint to the key.
//!
//! Keys are the bare cache file names (`world_v2_<fp>.bin`,
//! `pair_v3_<fp>_<algo>_d<dim>_s<seed>.bin`): stable, self-describing, and
//! safe to use as a wire identifier because [`parse_key`] rejects anything
//! that is not exactly a well-formed cache file name (no path separators,
//! no `..`, no foreign extensions) — a malicious or corrupt key can never
//! escape the store's directories.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use embedstab_corpus::codec::{self, atomic_write};

/// Which cache family a key belongs to (the two families live in separate
/// directories but share one key namespace — the name prefixes differ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheFamily {
    /// A serialized [`World`](crate::World) (`world_v*_*.bin`, magic `ESWC`).
    World,
    /// A trained + aligned embedding pair (`pair_v*_*.bin`, magic `ESPC`).
    Pair,
}

impl CacheFamily {
    fn magic(self) -> [u8; 4] {
        match self {
            CacheFamily::World => crate::world_cache::MAGIC,
            CacheFamily::Pair => crate::cache::MAGIC,
        }
    }
}

/// A parsed cache key: family, format version, and the fingerprint that
/// both names the file and is embedded in its header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Which family (and directory, and magic) the key addresses.
    pub family: CacheFamily,
    /// The `vN` format version baked into the name.
    pub version: u32,
    /// The fingerprint baked into the name (world fingerprint for world
    /// files, the owning world's fingerprint for pair files).
    pub fingerprint: u64,
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
/// and fingerprint. Returns `None` for anything else — including names
/// with path separators or `..`, so keys received over a wire cannot
/// address outside the store.
pub fn parse_key(key: &str) -> Option<CacheKey> {
    if key.contains('/') || key.contains('\\') || key.contains("..") {
        return None;
    }
    let rest = key.strip_suffix(".bin")?;
    let (family, rest) = if let Some(r) = rest.strip_prefix("world_v") {
        (CacheFamily::World, r)
    } else if let Some(r) = rest.strip_prefix("pair_v") {
        (CacheFamily::Pair, r)
    } else {
        return None;
    };
    let (version, rest) = rest.split_once('_')?;
    let version = version.parse::<u32>().ok()?;
    let (fp_hex, tail) = match family {
        CacheFamily::World => (rest, ""),
        CacheFamily::Pair => rest.split_once('_')?,
    };
    if fp_hex.len() != 16 {
        return None;
    }
    let fingerprint = u64::from_str_radix(fp_hex, 16).ok()?;
    if family == CacheFamily::Pair {
        // pair tail: <algo>_d<dim>_s<seed>, all lowercase alnum segments.
        let mut parts = tail.split('_');
        let algo = parts.next()?;
        let dim = parts.next()?.strip_prefix('d')?;
        let seed = parts.next()?.strip_prefix('s')?;
        if parts.next().is_some()
            || algo.is_empty()
            || !algo.chars().all(|c| c.is_ascii_alphanumeric())
            || dim.parse::<u64>().is_err()
            || seed.parse::<u64>().is_err()
        {
            return None;
        }
    }
    Some(CacheKey {
        family,
        version,
        fingerprint,
    })
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

/// A content-addressed get/put/has view over one world-cache directory and
/// one pair-cache directory.
pub struct CacheStore {
    world_dir: PathBuf,
    pair_dir: PathBuf,
}

impl CacheStore {
    /// Opens (creating if needed) a store over the two cache directories —
    /// the same directories the `--world-cache` / `--cache-dir` flags
    /// point at, so the store sees exactly what the pipeline reads.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating either directory.
    pub fn open(
        world_dir: impl Into<PathBuf>,
        pair_dir: impl Into<PathBuf>,
    ) -> io::Result<CacheStore> {
        let world_dir = world_dir.into();
        let pair_dir = pair_dir.into();
        fs::create_dir_all(&world_dir)?;
        fs::create_dir_all(&pair_dir)?;
        Ok(CacheStore {
            world_dir,
            pair_dir,
        })
    }

    /// The directory a key's family lives in.
    pub fn dir_for(&self, family: CacheFamily) -> &Path {
        match family {
            CacheFamily::World => &self.world_dir,
            CacheFamily::Pair => &self.pair_dir,
        }
    }

    /// The on-disk path a key resolves to, or `None` for a malformed key.
    pub fn path(&self, key: &str) -> Option<PathBuf> {
        let parsed = parse_key(key)?;
        Some(self.dir_for(parsed.family).join(key))
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
    /// family's directory — the receiving half of a cache transfer.
    /// Corrupt bytes never reach disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadKey`] / [`StoreError::Corrupt`] from
    /// [`verify`], or any I/O error from the atomic write.
    pub fn put(&self, key: &str, bytes: &[u8]) -> Result<PathBuf, StoreError> {
        let parsed = verify(key, bytes)?;
        let path = self.dir_for(parsed.family).join(key);
        atomic_write(&path, bytes)?;
        Ok(path)
    }

    /// All well-formed keys currently present, sorted (malformed file
    /// names — temp files, foreign droppings — are skipped, not errors).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing a directory that exists.
    pub fn keys(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for dir in [&self.world_dir, &self.pair_dir] {
            let entries = match fs::read_dir(dir) {
                Ok(entries) => entries,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            for entry in entries.flatten() {
                if let Some(name) = entry.file_name().to_str() {
                    if parse_key(name).is_some() {
                        out.push(name.to_string());
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// The pair-cache keys belonging to the world with this fingerprint —
    /// the "warm entries" a fleet worker pre-pulls so it never retrains a
    /// pair the coordinator already has.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing the pair directory.
    pub fn pair_keys_for_world(&self, world_fp: u64) -> io::Result<Vec<String>> {
        let keys = self.keys()?;
        Ok(keys
            .into_iter()
            .filter(|k| {
                parse_key(k)
                    .is_some_and(|p| p.family == CacheFamily::Pair && p.fingerprint == world_fp)
            })
            .collect())
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
        assert_eq!(p.family, CacheFamily::Pair);
        assert_eq!(p.version, 2);
        assert_eq!(p.fingerprint, 0xdead_beef);
        for bad in [
            "",
            "world_v1_00000000deadbeef",                  // no extension
            "world_v1_deadbeef.bin",                      // short fingerprint
            "world_vx_00000000deadbeef.bin",              // non-numeric version
            "../world_v1_00000000deadbeef.bin",           // traversal
            "a/world_v1_00000000deadbeef.bin",            // separator
            "a\\world_v1_00000000deadbeef.bin",           // windows separator
            "snap_v1_00000000deadbeef.bin",               // foreign family
            "pair_v2_00000000deadbeef.bin",               // pair without tail
            "pair_v2_00000000deadbeef_cbow.bin",          // pair tail too short
            "pair_v2_00000000deadbeef_cbow_d25_s0_x.bin", // tail too long
            "pair_v2_00000000deadbeef_cb/ow_d2_s0.bin",
            "world_v1_00000000deadbeef.bin.tmp123",
        ] {
            assert!(parse_key(bad).is_none(), "'{bad}' must not parse");
        }
    }

    #[test]
    fn real_cache_paths_round_trip_through_keys() {
        // The store's key syntax must match what the cache families
        // actually write, or fleet workers could never address real files.
        let dir = scratch_dir("store_key_compat");
        std::fs::remove_dir_all(&dir).ok();
        let cache = crate::WorldCache::open(dir.join("w")).expect("open");
        let params = crate::Scale::Tiny.params();
        let path = cache.path(&params, 0);
        let name = path.file_name().expect("name").to_str().expect("utf8");
        let parsed = parse_key(name).expect("world cache names parse as keys");
        assert_eq!(parsed.family, CacheFamily::World);
        assert_eq!(parsed.version, crate::WORLD_CACHE_FORMAT_VERSION);
        assert_eq!(parsed.fingerprint, crate::world_fingerprint(&params, 0));

        let pc = crate::PairCache::open(dir.join("p"), 0xfeed).expect("open");
        let path = pc.path((embedstab_embeddings::Algo::Cbow, 25, 3));
        let name = path.file_name().expect("name").to_str().expect("utf8");
        let parsed = parse_key(name).expect("pair cache names parse as keys");
        assert_eq!(parsed.family, CacheFamily::Pair);
        assert_eq!(parsed.version, crate::CACHE_FORMAT_VERSION);
        assert_eq!(parsed.fingerprint, 0xfeed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_verifies_and_get_round_trips() {
        let root = scratch_dir("store_putget");
        std::fs::remove_dir_all(&root).ok();
        let store = CacheStore::open(root.join("world"), root.join("pair")).expect("open");
        let key = "world_v1_00000000000000aa.bin";
        let bytes = world_bytes(1, 0xaa);
        assert!(!store.has(key));
        assert!(store.get(key).expect("absent is ok-none").is_none());
        let path = store.put(key, &bytes).expect("put");
        assert!(path.starts_with(root.join("world")));
        assert!(store.has(key));
        assert_eq!(store.get(key).expect("get").expect("present"), bytes);

        let pkey = "pair_v2_00000000000000aa_cbow_d25_s0.bin";
        store.put(pkey, &pair_bytes(2, 0xaa)).expect("pair put");
        assert!(store
            .path(pkey)
            .expect("path")
            .starts_with(root.join("pair")));
        assert_eq!(
            store.keys().expect("keys"),
            vec![pkey.to_string(), key.to_string()]
        );
        assert_eq!(
            store.pair_keys_for_world(0xaa).expect("warm"),
            vec![pkey.to_string()]
        );
        assert!(store.pair_keys_for_world(0xbb).expect("warm").is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn put_refuses_mismatched_bytes() {
        let root = scratch_dir("store_refuse");
        std::fs::remove_dir_all(&root).ok();
        let store = CacheStore::open(root.join("world"), root.join("pair")).expect("open");
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
        let store = CacheStore::open(root.join("world"), root.join("pair")).expect("open");
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
