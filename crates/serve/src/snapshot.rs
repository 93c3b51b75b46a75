//! Versioned, quantized embedding snapshots and their on-disk store.
//!
//! A [`Snapshot`] is what a tenant actually serves: an embedding quantized
//! to the tenant's precision, plus the metadata the stability gate needs
//! to score the *next* retrain against it (the quantization clip, the
//! version lineage, the gate score that admitted it). The
//! [`SnapshotStore`] writes each one in the artifact envelope
//! (`embedstab_corpus::codec::seal`, magic `ESSN`, the version in the
//! fingerprint slot) with `codec::atomic_write`: readers never see a
//! partial file, a flipped bit fails [`SnapshotStore::open`], and a
//! reopen round-trips every snapshot bitwise (`f64` bits are dumped raw).
//!
//! Promotion history is a stack: [`SnapshotStore::publish`] pushes a new
//! live version, [`SnapshotStore::rollback`] pops back to the previous
//! one. Rolled-back snapshot files stay on disk for audit; only the `LIVE`
//! pointer moves. `LIVE` rides the same envelope (magic `ESLV`), so a
//! flipped digit fails the open instead of naming another version.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::error::QueryError;
use embedstab_corpus::codec::{self, atomic_write};
use embedstab_embeddings::Embedding;
use embedstab_linalg::{cosine_top_k, row_norms, Mat};
use embedstab_quant::{quantize, Precision};
use serde::{Deserialize, Serialize};

/// Bump when the snapshot file layout changes; old files are rejected at
/// [`SnapshotStore::open`], not misread.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"ESSN";
const LIVE_FILE: &str = "LIVE";
const LIVE_MAGIC: [u8; 4] = *b"ESLV";
/// Bump when the `LIVE` layout changes.
const LIVE_FORMAT_VERSION: u32 = 1;

/// A monotonically increasing snapshot version, assigned by the store at
/// publish time (the first published snapshot is `v1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Version(pub u64);

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Everything about a snapshot except the embedding matrix itself.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// The store-assigned version.
    pub version: Version,
    /// Embedding dimension.
    pub dim: usize,
    /// Vocabulary size (number of rows).
    pub vocab_size: usize,
    /// The precision the snapshot is quantized to.
    pub precision: Precision,
    /// The clip threshold the snapshot was quantized with — the shared-clip
    /// anchor for gate evaluations of future candidates (`None` at full
    /// precision, where quantization is the identity).
    pub clip: Option<f64>,
    /// The gate score that admitted this snapshot (`None` for a bootstrap
    /// publish, which had no live predecessor to compare against).
    pub predicted_instability: Option<f64>,
}

/// One served embedding snapshot: quantized values plus metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    meta: SnapshotMeta,
    embedding: Embedding,
    /// Per-row L2 norms ([`row_norms`], the norms the top-k kernel
    /// expects), precomputed once at construction: the snapshot is
    /// immutable and [`Snapshot::try_nearest_batch`] is the serving hot path,
    /// so cosine denominators must not be recomputed per query batch.
    /// Derived from `embedding`, not persisted.
    row_norms: Vec<f64>,
}

impl Snapshot {
    /// Quantizes `embedding` at `precision` with its own MSE-optimal clip
    /// and wraps it in snapshot form (the store calls this on publish).
    fn quantized(
        version: Version,
        embedding: &Embedding,
        precision: Precision,
        predicted_instability: Option<f64>,
    ) -> Snapshot {
        let q = quantize(embedding, precision, None);
        let (vocab_size, dim) = embedding.shape();
        Snapshot {
            meta: SnapshotMeta {
                version,
                dim,
                vocab_size,
                precision,
                clip: if precision.is_full() {
                    None
                } else {
                    Some(q.clip)
                },
                predicted_instability,
            },
            row_norms: row_norms(q.embedding.mat()),
            embedding: q.embedding,
        }
    }

    /// The snapshot's metadata.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// The quantized embedding being served.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// The vector for one word id. An out-of-range id is a typed
    /// [`QueryError`], not a panic, since on the wire the id arrives in
    /// client-controlled bytes.
    pub fn try_lookup(&self, id: u32) -> Result<&[f64], QueryError> {
        self.check_id(id)?;
        Ok(self.embedding.vector(id))
    }

    /// The vectors for a batch of word ids, as one `ids.len() x dim`
    /// matrix. Row `i` is bitwise identical to `try_lookup(ids[i])` (the
    /// `serve_integration` test pins this), so batching is purely a
    /// throughput optimization for downstream consumers. Malformed input
    /// degrades to a typed [`QueryError`]: an out-of-range id (reported
    /// with the first offender) or an empty batch. This is the entry point
    /// the TCP front-end's coalesced batches go through.
    pub fn try_lookup_batch(&self, ids: &[u32]) -> Result<Mat, QueryError> {
        self.check_lookup(ids)?;
        let rows: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
        Ok(self.embedding.mat().select_rows(&rows))
    }

    /// The checks of [`Snapshot::try_lookup_batch`] alone, so a caller
    /// coalescing many requests into one call can refuse each bad one.
    pub(crate) fn check_lookup(&self, ids: &[u32]) -> Result<(), QueryError> {
        if ids.is_empty() {
            return Err(QueryError::EmptyBatch);
        }
        ids.iter().try_for_each(|&id| self.check_id(id))
    }

    fn check_id(&self, id: u32) -> Result<(), QueryError> {
        if (id as usize) < self.meta.vocab_size {
            Ok(())
        } else {
            Err(QueryError::IdOutOfRange {
                id,
                vocab_size: self.meta.vocab_size,
            })
        }
    }

    /// The `k` nearest words (by cosine similarity) to each query vector,
    /// for a whole batch of queries at once, through the shared cosine
    /// top-k kernel ([`embedstab_linalg::cosine_top_k`]): queries are
    /// screened in bounded tiles, and the words near each query's k-th
    /// score are rescored exactly.
    ///
    /// Similarity is the scalar
    /// [`cosine_similarity`](embedstab_linalg::vecops::cosine_similarity):
    /// `(dot / (|q| |w|)).clamp(-1, 1)`, and `0` against a zero row. Each
    /// result is sorted by descending similarity, NaN last, with ties
    /// broken toward the lower word id. Ids and similarity bits equal a
    /// naive scan over every word, so an answer does not depend on the
    /// batch it rode in.
    ///
    /// Malformed input degrades to a typed [`QueryError`]: a
    /// query-dimension mismatch, an empty query batch, or `k = 0`.
    pub fn try_nearest_batch(
        &self,
        queries: &Mat,
        k: usize,
    ) -> Result<Vec<Vec<(u32, f64)>>, QueryError> {
        self.check_nearest(queries, k)?;
        Ok(cosine_top_k(
            self.embedding.mat(),
            &self.row_norms,
            queries,
            k,
            None,
        ))
    }

    /// The checks of [`Snapshot::try_nearest_batch`] alone, so a caller
    /// coalescing many requests into one call can refuse each bad one.
    pub(crate) fn check_nearest(&self, queries: &Mat, k: usize) -> Result<(), QueryError> {
        if queries.cols() != self.meta.dim {
            return Err(QueryError::DimMismatch {
                got: queries.cols(),
                expected: self.meta.dim,
            });
        }
        if queries.rows() == 0 {
            return Err(QueryError::EmptyBatch);
        }
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        Ok(())
    }

    fn encode(&self) -> io::Result<Vec<u8>> {
        let meta = serde_json::to_string(&self.meta).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("snapshot meta: {e}"))
        })?;
        let meta_len = u32::try_from(meta.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "snapshot meta exceeds the format's u32 length header",
            )
        })?;
        let (n, d) = self.embedding.shape();
        let (version, hint) = (self.meta.version.0, 12 + meta.len() + n * d * 8);
        let bytes = codec::seal(MAGIC, SNAPSHOT_FORMAT_VERSION, version, hint, |out| {
            codec::put_u32(out, meta_len);
            out.extend_from_slice(meta.as_bytes());
            codec::put_mat(out, self.embedding.mat());
        });
        Ok(bytes)
    }

    fn decode(bytes: &[u8]) -> Option<Snapshot> {
        let (version, mut body) = codec::unseal(bytes, MAGIC, SNAPSHOT_FORMAT_VERSION).ok()?;
        let r = &mut body;
        let meta: SnapshotMeta = serde_json::from_str(&codec::take_str32(r)?).ok()?;
        let mat = codec::take_mat(r)?;
        let shape = (meta.vocab_size, meta.dim);
        if meta.version.0 != version || mat.shape() != shape || !r.is_empty() {
            return None;
        }
        let embedding = Embedding::new(mat);
        Some(Snapshot {
            meta,
            row_norms: row_norms(embedding.mat()),
            embedding,
        })
    }
}

/// A directory of published snapshots plus the `LIVE` promotion history.
///
/// Persistence guarantees (the `serve` proptests pin both):
///
/// - every publish and every history move is an atomic tmp+rename write,
///   so a crash leaves either the old or the new state, never a torn one;
/// - re-opening a store loads every snapshot bitwise identical to what was
///   published (raw `f64` bit dumps under the envelope's checksum);
/// - version numbers are **never reused**: the highest version ever
///   issued is persisted in the `LIVE` file, so a publish after a
///   rollback — even across a reopen, even if the rolled-back snapshot's
///   file was archived away in the meantime — always allocates a fresh
///   version instead of overwriting an audit file.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    snapshots: BTreeMap<u64, Snapshot>,
    history: Vec<u64>,
    /// Highest version ever issued by this store (not merely the highest
    /// currently on disk). Persisted in `LIVE`; monotonic.
    max_issued: u64,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot store in `dir`, loading every
    /// published snapshot and the promotion history.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory cannot be created or read, or
    /// if a snapshot file or the `LIVE` pointer is corrupt (a serving
    /// store must not silently drop versions the history refers to).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut snapshots = BTreeMap::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("snap_") || !name.ends_with(".bin") {
                continue;
            }
            let snap = Snapshot::decode(&fs::read(&path)?).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt snapshot file {}", path.display()),
                )
            })?;
            snapshots.insert(snap.meta.version.0, snap);
        }
        let live_path = dir.join(LIVE_FILE);
        let (history, recorded_max) = match fs::read(&live_path) {
            Ok(bytes) => decode_live(&bytes).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt LIVE pointer {}", live_path.display()),
                )
            })?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), 0),
            Err(e) => return Err(e),
        };
        for v in &history {
            if !snapshots.contains_key(v) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("LIVE history names v{v} but no snapshot file holds it"),
                ));
            }
        }
        // Snapshot files (or history entries) can outrun the recorded mark
        // — e.g. a crash between a snapshot write and its history write —
        // so the allocator floor is the max over all three sources.
        let max_issued = recorded_max
            .max(snapshots.keys().last().copied().unwrap_or(0))
            .max(history.iter().copied().max().unwrap_or(0));
        Ok(SnapshotStore {
            dir,
            snapshots,
            history,
            max_issued,
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The currently live snapshot, if any version has been published.
    pub fn live(&self) -> Option<&Snapshot> {
        self.history.last().map(|v| &self.snapshots[v])
    }

    /// A published snapshot by version (including rolled-back ones, which
    /// stay on disk for audit).
    pub fn get(&self, version: Version) -> Option<&Snapshot> {
        self.snapshots.get(&version.0)
    }

    /// All published versions, ascending.
    pub fn versions(&self) -> Vec<Version> {
        self.snapshots.keys().map(|&v| Version(v)).collect()
    }

    /// The promotion history, oldest first; the last entry is live.
    pub fn history(&self) -> Vec<Version> {
        self.history.iter().map(|&v| Version(v)).collect()
    }

    /// Number of published snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True if nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Quantizes `embedding` at `precision` (with its own MSE-optimal
    /// clip, which future gate evaluations then share) and publishes it as
    /// the next version, promoting it live. `predicted_instability`
    /// records the gate score that admitted it, if any.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from persisting the snapshot or the history.
    pub fn publish(
        &mut self,
        embedding: &Embedding,
        precision: Precision,
        predicted_instability: Option<f64>,
    ) -> io::Result<Version> {
        // Allocate off the persisted high-water mark, NOT the highest
        // version currently on disk: after a rollback the popped version's
        // file may be archived or pruned, and `max present + 1` would then
        // reissue its number and overwrite the audit trail.
        let version = Version(self.max_issued + 1);
        let snap = Snapshot::quantized(version, embedding, precision, predicted_instability);
        let bytes = snap.encode()?;
        atomic_write(&self.snapshot_path(version), &bytes)?;
        self.snapshots.insert(version.0, snap);
        self.history.push(version.0);
        self.max_issued = version.0;
        if let Err(e) = self.persist_history() {
            // Keep memory and disk agreeing on what happened: a failed
            // history write means the publish did not happen, so take the
            // snapshot file back out too (best effort — a leftover file
            // would resurface as a phantom published version on reopen).
            self.history.pop();
            self.snapshots.remove(&version.0);
            self.max_issued = version.0 - 1;
            std::fs::remove_file(self.snapshot_path(version)).ok();
            return Err(e);
        }
        Ok(version)
    }

    /// Reverts the live pointer to the previous promoted version. The
    /// rolled-back snapshot's file stays on disk (it remains loadable via
    /// [`SnapshotStore::get`]); only the history moves.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if fewer than two versions
    /// have been promoted, or any I/O error from persisting the history.
    pub fn rollback(&mut self) -> io::Result<Version> {
        if self.history.len() < 2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "nothing to roll back to: fewer than two promoted versions",
            ));
        }
        let Some(popped) = self.history.pop() else {
            // Unreachable given the length check, but serving code returns
            // a typed error rather than trusting that across refactors.
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty history"));
        };
        if let Err(e) = self.persist_history() {
            self.history.push(popped); // memory must keep agreeing with disk
            return Err(e);
        }
        match self.history.last() {
            Some(&live) => Ok(Version(live)),
            None => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "history empty after rollback",
            )),
        }
    }

    fn snapshot_path(&self, version: Version) -> PathBuf {
        self.dir.join(format!(
            "snap_v{SNAPSHOT_FORMAT_VERSION}_{:012}.bin",
            version.0
        ))
    }

    /// Writes `LIVE`: the version-allocation high-water mark, then the
    /// promotion history. It names no artifact, so its fingerprint slot
    /// is 0.
    fn persist_history(&self) -> io::Result<()> {
        let hint = 16 + 8 * self.history.len();
        let bytes = codec::seal(LIVE_MAGIC, LIVE_FORMAT_VERSION, 0, hint, |out| {
            codec::put_u64(out, self.max_issued);
            codec::put_u64_slice(out, &self.history);
        });
        atomic_write(&self.dir.join(LIVE_FILE), &bytes)
    }
}

/// Reads what [`SnapshotStore::persist_history`] wrote, as `(history,
/// max_issued)`; `None` for anything else.
fn decode_live(bytes: &[u8]) -> Option<(Vec<u64>, u64)> {
    let (slot, mut body) = codec::unseal(bytes, LIVE_MAGIC, LIVE_FORMAT_VERSION).ok()?;
    let r = &mut body;
    let max_issued = codec::take_u64(r)?;
    let history = codec::take_u64_slice(r)?;
    (slot == 0 && r.is_empty()).then_some((history, max_issued))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn scratch(label: &str) -> PathBuf {
        let dir = embedstab_pipeline::cache::scratch_dir(label);
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn emb(seed: u64, n: usize, d: usize) -> Embedding {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Embedding::new(Mat::random_normal(n, d, &mut rng))
    }

    #[test]
    fn publish_reload_round_trips_bitwise() {
        let dir = scratch("snap_roundtrip");
        let mut store = SnapshotStore::open(&dir).expect("open");
        assert!(store.is_empty());
        assert!(store.live().is_none());
        let e = emb(0, 9, 4);
        let v = store
            .publish(&e, Precision::new(4), Some(0.02))
            .expect("publish");
        assert_eq!(v, Version(1));
        let reloaded = SnapshotStore::open(&dir).expect("reopen");
        let live = reloaded.live().expect("live");
        assert_eq!(live, store.live().expect("live"));
        assert_eq!(live.meta().predicted_instability, Some(0.02));
        assert_eq!(live.meta().dim, 4);
        assert_eq!(live.meta().vocab_size, 9);
        // Quantized with its own clip, recorded in the metadata.
        let q = quantize(&e, Precision::new(4), None);
        assert_eq!(live.embedding(), &q.embedding);
        assert_eq!(live.meta().clip, Some(q.clip));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_precision_snapshot_has_no_clip() {
        let dir = scratch("snap_full");
        let mut store = SnapshotStore::open(&dir).expect("open");
        let e = emb(1, 6, 3);
        store.publish(&e, Precision::FULL, None).expect("publish");
        let live = store.live().expect("live");
        assert_eq!(live.meta().clip, None);
        assert_eq!(live.embedding(), &e);
        // And the absent clip survives the JSON round trip.
        let reloaded = SnapshotStore::open(&dir).expect("reopen");
        assert_eq!(reloaded.live().expect("live").meta().clip, None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollback_pops_history_and_keeps_files() {
        let dir = scratch("snap_rollback");
        let mut store = SnapshotStore::open(&dir).expect("open");
        let v1 = store
            .publish(&emb(2, 8, 3), Precision::new(2), None)
            .expect("v1");
        let v2 = store
            .publish(&emb(3, 8, 3), Precision::new(2), Some(0.5))
            .expect("v2");
        assert_eq!(store.live().expect("live").meta().version, v2);
        let back = store.rollback().expect("rollback");
        assert_eq!(back, v1);
        assert_eq!(store.live().expect("live").meta().version, v1);
        // The rolled-back version stays published and loadable.
        assert!(store.get(v2).is_some());
        assert_eq!(store.versions(), vec![v1, v2]);
        // A further rollback has nowhere to go.
        assert_eq!(
            store.rollback().expect_err("empty").kind(),
            io::ErrorKind::InvalidInput
        );
        // History survives a reopen; the next publish continues numbering.
        let mut reloaded = SnapshotStore::open(&dir).expect("reopen");
        assert_eq!(reloaded.history(), vec![v1]);
        let v3 = reloaded
            .publish(&emb(4, 8, 3), Precision::new(2), None)
            .expect("v3");
        assert_eq!(v3, Version(3));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn publish_after_rollback_never_clobbers_the_audit_file() {
        let dir = scratch("snap_monotonic");
        let mut store = SnapshotStore::open(&dir).expect("open");
        store
            .publish(&emb(10, 6, 3), Precision::new(4), None)
            .expect("v1");
        let v2 = store
            .publish(&emb(11, 6, 3), Precision::new(4), Some(0.1))
            .expect("v2");
        let v2_path = store.snapshot_path(v2);
        let v2_bytes = fs::read(&v2_path).expect("v2 bytes");
        store.rollback().expect("rollback");
        // The next publish must allocate a fresh version and leave the
        // rolled-back snapshot's bytes untouched on disk.
        let v3 = store
            .publish(&emb(12, 6, 3), Precision::new(4), None)
            .expect("v3");
        assert_eq!(v3, Version(3));
        assert_eq!(
            fs::read(&v2_path).expect("v2 still readable"),
            v2_bytes,
            "rolled-back snapshot clobbered"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn versions_survive_rollback_prune_and_reopen() {
        let dir = scratch("snap_monotonic_reopen");
        let mut store = SnapshotStore::open(&dir).expect("open");
        store
            .publish(&emb(20, 5, 2), Precision::new(2), None)
            .expect("v1");
        let v2 = store
            .publish(&emb(21, 5, 2), Precision::new(2), None)
            .expect("v2");
        store.rollback().expect("rollback");
        // An auditor archives the rolled-back snapshot's file out of the
        // store directory. The version number must still never be reused:
        // before `max_issued` was persisted, a reopen here would have
        // reissued v2 and a restored archive file would be silently
        // overwritten.
        let v2_path = store.snapshot_path(v2);
        fs::remove_file(&v2_path).expect("archive v2");
        let mut reopened = SnapshotStore::open(&dir).expect("reopen");
        assert_eq!(reopened.history(), vec![Version(1)]);
        let v3 = reopened
            .publish(&emb(22, 5, 2), Precision::new(2), None)
            .expect("publish after prune");
        assert_eq!(v3, Version(3), "pruned version number was reissued");
        assert!(!v2_path.exists(), "nothing may recreate the archived file");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_file_is_an_open_error() {
        let dir = scratch("snap_corrupt");
        let mut store = SnapshotStore::open(&dir).expect("open");
        let v = store
            .publish(&emb(5, 7, 3), Precision::new(4), None)
            .expect("publish");
        let path = store.snapshot_path(v);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(SnapshotStore::open(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_queries_degrade_to_typed_errors() {
        let dir = scratch("snap_query_errors");
        let mut store = SnapshotStore::open(&dir).expect("open");
        store
            .publish(&emb(7, 12, 4), Precision::FULL, None)
            .expect("publish");
        let snap = store.live().expect("live");
        // Out-of-range id: single and batched lookups, first offender named.
        assert_eq!(
            snap.try_lookup(12)
                .expect_err("id == vocab is out of range"),
            QueryError::IdOutOfRange {
                id: 12,
                vocab_size: 12
            }
        );
        assert_eq!(
            snap.try_lookup_batch(&[0, 3, 99, 100])
                .expect_err("out of range"),
            QueryError::IdOutOfRange {
                id: 99,
                vocab_size: 12
            }
        );
        // Wrong query dimension.
        let wrong_dim = Mat::zeros(2, 5);
        assert_eq!(
            snap.try_nearest_batch(&wrong_dim, 3)
                .expect_err("dim mismatch"),
            QueryError::DimMismatch {
                got: 5,
                expected: 4
            }
        );
        // k = 0 and empty batches.
        let ok_queries = snap.try_lookup_batch(&[1, 2]).expect("in range");
        assert_eq!(
            snap.try_nearest_batch(&ok_queries, 0).expect_err("k = 0"),
            QueryError::ZeroK
        );
        assert_eq!(
            snap.try_nearest_batch(&Mat::zeros(0, 4), 3)
                .expect_err("no query rows"),
            QueryError::EmptyBatch
        );
        assert_eq!(
            snap.try_lookup_batch(&[]).expect_err("no ids"),
            QueryError::EmptyBatch
        );
        // And the happy paths answer from the served embedding.
        let e = snap.embedding();
        assert_eq!(snap.try_lookup(5).expect("in range"), e.vector(5));
        assert_eq!(
            (ok_queries.row(0), ok_queries.row(1)),
            (e.vector(1), e.vector(2))
        );
        let neighbors = snap.try_nearest_batch(&ok_queries, 3).expect("well-formed");
        assert_eq!(neighbors.len(), 2);
        assert!(neighbors.iter().all(|l| l.len() == 3));
        fs::remove_dir_all(&dir).ok();
    }

    /// The reference: every word scored with the scalar
    /// `cosine_similarity`, sorted descending (NaN last), lower id first.
    fn naive_nearest(snap: &Snapshot, queries: &Mat, k: usize) -> Vec<Vec<(u32, u64)>> {
        (0..queries.rows())
            .map(|qi| {
                let mut all: Vec<(u32, f64)> = (0..snap.meta().vocab_size as u32)
                    .map(|w| {
                        let sim = embedstab_linalg::vecops::cosine_similarity(
                            queries.row(qi),
                            snap.embedding().vector(w),
                        );
                        (w, sim)
                    })
                    .collect();
                all.sort_by(|a, b| {
                    embedstab_core::stats::cmp_desc_nan_last(a.1, b.1).then(a.0.cmp(&b.0))
                });
                all.into_iter()
                    .take(k)
                    .map(|(w, sim)| (w, sim.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn nearest_batch_matches_naive_scan() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut zero_row = Mat::random_normal(90, 6, &mut rng);
        zero_row.row_mut(7).fill(0.0);
        let cases = [
            ("full precision", emb(6, 150, 5), Precision::FULL),
            ("1-bit, mass ties", emb(9, 150, 4), Precision::new(1)),
            ("zero row", Embedding::new(zero_row), Precision::FULL),
        ];
        for (label, e, precision) in cases {
            let dir = scratch("snap_nearest");
            let mut store = SnapshotStore::open(&dir).expect("open");
            store.publish(&e, precision, None).expect("publish");
            let snap = store.live().expect("live");
            let vocab = snap.meta().vocab_size;
            // Snapshot rows (word 7 is the zero row in that case), then
            // off-vocabulary vectors.
            let ids = [3, 7, 17, 42, 89];
            let extra = Mat::random_normal(3, snap.meta().dim, &mut rng);
            let queries = Mat::from_fn(ids.len() + 3, snap.meta().dim, |i, j| match ids.get(i) {
                Some(&id) => snap.embedding().vector(id)[j],
                None => extra[(i - ids.len(), j)],
            });
            // All eight queries, and a thin 2-query request on its own.
            let pair = Mat::from_vec(
                2,
                snap.meta().dim,
                queries.as_slice()[..2 * snap.meta().dim].to_vec(),
            );
            for qs in [&queries, &pair] {
                for k in [1, 4, vocab + 3] {
                    let got: Vec<Vec<(u32, u64)>> = snap
                        .try_nearest_batch(qs, k)
                        .expect("well-formed")
                        .iter()
                        .map(|l| l.iter().map(|&(w, sim)| (w, sim.to_bits())).collect())
                        .collect();
                    assert_eq!(got, naive_nearest(snap, qs, k), "{label}, k {k}");
                }
            }
            // Self-similarity is clamped: never above 1.0, not even by an ulp.
            let top = snap.try_nearest_batch(&queries, 1).expect("well-formed");
            assert!(top.iter().all(|l| l[0].1 <= 1.0), "{label}");
            fs::remove_dir_all(&dir).ok();
        }
    }
}
