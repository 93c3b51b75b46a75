//! Checkpointing for the continuous retrainer.
//!
//! A service that has streamed increments holds a corpus no
//! `(parameters, seed)` pair describes, so checkpoints are keyed by the
//! **content** fingerprint ([`ContinuousRetrainer::fingerprint`]) and
//! verified against it on resume. The file carries the counting state —
//! corpus, co-occurrence table (in counting order, like the world cache)
//! and the per-dimension warm bases — so a resumed service continues
//! bitwise where the saved one stopped. PPMI is not stored: resume
//! rebuilds it from the table, which is what a refresh would compute,
//! so a checkpoint taken between an ingest and the next refresh cannot
//! resume on stale PPMI.
//!
//! The file is the artifact envelope (`corpus::codec::seal`, magic
//! `ESSC`) written with `codec::atomic_write`; a file that fails
//! `codec::unseal`, or is otherwise corrupt or mismatched, is a miss.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use embedstab_corpus::codec::{self, atomic_write};
use embedstab_corpus::{corpus_state_fingerprint, ppmi, Cooc, Corpus};
use embedstab_serve::TenantRegistry;

use crate::error::StreamError;
use crate::service::{ContinuousRetrainer, RetrainerConfig};

/// Bump when the checkpoint byte layout changes; older files then decode
/// as misses instead of misparsing.
pub const STREAM_CHECKPOINT_FORMAT_VERSION: u32 = 3;

const MAGIC: [u8; 4] = *b"ESSC";

/// Where a service with the given content fingerprint checkpoints inside
/// `dir`. Content-addressed: two services holding the same corpus under
/// the same configuration share a path, however their corpora were
/// accumulated.
pub fn checkpoint_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("stream_{fingerprint:016x}.ckpt"))
}

impl ContinuousRetrainer {
    /// Writes the service's counting state to
    /// [`checkpoint_path`]`(dir, self.fingerprint())`, atomically,
    /// returning the path. Tenant snapshot stores persist themselves; the
    /// checkpoint covers only the retraining state.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating `dir` or writing the file.
    pub fn save_checkpoint(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let fp = self.fingerprint();
        let path = checkpoint_path(dir, fp);
        let out = codec::seal(MAGIC, STREAM_CHECKPOINT_FORMAT_VERSION, fp, 0, |out| {
            codec::put_u64(out, self.vocab_size() as u64);
            codec::put_u64(out, self.config().cooc.window as u64);
            codec::put_u64(out, self.config().cooc.distance_weighting as u64);
            codec::put_u64(out, self.increments());
            self.corpus().encode_into(out);
            self.cooc().encode_into(out);
            codec::put_u64(out, self.bases().len() as u64);
            for (&dim, basis) in self.bases() {
                codec::put_u64(out, dim as u64);
                codec::put_mat(out, basis);
            }
        });
        atomic_write(&path, &out)?;
        Ok(path)
    }

    /// Resumes a service from `path`, validating the checkpoint against
    /// `config` (the counting configuration must match what the file was
    /// saved under) and its own content fingerprint. Returns `Ok(None)` —
    /// a miss, the caller rebuilds from source — when the file does not
    /// exist, is truncated or corrupt, was written under a different
    /// counting configuration, or its fingerprint does not match the
    /// state it carries.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] for I/O failures other than the file being
    /// absent.
    pub fn resume(
        path: &Path,
        config: RetrainerConfig,
        registry: TenantRegistry,
    ) -> Result<Option<Self>, StreamError> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(decode_checkpoint(&bytes, config, registry)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StreamError::Io(e)),
        }
    }
}

/// Decodes and validates one checkpoint; any inconsistency is a miss.
fn decode_checkpoint(
    bytes: &[u8],
    config: RetrainerConfig,
    registry: TenantRegistry,
) -> Option<ContinuousRetrainer> {
    let (stored_fp, mut body) =
        codec::unseal(bytes, MAGIC, STREAM_CHECKPOINT_FORMAT_VERSION).ok()?;
    let r = &mut body;
    let vocab_size = usize::try_from(codec::take_u64(r)?).ok()?;
    let window = usize::try_from(codec::take_u64(r)?).ok()?;
    let distance_weighting = match codec::take_u64(r)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    if window != config.cooc.window || distance_weighting != config.cooc.distance_weighting {
        return None; // saved under a different counting configuration
    }
    let increments = codec::take_u64(r)?;
    let corpus = Corpus::decode_from(r)?;
    let cooc = Cooc::decode_from(r)?;
    if cooc.n() != vocab_size {
        return None;
    }
    let n_bases = codec::take_len(r, 8)?;
    let mut bases = BTreeMap::new();
    for _ in 0..n_bases {
        let dim = usize::try_from(codec::take_u64(r)?).ok()?;
        let basis = codec::take_mat(r)?;
        if dim == 0 || dim > vocab_size || basis.rows() != vocab_size {
            return None;
        }
        bases.insert(dim, basis);
    }
    if !r.is_empty() {
        return None;
    }
    // The file must be internally consistent with its own key: the state
    // it carries re-fingerprints to the fingerprint it claims.
    if corpus_state_fingerprint(&corpus, vocab_size, &config.cooc) != stored_fp {
        return None;
    }
    let ppmi = ppmi(&cooc);
    Some(ContinuousRetrainer::from_parts(
        vocab_size, config, registry, corpus, cooc, ppmi, bases, increments,
    ))
}
