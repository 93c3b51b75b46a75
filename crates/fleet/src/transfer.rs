//! Content-addressed cache shipping: chunked pulls with receipt-time
//! verification.
//!
//! Cache files routinely exceed the 16 MiB frame ceiling, so a pull is a
//! sequence of `CacheGet { key, chunk }` calls. Every `Chunk` response
//! repeats the file's total length, chunk count, and the body checksum
//! its artifact envelope records. The puller cross-checks each response
//! against the first and the hash against the assembled header, then
//! [`embedstab_pipeline::store::verify`] unseals the file against the key
//! (a rehash catches transfer corruption, the header a wrong file). Any
//! mismatch is a typed [`FleetError::CorruptTransfer`] and the bytes
//! never reach disk; [`ensure_key`] re-pulls once before giving up.

use std::io::{Read, Write};

use embedstab_corpus::codec;
use embedstab_pipeline::CacheStore;

use crate::wire::{call, Request, Response, CHUNK_BYTES};
use crate::FleetError;
use embedstab_pipeline::log_line;

/// How many [`CHUNK_BYTES`] chunks a file of `len` bytes spans (an empty
/// file still ships as one empty chunk).
pub fn chunk_count(len: usize) -> u32 {
    let n = len.div_ceil(CHUNK_BYTES).max(1);
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// The byte range of chunk `chunk` within a file of `len` bytes, or
/// `None` past the end.
pub fn chunk_range(len: usize, chunk: u32) -> Option<std::ops::Range<usize>> {
    if chunk >= chunk_count(len) {
        return None;
    }
    let start = (chunk as usize).checked_mul(CHUNK_BYTES)?;
    Some(start..len.min(start.saturating_add(CHUNK_BYTES)))
}

fn corrupt(key: &str, detail: String) -> FleetError {
    FleetError::CorruptTransfer {
        key: key.to_string(),
        detail,
    }
}

/// Pulls `key` from the coordinator over `stream`, chunk by chunk, and
/// returns the verified bytes (hash and envelope both checked). Does not
/// touch the local store.
///
/// # Errors
///
/// [`FleetError::CorruptTransfer`] on any verification mismatch,
/// [`FleetError::Remote`] if the coordinator answers with a wire error
/// (e.g. an unknown key), [`FleetError::Io`]/[`FleetError::Protocol`] on
/// transport trouble.
pub fn pull_key(stream: &mut (impl Read + Write), key: &str) -> Result<Vec<u8>, FleetError> {
    let mut bytes: Vec<u8> = Vec::new();
    let mut expect: Option<(u64, u32, u64)> = None;
    let mut chunk = 0u32;
    loop {
        let resp = call(
            stream,
            &Request::CacheGet {
                key: key.to_string(),
                chunk,
            },
        )?;
        let (total_len, chunks, hash, piece) = match resp {
            Response::Chunk {
                total_len,
                chunks,
                content_hash,
                bytes,
            } => (total_len, chunks, content_hash, bytes),
            other => return Err(FleetError::unexpected(&format!("CacheGet '{key}'"), other)),
        };
        match expect {
            None => {
                if chunks == 0 {
                    return Err(corrupt(key, "zero chunk count".to_string()));
                }
                expect = Some((total_len, chunks, hash));
            }
            Some(first) => {
                if first != (total_len, chunks, hash) {
                    return Err(corrupt(
                        key,
                        "chunk metadata changed mid-transfer".to_string(),
                    ));
                }
            }
        }
        // Every chunk but the last must be full-sized; the running total
        // is checked against the claim at the end.
        if chunk + 1 < chunks && piece.len() != CHUNK_BYTES {
            return Err(corrupt(
                key,
                format!("short interior chunk {chunk}: {} bytes", piece.len()),
            ));
        }
        bytes.extend_from_slice(&piece);
        chunk += 1;
        if chunk == chunks {
            break;
        }
    }
    let (total_len, _, hash) = match expect {
        Some(e) => e,
        None => return Err(corrupt(key, "no chunks received".to_string())),
    };
    if u64::try_from(bytes.len()).ok() != Some(total_len) {
        return Err(corrupt(
            key,
            format!("assembled {} bytes, expected {total_len}", bytes.len()),
        ));
    }
    if codec::stored_checksum(&bytes) != Some(hash) {
        return Err(corrupt(key, "advertised hash is not the header's".into()));
    }
    embedstab_pipeline::store::verify(key, &bytes).map_err(|e| corrupt(key, e.to_string()))?;
    Ok(bytes)
}

/// Makes sure `key` exists in the local `store`, pulling it from the
/// coordinator if absent. A corrupt transfer is re-pulled once. Returns
/// `true` if a pull happened, `false` if the store already had it.
pub fn ensure_key(
    stream: &mut (impl Read + Write),
    store: &CacheStore,
    key: &str,
) -> Result<bool, FleetError> {
    if store.has(key) {
        return Ok(false);
    }
    let bytes = match pull_key(stream, key) {
        Ok(bytes) => bytes,
        Err(FleetError::CorruptTransfer { key: k, detail }) => {
            log_line!("[fleet] corrupt transfer of '{k}' ({detail}); re-pulling");
            pull_key(stream, key)?
        }
        Err(e) => return Err(e),
    };
    store.put(key, &bytes)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_math_covers_edges() {
        assert_eq!(chunk_count(0), 1);
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(CHUNK_BYTES), 1);
        assert_eq!(chunk_count(CHUNK_BYTES + 1), 2);
        assert_eq!(chunk_count(3 * CHUNK_BYTES), 3);
        assert_eq!(chunk_range(0, 0), Some(0..0));
        assert_eq!(chunk_range(0, 1), None);
        assert_eq!(chunk_range(CHUNK_BYTES + 5, 0), Some(0..CHUNK_BYTES));
        assert_eq!(
            chunk_range(CHUNK_BYTES + 5, 1),
            Some(CHUNK_BYTES..CHUNK_BYTES + 5)
        );
        assert_eq!(chunk_range(CHUNK_BYTES + 5, 2), None);
        // Ranges tile the file exactly.
        let len = 2 * CHUNK_BYTES + 17;
        let mut covered = 0;
        for c in 0..chunk_count(len) {
            let r = chunk_range(len, c).expect("in range");
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, len);
    }
}
