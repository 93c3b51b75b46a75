//! Little-endian byte-codec primitives, the FNV-1a hash, and the one
//! artifact envelope every on-disk format rides.
//!
//! The on-disk artifacts (pair cache, world cache, snapshots, stream
//! checkpoints) dump `f64` bits raw so loads round-trip **bitwise**. This
//! module is the one definition of that byte layout: everything
//! little-endian, matrices as `rows: u32, cols: u32, row-major f64
//! entries`, sequences length-prefixed. Corpus types (and, downstream,
//! the dataset codecs) build their `encode_into` / `decode_from` methods
//! from these primitives.
//!
//! Each artifact is one [`seal`]ed envelope, written by [`atomic_write`]:
//! a 32-byte header `magic[4], version: u32, fingerprint: u64, body_len:
//! u64, checksum: u64` (an [`Fnv64`] of the body), then the body. Its one
//! reader is [`unseal`], so a flipped bit in an artifact is a miss.
//!
//! The serve and fleet wire protocols build their frame bodies from the
//! same primitives, plus a frame's narrower prefixes (`str16`, `str32`,
//! `bytes32`, `u32` counts) and the error body both protocols share.
//!
//! Decoders take a `&mut &[u8]` cursor and return `Option`: any truncated
//! or inconsistent input yields `None` (callers treat that as a cache
//! miss or a malformed frame, never a panic), and no decoder trusts a
//! length prefix before checking the remaining input actually holds that
//! many bytes — a corrupt file or a hostile peer must not trigger a giant
//! allocation.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use embedstab_linalg::Mat;

/// Appends a `u16` in little-endian order.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw little-endian bit pattern (round-trips
/// exactly, including NaN payloads and signed zeros).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed `u32` slice.
pub fn put_u32_slice(out: &mut Vec<u8>, vs: &[u32]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u32(out, v);
    }
}

/// Appends a length-prefixed `u64` slice.
pub fn put_u64_slice(out: &mut Vec<u8>, vs: &[u64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v);
    }
}

/// Appends a length-prefixed `f64` slice (raw bits).
pub fn put_f64_slice(out: &mut Vec<u8>, vs: &[f64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_f64(out, v);
    }
}

/// Appends a matrix as `rows: u32, cols: u32, row-major f64 entries` — the
/// pair-cache layout, so matrix bytes are interchangeable between the two
/// cache families.
pub fn put_mat(out: &mut Vec<u8>, m: &Mat) {
    // A dimension past u32::MAX would truncate into a well-formed header
    // describing a different matrix; no real vocab/dim comes close.
    debug_assert!(m.rows() <= u32::MAX as usize && m.cols() <= u32::MAX as usize);
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    for &x in m.as_slice() {
        put_f64(out, x);
    }
}

/// Appends a `u16`-length-prefixed UTF-8 string; `None` if it is longer
/// than `u16::MAX` bytes.
pub fn put_str16(out: &mut Vec<u8>, s: &str) -> Option<()> {
    put_u16(out, u16::try_from(s.len()).ok()?);
    out.extend_from_slice(s.as_bytes());
    Some(())
}

/// Appends a `u32`-length-prefixed UTF-8 string; `None` if it does not fit.
pub fn put_str32(out: &mut Vec<u8>, s: &str) -> Option<()> {
    put_bytes32(out, s.as_bytes())
}

/// Appends `u32`-length-prefixed raw bytes; `None` if they do not fit.
pub fn put_bytes32(out: &mut Vec<u8>, bytes: &[u8]) -> Option<()> {
    put_u32(out, u32::try_from(bytes.len()).ok()?);
    out.extend_from_slice(bytes);
    Some(())
}

/// Appends an error body: `code: u16`, then the message as a `str32` cut
/// to at most `u16::MAX` bytes on a char boundary. It cannot fail, so an
/// error is always deliverable however long its message.
pub fn put_error_body(out: &mut Vec<u8>, code: u16, message: &str) {
    put_u16(out, code);
    let mut cut = u16::try_from(message.len()).unwrap_or(u16::MAX);
    while !message.is_char_boundary(usize::from(cut)) {
        cut -= 1;
    }
    put_u32(out, u32::from(cut));
    out.extend_from_slice(&message.as_bytes()[..usize::from(cut)]);
}

/// FNV-1a-64, behind the cache and checkpoint keys and the envelope
/// checksum. Each step `h = (h ^ b) * prime` is injective in `h` (the
/// prime is odd), so any one-byte change to the input changes the hash.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-64 offset basis.
    pub const fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in `bytes`, one at a time.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes in `v` as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv64 {
        self.write(&v.to_le_bytes())
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Length of the envelope header [`seal`] puts in front of every body.
const ENVELOPE_BYTES: usize = 32;

/// Why [`unseal`] refused a file: the first failed check, in this order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Shorter than the envelope header.
    Short,
    /// Another format's magic.
    Magic,
    /// Another format version.
    Version,
    /// A body length other than the header records.
    Length,
    /// A body checksum other than the header records.
    Checksum,
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EnvelopeError::Short => "shorter than the 32-byte envelope header",
            EnvelopeError::Magic => "the magic names another format",
            EnvelopeError::Version => "unexpected format version",
            EnvelopeError::Length => "body length differs from the header's",
            EnvelopeError::Checksum => "content hash differs from the header's checksum",
        })
    }
}

/// Encodes one artifact: the header, then the body `write_body` appends
/// (`body_hint` pre-sizes it), whose length and checksum are then patched
/// into the header in place, so the body is never copied.
pub fn seal(
    magic: [u8; 4],
    version: u32,
    fingerprint: u64,
    body_hint: usize,
    write_body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_BYTES.saturating_add(body_hint));
    out.extend_from_slice(&magic);
    put_u32(&mut out, version);
    put_u64(&mut out, fingerprint);
    out.resize(ENVELOPE_BYTES, 0);
    write_body(&mut out);
    let len = (out.len() - ENVELOPE_BYTES) as u64;
    let sum = Fnv64::new().write(&out[ENVELOPE_BYTES..]).finish();
    out[16..24].copy_from_slice(&len.to_le_bytes());
    out[24..ENVELOPE_BYTES].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Checks an artifact's envelope against the `magic` and `version` its
/// reader expects, and its body against the stored length and checksum;
/// returns the fingerprint slot, for the caller to check against its own
/// key, and the body. Neither allocates nor panics.
///
/// # Errors
///
/// The first failed check, as an [`EnvelopeError`].
pub fn unseal(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<(u64, &[u8]), EnvelopeError> {
    let (mut header, body) = bytes
        .split_at_checked(ENVELOPE_BYTES)
        .ok_or(EnvelopeError::Short)?;
    if take_bytes(&mut header, 4) != Some(&magic[..]) {
        return Err(EnvelopeError::Magic);
    }
    if take_u32(&mut header) != Some(version) {
        return Err(EnvelopeError::Version);
    }
    let fingerprint = take_u64(&mut header).ok_or(EnvelopeError::Short)?;
    if take_u64(&mut header) != u64::try_from(body.len()).ok() {
        return Err(EnvelopeError::Length);
    }
    if take_u64(&mut header) != Some(Fnv64::new().write(body).finish()) {
        return Err(EnvelopeError::Checksum);
    }
    Ok((fingerprint, body))
}

/// The body checksum an artifact's header records, unverified: what a
/// sender advertises for a file it already unsealed, without rehashing.
pub fn stored_checksum(bytes: &[u8]) -> Option<u64> {
    take_u64(&mut bytes.get(24..ENVELOPE_BYTES)?)
}

/// Writes `bytes` to `path` through a process-unique temporary sibling
/// and an atomic rename, the durability convention of every artifact in
/// this workspace: readers never observe a partial file, concurrent
/// writers race to identical final bytes, and a crash leaves at most a
/// stray `*.tmp<pid>_<n>` sibling. The parent directory is synced after
/// the rename, so a power loss cannot undo it.
///
/// # Errors
///
/// Returns any I/O error from writing, syncing, or renaming.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // Unique per write, not just per process: concurrent same-path writers
    // in one process must not truncate each other's temporary file.
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp{}_{seq}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Reads a `u16` from the front of `r`, advancing it.
pub fn take_u16(r: &mut &[u8]) -> Option<u16> {
    let (head, rest) = r.split_first_chunk::<2>()?;
    *r = rest;
    Some(u16::from_le_bytes(*head))
}

/// Reads a `u32` from the front of `r`, advancing it.
pub fn take_u32(r: &mut &[u8]) -> Option<u32> {
    let (head, rest) = r.split_first_chunk::<4>()?;
    *r = rest;
    Some(u32::from_le_bytes(*head))
}

/// Reads a `u64` from the front of `r`, advancing it.
pub fn take_u64(r: &mut &[u8]) -> Option<u64> {
    let (head, rest) = r.split_first_chunk::<8>()?;
    *r = rest;
    Some(u64::from_le_bytes(*head))
}

/// Reads an `f64` bit pattern from the front of `r`, advancing it.
pub fn take_f64(r: &mut &[u8]) -> Option<f64> {
    take_u64(r).map(f64::from_bits)
}

/// Reads a `u64` length prefix, refusing lengths the remaining input
/// cannot possibly hold (`elem_size` bytes per element).
pub fn take_len(r: &mut &[u8], elem_size: usize) -> Option<usize> {
    let n = usize::try_from(take_u64(r)?).ok()?;
    if r.len() < n.checked_mul(elem_size)? {
        return None;
    }
    Some(n)
}

/// Reads a frame body's leading `version: u8` and the op (or status) byte
/// after it, returning that byte; `None` if the version is not `version`.
pub fn take_op(r: &mut &[u8], version: u8) -> Option<u8> {
    let (head, rest) = r.split_first_chunk::<2>()?;
    *r = rest;
    let [v, op] = *head;
    (v == version).then_some(op)
}

/// Reads a `u32` element count, refusing counts the remaining input
/// cannot possibly hold (`elem_size` bytes per element) — the frame-body
/// analogue of [`take_len`], whose prefixes are `u64`.
pub fn take_count(r: &mut &[u8], elem_size: usize) -> Option<usize> {
    let n = usize::try_from(take_u32(r)?).ok()?;
    if r.len() < n.checked_mul(elem_size)? {
        return None;
    }
    Some(n)
}

/// Takes `len` raw bytes off the front of `r`.
fn take_bytes<'a>(r: &mut &'a [u8], len: usize) -> Option<&'a [u8]> {
    let (head, rest) = r.split_at_checked(len)?;
    *r = rest;
    Some(head)
}

/// Reads a [`put_str16`]-encoded string; `None` on truncation or bad UTF-8.
pub fn take_str16(r: &mut &[u8]) -> Option<String> {
    let len = usize::from(take_u16(r)?);
    Some(std::str::from_utf8(take_bytes(r, len)?).ok()?.to_string())
}

/// Reads a [`put_str32`]-encoded string; `None` on truncation or bad UTF-8.
pub fn take_str32(r: &mut &[u8]) -> Option<String> {
    let len = take_count(r, 1)?;
    Some(std::str::from_utf8(take_bytes(r, len)?).ok()?.to_string())
}

/// Reads [`put_bytes32`]-encoded bytes.
pub fn take_bytes32(r: &mut &[u8]) -> Option<Vec<u8>> {
    let len = take_count(r, 1)?;
    Some(take_bytes(r, len)?.to_vec())
}

/// Reads a [`put_error_body`]-encoded `(code, message)`.
pub fn take_error_body(r: &mut &[u8]) -> Option<(u16, String)> {
    Some((take_u16(r)?, take_str32(r)?))
}

/// Reads a length-prefixed `u32` slice.
pub fn take_u32_slice(r: &mut &[u8]) -> Option<Vec<u32>> {
    let n = take_len(r, 4)?;
    (0..n).map(|_| take_u32(r)).collect()
}

/// Reads a length-prefixed `u64` slice.
pub fn take_u64_slice(r: &mut &[u8]) -> Option<Vec<u64>> {
    let n = take_len(r, 8)?;
    (0..n).map(|_| take_u64(r)).collect()
}

/// Reads a length-prefixed `f64` slice.
pub fn take_f64_slice(r: &mut &[u8]) -> Option<Vec<f64>> {
    let n = take_len(r, 8)?;
    (0..n).map(|_| take_f64(r)).collect()
}

/// Reads a [`put_mat`]-encoded matrix.
pub fn take_mat(r: &mut &[u8]) -> Option<Mat> {
    let rows = take_u32(r)? as usize;
    let cols = take_u32(r)? as usize;
    let n = rows.checked_mul(cols)?;
    if r.len() < n.checked_mul(8)? {
        return None;
    }
    let data: Option<Vec<f64>> = (0..n).map(|_| take_f64(r)).collect();
    Mat::try_from_vec(rows, cols, data?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_u64(&mut out, u64::MAX - 3);
        put_f64(&mut out, -0.0);
        put_f64(&mut out, f64::NAN);
        put_u32_slice(&mut out, &[1, 2, 3]);
        put_f64_slice(&mut out, &[0.5, -1.25]);
        let r = &mut out.as_slice();
        assert_eq!(take_u32(r), Some(7));
        assert_eq!(take_u64(r), Some(u64::MAX - 3));
        assert_eq!(take_f64(r).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(take_f64(r).map(f64::to_bits), Some(f64::NAN.to_bits()));
        assert_eq!(take_u32_slice(r), Some(vec![1, 2, 3]));
        assert_eq!(take_f64_slice(r), Some(vec![0.5, -1.25]));
        assert!(r.is_empty());
    }

    #[test]
    fn frame_primitives_round_trip() {
        let mut out = Vec::new();
        put_str16(&mut out, "tenant").expect("fits");
        put_str32(&mut out, "é message").expect("fits");
        put_bytes32(&mut out, &[0, 0xFF]).expect("fits");
        put_error_body(&mut out, 7, "oops");
        put_u32(&mut out, 2);
        let r = &mut out.as_slice();
        assert_eq!(take_str16(r).as_deref(), Some("tenant"));
        assert_eq!(take_str32(r).as_deref(), Some("é message"));
        assert_eq!(take_bytes32(r), Some(vec![0, 0xFF]));
        assert_eq!(take_error_body(r), Some((7, "oops".to_string())));
        assert_eq!(take_count(r, 0), Some(2));
        assert!(r.is_empty());
        assert!(put_str16(&mut Vec::new(), &"x".repeat(70_000)).is_none());
    }

    #[test]
    fn frame_primitives_reject_truncation_and_bad_utf8() {
        let mut out = Vec::new();
        put_str32(&mut out, "abc").expect("fits");
        for cut in 0..out.len() {
            assert!(take_str32(&mut &out[..cut]).is_none(), "cut at {cut}");
            assert!(take_bytes32(&mut &out[..cut]).is_none(), "cut at {cut}");
        }
        let bad_utf8 = [1u8, 0, 0xFF];
        assert!(take_str16(&mut &bad_utf8[..]).is_none());
        // A count the remaining input cannot hold fails before allocating.
        let evil = u32::MAX.to_le_bytes();
        assert!(take_count(&mut &evil[..], 1).is_none());
    }

    #[test]
    fn error_bodies_cut_long_messages_on_char_boundaries() {
        let long = "é".repeat(60_000); // 2 bytes per char, past u16::MAX
        let mut out = Vec::new();
        put_error_body(&mut out, 1, &long);
        let (code, message) = take_error_body(&mut out.as_slice()).expect("decodes");
        assert_eq!(code, 1);
        assert_eq!(message.len(), usize::from(u16::MAX) - 1);
        assert!(long.starts_with(&message));
    }

    fn fnv64(bytes: &[u8]) -> u64 {
        Fnv64::new().write(bytes).finish()
    }

    #[test]
    fn fnv64_is_order_sensitive_and_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
        assert_eq!(fnv64(b"fleet"), fnv64(b"fleet"));
        // The published FNV-1a-64 test vector for "a".
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv64::new().write(b"fl").write(b"eet").finish(),
            fnv64(b"fleet")
        );
        assert_eq!(
            Fnv64::new().write_u64(7).finish(),
            fnv64(&7u64.to_le_bytes())
        );
    }

    #[test]
    fn envelope_round_trips_and_names_each_mismatch() {
        let bytes = seal(*b"TEST", 3, 0xfeed, 5, |out| {
            out.extend_from_slice(b"body!")
        });
        assert_eq!(bytes.len(), ENVELOPE_BYTES + 5);
        assert_eq!(&bytes[..4], b"TEST");
        assert_eq!(stored_checksum(&bytes), Some(fnv64(b"body!")));
        assert_eq!(unseal(&bytes, *b"TEST", 3), Ok((0xfeed, &b"body!"[..])));

        let short = &bytes[..ENVELOPE_BYTES - 1];
        assert_eq!(unseal(short, *b"TEST", 3), Err(EnvelopeError::Short));
        assert_eq!(stored_checksum(short), None);
        assert_eq!(unseal(&bytes, *b"ESPC", 3), Err(EnvelopeError::Magic));
        assert_eq!(unseal(&bytes, *b"TEST", 4), Err(EnvelopeError::Version));
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(unseal(&longer, *b"TEST", 3), Err(EnvelopeError::Length));
        let mut flipped = bytes.clone();
        flipped[ENVELOPE_BYTES] ^= 1;
        assert_eq!(unseal(&flipped, *b"TEST", 3), Err(EnvelopeError::Checksum));
        // An empty body seals and unseals too.
        let empty = seal(*b"TEST", 1, 0, 0, |_| {});
        assert_eq!(unseal(&empty, *b"TEST", 1), Ok((0, &b""[..])));
    }

    #[test]
    fn mat_round_trips_bitwise() {
        let m = Mat::from_rows(&[&[1.5, -2.0, 0.25], &[0.0, -0.0, 3.0]]);
        let mut out = Vec::new();
        put_mat(&mut out, &m);
        let r = &mut out.as_slice();
        let back = take_mat(r).expect("decodes");
        assert!(r.is_empty());
        assert_eq!(back.shape(), m.shape());
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn truncation_is_a_none_not_a_panic() {
        let mut out = Vec::new();
        put_mat(&mut out, &Mat::from_rows(&[&[1.0, 2.0]]));
        for cut in 0..out.len() {
            let r = &mut &out[..cut];
            assert!(take_mat(r).is_none(), "cut at {cut} must not decode");
        }
        // A huge claimed length with a short body must be rejected before
        // any allocation.
        let mut evil = Vec::new();
        put_u64(&mut evil, u64::MAX / 2);
        assert!(take_u64_slice(&mut evil.as_slice()).is_none());
        assert!(take_f64_slice(&mut evil.as_slice()).is_none());
    }
}
