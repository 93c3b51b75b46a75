//! The fleet wire protocol: worker ⇄ coordinator framing.
//!
//! This module is only the protocol's op table (its [`Protocol`] impl).
//! The transport is [`embedstab_serve::wire`]'s — framing, [`call`], and
//! the accept and connection loops — and the byte primitives, error body
//! included, are [`embedstab_corpus::codec`]'s. The conventions are
//! serve's too: little-endian everywhere, a version byte leading every
//! body, lengths checked against the remaining input before any
//! allocation, and a typed [`ErrorCode`] taxonomy instead of panics.
//! Every byte here is peer-controlled: any truncation, bad version,
//! unknown op, or trailing garbage decodes to `None`, never a panic.
//!
//! # Frame layout
//!
//! ```text
//! frame    := len: u32 (LE, body length <= serve's MAX_FRAME_BYTES) body
//! request  := version: u8 (= FLEET_WIRE_VERSION), op: u8, payload
//!   Hello     (1) := worker: str16
//!   Lease     (2) := (empty)
//!   Heartbeat (3) := slice: u32
//!   CacheKeys (4) := (empty)
//!   CacheGet  (5) := key: str16, chunk: u32
//!   PushRows  (6) := slice: u32, name: str16, bytes: bytes32
//!   Complete  (7) := slice: u32
//!   Failed    (8) := slice: u32, message: str32
//! response := version: u8 (= FLEET_WIRE_VERSION), tag: u8, payload
//!   Welcome (1) := bin: str16, scale: str16, shards: u32,
//!                  world_key: str16, n_extra: u32, n_extra x str16
//!   Ack     (2) := (empty)
//!   Job     (3) := slice: u32, shards: u32
//!   Wait    (4) := millis: u64
//!   Drained (5) := (empty)
//!   Keys    (6) := n: u32, n x str16
//!   Chunk   (7) := total_len: u64, chunks: u32, content_hash: u64,
//!                  bytes: bytes32
//!   Lost    (8) := (empty)
//!   Error   (9) := code: u16, message: str32
//! str16    := len: u16, utf8 bytes     str32 := len: u32, utf8 bytes
//! bytes32  := len: u32, raw bytes
//! ```
//!
//! Cache files can dwarf the 16 MiB frame ceiling, so transfers are
//! chunked: a `CacheGet { key, chunk }` answers with one
//! [`CHUNK_BYTES`]-sized piece plus the total length, chunk count, and the
//! checksum the file's envelope header records — the receiver
//! reassembles, checks the hash against that header, then unseals the
//! file against the key ([`embedstab_pipeline::store::verify`]).

use std::io;

use embedstab_corpus::codec::{
    put_bytes32, put_error_body, put_str16, put_str32, put_u32, put_u64, take_bytes32, take_count,
    take_error_body, take_op, take_str16, take_str32, take_u32, take_u64,
};
use embedstab_serve::wire::Protocol;

pub use embedstab_serve::wire::{call, read_frame, write_frame, MAX_FRAME_BYTES};

/// Protocol version byte leading every request and response body.
pub const FLEET_WIRE_VERSION: u8 = 1;

/// Bytes per cache-transfer chunk — comfortably under the frame ceiling
/// so a chunk plus its envelope always frames.
pub const CHUNK_BYTES: usize = 4 << 20;

const OP_HELLO: u8 = 1;
const OP_LEASE: u8 = 2;
const OP_HEARTBEAT: u8 = 3;
const OP_CACHE_KEYS: u8 = 4;
const OP_CACHE_GET: u8 = 5;
const OP_PUSH_ROWS: u8 = 6;
const OP_COMPLETE: u8 = 7;
const OP_FAILED: u8 = 8;

const TAG_WELCOME: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_JOB: u8 = 3;
const TAG_WAIT: u8 = 4;
const TAG_DRAINED: u8 = 5;
const TAG_KEYS: u8 = 6;
const TAG_CHUNK: u8 = 7;
const TAG_LOST: u8 = 8;
const TAG_ERROR: u8 = 9;

/// Everything a freshly connected worker needs to run slices: which shard
/// binary (a bare name the worker resolves next to its own executable),
/// the scale tag, the shard count, the world-cache key to pull, and extra
/// arguments forwarded to every shard run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetSpec {
    /// Shard binary name (resolved worker-side; never a path).
    pub bin: String,
    /// Scale tag (`tiny`/`small`/`paper`) passed as `--scale`.
    pub scale: String,
    /// Total shard count `n`; slices are `0..n`.
    pub shards: u32,
    /// The world-cache key every worker must hold before running.
    pub world_key: String,
    /// Extra arguments forwarded to the shard binary verbatim.
    pub extra: Vec<String>,
}

/// One worker request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Introduce this connection; the response is `Welcome`. Re-sending
    /// `Hello` with the same name after a reconnect releases any leases
    /// the name's previous connection still held.
    Hello {
        /// The worker's fleet-unique name.
        worker: String,
    },
    /// Ask for a slice to run.
    Lease,
    /// Prove this connection's lease on `slice` is still alive.
    Heartbeat {
        /// The leased slice.
        slice: u32,
    },
    /// List every cache key the coordinator can serve.
    CacheKeys,
    /// Fetch one chunk of a cache file by key.
    CacheGet {
        /// A cache file name (see [`embedstab_pipeline::store::parse_key`]).
        key: String,
        /// Zero-based chunk index.
        chunk: u32,
    },
    /// Stage one produced row file for the leased slice (committed only
    /// when `Complete` lands while the lease is still held).
    PushRows {
        /// The leased slice.
        slice: u32,
        /// The row file's bare name (`<stem>.shard<i>of<n>.jsonl`).
        name: String,
        /// The file's bytes.
        bytes: Vec<u8>,
    },
    /// Declare the leased slice done; the coordinator commits its staged
    /// row files.
    Complete {
        /// The leased slice.
        slice: u32,
    },
    /// Report that the slice's shard subprocess failed; the coordinator
    /// re-queues it (with backoff) for another dispatch.
    Failed {
        /// The leased slice.
        slice: u32,
        /// Why it failed (for the coordinator's log).
        message: String,
    },
}

/// One coordinator response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to `Hello`.
    Welcome(FleetSpec),
    /// Generic success (heartbeat accepted, rows staged, failure noted).
    Ack,
    /// A slice assignment.
    Job {
        /// The slice to run (`--shard slice/shards`).
        slice: u32,
        /// The fleet's shard count.
        shards: u32,
    },
    /// No work right now; ask again after this many milliseconds.
    Wait {
        /// Suggested retry delay.
        millis: u64,
    },
    /// Every slice is committed; the worker can exit cleanly.
    Drained,
    /// Answer to `CacheKeys`.
    Keys {
        /// Every servable cache key, sorted.
        keys: Vec<String>,
    },
    /// One chunk of a cache file.
    Chunk {
        /// The whole file's length in bytes.
        total_len: u64,
        /// How many chunks the file spans.
        chunks: u32,
        /// FNV-1a over the whole file (receipt-time transfer check).
        content_hash: u64,
        /// This chunk's bytes.
        bytes: Vec<u8>,
    },
    /// The lease this op referred to is no longer held by this worker
    /// (expired and re-dispatched); drop the work and lease again.
    Lost,
    /// A typed failure; the connection stays usable unless the framing
    /// itself is broken.
    Error {
        /// The error taxonomy entry.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// An `Error` response.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }
}

/// The fleet error taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request body did not decode.
    Malformed = 1,
    /// An op other than `Hello` arrived before `Hello`.
    MustHello = 2,
    /// The requested cache key is well-formed but not present.
    UnknownKey = 3,
    /// The requested cache key is not a well-formed cache file name.
    BadKey = 4,
    /// A chunk index at or past the file's chunk count.
    ChunkOutOfRange = 5,
    /// An op referenced a slice outside `0..shards`.
    UnknownSlice = 6,
    /// A pushed row file was rejected (bad name, too large, or its shard
    /// suffix disagrees with the leased slice).
    BadRowFile = 7,
    /// A slice ran out of re-dispatch attempts; the fleet has failed and
    /// workers should exit.
    FleetFailed = 8,
    /// The coordinator failed internally.
    Internal = 9,
}

impl ErrorCode {
    /// The on-wire discriminant — a match, not an `as` cast, so a new
    /// variant without a code is a compile error here.
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::MustHello => 2,
            ErrorCode::UnknownKey => 3,
            ErrorCode::BadKey => 4,
            ErrorCode::ChunkOutOfRange => 5,
            ErrorCode::UnknownSlice => 6,
            ErrorCode::BadRowFile => 7,
            ErrorCode::FleetFailed => 8,
            ErrorCode::Internal => 9,
        }
    }

    fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::MustHello,
            3 => ErrorCode::UnknownKey,
            4 => ErrorCode::BadKey,
            5 => ErrorCode::ChunkOutOfRange,
            6 => ErrorCode::UnknownSlice,
            7 => ErrorCode::BadRowFile,
            8 => ErrorCode::FleetFailed,
            9 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Encodes a request body (frame it with [`write_frame`]). `None` if a
/// length field overflows its wire width.
pub fn encode_request(req: &Request) -> Option<Vec<u8>> {
    let mut out = vec![FLEET_WIRE_VERSION];
    match req {
        Request::Hello { worker } => {
            out.push(OP_HELLO);
            put_str16(&mut out, worker)?;
        }
        Request::Lease => out.push(OP_LEASE),
        Request::Heartbeat { slice } => {
            out.push(OP_HEARTBEAT);
            put_u32(&mut out, *slice);
        }
        Request::CacheKeys => out.push(OP_CACHE_KEYS),
        Request::CacheGet { key, chunk } => {
            out.push(OP_CACHE_GET);
            put_str16(&mut out, key)?;
            put_u32(&mut out, *chunk);
        }
        Request::PushRows { slice, name, bytes } => {
            out.push(OP_PUSH_ROWS);
            put_u32(&mut out, *slice);
            put_str16(&mut out, name)?;
            put_bytes32(&mut out, bytes)?;
        }
        Request::Complete { slice } => {
            out.push(OP_COMPLETE);
            put_u32(&mut out, *slice);
        }
        Request::Failed { slice, message } => {
            out.push(OP_FAILED);
            put_u32(&mut out, *slice);
            put_str32(&mut out, message)?;
        }
    }
    Some(out)
}

/// Decodes a request body; `None` on any truncation, version/op mismatch,
/// bad UTF-8, or trailing bytes.
pub fn decode_request(mut body: &[u8]) -> Option<Request> {
    let r = &mut body;
    let op = take_op(r, FLEET_WIRE_VERSION)?;
    let req = match op {
        OP_HELLO => Request::Hello {
            worker: take_str16(r)?,
        },
        OP_LEASE => Request::Lease,
        OP_HEARTBEAT => Request::Heartbeat {
            slice: take_u32(r)?,
        },
        OP_CACHE_KEYS => Request::CacheKeys,
        OP_CACHE_GET => Request::CacheGet {
            key: take_str16(r)?,
            chunk: take_u32(r)?,
        },
        OP_PUSH_ROWS => Request::PushRows {
            slice: take_u32(r)?,
            name: take_str16(r)?,
            bytes: take_bytes32(r)?,
        },
        OP_COMPLETE => Request::Complete {
            slice: take_u32(r)?,
        },
        OP_FAILED => Request::Failed {
            slice: take_u32(r)?,
            message: take_str32(r)?,
        },
        _ => return None,
    };
    r.is_empty().then_some(req)
}

/// Encodes a response body (frame it with [`write_frame`]). `None` if a
/// length field overflows its wire width.
pub fn encode_response(resp: &Response) -> Option<Vec<u8>> {
    let mut out = vec![FLEET_WIRE_VERSION];
    match resp {
        Response::Welcome(spec) => {
            out.push(TAG_WELCOME);
            put_str16(&mut out, &spec.bin)?;
            put_str16(&mut out, &spec.scale)?;
            put_u32(&mut out, spec.shards);
            put_str16(&mut out, &spec.world_key)?;
            let n = u32::try_from(spec.extra.len()).ok()?;
            put_u32(&mut out, n);
            for arg in &spec.extra {
                put_str16(&mut out, arg)?;
            }
        }
        Response::Ack => out.push(TAG_ACK),
        Response::Job { slice, shards } => {
            out.push(TAG_JOB);
            put_u32(&mut out, *slice);
            put_u32(&mut out, *shards);
        }
        Response::Wait { millis } => {
            out.push(TAG_WAIT);
            put_u64(&mut out, *millis);
        }
        Response::Drained => out.push(TAG_DRAINED),
        Response::Keys { keys } => {
            out.push(TAG_KEYS);
            let n = u32::try_from(keys.len()).ok()?;
            put_u32(&mut out, n);
            for key in keys {
                put_str16(&mut out, key)?;
            }
        }
        Response::Chunk {
            total_len,
            chunks,
            content_hash,
            bytes,
        } => {
            out.push(TAG_CHUNK);
            put_u64(&mut out, *total_len);
            put_u32(&mut out, *chunks);
            put_u64(&mut out, *content_hash);
            put_bytes32(&mut out, bytes)?;
        }
        Response::Lost => out.push(TAG_LOST),
        Response::Error { code, message } => {
            out.push(TAG_ERROR);
            put_error_body(&mut out, code.to_u16(), message);
        }
    }
    Some(out)
}

/// Decodes a response body; `None` on any truncation or inconsistency.
pub fn decode_response(mut body: &[u8]) -> Option<Response> {
    let r = &mut body;
    let tag = take_op(r, FLEET_WIRE_VERSION)?;
    let resp = match tag {
        TAG_WELCOME => {
            let bin = take_str16(r)?;
            let scale = take_str16(r)?;
            let shards = take_u32(r)?;
            let world_key = take_str16(r)?;
            // Each entry needs at least its 2-byte length prefix.
            let n = take_count(r, 2)?;
            let extra: Vec<String> = (0..n).map(|_| take_str16(r)).collect::<Option<_>>()?;
            Response::Welcome(FleetSpec {
                bin,
                scale,
                shards,
                world_key,
                extra,
            })
        }
        TAG_ACK => Response::Ack,
        TAG_JOB => Response::Job {
            slice: take_u32(r)?,
            shards: take_u32(r)?,
        },
        TAG_WAIT => Response::Wait {
            millis: take_u64(r)?,
        },
        TAG_DRAINED => Response::Drained,
        TAG_KEYS => {
            let n = take_count(r, 2)?;
            let keys: Vec<String> = (0..n).map(|_| take_str16(r)).collect::<Option<_>>()?;
            Response::Keys { keys }
        }
        TAG_CHUNK => Response::Chunk {
            total_len: take_u64(r)?,
            chunks: take_u32(r)?,
            content_hash: take_u64(r)?,
            bytes: take_bytes32(r)?,
        },
        TAG_LOST => Response::Lost,
        TAG_ERROR => {
            let (code, message) = take_error_body(r)?;
            Response::error(ErrorCode::from_u16(code)?, message)
        }
        _ => return None,
    };
    r.is_empty().then_some(resp)
}

fn overflow() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        "message does not fit its wire length fields",
    )
}

impl Protocol for Request {
    type Response = Response;

    fn encode_request(&self) -> io::Result<Vec<u8>> {
        encode_request(self).ok_or_else(overflow)
    }

    fn decode_request(body: &[u8]) -> Option<Request> {
        decode_request(body)
    }

    fn encode_response(resp: &Response) -> io::Result<Vec<u8>> {
        encode_response(resp).ok_or_else(overflow)
    }

    fn decode_response(body: &[u8]) -> Option<Response> {
        decode_response(body)
    }

    fn malformed(message: String) -> Response {
        Response::error(ErrorCode::Malformed, message)
    }

    fn internal(message: String) -> Response {
        Response::error(ErrorCode::Internal, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec {
            bin: "fig2_memory_tradeoff".into(),
            scale: "tiny".into(),
            shards: 2,
            world_key: "world_v1_00000000deadbeef.bin".into(),
            extra: vec!["--fresh".into(), "--knobs=3".into()],
        }
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                worker: "worker-a".into(),
            },
            Request::Lease,
            Request::Heartbeat { slice: 7 },
            Request::CacheKeys,
            Request::CacheGet {
                key: "world_v1_00000000deadbeef.bin".into(),
                chunk: 3,
            },
            Request::PushRows {
                slice: 1,
                name: "rows_sst2_tiny.shard1of2.jsonl".into(),
                bytes: vec![1, 2, 3, 0xff],
            },
            Request::Complete { slice: 0 },
            Request::Failed {
                slice: 1,
                message: "shard exited with status 101".into(),
            },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Welcome(spec()),
            Response::Ack,
            Response::Job {
                slice: 1,
                shards: 2,
            },
            Response::Wait { millis: 250 },
            Response::Drained,
            Response::Keys {
                keys: vec!["a.bin".into(), "b.bin".into()],
            },
            Response::Chunk {
                total_len: 9_000_000,
                chunks: 3,
                content_hash: 0xfeed_f00d,
                bytes: vec![9; 64],
            },
            Response::Lost,
            Response::Error {
                code: ErrorCode::UnknownKey,
                message: "no such key".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let body = encode_request(&req).expect("encode");
            assert_eq!(decode_request(&body), Some(req.clone()), "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in all_responses() {
            let body = encode_response(&resp).expect("encode");
            assert_eq!(decode_response(&body), Some(resp.clone()), "{resp:?}");
        }
    }

    #[test]
    fn truncations_decode_to_none() {
        for req in all_requests() {
            let body = encode_request(&req).expect("encode");
            for cut in 0..body.len() {
                assert!(
                    decode_request(&body[..cut]).is_none(),
                    "{req:?} cut at {cut} must not decode"
                );
            }
        }
        for resp in all_responses() {
            let body = encode_response(&resp).expect("encode");
            for cut in 0..body.len() {
                assert!(
                    decode_response(&body[..cut]).is_none(),
                    "{resp:?} cut at {cut} must not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_bad_versions_and_bad_tags_are_rejected() {
        let mut body = encode_request(&Request::Lease).expect("encode");
        body.push(0);
        assert!(decode_request(&body).is_none(), "trailing byte");
        let mut body = encode_request(&Request::Lease).expect("encode");
        body[0] = FLEET_WIRE_VERSION + 1;
        assert!(decode_request(&body).is_none(), "future version");
        let mut body = encode_request(&Request::Lease).expect("encode");
        body[1] = 200;
        assert!(decode_request(&body).is_none(), "unknown op");
        let mut body = encode_response(&Response::Ack).expect("encode");
        body[1] = 250;
        assert!(decode_response(&body).is_none(), "unknown tag");
        let mut body = encode_response(&Response::Error {
            code: ErrorCode::Malformed,
            message: String::new(),
        })
        .expect("encode");
        body[2] = 0xFF;
        assert!(decode_response(&body).is_none(), "unknown error code");
    }

    /// Pins the exact bytes of one request and one response per op (the
    /// `Error` response is the error frame), so a refactor of the codec
    /// cannot change the wire format unnoticed.
    #[test]
    fn golden_frames_pin_the_wire_bytes() {
        let requests: [(Request, &[u8]); 8] = [
            (Request::Hello { worker: "w".into() }, &[1, 1, 1, 0, b'w']),
            (Request::Lease, &[1, 2]),
            (Request::Heartbeat { slice: 7 }, &[1, 3, 7, 0, 0, 0]),
            (Request::CacheKeys, &[1, 4]),
            (
                Request::CacheGet {
                    key: "k".into(),
                    chunk: 3,
                },
                &[1, 5, 1, 0, b'k', 3, 0, 0, 0],
            ),
            (
                Request::PushRows {
                    slice: 1,
                    name: "n".into(),
                    bytes: vec![0xAB],
                },
                &[1, 6, 1, 0, 0, 0, 1, 0, b'n', 1, 0, 0, 0, 0xAB],
            ),
            (Request::Complete { slice: 2 }, &[1, 7, 2, 0, 0, 0]),
            (
                Request::Failed {
                    slice: 1,
                    message: "x".into(),
                },
                &[1, 8, 1, 0, 0, 0, 1, 0, 0, 0, b'x'],
            ),
        ];
        for (req, golden) in &requests {
            assert_eq!(encode_request(req).expect("encode"), *golden, "{req:?}");
            assert_eq!(decode_request(golden).as_ref(), Some(req));
        }
        let responses: [(Response, &[u8]); 9] = [
            (
                Response::Welcome(FleetSpec {
                    bin: "b".into(),
                    scale: "s".into(),
                    shards: 2,
                    world_key: "k".into(),
                    extra: vec!["e".into()],
                }),
                &[
                    1, 1, 1, 0, b'b', 1, 0, b's', 2, 0, 0, 0, 1, 0, b'k', 1, 0, 0, 0, 1, 0, b'e',
                ],
            ),
            (Response::Ack, &[1, 2]),
            (
                Response::Job {
                    slice: 1,
                    shards: 2,
                },
                &[1, 3, 1, 0, 0, 0, 2, 0, 0, 0],
            ),
            (
                Response::Wait { millis: 250 },
                &[1, 4, 250, 0, 0, 0, 0, 0, 0, 0],
            ),
            (Response::Drained, &[1, 5]),
            (
                Response::Keys {
                    keys: vec!["a".into()],
                },
                &[1, 6, 1, 0, 0, 0, 1, 0, b'a'],
            ),
            (
                Response::Chunk {
                    total_len: 9,
                    chunks: 1,
                    content_hash: 0x0102,
                    bytes: vec![7],
                },
                &[
                    1, 7, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 7,
                ],
            ),
            (Response::Lost, &[1, 8]),
            (
                Response::Error {
                    code: ErrorCode::UnknownKey,
                    message: "no".into(),
                },
                &[1, 9, 3, 0, 2, 0, 0, 0, b'n', b'o'],
            ),
        ];
        for (resp, golden) in &responses {
            assert_eq!(encode_response(resp).expect("encode"), *golden, "{resp:?}");
            assert_eq!(decode_response(golden).as_ref(), Some(resp));
        }
    }

    #[test]
    fn keys_count_is_checked_against_remaining_bytes() {
        // A claimed huge key count with no payload must not allocate or
        // loop; it fails the length pre-check.
        let mut body = vec![FLEET_WIRE_VERSION, TAG_KEYS];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&body).is_none());
    }

    #[test]
    fn error_messages_truncate_on_char_boundaries() {
        let long = "é".repeat(60_000); // 2 bytes per char, past u16::MAX
        let body = encode_response(&Response::Error {
            code: ErrorCode::Internal,
            message: long,
        })
        .expect("encode");
        let Some(Response::Error { message, .. }) = decode_response(&body) else {
            panic!("must decode");
        };
        assert!(message.len() <= u16::MAX as usize);
        assert!(!message.is_empty());
    }
}
