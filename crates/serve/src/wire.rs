//! The serving wire protocol, and the one TCP transport both of the
//! workspace's protocols run on.
//!
//! **The protocol.** A vendored-only, length-prefixed binary framing for
//! snapshot queries. Everything is little-endian and length-checked,
//! built on the same [`embedstab_corpus::codec`] primitives as the cache
//! file families — a truncated or inconsistent frame decodes to `None`,
//! never a panic or an unbounded allocation, because every byte here is
//! client-controlled.
//!
//! **The transport**, shared with the fleet's worker ⇄ coordinator
//! protocol. A protocol's request type implements [`Protocol`] (its codec
//! and error replies) and its server implements [`Handler`] (`dispatch`
//! one request); both are generic parameters, not `dyn`. [`call`] is the
//! client's exchange. [`listen`] runs the accept loop and one thread per
//! connection until its [`Stop`] is stopped; an oversize length prefix
//! gets a `Malformed` reply and a close, and an unencodable response
//! becomes `Internal`.
//!
//! # Frame layout
//!
//! ```text
//! frame    := len: u32 (LE, body length, <= MAX_FRAME_BYTES) body
//! request  := version: u8 (= WIRE_VERSION)
//!             op: u8 (1 = LookupBatch, 2 = NearestBatch, 3 = Info)
//!             tenant_len: u16, tenant: utf8 bytes
//!             payload
//!   LookupBatch payload  := n: u32, n x id: u32
//!   NearestBatch payload := k: u32, queries: mat
//!   Info payload         := (empty)
//! response := version: u8 (= WIRE_VERSION)
//!             status: u8 (0 = ok, 1 = error)
//!   ok payload (LookupBatch)  := tag 1, rows: mat
//!   ok payload (NearestBatch) := tag 2, n: u32,
//!                                n x [cnt: u32, cnt x (id: u32, sim: f64)]
//!   ok payload (Info)         := tag 3, version: u64, vocab: u32,
//!                                dim: u32, precision_bits: u8
//!   error payload             := code: u16, msg_len: u32, msg: utf8
//! mat      := rows: u32, cols: u32, rows*cols x f64 (raw LE bits)
//! ```
//!
//! `f64`s travel as raw bit patterns (like the pair cache), so looked-up
//! vectors arrive bitwise identical to [`Snapshot::try_lookup_batch`] on
//! the server — the serving layer's bitwise-reproducibility guarantee
//! extends across the wire.
//!
//! [`Snapshot::try_lookup_batch`]: crate::Snapshot::try_lookup_batch

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use embedstab_corpus::codec::{
    put_error_body, put_f64, put_mat, put_str16, put_u32, put_u64, take_count, take_error_body,
    take_f64, take_mat, take_op, take_str16, take_u32, take_u64,
};
use embedstab_linalg::Mat;

use crate::error::QueryError;

/// Protocol version byte leading every request and response body; a peer
/// speaking a different version is rejected as malformed rather than
/// misread.
pub const WIRE_VERSION: u8 = 1;

/// Hard ceiling on one frame's body size (16 MiB). A length prefix past
/// this is rejected before any allocation — the framing equivalent of
/// [`take_len`](embedstab_corpus::codec::take_len)'s refusal to trust a corrupt length.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

const OP_LOOKUP_BATCH: u8 = 1;
const OP_NEAREST_BATCH: u8 = 2;
const OP_INFO: u8 = 3;

const STATUS_OK: u8 = 0;
const STATUS_ERROR: u8 = 1;

/// One client request: which tenant, which batched query path.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Fetch the vectors for a batch of word ids (one
    /// [`Snapshot::try_lookup_batch`](crate::Snapshot::try_lookup_batch)
    /// on the server, possibly coalesced with other clients' ids).
    LookupBatch {
        /// The tenant whose live snapshot answers.
        tenant: String,
        /// The word ids to fetch.
        ids: Vec<u32>,
    },
    /// Fetch the `k` nearest words for each query vector (one
    /// [`Snapshot::try_nearest_batch`](crate::Snapshot::try_nearest_batch)
    /// on the server, possibly coalesced).
    NearestBatch {
        /// The tenant whose live snapshot answers.
        tenant: String,
        /// Neighbors requested per query.
        k: u32,
        /// Query vectors, one per row.
        queries: Mat,
    },
    /// Fetch the live snapshot's shape and version (what a load generator
    /// needs to construct valid queries).
    Info {
        /// The tenant to describe.
        tenant: String,
    },
}

impl Request {
    /// The tenant the request addresses.
    pub fn tenant(&self) -> &str {
        match self {
            Request::LookupBatch { tenant, .. }
            | Request::NearestBatch { tenant, .. }
            | Request::Info { tenant } => tenant,
        }
    }
}

/// The live snapshot's shape, as reported by [`Request::Info`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The live snapshot's store-assigned version number.
    pub version: u64,
    /// Vocabulary size (valid word ids are `0..vocab_size`).
    pub vocab_size: u32,
    /// Embedding dimension (query vectors must have this many columns).
    pub dim: u32,
    /// The precision the snapshot is quantized to, in bits.
    pub precision_bits: u8,
}

/// One server response: the query's answer, or a typed error.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::LookupBatch`]: one row per requested id,
    /// bitwise identical to a server-side `lookup`.
    Rows(Mat),
    /// Answer to [`Request::NearestBatch`]: per query, the `k` nearest
    /// `(word id, cosine similarity)` pairs, descending.
    Neighbors(Vec<Vec<(u32, f64)>>),
    /// Answer to [`Request::Info`].
    Info(SnapshotInfo),
    /// The request could not be answered; the connection stays usable.
    Error {
        /// The error taxonomy entry.
        code: ErrorCode,
        /// Human-readable detail (mirrors the server-side error Display).
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

    /// True for the `Error` variant.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

/// The wire error taxonomy: protocol-level failures plus the
/// [`QueryError`] variants, one code each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame body did not decode as a request (bad version, bad op,
    /// truncated payload, non-UTF-8 tenant, trailing bytes).
    Malformed = 1,
    /// The named tenant is not served by this process.
    UnknownTenant = 2,
    /// The tenant's admission bound was hit; retry later.
    Overloaded = 3,
    /// A word id at or past the snapshot's vocabulary size.
    IdOutOfRange = 4,
    /// Query vectors whose dimension differs from the snapshot's.
    DimMismatch = 5,
    /// A batch with no ids / no query rows.
    EmptyBatch = 6,
    /// A nearest-neighbor request with `k = 0`.
    ZeroK = 7,
    /// The server failed internally; the query was not answered.
    Internal = 8,
    /// The server is shutting down and no longer accepts queries.
    ShuttingDown = 9,
}

impl ErrorCode {
    /// The on-wire discriminant. A match, not an `as` cast, so the
    /// codec-encoder lint's no-unchecked-narrowing rule holds trivially
    /// (and a new variant without a code is a compile error here).
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownTenant => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::IdOutOfRange => 4,
            ErrorCode::DimMismatch => 5,
            ErrorCode::EmptyBatch => 6,
            ErrorCode::ZeroK => 7,
            ErrorCode::Internal => 8,
            ErrorCode::ShuttingDown => 9,
        }
    }

    fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownTenant,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::IdOutOfRange,
            5 => ErrorCode::DimMismatch,
            6 => ErrorCode::EmptyBatch,
            7 => ErrorCode::ZeroK,
            8 => ErrorCode::Internal,
            9 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

impl From<&QueryError> for ErrorCode {
    fn from(e: &QueryError) -> ErrorCode {
        match e {
            QueryError::IdOutOfRange { .. } => ErrorCode::IdOutOfRange,
            QueryError::DimMismatch { .. } => ErrorCode::DimMismatch,
            QueryError::EmptyBatch => ErrorCode::EmptyBatch,
            QueryError::ZeroK => ErrorCode::ZeroK,
        }
    }
}

impl From<QueryError> for Response {
    fn from(e: QueryError) -> Response {
        Response::error(ErrorCode::from(&e), e.to_string())
    }
}

fn oversize(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame body of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"),
    )
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] if `body` exceeds
/// [`MAX_FRAME_BYTES`], or any transport error from `w`.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(oversize(body.len()));
    }
    let len = u32::try_from(body.len()).map_err(|_| oversize(body.len()))?;
    // One contiguous write: a separate 4-byte prefix write would become
    // its own TCP segment, and Nagle + delayed-ACK turns that into tens
    // of milliseconds of added round-trip per frame.
    let mut framed = Vec::with_capacity(4 + body.len());
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(body);
    w.write_all(&framed)?;
    w.flush()
}

/// Reads one length-prefixed frame body. `Ok(None)` is a clean EOF (the
/// peer closed between frames); a length prefix past [`MAX_FRAME_BYTES`]
/// is [`io::ErrorKind::InvalidData`] *before* any allocation, because the
/// stream can no longer be resynchronized after an untrusted length.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(oversize(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

fn overflow(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, detail)
}

/// A count as its `u32` wire field.
fn count_u32(n: usize, what: &str) -> io::Result<u32> {
    u32::try_from(n).map_err(|_| overflow(format!("{n} {what} exceed the u32 count field")))
}

/// Encodes a request body (frame it with [`write_frame`]).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] if a length field overflows
/// its wire width (tenant names past `u16`, id batches past `u32`).
pub fn encode_request(req: &Request) -> io::Result<Vec<u8>> {
    let mut out = vec![WIRE_VERSION];
    let (op, tenant) = match req {
        Request::LookupBatch { tenant, .. } => (OP_LOOKUP_BATCH, tenant),
        Request::NearestBatch { tenant, .. } => (OP_NEAREST_BATCH, tenant),
        Request::Info { tenant } => (OP_INFO, tenant),
    };
    out.push(op);
    put_str16(&mut out, tenant).ok_or_else(|| {
        overflow(format!(
            "tenant name of {} bytes exceeds the u16 length field",
            tenant.len()
        ))
    })?;
    match req {
        Request::LookupBatch { ids, .. } => {
            put_u32(&mut out, count_u32(ids.len(), "ids")?);
            for &id in ids {
                put_u32(&mut out, id);
            }
        }
        Request::NearestBatch { k, queries, .. } => {
            put_u32(&mut out, *k);
            put_mat(&mut out, queries);
        }
        Request::Info { .. } => {}
    }
    Ok(out)
}

/// Decodes a request body. Any truncation, version/op mismatch, bad
/// UTF-8, or trailing bytes is `None` — the server answers
/// [`ErrorCode::Malformed`], never panics.
pub fn decode_request(mut body: &[u8]) -> Option<Request> {
    let r = &mut body;
    let op = take_op(r, WIRE_VERSION)?;
    let tenant = take_str16(r)?;
    let req = match op {
        OP_LOOKUP_BATCH => {
            let n = take_count(r, 4)?;
            let ids: Vec<u32> = (0..n).map(|_| take_u32(r)).collect::<Option<_>>()?;
            Request::LookupBatch { tenant, ids }
        }
        OP_NEAREST_BATCH => {
            let k = take_u32(r)?;
            let queries = take_mat(r)?;
            Request::NearestBatch { tenant, k, queries }
        }
        OP_INFO => Request::Info { tenant },
        _ => return None,
    };
    r.is_empty().then_some(req)
}

/// Encodes a response body (frame it with [`write_frame`]).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] if a count overflows its `u32`
/// wire field.
pub fn encode_response(resp: &Response) -> io::Result<Vec<u8>> {
    let mut out = vec![WIRE_VERSION];
    match resp {
        Response::Rows(rows) => {
            out.extend_from_slice(&[STATUS_OK, OP_LOOKUP_BATCH]);
            put_mat(&mut out, rows);
        }
        Response::Neighbors(per_query) => {
            out.extend_from_slice(&[STATUS_OK, OP_NEAREST_BATCH]);
            put_u32(&mut out, count_u32(per_query.len(), "queries")?);
            for neighbors in per_query {
                put_u32(&mut out, count_u32(neighbors.len(), "neighbors")?);
                for &(id, sim) in neighbors {
                    put_u32(&mut out, id);
                    put_f64(&mut out, sim);
                }
            }
        }
        Response::Info(info) => {
            out.extend_from_slice(&[STATUS_OK, OP_INFO]);
            put_u64(&mut out, info.version);
            put_u32(&mut out, info.vocab_size);
            put_u32(&mut out, info.dim);
            out.push(info.precision_bits);
        }
        Response::Error { code, message } => {
            out.push(STATUS_ERROR);
            put_error_body(&mut out, code.to_u16(), message);
        }
    }
    Ok(out)
}

/// Decodes a response body; `None` on any truncation or inconsistency.
pub fn decode_response(mut body: &[u8]) -> Option<Response> {
    let r = &mut body;
    let status = take_op(r, WIRE_VERSION)?;
    let resp = match status {
        STATUS_OK => {
            let (tag, rest) = r.split_first()?;
            *r = rest;
            match *tag {
                OP_LOOKUP_BATCH => Response::Rows(take_mat(r)?),
                OP_NEAREST_BATCH => {
                    let n = take_count(r, 4)?;
                    let per_query: Vec<Vec<(u32, f64)>> = (0..n)
                        .map(|_| {
                            let cnt = take_count(r, 12)?;
                            (0..cnt)
                                .map(|_| Some((take_u32(r)?, take_f64(r)?)))
                                .collect::<Option<Vec<_>>>()
                        })
                        .collect::<Option<_>>()?;
                    Response::Neighbors(per_query)
                }
                OP_INFO => {
                    let version = take_u64(r)?;
                    let vocab_size = take_u32(r)?;
                    let dim = take_u32(r)?;
                    let (bits, rest) = r.split_first()?;
                    *r = rest;
                    Response::Info(SnapshotInfo {
                        version,
                        vocab_size,
                        dim,
                        precision_bits: *bits,
                    })
                }
                _ => return None,
            }
        }
        STATUS_ERROR => {
            let (code, message) = take_error_body(r)?;
            Response::error(ErrorCode::from_u16(code)?, message)
        }
        _ => return None,
    };
    r.is_empty().then_some(resp)
}

/// A request/response protocol carried by the frame: the op table the
/// shared transport is generic over. Implemented by the protocol's
/// request type, so [`call`] infers the protocol from its argument.
/// Encoders fail with [`io::ErrorKind::InvalidInput`] when a length
/// overflows its wire field; decoders return `None` on any bad byte.
pub trait Protocol: Sized {
    /// The protocol's response type.
    type Response;
    /// Encodes a request body.
    fn encode_request(&self) -> io::Result<Vec<u8>>;
    /// Decodes a request body.
    fn decode_request(body: &[u8]) -> Option<Self>;
    /// Encodes a response body.
    fn encode_response(resp: &Self::Response) -> io::Result<Vec<u8>>;
    /// Decodes a response body.
    fn decode_response(body: &[u8]) -> Option<Self::Response>;
    /// The reply to a body that does not decode, or to a length prefix
    /// past [`MAX_FRAME_BYTES`].
    fn malformed(message: String) -> Self::Response;
    /// The reply sent in place of a response that does not encode.
    fn internal(message: String) -> Self::Response;
}

impl Protocol for Request {
    type Response = Response;

    fn encode_request(&self) -> io::Result<Vec<u8>> {
        encode_request(self)
    }

    fn decode_request(body: &[u8]) -> Option<Request> {
        decode_request(body)
    }

    fn encode_response(resp: &Response) -> io::Result<Vec<u8>> {
        encode_response(resp)
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

/// One synchronous request/response exchange over a framed transport —
/// the client half of every protocol on this frame, shared by the load
/// generator, the fleet worker and the integration tests.
///
/// # Errors
///
/// Any transport error, plus [`io::ErrorKind::InvalidInput`] if the
/// request does not encode, [`io::ErrorKind::UnexpectedEof`] if the peer
/// closed before responding and [`io::ErrorKind::InvalidData`] if the
/// response does not decode.
pub fn call<R: Protocol>(stream: &mut (impl Read + Write), req: &R) -> io::Result<R::Response> {
    write_frame(stream, &req.encode_request()?)?;
    let body = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed the connection before responding",
        )
    })?;
    R::decode_response(&body)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable response frame"))
}

/// Applies one read/write timeout pair to a TCP stream (`None` restores
/// fully blocking I/O). Applied by [`listen`] to every accepted
/// connection and by clients to theirs, so neither side can hang forever
/// on a stalled peer.
///
/// # Errors
///
/// Any error from the socket option calls (e.g. a zero `Duration`, which
/// the OS rejects).
pub fn set_io_timeouts(stream: &TcpStream, timeout: Option<Duration>) -> io::Result<()> {
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)
}

/// The serving side of a [`Protocol`]: what [`listen`] runs for every
/// decoded request.
pub trait Handler: Send + Sync + 'static {
    /// The protocol's request type.
    type Request: Protocol;
    /// Per-connection state, created when a connection opens.
    type Conn: Default;

    /// Answers one request on the connection whose state is `conn`.
    fn dispatch(
        &self,
        conn: &mut Self::Conn,
        req: Self::Request,
    ) -> <Self::Request as Protocol>::Response;

    /// Sees every response, the transport's own error replies included,
    /// just before it is written.
    fn sent(&self, _response: &<Self::Request as Protocol>::Response) {}

    /// Runs once when a connection ends, however it ends.
    fn closed(&self, _conn: Self::Conn) {}
}

/// Stops the accept loop [`listen`] runs, and tells handlers that hold a
/// clone that the server is stopping.
#[derive(Clone, Debug)]
pub struct Stop {
    addr: SocketAddr,
    stopped: Arc<AtomicBool>,
}

impl Stop {
    /// A stop handle for the accept loop on `listener`.
    ///
    /// # Errors
    ///
    /// Any error reading the listener's address.
    pub fn new(listener: &TcpListener) -> io::Result<Stop> {
        Ok(Stop {
            addr: listener.local_addr()?,
            stopped: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once [`Stop::stop`] has run.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Stops accepting connections. Open connections keep being served
    /// until their peers close.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        TcpStream::connect(self.addr).ok();
    }
}

/// Serves `handler` on `listener` from a background accept thread named
/// `{name}-accept`, with one `{name}-conn` thread per connection, until
/// `stop` is stopped. Returns once the accept thread runs.
///
/// # Errors
///
/// Any error spawning the accept thread.
pub fn listen<H: Handler>(
    listener: TcpListener,
    handler: Arc<H>,
    stop: Stop,
    io_timeout: Option<Duration>,
    name: &str,
) -> io::Result<()> {
    let conn_name = format!("{name}-conn");
    thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            for conn in listener.incoming() {
                if stop.is_stopped() {
                    return;
                }
                let Ok(stream) = conn else { continue };
                // Frames are small and latency-bound; Nagle would stall
                // every response behind the peer's delayed ACK.
                stream.set_nodelay(true).ok();
                // A stalled peer surfaces as a read/write timeout in the
                // connection loop (which drops it) instead of pinning a
                // thread forever.
                set_io_timeouts(&stream, io_timeout).ok();
                let handler = handler.clone();
                // A failed thread spawn drops the connection; the server
                // lives on.
                thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || connection_loop(stream, &*handler))
                    .ok();
            }
        })?;
    Ok(())
}

/// Reads, dispatches and answers frames in order until the peer closes,
/// the transport fails, or a length prefix is past the ceiling.
fn connection_loop<H: Handler>(mut stream: TcpStream, handler: &H) {
    let mut conn = H::Conn::default();
    loop {
        let response = match read_frame(&mut stream) {
            // A malformed body does not desync the framing; answer the
            // error and keep the connection.
            Ok(Some(body)) => match H::Request::decode_request(&body) {
                Some(req) => handler.dispatch(&mut conn, req),
                None => H::Request::malformed("request body did not decode".into()),
            },
            // Clean EOF: the peer is done.
            Ok(None) => break,
            Err(e) => {
                // An oversize length prefix cannot be resynchronized:
                // answer Malformed (best effort) and drop the connection.
                if e.kind() == io::ErrorKind::InvalidData {
                    respond(&mut stream, handler, H::Request::malformed(e.to_string()));
                }
                break;
            }
        };
        if !respond(&mut stream, handler, response) {
            break;
        }
    }
    handler.closed(conn);
}

/// Writes one response. Returns false if the peer is gone.
fn respond<H: Handler>(
    stream: &mut TcpStream,
    handler: &H,
    response: <H::Request as Protocol>::Response,
) -> bool {
    let (response, body) = match H::Request::encode_response(&response) {
        Ok(body) => (response, body),
        // Unencodable response (a length overflow): last-resort typed error.
        Err(_) => {
            let fallback = H::Request::internal("response exceeded wire limits".into());
            let Ok(body) = H::Request::encode_response(&fallback) else {
                return false;
            };
            (fallback, body)
        }
    };
    handler.sent(&response);
    write_frame(stream, &body).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat() -> Mat {
        Mat::from_rows(&[&[1.5, -0.0, f64::NAN], &[0.25, 2.0, -3.5]])
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::LookupBatch {
                tenant: "search".into(),
                ids: vec![0, 7, u32::MAX],
            },
            Request::NearestBatch {
                tenant: "ads".into(),
                k: 5,
                queries: mat(),
            },
            Request::Info { tenant: "".into() },
        ];
        for req in &reqs {
            let body = encode_request(req).expect("encode");
            let back = decode_request(&body).expect("decode");
            // Mat equality is not bitwise for NaN; compare the encodings.
            assert_eq!(
                encode_request(&back).expect("re-encode"),
                body,
                "{req:?} must round-trip"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Rows(mat()),
            Response::Neighbors(vec![vec![(3, 0.9), (1, 0.5)], vec![]]),
            Response::Info(SnapshotInfo {
                version: 12,
                vocab_size: 220,
                dim: 16,
                precision_bits: 4,
            }),
            Response::Error {
                code: ErrorCode::IdOutOfRange,
                message: "word id 999 out of range".into(),
            },
        ];
        for resp in &resps {
            let body = encode_response(resp).expect("encode");
            let back = decode_response(&body).expect("decode");
            assert_eq!(
                encode_response(&back).expect("re-encode"),
                body,
                "{resp:?} must round-trip"
            );
        }
    }

    #[test]
    fn truncated_bodies_decode_to_none() {
        let req_body = encode_request(&Request::NearestBatch {
            tenant: "t".into(),
            k: 3,
            queries: mat(),
        })
        .expect("encode");
        for cut in 0..req_body.len() {
            assert!(
                decode_request(&req_body[..cut]).is_none(),
                "request cut at {cut} must not decode"
            );
        }
        let resp_body =
            encode_response(&Response::Neighbors(vec![vec![(3, 0.9)]])).expect("encode");
        for cut in 0..resp_body.len() {
            assert!(
                decode_response(&resp_body[..cut]).is_none(),
                "response cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_bad_versions_and_bad_ops_are_rejected() {
        let mut body = encode_request(&Request::Info { tenant: "t".into() }).expect("encode");
        body.push(0);
        assert!(decode_request(&body).is_none(), "trailing byte");
        let mut body = encode_request(&Request::Info { tenant: "t".into() }).expect("encode");
        body[0] = WIRE_VERSION + 1;
        assert!(decode_request(&body).is_none(), "future version");
        let mut body = encode_request(&Request::Info { tenant: "t".into() }).expect("encode");
        body[1] = 200;
        assert!(decode_request(&body).is_none(), "unknown op");
        // Unknown error codes don't decode either.
        let mut body = encode_response(&Response::Error {
            code: ErrorCode::Malformed,
            message: String::new(),
        })
        .expect("encode");
        body[2] = 0xFF;
        assert!(decode_response(&body).is_none(), "unknown error code");
    }

    #[test]
    fn oversize_frames_are_rejected_before_allocation() {
        let mut sink = Vec::new();
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(write_frame(&mut sink, &big).is_err());
        // A length prefix claiming 2^32-1 bytes errors without allocating.
        let evil = u32::MAX.to_le_bytes();
        let mut r = &evil[..];
        assert_eq!(
            read_frame(&mut r).expect_err("oversize").kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let body = encode_request(&Request::LookupBatch {
            tenant: "t".into(),
            ids: vec![1, 2, 3],
        })
        .expect("encode");
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).expect("write");
        write_frame(&mut buf, &body).expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("frame 1"), Some(body.clone()));
        assert_eq!(read_frame(&mut r).expect("frame 2"), Some(body));
        assert_eq!(read_frame(&mut r).expect("eof"), None);
    }

    /// Pins the exact bytes of one request and one response per op, plus
    /// an error frame, so a refactor of the codec cannot change the wire
    /// format unnoticed (round-trip tests alone would not see it).
    #[test]
    fn golden_frames_pin_the_wire_bytes() {
        let requests: [(Request, &[u8]); 3] = [
            (
                Request::LookupBatch {
                    tenant: "t".into(),
                    ids: vec![1, 258],
                },
                &[1, 1, 1, 0, b't', 2, 0, 0, 0, 1, 0, 0, 0, 2, 1, 0, 0],
            ),
            (
                Request::NearestBatch {
                    tenant: "t".into(),
                    k: 2,
                    queries: Mat::from_rows(&[&[1.0]]),
                },
                &[
                    1, 2, 1, 0, b't', 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0,
                    0x3F,
                ],
            ),
            (Request::Info { tenant: "t".into() }, &[1, 3, 1, 0, b't']),
        ];
        for (req, golden) in &requests {
            assert_eq!(encode_request(req).expect("encode"), *golden, "{req:?}");
            let back = decode_request(golden).expect("golden request decodes");
            assert_eq!(encode_request(&back).expect("re-encode"), *golden);
        }
        let responses: [(Response, &[u8]); 4] = [
            (
                Response::Rows(Mat::from_rows(&[&[-0.0]])),
                &[1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80],
            ),
            (
                Response::Neighbors(vec![vec![(3, 0.5)]]),
                &[
                    1, 0, 2, 1, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xE0, 0x3F,
                ],
            ),
            (
                Response::Info(SnapshotInfo {
                    version: 12,
                    vocab_size: 220,
                    dim: 16,
                    precision_bits: 4,
                }),
                &[
                    1, 0, 3, 12, 0, 0, 0, 0, 0, 0, 0, 220, 0, 0, 0, 16, 0, 0, 0, 4,
                ],
            ),
            (
                Response::Error {
                    code: ErrorCode::IdOutOfRange,
                    message: "no".into(),
                },
                &[1, 1, 4, 0, 2, 0, 0, 0, b'n', b'o'],
            ),
        ];
        for (resp, golden) in &responses {
            assert_eq!(encode_response(resp).expect("encode"), *golden, "{resp:?}");
            let back = decode_response(golden).expect("golden response decodes");
            assert_eq!(encode_response(&back).expect("re-encode"), *golden);
        }
    }

    #[test]
    fn query_errors_map_to_stable_codes() {
        let cases = [
            (
                QueryError::IdOutOfRange {
                    id: 9,
                    vocab_size: 5,
                },
                ErrorCode::IdOutOfRange,
            ),
            (
                QueryError::DimMismatch {
                    got: 3,
                    expected: 4,
                },
                ErrorCode::DimMismatch,
            ),
            (QueryError::EmptyBatch, ErrorCode::EmptyBatch),
            (QueryError::ZeroK, ErrorCode::ZeroK),
        ];
        for (err, code) in cases {
            let resp = Response::from(err.clone());
            match resp {
                Response::Error { code: c, message } => {
                    assert_eq!(c, code);
                    assert_eq!(message, err.to_string());
                }
                other => panic!("expected error response, got {other:?}"),
            }
        }
    }
}
