//! The TCP front-end: a threaded server that answers [`wire`] requests
//! from per-tenant [`SnapshotStore`]s, coalescing concurrently arriving
//! queries into single batched GEMM calls.
//!
//! Architecture (thread-per-connection; epoll and a v2 protocol are
//! tracked ROADMAP headroom):
//!
//! - an **accept thread** takes connections and spawns one handler thread
//!   per connection;
//! - each **connection thread** reads frames, decodes requests, and
//!   enqueues jobs on the addressed tenant's batcher, writing responses
//!   back in request order;
//! - one **batcher thread per tenant** batches naturally: it blocks for
//!   the first job, takes whatever queued behind it (up to `max_batch`)
//!   and answers that batch at once with **one**
//!   [`Snapshot::try_lookup_batch`] / [`Snapshot::try_nearest_batch`]
//!   call riding the blocked GEMM kernel. Jobs arriving meanwhile form
//!   the next batch: there is no timer, so a lone query is answered at
//!   once, and batches grow with load.
//!
//! Safety properties, all pinned by `tests/server_live.rs`:
//!
//! - **No panics on client bytes.** Every malformed frame, unknown
//!   tenant, out-of-range id, wrong-dimension query, `k = 0`, or empty
//!   batch becomes a [`wire::ErrorCode`] response. This is why the
//!   typed [`QueryError`] paths exist — the lint's `no-panic-in-hot-path`
//!   rule enforces it mechanically for this whole crate.
//! - **Admission.** Each tenant bounds its queued jobs
//!   ([`TenantConfig::max_pending`]); past it, requests are answered
//!   [`wire::ErrorCode::Overloaded`] immediately instead of growing the
//!   queue without bound — the latency half of the tenant's [`Slo`]
//!   under overload (the instability half is the gate's job at publish
//!   time).
//! - **Hot promote/rollback with zero dropped queries.** The live
//!   snapshot is an `Arc` swapped under a lock; every batch clones the
//!   `Arc` once at execution, so in-flight queries finish against the
//!   snapshot they started with while [`ServeHandle::promote`] /
//!   [`ServeHandle::rollback`] move the store and the pointer.
//!
//! [`QueryError`]: crate::QueryError
//! [`Slo`]: crate::Slo

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use embedstab_embeddings::Embedding;
use embedstab_linalg::Mat;
use parking_lot::{Mutex, RwLock};

use crate::snapshot::{Snapshot, SnapshotStore, Version};
use crate::wire::{self, ErrorCode, Request, Response, SnapshotInfo};

/// Server-wide settings. Batching has no timer to tune: each batch is
/// whatever queued while the previous one ran, capped at `max_batch`.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum jobs coalesced into one batched call (bounds the GEMM).
    pub max_batch: usize,
    /// Per-connection socket read/write timeouts. `None` (the default)
    /// blocks forever — fine for trusted clients; set it when a stalled
    /// or half-dead peer must not pin a handler thread indefinitely.
    pub io_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 64,
            io_timeout: None,
        }
    }
}

/// One tenant served by the front-end.
#[derive(Debug)]
pub struct TenantConfig {
    /// The tenant's name on the wire.
    pub name: String,
    /// Its snapshot store; must have a live snapshot.
    pub store: SnapshotStore,
    /// Admission bound: queued-but-unanswered jobs past this are refused
    /// with [`ErrorCode::Overloaded`].
    pub max_pending: usize,
}

impl TenantConfig {
    /// A tenant with the default admission bound (1024 queued jobs).
    pub fn new(name: impl Into<String>, store: SnapshotStore) -> TenantConfig {
        TenantConfig {
            name: name.into(),
            store,
            max_pending: 1024,
        }
    }
}

enum JobKind {
    Lookup(Vec<u32>),
    Nearest { k: usize, queries: Mat },
}

struct Job {
    kind: JobKind,
    resp: Sender<Response>,
}

struct TenantState {
    live: RwLock<Arc<Snapshot>>,
    store: Mutex<SnapshotStore>,
    /// `None` once shutdown has begun; taking the sender is what lets the
    /// batcher thread's `recv` disconnect and exit.
    tx: Mutex<Option<Sender<Job>>>,
    pending: AtomicUsize,
    max_pending: usize,
    /// Batches the batcher has run.
    batches: AtomicU64,
}

struct Shared {
    tenants: BTreeMap<String, Arc<TenantState>>,
    addr: SocketAddr,
    io_timeout: Option<Duration>,
    shutdown: AtomicBool,
    ok_responses: AtomicU64,
    error_responses: AtomicU64,
}

/// A handle to a running server: address, live-traffic snapshot
/// promotion/rollback, response counters, shutdown. Cloneable; the server
/// runs until [`ServeHandle::shutdown`] (or process exit).
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// `(ok, error)` response counts served so far.
    pub fn response_counts(&self) -> (u64, u64) {
        (
            self.shared.ok_responses.load(Ordering::SeqCst),
            self.shared.error_responses.load(Ordering::SeqCst),
        )
    }

    /// Batches the tenant's batcher has run so far. Fewer batches than
    /// queued requests means concurrent queries were coalesced.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] for an unknown tenant.
    pub fn batches_run(&self, tenant: &str) -> io::Result<u64> {
        Ok(self.tenant(tenant)?.batches.load(Ordering::SeqCst))
    }

    fn tenant(&self, name: &str) -> io::Result<&Arc<TenantState>> {
        self.shared.tenants.get(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("tenant '{name}' is not served"),
            )
        })
    }

    /// Publishes `candidate` to the tenant's store (quantized at the
    /// tenant's serving precision) and hot-swaps it live. In-flight
    /// queries finish against the snapshot they started with; no query is
    /// dropped or errored by the swap.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] for an unknown tenant, plus any store
    /// publish error.
    pub fn promote(&self, tenant: &str, candidate: &Embedding) -> io::Result<Version> {
        let state = self.tenant(tenant)?;
        let mut store = state.store.lock();
        let precision = state.live.read().meta().precision;
        let version = store.publish(candidate, precision, None)?;
        let snap = live_arc(&store)?;
        *state.live.write() = snap;
        Ok(version)
    }

    /// Reverts the tenant to its previous promoted version and hot-swaps
    /// it live, with the same zero-drop guarantee as
    /// [`ServeHandle::promote`].
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] for an unknown tenant, plus any store
    /// rollback error (e.g. fewer than two promoted versions).
    pub fn rollback(&self, tenant: &str) -> io::Result<Version> {
        let state = self.tenant(tenant)?;
        let mut store = state.store.lock();
        let version = store.rollback()?;
        let snap = live_arc(&store)?;
        *state.live.write() = snap;
        Ok(version)
    }

    /// Stops accepting connections and disconnects the batchers. Handler
    /// threads finish their current request/response exchange; lingering
    /// connections end when their peers close.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for state in self.shared.tenants.values() {
            state.tx.lock().take();
        }
        // Unblock the accept loop with one throwaway connection.
        TcpStream::connect(self.shared.addr).ok();
    }
}

fn live_arc(store: &SnapshotStore) -> io::Result<Arc<Snapshot>> {
    match store.live() {
        Some(snap) => Ok(Arc::new(snap.clone())),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "snapshot store has no live snapshot",
        )),
    }
}

/// Starts the server on `listener` and returns immediately with a
/// [`ServeHandle`]; all serving happens on background threads.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] for duplicate tenant names or
/// a store with nothing live, and any error from reading the listener
/// address or spawning threads.
pub fn serve(
    listener: TcpListener,
    tenants: Vec<TenantConfig>,
    config: ServerConfig,
) -> io::Result<ServeHandle> {
    let addr = listener.local_addr()?;
    let mut states = BTreeMap::new();
    let mut batchers = Vec::new();
    for tenant in tenants {
        let live = live_arc(&tenant.store)?;
        let (tx, rx) = channel();
        let state = Arc::new(TenantState {
            live: RwLock::new(live),
            store: Mutex::new(tenant.store),
            tx: Mutex::new(Some(tx)),
            pending: AtomicUsize::new(0),
            max_pending: tenant.max_pending,
            batches: AtomicU64::new(0),
        });
        if states.insert(tenant.name.clone(), state.clone()).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("tenant '{}' configured twice", tenant.name),
            ));
        }
        batchers.push((tenant.name, state, rx));
    }
    let shared = Arc::new(Shared {
        tenants: states,
        addr,
        io_timeout: config.io_timeout,
        shutdown: AtomicBool::new(false),
        ok_responses: AtomicU64::new(0),
        error_responses: AtomicU64::new(0),
    });
    for (name, state, rx) in batchers {
        thread::Builder::new()
            .name(format!("batcher-{name}"))
            .spawn(move || batcher_loop(&state, &rx, config.max_batch))?;
    }
    let accept_shared = shared.clone();
    thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))?;
    Ok(ServeHandle { shared })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // Frames are small and latency-bound; Nagle would stall every
        // response behind the peer's delayed ACK.
        stream.set_nodelay(true).ok();
        // A stalled peer surfaces as a read/write timeout in the handler
        // (which drops the connection) instead of pinning it forever.
        wire::set_io_timeouts(&stream, shared.io_timeout).ok();
        let shared = shared.clone();
        // A failed thread spawn drops the connection; the server lives on.
        thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || connection_loop(stream, &shared))
            .ok();
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    loop {
        let body = match wire::read_frame(&mut stream) {
            Ok(Some(body)) => body,
            // Clean EOF: the client is done.
            Ok(None) => return,
            Err(e) => {
                // An oversize length prefix cannot be resynchronized:
                // answer Malformed (best effort) and drop the connection.
                if e.kind() == io::ErrorKind::InvalidData {
                    respond(
                        &mut stream,
                        shared,
                        Response::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        },
                    );
                }
                return;
            }
        };
        let response = match wire::decode_request(&body) {
            // A malformed body does not desync the framing; answer the
            // error and keep the connection.
            None => Response::Error {
                code: ErrorCode::Malformed,
                message: "request body did not decode".into(),
            },
            Some(req) => dispatch(shared, req),
        };
        if !respond(&mut stream, shared, response) {
            return;
        }
    }
}

/// Writes one response, updating the counters. Returns false if the
/// client is gone.
fn respond(stream: &mut TcpStream, shared: &Arc<Shared>, response: Response) -> bool {
    let counter = if response.is_error() {
        &shared.error_responses
    } else {
        &shared.ok_responses
    };
    let Ok(body) = wire::encode_response(&response) else {
        // Unencodable response (count overflow): last-resort typed error.
        let fallback = Response::Error {
            code: ErrorCode::Internal,
            message: "response exceeded wire limits".into(),
        };
        shared.error_responses.fetch_add(1, Ordering::SeqCst);
        return match wire::encode_response(&fallback) {
            Ok(body) => wire::write_frame(stream, &body).is_ok(),
            Err(_) => false,
        };
    };
    counter.fetch_add(1, Ordering::SeqCst);
    wire::write_frame(stream, &body).is_ok()
}

fn dispatch(shared: &Arc<Shared>, req: Request) -> Response {
    let tenant_name = req.tenant().to_string();
    let Some(state) = shared.tenants.get(&tenant_name) else {
        return Response::Error {
            code: ErrorCode::UnknownTenant,
            message: format!("tenant '{tenant_name}' is not served here"),
        };
    };
    let kind = match req {
        Request::Info { .. } => {
            let snap = state.live.read().clone();
            let meta = snap.meta();
            return Response::Info(SnapshotInfo {
                version: meta.version.0,
                vocab_size: meta.vocab_size.min(u32::MAX as usize) as u32,
                dim: meta.dim.min(u32::MAX as usize) as u32,
                precision_bits: meta.precision.bits(),
            });
        }
        Request::LookupBatch { ids, .. } => JobKind::Lookup(ids),
        Request::NearestBatch { k, queries, .. } => JobKind::Nearest {
            k: k as usize,
            queries,
        },
    };
    // Admission: bound the tenant's queue, refusing (not queueing) the
    // excess so overload degrades to fast typed errors.
    if state.pending.fetch_add(1, Ordering::SeqCst) >= state.max_pending {
        state.pending.fetch_sub(1, Ordering::SeqCst);
        return Response::Error {
            code: ErrorCode::Overloaded,
            message: format!(
                "tenant '{tenant_name}' has {} queries pending (admission bound)",
                state.max_pending
            ),
        };
    }
    let (resp_tx, resp_rx) = channel();
    let sent = match &*state.tx.lock() {
        Some(tx) => tx
            .send(Job {
                kind,
                resp: resp_tx,
            })
            .is_ok(),
        None => false,
    };
    if !sent {
        state.pending.fetch_sub(1, Ordering::SeqCst);
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is shutting down".into(),
        };
    }
    match resp_rx.recv() {
        Ok(response) => response,
        Err(_) => Response::Error {
            code: ErrorCode::Internal,
            message: "batcher dropped the query".into(),
        },
    }
}

fn batcher_loop(state: &Arc<TenantState>, rx: &Receiver<Job>, max_batch: usize) {
    // Block for the first job; a disconnected channel is shutdown.
    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        jobs.extend(rx.try_iter().take(max_batch.max(1) - 1));
        state.pending.fetch_sub(jobs.len(), Ordering::SeqCst);
        state.batches.fetch_add(1, Ordering::SeqCst);
        run_batch(state, jobs);
    }
}

/// Validates each job against the snapshot, answers the invalid ones with
/// typed errors, and answers all valid ones through ONE coalesced
/// `try_lookup_batch` and ONE `try_nearest_batch` call.
fn run_batch(state: &Arc<TenantState>, jobs: Vec<Job>) {
    // One snapshot for the whole batch: a concurrent promote/rollback
    // swaps the Arc for *future* batches and never tears this one.
    let snap = state.live.read().clone();
    let meta = snap.meta();
    let mut lookups: Vec<(Vec<u32>, Sender<Response>)> = Vec::new();
    let mut nearests: Vec<(usize, Mat, Sender<Response>)> = Vec::new();
    for job in jobs {
        match job.kind {
            JobKind::Lookup(ids) => match snap.check_lookup(&ids) {
                Ok(()) => lookups.push((ids, job.resp)),
                Err(e) => {
                    job.resp.send(Response::from(e)).ok();
                }
            },
            JobKind::Nearest { k, queries } => match snap.check_nearest(&queries, k) {
                Ok(()) => nearests.push((k, queries, job.resp)),
                Err(e) => {
                    job.resp.send(Response::from(e)).ok();
                }
            },
        }
    }
    if !lookups.is_empty() {
        let all_ids: Vec<u32> = lookups
            .iter()
            .flat_map(|(ids, _)| ids.iter().copied())
            .collect();
        match snap.try_lookup_batch(&all_ids) {
            Ok(rows) => {
                let dim = meta.dim;
                let mut start = 0usize;
                for (ids, resp) in lookups {
                    let cnt = ids.len();
                    let data = rows.as_slice()[start * dim..(start + cnt) * dim].to_vec();
                    start += cnt;
                    // Fallible split: a shape mismatch here is a server
                    // bug, but it must fail the job, not the process.
                    let reply = match Mat::try_from_vec(cnt, dim, data) {
                        Some(m) => Response::Rows(m),
                        None => Response::Error {
                            code: ErrorCode::Internal,
                            message: "batch split produced a malformed row block".into(),
                        },
                    };
                    resp.send(reply).ok();
                }
            }
            // Unreachable after per-job validation, but a coalesced
            // failure must fail the jobs, not the process.
            Err(e) => {
                for (_, resp) in lookups {
                    resp.send(Response::from(e.clone())).ok();
                }
            }
        }
    }
    if !nearests.is_empty() {
        let dim = meta.dim;
        let total_rows: usize = nearests.iter().map(|(_, q, _)| q.rows()).sum();
        let mut data = Vec::with_capacity(total_rows * dim);
        for (_, queries, _) in &nearests {
            data.extend_from_slice(queries.as_slice());
        }
        let Some(coalesced) = Mat::try_from_vec(total_rows, dim, data) else {
            for (.., resp) in nearests {
                resp.send(Response::Error {
                    code: ErrorCode::Internal,
                    message: "coalesced query block has a malformed shape".into(),
                })
                .ok();
            }
            return;
        };
        let k_max = nearests.iter().map(|&(k, ..)| k).max().unwrap_or(1);
        match snap.try_nearest_batch(&coalesced, k_max) {
            Ok(per_query) => {
                // Split the answers back out, trimming each request to its
                // own k (a k_max prefix truncated to k equals the k answer:
                // the ranking is total and deterministic).
                let mut answers = per_query.into_iter();
                for (k, queries, resp) in nearests {
                    let mut mine: Vec<Vec<(u32, f64)>> =
                        answers.by_ref().take(queries.rows()).collect();
                    for neighbors in &mut mine {
                        neighbors.truncate(k);
                    }
                    resp.send(Response::Neighbors(mine)).ok();
                }
            }
            Err(e) => {
                for (.., resp) in nearests {
                    resp.send(Response::from(e.clone())).ok();
                }
            }
        }
    }
}
