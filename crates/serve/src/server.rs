//! The TCP front-end: a threaded server that answers [`wire`] requests
//! from per-tenant [`SnapshotStore`]s, coalescing concurrently arriving
//! queries into single batched GEMM calls.
//!
//! Architecture (thread-per-connection; epoll and a v2 protocol are
//! tracked ROADMAP headroom):
//!
//! - the **transport** is [`wire::listen`], shared with the fleet
//!   coordinator: an accept thread spawns one thread per connection,
//!   which reads frames, decodes requests, and answers them in request
//!   order. This module is only the serve protocol's [`wire::Handler`],
//!   whose `dispatch` answers one request;
//! - `dispatch` answers `Info` from the live snapshot and queues a query
//!   on the addressed tenant's queue. The connection thread then either
//!   runs the tenant's batches itself or blocks until its query is
//!   answered;
//! - batching is **flat combining**: one connection thread at a time
//!   holds a tenant's *combiner role* (an atomic flag, taken by whoever
//!   queues a job while no batch is running) and runs batches naturally.
//!   Each batch is whatever queued while the previous one ran (up to
//!   `max_batch`), answered at once with **one**
//!   [`Snapshot::try_lookup_batch`] / [`Snapshot::try_nearest_batch`]
//!   call riding the blocked GEMM kernel. The combiner stops once its
//!   own query is answered, releases the role, hands it to the owner of
//!   the job then at the queue's head, and only then wakes the owners of
//!   the jobs it answered. There is no timer and no batcher thread: an
//!   uncontended query is answered on its own connection thread without
//!   a thread handoff, and batches grow with load.
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

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::Duration;

use embedstab_embeddings::Embedding;
use embedstab_linalg::Mat;
use parking_lot::{Mutex, RwLock};

use crate::snapshot::{Snapshot, SnapshotStore, Version};
use crate::wire::{self, ErrorCode, Handler, Request, Response, SnapshotInfo, Stop};

/// Server-wide settings. Batching has no timer or thread to tune: the
/// connection thread holding a tenant's combiner role runs each batch,
/// which is whatever queued while the previous one ran, capped at
/// `max_batch`.
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
    slot: Arc<Slot>,
}

/// Where a queued job's owner blocks: for the job's answer, or for the
/// combiner role handed over by the combiner that releases it.
struct Slot {
    answer: Mutex<Option<Response>>,
    handed_role: AtomicBool,
    owner: Thread,
}

impl Slot {
    /// A slot owned by the calling thread.
    fn new() -> Slot {
        Slot {
            answer: Mutex::new(None),
            handed_role: AtomicBool::new(false),
            owner: thread::current(),
        }
    }

    /// Stores the answer without waking the owner: the combiner unparks
    /// it once the role is released.
    fn answer(&self, response: Response) {
        *self.answer.lock() = Some(response);
    }

    fn is_answered(&self) -> bool {
        self.answer.lock().is_some()
    }

    fn hand_role(&self) {
        self.handed_role.store(true, Ordering::SeqCst);
        self.owner.unpark();
    }

    /// Blocks the owner until its job is answered (`Some`) or the combiner
    /// role is handed to it (`None`). `unpark` before `park` is not lost,
    /// and a spurious wake-up only re-checks.
    fn wait(&self) -> Option<Response> {
        loop {
            let answer = self.answer.lock().take();
            if answer.is_some() {
                return answer;
            }
            if self.handed_role.swap(false, Ordering::SeqCst) {
                return None;
            }
            thread::park();
        }
    }
}

struct TenantState {
    live: RwLock<Arc<Snapshot>>,
    store: Mutex<SnapshotStore>,
    /// Admitted jobs not yet taken into a batch.
    queue: Mutex<VecDeque<Job>>,
    /// The combiner role: set while some connection thread runs this
    /// tenant's batches, held through a [`Combiner`]. An atomic flag
    /// rather than a lock, so no lock guard is held across `run_batch`.
    combining: AtomicBool,
    max_pending: usize,
    /// Batches run for this tenant.
    batches: AtomicU64,
}

struct Shared {
    tenants: BTreeMap<String, Arc<TenantState>>,
    max_batch: usize,
    /// Stopped by [`ServeHandle::shutdown`]; queries are refused after.
    stop: Stop,
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
        self.shared.stop.addr()
    }

    /// `(ok, error)` response counts served so far.
    pub fn response_counts(&self) -> (u64, u64) {
        (
            self.shared.ok_responses.load(Ordering::SeqCst),
            self.shared.error_responses.load(Ordering::SeqCst),
        )
    }

    /// Batches run so far for the tenant, by whichever connection threads
    /// held its combiner role. Fewer batches than queued requests means
    /// concurrent queries were coalesced.
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

    /// Stops accepting connections and refuses new queries with
    /// [`ErrorCode::ShuttingDown`]. Queries already queued are answered;
    /// lingering connections end when their peers close.
    pub fn shutdown(&self) {
        self.shared.stop.stop();
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
    let stop = Stop::new(&listener)?;
    let mut states = BTreeMap::new();
    for tenant in tenants {
        let live = live_arc(&tenant.store)?;
        let state = Arc::new(TenantState {
            live: RwLock::new(live),
            store: Mutex::new(tenant.store),
            queue: Mutex::new(VecDeque::new()),
            combining: AtomicBool::new(false),
            max_pending: tenant.max_pending,
            batches: AtomicU64::new(0),
        });
        if states.insert(tenant.name.clone(), state).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("tenant '{}' configured twice", tenant.name),
            ));
        }
    }
    let shared = Arc::new(Shared {
        tenants: states,
        max_batch: config.max_batch.max(1),
        stop: stop.clone(),
        ok_responses: AtomicU64::new(0),
        error_responses: AtomicU64::new(0),
    });
    wire::listen(listener, shared.clone(), stop, config.io_timeout, "serve")?;
    Ok(ServeHandle { shared })
}

impl Handler for Shared {
    type Request = Request;
    type Conn = ();

    fn dispatch(&self, _conn: &mut (), req: Request) -> Response {
        let tenant_name = req.tenant().to_string();
        let Some(state) = self.tenants.get(&tenant_name) else {
            return Response::error(
                ErrorCode::UnknownTenant,
                format!("tenant '{tenant_name}' is not served here"),
            );
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
        if self.stop.is_stopped() {
            return Response::error(ErrorCode::ShuttingDown, "server is shutting down");
        }
        // Admission: bound the tenant's queue, refusing (not queueing) the
        // excess so overload degrades to fast typed errors.
        let slot = Arc::new(Slot::new());
        let admitted = {
            let mut queue = state.queue.lock();
            let admitted = queue.len() < state.max_pending;
            if admitted {
                queue.push_back(Job {
                    kind,
                    slot: slot.clone(),
                });
            }
            admitted
        };
        if !admitted {
            return Response::error(
                ErrorCode::Overloaded,
                format!(
                    "tenant '{tenant_name}' has {} queries pending (admission bound)",
                    state.max_pending
                ),
            );
        }
        loop {
            if let Some(mut combiner) = Combiner::try_take(state) {
                combiner.run_until_answered(&slot, self.max_batch);
            }
            if let Some(response) = slot.wait() {
                return response;
            }
        }
    }

    fn sent(&self, response: &Response) {
        let counter = if response.is_error() {
            &self.error_responses
        } else {
            &self.ok_responses
        };
        counter.fetch_add(1, Ordering::SeqCst);
    }
}

/// A tenant's combiner role, held from [`Combiner::try_take`] until drop.
/// Dropping it releases the role, hands it to the owner of the job then
/// at the queue's head, and unparks the owners of the jobs it took — also
/// when a batch panics, so no owner is left parked and the tenant keeps
/// serving.
struct Combiner<'a> {
    state: &'a TenantState,
    /// Owners of the jobs taken into this combiner's batches.
    owners: Vec<Arc<Slot>>,
}

impl<'a> Combiner<'a> {
    /// Takes the role if no batch is running for the tenant.
    fn try_take(state: &'a TenantState) -> Option<Combiner<'a>> {
        state
            .combining
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .ok()?;
        Some(Combiner {
            state,
            owners: Vec::new(),
        })
    }

    /// Runs the tenant's batches until `mine` is answered. Each batch is
    /// what queued while the previous one ran, capped at `max_batch`.
    fn run_until_answered(&mut self, mine: &Slot, max_batch: usize) {
        while !mine.is_answered() {
            let jobs: Vec<Job> = {
                let mut queue = self.state.queue.lock();
                let take = queue.len().min(max_batch);
                queue.drain(..take).collect()
            };
            // While this thread holds the role, `mine` is queued or answered.
            if jobs.is_empty() {
                return;
            }
            self.state.batches.fetch_add(1, Ordering::SeqCst);
            self.owners.extend(
                jobs.iter()
                    .filter(|job| !std::ptr::eq(&*job.slot, mine))
                    .map(|job| job.slot.clone()),
            );
            run_batch(self.state, jobs);
        }
    }
}

impl Drop for Combiner<'_> {
    fn drop(&mut self) {
        // Release before looking at the queue: a job queued after this
        // look finds the role free and takes it itself, so none is stranded.
        self.state.combining.store(false, Ordering::SeqCst);
        let head = self.state.queue.lock().front().map(|job| job.slot.clone());
        if let Some(slot) = head {
            slot.hand_role();
        }
        let unwinding = thread::panicking();
        for slot in self.owners.drain(..) {
            if unwinding && !slot.is_answered() {
                slot.answer(Response::Error {
                    code: ErrorCode::Internal,
                    message: "the batch answering this query failed".into(),
                });
            }
            slot.owner.unpark();
        }
    }
}

/// Validates each job against the snapshot, answers the invalid ones with
/// typed errors, and answers all valid ones through ONE coalesced
/// `try_lookup_batch` and ONE `try_nearest_batch` call.
fn run_batch(state: &TenantState, jobs: Vec<Job>) {
    // One snapshot for the whole batch: a concurrent promote/rollback
    // swaps the Arc for *future* batches and never tears this one.
    let snap = state.live.read().clone();
    let meta = snap.meta();
    let mut lookups: Vec<(Vec<u32>, Arc<Slot>)> = Vec::new();
    let mut nearests: Vec<(usize, Mat, Arc<Slot>)> = Vec::new();
    for job in jobs {
        match job.kind {
            JobKind::Lookup(ids) => match snap.check_lookup(&ids) {
                Ok(()) => lookups.push((ids, job.slot)),
                Err(e) => job.slot.answer(Response::from(e)),
            },
            JobKind::Nearest { k, queries } => match snap.check_nearest(&queries, k) {
                Ok(()) => nearests.push((k, queries, job.slot)),
                Err(e) => job.slot.answer(Response::from(e)),
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
                for (ids, slot) in lookups {
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
                    slot.answer(reply);
                }
            }
            // Unreachable after per-job validation, but a coalesced
            // failure must fail the jobs, not the process.
            Err(e) => {
                for (_, slot) in lookups {
                    slot.answer(Response::from(e.clone()));
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
            for (.., slot) in nearests {
                slot.answer(Response::Error {
                    code: ErrorCode::Internal,
                    message: "coalesced query block has a malformed shape".into(),
                });
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
                for (k, queries, slot) in nearests {
                    let mut mine: Vec<Vec<(u32, f64)>> =
                        answers.by_ref().take(queries.rows()).collect();
                    for neighbors in &mut mine {
                        neighbors.truncate(k);
                    }
                    slot.answer(Response::Neighbors(mine));
                }
            }
            Err(e) => {
                for (.., slot) in nearests {
                    slot.answer(Response::from(e.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    use embedstab_quant::Precision;
    use rand::SeedableRng;

    fn tenant(label: &str) -> TenantState {
        let dir = embedstab_pipeline::cache::scratch_dir(label);
        std::fs::remove_dir_all(&dir).ok();
        let mut store = SnapshotStore::open(&dir).expect("open store");
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let base = Embedding::new(Mat::random_normal(12, 4, &mut rng));
        store
            .publish(&base, Precision::new(8), None)
            .expect("bootstrap publish");
        TenantState {
            live: RwLock::new(live_arc(&store).expect("live snapshot")),
            store: Mutex::new(store),
            queue: Mutex::new(VecDeque::new()),
            combining: AtomicBool::new(false),
            max_pending: 8,
            batches: AtomicU64::new(0),
        }
    }

    fn lookup(ids: Vec<u32>, slot: &Arc<Slot>) -> Job {
        Job {
            kind: JobKind::Lookup(ids),
            slot: slot.clone(),
        }
    }

    /// A job queued just before the combiner looks at the queue must find
    /// the role already free, or its owner parks behind a role that is
    /// never handed on. The test holds the queue lock while another thread
    /// drops the role: releasing first is seen at once, looking first
    /// blocks on the lock with the role still held.
    #[test]
    fn the_role_is_released_before_the_combiner_looks_at_the_queue() {
        let state = tenant("server_release_order");
        let combiner = Combiner::try_take(&state).expect("role is free");
        assert!(Combiner::try_take(&state).is_none(), "role is exclusive");
        thread::scope(|scope| {
            let queue = state.queue.lock();
            let dropper = scope.spawn(move || drop(combiner));
            let deadline = Instant::now() + Duration::from_secs(10);
            while state.combining.load(Ordering::SeqCst) && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            let released = !state.combining.load(Ordering::SeqCst);
            drop(queue);
            dropper.join().expect("dropping the role does not panic");
            assert!(released, "role still held while looking at the queue");
        });
    }

    /// Releasing the role with a job queued hands the role to that job's
    /// owner, who then answers it bitwise as the snapshot does alone.
    #[test]
    fn releasing_the_role_hands_it_to_the_owner_of_the_queue_head() {
        let state = tenant("server_hand_off");
        let combiner = Combiner::try_take(&state).expect("role is free");
        let slot = Arc::new(Slot::new());
        state.queue.lock().push_back(lookup(vec![3, 0, 11], &slot));
        drop(combiner);
        assert!(!state.combining.load(Ordering::SeqCst));
        assert!(
            slot.handed_role.load(Ordering::SeqCst),
            "the head's owner is handed the role"
        );
        assert!(slot.wait().is_none());

        let mut combiner = Combiner::try_take(&state).expect("handed role is free");
        combiner.run_until_answered(&slot, 1);
        drop(combiner);
        assert_eq!(state.batches.load(Ordering::SeqCst), 1);
        let want = state
            .live
            .read()
            .try_lookup_batch(&[3, 0, 11])
            .expect("ids");
        match slot.wait() {
            Some(Response::Rows(rows)) => assert_eq!(rows.as_slice(), want.as_slice()),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// A batch that panics still drops the role: its unanswered jobs are
    /// answered `Internal`, the role is free again and the next query is
    /// served.
    #[test]
    fn a_panicking_batch_frees_the_role_and_fails_its_jobs() {
        let state = tenant("server_panic_guard");
        let other = Arc::new(Slot::new());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut combiner = Combiner::try_take(&state).expect("role is free");
            combiner.owners.push(other.clone());
            panic!("batch failed");
        }));
        assert!(outcome.is_err());
        assert!(!state.combining.load(Ordering::SeqCst), "role released");
        match other.wait() {
            Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Internal),
            other => panic!("expected an Internal error, got {other:?}"),
        }

        let mine = Arc::new(Slot::new());
        state.queue.lock().push_back(lookup(vec![1], &mine));
        let mut combiner = Combiner::try_take(&state).expect("role is free again");
        combiner.run_until_answered(&mine, 4);
        drop(combiner);
        assert!(matches!(mine.wait(), Some(Response::Rows(_))));
    }
}
