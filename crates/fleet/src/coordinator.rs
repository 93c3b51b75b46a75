//! The fleet coordinator: serves the work queue and the cache store over
//! TCP, stages pushed rows, and commits them only on completion.
//!
//! The transport is `embedstab_serve::wire`'s, shared with the serve
//! front-end: [`listen`] runs the accept loop and one thread per worker
//! connection, and this module is only the fleet protocol's [`Handler`]
//! — `dispatch` answers one request, and `closed` releases the leases of
//! a connection torn down.
//! The caller's thread sits in [`run_coordinator`] polling the queue
//! until it drains or a slice exhausts its attempts. Time is injected
//! (`now_ms` closure) so this crate never reads a clock; the bench binary
//! supplies a monotonic epoch.
//!
//! Correctness properties, pinned by `crates/bench/tests/fleet.rs`:
//!
//! - **No panics on worker bytes.** Malformed frames, unknown ops, bad
//!   keys, out-of-range chunks and slices all become typed
//!   [`wire::ErrorCode`] responses.
//! - **Staged commits.** `PushRows` lands in memory, keyed by slice, and
//!   is accepted only from the slice's current leaseholder; granting a
//!   slice clears its staging. Row files reach `results_dir` (atomically)
//!   only when `Complete` arrives while the lease is still held — a
//!   worker that dies mid-slice leaves **zero** bytes on disk, which is
//!   what makes the re-dispatched merge bitwise equal to an unsharded
//!   run.
//! - **Crash-fast re-dispatch.** A dropped connection releases every
//!   lease its worker held (no need to wait out the heartbeat timeout);
//!   heartbeat expiry covers hangs.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use embedstab_corpus::codec::{self, atomic_write};
use embedstab_pipeline::{store, CacheStore, ShardFile};
use embedstab_serve::wire::{listen, Handler, Stop};
use parking_lot::Mutex;

use crate::queue::{LeaseOutcome, QueueConfig, WorkQueue};
use crate::transfer::chunk_range;
use crate::wire::{ErrorCode, FleetSpec, Request, Response};
use crate::FleetError;
use embedstab_pipeline::log_line;

/// One pushed row file may not exceed this (staged in memory until
/// commit; a frame caps near 16 MiB anyway).
const MAX_ROW_FILE_BYTES: usize = 12 << 20;

/// Everything a coordinator run needs beyond the listener and the store.
pub struct CoordinatorConfig {
    /// What every worker is told to run.
    pub spec: FleetSpec,
    /// Lease/retry tuning.
    pub queue: QueueConfig,
    /// Per-connection socket read/write timeouts (`None` = blocking
    /// forever). Should comfortably exceed the workers' poll cadence.
    pub io_timeout: Option<Duration>,
    /// Where committed row files land (the merge reads them from here).
    pub results_dir: PathBuf,
    /// How long to keep answering `Drained` after the last commit, so
    /// polling workers learn the fleet is done before the socket closes.
    pub linger: Duration,
    /// Poll cadence of the supervising loop.
    pub poll: Duration,
}

impl CoordinatorConfig {
    /// A config with library defaults for everything but the spec and
    /// results directory.
    pub fn new(spec: FleetSpec, results_dir: PathBuf) -> CoordinatorConfig {
        CoordinatorConfig {
            spec,
            queue: QueueConfig::default(),
            io_timeout: Some(Duration::from_secs(120)),
            results_dir,
            linger: Duration::from_millis(1_000),
            poll: Duration::from_millis(25),
        }
    }
}

struct Shared {
    spec: FleetSpec,
    store: CacheStore,
    queue: Mutex<WorkQueue>,
    /// Pushed-but-uncommitted row files: slice → name → bytes. Cleared
    /// when the slice is granted (fresh dispatch starts clean), drained
    /// to disk on `Complete` from the holder.
    staged: Mutex<BTreeMap<u32, BTreeMap<String, Vec<u8>>>>,
    results_dir: PathBuf,
    /// Set once the queue drains — `Lease` answers `Drained` from then on.
    drained: AtomicBool,
    /// Set once a slice exhausts its attempts — `Lease` answers a
    /// `FleetFailed` error from then on.
    failed: AtomicBool,
    now_ms: Box<dyn Fn() -> u64 + Send + Sync>,
}

/// Runs a fleet to completion: accepts workers on `listener`, dispatches
/// every slice of `config.spec`, and returns once all row files are
/// committed under `config.results_dir` (after a short linger so workers
/// hear `Drained`).
///
/// `now_ms` must be monotonic; it is the only clock the coordinator has.
///
/// # Errors
///
/// [`FleetError::Exhausted`] when a slice burns through
/// [`QueueConfig::max_attempts`], [`FleetError::Io`] if the listener
/// cannot be inspected or the accept thread cannot spawn.
pub fn run_coordinator(
    listener: TcpListener,
    store: CacheStore,
    config: CoordinatorConfig,
    now_ms: impl Fn() -> u64 + Send + Sync + 'static,
) -> Result<(), FleetError> {
    let stop = Stop::new(&listener)?;
    let shared = Arc::new(Shared {
        queue: Mutex::new(WorkQueue::new(config.spec.shards, config.queue)),
        spec: config.spec,
        store,
        staged: Mutex::new(BTreeMap::new()),
        results_dir: config.results_dir,
        drained: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        now_ms: Box::new(now_ms),
    });
    listen(
        listener,
        shared.clone(),
        stop.clone(),
        config.io_timeout,
        "fleet",
    )?;
    let outcome = loop {
        let now = (shared.now_ms)();
        let (drained, exhausted, expired) = {
            let mut queue = shared.queue.lock();
            (queue.is_drained(), queue.exhausted(), queue.expire(now))
        };
        for slice in expired {
            log_line!("[fleet] lease on slice {slice} expired; requeued");
        }
        if let Some((slice, attempts)) = exhausted {
            shared.failed.store(true, Ordering::SeqCst);
            break Err(FleetError::Exhausted { slice, attempts });
        }
        if drained {
            shared.drained.store(true, Ordering::SeqCst);
            break Ok(());
        }
        thread::sleep(config.poll);
    };
    // Let polling workers hear Drained / FleetFailed before the socket
    // disappears.
    thread::sleep(config.linger);
    stop.stop();
    outcome
}

/// Per-connection state: the worker's declared name (set by `Hello`) and
/// a one-file cache for chunked pulls so a 100-chunk transfer does not
/// re-read and re-verify the file 100 times.
#[derive(Default)]
struct Connection {
    worker: Option<String>,
    served_file: Option<(String, Arc<Vec<u8>>)>,
}

/// Requeues every lease `worker` holds (connection drop or re-`Hello`).
fn release(shared: &Shared, worker: &str, why: &str) {
    let now = (shared.now_ms)();
    let released = shared.queue.lock().release_worker(worker, now);
    for slice in &released {
        log_line!("[fleet] worker '{worker}' {why}; slice {slice} requeued");
    }
}

impl Handler for Shared {
    type Request = Request;
    type Conn = Connection;

    fn dispatch(&self, conn: &mut Connection, req: Request) -> Response {
        if let Request::Hello { worker } = &req {
            // A reconnect under the same name frees whatever the previous
            // incarnation held, instead of waiting out its lease.
            release(self, worker, "reconnected");
            conn.worker = Some(worker.clone());
            return Response::Welcome(self.spec.clone());
        }
        let Some(worker) = conn.worker.clone() else {
            return Response::error(ErrorCode::MustHello, "send Hello before any other request");
        };
        let now = (self.now_ms)();
        match req {
            Request::Hello { .. } => {
                Response::error(ErrorCode::Internal, "unreachable: Hello handled above")
            }
            Request::Lease => {
                if self.failed.load(Ordering::SeqCst) {
                    return Response::error(
                        ErrorCode::FleetFailed,
                        "a slice ran out of dispatch attempts",
                    );
                }
                if self.drained.load(Ordering::SeqCst) {
                    return Response::Drained;
                }
                // Hoisted out of the match scrutinee: a scrutinee temporary
                // would hold the queue guard through every arm, pinning it
                // across the staged-map lock and console IO below.
                let outcome = self.queue.lock().lease(&worker, now);
                match outcome {
                    LeaseOutcome::Job { slice } => {
                        // A fresh dispatch starts with clean staging — any
                        // partial pushes from a dead predecessor vanish here.
                        self.staged.lock().remove(&slice);
                        log_line!("[fleet] slice {slice} leased to '{worker}'");
                        Response::Job {
                            slice,
                            shards: self.spec.shards,
                        }
                    }
                    LeaseOutcome::Wait { millis } => Response::Wait { millis },
                    LeaseOutcome::Drained => {
                        self.drained.store(true, Ordering::SeqCst);
                        Response::Drained
                    }
                    LeaseOutcome::Exhausted { slice, attempts } => {
                        self.failed.store(true, Ordering::SeqCst);
                        Response::error(
                            ErrorCode::FleetFailed,
                            format!("slice {slice} failed {attempts} dispatch attempts"),
                        )
                    }
                }
            }
            Request::Heartbeat { slice } => {
                if slice >= self.spec.shards {
                    return unknown_slice(slice, self.spec.shards);
                }
                if self.queue.lock().heartbeat(&worker, slice, now) {
                    Response::Ack
                } else {
                    Response::Lost
                }
            }
            Request::CacheKeys => match self.store.keys() {
                Ok(keys) => Response::Keys { keys },
                Err(e) => Response::error(
                    ErrorCode::Internal,
                    format!("listing cache keys failed: {e}"),
                ),
            },
            Request::CacheGet { key, chunk } => serve_chunk(self, conn, &key, chunk),
            Request::PushRows { slice, name, bytes } => {
                if slice >= self.spec.shards {
                    return unknown_slice(slice, self.spec.shards);
                }
                if self.queue.lock().holder(slice) != Some(worker.as_str()) {
                    return Response::Lost;
                }
                if let Some(detail) = row_file_objection(&name, slice, self.spec.shards, &bytes) {
                    return Response::error(ErrorCode::BadRowFile, detail);
                }
                self.staged
                    .lock()
                    .entry(slice)
                    .or_default()
                    .insert(name, bytes);
                Response::Ack
            }
            Request::Complete { slice } => {
                if slice >= self.spec.shards {
                    return unknown_slice(slice, self.spec.shards);
                }
                if !self.queue.lock().complete(&worker, slice, now) {
                    return Response::Lost;
                }
                let files = self.staged.lock().remove(&slice).unwrap_or_default();
                let count = files.len();
                for (name, bytes) in files {
                    let path = self.results_dir.join(&name);
                    if let Err(e) = atomic_write(&path, &bytes) {
                        return Response::error(
                            ErrorCode::Internal,
                            format!("committing '{name}' failed: {e}"),
                        );
                    }
                }
                log_line!("[fleet] slice {slice} complete: {count} row file(s) committed");
                Response::Ack
            }
            Request::Failed { slice, message } => {
                if slice >= self.spec.shards {
                    return unknown_slice(slice, self.spec.shards);
                }
                log_line!("[fleet] worker '{worker}' failed slice {slice}: {message}");
                self.queue.lock().fail(&worker, slice, now);
                Response::Ack
            }
        }
    }

    /// The worker is gone: its leases go straight back to the queue, with
    /// no heartbeat wait.
    fn closed(&self, conn: Connection) {
        if let Some(worker) = &conn.worker {
            release(self, worker, "disconnected");
        }
    }
}

fn unknown_slice(slice: u32, shards: u32) -> Response {
    Response::error(
        ErrorCode::UnknownSlice,
        format!("slice {slice} is outside 0..{shards}"),
    )
}

/// Why a pushed row file is unacceptable, or `None` if it is fine. The
/// name must be a bare `<stem>.shard<i>of<n>.jsonl` whose suffix agrees
/// with the leased slice and the fleet's shard count.
fn row_file_objection(name: &str, slice: u32, shards: u32, bytes: &[u8]) -> Option<String> {
    if bytes.len() > MAX_ROW_FILE_BYTES {
        return Some(format!(
            "row file '{name}' is {} bytes (cap {MAX_ROW_FILE_BYTES})",
            bytes.len()
        ));
    }
    if name.contains('/') || name.contains('\\') || name.contains("..") {
        return Some(format!("row file name '{name}' is not a bare file name"));
    }
    match ShardFile::parse(name) {
        Some(f) if (f.index, f.shards) == (slice as usize, shards as usize) => None,
        Some(f) => Some(format!(
            "row file '{name}' claims shard {}of{}, lease is {slice}of{shards}",
            f.index, f.shards
        )),
        None => Some(format!(
            "row file '{name}' does not match <stem>.shard<i>of<n>.jsonl"
        )),
    }
}

fn serve_chunk(shared: &Shared, conn: &mut Connection, key: &str, chunk: u32) -> Response {
    if store::parse_key(key).is_none() {
        return Response::error(
            ErrorCode::BadKey,
            format!("'{key}' is not a well-formed cache key"),
        );
    }
    let bytes = match &conn.served_file {
        Some((k, bytes)) if k == key => bytes.clone(),
        _ => match shared.store.get(key) {
            Ok(Some(bytes)) => {
                let bytes = Arc::new(bytes);
                conn.served_file = Some((key.to_string(), bytes.clone()));
                bytes
            }
            Ok(None) => {
                return Response::error(
                    ErrorCode::UnknownKey,
                    format!("cache key '{key}' is not present"),
                )
            }
            Err(e) => {
                return Response::error(ErrorCode::Internal, format!("reading '{key}' failed: {e}"))
            }
        },
    };
    let Some(range) = chunk_range(bytes.len(), chunk) else {
        return Response::error(
            ErrorCode::ChunkOutOfRange,
            format!(
                "chunk {chunk} is out of range for '{key}' ({} bytes)",
                bytes.len()
            ),
        );
    };
    let total_len = bytes.len() as u64;
    Response::Chunk {
        total_len,
        chunks: crate::transfer::chunk_count(bytes.len()),
        // `store.get` unsealed the file: advertise its header's checksum.
        content_hash: codec::stored_checksum(&bytes).unwrap_or_default(),
        bytes: bytes[range].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_names_parse_and_reject() {
        let parse = |name: &str| ShardFile::parse(name).map(|f| (f.index, f.shards));
        assert_eq!(parse("rows_sst2_tiny.shard1of2.jsonl"), Some((1, 2)));
        assert_eq!(parse("a.b.c.shard0of16.jsonl"), Some((0, 16)));
        assert_eq!(parse("rows.shardof2.jsonl"), None);
        assert_eq!(parse("rows.shard1of.jsonl"), None);
        assert_eq!(parse("rows.shard1of2.json"), None);
        assert_eq!(parse("shard1of2.jsonl"), None);
        assert_eq!(parse("rows.shard-1of2.jsonl"), None);
    }

    #[test]
    fn row_file_objections() {
        assert_eq!(
            row_file_objection("rows_sst2_tiny.shard1of2.jsonl", 1, 2, b"{}"),
            None
        );
        assert!(row_file_objection("../evil.shard1of2.jsonl", 1, 2, b"{}").is_some());
        assert!(row_file_objection("a/b.shard1of2.jsonl", 1, 2, b"{}").is_some());
        assert!(row_file_objection("rows.shard0of2.jsonl", 1, 2, b"{}").is_some());
        assert!(row_file_objection("rows.shard1of4.jsonl", 1, 2, b"{}").is_some());
        assert!(row_file_objection("rows.jsonl", 1, 2, b"{}").is_some());
        let big = vec![0u8; MAX_ROW_FILE_BYTES + 1];
        assert!(row_file_objection("rows.shard1of2.jsonl", 1, 2, &big).is_some());
    }
}
