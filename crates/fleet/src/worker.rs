//! The fleet worker: pulls caches by fingerprint, runs leased slices as
//! shard subprocesses, heartbeats, and streams row files back.
//!
//! Lifecycle, per connection:
//!
//! 1. connect (with retries) and `Hello`; the `Welcome` carries the
//!    [`FleetSpec`] — which binary, which scale, how many shards, and
//!    which world key this fleet runs against;
//! 2. make the world file local ([`ensure_key`]) in the worker's one
//!    cache directory and opportunistically pre-pull every pair file
//!    trained in that world (keyed by its [`pair_fingerprint`]), so a
//!    cold-disk worker starts with exactly the warm state the coordinator
//!    has;
//! 3. lease slices until `Drained`: each `Job` spawns
//!    `<bin> --scale <tag> --shard <i>/<n> --cache-dir …`
//!    in the workdir, polls it while heartbeating the lease, and on
//!    success pushes every `results/*.shard<i>of<n>.jsonl` it produced,
//!    then `Complete`s. A child failure is reported (`Failed`) and the
//!    coordinator re-queues the slice; a `Lost` heartbeat kills the child
//!    and drops the work (someone else owns the slice now).
//!
//! Fault injection for tests and drills: when `FLEET_FAIL_ONCE` names a
//! marker path and the marker does not exist yet, the worker that creates
//! it (an exclusive create, so one worker of many) kills its child
//! mid-slice and exits with status 43 — simulating a machine death. The
//! second incarnation (or a peer) finds the marker and runs clean.
//!
//! No clock reads here (the wallclock lint covers this crate): heartbeat
//! cadence is accounted by summing sleep intervals, which is as accurate
//! as a lease timeout needs.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use embedstab_pipeline::store::{parse_key, CacheFamily};
use embedstab_pipeline::{pair_fingerprint, CacheStore, Scale, ShardFile, CACHE_FORMAT_VERSION};
use embedstab_serve::wire::set_io_timeouts;

use crate::transfer::ensure_key;
use crate::wire::{call, ErrorCode, FleetSpec, Request, Response};
use crate::FleetError;
use embedstab_pipeline::log_line;

/// Environment variable naming a marker file; see the module docs.
pub const FAIL_ONCE_ENV: &str = "FLEET_FAIL_ONCE";

/// How a worker runs.
#[derive(Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// This worker's fleet-unique name (leases are keyed by it).
    pub name: String,
    /// Directory holding the shard binaries the spec may name.
    pub bin_dir: PathBuf,
    /// Working directory for shard subprocesses; row files appear under
    /// `<workdir>/results/`.
    pub workdir: PathBuf,
    /// Local cache directory, for the pulled world and pair files and the
    /// pairs the shards train (passed to shards as `--cache-dir`). A
    /// relative path is taken against the worker's cwd, not the workdir.
    pub cache_dir: PathBuf,
    /// Child poll / sleep quantum.
    pub poll: Duration,
    /// Heartbeat cadence while a slice runs. Keep well under the
    /// coordinator's lease timeout.
    pub heartbeat: Duration,
    /// Connection attempts before giving up on the coordinator.
    pub connect_retries: u32,
    /// Delay between connection attempts.
    pub connect_backoff: Duration,
    /// Socket read/write timeouts (`None` = block forever).
    pub io_timeout: Option<Duration>,
}

/// What a drained worker did, for logs and assertions.
#[derive(Debug, Default)]
pub struct WorkerReport {
    /// Slices this worker completed (in completion order).
    pub completed: Vec<u32>,
    /// Cache keys this worker had to pull from the coordinator.
    pub pulled: Vec<String>,
}

/// Runs the worker to drain: connects, syncs caches, leases slices until
/// the coordinator says `Drained`.
///
/// # Errors
///
/// [`FleetError::CoordinatorGone`] if connecting fails past the retry
/// budget, [`FleetError::FleetFailed`] if the coordinator reports the
/// fleet dead, [`FleetError::SpawnFailed`] if the spec's binary is not in
/// `bin_dir`, plus transport/protocol/store errors as typed.
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerReport, FleetError> {
    // Shards run in the workdir, so a relative cache path would name
    // another directory there: resolve it against this process's cwd once.
    let config = &WorkerConfig {
        cache_dir: std::env::current_dir()?.join(&config.cache_dir),
        ..config.clone()
    };
    let store = CacheStore::open(&config.cache_dir)?;
    fs::create_dir_all(config.workdir.join("results"))?;
    let mut stream = connect(config)?;
    let spec = hello(&mut stream, &config.name)?;
    log_line!(
        "[worker {}] welcome: bin '{}', scale '{}', {} shard(s), world '{}'",
        config.name,
        spec.bin,
        spec.scale,
        spec.shards,
        spec.world_key
    );
    let mut report = WorkerReport::default();
    sync_caches(&mut stream, &store, &spec, config, &mut report)?;
    let bin = config.bin_dir.join(&spec.bin);
    if !bin.exists() {
        return Err(FleetError::SpawnFailed {
            bin: bin.display().to_string(),
            detail: "not found in the worker's bin dir".to_string(),
        });
    }
    loop {
        match call(&mut stream, &Request::Lease)? {
            Response::Job { slice, shards } => {
                run_slice(&mut stream, config, &spec, &bin, slice, shards, &mut report)?;
            }
            Response::Wait { millis } => {
                // The coordinator's hint, bounded so a wild value cannot
                // park the worker.
                std::thread::sleep(Duration::from_millis(millis.min(5_000).max(1)));
            }
            Response::Drained => {
                log_line!(
                    "[worker {}] drained: {} slice(s) completed",
                    config.name,
                    report.completed.len()
                );
                return Ok(report);
            }
            Response::Error {
                code: ErrorCode::FleetFailed,
                message,
            } => return Err(FleetError::FleetFailed { message }),
            other => return Err(FleetError::unexpected("Lease", other)),
        }
    }
}

fn connect(config: &WorkerConfig) -> Result<TcpStream, FleetError> {
    let mut last = String::new();
    for attempt in 0..config.connect_retries.max(1) {
        if attempt > 0 {
            std::thread::sleep(config.connect_backoff);
        }
        match TcpStream::connect(&config.addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                set_io_timeouts(&stream, config.io_timeout).ok();
                return Ok(stream);
            }
            Err(e) => last = e.to_string(),
        }
    }
    Err(FleetError::CoordinatorGone {
        detail: format!(
            "no connection to {} after {} attempt(s): {last}",
            config.addr,
            config.connect_retries.max(1)
        ),
    })
}

fn hello(stream: &mut (impl Read + Write), name: &str) -> Result<FleetSpec, FleetError> {
    match call(
        stream,
        &Request::Hello {
            worker: name.to_string(),
        },
    )? {
        Response::Welcome(spec) => Ok(spec),
        other => Err(FleetError::unexpected("Hello", other)),
    }
}

/// Pulls the fleet's world file if absent, then the warm state that makes
/// shard runs cheap: every current-format pair file of that world.
fn sync_caches(
    stream: &mut (impl Read + Write),
    store: &CacheStore,
    spec: &FleetSpec,
    config: &WorkerConfig,
    report: &mut WorkerReport,
) -> Result<(), FleetError> {
    if ensure_key(stream, store, &spec.world_key)? {
        log_line!(
            "[worker {}] pulled world cache '{}'",
            config.name,
            spec.world_key
        );
        report.pulled.push(spec.world_key.clone());
    }
    // Pair files carry the pair fingerprint of the world they were trained
    // in: the spec's scale at master seed 0, as every bench binary builds it.
    let Ok(scale) = spec.scale.parse::<Scale>() else {
        return Err(FleetError::Protocol {
            detail: format!("spec scale '{}' is no scale", spec.scale),
        });
    };
    let pair_fp = pair_fingerprint(&scale.params(), 0);
    let keys = match call(stream, &Request::CacheKeys)? {
        Response::Keys { keys } => keys,
        other => return Err(FleetError::unexpected("CacheKeys", other)),
    };
    for key in keys {
        let warm = parse_key(&key).is_some_and(|k| {
            matches!(k.family, CacheFamily::Pair(_))
                && (k.version, k.fingerprint) == (CACHE_FORMAT_VERSION, pair_fp)
        });
        if warm && ensure_key(stream, store, &key)? {
            log_line!("[worker {}] pulled pair cache '{key}'", config.name);
            report.pulled.push(key);
        }
    }
    Ok(())
}

/// Removes leftover row files for this exact slice so a retry cannot push
/// a predecessor's output.
fn clean_slice_rows(results: &Path, slice: u32, shards: u32) {
    let Ok(entries) = fs::read_dir(results) else {
        return;
    };
    for entry in entries.flatten() {
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| is_slice_file(n, slice, shards))
        {
            fs::remove_file(entry.path()).ok();
        }
    }
}

/// True if `name` is a row file of shard `slice` of `shards`.
fn is_slice_file(name: &str, slice: u32, shards: u32) -> bool {
    ShardFile::parse(name).is_some_and(|f| (f.index, f.shards) == (slice as usize, shards as usize))
}

fn run_slice(
    stream: &mut (impl Read + Write),
    config: &WorkerConfig,
    spec: &FleetSpec,
    bin: &Path,
    slice: u32,
    shards: u32,
    report: &mut WorkerReport,
) -> Result<(), FleetError> {
    log_line!("[worker {}] running slice {slice}/{shards}", config.name);
    let results = config.workdir.join("results");
    clean_slice_rows(&results, slice, shards);
    let mut child = Command::new(bin)
        .current_dir(&config.workdir)
        .arg("--scale")
        .arg(&spec.scale)
        .arg("--shard")
        .arg(format!("{slice}/{shards}"))
        .arg("--cache-dir")
        .arg(&config.cache_dir)
        .args(&spec.extra)
        // A shard's tables cover only its slice; its rows are what the
        // fleet merges, and its log lines go to the shared stderr.
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| FleetError::SpawnFailed {
            bin: bin.display().to_string(),
            detail: e.to_string(),
        })?;
    maybe_die_once(config, &mut child);
    let status = match supervise(stream, config, &mut child, slice)? {
        Supervision::Exited(status) => status,
        Supervision::LeaseLost => {
            log_line!(
                "[worker {}] lease on slice {slice} lost; dropping the work",
                config.name
            );
            return Ok(());
        }
    };
    if !status.success() {
        log_line!(
            "[worker {}] slice {slice} child failed ({status}); reporting",
            config.name
        );
        let resp = call(
            stream,
            &Request::Failed {
                slice,
                message: format!("shard child exited with {status}"),
            },
        )?;
        if let Response::Error { code, message } = resp {
            return Err(FleetError::Remote { code, message });
        }
        return Ok(());
    }
    push_and_complete(stream, config, &results, slice, shards, report)
}

enum Supervision {
    Exited(std::process::ExitStatus),
    LeaseLost,
}

/// Polls the child while heartbeating the lease. Sleep-interval
/// accounting stands in for a clock.
fn supervise(
    stream: &mut (impl Read + Write),
    config: &WorkerConfig,
    child: &mut Child,
    slice: u32,
) -> Result<Supervision, FleetError> {
    let poll = config.poll.max(Duration::from_millis(1));
    let mut since_heartbeat = Duration::ZERO;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(Supervision::Exited(status)),
            Ok(None) => {}
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                return Err(FleetError::Io(e));
            }
        }
        if since_heartbeat >= config.heartbeat {
            since_heartbeat = Duration::ZERO;
            match call(stream, &Request::Heartbeat { slice }) {
                Ok(Response::Ack) => {}
                Ok(Response::Lost) => {
                    child.kill().ok();
                    child.wait().ok();
                    return Ok(Supervision::LeaseLost);
                }
                Ok(other) => {
                    child.kill().ok();
                    child.wait().ok();
                    return Err(FleetError::unexpected("Heartbeat", other));
                }
                Err(e) => {
                    // The coordinator is unreachable: the child's output
                    // has nowhere to go, so stop burning its CPU.
                    child.kill().ok();
                    child.wait().ok();
                    return Err(e.into());
                }
            }
        }
        std::thread::sleep(poll);
        since_heartbeat += poll;
    }
}

/// Ships every row file this slice produced, then declares it complete.
fn push_and_complete(
    stream: &mut (impl Read + Write),
    config: &WorkerConfig,
    results: &Path,
    slice: u32,
    shards: u32,
    report: &mut WorkerReport,
) -> Result<(), FleetError> {
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(results)?.flatten() {
        if let Some(name) = entry.file_name().to_str() {
            if is_slice_file(name, slice, shards) {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    for name in &names {
        let bytes = fs::read(results.join(name))?;
        match call(
            stream,
            &Request::PushRows {
                slice,
                name: name.clone(),
                bytes,
            },
        )? {
            Response::Ack => {}
            Response::Lost => {
                log_line!(
                    "[worker {}] lease on slice {slice} lost mid-push; dropping",
                    config.name
                );
                return Ok(());
            }
            other => return Err(FleetError::unexpected("PushRows", other)),
        }
    }
    match call(stream, &Request::Complete { slice })? {
        Response::Ack => {
            log_line!(
                "[worker {}] slice {slice} complete ({} row file(s) pushed)",
                config.name,
                names.len()
            );
            report.completed.push(slice);
            Ok(())
        }
        Response::Lost => {
            log_line!(
                "[worker {}] lease on slice {slice} lost at completion; dropping",
                config.name
            );
            Ok(())
        }
        other => Err(FleetError::unexpected("Complete", other)),
    }
}

/// The fault-injection hook: with `FLEET_FAIL_ONCE=<marker>` set and no
/// marker file yet, die mid-slice (killing the child) with status 43.
fn maybe_die_once(config: &WorkerConfig, child: &mut Child) {
    let Ok(marker) = std::env::var(FAIL_ONCE_ENV) else {
        return;
    };
    if !claim_marker(Path::new(&marker)) {
        return;
    }
    // Let the child actually start so the death is genuinely mid-slice.
    std::thread::sleep(Duration::from_millis(150));
    child.kill().ok();
    child.wait().ok();
    log_line!(
        "[worker {}] injected failure: dying mid-slice ({FAIL_ONCE_ENV})",
        config.name
    );
    std::process::exit(43);
}

/// Creates `marker` if it does not exist yet. `create_new` makes the
/// check and the create one step, so of workers starting slices together
/// exactly one claims it.
fn claim_marker(marker: &Path) -> bool {
    fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(marker)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn concurrent_claims_of_one_marker_have_one_winner() {
        let dir = embedstab_pipeline::cache::scratch_dir("fleet_marker_claims");
        fs::create_dir_all(&dir).expect("scratch dir");
        let marker = dir.join("fail_once.marker");
        fs::remove_file(&marker).ok();
        let barrier = Arc::new(Barrier::new(8));
        let winners: usize = (0..8)
            .map(|_| {
                let (barrier, marker) = (barrier.clone(), marker.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    claim_marker(&marker)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| usize::from(t.join().expect("claim thread")))
            .sum();
        assert_eq!(winners, 1, "exactly one worker may claim the marker");
        assert!(!claim_marker(&marker), "a claimed marker stays claimed");
        assert!(!claim_marker(Path::new("")), "an empty path claims nothing");
        fs::remove_dir_all(&dir).ok();
    }
}
