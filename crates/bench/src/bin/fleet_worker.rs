//! Fleet worker: connects to a `fleet_coordinator`, pulls caches by
//! fingerprint, and runs leased shard slices until the fleet drains.
//!
//! ```text
//! fleet_worker --addr host:7701 [--name w1] [--workdir dir]
//!     [--cache-dir cache] [--bin-dir dir] [--heartbeat-ms MS]
//!     [--connect-retries N]
//! ```
//!
//! The worker needs no pre-staged data: the `Welcome` names the world
//! key, the worker pulls that file (and any pair files for that world)
//! into its cache directory (`--cache-dir`, default `cache`, taken
//! against the worker's cwd) chunk by chunk with receipt-time
//! verification, then loops
//! leasing slices. Each slice runs the spec's shard binary — resolved in
//! `--bin-dir`, defaulting to this executable's own directory — in the
//! workdir, and the produced `results/*.shard<i>of<n>.jsonl` files are
//! streamed back before the slice is declared complete.
//!
//! Exits 0 when the coordinator drains the fleet, 1 when it reports the
//! fleet failed, 2 on other errors, 43 when the `FLEET_FAIL_ONCE` fault
//! injection fires (see `embedstab_fleet`).

use std::path::PathBuf;
use std::time::Duration;

use embedstab_fleet::{run_worker, FleetError, WorkerConfig};

fn parse_args() -> WorkerConfig {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."));
    let mut out = WorkerConfig {
        addr: String::new(),
        name: format!("worker-{}", std::process::id()),
        bin_dir: exe_dir,
        workdir: PathBuf::from("."),
        cache_dir: PathBuf::from("cache"),
        poll: Duration::from_millis(25),
        heartbeat: Duration::from_millis(2_000),
        connect_retries: 10,
        connect_backoff: Duration::from_millis(300),
        io_timeout: Some(Duration::from_secs(120)),
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let millis = |v: String, flag: &str| {
        Duration::from_millis(
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} needs milliseconds"))),
        )
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => out.addr = next(&mut args, "--addr"),
            "--name" => out.name = next(&mut args, "--name"),
            "--bin-dir" => out.bin_dir = PathBuf::from(next(&mut args, "--bin-dir")),
            "--workdir" => out.workdir = PathBuf::from(next(&mut args, "--workdir")),
            "--cache-dir" => out.cache_dir = PathBuf::from(next(&mut args, "--cache-dir")),
            "--poll-ms" => out.poll = millis(next(&mut args, "--poll-ms"), "--poll-ms"),
            "--heartbeat-ms" => {
                out.heartbeat = millis(next(&mut args, "--heartbeat-ms"), "--heartbeat-ms");
            }
            "--connect-retries" => {
                out.connect_retries = next(&mut args, "--connect-retries")
                    .parse()
                    .unwrap_or_else(|_| usage("--connect-retries needs a count"));
            }
            "--connect-backoff-ms" => {
                out.connect_backoff = millis(
                    next(&mut args, "--connect-backoff-ms"),
                    "--connect-backoff-ms",
                );
            }
            "--io-timeout-secs" => {
                let secs: u64 = next(&mut args, "--io-timeout-secs")
                    .parse()
                    .unwrap_or_else(|_| usage("--io-timeout-secs needs seconds (0 = none)"));
                out.io_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if out.addr.is_empty() {
        usage("missing --addr host:port");
    }
    out
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: fleet_worker --addr host:port [--name s] [--bin-dir dir] [--workdir dir]\n\
         \x20        [--cache-dir <dir>] [--poll-ms MS]\n\
         \x20        [--heartbeat-ms MS] [--connect-retries N] [--connect-backoff-ms MS]\n\
         \x20        [--io-timeout-secs S]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let config = parse_args();
    match run_worker(&config) {
        Ok(report) => {
            eprintln!(
                "[fleet_worker] drained: completed {:?}, pulled {} cache file(s)",
                report.completed,
                report.pulled.len()
            );
        }
        Err(e) => {
            eprintln!("[fleet_worker] error: {e}");
            let failed = matches!(e, FleetError::FleetFailed { .. });
            std::process::exit(if failed { 1 } else { 2 });
        }
    }
}
