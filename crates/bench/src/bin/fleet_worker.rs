//! Fleet worker: connects to a `fleet_coordinator`, pulls caches by
//! fingerprint, and runs leased shard slices until the fleet drains.
//!
//! ```text
//! usage: fleet_worker --addr host:port [--name s] [--bin-dir dir] [--workdir dir]
//!          [--cache-dir <dir>] [--poll-ms MS]
//!          [--heartbeat-ms MS] [--connect-retries N] [--connect-backoff-ms MS]
//!          [--io-timeout-secs S]
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

use embedstab_bench::Cli;
use embedstab_fleet::{run_worker, FleetError, WorkerConfig};
use embedstab_pipeline::log_line;

const USAGE: &str =
    "usage: fleet_worker --addr host:port [--name s] [--bin-dir dir] [--workdir dir]\n\
    \x20        [--cache-dir <dir>] [--poll-ms MS]\n\
    \x20        [--heartbeat-ms MS] [--connect-retries N] [--connect-backoff-ms MS]\n\
    \x20        [--io-timeout-secs S]";

fn main() {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."));
    let mut config = WorkerConfig {
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
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next() {
        let millis = |cli: &mut Cli| Duration::from_millis(cli.parse(&flag));
        match flag.as_str() {
            "--addr" => config.addr = cli.value(&flag),
            "--name" => config.name = cli.value(&flag),
            "--bin-dir" => config.bin_dir = PathBuf::from(cli.value(&flag)),
            "--workdir" => config.workdir = PathBuf::from(cli.value(&flag)),
            "--cache-dir" => config.cache_dir = PathBuf::from(cli.value(&flag)),
            "--poll-ms" => config.poll = millis(&mut cli),
            "--heartbeat-ms" => config.heartbeat = millis(&mut cli),
            "--connect-retries" => config.connect_retries = cli.parse(&flag),
            "--connect-backoff-ms" => config.connect_backoff = millis(&mut cli),
            "--io-timeout-secs" => {
                let secs: u64 = cli.parse(&flag);
                config.io_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            _ => cli.unknown(&flag),
        }
    }
    if config.addr.is_empty() {
        cli.fail("missing --addr host:port");
    }
    match run_worker(&config) {
        Ok(report) => {
            log_line!(
                "[fleet_worker] drained: completed {:?}, pulled {} cache file(s)",
                report.completed,
                report.pulled.len()
            );
        }
        Err(e) => {
            log_line!("[fleet_worker] error: {e}");
            let failed = matches!(e, FleetError::FleetFailed { .. });
            std::process::exit(if failed { 1 } else { 2 });
        }
    }
}
