//! Fleet coordinator: serves a sharded grid to `fleet_worker`s on any
//! machine.
//!
//! ```text
//! fleet_coordinator --shards 8 --bind 0.0.0.0:7701 \
//!     --bin fig2_memory_tradeoff --scale paper \
//!     [--cache-dir cache] [-- extra args...]
//! ```
//!
//! Where `coordinator` starts its own workers on this box, this binary
//! serves the shard work queue over TCP to `fleet_worker` processes on
//! **any** machine (both run [`embedstab_bench::run_fleet`]):
//!
//! 1. builds (or loads) the world exactly once into the cache directory
//!    (`--cache-dir`, default `cache`) — workers then pull that exact file
//!    by its content-addressed key instead of rebuilding;
//! 2. serves leases with heartbeat timeouts: a worker that dies or hangs
//!    mid-slice has its slice re-dispatched (capped backoff, bounded
//!    attempts), and row files are committed only on completion, so the
//!    merged output is bitwise identical to an unsharded run no matter
//!    how many workers died along the way;
//! 3. fans committed shard rows in through the validated `merge_rows`
//!    path, writing the canonical `results/<stem>.jsonl` that the
//!    unsharded binary reads.
//!
//! The tuning flags override the fleet crate's defaults
//! (`CoordinatorConfig::new`). Exits 0 with everything merged, 1 when a
//! slice exhausts its dispatch attempts (the fleet failed), 2 on usage
//! errors.

use std::time::Duration;

use embedstab_bench::{exit_usage, parse_fleet_args, run_fleet};

const USAGE: &str = "usage: fleet_coordinator --shards N [--bind host:port] [--bin name]\n\
    \x20        [--scale tiny|small|paper] [--cache-dir <dir>]\n\
    \x20        [--lease-timeout-ms MS] [--max-attempts N] [--io-timeout-secs S]\n\
    \x20        [--linger-ms MS] [-- args forwarded to every worker's shards]";

fn main() {
    let mut bind = "127.0.0.1:0".to_string();
    let args = parse_fleet_args(USAGE, |flag, value, config| {
        let needs = |what: &str| format!("{flag} needs {what}");
        match flag {
            "--bind" => bind = value(),
            "--lease-timeout-ms" => {
                config.queue.lease_timeout_ms =
                    value().parse().map_err(|_| needs("milliseconds"))?;
            }
            "--max-attempts" => {
                config.queue.max_attempts =
                    value().parse().map_err(|_| needs("a positive integer"))?;
            }
            "--io-timeout-secs" => {
                let secs: u64 = value().parse().map_err(|_| needs("seconds (0 = none)"))?;
                config.io_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--linger-ms" => {
                let millis = value().parse().map_err(|_| needs("milliseconds"))?;
                config.linger = Duration::from_millis(millis);
            }
            _ => return Ok(false),
        }
        Ok(true)
    });
    let bin = &args.config.spec.bin;
    if bin.contains('/') || bin.contains('\\') {
        let err = "--bin must be a bare binary name (workers resolve it in their own bin dir)";
        exit_usage(USAGE, err);
    }
    std::process::exit(run_fleet("fleet_coordinator", args, &bind, |_| {}));
}
