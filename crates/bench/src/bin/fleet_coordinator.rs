//! Fleet coordinator: serves a sharded grid to `fleet_worker`s on any
//! machine.
//!
//! ```text
//! usage: fleet_coordinator --shards N [--bind host:port] [--bin name]
//!          [--scale tiny|small|paper] [--cache-dir <dir>]
//!          [--lease-timeout-ms MS] [--max-attempts N] [--io-timeout-secs S]
//!          [--linger-ms MS] [-- args forwarded to every worker's shards]
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

use embedstab_bench::{run_fleet, Cli, FleetArgs};

const USAGE: &str = "usage: fleet_coordinator --shards N [--bind host:port] [--bin name]\n\
    \x20        [--scale tiny|small|paper] [--cache-dir <dir>]\n\
    \x20        [--lease-timeout-ms MS] [--max-attempts N] [--io-timeout-secs S]\n\
    \x20        [--linger-ms MS] [-- args forwarded to every worker's shards]";

fn main() {
    let mut cli = Cli::new(USAGE);
    let mut args = FleetArgs::default();
    let mut bind = "127.0.0.1:0".to_string();
    while let Some(flag) = cli.next() {
        let config = &mut args.config;
        match flag.as_str() {
            "--bind" => bind = cli.value(&flag),
            "--lease-timeout-ms" => config.queue.lease_timeout_ms = cli.parse(&flag),
            "--max-attempts" => config.queue.max_attempts = cli.parse(&flag),
            "--io-timeout-secs" => {
                let secs: u64 = cli.parse(&flag);
                config.io_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--linger-ms" => config.linger = Duration::from_millis(cli.parse(&flag)),
            _ => args.read(&flag, &mut cli),
        }
    }
    let args = args.checked(&cli);
    let bin = &args.config.spec.bin;
    if bin.contains('/') || bin.contains('\\') {
        cli.fail("--bin must be a bare binary name (workers resolve it in their own bin dir)");
    }
    std::process::exit(run_fleet("fleet_coordinator", args, &bind, |_| {}));
}
