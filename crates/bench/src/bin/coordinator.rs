//! Shard coordinator: a `Paper`-scale grid on a many-core box as **one
//! command**.
//!
//! ```text
//! usage: coordinator --shards N [--bin name-or-path] [--scale tiny|small|paper]
//!          [--cache-dir <dir>] [-- args forwarded to shards]
//! ```
//!
//! It is a loopback fleet: the `fleet_coordinator` run (see
//! [`embedstab_bench::run_fleet`]) bound to `127.0.0.1`, with `--shards`
//! local `fleet_worker` processes. So it
//!
//! 1. **builds (or loads) the world exactly once** into the cache
//!    directory (`--cache-dir`, default `cache`);
//! 2. **starts one `fleet_worker` per shard**, each on this coordinator's
//!    own cache directory — so nothing is pulled, every shard loads the
//!    world instead of rebuilding it, and the pairs the shards train stay
//!    there for the next run — and in a private working
//!    directory, so only committed rows reach `results/`. Workers lease
//!    slices, and a slice whose worker dies is re-dispatched;
//! 3. **merges** the committed `results/<stem>.shard<i>of<n>.jsonl` files
//!    through the validated `merge_rows` path into the canonical
//!    `results/<stem>.jsonl`, byte for byte the file the unsharded run
//!    writes (the bench crate's `coordinator` integration test pins
//!    this). Running the same binary unsharded afterwards, in the same
//!    directory, prints its output from these rows without recomputing.
//!
//! Workers and their shards log to this process's stderr, each line
//! written whole (`embedstab_pipeline::log_line!`); the shards' partial
//! per-slice tables are not kept. The shard
//! binary is resolved next to the coordinator executable by default; pass
//! a path (anything containing a separator) to override. Everything after
//! a bare `--` is forwarded to every shard verbatim.
//!
//! Exits 0 with everything merged, 1 when a slice exhausts its dispatch
//! attempts or every worker exits before the fleet drains, 2 on usage
//! errors.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::thread::{self, JoinHandle};

use embedstab_bench::{resolve_bin, run_fleet, Cli, FleetArgs};
use embedstab_pipeline::log_line;

const USAGE: &str =
    "usage: coordinator --shards N [--bin name-or-path] [--scale tiny|small|paper]\n\
    \x20        [--cache-dir <dir>] [-- args forwarded to shards]";

/// What every local worker is started with.
struct Workers {
    exe: PathBuf,
    bin_dir: PathBuf,
    cache_dir: PathBuf,
    workdir: PathBuf,
}

fn absolute(path: &Path) -> PathBuf {
    std::path::absolute(path).unwrap_or_else(|e| panic!("cannot resolve {}: {e}", path.display()))
}

fn main() {
    let mut cli = Cli::new(USAGE);
    let mut args = FleetArgs::default();
    while let Some(flag) = cli.next() {
        args.read(&flag, &mut cli);
    }
    let mut args = args.checked(&cli);
    // Workers resolve the spec's bare binary name in their --bin-dir.
    let bin = absolute(&resolve_bin(&args.config.spec.bin));
    let (Some(bin_dir), Some(name)) = (bin.parent(), bin.file_name().and_then(|n| n.to_str()))
    else {
        panic!("--bin {} names no file", bin.display());
    };
    args.config.spec.bin = name.to_string();
    let workers = Workers {
        exe: resolve_bin("fleet_worker"),
        bin_dir: bin_dir.to_path_buf(),
        cache_dir: absolute(&args.cache_dir),
        workdir: std::env::temp_dir().join(format!("embedstab-coordinator-{}", std::process::id())),
    };
    let shards = args.config.spec.shards;
    let mut reaper = None;
    let status = run_fleet("coordinator", args, "127.0.0.1:0", |addr| {
        reaper = Some(start_workers(&workers, addr, shards));
    });
    if let Some(reaper) = reaper {
        reaper.join().expect("reaper thread");
    }
    std::process::exit(status);
}

/// Starts one worker per shard and a thread that reaps them and removes
/// their working directories. A worker exits 0 once the fleet drained and
/// 1 once it failed; when every worker has exited without either (a
/// missing shard binary, say), the coordinator would wait forever, so
/// that thread ends the process with status 1.
fn start_workers(workers: &Workers, addr: SocketAddr, shards: u32) -> JoinHandle<()> {
    let children: Vec<_> = (0..shards)
        .map(|i| {
            let name = format!("local-{i}");
            let child = Command::new(&workers.exe)
                .args(["--addr", &addr.to_string(), "--name", &name])
                .arg("--bin-dir")
                .arg(&workers.bin_dir)
                .arg("--workdir")
                .arg(workers.workdir.join(&name))
                .arg("--cache-dir")
                .arg(&workers.cache_dir)
                .spawn()
                .unwrap_or_else(|e| panic!("cannot start worker {name}: {e}"));
            (name, child)
        })
        .collect();
    let workdir = workers.workdir.clone();
    thread::spawn(move || {
        let mut settled = false;
        for (name, mut child) in children {
            let status = child
                .wait()
                .unwrap_or_else(|e| panic!("cannot wait for worker {name}: {e}"));
            log_line!("[coordinator] worker {name} exited ({status})");
            settled |= matches!(status.code(), Some(0 | 1));
        }
        std::fs::remove_dir_all(&workdir).ok();
        if !settled {
            log_line!("[coordinator] every worker exited before the fleet settled; not merging");
            std::process::exit(1);
        }
    })
}
