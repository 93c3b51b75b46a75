//! The serving front-end binary: a threaded TCP server answering the
//! `embedstab_serve::wire` protocol from an on-disk snapshot store.
//!
//! ```text
//! usage: serve_front --snapshot-dir PATH [--bootstrap-tiny] [--addr HOST:PORT]
//!          [--tenant NAME] [--max-batch N] [--max-pending N]
//!
//! # Bootstrap a Tiny-scale snapshot (CBOW on the synthetic '17 corpus)
//! # into ./serve-data and start serving it:
//! cargo run --release -p embedstab_bench --bin serve_front -- \
//!     --snapshot-dir serve-data --bootstrap-tiny --addr 127.0.0.1:7878
//! ```
//!
//! Prints `listening on <addr>` once the socket is bound (the load
//! generator and the CI smoke step wait for that line), then serves until
//! killed. A lone query is answered at once; queries that queue while a
//! batch runs are coalesced into the next batched snapshot call (at most
//! `--max-batch`); `--max-pending` bounds each tenant's queue, past which
//! requests are refused with `Overloaded` instead of queueing without
//! bound. An unknown flag prints the usage line and exits 2.
//!
//! Every malformed frame, unknown tenant, out-of-range id, wrong-dim
//! query, `k = 0`, or empty batch is answered with a typed error response;
//! the process never panics on client bytes (`serve_loadgen --fuzz`
//! drives exactly that contract).

use std::net::TcpListener;
use std::process::exit;
use std::time::Duration;

use embedstab_bench::Cli;
use embedstab_embeddings::{train_embedding, Algo};
use embedstab_pipeline::{Scale, World};
use embedstab_quant::Precision;
use embedstab_serve::{serve, ServerConfig, SnapshotStore, TenantConfig};

const USAGE: &str =
    "usage: serve_front --snapshot-dir PATH [--bootstrap-tiny] [--addr HOST:PORT]\n\
    \x20        [--tenant NAME] [--max-batch N] [--max-pending N]";

fn main() {
    let mut cli = Cli::new(USAGE);
    let mut dir = None;
    let mut bootstrap = false;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut tenant = "default".to_string();
    let mut max_batch: usize = 64;
    let mut max_pending: usize = 1024;
    while let Some(flag) = cli.next() {
        match flag.as_str() {
            "--snapshot-dir" => dir = Some(cli.value(&flag)),
            "--bootstrap-tiny" => bootstrap = true,
            "--addr" => addr = cli.value(&flag),
            "--tenant" => tenant = cli.value(&flag),
            "--max-batch" => max_batch = cli.parse(&flag),
            "--max-pending" => max_pending = cli.parse(&flag),
            _ => cli.unknown(&flag),
        }
    }
    let Some(dir) = dir else {
        cli.fail("--snapshot-dir is required")
    };

    let mut store = SnapshotStore::open(&dir).unwrap_or_else(|e| {
        eprintln!("serve_front: cannot open snapshot store {dir}: {e}");
        exit(1)
    });
    if store.live().is_none() {
        if !bootstrap {
            eprintln!(
                "serve_front: store {dir} has no live snapshot; \
                 pass --bootstrap-tiny to build one at Tiny scale"
            );
            exit(1)
        }
        // The same deterministic world every Tiny-scale binary builds
        // (master seed 0), so the served vectors are reproducible.
        eprintln!("bootstrapping a Tiny-scale snapshot into {dir} ...");
        let params = Scale::Tiny.params();
        let world = World::build(&params, 0);
        let embedding = train_embedding(Algo::Cbow, &world.stats17, world.vocab(), 16, 0);
        let version = store
            .publish(&embedding, Precision::new(8), None)
            .unwrap_or_else(|e| {
                eprintln!("serve_front: bootstrap publish failed: {e}");
                exit(1)
            });
        eprintln!(
            "bootstrapped {version} (vocab {}, dim 16, 8 bits)",
            params.vocab_size
        );
    }

    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("serve_front: cannot bind {addr}: {e}");
        exit(1)
    });
    let config = ServerConfig {
        max_batch,
        io_timeout: Some(Duration::from_secs(60)),
    };
    let handle = serve(
        listener,
        vec![TenantConfig {
            name: tenant.clone(),
            store,
            max_pending,
        }],
        config,
    )
    .unwrap_or_else(|e| {
        eprintln!("serve_front: cannot start server: {e}");
        exit(1)
    });
    // The sentinel line the load generator / CI smoke step waits for.
    println!("listening on {}", handle.addr());
    println!("tenant '{tenant}', max batch {max_batch}, max pending {max_pending}");
    loop {
        std::thread::park();
    }
}
