//! The serving front-end binary: a threaded TCP server answering the
//! `embedstab_serve::wire` protocol from an on-disk snapshot store.
//!
//! ```text
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
//! bound. An unrecognised flag prints the usage line and exits 2.
//!
//! Every malformed frame, unknown tenant, out-of-range id, wrong-dim
//! query, `k = 0`, or empty batch is answered with a typed error response;
//! the process never panics on client bytes (`serve_loadgen --fuzz`
//! drives exactly that contract).

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::process::exit;
use std::time::Duration;

use embedstab_embeddings::{train_embedding, Algo};
use embedstab_pipeline::{Scale, World};
use embedstab_quant::Precision;
use embedstab_serve::{serve, ServerConfig, SnapshotStore, TenantConfig};

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("serve_front: {err}");
    }
    eprintln!(
        "usage: serve_front --snapshot-dir PATH [--bootstrap-tiny] \
         [--addr HOST:PORT] [--tenant NAME] [--max-batch N] [--max-pending N]"
    );
    exit(2)
}

/// The flags given, each with its value (`""` for `--bootstrap-tiny`).
/// Any other argument, such as a misspelt or removed flag, is a usage
/// error: it must not start a server on defaults.
fn flags(args: &[String]) -> BTreeMap<&str, &str> {
    let mut flags = BTreeMap::new();
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(flag) = rest.next() {
        let value = match flag {
            "--bootstrap-tiny" => "",
            "--snapshot-dir" | "--addr" | "--tenant" | "--max-batch" | "--max-pending" => rest
                .next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
            "--help" | "-h" => usage(""),
            _ => usage(&format!("unrecognised argument '{flag}'")),
        };
        flags.insert(flag, value);
    }
    flags
}

fn parse<T: std::str::FromStr>(flags: &BTreeMap<&str, &str>, flag: &str, default: T) -> T {
    match flags.get(flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage(&format!("bad value '{v}' for {flag}"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flags = flags(&args);
    let Some(&dir) = flags.get("--snapshot-dir") else {
        usage("--snapshot-dir is required")
    };
    let addr = flags.get("--addr").copied().unwrap_or("127.0.0.1:7878");
    let tenant = flags.get("--tenant").copied().unwrap_or("default");
    let max_batch: usize = parse(&flags, "--max-batch", 64);
    let max_pending: usize = parse(&flags, "--max-pending", 1024);

    let mut store = SnapshotStore::open(dir).unwrap_or_else(|e| {
        eprintln!("serve_front: cannot open snapshot store {dir}: {e}");
        exit(1)
    });
    if store.live().is_none() {
        if !flags.contains_key("--bootstrap-tiny") {
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

    let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
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
            name: tenant.into(),
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
