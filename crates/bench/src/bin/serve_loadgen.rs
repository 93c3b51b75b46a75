//! Load generator for the serving front-end: drives a running
//! `serve_front` with a deterministic query mix and writes
//! `BENCH_serve.json` with throughput and latency quantiles.
//!
//! ```text
//! usage: serve_loadgen [--addr HOST:PORT] [--tenant NAME] [--connections N]
//!          [--requests N] [--out PATH] [--fuzz]
//!
//! cargo run --release -p embedstab_bench --bin serve_loadgen -- \
//!     --addr 127.0.0.1:7878 --connections 4 --requests 250
//! ```
//!
//! Normal mode sends only well-formed queries (an 8-id lookup batch, with
//! every 4th request a `k = 5` nearest-neighbor batch instead), learned
//! from the server's own `Info` response, so **any** error response is a
//! server bug and the process exits 1. Latencies are recorded per request
//! into per-connection [`LatencyHistogram`]s (microseconds) and merged —
//! order-independent, so the report is deterministic for a given set of
//! observed latencies.
//!
//! `--fuzz` inverts the contract: every request is malformed (random
//! bytes, truncated payloads, out-of-range ids, wrong-dimension queries,
//! `k = 0`, empty batches, unknown tenants, bad version/op bytes) and the
//! process exits 1 if any of them gets an OK response — or if the server
//! stops answering, which is how a panic over there would show up here. A
//! well-formed probe after the storm double-checks the server survived.

use std::io::Write as _;
use std::net::TcpStream;
use std::process::exit;
use std::time::Instant;

use embedstab_bench::Cli;
use embedstab_core::stats::LatencyHistogram;
use embedstab_linalg::Mat;
use embedstab_serve::wire::{self, Request, Response};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    mode: String,
    addr: String,
    tenant: String,
    connections: usize,
    requests_per_connection: usize,
    total_requests: u64,
    ok_responses: u64,
    error_responses: u64,
    elapsed_seconds: f64,
    throughput_qps: f64,
    latency_us_p50: u64,
    latency_us_p99: u64,
    latency_us_p999: u64,
}

const USAGE: &str = "usage: serve_loadgen [--addr HOST:PORT] [--tenant NAME] [--connections N]\n\
    \x20        [--requests N] [--out PATH] [--fuzz]";

struct WorkerResult {
    hist: LatencyHistogram,
    ok: u64,
    errors: u64,
}

fn main() {
    let mut cli = Cli::new(USAGE);
    let mut addr = "127.0.0.1:7878".to_string();
    let mut tenant = "default".to_string();
    let (mut connections, mut requests): (usize, usize) = (4, 250);
    let mut out = "BENCH_serve.json".to_string();
    let mut fuzz = false;
    while let Some(flag) = cli.next() {
        match flag.as_str() {
            "--addr" => addr = cli.value(&flag),
            "--tenant" => tenant = cli.value(&flag),
            "--connections" => connections = cli.parse(&flag),
            "--requests" => requests = cli.parse(&flag),
            "--out" => out = cli.value(&flag),
            "--fuzz" => fuzz = true,
            _ => cli.unknown(&flag),
        }
    }

    // Learn the served shape from the server itself.
    let mut probe = TcpStream::connect(&addr).unwrap_or_else(|e| {
        eprintln!("serve_loadgen: cannot connect to {addr}: {e}");
        exit(1)
    });
    let info = match wire::call(
        &mut probe,
        &Request::Info {
            tenant: tenant.clone(),
        },
    ) {
        Ok(Response::Info(info)) => info,
        Ok(other) => {
            eprintln!("serve_loadgen: Info request answered {other:?}");
            exit(1)
        }
        Err(e) => {
            eprintln!("serve_loadgen: Info request failed: {e}");
            exit(1)
        }
    };
    eprintln!(
        "server {addr}: tenant '{tenant}' v{} (vocab {}, dim {}, {} bits)",
        info.version, info.vocab_size, info.dim, info.precision_bits
    );
    drop(probe);

    let started = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                let addr = addr.clone();
                let tenant = tenant.clone();
                scope.spawn(move || {
                    if fuzz {
                        fuzz_worker(&addr, &tenant, conn as u64, requests, &info)
                    } else {
                        load_worker(&addr, &tenant, conn as u64, requests, &info)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut hist = LatencyHistogram::new();
    let (mut ok, mut errors) = (0u64, 0u64);
    for r in &results {
        hist.merge(&r.hist);
        ok += r.ok;
        errors += r.errors;
    }
    let total = ok + errors;
    let report = Report {
        mode: if fuzz { "fuzz" } else { "load" }.into(),
        addr: addr.clone(),
        tenant: tenant.clone(),
        connections,
        requests_per_connection: requests,
        total_requests: total,
        ok_responses: ok,
        error_responses: errors,
        elapsed_seconds: elapsed,
        throughput_qps: if elapsed > 0.0 {
            total as f64 / elapsed
        } else {
            0.0
        },
        latency_us_p50: hist.quantile(0.50).unwrap_or(0),
        latency_us_p99: hist.quantile(0.99).unwrap_or(0),
        latency_us_p999: hist.quantile(0.999).unwrap_or(0),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json.as_bytes()).unwrap_or_else(|e| {
        eprintln!("serve_loadgen: cannot write {out}: {e}");
        exit(1)
    });
    println!(
        "{} requests in {:.2}s ({:.0} qps), p50 {}us p99 {}us p999 {}us, \
         {} ok / {} errors -> {out}",
        report.total_requests,
        report.elapsed_seconds,
        report.throughput_qps,
        report.latency_us_p50,
        report.latency_us_p99,
        report.latency_us_p999,
        report.ok_responses,
        report.error_responses,
    );

    if fuzz {
        // In fuzz mode every request was invalid: an OK response means the
        // server accepted garbage.
        if ok > 0 {
            eprintln!("serve_loadgen: FUZZ FAILURE: {ok} malformed request(s) answered OK");
            exit(1)
        }
        // And the server must have survived the storm.
        let mut probe = TcpStream::connect(&addr).unwrap_or_else(|e| {
            eprintln!("serve_loadgen: FUZZ FAILURE: server gone after fuzzing: {e}");
            exit(1)
        });
        match wire::call(
            &mut probe,
            &Request::LookupBatch {
                tenant: tenant.clone(),
                ids: vec![0],
            },
        ) {
            Ok(Response::Rows(_)) => println!("server survived the fuzz storm"),
            other => {
                eprintln!("serve_loadgen: FUZZ FAILURE: post-fuzz probe answered {other:?}");
                exit(1)
            }
        }
    } else if errors > 0 {
        eprintln!("serve_loadgen: FAILURE: {errors} well-formed request(s) answered with errors");
        exit(1)
    }
}

/// Well-formed deterministic mix: every 4th request a nearest-neighbor
/// batch (2 queries, k = 5), the rest 8-id lookups.
fn load_worker(
    addr: &str,
    tenant: &str,
    seed: u64,
    requests: usize,
    info: &wire::SnapshotInfo,
) -> WorkerResult {
    let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("serve_loadgen: worker cannot connect: {e}");
        exit(1)
    });
    stream.set_nodelay(true).ok();
    let mut rng = StdRng::seed_from_u64(0x10ad ^ seed);
    let vocab = info.vocab_size.max(1);
    let dim = info.dim as usize;
    let mut result = WorkerResult {
        hist: LatencyHistogram::new(),
        ok: 0,
        errors: 0,
    };
    for i in 0..requests {
        let req = if i % 4 == 3 {
            // Query vectors near real rows: random ids' worth of noise.
            let data: Vec<f64> = (0..2 * dim).map(|_| rng.random::<f64>() - 0.5).collect();
            Request::NearestBatch {
                tenant: tenant.to_string(),
                k: 5,
                queries: Mat::from_vec(2, dim, data),
            }
        } else {
            let ids: Vec<u32> = (0..8).map(|_| rng.random_range(0..vocab)).collect();
            Request::LookupBatch {
                tenant: tenant.to_string(),
                ids,
            }
        };
        let start = Instant::now();
        let resp = wire::call(&mut stream, &req).unwrap_or_else(|e| {
            eprintln!("serve_loadgen: transport failure mid-run: {e}");
            exit(1)
        });
        result
            .hist
            .record(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        if resp.is_error() {
            eprintln!("serve_loadgen: error response: {resp:?}");
            result.errors += 1;
        } else {
            result.ok += 1;
        }
    }
    result
}

/// Malformed-only mix. Every frame must come back as an error response
/// (or, for unrecoverable framing garbage, a dropped connection — never a
/// dead server, which the caller probes for afterwards).
fn fuzz_worker(
    addr: &str,
    tenant: &str,
    seed: u64,
    requests: usize,
    info: &wire::SnapshotInfo,
) -> WorkerResult {
    let mut rng = StdRng::seed_from_u64(0xf422 ^ seed);
    let vocab = info.vocab_size;
    let dim = info.dim as usize;
    let mut result = WorkerResult {
        hist: LatencyHistogram::new(),
        ok: 0,
        errors: 0,
    };
    let mut stream: Option<TcpStream> = None;
    for i in 0..requests {
        let conn = match &mut stream {
            Some(s) => s,
            None => match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    stream.as_mut().expect("just set")
                }
                Err(e) => {
                    eprintln!("serve_loadgen: fuzz reconnect failed: {e}");
                    exit(1)
                }
            },
        };
        let start = Instant::now();
        let outcome = match i % 7 {
            // Raw garbage bytes in a valid frame.
            0 => {
                let n = rng.random_range(1usize..64);
                let body: Vec<u8> = (0..n).map(|_| rng.random_range(0u32..256) as u8).collect();
                send_raw(conn, &body)
            }
            // A truncated but version-correct request body.
            1 => {
                let good = wire::encode_request(&Request::LookupBatch {
                    tenant: tenant.to_string(),
                    ids: vec![0, 1, 2, 3],
                })
                .expect("encode");
                let cut = rng.random_range(1usize..good.len());
                send_raw(conn, &good[..cut])
            }
            // Out-of-range ids.
            2 => send_req(
                conn,
                &Request::LookupBatch {
                    tenant: tenant.to_string(),
                    ids: vec![vocab + rng.random_range(0u32..1000)],
                },
            ),
            // Wrong-dimension nearest query.
            3 => send_req(
                conn,
                &Request::NearestBatch {
                    tenant: tenant.to_string(),
                    k: 3,
                    queries: Mat::zeros(1, dim + 1),
                },
            ),
            // k = 0 and empty batches.
            4 => {
                let req = if i % 2 == 0 {
                    Request::NearestBatch {
                        tenant: tenant.to_string(),
                        k: 0,
                        queries: Mat::zeros(1, dim),
                    }
                } else {
                    Request::LookupBatch {
                        tenant: tenant.to_string(),
                        ids: Vec::new(),
                    }
                };
                send_req(conn, &req)
            }
            // Unknown tenant.
            5 => send_req(
                conn,
                &Request::LookupBatch {
                    tenant: format!("no-such-tenant-{i}"),
                    ids: vec![0],
                },
            ),
            // Bad version / op byte under a plausible body.
            _ => {
                let mut body = wire::encode_request(&Request::Info {
                    tenant: tenant.to_string(),
                })
                .expect("encode");
                let idx = rng.random_range(0usize..2.min(body.len()));
                body[idx] = body[idx].wrapping_add(rng.random_range(1u32..255) as u8);
                send_raw(conn, &body)
            }
        };
        result
            .hist
            .record(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        match outcome {
            FuzzOutcome::ErrorResponse => result.errors += 1,
            FuzzOutcome::OkResponse => result.ok += 1,
            // The server may drop a connection it cannot resync; count it
            // as the error it is and reconnect.
            FuzzOutcome::Disconnected => {
                result.errors += 1;
                stream = None;
            }
        }
    }
    result
}

enum FuzzOutcome {
    OkResponse,
    ErrorResponse,
    Disconnected,
}

fn send_req(conn: &mut TcpStream, req: &Request) -> FuzzOutcome {
    match wire::call(conn, req) {
        Ok(resp) if resp.is_error() => FuzzOutcome::ErrorResponse,
        Ok(_) => FuzzOutcome::OkResponse,
        Err(_) => FuzzOutcome::Disconnected,
    }
}

fn send_raw(conn: &mut TcpStream, body: &[u8]) -> FuzzOutcome {
    if wire::write_frame(conn, body).is_err() || conn.flush().is_err() {
        return FuzzOutcome::Disconnected;
    }
    match wire::read_frame(conn) {
        Ok(Some(frame)) => match wire::decode_response(&frame) {
            Some(resp) if resp.is_error() => FuzzOutcome::ErrorResponse,
            Some(_) => FuzzOutcome::OkResponse,
            None => FuzzOutcome::Disconnected,
        },
        _ => FuzzOutcome::Disconnected,
    }
}
