//! Live-traffic integration tests for the TCP front-end: hot
//! promote/rollback with zero dropped queries, the no-panic contract
//! under a malformed-input storm, batch coalescing that never changes
//! an answer, the combiner-role hand-off under one-job batches, and
//! refusal after shutdown.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use embedstab_embeddings::Embedding;
use embedstab_linalg::Mat;
use embedstab_pipeline::cache::scratch_dir;
use embedstab_quant::Precision;
use embedstab_serve::wire::{self, Request, Response};
use embedstab_serve::{serve, ServeHandle, ServerConfig, SnapshotStore, TenantConfig};
use rand::{RngExt, SeedableRng};

fn emb(seed: u64, n: usize, d: usize) -> Embedding {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Embedding::new(Mat::random_normal(n, d, &mut rng))
}

/// Socket timeouts on both ends: tests must never hang on a stuck
/// handler, but must not flake under load either.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn start_server(
    label: &str,
    base: &Embedding,
    max_pending: usize,
    max_batch: usize,
) -> (ServeHandle, String) {
    let dir = scratch_dir(label);
    std::fs::remove_dir_all(&dir).ok();
    let mut store = SnapshotStore::open(&dir).expect("open store");
    store
        .publish(base, Precision::new(8), None)
        .expect("bootstrap publish");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(
        listener,
        vec![TenantConfig {
            name: "t".into(),
            store,
            max_pending,
        }],
        ServerConfig {
            max_batch,
            io_timeout: Some(IO_TIMEOUT),
        },
    )
    .expect("serve");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// The fixed request set whose answers must be bitwise stable across a
/// publish + rollback round trip.
fn probe_requests(dim: usize) -> Vec<Request> {
    vec![
        Request::LookupBatch {
            tenant: "t".into(),
            ids: vec![0, 3, 7, 19],
        },
        Request::NearestBatch {
            tenant: "t".into(),
            k: 5,
            queries: Mat::from_vec(1, dim, (0..dim).map(|i| (i as f64).sin()).collect()),
        },
    ]
}

/// Answers for the probe set, as encoded response bytes (bitwise).
fn probe_answers(addr: &str, dim: usize) -> Vec<Vec<u8>> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    probe_requests(dim)
        .iter()
        .map(|req| {
            let resp = wire::call(&mut conn, req).expect("call");
            assert!(!resp.is_error(), "probe answered with error: {resp:?}");
            wire::encode_response(&resp).expect("encode")
        })
        .collect()
}

#[test]
fn promote_and_rollback_drop_no_queries_and_restore_answers_bitwise() {
    let (n, d) = (60, 8);
    let before = emb(1, n, d);
    let after = emb(2, n, d);
    let (handle, addr) = start_server("server_live_swap", &before, 100_000, 32);

    let baseline = probe_answers(&addr, d);

    // Clients hammer well-formed queries across the promote + rollback
    // window; every single one must get a non-error answer.
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(&addr).expect("client connect");
                let mut answered = 0u64;
                let mut i = 0u32;
                while !stop.load(Ordering::SeqCst) {
                    let req = if i % 3 == 0 {
                        Request::NearestBatch {
                            tenant: "t".into(),
                            k: 3,
                            queries: Mat::from_vec(
                                1,
                                d,
                                (0..d).map(|j| ((c + 1) * (j + 1)) as f64).collect(),
                            ),
                        }
                    } else {
                        Request::LookupBatch {
                            tenant: "t".into(),
                            ids: vec![i % n as u32, (i + 7) % n as u32],
                        }
                    };
                    let resp = wire::call(&mut conn, &req)
                        .expect("transport failure: a query was dropped");
                    assert!(!resp.is_error(), "in-flight query errored: {resp:?}");
                    answered += 1;
                    i = i.wrapping_add(1);
                }
                answered
            })
        })
        .collect();

    // Let traffic build, then hot-swap forward and back under load.
    std::thread::sleep(Duration::from_millis(50));
    let v2 = handle.promote("t", &after).expect("promote");
    assert_eq!(v2.0, 2);
    // The new snapshot is what the server now answers from.
    let promoted = probe_answers(&addr, d);
    assert_ne!(
        baseline, promoted,
        "a different embedding must answer differently"
    );
    std::thread::sleep(Duration::from_millis(50));
    let back = handle.rollback("t").expect("rollback");
    assert_eq!(back.0, 1);
    std::thread::sleep(Duration::from_millis(50));

    stop.store(true, Ordering::SeqCst);
    let mut total = 0u64;
    for c in clients {
        total += c.join().expect("client thread");
    }
    assert!(total > 0, "clients must have exercised the swap window");

    // Post-rollback answers are bitwise the pre-publish answers.
    assert_eq!(
        probe_answers(&addr, d),
        baseline,
        "rollback must restore the exact pre-publish answers"
    );
    let (ok, errors) = handle.response_counts();
    assert!(ok > total, "server counted the traffic");
    assert_eq!(errors, 0, "no query may error across promote/rollback");
    handle.shutdown();
}

/// Serves `clients` concurrent connections, each sending `per_client`
/// mixed lookup/nearest requests, and checks every answer is bitwise the
/// live snapshot's own answer to that request alone. With `lockstep`,
/// the clients send their i-th requests together and wait for each other
/// before the next, so no later request can rescue one the server left
/// queued. Client sockets time out like the server's, so a query the
/// server never answers fails the call instead of hanging the test.
/// Returns the handle and the number of requests sent, all answered OK.
fn mixed_load_answers_solo_bitwise(
    label: &str,
    max_batch: usize,
    clients: u64,
    per_client: u64,
    lockstep: bool,
) -> (ServeHandle, u64) {
    let (n, d) = (200, 16);
    let (handle, addr) = start_server(label, &emb(5, n, d), 100_000, max_batch);
    // The store as the server loaded it: its live snapshot answers each
    // request alone, the reference every served answer must match.
    let snap = SnapshotStore::open(scratch_dir(label))
        .expect("reopen store")
        .live()
        .cloned()
        .expect("live snapshot");
    let snap = Arc::new(snap);
    let round = Arc::new(Barrier::new(clients as usize));
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let (addr, snap, round) = (addr.clone(), snap.clone(), round.clone());
            std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(100 + c);
                let mut conn = TcpStream::connect(&addr).expect("client connect");
                wire::set_io_timeouts(&conn, Some(IO_TIMEOUT)).expect("client timeouts");
                let mut failure = None;
                for _ in 0..per_client {
                    let (req, solo) = if rng.random::<f64>() < 0.5 {
                        let ids: Vec<u32> = (0..8).map(|_| rng.random_range(0..n as u32)).collect();
                        let solo = Response::Rows(snap.try_lookup_batch(&ids).expect("solo"));
                        let req = Request::LookupBatch {
                            tenant: "t".into(),
                            ids,
                        };
                        (req, solo)
                    } else {
                        let k = [1, 3, 5][rng.random_range(0..3usize)];
                        let rows = rng.random_range(1..4usize);
                        let data = (0..rows * d).map(|_| rng.random::<f64>() - 0.5).collect();
                        let queries = Mat::from_vec(rows, d, data);
                        let solo =
                            Response::Neighbors(snap.try_nearest_batch(&queries, k).expect("solo"));
                        let req = Request::NearestBatch {
                            tenant: "t".into(),
                            k: k as u32,
                            queries,
                        };
                        (req, solo)
                    };
                    if lockstep {
                        round.wait();
                    }
                    // A failed client stops sending but keeps meeting the
                    // others at the barrier, so the test fails, not hangs.
                    if failure.is_some() {
                        continue;
                    }
                    failure = match wire::call(&mut conn, &req) {
                        Err(e) => Some(format!("{req:?} was not answered: {e}")),
                        Ok(resp)
                            if wire::encode_response(&resp).expect("encode")
                                != wire::encode_response(&solo).expect("encode") =>
                        {
                            Some(format!(
                                "a batched answer differs from the solo answer to {req:?}"
                            ))
                        }
                        Ok(_) => None,
                    };
                }
                failure
            })
        })
        .collect();
    for w in workers {
        if let Some(failure) = w.join().expect("client thread") {
            panic!("{failure}");
        }
    }
    let sent = clients * per_client;
    assert_eq!(handle.response_counts(), (sent, 0));
    (handle, sent)
}

#[test]
fn concurrent_queries_coalesce_into_batches_with_solo_answers_bitwise() {
    let (handle, sent) = mixed_load_answers_solo_bitwise("server_live_coalesce", 32, 16, 50, false);
    let batches = handle.batches_run("t").expect("served tenant");
    assert!(
        batches < sent,
        "{sent} concurrent requests ran as {batches} batches: nothing coalesced"
    );
    assert!(handle.batches_run("nobody").is_err());
    handle.shutdown();
}

/// One-job batches make a combiner release the role with other jobs still
/// queued, and lockstep rounds leave no later request to pick them up, so
/// each round depends on the hand-off to the owner of the queue's head
/// and on the role being released before the queue is re-checked: a lost
/// hand-off strands a job, and its call times out.
#[test]
fn one_job_batches_hand_the_combiner_role_on_without_stranding_a_query() {
    let started = Instant::now();
    let (handle, sent) = mixed_load_answers_solo_bitwise("server_live_handoff", 1, 32, 100, true);
    assert_eq!(handle.batches_run("t").expect("served tenant"), sent);
    assert!(
        started.elapsed() < IO_TIMEOUT,
        "{sent} requests took {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn shutdown_refuses_queries_on_open_connections_promptly() {
    let (handle, addr) = start_server("server_live_shutdown", &emb(6, 20, 4), 100_000, 32);
    let mut conn = TcpStream::connect(&addr).expect("connect");
    wire::set_io_timeouts(&conn, Some(IO_TIMEOUT)).expect("client timeouts");
    let lookup = Request::LookupBatch {
        tenant: "t".into(),
        ids: vec![0, 1],
    };
    let resp = wire::call(&mut conn, &lookup).expect("call before shutdown");
    assert!(!resp.is_error(), "served before shutdown: {resp:?}");
    handle.shutdown();
    let nearest = Request::NearestBatch {
        tenant: "t".into(),
        k: 2,
        queries: Mat::zeros(1, 4),
    };
    for req in [&lookup, &nearest] {
        let asked = Instant::now();
        let resp = wire::call(&mut conn, req).expect("answered, not dropped");
        match resp {
            Response::Error { code, .. } => assert_eq!(code, wire::ErrorCode::ShuttingDown),
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        assert!(
            asked.elapsed() < IO_TIMEOUT,
            "refusal took {:?}",
            asked.elapsed()
        );
    }
}

#[test]
fn malformed_input_storm_yields_only_error_responses_and_no_crash() {
    let (n, d) = (30, 6);
    let (handle, addr) = start_server("server_live_fuzz", &emb(3, n, d), 100_000, 32);
    let mut conn = TcpStream::connect(&addr).expect("connect");

    // Every shape of bad query the wire can carry, as decodable requests.
    let bad_requests = vec![
        Request::LookupBatch {
            tenant: "t".into(),
            ids: vec![n as u32 + 5],
        },
        Request::LookupBatch {
            tenant: "t".into(),
            ids: Vec::new(),
        },
        Request::NearestBatch {
            tenant: "t".into(),
            k: 0,
            queries: Mat::zeros(1, d),
        },
        Request::NearestBatch {
            tenant: "t".into(),
            k: 3,
            queries: Mat::zeros(1, d + 2),
        },
        Request::NearestBatch {
            tenant: "t".into(),
            k: 3,
            queries: Mat::zeros(0, d),
        },
        Request::LookupBatch {
            tenant: "nobody".into(),
            ids: vec![0],
        },
    ];
    for req in &bad_requests {
        let resp = wire::call(&mut conn, req).expect("call");
        assert!(
            resp.is_error(),
            "bad request answered OK: {req:?} -> {resp:?}"
        );
    }

    // Undecodable bodies: garbage bytes, truncations, bad version byte.
    let good = wire::encode_request(&Request::LookupBatch {
        tenant: "t".into(),
        ids: vec![0, 1],
    })
    .expect("encode");
    let mut bad_version = good.clone();
    bad_version[0] ^= 0xFF;
    let garbage: Vec<Vec<u8>> = vec![
        vec![0xDE, 0xAD, 0xBE, 0xEF],
        good[..good.len() - 3].to_vec(),
        bad_version,
        Vec::new(),
    ];
    for body in &garbage {
        wire::write_frame(&mut conn, body).expect("write");
        let frame = wire::read_frame(&mut conn)
            .expect("server must answer, not die")
            .expect("server must answer, not close");
        let resp = wire::decode_response(&frame).expect("decode");
        assert!(resp.is_error(), "garbage answered OK: {resp:?}");
    }

    // The same connection still serves well-formed queries afterwards.
    let resp = wire::call(
        &mut conn,
        &Request::LookupBatch {
            tenant: "t".into(),
            ids: vec![0, 1, 2],
        },
    )
    .expect("call after storm");
    assert!(!resp.is_error(), "server must recover: {resp:?}");
    match resp {
        Response::Rows(rows) => assert_eq!((rows.rows(), rows.cols()), (3, d)),
        other => panic!("expected rows, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn overload_degrades_to_typed_refusals_not_queue_collapse() {
    // max_pending = 0: every queued query is refused up front, so the
    // admission path itself is what answers — deterministically.
    let (handle, addr) = start_server("server_live_overload", &emb(4, 20, 4), 0, 32);
    let mut conn = TcpStream::connect(&addr).expect("connect");
    let resp = wire::call(
        &mut conn,
        &Request::LookupBatch {
            tenant: "t".into(),
            ids: vec![0],
        },
    )
    .expect("call");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, wire::ErrorCode::Overloaded),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Info bypasses the queue and still works under overload.
    let resp = wire::call(&mut conn, &Request::Info { tenant: "t".into() }).expect("info");
    match resp {
        Response::Info(info) => assert_eq!((info.vocab_size, info.dim), (20, 4)),
        other => panic!("expected info, got {other:?}"),
    }
    handle.shutdown();
}
