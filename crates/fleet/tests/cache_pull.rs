//! Cache shipping under fire: a scripted coordinator-side peer serves a
//! corrupted chunk on the first pull; the worker-side transfer must
//! surface a typed `CorruptTransfer` (never write the bytes), re-pull,
//! and end up with a file **bitwise identical** to the original. A real
//! coordinator advertises the checksum the file's header records, and a
//! cold worker pre-pulls every pair file of the fleet's world.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use embedstab_corpus::codec;
use embedstab_embeddings::Algo;
use embedstab_fleet::transfer::{chunk_count, chunk_range, ensure_key, pull_key};
use embedstab_fleet::wire::{
    call, decode_request, encode_response, read_frame, write_frame, Request, Response, CHUNK_BYTES,
};
use embedstab_fleet::{
    run_coordinator, run_worker, CoordinatorConfig, FleetError, FleetSpec, WorkerConfig,
};
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::{
    CacheKey, CacheStore, EmbeddingGrid, Scale, World, WORLD_CACHE_FORMAT_VERSION,
};

/// A synthetic world-cache file: the real `ESWC` artifact envelope (magic,
/// version, fingerprint, body length and checksum) around a deterministic
/// payload. Large enough to span two chunks, so assembly and
/// interior-chunk checks are exercised.
fn world_file(fingerprint: u64, payload_len: usize) -> (String, Vec<u8>) {
    let version = WORLD_CACHE_FORMAT_VERSION;
    let key = format!("world_v{version}_{fingerprint:016x}.bin");
    let bytes = codec::seal(*b"ESWC", version, fingerprint, payload_len, |out| {
        for i in 0..payload_len {
            out.push((i % 251) as u8);
        }
    });
    (key, bytes)
}

/// The body checksum at its fixed header offset (bytes 24..32).
fn header_checksum(file: &[u8]) -> u64 {
    u64::from_le_bytes(file[24..32].try_into().expect("32-byte header"))
}

/// Serves chunked `CacheGet`s for exactly one file over one listener.
/// Every pull attempt whose index is in `corrupt_attempts` gets its first
/// chunk's last payload byte flipped (with the *correct* whole-file hash
/// advertised, so only receipt-time verification can catch it).
fn scripted_peer(
    listener: TcpListener,
    file: Vec<u8>,
    corrupt_attempts: &'static [usize],
) -> thread::JoinHandle<()> {
    let attempt = Arc::new(AtomicUsize::new(0));
    thread::spawn(move || {
        // One connection is enough: pulls share the worker's stream.
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        loop {
            let body = match read_frame(&mut stream) {
                Ok(Some(body)) => body,
                _ => return,
            };
            let Some(Request::CacheGet { chunk, .. }) = decode_request(&body) else {
                return;
            };
            if chunk == 0 {
                attempt.fetch_add(1, Ordering::SeqCst);
            }
            let this_attempt = attempt.load(Ordering::SeqCst) - 1;
            let Some(range) = chunk_range(file.len(), chunk) else {
                return;
            };
            let mut piece = file[range].to_vec();
            if chunk == 0 && corrupt_attempts.contains(&this_attempt) {
                if let Some(last) = piece.last_mut() {
                    *last ^= 0xFF;
                }
            }
            let resp = Response::Chunk {
                total_len: file.len() as u64,
                chunks: chunk_count(file.len()),
                content_hash: header_checksum(&file),
                bytes: piece,
            };
            let Some(out) = encode_response(&resp) else {
                return;
            };
            if write_frame(&mut stream, &out).is_err() {
                return;
            }
        }
    })
}

fn connect(listener: &TcpListener) -> TcpStream {
    let addr = listener.local_addr().expect("listener addr");
    TcpStream::connect(addr).expect("connect to scripted peer")
}

#[test]
fn corrupt_transfer_is_typed_and_repull_restores_bitwise() {
    let root = scratch_dir("fleet_cache_pull");
    std::fs::remove_dir_all(&root).ok();
    let (key, file) = world_file(0xdead_beef_cafe_f00d, CHUNK_BYTES + 4_096);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut stream = connect(&listener);
    // Attempt 0 corrupt, attempt 1 clean.
    let peer = scripted_peer(listener, file.clone(), &[0]);

    // Direct pull of the corrupted attempt: a typed CorruptTransfer
    // naming the key, not an Io error and certainly not bad bytes.
    match pull_key(&mut stream, &key) {
        Err(FleetError::CorruptTransfer { key: k, detail }) => {
            assert_eq!(k, key);
            assert!(
                detail.contains("content hash"),
                "the whole-file hash is what catches a flipped payload byte: {detail}"
            );
        }
        other => panic!("expected CorruptTransfer, got {other:?}"),
    }

    // ensure_key on an empty store: sees the miss, pulls (clean this
    // time), verifies, and stores.
    let store = CacheStore::open(&root).expect("store opens");
    assert!(!store.has(&key));
    let pulled = ensure_key(&mut stream, &store, &key).expect("clean pull succeeds");
    assert!(pulled, "the store was empty; a pull must have happened");
    let local = store
        .path(&key)
        .expect("key parses")
        .canonicalize()
        .expect("pulled file exists");
    let on_disk = std::fs::read(local).expect("read pulled file");
    assert_eq!(on_disk, file, "pulled file must be bitwise identical");

    // A second ensure_key is a no-op: the store already has it.
    assert!(!ensure_key(&mut stream, &store, &key).expect("cached"));

    drop(stream);
    peer.join().expect("peer thread");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn repeatedly_corrupt_transfer_fails_after_one_retry() {
    let root = scratch_dir("fleet_cache_pull_hard");
    std::fs::remove_dir_all(&root).ok();
    let (key, file) = world_file(0x0123_4567_89ab_cdef, 2_048);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut stream = connect(&listener);
    // Both attempts corrupt: ensure_key must give up with the typed error
    // rather than loop forever, and the store must stay empty.
    let peer = scripted_peer(listener, file, &[0, 1]);
    let store = CacheStore::open(&root).expect("store opens");
    match ensure_key(&mut stream, &store, &key) {
        Err(FleetError::CorruptTransfer { .. }) => {}
        other => panic!("expected CorruptTransfer after retry, got {other:?}"),
    }
    assert!(!store.has(&key), "corrupt bytes must never reach the store");
    drop(stream);
    peer.join().expect("peer thread");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn coordinator_advertises_the_header_checksum() {
    let root = scratch_dir("fleet_cache_pull_coordinator");
    std::fs::remove_dir_all(&root).ok();
    let (key, file) = world_file(0x5eed_0000_0000_0001, CHUNK_BYTES + 1_000);
    let store = CacheStore::open(&root).expect("store opens");
    store.put(&key, &file).expect("the synthetic file verifies");
    let spec = FleetSpec {
        bin: "fig2_memory_tradeoff".into(),
        scale: "tiny".into(),
        shards: 1,
        world_key: key.clone(),
        extra: Vec::new(),
    };
    let mut config = CoordinatorConfig::new(spec, root.join("results"));
    config.linger = Duration::from_millis(100);
    config.poll = Duration::from_millis(5);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut stream = connect(&listener);
    // A frozen clock: no lease can expire during the test.
    let coordinator = thread::spawn(move || run_coordinator(listener, store, config, || 0));

    let hello = Request::Hello { worker: "w".into() };
    assert!(matches!(
        call(&mut stream, &hello).expect("hello"),
        Response::Welcome(_)
    ));
    for chunk in 0..chunk_count(file.len()) {
        let get = Request::CacheGet {
            key: key.clone(),
            chunk,
        };
        match call(&mut stream, &get).expect("chunk") {
            Response::Chunk { content_hash, .. } => assert_eq!(
                content_hash,
                header_checksum(&file),
                "chunk {chunk} must advertise the header's stored checksum"
            ),
            other => panic!("expected a chunk, got {other:?}"),
        }
    }
    assert_eq!(pull_key(&mut stream, &key).expect("clean pull"), file);

    let slice = match call(&mut stream, &Request::Lease).expect("lease") {
        Response::Job { slice, shards: 1 } => slice,
        other => panic!("expected a job, got {other:?}"),
    };
    let complete = Request::Complete { slice };
    assert_eq!(
        call(&mut stream, &complete).expect("complete"),
        Response::Ack
    );
    drop(stream);
    coordinator
        .join()
        .expect("coordinator thread")
        .expect("the fleet drains");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn cold_worker_pulls_every_pair_of_the_world_and_trains_none() {
    let root = scratch_dir("fleet_cache_pull_pairs");
    std::fs::remove_dir_all(&root).ok();
    // The coordinator's cache: the Tiny world and the pairs of its grid.
    let params = Scale::Tiny.params();
    let store = CacheStore::open(root.join("coordinator")).expect("store opens");
    let world = World::load_or_build(&params, 0, &store);
    EmbeddingGrid::build(
        &world,
        &Algo::MAIN,
        &params.dims,
        &params.seeds,
        Some(&store),
    );
    let mut keys = store.keys().expect("list the cache");
    keys.sort();
    let world_key = CacheKey::world(&params, 0).name();
    assert!(keys.contains(&world_key), "{keys:?}");
    let pairs = Algo::MAIN.len() * params.dims.len() * params.seeds.len();
    assert_eq!(keys.len(), 1 + pairs, "{keys:?}");

    // The shard binary trains nothing: it only has to exit 0.
    let bin_dir = root.join("bin");
    std::fs::create_dir_all(&bin_dir).expect("bin dir");
    let shard = bin_dir.join("shard");
    std::fs::write(&shard, "#!/bin/sh\nexit 0\n").expect("write the shard script");
    let exec = std::os::unix::fs::PermissionsExt::from_mode(0o755);
    std::fs::set_permissions(&shard, exec).expect("make the shard executable");
    let spec = FleetSpec {
        bin: "shard".into(),
        scale: Scale::Tiny.name().into(),
        shards: 1,
        world_key,
        extra: Vec::new(),
    };
    let mut config = CoordinatorConfig::new(spec, root.join("results"));
    config.linger = Duration::from_millis(200);
    config.poll = Duration::from_millis(5);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let coordinator = {
        let store = CacheStore::open(root.join("coordinator")).expect("store reopens");
        thread::spawn(move || run_coordinator(listener, store, config, || 0))
    };

    let worker = WorkerConfig {
        addr,
        name: "cold".into(),
        bin_dir,
        workdir: root.join("work"),
        cache_dir: root.join("worker-cache"),
        poll: Duration::from_millis(5),
        heartbeat: Duration::from_millis(500),
        connect_retries: 20,
        connect_backoff: Duration::from_millis(50),
        io_timeout: Some(Duration::from_secs(60)),
    };
    let report = run_worker(&worker).expect("the worker drains");
    coordinator
        .join()
        .expect("coordinator thread")
        .expect("the fleet drains");
    assert_eq!(report.completed, vec![0]);
    let mut pulled = report.pulled.clone();
    pulled.sort();
    assert_eq!(pulled, keys, "the world and every pair file are pulled");
    let local = CacheStore::open(root.join("worker-cache")).expect("worker store");
    let mut held = local.keys().expect("list the worker's cache");
    held.sort();
    assert_eq!(held, keys, "the worker's cache holds the pulled files only");
    for key in &keys {
        let theirs = store.get(key).expect("coordinator copy").expect("present");
        let ours = local.get(key).expect("pulled copy").expect("present");
        assert!(ours == theirs, "{key} differs from the coordinator's copy");
    }
    std::fs::remove_dir_all(&root).ok();
}
