//! A length prefix past the frame ceiling cannot be resynchronized, so the
//! coordinator answers it the way the serve front-end does: one
//! `Malformed` error frame, then a close. The fleet itself is unharmed —
//! the test then drains a one-slice fleet over a fresh connection.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use embedstab_fleet::wire::{
    decode_response, encode_request, read_frame, write_frame, ErrorCode, Request, Response,
    MAX_FRAME_BYTES,
};
use embedstab_fleet::{run_coordinator, CoordinatorConfig, FleetSpec};
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::CacheStore;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn exchange(stream: &mut TcpStream, req: &Request) -> Response {
    let body = encode_request(req).expect("request encodes");
    write_frame(stream, &body).expect("write request");
    let frame = read_frame(stream)
        .expect("read response")
        .expect("a response, not EOF");
    decode_response(&frame).expect("response decodes")
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to coordinator");
    stream.set_read_timeout(Some(IO_TIMEOUT)).expect("timeouts");
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .expect("timeouts");
    stream
}

#[test]
fn oversize_length_prefix_gets_malformed_then_close_and_the_fleet_still_drains() {
    let root = scratch_dir("fleet_oversize_frame");
    std::fs::remove_dir_all(&root).ok();
    let store = CacheStore::open(&root).expect("store opens");
    let results = root.join("results");
    std::fs::create_dir_all(&results).expect("results dir");
    let spec = FleetSpec {
        bin: "fig2_memory_tradeoff".into(),
        scale: "tiny".into(),
        shards: 1,
        world_key: "world_v1_00000000deadbeef.bin".into(),
        extra: Vec::new(),
    };
    let mut config = CoordinatorConfig::new(spec, results);
    config.linger = Duration::from_millis(100);
    config.poll = Duration::from_millis(5);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("listener addr");
    let epoch = Instant::now();
    let now_ms = move || u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
    let coordinator = thread::spawn(move || run_coordinator(listener, store, config, now_ms));

    let mut evil = connect(addr);
    let too_long = u32::try_from(MAX_FRAME_BYTES + 1).expect("ceiling fits u32");
    evil.write_all(&too_long.to_le_bytes())
        .expect("write oversize prefix");
    let frame = read_frame(&mut evil)
        .expect("read the error frame")
        .expect("an error frame, not a silent close");
    match decode_response(&frame) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a Malformed error, got {other:?}"),
    }
    let mut rest = Vec::new();
    evil.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "the connection closes after the error");

    let mut worker = connect(addr);
    let hello = Request::Hello { worker: "w".into() };
    assert!(matches!(
        exchange(&mut worker, &hello),
        Response::Welcome(_)
    ));
    let slice = match exchange(&mut worker, &Request::Lease) {
        Response::Job { slice, shards: 1 } => slice,
        other => panic!("expected a job, got {other:?}"),
    };
    assert_eq!(
        exchange(&mut worker, &Request::Complete { slice }),
        Response::Ack
    );
    assert_eq!(exchange(&mut worker, &Request::Lease), Response::Drained);
    drop(worker);
    coordinator
        .join()
        .expect("coordinator thread")
        .expect("the fleet drains");
}
