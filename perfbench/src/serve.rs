//! The `serve` workload: an in-process server under open- and closed-loop
//! load, with hot promotes beside the reads.
//!
//! Set-up trains three PPMI-SVD embeddings (dim 64) on the Small world:
//! the snapshot served at 8 bits (from the '17 statistics), and two
//! candidates aligned to it (from the '18 statistics, two sketch seeds)
//! that the high-rate slices promote in turn. The load runs on `min(2, nproc)`
//! client connections, each one thread:
//!
//! 1. traced runs only: open loop at [`LOW_RATE`] req/s, where the batch
//!    window dominates. It feeds only per-layer metrics, so untraced runs
//!    skip it;
//! 2. rounds of an open-loop slice at [`HIGH_RATE`] req/s, with a promote
//!    every [`PROMOTE_EVERY_MS`] ms from the main thread, then a closed-loop
//!    slice, every connection sending as fast as it is answered.
//!
//! The closed loop reaches ~4.3k req/s on 2 shared cores, but their speed
//! swings by 2x with the machine's other load; at 60% and even 35% of that
//! rate the backlog ran away in slow periods, so the high rate stays near a
//! quarter. The rounds spread both loads over the whole run, so a slow
//! spell of the host that lasts part of a run weighs on both alike, and the
//! quiet quartiles over one-second windows step over it.
//!
//! A fixed probe set is answered before the promotes and after the last
//! one, and must equal the then-live snapshot's own query paths bitwise.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

use embedstab_embeddings::{Embedding, PpmiSvdConfig, PpmiSvdTrainer};
use embedstab_linalg::Mat;
use embedstab_pipeline::pool::parallel_map;
use embedstab_pipeline::World;
use embedstab_quant::Precision;
use embedstab_serve::wire::{self, Request, Response};
use embedstab_serve::{serve, ServeHandle, ServerConfig, Snapshot, SnapshotStore, TenantConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::openloop::{open_loop, windows, Clock, Pacer, Sample, Tally, WallClock};
use crate::report::Outcome;
use crate::stats::{median, percentile, quiet_quartile, Summary};
use crate::trace::{uncovered_pct, Span, Tracer};
use crate::{mix, peak_rss_mb, setup, Ctx};

const TENANT: &str = "bench";
const DIM: usize = 64;
const BITS: u8 = 8;
const LOW_RATE: f64 = 500.0;
const HIGH_RATE: f64 = 1000.0;
const PROMOTE_EVERY_MS: u64 = 1000;
/// Share of `--seconds` the low-rate phase takes in a traced run.
const LOW_SHARE: f64 = 0.25;
/// About how long one round (high-rate slice, closed-loop slice) lasts,
/// and the high-rate slice's share of it.
const ROUND_S: f64 = 5.0;
const HIGH_SHARE: f64 = 0.6;
/// Shortest `--seconds` the phases support: a traced run's low-rate phase
/// then gets 1250 requests (p99 needs 1000), and every slice at least one
/// whole one-second window.
pub const MIN_SECONDS: u64 = 10;
/// Requests pre-generated per connection, cycled through.
const POOL: usize = 4096;
/// Request samples per kind replayed in-process in a traced run.
const REPLAYS: usize = 1000;
/// Tail percentile of `op_tail_ms`. The report also gives the highest
/// percentile the sample supports, but on a shared 2-core machine that one
/// swings with the few scheduler stalls of a run. In some spells of the
/// host, stalls of 2 ms or more hit 6-11% of the requests in most seconds
/// while the median stays put; p90 sits on that edge and rose up to 5x in
/// such runs. p80 lies inside the nearest requests (the slowest quarter of
/// the mix), below the stalls.
const TAIL_P: f64 = 80.0;

/// The running server and what set-up trained for it.
struct Served {
    handle: ServeHandle,
    dir: PathBuf,
    initial: Snapshot,
    candidates: [Embedding; 2],
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.shutdown();
    }
}

/// The running server: the workload's set-up after the world.
fn start(world: &World, ctx: &Ctx) -> io::Result<Served> {
    let jobs = [
        (&world.stats17, 0),
        (&world.stats18, 0),
        (&world.stats18, 1),
    ];
    let trainer = PpmiSvdTrainer::new(PpmiSvdConfig::default());
    let mut trained = parallel_map(&jobs, |&(stats, seed)| {
        trainer.train(&stats.ppmi, DIM, seed)
    });
    let b = trained.pop().expect("three embeddings");
    let a = trained.pop().expect("three embeddings");
    let live = trained.pop().expect("three embeddings");
    let candidates = [a.align_to(&live), b.align_to(&live)];
    let dir = ctx.work_dir.join("serve");
    let mut store = SnapshotStore::open(&dir)?;
    store.publish(&live, Precision::new(BITS), None)?;
    let initial = store
        .live()
        .cloned()
        .ok_or_else(|| io::Error::other("no live snapshot"))?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let handle = serve(
        listener,
        vec![TenantConfig::new(TENANT, store)],
        ServerConfig::default(),
    )?;
    Ok(Served {
        handle,
        dir,
        initial,
        candidates,
    })
}

/// The load generator's mix: 8-id lookups, every 4th request a 2-query
/// k = 5 nearest.
fn requests(seed: u64, stream: u64, n: usize, vocab: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 3, stream));
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                let data: Vec<f64> = (0..2 * DIM).map(|_| rng.random::<f64>() - 0.5).collect();
                Request::NearestBatch {
                    tenant: TENANT.into(),
                    k: 5,
                    queries: Mat::from_vec(2, DIM, data),
                }
            } else {
                Request::LookupBatch {
                    tenant: TENANT.into(),
                    ids: (0..8).map(|_| rng.random_range(0..vocab as u32)).collect(),
                }
            }
        })
        .collect()
}

/// One request: encode, frame round trip, decode, each in a span under a
/// request span named by the request's kind.
fn exchange(
    stream: &mut TcpStream,
    req: &Request,
    id: u64,
    tracer: &Tracer,
) -> io::Result<Response> {
    let kind = match req {
        Request::NearestBatch { .. } => "serve.nearest",
        _ => "serve.lookup",
    };
    let _request = tracer.request(kind, id);
    let body = tracer.time("serve.wire_encode", || wire::encode_request(req))?;
    let frame = tracer.time("serve.rpc", || {
        wire::write_frame(stream, &body)?;
        wire::read_frame(stream)
    })?;
    let frame =
        frame.ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    tracer
        .time("serve.wire_decode", || wire::decode_response(&frame))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable response"))
}

enum Load {
    Open { rate: f64 },
    Closed,
}

struct Phase {
    samples: Vec<Sample>,
    /// Start of the schedule on the phase's clock, and whole seconds run.
    start_ns: u64,
    seconds: usize,
    tally: Tally,
    wall_s: f64,
    window: (u64, u64),
    promote_ms: Vec<f64>,
    promote_failures: u64,
}

/// One client connection and the requests it cycles through.
struct Conn {
    stream: TcpStream,
    pool: Vec<Request>,
}

/// Runs one load phase for `seconds` on every connection; with `promote`,
/// the main thread promotes the candidates in turn on a fixed schedule
/// meanwhile, counting on from the promotes made before. The promotes are
/// never traced.
fn phase(
    conns: &mut [Conn],
    load: &Load,
    seconds: f64,
    tag: u64,
    tracer: &Tracer,
    promote: Option<(&ServeHandle, &[Embedding; 2], usize)>,
) -> Phase {
    let n_conns = conns.len() as u64;
    let clock = WallClock {
        epoch: Instant::now(),
    };
    let lead_ns = 1_000_000;
    let until_ns = lead_ns + (seconds * 1e9) as u64;
    let window_start = tracer.now_ns() + lead_ns;
    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let clock = &clock;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut call = |i: usize| {
                        let id = (tag << 48) | ((c as u64) << 40) | i as u64;
                        let req = &conn.pool[i % conn.pool.len()];
                        tally.record(&exchange(&mut conn.stream, req, id, tracer))
                    };
                    let samples = match *load {
                        Load::Open { rate } => {
                            // Connections interleave: together they send
                            // one request every 1/rate seconds.
                            let gap_ns = (1e9 / rate) as u64;
                            let pacer = Pacer {
                                start_ns: lead_ns + c as u64 * gap_ns,
                                interval_ns: gap_ns * n_conns,
                            };
                            open_loop(clock, &pacer, until_ns, &mut call)
                        }
                        Load::Closed => {
                            clock.sleep_until(lead_ns);
                            let mut samples = Vec::new();
                            while clock.now_ns() < until_ns {
                                let sent_ns = clock.now_ns();
                                let ok = call(samples.len());
                                samples.push(Sample {
                                    due_ns: sent_ns,
                                    sent_ns,
                                    done_ns: clock.now_ns(),
                                    ok,
                                });
                            }
                            samples
                        }
                    };
                    (samples, tally)
                })
            })
            .collect();
        let mut promote_ms = Vec::new();
        let mut promote_failures = 0;
        if let Some((handle, candidates, before)) = promote {
            let every_ns = PROMOTE_EVERY_MS * 1_000_000;
            let mut at_ns = lead_ns + every_ns;
            let mut j = before;
            while at_ns + every_ns / 2 < until_ns {
                clock.sleep_until(at_ns);
                let t = Instant::now();
                match handle.promote(TENANT, &candidates[j % 2]) {
                    Ok(_) => promote_ms.push(t.elapsed().as_secs_f64() * 1e3),
                    Err(e) => {
                        eprintln!("perfbench: promote {j} failed: {e}");
                        promote_failures += 1;
                    }
                }
                at_ns += every_ns;
                j += 1;
            }
        }
        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("load connection panicked"))
            .collect();
        (results, promote_ms, promote_failures)
    });
    let wall_s = clock.now_ns().saturating_sub(lead_ns) as f64 / 1e9;
    let (results, promote_ms, promote_failures) = results;
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for (s, t) in results {
        samples.extend(s);
        tally.add(&t);
    }
    Phase {
        samples,
        start_ns: lead_ns,
        seconds: seconds as usize,
        tally,
        wall_s,
        window: (window_start, tracer.now_ns()),
        promote_ms,
        promote_failures,
    }
}

/// Answers on one connection, in order.
fn probe(stream: &mut TcpStream, probes: &[Request]) -> io::Result<Vec<Response>> {
    probes.iter().map(|req| wire::call(stream, req)).collect()
}

/// Whether every answer equals the snapshot's own query path bitwise.
fn probes_match(snapshot: &Snapshot, probes: &[Request], answers: &[Response]) -> bool {
    let bits = |m: &Mat| {
        (
            m.rows(),
            m.cols(),
            m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        )
    };
    let ranked = |v: &[Vec<(u32, f64)>]| {
        v.iter()
            .map(|q| q.iter().map(|&(w, s)| (w, s.to_bits())).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    probes.len() == answers.len()
        && probes
            .iter()
            .zip(answers)
            .all(|(req, resp)| match (req, resp) {
                (Request::LookupBatch { ids, .. }, Response::Rows(m)) => snapshot
                    .try_lookup_batch(ids)
                    .is_ok_and(|e| bits(&e) == bits(m)),
                (Request::NearestBatch { k, queries, .. }, Response::Neighbors(v)) => snapshot
                    .try_nearest_batch(queries, *k as usize)
                    .is_ok_and(|e| ranked(&e) == ranked(v)),
                _ => false,
            })
}

fn latencies_us(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::latency_us).collect()
}

/// The phases' samples in one-second windows, by `at`.
fn seconds_of(phases: &[Phase], at: impl Fn(&Sample) -> u64) -> Vec<Vec<Sample>> {
    phases
        .iter()
        .flat_map(|p| windows(&p.samples, p.start_ns, 1_000_000_000, p.seconds, &at))
        .collect()
}

/// Successful requests per second over the phases together.
fn ok_rate(phases: &[Phase]) -> f64 {
    let ok: u64 = phases.iter().map(|p| p.tally.ok).sum();
    ok as f64 / phases.iter().map(|p| p.wall_s).sum::<f64>()
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (world, served) = setup::build(ctx, tracer, &mut out, |world| start(world, ctx));
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            out.check(format!("set-up: {e}"), false);
            return out;
        }
    };
    match measure(ctx, tracer, &world, &served, &mut out) {
        Ok(()) => {}
        Err(e) => out.check(format!("load run: {e}"), false),
    }
    out
}

fn measure(
    ctx: &Ctx,
    tracer: &Tracer,
    world: &World,
    served: &Served,
    out: &mut Outcome,
) -> io::Result<()> {
    let addr = served.handle.addr();
    let vocab = world.params.vocab_size;
    // The connections live through every phase, so the server's
    // per-connection threads are started once.
    let mut conns = Vec::new();
    for c in 0..ctx.nproc.clamp(1, 2) {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let pool = requests(ctx.seed, c as u64, POOL, vocab);
        conns.push(Conn { stream, pool });
    }
    let probes = requests(ctx.seed, 99, 24, vocab);
    let before = probe(&mut conns[0].stream, &probes)?;
    out.check(
        "probe set before the promotes equals the live snapshot bitwise",
        probes_match(&served.initial, &probes, &before),
    );
    // The low-rate phase is never traced: its latencies are per-layer
    // metrics, printed only by traced runs, and must not carry the tracing
    // cost. The layers it drives are traced in the other phases.
    let low_s = if ctx.trace {
        LOW_SHARE * ctx.seconds
    } else {
        0.0
    };
    let low = ctx.trace.then(|| {
        phase(
            &mut conns,
            &Load::Open { rate: LOW_RATE },
            low_s,
            1,
            &Tracer::new(false),
            None,
        )
    });
    let rest_s = ctx.seconds - low_s;
    let rounds = (rest_s / ROUND_S).round().max(1.0) as u64;
    let high_s = HIGH_SHARE * rest_s / rounds as f64;
    let closed_s = rest_s / rounds as f64 - high_s;
    let (mut high, mut closed) = (Vec::new(), Vec::new());
    let mut promotes = 0;
    for r in 0..rounds {
        let promote = Some((&served.handle, &served.candidates, promotes));
        let h = phase(
            &mut conns,
            &Load::Open { rate: HIGH_RATE },
            high_s,
            2 + 2 * r,
            tracer,
            promote,
        );
        promotes += h.promote_ms.len() + h.promote_failures as usize;
        high.push(h);
        closed.push(phase(
            &mut conns,
            &Load::Closed,
            closed_s,
            3 + 2 * r,
            tracer,
            None,
        ));
    }
    let after = probe(&mut conns[0].stream, &probes)?;
    let store = SnapshotStore::open(&served.dir)?;
    let live_after = store
        .live()
        .ok_or_else(|| io::Error::other("store has no live snapshot"))?;
    let promote_ms: Vec<f64> = high.iter().flat_map(|p| p.promote_ms.clone()).collect();
    let promote_failures: u64 = high.iter().map(|p| p.promote_failures).sum();
    let promoted = promote_ms.len() as u64;
    out.check(
        format!(
            "live version {} after {promoted} promotes",
            live_after.meta().version
        ),
        live_after.meta().version.0 == promoted + 1 && promote_failures == 0,
    );
    out.check(
        "probe set after the last promote equals the live snapshot bitwise",
        probes_match(live_after, &probes, &after),
    );
    let rss = peak_rss_mb();

    let mut tally = Tally::default();
    for p in low.iter().chain(&high).chain(&closed) {
        tally.add(&p.tally);
    }
    let (server_ok, server_errors) = served.handle.response_counts();
    out.attempted = tally.attempted() + promoted + promote_failures;
    out.failed = tally.failed + promote_failures;
    out.check(
        format!(
            "{} requests, {} failed ({} overloaded); server counted {server_errors} error responses",
            tally.attempted(),
            tally.failed,
            tally.overloaded
        ),
        tally.failed == 0 && server_errors == 0 && server_ok >= tally.ok,
    );

    let low_lat = low
        .as_ref()
        .map(|p| Summary::at(&latencies_us(&p.samples), 99.0));
    let high_us: Vec<f64> = high.iter().flat_map(|p| latencies_us(&p.samples)).collect();
    let high_lat = Summary::at(&high_us, TAIL_P);
    let qps = ok_rate(&closed);
    // The end-to-end figures are quiet quartiles over one-second windows:
    // on a shared 2-core machine a slow spell of the host can cover most
    // of a run and lift a pooled figure (most of all a pooled tail), or
    // even the median second, by more than the bound; the quiet quartile
    // steps over it.
    let per_second = seconds_of(&high, |s| s.due_ns);
    let of_seconds = |stat: &dyn Fn(&[f64]) -> f64| {
        let v: Vec<f64> = per_second
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| stat(&latencies_us(w)))
            .collect();
        quiet_quartile(&v, false)
    };
    let sec_p50 = of_seconds(&median);
    let sec_tail = of_seconds(&|v| percentile(v, TAIL_P));
    let sec_qps: Vec<f64> = seconds_of(&closed, |s| s.done_ns)
        .iter()
        .map(|w| w.iter().filter(|s| s.ok).count() as f64)
        .collect();
    let sec_qps = quiet_quartile(&sec_qps, true);
    let lags: Vec<f64> = low
        .iter()
        .chain(&high)
        .flat_map(|p| &p.samples)
        .map(Sample::lag_us)
        .collect();
    out.note(format!(
        "{} connection(s); {rounds} round(s) of {high_s:.3} s at {HIGH_RATE} req/s \
         then {closed_s:.3} s closed loop",
        conns.len()
    ));
    if let Some(l) = &low_lat {
        out.note(format!("low {LOW_RATE} req/s: {}", l.describe(1.0, "us")));
    }
    out.note(format!(
        "high {HIGH_RATE} req/s: {}",
        high_lat.describe(1.0, "us")
    ));
    out.note(format!(
        "high {HIGH_RATE} req/s, quiet quartile of {} one-second windows: p50 {sec_p50:.3} us, \
         p{TAIL_P} {sec_tail:.3} us",
        per_second.len()
    ));
    if let Some(best) = Summary::best(&high_us) {
        out.note(format!(
            "high {HIGH_RATE} req/s, rule tail: {}",
            best.describe(1.0, "us")
        ));
    }
    out.note(format!(
        "closed loop: {qps:.1} req/s over {:.3} s ({sec_qps:.1} in the quiet-quartile second); \
         generator lag p50 {:.1} us, p99 {:.1} us",
        closed.iter().map(|p| p.wall_s).sum::<f64>(),
        median(&lags),
        percentile(&lags, 99.0)
    ));
    if !promote_ms.is_empty() {
        out.note(format!(
            "promote: p50 {:.3} ms, max {:.3} ms (n={})",
            median(&promote_ms),
            percentile(&promote_ms, 100.0),
            promote_ms.len()
        ));
    }
    out.check("peak RSS readable from /proc/self/status", rss.is_some());
    out.set("peak_rss_mb", rss.unwrap_or(f64::NAN));
    out.set("ops_per_s", sec_qps);
    out.set("op_p50_ms", sec_p50 / 1e3);
    out.set("op_tail_ms", sec_tail / 1e3);
    if let Some(l) = low_lat {
        out.set("serve.low_rate_p50_us", l.p50);
        out.set("serve.low_rate_p99_us", l.tail);
    }
    out.set("serve.gen_lag_us", median(&lags));
    out.set("serve.requests_ok", tally.ok as f64);
    out.set("serve.requests_failed", tally.failed as f64);
    out.set("serve.overloaded", tally.overloaded as f64);
    if !promote_ms.is_empty() {
        out.set("serve.promote_ms", median(&promote_ms));
    }
    if ctx.trace {
        traced_metrics(tracer, served, &mut conns, &high, &closed, qps, out);
    }
    Ok(())
}

/// Replays the request shapes in-process, derives the server's share of
/// each round trip, and measures the tracing overhead against an untraced
/// closed loop as long as the traced `closed` slices together.
fn traced_metrics(
    tracer: &Tracer,
    served: &Served,
    conns: &mut [Conn],
    high: &[Phase],
    closed: &[Phase],
    traced_qps: f64,
    out: &mut Outcome,
) {
    let spans = tracer.spans();
    let (mut wall, mut uncovered) = (0.0, 0.0);
    for p in high.iter().chain(closed) {
        let w = (p.window.1 - p.window.0) as f64;
        wall += w;
        uncovered += uncovered_pct(&spans, p.window) * w;
    }
    out.set("trace.uncovered_pct", uncovered / wall);

    {
        let _replay = tracer.span("serve.replay");
        let mut lookups = 0;
        let mut nearest = 0;
        for req in conns.iter().flat_map(|c| &c.pool) {
            match req {
                Request::LookupBatch { ids, .. } if lookups < REPLAYS => {
                    lookups += 1;
                    let _s = tracer.span("serve.snapshot_lookup");
                    let _ = std::hint::black_box(served.initial.try_lookup_batch(ids));
                }
                Request::NearestBatch { k, queries, .. } if nearest < REPLAYS => {
                    nearest += 1;
                    let _s = tracer.span("serve.snapshot_nearest");
                    let _ = std::hint::black_box(
                        served.initial.try_nearest_batch(queries, *k as usize),
                    );
                }
                _ => {}
            }
        }
    }
    let spans = tracer.spans();
    out.add_span_metrics(&spans);
    let compute_us = |name| {
        let t: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        median(&t)
    };
    let (lookup_us, nearest_us) = (
        compute_us("serve.snapshot_lookup"),
        compute_us("serve.snapshot_nearest"),
    );
    out.set("serve.snapshot_lookup_us", lookup_us);
    out.set("serve.snapshot_nearest_us", nearest_us);
    let kind: std::collections::BTreeMap<u64, &str> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.id, s.name))
        .collect();
    let waits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.rpc")
        .filter_map(|s: &Span| {
            let compute = match kind.get(&s.parent?)? {
                &"serve.nearest" => nearest_us,
                _ => lookup_us,
            };
            Some(s.dur_ns() as f64 / 1e3 - compute)
        })
        .collect();
    out.set("serve.server_wait_us", median(&waits));

    let untraced = phase(
        conns,
        &Load::Closed,
        closed.iter().map(|p| p.wall_s).sum(),
        0,
        &Tracer::new(false),
        None,
    );
    let untraced_qps = ok_rate(std::slice::from_ref(&untraced));
    out.set(
        "trace.overhead_pct",
        100.0 * (untraced_qps / traced_qps - 1.0),
    );
    out.note(format!(
        "closed loop traced {traced_qps:.1} req/s vs untraced {untraced_qps:.1} req/s"
    ));
    out.check(
        "untraced closed loop had no failures",
        untraced.tally.failed == 0,
    );
}
