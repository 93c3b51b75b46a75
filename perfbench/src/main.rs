//! The embedstab benchmark: three workloads, end-to-end and per-layer
//! metrics, output checks on every run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|retrain|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. Every input is generated from
//! `--seed`; the Small world's master seed is the run seed.
//!
//! - `sweep`: the paper's pipeline, a Figure 2 slice. One
//!   `Experiment::run` over CBOW, all 6 dimensions x 6 precisions, tasks
//!   `sst2` and `ner`, with the five measures (72 rows), repeated while
//!   `--seconds` last. The operation is a grid row; its latency is the
//!   time from the grid's submission to the row reaching the sink.
//! - `retrain`: a `ContinuousRetrainer` in incremental mode, bootstrapped
//!   during set-up, then drifted increments of 1% of the base tokens, each
//!   gate-submitted to one tenant (dim 32, 8-bit, unbounded SLO). The
//!   operation is a step: increment arrival to gate decision; `ops_per_s`
//!   and `op_p50_ms` are the rate and the median of the fastest block of
//!   10 consecutive steps, and `op_tail_ms` is the p90 of all steps.
//! - `serve`: an in-process `serve::serve` on a loopback listener with a
//!   Small-world snapshot (dim 64, 8-bit), driven by `min(2, nproc)`
//!   connections with the load generator's mix (8-id lookups; every 4th
//!   request a 2-query k=5 nearest). Rounds of about 5 s alternate an open
//!   loop at 1000 req/s with a hot promote every second and a closed
//!   loop; traced runs start with an open loop at 500 req/s. The operation
//!   is a request of the 1000 req/s slices, timed from its due time;
//!   `op_p50_ms`/`op_tail_ms` are the lower quartiles of the per-second
//!   p50 and p80 and `ops_per_s` the upper quartile of the per-second
//!   closed-loop rate.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it records spans around every call into a layer and prints
//! the per-layer metrics, the share of wall time no span covers, and the
//! tracing overhead. Spans are written to `perfbench/out/`. The last line
//! of standard output is the JSON result; the report goes to standard
//! error.

mod openloop;
mod report;
mod retrain;
mod serve;
mod setup;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::exit;

use report::{Meta, Outcome};
use trace::Tracer;

/// What every workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Cores the process may use.
    pub nproc: usize,
    /// Scratch space for snapshot stores, removed when the run ends.
    pub work_dir: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload sweep|retrain|serve --seed N --seconds S --trace 0|1";

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}\n{USAGE}");
    exit(2)
}

fn flag(args: &[String], name: &str) -> String {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{name} needs a value"))),
        None => usage(&format!("missing {name}")),
    }
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    let v = flag(args, name);
    v.parse()
        .unwrap_or_else(|_| usage(&format!("bad value '{v}' for {name}")))
}

/// Process high-water resident set size (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A seed-derived stream position: distinct inputs per `(seed, a, b)`.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = flag(&args, "--workload");
    let seed: u64 = number(&args, "--seed");
    let seconds: u64 = number(&args, "--seconds");
    let trace = match flag(&args, "--trace").as_str() {
        "0" => false,
        "1" => true,
        other => usage(&format!("bad value '{other}' for --trace")),
    };
    let (run, min_seconds): (fn(&Ctx, &Tracer) -> Outcome, u64) = match workload.as_str() {
        "sweep" => (sweep::run, 1),
        "retrain" => (retrain::run, 1),
        "serve" => (serve::run, serve::MIN_SECONDS),
        other => usage(&format!("unknown workload '{other}'")),
    };
    if seconds < min_seconds {
        usage(&format!(
            "--seconds must be at least {min_seconds} for {workload}"
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = PathBuf::from("perfbench/out");
    let work_dir = out_dir.join(format!("work-{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        exit(1)
    }
    let ctx = Ctx {
        seed,
        seconds: seconds as f64,
        trace,
        nproc,
        work_dir,
    };
    let tracer = Tracer::new(trace);
    let outcome = run(&ctx, &tracer);
    if trace {
        let path = out_dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            exit(1)
        }
        eprintln!("   spans written to {}", path.display());
    }
    std::fs::remove_dir_all(&ctx.work_dir).ok();
    let meta = Meta {
        workload,
        seed,
        seconds,
        trace,
        nproc,
    };
    report::emit(&meta, &outcome);
}
