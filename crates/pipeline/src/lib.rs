//! The end-to-end experiment harness behind every table/figure
//! reproduction binary.
//!
//! The harness mirrors the paper's three-step pipeline (Artifact
//! Appendix A.5):
//!
//! 1. **Train and compress embeddings** — [`World`] builds the
//!    Wiki'17/Wiki'18 corpus pair and downstream datasets (once per cache
//!    directory, via [`World::load_or_build`]);
//!    [`EmbeddingGrid`] trains the `algo x dim x seed` grid once (in
//!    parallel, through an optional [`CacheStore`]), aligns each '18
//!    embedding to its '17 partner, and hands out quantized pairs on
//!    demand. The [`store`] keeps worlds and pairs in one directory, in
//!    the [`world_cache`] and [`cache`] file formats.
//! 2. **Train downstream models and compute metrics** — [`Experiment`]
//!    sweeps pluggable [`Task`](embedstab_downstream::Task)s over the
//!    `task x algo x dim x precision x seed` grid, recording prediction
//!    disagreement, quality, and the five embedding distance measures per
//!    configuration. Runs shard deterministically across processes
//!    ([`Experiment::shard`]) and stream rows as they complete
//!    ([`RowSink`], [`JsonlSink`]).
//! 3. **Run analyses** — `embedstab-core`'s statistics and selection
//!    routines consume the rows; [`report`] renders the paper-style
//!    tables.
//!
//! Scales: [`Scale::Tiny`] for tests, [`Scale::Small`] (default) for the
//! 2-core reproduction runs, [`Scale::Paper`] for a closer-to-paper grid
//! (where sharding + the pair cache pay off).

/// `eprintln!` for processes that share one stderr: formats the line and
/// its newline into one `String` and writes it with one `write_all` on
/// locked stderr (through [`write_stderr_line`]). A loopback fleet's
/// coordinator, workers and shards all log to one stderr, and
/// `eprintln!`, which writes each format piece separately, lets their
/// lines split one another.
#[macro_export]
macro_rules! log_line {
    ($($arg:tt)*) => {
        $crate::write_stderr_line(::std::format!($($arg)*))
    };
}

/// Appends a newline to `line` and writes it to stderr in one call; see
/// [`log_line!`]. A failed write is dropped: a log line has nowhere else
/// to go.
pub fn write_stderr_line(mut line: String) {
    use std::io::Write;
    line.push('\n');
    std::io::stderr().lock().write_all(line.as_bytes()).ok();
}

pub mod cache;
pub mod experiment;
pub mod grid;
pub mod pool;
pub mod report;
pub mod run;
pub mod scale;
pub mod sink;
pub mod store;
pub mod world;
pub mod world_cache;

pub use cache::CACHE_FORMAT_VERSION;
pub use experiment::Experiment;
pub use grid::{EmbeddingGrid, PairKey};
pub use run::Row;
pub use scale::{Scale, ScaleParams};
pub use sink::{JsonlSink, ProgressSink, RowSink, ShardFile};
pub use store::{CacheFamily, CacheKey, CacheStore, StoreError};
pub use world::{pair_fingerprint, World};
pub use world_cache::{world_fingerprint, WORLD_CACHE_FORMAT_VERSION};
