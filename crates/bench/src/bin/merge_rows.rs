//! Shard coordinator fan-in: merge the per-shard JSONL row files a
//! sharded grid run leaves behind (`rows_<task>_<scale>.shard<i>of<n>.jsonl`)
//! into one sorted, de-duplicated JSONL.
//!
//! Usage: `merge_rows [--partial] --out <rows.jsonl> <shard.jsonl>...`, e.g.
//!
//! ```text
//! merge_rows --out results/rows_sst2_small.jsonl \
//!     results/rows_sst2_small.shard0of2.jsonl \
//!     results/rows_sst2_small.shard1of2.jsonl
//! ```
//!
//! Any other argument starting with `-` is an unknown flag, not a file.
//!
//! The output is canonical: rows sorted by `(task, algo, dim, bits, seed)`
//! with one row per configuration (later duplicates dropped), and — for a
//! complete shard set — byte for byte the file the unsharded run writes.
//! Written to that file's name, `results/<stem>.jsonl` with the shard
//! files' stem, it is what the table binaries read: they load it instead
//! of recomputing the task, as long as it holds the whole grid.
//!
//! The shard set is validated before merging: a missing shard or a mix of
//! shard counts is an error, because the output would silently claim
//! configurations it does not hold. `--partial` overrides the check to
//! salvage rows from a fleet with dead shards (the output is then
//! explicitly non-canonical).

use embedstab_bench::{merge_shard_rows, merge_shard_rows_partial, rows_to_jsonl, Cli};
use embedstab_corpus::codec::atomic_write;
use std::path::PathBuf;

const USAGE: &str = "usage: merge_rows [--partial] --out <rows.jsonl> <shard.jsonl>...";

fn main() {
    let mut cli = Cli::new(USAGE);
    let mut out: Option<PathBuf> = None;
    let mut partial = false;
    let mut inputs: Vec<PathBuf> = Vec::new();
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(cli.value(&arg))),
            "--partial" => partial = true,
            _ if !arg.starts_with('-') => inputs.push(PathBuf::from(arg)),
            _ => cli.unknown(&arg),
        }
    }
    let out = out.unwrap_or_else(|| cli.fail("missing --out"));
    if inputs.is_empty() {
        cli.fail("no shard files given");
    }
    let merge = if partial {
        merge_shard_rows_partial
    } else {
        merge_shard_rows
    };
    // An incomplete/mixed shard set is an expected operator error, not a
    // bug: report it cleanly instead of panicking with a backtrace.
    let rows = merge(&inputs).unwrap_or_else(|e| {
        eprintln!("error: cannot merge shard files: {e}");
        std::process::exit(2);
    });
    atomic_write(&out, rows_to_jsonl(&rows).as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    eprintln!(
        "[merge_rows] merged {} shard file(s) into {} ({} rows{})",
        inputs.len(),
        out.display(),
        rows.len(),
        if partial { ", partial" } else { "" }
    );
}
