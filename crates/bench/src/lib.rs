//! Shared analysis helpers for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper, named
//! after it (`run_all` lists them all). The helpers here produce and read
//! the grid's row files, aggregate per-seed rows, convert them into the
//! selection-evaluation inputs of `embedstab-core`, and compute the
//! per-(task, algorithm) Spearman tables.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::Instant;

use embedstab_core::measures::MeasureKind;
use embedstab_core::selection::ConfigPoint;
use embedstab_core::stats;
use embedstab_corpus::codec::atomic_write;
use embedstab_embeddings::Algo;
use embedstab_fleet::{run_coordinator, FleetError};
use embedstab_pipeline::log_line;
use embedstab_pipeline::report::{num, print_table};
use embedstab_pipeline::{
    world_fingerprint, CacheKey, CacheStore, EmbeddingGrid, Experiment, ProgressSink, Row, Scale,
    ScaleParams, ShardFile, World,
};

mod cli;

pub use cli::{Cli, FleetArgs, GridArgs, GRID_FLAGS};

/// A built experiment context: world plus trained embedding grid.
pub struct Setup {
    /// The corpus pair and datasets.
    pub world: World,
    /// The trained full-precision embedding pairs.
    pub grid: EmbeddingGrid,
}

/// Loads (or builds) the world and the grid for the given algorithms at
/// `--scale` (master seed 0, shared by all binaries so grids agree), both
/// through the `--cache-dir` store: a second run at the same scale trains
/// and builds nothing.
pub fn setup(args: &GridArgs, algos: &[Algo]) -> Setup {
    let cache = args.cache();
    let world = World::load_or_build(&args.scale.params(), 0, &cache);
    let params = &world.params;
    let grid = EmbeddingGrid::build(&world, algos, &params.dims, &params.seeds, Some(&cache));
    Setup { world, grid }
}

/// Loads the world at `--scale` (master seed 0) from the `--cache-dir`
/// store, or builds it once into it — how a fleet's shards, and every
/// later run in the same directory, skip the rebuild.
pub fn world_from_args(args: &GridArgs) -> World {
    World::load_or_build(&args.scale.params(), 0, &args.cache())
}

/// The canonical ordering key for merged rows: one entry per grid
/// configuration, so a sorted run has exactly one row per key.
pub fn row_merge_key(r: &Row) -> (String, String, usize, u8, u64) {
    (r.task.clone(), r.algo.clone(), r.dim, r.bits, r.seed)
}

/// The [`ShardFile`] a path names, if its file name is one.
fn shard_file(path: &Path) -> Option<ShardFile> {
    ShardFile::parse(path.file_name()?.to_str()?)
}

/// Checks that the shard files among `paths` form complete sets: for every
/// stem, all files agree on the shard count `n` and shards `0..n` are all
/// present. Duplicates are fine (the merge de-duplicates); files without a
/// `shard<i>of<n>` suffix are fine too (merged outputs re-merge as-is).
///
/// This is what keeps a partial fan-in from masquerading as a canonical
/// row file: merging `shard0of2` without `shard1of2` would *silently*
/// produce a file that claims to cover the grid but is missing half the
/// configurations.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`] naming the stem and the
/// missing shards (or the conflicting counts) on an incomplete or mixed
/// set.
pub fn check_shard_set<P: AsRef<Path>>(paths: &[P]) -> std::io::Result<()> {
    let mut groups: BTreeMap<String, (usize, Vec<bool>)> = BTreeMap::new();
    for path in paths {
        let Some(ShardFile {
            stem,
            index: i,
            shards: n,
        }) = shard_file(path.as_ref())
        else {
            continue;
        };
        let (first_n, seen) = groups.entry(stem.clone()).or_insert((n, vec![false; n]));
        if *first_n != n {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "mixed shard counts for '{stem}': both of{first_n} and of{n} \
                     (merge one fleet at a time, or pass --partial to override)"
                ),
            ));
        }
        seen[i] = true;
    }
    for (stem, (n, seen)) in &groups {
        let missing: Vec<String> = seen
            .iter()
            .enumerate()
            .filter(|(_, &s)| !s)
            .map(|(i, _)| format!("shard{i}of{n}"))
            .collect();
        if !missing.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "incomplete shard set for '{stem}': missing {} \
                     (pass --partial to merge anyway)",
                    missing.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

/// Merges sharded row files (`rows_<task>_<scale>.shard<i>of<n>.jsonl`)
/// into one canonical row list: the concatenation sorted by
/// [`row_merge_key`] and de-duplicated by that key (first occurrence, in
/// input order, wins — re-merging an already-merged file is a no-op).
///
/// The shard set is validated first ([`check_shard_set`]): a gap or a
/// mixed shard count is an error, because the output would wrongly claim
/// to be the canonical full-grid row file. Use
/// [`merge_shard_rows_partial`] to deliberately merge an incomplete set.
///
/// Because shards partition the configuration enumeration disjointly and
/// the pair cache round-trips bitwise, the merge of a full shard set
/// equals the unsharded run's rows exactly — bitwise, not just
/// approximately (the `merge_rows` integration test pins this).
///
/// # Errors
///
/// Returns any I/O error from reading a shard file, or
/// [`std::io::ErrorKind::InvalidInput`] for an incomplete/mixed shard set.
pub fn merge_shard_rows<P: AsRef<Path>>(paths: &[P]) -> std::io::Result<Vec<Row>> {
    check_shard_set(paths)?;
    merge_shard_rows_partial(paths)
}

/// [`merge_shard_rows`] without the completeness check — the `--partial`
/// escape hatch for salvaging rows from a fleet with dead shards. The
/// output is *not* canonical: configurations covered by the missing
/// shards are absent. Corrupt bytes are still an error: every line of
/// every file must parse ([`parse_rows`]).
///
/// # Errors
///
/// Returns any I/O error from reading a file, or
/// [`std::io::ErrorKind::InvalidData`] naming the file and the first line
/// that does not parse.
pub fn merge_shard_rows_partial<P: AsRef<Path>>(paths: &[P]) -> std::io::Result<Vec<Row>> {
    let mut rows = Vec::new();
    for path in paths {
        let path = path.as_ref();
        let body = std::fs::read_to_string(path)?;
        let parsed = parse_rows(&body).map_err(|why| {
            let msg = format!("{}: {why}", path.display());
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        })?;
        rows.extend(parsed);
    }
    // Stable sort + consecutive dedup: the first occurrence per key in
    // input order survives.
    rows.sort_by_cached_key(row_merge_key);
    rows.dedup_by(|a, b| row_merge_key(a) == row_merge_key(b));
    Ok(rows)
}

/// Resolves a shard/worker binary: an explicit path (anything with a
/// separator) is used as-is; a bare name is looked up next to the current
/// executable (all the bench binaries live in the same cargo target
/// directory).
///
/// # Panics
///
/// Panics with a build-it-first message when a bare name has no sibling —
/// this is a binary-side helper, not a library-call path.
pub fn resolve_bin(name: &str) -> PathBuf {
    let path = Path::new(name);
    if path.components().count() > 1 {
        return path.to_path_buf();
    }
    let exe = std::env::current_exe().expect("binary knows its own path");
    let sibling = exe.with_file_name(name);
    if !sibling.exists() {
        panic!(
            "binary {} not found next to {}; build it first or pass a full path",
            sibling.display(),
            exe.display()
        );
    }
    sibling
}

/// Removes leftover shard row files with shard count `n` from
/// `results_dir`: they are regenerable intermediates, and a stale one
/// from an aborted earlier fleet would otherwise be merged as if the new
/// fleet had produced it.
pub fn clean_stale_shard_rows(results_dir: &Path, n: usize) {
    let Ok(entries) = std::fs::read_dir(results_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if shard_file(&path).is_some_and(|f| f.shards == n) {
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Fans a fleet's shard row files back in: groups every
/// `<stem>.shard<i>of<n>.jsonl` in `results_dir` with `n == shards` by
/// stem, merges each complete group through the validated
/// [`merge_shard_rows`] path, and writes the canonical row file
/// `<stem>.jsonl` next to them (atomically) — the file the unsharded
/// binaries read, see [`standard_rows`]. Returns `(stem, merged path,
/// row count)` per group, sorted by stem; an empty result means the
/// fleet wrote no row files.
///
/// # Errors
///
/// Any error from reading the directory, an incomplete/mixed shard set
/// ([`check_shard_set`]), a shard line that does not parse, or writing a
/// merged file. Every group is merged before any file is written, so a
/// bad group leaves no canonical file behind.
pub fn merge_fleet_results(
    results_dir: &Path,
    shards: usize,
) -> std::io::Result<Vec<(String, PathBuf, usize)>> {
    let mut groups: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
    for entry in std::fs::read_dir(results_dir)?.flatten() {
        let path = entry.path();
        if let Some(f) = shard_file(&path).filter(|f| f.shards == shards) {
            groups.entry(f.stem).or_default().push(path);
        }
    }
    let mut merges = Vec::new();
    for (stem, mut group) in groups {
        group.sort();
        merges.push((stem, merge_shard_rows(&group)?));
    }
    let mut merged = Vec::new();
    for (stem, rows) in merges {
        let out = results_dir.join(format!("{stem}.jsonl"));
        atomic_write(&out, rows_to_jsonl(&rows).as_bytes())?;
        merged.push((stem, out, rows.len()));
    }
    Ok(merged)
}

/// Where the bench binaries write rows, shard row files and merges.
pub(crate) const RESULTS_DIR: &str = "results";

/// Runs one fleet and merges its rows, for both coordinator binaries:
/// builds (or loads) the world exactly once into the `--cache-dir` store —
/// its cache file is the key every worker loads or pulls — binds `bind`,
/// hands the bound address to `start_workers`, serves the queue through
/// [`run_coordinator`] until it drains, and merges the committed shard
/// rows into the canonical `results/<stem>.jsonl`, which the unsharded
/// binary then reads instead of recomputing. `who` prefixes the log
/// lines.
///
/// Returns the exit status: 0 once merged, 1 when a slice ran out of
/// dispatch attempts or a shard file does not merge (nothing is merged).
pub fn run_fleet(
    who: &str,
    args: FleetArgs,
    bind: &str,
    start_workers: impl FnOnce(SocketAddr),
) -> i32 {
    let FleetArgs {
        mut config,
        scale,
        cache_dir,
    } = args;
    let shards = config.spec.shards as usize;
    let results = config.results_dir.clone();
    std::fs::create_dir_all(&results)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", results.display()));
    clean_stale_shard_rows(&results, shards);

    let t0 = Instant::now();
    let params = scale.params();
    let store = CacheStore::open(&cache_dir)
        .unwrap_or_else(|e| panic!("cannot open cache {}: {e}", cache_dir.display()));
    World::load_or_build(&params, 0, &store);
    config.spec.scale = scale.name().to_string();
    config.spec.world_key = CacheKey::world(&params, 0).name();
    assert!(
        store.has(&config.spec.world_key),
        "world file {} missing from {} after the build; workers would rebuild it",
        config.spec.world_key,
        cache_dir.display()
    );
    log_line!(
        "[{who}] world ready in {:.1}s (key '{}')",
        t0.elapsed().as_secs_f64(),
        config.spec.world_key
    );

    let listener = TcpListener::bind(bind).unwrap_or_else(|e| panic!("cannot bind {bind}: {e}"));
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    log_line!(
        "[{who}] serving {shards} slice(s) of '{}' (scale {}) on {addr}",
        config.spec.bin,
        config.spec.scale
    );
    start_workers(addr);
    // The fleet crate never reads a clock (lint-enforced); this epoch
    // closure is the coordinator's injected time source.
    let epoch = Instant::now();
    let now_ms = move || u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
    match run_coordinator(listener, store, config, now_ms) {
        Ok(()) => {}
        Err(FleetError::Exhausted { slice, attempts }) => {
            log_line!(
                "[{who}] FLEET FAILED: slice {slice} burned {attempts} dispatch attempt(s); \
                 not merging"
            );
            return 1;
        }
        Err(e) => panic!("fleet coordinator failed: {e}"),
    }

    let merged = match merge_fleet_results(&results, shards) {
        Ok(merged) => merged,
        Err(e) => {
            log_line!("[{who}] FLEET FAILED: cannot merge shard files: {e}");
            return 1;
        }
    };
    if merged.is_empty() {
        log_line!("[{who}] warning: the fleet committed no row files; nothing to merge");
    }
    for (_, out, rows) in merged {
        log_line!(
            "[{who}] merged {shards} shard(s) -> {} ({rows} rows)",
            out.display()
        );
    }
    log_line!("[{who}] done in {:.1}s total", t0.elapsed().as_secs_f64());
    0
}

/// Serializes merged rows back to JSONL (one row per line, trailing
/// newline), the same line format
/// [`JsonlSink`](embedstab_pipeline::JsonlSink) writes.
pub fn rows_to_jsonl(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&serde_json::to_string(r).expect("row serializes"));
        out.push('\n');
    }
    out
}

/// A row aggregated over seeds for one `(task, algo, dim, bits)`.
#[derive(Clone, Debug)]
pub struct AggRow {
    /// Task name.
    pub task: String,
    /// Algorithm name.
    pub algo: String,
    /// Dimension.
    pub dim: usize,
    /// Precision bits.
    pub bits: u8,
    /// Bits/word.
    pub memory: u64,
    /// Mean disagreement over seeds, in `[0, 1]`.
    pub mean_di: f64,
    /// Standard deviation of disagreement over seeds.
    pub std_di: f64,
    /// Mean '17-side quality over seeds.
    pub mean_quality: f64,
    /// Number of seeds aggregated.
    pub n_seeds: usize,
}

/// Aggregates raw rows over seeds, keyed by `(task, algo, dim, bits)` and
/// sorted by `(task, algo, memory, bits)`.
pub fn aggregate(rows: &[Row]) -> Vec<AggRow> {
    let mut groups: BTreeMap<(String, String, usize, u8), Vec<&Row>> = BTreeMap::new();
    for r in rows {
        groups
            .entry((r.task.clone(), r.algo.clone(), r.dim, r.bits))
            .or_default()
            .push(r);
    }
    let mut out: Vec<AggRow> = groups
        .into_iter()
        .map(|((task, algo, dim, bits), rs)| {
            let dis: Vec<f64> = rs.iter().map(|r| r.disagreement).collect();
            let qs: Vec<f64> = rs.iter().map(|r| r.quality17).collect();
            AggRow {
                task,
                algo,
                dim,
                bits,
                memory: rs[0].memory,
                mean_di: stats::mean(&dis),
                std_di: stats::std_dev(&dis),
                mean_quality: stats::mean(&qs),
                n_seeds: rs.len(),
            }
        })
        .collect();
    out.sort_by(|a, b| {
        (&a.task, &a.algo, a.memory, a.bits).cmp(&(&b.task, &b.algo, b.memory, b.bits))
    });
    out
}

/// Spearman correlation between one measure and disagreement over all rows
/// (the paper computes this per task and algorithm across the
/// dimension-precision grid).
///
/// Returns `None` if any row lacks measures or there are fewer than 3 rows.
pub fn spearman_for(rows: &[Row], kind: MeasureKind) -> Option<f64> {
    if rows.len() < 3 {
        return None;
    }
    let mut xs = Vec::with_capacity(rows.len());
    let mut ys = Vec::with_capacity(rows.len());
    for r in rows {
        xs.push(r.measures?.get(kind));
        ys.push(r.disagreement);
    }
    Some(stats::spearman(&xs, &ys))
}

/// Splits rows by seed and converts each seed's grid into selection
/// inputs for one measure — the paper evaluates selection per seed and
/// averages (Section 5.2).
///
/// Rows without measures are skipped.
pub fn config_points_per_seed(rows: &[Row], kind: MeasureKind) -> Vec<Vec<ConfigPoint>> {
    let mut by_seed: BTreeMap<u64, Vec<ConfigPoint>> = BTreeMap::new();
    for r in rows {
        let Some(m) = r.measures else { continue };
        by_seed.entry(r.seed).or_default().push(ConfigPoint {
            dim: r.dim,
            bits: r.bits,
            measure: m.get(kind),
            instability: r.disagreement,
        });
    }
    by_seed.into_values().collect()
}

/// Filters rows to one algorithm.
pub fn rows_for_algo(rows: &[Row], algo: &str) -> Vec<Row> {
    rows.iter().filter(|r| r.algo == algo).cloned().collect()
}

/// Prints one line per measure and one column per `task/algo` of the
/// three main algorithms (Tables 1, 2, 9 and 10); `cell` fills a column
/// from that task's rows of one algorithm.
pub fn print_measure_table(
    rows: &BTreeMap<String, Vec<Row>>,
    tasks: &[&str],
    cell: impl Fn(&[Row], MeasureKind) -> String,
) {
    let mut header = vec!["measure".to_string()];
    let mut columns = Vec::new();
    for task in tasks {
        for algo in ["CBOW", "GloVe", "MC"] {
            header.push(format!("{task}/{algo}"));
            columns.push(rows_for_algo(&rows[*task], algo));
        }
    }
    let table: Vec<Vec<String>> = MeasureKind::ALL
        .into_iter()
        .map(|kind| {
            let cells = columns.iter().map(|sub| cell(sub, kind));
            std::iter::once(kind.name().to_string())
                .chain(cells)
                .collect()
        })
        .collect();
    print_table(
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        &table,
    );
}

/// A table cell: the mean over seeds of `f` on one measure's selection
/// inputs, times `scale_by`, to two decimals (`n/a` without measures).
pub fn mean_over_seeds(
    rows: &[Row],
    kind: MeasureKind,
    scale_by: f64,
    f: impl Fn(&[ConfigPoint]) -> f64,
) -> String {
    let vals: Vec<f64> = config_points_per_seed(rows, kind)
        .iter()
        .map(|pts| scale_by * f(pts))
        .collect();
    if vals.is_empty() {
        "n/a".into()
    } else {
        num(stats::mean(&vals), 2)
    }
}

/// Copies measure values from `with` onto `rows` by matching
/// `(algo, dim, bits, seed)` — measures depend only on the embedding pair,
/// not on the downstream task, so one task's grid can supply them all.
pub fn attach_measures(rows: &mut [Row], with: &[Row]) {
    let map: BTreeMap<(String, usize, u8, u64), embedstab_core::MeasureValues> = with
        .iter()
        .filter_map(|r| {
            r.measures
                .map(|m| ((r.algo.clone(), r.dim, r.bits, r.seed), m))
        })
        .collect();
    for r in rows.iter_mut() {
        if r.measures.is_none() {
            r.measures = map.get(&(r.algo.clone(), r.dim, r.bits, r.seed)).copied();
        }
    }
}

/// The stem of a task's row files at one scale,
/// `rows_<task>_<scale>_<fp>`, where `fp` is the world fingerprint of
/// `params` at master seed 0. The fingerprint covers every parameter,
/// `top_m` included, so rows computed under other parameters are never
/// read back. Shard files (`<stem>.shard<i>of<n>.jsonl`), the fleet's
/// merge and the canonical file (`<stem>.jsonl`) all take this stem.
pub fn row_stem(task: &str, scale: Scale, params: &ScaleParams) -> String {
    let fp = world_fingerprint(params, 0);
    format!("rows_{task}_{}_{fp:016x}", scale.name())
}

/// Parses the lines of a row file, canonical or shard: every line must
/// parse and the body must end in a newline. The error names the first
/// line that fails.
pub fn parse_rows(body: &str) -> Result<Vec<Row>, String> {
    if !body.is_empty() && !body.ends_with('\n') {
        return Err("its last line is cut off".to_string());
    }
    body.lines()
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str::<Row>(line)
                .map_err(|e| format!("line {} does not parse: {e}", i + 1))
        })
        .collect()
}

/// Parses a canonical row file: its lines through [`parse_rows`], and
/// the rows must be exactly the task's grid
/// (`Algo::MAIN` × dims × precisions × seeds) in [`row_merge_key`] order,
/// one row per configuration. With `measures`, every row must carry them.
/// The error says why the file cannot be used.
fn parse_row_file(
    body: &str,
    task: &str,
    params: &ScaleParams,
    measures: bool,
) -> Result<Vec<Row>, String> {
    let rows = parse_rows(body)?;
    let mut want = Vec::new();
    for algo in Algo::MAIN {
        for &dim in &params.dims {
            for prec in &params.precisions {
                for &seed in &params.seeds {
                    want.push((task.into(), algo.name().into(), dim, prec.bits(), seed));
                }
            }
        }
    }
    want.sort();
    if rows.len() != want.len() {
        return Err(format!(
            "it holds {} rows for a grid of {}",
            rows.len(),
            want.len()
        ));
    }
    if rows.iter().map(row_merge_key).ne(want) {
        return Err("its rows are not the grid's configurations in order".to_string());
    }
    if measures && rows.iter().any(|r| r.measures.is_none()) {
        return Err("a row lacks measures".to_string());
    }
    Ok(rows)
}

/// Reads a canonical row file for [`standard_rows`]: `None` if it is
/// missing, or, with one stderr line saying why, if [`parse_row_file`]
/// rejects it.
fn load_row_file(
    file: &Path,
    task: &str,
    params: &ScaleParams,
    measures: bool,
) -> Option<Vec<Row>> {
    let bytes = std::fs::read(file).ok()?;
    let rows = String::from_utf8(bytes)
        .map_err(|_| "it is not UTF-8".to_string())
        .and_then(|body| parse_row_file(&body, task, params, measures));
    match rows {
        Ok(rows) => {
            log_line!("[rows] loaded {} rows from {}", rows.len(), file.display());
            Some(rows)
        }
        Err(why) => {
            log_line!("[rows] recomputing {}: {why}", file.display());
            None
        }
    }
}

/// Computes (or loads) the standard full-grid rows for the given tasks
/// over the three main algorithms. Measures are computed once — during the
/// first task's grid — and attached to the rest, since they only depend on
/// the embedding pair.
///
/// Each task has one canonical row file, `results/<stem>.jsonl` (see
/// [`row_stem`]), the bytes a fleet's merge writes. Unless `--fresh` is
/// passed, a file `parse_row_file` accepts is loaded; any other is
/// recomputed and overwritten. The world is built (or loaded) on the
/// first task that has to run.
///
/// Two grid flags feed straight into the pipeline: `--cache-dir` names
/// the [`CacheStore`] the world is loaded from (or built once into) and
/// trained pairs are shared through, so tasks after the first and later
/// runs load theirs; and `--shard i/n` computes only this process's
/// slice of each grid and writes it to
/// `results/<stem>.shard<i>of<n>.jsonl` instead.
pub fn standard_rows(args: &GridArgs, tasks: &[&str]) -> BTreeMap<String, Vec<Row>> {
    let scale = args.scale;
    let params = scale.params();
    let reuse = args.shard.is_none() && !args.fresh;
    let results = Path::new(RESULTS_DIR);
    let mut world: Option<World> = None;
    let mut out: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    let mut measure_source: Option<Vec<Row>> = None;
    for (i, &task) in tasks.iter().enumerate() {
        let first = i == 0;
        let stem = row_stem(task, scale, &params);
        let mut file = results.join(format!("{stem}.jsonl"));
        let loaded = if reuse {
            load_row_file(&file, task, &params, first)
        } else {
            None
        };
        let mut rows = match loaded {
            Some(rows) => rows,
            None => {
                let world = world.get_or_insert_with(|| world_from_args(args));
                let mut exp = Experiment::new(world)
                    .tasks([task])
                    .with_measures(first)
                    .cache_dir(&args.cache_dir)
                    .sink(ProgressSink::new(format!("{task}/{}", scale.name()), 8));
                if let Some((index, n)) = args.shard {
                    exp = exp.shard(index, n);
                    file = results.join(
                        ShardFile {
                            stem,
                            index,
                            shards: n,
                        }
                        .name(),
                    );
                }
                log_line!("[run] {task} grid -> {}...", file.display());
                let mut rows = exp.run();
                rows.sort_by_cached_key(row_merge_key);
                std::fs::create_dir_all(results)
                    .and_then(|()| atomic_write(&file, rows_to_jsonl(&rows).as_bytes()))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", file.display()));
                rows
            }
        };
        if first {
            measure_source = Some(rows.clone());
        } else if let Some(src) = &measure_source {
            attach_measures(&mut rows, src);
        }
        out.insert(task.to_string(), rows);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_core::MeasureValues;

    fn row(task: &str, algo: &str, dim: usize, bits: u8, seed: u64, di: f64) -> Row {
        Row {
            task: task.into(),
            algo: algo.into(),
            dim,
            bits,
            memory: dim as u64 * bits as u64,
            seed,
            disagreement: di,
            quality17: 0.8,
            quality18: 0.8,
            measures: Some(MeasureValues {
                eis: di * 0.9,
                knn_dist: di * 1.1,
                semantic_displacement: 0.5,
                pip_loss: 1.0,
                overlap_dist: 0.5,
            }),
        }
    }

    #[test]
    fn aggregate_means_and_stds() {
        let rows = vec![
            row("sst2", "MC", 8, 4, 0, 0.10),
            row("sst2", "MC", 8, 4, 1, 0.20),
            row("sst2", "MC", 16, 4, 0, 0.05),
        ];
        let agg = aggregate(&rows);
        assert_eq!(agg.len(), 2);
        let g = agg.iter().find(|a| a.dim == 8).expect("group");
        assert!((g.mean_di - 0.15).abs() < 1e-12);
        assert_eq!(g.n_seeds, 2);
    }

    #[test]
    fn spearman_uses_requested_measure() {
        // EIS tracks DI perfectly (rank-wise) in the fixture.
        let rows: Vec<Row> = (0..6)
            .map(|i| row("sst2", "MC", 4 << i, 32, 0, 0.02 * (6 - i) as f64))
            .collect();
        let rho = spearman_for(&rows, MeasureKind::Eis).expect("measures present");
        assert!((rho - 1.0).abs() < 1e-9);
    }

    #[test]
    fn row_stems_differ_in_top_m() {
        let small = Scale::Small.params();
        let mut other = small.clone();
        other.top_m = small.top_m / 2;
        let stem = row_stem("sst2", Scale::Small, &small);
        assert!(stem.starts_with("rows_sst2_small_"), "{stem}");
        assert_eq!(stem, row_stem("sst2", Scale::Small, &small.clone()));
        assert_ne!(stem, row_stem("sst2", Scale::Small, &other));
    }

    /// A 12-configuration grid and its rows in canonical order.
    fn grid_rows() -> (ScaleParams, Vec<Row>) {
        let mut params = Scale::Tiny.params();
        params.dims = vec![4, 8];
        params.precisions = vec![
            embedstab_quant::Precision::new(1),
            embedstab_quant::Precision::FULL,
        ];
        params.seeds = vec![0];
        let mut rows = Vec::new();
        for algo in Algo::MAIN {
            for dim in [4, 8] {
                for bits in [1, 32] {
                    rows.push(row("sst2", algo.name(), dim, bits, 0, 0.1));
                }
            }
        }
        rows.sort_by_cached_key(row_merge_key);
        (params, rows)
    }

    #[test]
    fn row_file_must_hold_exactly_the_grid() {
        let (params, mut rows) = grid_rows();
        let body = rows_to_jsonl(&rows);
        let parse = |body: &str, task, measures| parse_row_file(body, task, &params, measures);
        assert_eq!(parse(&body, "sst2", true).expect("canonical").len(), 12);
        let lines: Vec<&str> = body.lines().collect();
        let join = |lines: &[&str]| lines.join("\n") + "\n";
        let why = |body: &str| parse(body, "sst2", false).expect_err("rejected");
        assert_eq!(why(&body[..body.len() - 5]), "its last line is cut off");
        let mut garbled = lines.clone();
        garbled[2] = "{\"task\":";
        assert!(why(&join(&garbled)).starts_with("line 3 does not parse"));
        assert_eq!(why(&join(&lines[1..])), "it holds 11 rows for a grid of 12");
        assert_eq!(why(""), "it holds 0 rows for a grid of 12");
        let not_the_grid = "its rows are not the grid's configurations in order";
        let mut doubled = lines.clone();
        doubled[1] = lines[0];
        assert_eq!(why(&join(&doubled)), not_the_grid);
        let mut swapped = lines.clone();
        swapped.swap(0, 1);
        assert_eq!(why(&join(&swapped)), not_the_grid);
        assert_eq!(
            parse(&body, "mr", false).expect_err("other task"),
            not_the_grid
        );
        // Measures are required only of the measure-carrying task.
        rows[5].measures = None;
        let bare = rows_to_jsonl(&rows);
        assert_eq!(
            parse(&bare, "sst2", false)
                .expect("no measures needed")
                .len(),
            12
        );
        assert_eq!(
            parse(&bare, "sst2", true).expect_err("measures needed"),
            "a row lacks measures"
        );
    }

    #[test]
    fn config_points_split_by_seed() {
        let rows = vec![
            row("sst2", "MC", 8, 4, 0, 0.1),
            row("sst2", "MC", 8, 8, 0, 0.05),
            row("sst2", "MC", 8, 4, 1, 0.2),
        ];
        let per_seed = config_points_per_seed(&rows, MeasureKind::Knn);
        assert_eq!(per_seed.len(), 2);
        assert_eq!(per_seed[0].len(), 2);
        assert_eq!(per_seed[1].len(), 1);
    }
}
