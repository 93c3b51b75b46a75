//! Integration tests for the `Experiment` builder: sharding determinism,
//! on-disk pair-cache transparency, row streaming, and task pluggability.

use std::sync::{Arc, Mutex, OnceLock};

use embedstab::downstream::{PairSpec, Task, TaskOutcome};
use embedstab::embeddings::{Algo, Embedding};
use embedstab::pipeline::{Experiment, JsonlSink, Row, Scale, World};
use embedstab::quant::Precision;
use proptest::prelude::*;

/// A reduced tiny world shared by every test in this file (2 dims x
/// 2 precisions x 2 seeds = 8 configurations per task).
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut params = Scale::Tiny.params();
        params.dims = vec![4, 8];
        params.precisions = vec![Precision::new(1), Precision::FULL];
        params.seeds = vec![0, 1];
        World::build(&params, 0)
    })
}

fn experiment() -> Experiment<'static> {
    Experiment::new(world()).tasks(["sst2"]).algos([Algo::Mc])
}

/// The unsharded reference rows, computed once.
fn reference_rows() -> &'static Vec<Row> {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| experiment().run())
}

/// A sortable, bitwise-exact key for one row.
fn key(r: &Row) -> (String, String, usize, u8, u64, u64, u64, u64) {
    (
        r.task.clone(),
        r.algo.clone(),
        r.dim,
        r.bits,
        r.seed,
        r.disagreement.to_bits(),
        r.quality17.to_bits(),
        r.quality18.to_bits(),
    )
}

fn sorted_keys(rows: &[Row]) -> Vec<(String, String, usize, u8, u64, u64, u64, u64)> {
    let mut keys: Vec<_> = rows.iter().map(key).collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharding is a partition: for every shard count, the union of rows
    /// from shards `0..n` is bitwise identical to the unsharded run.
    #[test]
    fn shard_union_equals_unsharded_run(n in 1usize..=4) {
        let mut union: Vec<Row> = Vec::new();
        for index in 0..n {
            union.extend(experiment().shard(index, n).run());
        }
        prop_assert_eq!(sorted_keys(&union), sorted_keys(reference_rows()));
    }
}

/// A warm cache directory reproduces the cold run bitwise, and the second
/// run actually hits the cache (every pair file already exists).
#[test]
fn warm_cache_reproduces_cold_run_bitwise() {
    let dir = std::env::temp_dir().join(format!("embedstab_expapi_cache_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cold = experiment().cache_dir(&dir).run();
    let n_files = std::fs::read_dir(&dir).expect("cache dir").count();
    assert!(n_files >= 4, "expected cached pair files, found {n_files}");
    let warm = experiment().cache_dir(&dir).run();
    assert_eq!(sorted_keys(&cold), sorted_keys(&warm));
    // And both match the cache-less reference run.
    assert_eq!(sorted_keys(&cold), sorted_keys(reference_rows()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Sharding and caching compose: two shards against a shared warm cache
/// still reproduce the reference rows.
#[test]
fn sharded_runs_share_a_cache() {
    let dir = std::env::temp_dir().join(format!("embedstab_expapi_shard_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut union = experiment().shard(0, 2).cache_dir(&dir).run();
    union.extend(experiment().shard(1, 2).cache_dir(&dir).run());
    assert_eq!(sorted_keys(&union), sorted_keys(reference_rows()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Sinks observe every row exactly once; JSONL rows round-trip through
/// the file.
#[test]
fn sinks_stream_all_rows() {
    let dir = std::env::temp_dir().join(format!("embedstab_expapi_sink_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let jsonl = dir.join("rows.jsonl");
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let seen_in_sink = seen.clone();
    let rows = experiment()
        .sink(JsonlSink::new(&jsonl))
        .sink(move |r: &Row| seen_in_sink.lock().unwrap().push(r.task.clone()))
        .run();
    assert_eq!(seen.lock().unwrap().len(), rows.len());
    let from_disk = JsonlSink::load(&jsonl).expect("jsonl readable");
    assert_eq!(sorted_keys(&from_disk), sorted_keys(&rows));
    std::fs::remove_dir_all(&dir).ok();
}

/// A custom `Task` implementation plugs into the same grid loop as the
/// built-ins.
#[test]
fn custom_task_plugs_in() {
    struct NormGapTask;
    impl Task for NormGapTask {
        fn name(&self) -> &str {
            "norm_gap"
        }
        fn train_eval(&self, q17: &Embedding, q18: &Embedding, spec: &PairSpec) -> TaskOutcome {
            let gap = (q17.mean_sq_entry() - q18.mean_sq_entry()).abs();
            TaskOutcome {
                disagreement: gap.min(1.0),
                quality17: spec.seed as f64,
                quality18: 1.0,
            }
        }
    }
    let rows = Experiment::new(world())
        .task(Arc::new(NormGapTask))
        .algos([Algo::Mc])
        .run();
    assert_eq!(rows.len(), 8);
    for r in &rows {
        assert_eq!(r.task, "norm_gap");
        assert_eq!(r.quality17, r.seed as f64, "spec threads through");
    }
}
