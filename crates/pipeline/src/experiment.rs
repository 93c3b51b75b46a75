//! The `Experiment` builder: one orchestration surface for every grid run.
//!
//! The paper's protocol is a single loop — train an embedding pair,
//! compress it, train paired downstream models, record disagreement — and
//! this module is its one implementation. Tasks plug in through the
//! [`Task`] trait, so sentiment, NER, and future task families all share
//! the same grid plumbing, sharding, caching, and row streaming:
//!
//! ```no_run
//! use embedstab_pipeline::{Experiment, JsonlSink, Scale, World};
//!
//! let world = World::build(&Scale::Small.params(), 0);
//! let rows = Experiment::new(&world)
//!     .tasks(["sst2", "ner"])
//!     .with_measures(true)
//!     .shard(0, 2)                       // this process covers half the grid
//!     .cache_dir("cache")                // share trained pairs across shards
//!     .sink(JsonlSink::new("results/rows.jsonl"))
//!     .run();
//! # let _ = rows;
//! ```
//!
//! Configurations are enumerated deterministically as
//! `task x algo x dim x precision x seed`; [`Experiment::shard`] keeps
//! every `n`-th configuration, so the union over shards `0..n` is exactly
//! the unsharded run (the `experiment_api` integration tests pin this,
//! bitwise).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use embedstab_core::measures::{KnnMeasure, MeasureSuite, EIS_ALPHA, KNN_K};
use embedstab_core::MeasureValues;
use embedstab_downstream::{NerTask, PairSpec, SentimentTask, Task};
use embedstab_embeddings::Algo;
use embedstab_quant::{bits_per_word, Precision};
use parking_lot::Mutex;

use crate::grid::{EmbeddingGrid, PairKey};
use crate::pool::parallel_map;
use crate::run::Row;
use crate::sink::RowSink;
use crate::store::CacheStore;
use crate::world::World;

/// One enumerated grid configuration: `(task index, algo, dim, precision,
/// seed)`.
type Config = (usize, Algo, usize, Precision, u64);

/// A predicate over `(algo, dim, precision, seed)` restricting the grid to
/// arbitrary configuration subsets (e.g. a fixed memory budget).
type ConfigFilter = dyn Fn(Algo, usize, Precision, u64) -> bool + Send + Sync;

enum TaskSpec {
    /// Resolved against the world at run time: `"ner"` or a sentiment
    /// dataset name.
    Named(String),
    /// A caller-supplied task implementation.
    Custom(Arc<dyn Task>),
}

/// Fluent builder for one grid run. See the [module docs](self) for the
/// shape of the API.
pub struct Experiment<'w> {
    world: &'w World,
    grid: Option<&'w EmbeddingGrid>,
    tasks: Vec<TaskSpec>,
    algos: Vec<Algo>,
    dims: Option<Vec<usize>>,
    precisions: Option<Vec<Precision>>,
    with_measures: bool,
    lr_override: Option<f64>,
    relax_seeds: bool,
    fine_tune_lr: Option<f64>,
    filters: Vec<Box<ConfigFilter>>,
    shard: Option<(usize, usize)>,
    cache_dir: Option<PathBuf>,
    sinks: Vec<Box<dyn RowSink>>,
}

impl<'w> Experiment<'w> {
    /// Starts an experiment over a built world with default options (the
    /// three main algorithms, no measures, no sharding, no cache).
    pub fn new(world: &'w World) -> Self {
        Experiment {
            world,
            grid: None,
            tasks: Vec::new(),
            algos: Algo::MAIN.to_vec(),
            dims: None,
            precisions: None,
            with_measures: false,
            lr_override: None,
            relax_seeds: false,
            fine_tune_lr: None,
            filters: Vec::new(),
            shard: None,
            cache_dir: None,
            sinks: Vec::new(),
        }
    }

    /// Adds tasks by name: `"ner"`, or any of the world's sentiment
    /// datasets (`"sst2"`, `"mr"`, `"subj"`, `"mpqa"`).
    pub fn tasks<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.tasks
            .extend(names.into_iter().map(|n| TaskSpec::Named(n.into())));
        self
    }

    /// Adds a custom [`Task`] implementation (the extension point for KGE,
    /// contextual, or ad-hoc tasks).
    pub fn task(mut self, task: Arc<dyn Task>) -> Self {
        self.tasks.push(TaskSpec::Custom(task));
        self
    }

    /// Restricts the run to these algorithms (default: [`Algo::MAIN`]).
    pub fn algos(mut self, algos: impl IntoIterator<Item = Algo>) -> Self {
        self.algos = algos.into_iter().collect();
        self
    }

    /// Restricts the grid to these dimensions (default: the scale's
    /// sweep).
    pub fn dims(mut self, dims: impl IntoIterator<Item = usize>) -> Self {
        self.dims = Some(dims.into_iter().collect());
        self
    }

    /// Restricts the grid to these precisions (default: the scale's
    /// sweep).
    pub fn precisions(mut self, precisions: impl IntoIterator<Item = Precision>) -> Self {
        self.precisions = Some(precisions.into_iter().collect());
        self
    }

    /// Also computes the five embedding distance measures per
    /// configuration.
    pub fn with_measures(mut self, yes: bool) -> Self {
        self.with_measures = yes;
        self
    }

    /// Overrides the downstream learning rate (Appendix E.5).
    pub fn lr_override(mut self, lr: f64) -> Self {
        self.lr_override = Some(lr);
        self
    }

    /// Uses different model-init/sampling seeds on the '18 side
    /// (Appendix E.3).
    pub fn relax_seeds(mut self, yes: bool) -> Self {
        self.relax_seeds = yes;
        self
    }

    /// Fine-tunes embeddings during downstream training (Appendix E.4;
    /// sentiment only).
    pub fn fine_tune_lr(mut self, lr: f64) -> Self {
        self.fine_tune_lr = Some(lr);
        self
    }

    /// Keeps only configurations matching the predicate — applied before
    /// sharding, so all shards agree on the filtered enumeration.
    ///
    /// Repeated calls compose with AND: a configuration survives only if
    /// every registered predicate accepts it, so orthogonal restrictions
    /// (a memory budget, an algorithm subset) can be added independently.
    pub fn filter(
        mut self,
        f: impl Fn(Algo, usize, Precision, u64) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.filters.push(Box::new(f));
        self
    }

    /// Runs only shard `index` of `n` disjoint shards: configuration `i`
    /// of the (filtered) enumeration belongs to shard `i % n`. The union
    /// of rows over shards `0..n` equals the unsharded run exactly.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n` or `n == 0`.
    pub fn shard(mut self, index: usize, n: usize) -> Self {
        assert!(n > 0, "shard count must be positive");
        assert!(index < n, "shard index {index} out of range for {n} shards");
        self.shard = Some((index, n));
        self
    }

    /// Loads and stores trained + aligned embedding pairs in the
    /// [`CacheStore`] at `dir`, keyed by `(world fingerprint, algo, dim,
    /// seed)` — re-runs and sibling shard processes load instead of
    /// training.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Supplies a pre-built embedding grid instead of training one (must
    /// cover every configuration the run touches). `cache_dir` then only
    /// matters for grids built by future runs.
    pub fn grid(mut self, grid: &'w EmbeddingGrid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Streams completed rows to `sink` (in completion order) in addition
    /// to returning them. May be called multiple times.
    pub fn sink(mut self, sink: impl RowSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Enumerates this experiment's configurations after filtering and
    /// sharding, in deterministic order.
    fn configs(&self, n_tasks: usize) -> Vec<Config> {
        let p = &self.world.params;
        let dims = self.dims.as_ref().unwrap_or(&p.dims);
        let precisions = self.precisions.as_ref().unwrap_or(&p.precisions);
        let mut out = Vec::new();
        for task in 0..n_tasks {
            for &algo in &self.algos {
                for &dim in dims {
                    for &prec in precisions {
                        for &seed in &p.seeds {
                            if self.filters.iter().all(|f| f(algo, dim, prec, seed)) {
                                out.push((task, algo, dim, prec, seed));
                            }
                        }
                    }
                }
            }
        }
        if let Some((index, n)) = self.shard {
            out = out
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i % n == index)
                .map(|(_, c)| c)
                .collect();
        }
        out
    }

    /// Resolves named tasks against the world.
    fn resolve_tasks(&self) -> Vec<Arc<dyn Task>> {
        let p = &self.world.params;
        self.tasks
            .iter()
            .map(|spec| match spec {
                TaskSpec::Named(name) if name == "ner" => Arc::new(NerTask::new(
                    self.world.ner.clone(),
                    p.lstm_hidden,
                    p.lstm_epochs,
                )) as Arc<dyn Task>,
                TaskSpec::Named(name) => Arc::new(SentimentTask::new(
                    self.world.sentiment_dataset_arc(name).clone(),
                    p.logreg_epochs,
                )) as Arc<dyn Task>,
                TaskSpec::Custom(task) => task.clone(),
            })
            .collect()
    }

    /// The pair keys this run needs: every sharded configuration's
    /// full-precision pair, plus (when measures are on) the max-dimension
    /// EIS reference pair for each `(algo, seed)` in play.
    fn needed_pairs(&self, configs: &[Config]) -> Vec<PairKey> {
        let mut keys: Vec<PairKey> = configs.iter().map(|&(_, a, d, _, s)| (a, d, s)).collect();
        if self.with_measures {
            let max_dim = self.world.params.max_dim();
            keys.extend(configs.iter().map(|&(_, a, _, _, s)| (a, max_dim, s)));
        }
        keys.sort();
        keys.dedup();
        keys
    }

    /// Runs the grid: trains (or loads) the embedding pairs, evaluates
    /// every task on every sharded configuration in parallel, streams rows
    /// to the sinks, and returns them in enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if no tasks were added, a named task does not exist in the
    /// world, or a supplied grid is missing a required pair.
    pub fn run(mut self) -> Vec<Row> {
        assert!(
            !self.tasks.is_empty(),
            "Experiment needs at least one task; call .tasks([...]) or .task(...)"
        );
        let tasks = self.resolve_tasks();
        let configs = self.configs(tasks.len());
        let cache = self.cache_dir.as_ref().map(|dir| {
            CacheStore::open(dir)
                .unwrap_or_else(|e| panic!("cannot open cache dir {}: {e}", dir.display()))
        });
        let built;
        let grid = match self.grid {
            Some(grid) => grid,
            None => {
                built = EmbeddingGrid::build_pairs(
                    self.world,
                    &self.needed_pairs(&configs),
                    cache.as_ref(),
                );
                &built
            }
        };
        let (suites, measures) = if self.with_measures {
            measure_suites(self.world, grid, &configs)
        } else {
            (BTreeMap::new(), BTreeMap::new())
        };
        for sink in &mut self.sinks {
            sink.start(configs.len());
        }
        let sinks = Mutex::new(self.sinks);
        let world = self.world;
        let rows = parallel_map(&configs, |&(task_idx, algo, dim, prec, seed)| {
            let task = &tasks[task_idx];
            let (q17, q18) = grid.quantized_pair(algo, dim, seed, prec);
            let spec = PairSpec {
                seed,
                lr_override: self.lr_override,
                relax_seeds: self.relax_seeds,
                fine_tune_lr: self.fine_tune_lr,
            };
            let outcome = task.train_eval(&q17, &q18, &spec);
            // The first row of a configuration computes its measures; a
            // row of another task blocks until they are ready (the nested
            // pool calls inside run inline, so nothing waits on a worker).
            let measures = measures.get(&(algo, dim, prec, seed)).map(|cell| {
                *cell.get_or_init(|| {
                    let m = world.params.top_m.min(q17.vocab_size());
                    suites[&(algo, seed)].compute_all(&q17.top_rows(m), &q18.top_rows(m))
                })
            });
            let row = Row {
                task: task.name().to_string(),
                algo: algo.name().to_string(),
                dim,
                bits: prec.bits(),
                memory: bits_per_word(dim, prec),
                seed,
                disagreement: outcome.disagreement,
                quality17: outcome.quality17,
                quality18: outcome.quality18,
                measures,
            };
            for sink in sinks.lock().iter_mut() {
                sink.emit(&row);
            }
            row
        });
        for sink in sinks.into_inner().iter_mut() {
            sink.finish();
        }
        rows
    }
}

/// Each configuration's measures, computed by the first of its rows to
/// get there and shared by the rest; they depend on `(algo, dim,
/// precision, seed)`, not on the task.
type MeasureCells = BTreeMap<(Algo, usize, Precision, u64), OnceLock<MeasureValues>>;

/// Builds the per-(algo, seed) measure suites (the EIS references are
/// the highest-dimensional full-precision pair, as in the paper) and one
/// empty measure cell per configuration.
fn measure_suites(
    world: &World,
    grid: &EmbeddingGrid,
    configs: &[Config],
) -> (BTreeMap<(Algo, u64), MeasureSuite>, MeasureCells) {
    // BTreeMap, not HashMap: suites are only read by keyed lookup today,
    // but a future "iterate all suites into a summary" would float-sum in
    // SipHash order and break the bitwise shard/unsharded equivalence.
    // Key-ordered storage closes that door.
    let p = &world.params;
    let max_dim = p.max_dim();
    let mut suites = BTreeMap::new();
    let mut cells = BTreeMap::new();
    for &(_, algo, dim, prec, seed) in configs {
        suites.entry((algo, seed)).or_insert_with(|| {
            let (e17, e18) = grid.pair(algo, max_dim, seed);
            MeasureSuite::new(
                &e17.top_rows(p.top_m.min(e17.vocab_size())),
                &e18.top_rows(p.top_m.min(e18.vocab_size())),
                EIS_ALPHA,
                seed,
            )
            .with_knn(KnnMeasure::new(KNN_K, p.knn_queries, seed))
        });
        cells.entry((algo, dim, prec, seed)).or_default();
    }
    (suites, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn tiny_world() -> World {
        let mut params = Scale::Tiny.params();
        params.dims = vec![4, 8];
        params.precisions = vec![Precision::new(1), Precision::FULL];
        params.seeds = vec![0];
        World::build(&params, 0)
    }

    #[test]
    fn builder_runs_and_orders_rows() {
        let world = tiny_world();
        let rows = Experiment::new(&world)
            .tasks(["sst2"])
            .algos([Algo::Mc])
            .run();
        assert_eq!(rows.len(), 4); // 2 dims x 2 precisions x 1 seed
                                   // Enumeration order: dim-major, precision inner.
        assert_eq!(
            rows.iter().map(|r| (r.dim, r.bits)).collect::<Vec<_>>(),
            vec![(4, 1), (4, 32), (8, 1), (8, 32)]
        );
    }

    #[test]
    fn filter_restricts_configs() {
        let world = tiny_world();
        let rows = Experiment::new(&world)
            .tasks(["sst2"])
            .algos([Algo::Mc])
            .filter(|_, dim, prec, _| bits_per_word(dim, prec) == 8)
            .run();
        // (8, 1-bit) and (4, FULL)? 4*32=128, 8*1=8 -> only (8, 1).
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].dim, rows[0].bits), (8, 1));
    }

    #[test]
    fn shards_partition_the_enumeration() {
        let world = tiny_world();
        let exp = || Experiment::new(&world).tasks(["sst2"]).algos([Algo::Mc]);
        let shard0 = exp().shard(0, 2).run();
        let shard1 = exp().shard(1, 2).run();
        assert_eq!(shard0.len() + shard1.len(), 4);
        let keys = |rows: &[Row]| {
            rows.iter()
                .map(|r| (r.dim, r.bits))
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert!(keys(&shard0).is_disjoint(&keys(&shard1)));
    }

    #[test]
    fn repeated_filters_compose_with_and() {
        let world = tiny_world();
        let exp = || {
            Experiment::new(&world)
                .tasks(["sst2"])
                .algos([Algo::Mc])
                .filter(|_, dim, _, _| dim == 8)
        };
        // One filter: both precisions of dim 8 survive.
        assert_eq!(exp().run().len(), 2);
        // A second filter must intersect, not replace: adding a
        // full-precision restriction keeps only (8, 32).
        let rows = exp().filter(|_, _, prec, _| prec.is_full()).run();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].dim, rows[0].bits), (8, 32));
        // Order of registration does not matter.
        let rows = Experiment::new(&world)
            .tasks(["sst2"])
            .algos([Algo::Mc])
            .filter(|_, _, prec, _| prec.is_full())
            .filter(|_, dim, _, _| dim == 8)
            .run();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].dim, rows[0].bits), (8, 32));
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_experiment_panics() {
        let world = tiny_world();
        let _ = Experiment::new(&world).run();
    }

    #[test]
    #[should_panic(expected = "shard index")]
    fn out_of_range_shard_panics() {
        let world = tiny_world();
        let _ = Experiment::new(&world).tasks(["sst2"]).shard(2, 2);
    }
}
