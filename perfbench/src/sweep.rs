//! The `sweep` workload: one Figure 2 slice through `Experiment::run`.
//!
//! The timed path is the pipeline's own: `Experiment::run` trains the CBOW
//! pairs, quantizes, fits both tasks and computes the five measures. The
//! replay below redoes the same grid call by call through the layers'
//! public functions, each call in a span; its rows must be bitwise equal
//! to `Experiment::run`'s. Untraced runs replay one seed-chosen row per
//! task, traced runs the whole grid.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use embedstab_core::measures::{
    left_singular_basis_with, overlap_distance_from_bases, DistanceMeasure, EisMeasure, KnnMeasure,
    PipLoss, SemanticDisplacement, SvdMethod,
};
use embedstab_core::MeasureValues;
use embedstab_downstream::{NerTask, PairSpec, SentimentTask, Task};
use embedstab_embeddings::{train_embedding, Algo, Embedding};
use embedstab_pipeline::pool::parallel_map;
use embedstab_pipeline::{Experiment, Row, World};
use embedstab_quant::{bits_per_word, quantize_pair, Precision};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::report::Outcome;
use crate::stats::Summary;
use crate::trace::{uncovered_pct, Tracer};
use crate::{mix, peak_rss_mb, setup, Ctx};

const TASKS: [&str; 2] = ["sst2", "ner"];
const ALGO: Algo = Algo::Cbow;
/// The grid's embedding and downstream seed.
const SEED: u64 = 0;
/// `GridOptions` defaults: EIS exponent and k-NN neighbours.
const ALPHA: f64 = 3.0;
const KNN_K: usize = 5;
/// Tail percentile of the time-to-row latency: 72 rows leave 14 beyond.
const TAIL_P: f64 = 80.0;

/// One grid configuration: task index, dimension, precision.
type Config = (usize, usize, Precision);

/// Configurations in `Experiment`'s enumeration order.
fn configs(world: &World) -> Vec<Config> {
    let p = &world.params;
    let mut out = Vec::new();
    for task in 0..TASKS.len() {
        for &dim in &p.dims {
            for &prec in &p.precisions {
                out.push((task, dim, prec));
            }
        }
    }
    out
}

/// One timed `Experiment::run`: its rows and each row's arrival time at
/// the sink, in seconds from the call.
fn experiment(world: &World) -> (Vec<Row>, Vec<f64>, f64) {
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let sink_arrivals = arrivals.clone();
    let start = Instant::now();
    let rows = Experiment::new(world)
        .tasks(TASKS)
        .algos([ALGO])
        .with_measures(true)
        .sink(move |_: &Row| {
            let at = start.elapsed().as_secs_f64();
            sink_arrivals.lock().expect("arrivals poisoned").push(at);
        })
        .run();
    let wall = start.elapsed().as_secs_f64();
    let arrivals = arrivals.lock().expect("arrivals poisoned").clone();
    (rows, arrivals, wall)
}

/// The grid call by call: pairs (train, train, align), the EIS reference,
/// then per configuration quantize, fit, and the five measures.
fn replay(world: &World, configs: &[Config], tracer: &Tracer) -> Vec<Row> {
    let p = &world.params;
    let max_dim = p.max_dim();
    let mut dims: Vec<usize> = configs.iter().map(|&(_, d, _)| d).collect();
    dims.push(max_dim);
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims.dedup();
    let trained = parallel_map(&dims, |&dim| {
        let _pair = tracer.span("sweep.pair");
        let train = |stats| {
            tracer.time("embeddings.train", || {
                train_embedding(ALGO, stats, world.vocab(), dim, SEED)
            })
        };
        let x17 = train(&world.stats17);
        let x18 = train(&world.stats18);
        let x18 = tracer.time("linalg.align", || x18.align_to(&x17));
        (x17, x18)
    });
    let pairs: BTreeMap<usize, (Embedding, Embedding)> = dims.into_iter().zip(trained).collect();
    let m = p.top_m.min(p.vocab_size);
    let (r17, r18) = &pairs[&max_dim];
    let eis = tracer.time("core.eis", || {
        EisMeasure::new(&r17.top_rows(m), &r18.top_rows(m), ALPHA)
    });
    let knn = KnnMeasure::new(KNN_K, p.knn_queries, SEED);
    let sentiment = SentimentTask::new(
        world.sentiment_dataset_arc(TASKS[0]).clone(),
        p.logreg_epochs,
    );
    let ner = NerTask::new(world.ner.clone(), p.lstm_hidden, p.lstm_epochs);
    parallel_map(configs, |&(task, dim, prec)| {
        let _row = tracer.span("sweep.row");
        let (x17, x18) = &pairs[&dim];
        let (q17, q18) = tracer.time("quant.quantize", || quantize_pair(x17, x18, prec));
        let (q17, q18) = (q17.embedding, q18.embedding);
        let (task, fit): (&dyn Task, _) = match task {
            0 => (&sentiment, "downstream.sentiment_fit"),
            _ => (&ner, "downstream.ner_fit"),
        };
        let outcome = tracer.time(fit, || task.train_eval(&q17, &q18, &PairSpec::new(SEED)));
        let (t17, t18) = (q17.top_rows(m), q18.top_rows(m));
        let (ux, uy) = tracer.time("linalg.measure_svd", || {
            (
                left_singular_basis_with(t17.mat(), SvdMethod::Auto),
                left_singular_basis_with(t18.mat(), SvdMethod::Auto),
            )
        });
        let measures = MeasureValues {
            eis: tracer.time("core.eis", || eis.distance_from_bases(&ux, &uy)),
            knn_dist: tracer.time("core.knn", || knn.distance(&t17, &t18)),
            semantic_displacement: tracer.time("core.displacement", || {
                SemanticDisplacement.distance(&t17, &t18)
            }),
            pip_loss: tracer.time("core.pip", || PipLoss.distance(&t17, &t18)),
            overlap_dist: tracer.time("core.overlap", || overlap_distance_from_bases(&ux, &uy)),
        };
        Row {
            task: task.name().to_string(),
            algo: ALGO.name().to_string(),
            dim,
            bits: prec.bits(),
            memory: bits_per_word(dim, prec),
            seed: SEED,
            disagreement: outcome.disagreement,
            quality17: outcome.quality17,
            quality18: outcome.quality18,
            measures: Some(measures),
        }
    })
}

/// Every field of two rows, floats compared by bit pattern.
fn same_row(a: &Row, b: &Row) -> bool {
    let m = |r: &Row| {
        r.measures.map(|v| {
            [
                v.eis,
                v.knn_dist,
                v.semantic_displacement,
                v.pip_loss,
                v.overlap_dist,
            ]
            .map(f64::to_bits)
        })
    };
    (&a.task, &a.algo, a.dim, a.bits, a.memory, a.seed)
        == (&b.task, &b.algo, b.dim, b.bits, b.memory, b.seed)
        && [a.disagreement, a.quality17, a.quality18].map(f64::to_bits)
            == [b.disagreement, b.quality17, b.quality18].map(f64::to_bits)
        && m(a) == m(b)
}

fn check_rows(rows: &[Row], expected: usize, out: &mut Outcome) {
    out.check(
        format!("{} rows (expected {expected})", rows.len()),
        rows.len() == expected,
    );
    out.check(
        "disagreement in [0, 1] and quality finite on every row",
        rows.iter().all(|r| {
            (0.0..=1.0).contains(&r.disagreement)
                && r.quality17.is_finite()
                && r.quality18.is_finite()
        }),
    );
    out.check(
        "all five measures present and finite on every row",
        rows.iter().all(|r| {
            r.measures.is_some_and(|v| {
                [
                    v.eis,
                    v.knn_dist,
                    v.semantic_displacement,
                    v.pip_loss,
                    v.overlap_dist,
                ]
                .iter()
                .all(|x| x.is_finite())
            })
        }),
    );
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (world, ()) = setup::build(ctx, tracer, &mut out, |_| ());
    let grid = configs(&world);

    // Whole passes while another one still fits in `--seconds` (at least
    // one); a trace run makes one, as the untraced reference for the replay.
    let (mut rows, mut arrivals, mut wall) = (Vec::new(), Vec::new(), 0.0);
    let mut passes = 0;
    while passes == 0 || (!ctx.trace && wall * (passes + 1) as f64 / passes as f64 <= ctx.seconds) {
        let (pass_rows, pass_arrivals, pass_wall) = experiment(&world);
        check_rows(&pass_rows, grid.len(), &mut out);
        out.attempted += grid.len() as u64;
        out.failed += grid.len().saturating_sub(pass_rows.len()) as u64;
        if passes == 0 {
            rows = pass_rows;
        }
        arrivals.extend(pass_arrivals);
        wall += pass_wall;
        passes += 1;
    }
    let rss = peak_rss_mb();
    out.check("peak RSS readable from /proc/self/status", rss.is_some());
    out.set("peak_rss_mb", rss.unwrap_or(f64::NAN));
    let per_s = arrivals.len() as f64 / wall;
    out.set("ops_per_s", per_s);
    let latency = Summary::at(&arrivals, TAIL_P);
    out.set("op_p50_ms", latency.p50 * 1e3);
    out.set("op_tail_ms", latency.tail * 1e3);
    out.note(format!(
        "{passes} pass(es) of {} rows in {wall:.3} s: {per_s:.3} rows/s; time to row {}",
        grid.len(),
        latency.describe(1e3, "ms")
    ));

    let replayed: Vec<usize> = if ctx.trace {
        (0..grid.len()).collect()
    } else {
        // One seed-chosen row per task.
        let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 0x5eed, 0));
        let per_task = grid.len() / TASKS.len();
        (0..TASKS.len())
            .map(|t| t * per_task + rng.random_range(0..per_task))
            .collect()
    };
    let subset: Vec<Config> = replayed.iter().map(|&i| grid[i]).collect();
    let start_ns = tracer.now_ns();
    let start = Instant::now();
    let replay_rows = replay(&world, &subset, tracer);
    let replay_wall = start.elapsed().as_secs_f64();
    let window = (start_ns, tracer.now_ns());
    out.check(
        format!(
            "{} replayed row(s) bitwise equal to Experiment::run",
            replay_rows.len()
        ),
        replayed.len() == replay_rows.len()
            && replayed
                .iter()
                .zip(&replay_rows)
                .all(|(&i, r)| same_row(&rows[i], r)),
    );
    if ctx.trace {
        let spans = tracer.spans();
        out.add_span_metrics(&spans);
        out.set("trace.uncovered_pct", uncovered_pct(&spans, window));
        out.set("trace.overhead_pct", 100.0 * (replay_wall / wall - 1.0));
        out.note(format!(
            "traced replay {replay_wall:.3} s vs untraced Experiment::run {wall:.3} s"
        ));
    }
    out
}
