//! Benchmarks the continuous-retraining service (streamed count deltas,
//! PPMI refresh, warm-started SVD) against the from-scratch baseline — the
//! batch calls `Cooc::count`, `ppmi` and `PpmiSvdTrainer::train` over the
//! whole corpus — on the same increment sequence, and writes
//! `BENCH_incremental.json`.
//!
//! ```text
//! usage: incremental_retrain [--scale tiny|small|paper] [--steps N]
//!          [--delta-frac F] [--min-speedup X] [--max-submit-ratio R] [--out PATH]
//!
//! cargo run --release -p embedstab_bench --bin incremental_retrain -- \
//!     --scale small --steps 5 --delta-frac 0.10 --min-speedup 1.0 \
//!     --max-submit-ratio 1.0
//! ```
//!
//! Both sides start from the same base corpus, each with its own tenant
//! registry (a bootstrap retrain warms the service's basis, untimed),
//! then each timed step feeds an identical drifted increment of
//! `--delta-frac` of the base token budget through ingest -> retrain ->
//! gate-scored submit. The report records per-step wall clock for both
//! sides, the speedup, the gate's predicted instability for both
//! candidates, and the EIS / k-NN distance between the warm and cold
//! retrains — re-measuring the [`WARM_SVD_EIS_TOLERANCE`] contract on
//! every run. Exits nonzero if any
//! step's speedup falls below `--min-speedup`, any warm-vs-cold EIS
//! exceeds the recorded tolerance, or (with `--max-submit-ratio r`) any
//! incremental step's gate submit takes longer than `r` times the step
//! itself.

use std::convert::Infallible;
use std::fmt::Display;
use std::process::exit;
use std::time::Instant;

use embedstab_bench::Cli;
use embedstab_core::MeasureSuite;
use embedstab_corpus::{
    ppmi, Cooc, CoocConfig, Corpus, CorpusConfig, DriftConfig, LatentModel, LatentModelConfig,
};
use embedstab_embeddings::{Embedding, PpmiSvdTrainer};
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::Scale;
use embedstab_quant::Precision;
use embedstab_serve::{GateOutcome, Slo, TenantRegistry};
use embedstab_stream::{ContinuousRetrainer, RetrainerConfig, WARM_SVD_EIS_TOLERANCE};
use serde::Serialize;

const TENANT: &str = "bench";
const MASTER_SEED: u64 = 0xbe7c;

#[derive(Serialize)]
struct StepRow {
    step: usize,
    delta_docs: usize,
    delta_tokens: usize,
    incremental_seconds: f64,
    incremental_submit_seconds: f64,
    from_scratch_seconds: f64,
    from_scratch_submit_seconds: f64,
    speedup: f64,
    warm_vs_cold_eis: f64,
    warm_vs_cold_knn_dist: f64,
    incremental_predicted_instability: Option<f64>,
    from_scratch_predicted_instability: Option<f64>,
}

#[derive(Serialize)]
struct Report {
    scale: String,
    vocab_size: usize,
    window: usize,
    dim: usize,
    base_tokens: usize,
    delta_frac: f64,
    steps: usize,
    min_speedup: f64,
    warm_svd_eis_tolerance: f64,
    min_observed_speedup: f64,
    max_warm_vs_cold_eis: f64,
    max_submit_ratio: Option<f64>,
    max_observed_submit_ratio: f64,
    per_step: Vec<StepRow>,
}

const USAGE: &str = "usage: incremental_retrain [--scale tiny|small|paper] [--steps N]\n\
    \x20        [--delta-frac F] [--min-speedup X] [--max-submit-ratio R] [--out PATH]";

/// The from-scratch baseline: its own corpus and registry, and on every
/// step the batch pipeline over the whole corpus — count, PPMI, cold SVD.
struct Baseline {
    vocab_size: usize,
    config: RetrainerConfig,
    corpus: Corpus,
    registry: TenantRegistry,
}

struct StepTiming {
    ingest_seconds: f64,
    refresh_seconds: f64,
    retrain_seconds: f64,
    submit_seconds: f64,
}

impl StepTiming {
    /// The retraining cost the two sides differ on: ingest + statistics
    /// refresh + SVD. The gate submit is the serving layer's per-candidate
    /// constant — identical work on both sides — and is reported
    /// separately.
    fn retrain_pipeline_seconds(&self) -> f64 {
        self.ingest_seconds + self.refresh_seconds + self.retrain_seconds
    }
}

/// Runs one phase of a step and times it; exits 1 naming the phase if it
/// fails.
fn timed<T, E: Display>(phase: &str, f: impl FnOnce() -> Result<T, E>) -> (T, f64) {
    let start = Instant::now();
    let value = f().unwrap_or_else(|e| {
        eprintln!("incremental_retrain: {phase} failed: {e}");
        exit(1)
    });
    (value, start.elapsed().as_secs_f64())
}

/// Ingest + retrain + gate-scored submit through the service, each phase
/// timed.
fn incremental_step(
    svc: &mut ContinuousRetrainer,
    docs: Vec<Vec<u32>>,
    dim: usize,
) -> (StepTiming, Embedding, GateOutcome) {
    let (_, ingest_seconds) = timed("ingest", || svc.ingest(docs));
    let ((), refresh_seconds) = timed("refresh", || svc.refresh_statistics());
    let (candidate, retrain_seconds) = timed("retrain", || svc.retrain(dim));
    let (outcome, submit_seconds) =
        timed("submit", || svc.registry_mut().submit(TENANT, &candidate));
    let timing = StepTiming {
        ingest_seconds,
        refresh_seconds,
        retrain_seconds,
        submit_seconds,
    };
    (timing, candidate, outcome)
}

impl Baseline {
    /// The same step as [`incremental_step`], by the batch calls.
    fn step(&mut self, docs: Vec<Vec<u32>>, dim: usize) -> (StepTiming, Embedding, GateOutcome) {
        let ((), ingest_seconds) = timed("ingest", || {
            self.corpus.append_docs(docs);
            Ok::<_, Infallible>(())
        });
        let (stats, refresh_seconds) = timed("count", || {
            Cooc::count(&self.corpus, self.vocab_size, &self.config.cooc).map(|c| ppmi(&c))
        });
        let (candidate, retrain_seconds) = timed("retrain", || {
            let trainer = PpmiSvdTrainer::new(self.config.trainer.clone());
            Ok::<_, Infallible>(trainer.train(&stats, dim, self.config.svd_seed))
        });
        let (outcome, submit_seconds) =
            timed("submit", || self.registry.submit(TENANT, &candidate));
        let timing = StepTiming {
            ingest_seconds,
            refresh_seconds,
            retrain_seconds,
            submit_seconds,
        };
        (timing, candidate, outcome)
    }
}

fn main() {
    let mut cli = Cli::new(USAGE);
    let mut scale = Scale::Small;
    let mut steps: usize = 5;
    let (mut delta_frac, mut min_speedup): (f64, f64) = (0.10, 1.0);
    let mut max_submit_ratio: Option<f64> = None;
    let mut out = "BENCH_incremental.json".to_string();
    while let Some(flag) = cli.next() {
        match flag.as_str() {
            "--scale" => scale = cli.parse(&flag),
            "--steps" => steps = cli.parse(&flag),
            "--delta-frac" => delta_frac = cli.parse(&flag),
            "--min-speedup" => min_speedup = cli.parse(&flag),
            "--max-submit-ratio" => max_submit_ratio = Some(cli.parse(&flag)),
            "--out" => out = cli.value(&flag),
            _ => cli.unknown(&flag),
        }
    }
    let params = scale.params();
    // A mid-sweep dimension: large enough that the SVD stage matters,
    // small enough that counting (the stage incrementality pays for)
    // still dominates, as it does at paper scale.
    let dim = params.dims[params.dims.len() / 2];

    let base_model = LatentModel::new(&LatentModelConfig {
        vocab_size: params.vocab_size,
        latent_dim: params.latent_dim,
        n_topics: params.n_topics,
        seed: MASTER_SEED,
        ..Default::default()
    });
    let base = base_model
        .generate_corpus(&CorpusConfig {
            n_tokens: params.corpus_tokens,
            seed: MASTER_SEED ^ 1,
            ..Default::default()
        })
        .docs()
        .to_vec();
    let delta_tokens = ((params.corpus_tokens as f64) * delta_frac) as usize;

    let config = RetrainerConfig {
        cooc: CoocConfig {
            window: params.window,
            distance_weighting: false,
        },
        ..RetrainerConfig::default()
    };
    // Both sides' snapshot stores, removed when the run ends.
    let dir = scratch_dir("incremental_retrain");
    let _ = std::fs::remove_dir_all(&dir);
    let registry = TenantRegistry::new(dir.join("incremental"));
    let mut inc = ContinuousRetrainer::new(params.vocab_size, config.clone(), registry)
        .unwrap_or_else(|e| {
            eprintln!("incremental_retrain: cannot build service: {e}");
            exit(1)
        });
    let mut scratch = Baseline {
        vocab_size: params.vocab_size,
        config,
        corpus: Corpus::from_docs(Vec::new()),
        registry: TenantRegistry::new(dir.join("from_scratch")),
    };
    for registry in [inc.registry_mut(), &mut scratch.registry] {
        registry
            .register_config(
                TENANT,
                Slo::unbounded(dim as u64 * 32),
                dim,
                Precision::FULL,
            )
            .unwrap_or_else(|e| {
                eprintln!("incremental_retrain: cannot register tenant: {e}");
                exit(1)
            });
    }

    eprintln!(
        "incremental_retrain: scale {scale:?}, vocab {}, base {} tokens, \
         {} steps x {} delta tokens, dim {dim}",
        params.vocab_size, params.corpus_tokens, steps, delta_tokens
    );

    // Bootstrap both sides on the base corpus (untimed): establishes the
    // live snapshot each later candidate is gated against and warms the
    // service's SVD basis.
    let (_, _, _) = incremental_step(&mut inc, base.clone(), dim);
    let (_, _, _) = scratch.step(base, dim);

    let mut per_step = Vec::with_capacity(steps);
    let mut min_observed_speedup = f64::INFINITY;
    let mut max_eis: f64 = 0.0;
    let mut max_observed_submit_ratio: f64 = 0.0;
    for step in 1..=steps {
        // Each step's increment comes from a progressively drifted model:
        // the streaming analogue of the paper's Wiki'17 -> Wiki'18 shift.
        let drifted = base_model.drifted(&DriftConfig {
            drift_sigma: 0.2,
            seed: MASTER_SEED ^ (10 + step as u64),
            ..Default::default()
        });
        let docs = drifted
            .generate_corpus(&CorpusConfig {
                n_tokens: delta_tokens,
                seed: MASTER_SEED ^ (100 + step as u64),
                ..Default::default()
            })
            .docs()
            .to_vec();
        let delta_docs = docs.len();
        let n_tokens: usize = docs.iter().map(Vec::len).sum();

        let (inc_t, warm, inc_outcome) = incremental_step(&mut inc, docs.clone(), dim);
        let (scratch_t, cold, scratch_outcome) = scratch.step(docs, dim);

        let suite = MeasureSuite::new(&cold, &cold, 3.0, 42);
        let measures = suite.compute_all(&cold, &warm);
        let inc_s = inc_t.retrain_pipeline_seconds();
        let scratch_s = scratch_t.retrain_pipeline_seconds();
        let speedup = scratch_s / inc_s;
        min_observed_speedup = min_observed_speedup.min(speedup);
        max_eis = max_eis.max(measures.eis);
        max_observed_submit_ratio = max_observed_submit_ratio.max(inc_t.submit_seconds / inc_s);
        eprintln!(
            "step {step}: incremental {inc_s:.3}s (ingest {:.3} + refresh {:.3} + svd {:.3}), \
             from-scratch {scratch_s:.3}s ({:.3} + {:.3} + {:.3}) -> {speedup:.2}x; \
             submit {:.3}/{:.3}s; warm-vs-cold EIS {:.4}",
            inc_t.ingest_seconds,
            inc_t.refresh_seconds,
            inc_t.retrain_seconds,
            scratch_t.ingest_seconds,
            scratch_t.refresh_seconds,
            scratch_t.retrain_seconds,
            inc_t.submit_seconds,
            scratch_t.submit_seconds,
            measures.eis
        );
        per_step.push(StepRow {
            step,
            delta_docs,
            delta_tokens: n_tokens,
            incremental_seconds: inc_s,
            incremental_submit_seconds: inc_t.submit_seconds,
            from_scratch_seconds: scratch_s,
            from_scratch_submit_seconds: scratch_t.submit_seconds,
            speedup,
            warm_vs_cold_eis: measures.eis,
            warm_vs_cold_knn_dist: measures.knn_dist,
            incremental_predicted_instability: inc_outcome
                .evaluation()
                .map(|e| e.predicted_instability),
            from_scratch_predicted_instability: scratch_outcome
                .evaluation()
                .map(|e| e.predicted_instability),
        });
    }

    let _ = std::fs::remove_dir_all(&dir);

    let report = Report {
        scale: scale.name().to_string(),
        vocab_size: params.vocab_size,
        window: params.window,
        dim,
        base_tokens: params.corpus_tokens,
        delta_frac,
        steps,
        min_speedup,
        warm_svd_eis_tolerance: WARM_SVD_EIS_TOLERANCE,
        min_observed_speedup,
        max_warm_vs_cold_eis: max_eis,
        max_submit_ratio,
        max_observed_submit_ratio,
        per_step,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json.as_bytes()).unwrap_or_else(|e| {
        eprintln!("incremental_retrain: cannot write {out}: {e}");
        exit(1)
    });
    println!(
        "{} steps, min speedup {:.2}x (threshold {:.2}x), max warm-vs-cold EIS {:.4} \
         (tolerance {}), max submit/step {:.2} -> {out}",
        report.steps,
        report.min_observed_speedup,
        report.min_speedup,
        report.max_warm_vs_cold_eis,
        report.warm_svd_eis_tolerance,
        report.max_observed_submit_ratio,
    );

    if report.min_observed_speedup < min_speedup {
        eprintln!(
            "incremental_retrain: FAILURE: speedup {:.2}x below threshold {:.2}x",
            report.min_observed_speedup, min_speedup
        );
        exit(1)
    }
    if report.max_warm_vs_cold_eis > WARM_SVD_EIS_TOLERANCE {
        eprintln!(
            "incremental_retrain: FAILURE: warm-vs-cold EIS {:.4} exceeds tolerance {}",
            report.max_warm_vs_cold_eis, WARM_SVD_EIS_TOLERANCE
        );
        exit(1)
    }
    if let Some(ratio) = max_submit_ratio {
        if report.max_observed_submit_ratio > ratio {
            eprintln!(
                "incremental_retrain: FAILURE: a gate submit took {:.2}x its incremental \
                 step, above --max-submit-ratio {ratio}",
                report.max_observed_submit_ratio
            );
            exit(1)
        }
    }
}
