//! The `retrain` workload: a continuous retrainer gating every increment.
//!
//! Set-up bootstraps a `ContinuousRetrainer` (incremental mode) on the
//! Small world's '18 corpus and publishes its first snapshot to one
//! tenant (dim 32, 8-bit, unbounded SLO). Each step then feeds a drifted
//! increment of 1% of the base tokens: ingest, PPMI refresh, warm SVD,
//! gate score and a fsync'd publish. Untraced steps go through
//! `ContinuousRetrainer::step`; traced steps make the same calls one by
//! one in spans, then replay the gate's pieces (score, its SVDs, its k-NN
//! measure, a publish into a shadow store) outside the step's timing.
//! A trace run alternates traced and untraced steps, so the difference of
//! their medians is the tracing overhead.

use std::hint::black_box;
use std::time::Instant;

use embedstab_core::measures::{DistanceMeasure, KnnMeasure, SvdMethod};
use embedstab_corpus::{CorpusConfig, DriftConfig};
use embedstab_embeddings::Embedding;
use embedstab_pipeline::World;
use embedstab_quant::{bits_per_word, Precision};
use embedstab_serve::{GateOutcome, Slo, Snapshot, SnapshotStore, TenantRegistry};
use embedstab_stream::{ContinuousRetrainer, RetrainerConfig, StreamError};

use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::{covered_ns, Tracer};
use crate::{mix, peak_rss_mb, setup, Ctx};

const TENANT: &str = "bench";
const DIM: usize = 32;
const BITS: u8 = 8;
/// The gate's k-NN settings (`StabilityGate` defaults).
const GATE_KNN: (usize, usize, u64) = (5, 1000, 0);
/// Steps per second of `--seconds` (a step takes 150-230 ms on 2 shared
/// cores). The count is fixed rather than timed, since every step adds a
/// snapshot to the store and so to `peak_rss_mb`.
const STEPS_PER_SECOND: usize = 5;
/// Steps at least, so p90 keeps 10 samples beyond.
const MIN_STEPS: usize = 100;
const TAIL_P: f64 = 90.0;
/// Consecutive steps per block of `ops_per_s` and `op_p50_ms`, about 2 s
/// of steps.
const RATE_BLOCK: usize = 10;

/// The bootstrapped retrainer: the workload's set-up after the world.
fn service(world: &World, ctx: &Ctx) -> Result<ContinuousRetrainer, String> {
    let dir = ctx.work_dir.join("retrain");
    let precision = Precision::new(BITS);
    let mut registry = TenantRegistry::new(dir);
    registry
        .register_config(
            TENANT,
            Slo::unbounded(bits_per_word(DIM, precision)),
            DIM,
            precision,
        )
        .map_err(|e| format!("register tenant: {e}"))?;
    let mut svc = ContinuousRetrainer::from_world(world, RetrainerConfig::default(), registry)
        .map_err(|e| format!("retrainer: {e}"))?;
    let first = svc
        .retrain(DIM)
        .map_err(|e| format!("bootstrap retrain: {e}"))?;
    match svc.registry_mut().submit(TENANT, &first) {
        Ok(GateOutcome::Bootstrapped { .. }) => Ok(svc),
        other => Err(format!("bootstrap submit: {other:?}")),
    }
}

/// Increment `step`: a fresh drift of the '18 model, 1% of the base tokens.
fn increment(world: &World, seed: u64, step: usize) -> Vec<Vec<u32>> {
    let drifted = world.pair.model18.drifted(&DriftConfig {
        drift_sigma: 0.2,
        seed: mix(seed, 1, step as u64),
        ..Default::default()
    });
    drifted
        .generate_corpus(&CorpusConfig {
            n_tokens: world.params.corpus_tokens / 100,
            seed: mix(seed, 2, step as u64),
            ..Default::default()
        })
        .docs()
        .to_vec()
}

/// Per-layer counts of the traced steps.
#[derive(Default)]
struct Counts {
    dirty_rows: Vec<f64>,
    ppmi_nnz: Vec<f64>,
    windows: Vec<(u64, u64)>,
}

fn live(svc: &ContinuousRetrainer) -> Option<&Snapshot> {
    svc.registry().tenant(TENANT).and_then(|t| t.live())
}

/// One step through the public calls, each in a span, then the untimed
/// replay of the gate's pieces. Returns the step's latency in seconds.
fn traced_step(
    svc: &mut ContinuousRetrainer,
    docs: Vec<Vec<u32>>,
    step: usize,
    shadow: &mut SnapshotStore,
    tracer: &Tracer,
    counts: &mut Counts,
    out: &mut Outcome,
) -> Result<(f64, GateOutcome), StreamError> {
    let before = live(svc).cloned();
    let start_ns = tracer.now_ns();
    let start = Instant::now();
    let (candidate, outcome) = {
        let _step = tracer.request("retrain.step", step as u64 + 1);
        let delta = tracer.time("stream.ingest", || svc.ingest(docs))?;
        counts.dirty_rows.push(delta.dirty_rows.len() as f64);
        tracer.time("corpus.ppmi_refresh", || svc.refresh_statistics())?;
        counts.ppmi_nnz.push(svc.ppmi().nnz() as f64);
        let candidate = tracer.time("embeddings.svd_retrain", || svc.retrain(DIM))?;
        let outcome = tracer.time("serve.gate_submit", || {
            svc.registry_mut().submit(TENANT, &candidate)
        })?;
        (candidate, outcome)
    };
    let latency = start.elapsed().as_secs_f64();
    if let Some(before) = before {
        replay_gate(
            svc, &before, &candidate, &outcome, step, shadow, tracer, out,
        );
    }
    counts.windows.push((start_ns, tracer.now_ns()));
    Ok((latency, outcome))
}

/// The gate's pieces on the step's inputs, each in a span, checked
/// against what the step itself produced.
#[allow(clippy::too_many_arguments)]
fn replay_gate(
    svc: &ContinuousRetrainer,
    before: &Snapshot,
    candidate: &Embedding,
    outcome: &GateOutcome,
    step: usize,
    shadow: &mut SnapshotStore,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let _replay = tracer.request("retrain.gate_replay", step as u64 + 1);
    let gate = svc.registry().gate().clone();
    let Ok(eval) = tracer.time("serve.gate_score", || gate.score(before, candidate)) else {
        out.check(format!("step {step}: replayed gate score succeeds"), false);
        return;
    };
    tracer.time("linalg.gate_svd", || {
        black_box(before.embedding().mat().svd_with(SvdMethod::Auto));
        black_box(eval.quantized.mat().svd_with(SvdMethod::Auto));
    });
    let (k, queries, seed) = GATE_KNN;
    let knn = tracer.time("core.knn_gate", || {
        KnnMeasure::new(k, queries, seed).distance(before.embedding(), &eval.quantized)
    });
    let published = tracer.time("serve.publish", || {
        shadow.publish(
            &eval.aligned,
            Precision::new(BITS),
            Some(eval.predicted_instability),
        )
    });
    let scored = outcome.evaluation().map(|e| {
        (
            e.predicted_instability.to_bits(),
            e.measures.knn_dist.to_bits(),
        )
    });
    let same_snapshot = published.is_ok()
        && shadow.live().map(Snapshot::embedding) == live(svc).map(Snapshot::embedding);
    if scored != Some((eval.predicted_instability.to_bits(), knn.to_bits())) || !same_snapshot {
        out.check(
            format!("step {step}: gate replay matches the step bitwise"),
            false,
        );
    }
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (world, svc) = setup::build(ctx, tracer, &mut out, |world| service(world, ctx));
    let mut svc = match svc {
        Ok(svc) => svc,
        Err(e) => {
            out.check(format!("set-up: {e}"), false);
            return out;
        }
    };
    let mut shadow = match SnapshotStore::open(ctx.work_dir.join("shadow")) {
        Ok(store) => store,
        Err(e) => {
            out.check(format!("open shadow store: {e}"), false);
            return out;
        }
    };

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut promoted, mut held, mut errors) = (0u64, 0u64, 0u64);
    let mut counts = Counts::default();
    let steps = MIN_STEPS.max(STEPS_PER_SECOND * ctx.seconds as usize);
    let mut step = 0;
    while step < steps {
        let docs = increment(&world, ctx.seed, step);
        let result = if ctx.trace && step % 2 == 1 {
            traced_step(
                &mut svc,
                docs,
                step,
                &mut shadow,
                tracer,
                &mut counts,
                &mut out,
            )
            .map(|(latency, outcome)| {
                traced.push(latency);
                vec![outcome]
            })
        } else {
            let start = Instant::now();
            svc.step(docs).map(|report| {
                untraced.push(start.elapsed().as_secs_f64());
                report.outcomes.into_iter().map(|t| t.outcome).collect()
            })
        };
        match result {
            Ok(outcomes) if outcomes.len() == 1 => match outcomes[0] {
                GateOutcome::Promoted { .. } => promoted += 1,
                _ => held += 1,
            },
            Ok(outcomes) => {
                eprintln!(
                    "perfbench: step {step} gave {} gate decisions",
                    outcomes.len()
                );
                errors += 1;
            }
            Err(e) => {
                eprintln!("perfbench: step {step} failed: {e}");
                errors += 1;
            }
        }
        step += 1;
    }
    let rss = peak_rss_mb();
    out.attempted = step as u64;
    out.failed = errors;
    out.check(
        format!("{step} steps, every one a gate decision ({errors} errors)"),
        errors == 0,
    );
    let publishes = svc
        .registry()
        .tenant(TENANT)
        .map_or(0, |t| t.store().history().len())
        .saturating_sub(1);
    out.check(
        format!("{publishes} publishes for {step} steps ({promoted} promoted, {held} held)"),
        publishes == step && promoted == step as u64,
    );

    let all: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
    let summary = Summary::at(&all, TAIL_P);
    out.note(format!(
        "{step} steps in {:.3} s of step time; step latency {}",
        all.iter().sum::<f64>(),
        summary.describe(1e3, "ms")
    ));
    if ctx.trace {
        let spans = tracer.spans();
        out.add_span_metrics(&spans);
        out.set("stream.dirty_rows", median(&counts.dirty_rows));
        out.set("corpus.ppmi_nnz", median(&counts.ppmi_nnz));
        out.set("serve.gate_promoted", promoted as f64);
        out.set("serve.gate_held", held as f64);
        let wall: u64 = counts.windows.iter().map(|w| w.1 - w.0).sum();
        let covered: u64 = counts
            .windows
            .iter()
            .map(|&w| covered_ns(spans.iter().map(|s| (s.start_ns, s.end_ns)), w))
            .sum();
        out.set(
            "trace.uncovered_pct",
            100.0 * (wall - covered) as f64 / wall.max(1) as f64,
        );
        let (t50, u50) = (median(&traced), median(&untraced));
        out.set("trace.overhead_pct", 100.0 * (t50 / u50 - 1.0));
        out.note(format!(
            "step p50 traced {:.3} ms (n={}) vs untraced {:.3} ms (n={})",
            t50 * 1e3,
            traced.len(),
            u50 * 1e3,
            untraced.len()
        ));
    } else {
        out.check("peak RSS readable from /proc/self/status", rss.is_some());
        out.set("peak_rss_mb", rss.unwrap_or(f64::NAN));
        // Rate and median are the fastest block's. On a shared 2-core host
        // the step time sits for 2-7 s at a time at one of a few levels
        // (~165, ~230 or ~250 ms) as the host's other load comes and
        // goes; the pooled median jumps between levels from run to run,
        // the fastest block stays on the lowest. Over 10 seeds the spread
        // of the median was 0.20 pooled against 0.09 for the fastest
        // block. The tail stays pooled, since a block is too short for a
        // p90.
        let blocks = untraced.chunks_exact(RATE_BLOCK);
        let fastest_rate = blocks
            .clone()
            .map(|b| b.len() as f64 / b.iter().sum::<f64>())
            .fold(0.0, f64::max);
        let fastest_p50 = blocks.map(median).fold(f64::INFINITY, f64::min);
        out.set("ops_per_s", fastest_rate);
        out.set("op_p50_ms", fastest_p50 * 1e3);
        out.set("op_tail_ms", summary.tail * 1e3);
    }
    out
}
