//! Shared set-up: the Small world and whatever the workload builds on it,
//! timed as `setup_s`.

use std::sync::Arc;
use std::time::Instant;

use embedstab_corpus::{
    CorpusConfig, DriftConfig, LatentModelConfig, TemporalPair, TemporalPairConfig,
};
use embedstab_downstream::{NerSpec, SentimentSpec};
use embedstab_embeddings::CorpusStats;
use embedstab_pipeline::{Scale, ScaleParams, World};

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::Ctx;

/// Small scale with a single embedding/downstream seed (0).
pub fn small_params() -> ScaleParams {
    let mut params = Scale::Small.params();
    params.seeds = vec![0];
    params
}

/// `World::build` step by step, each step in a span. The steps and their
/// configuration mirror `World::build`; [`build`] checks that both give
/// the same world.
fn traced_world(params: &ScaleParams, master_seed: u64, tracer: &Tracer) -> World {
    let _root = tracer.span("setup.world");
    let dim_scale = (16.0 / params.latent_dim as f64).sqrt();
    let cfg = TemporalPairConfig {
        model: LatentModelConfig {
            vocab_size: params.vocab_size,
            latent_dim: params.latent_dim,
            n_topics: params.n_topics,
            word_noise: 0.6 * dim_scale,
            seed: master_seed,
            ..Default::default()
        },
        drift: DriftConfig {
            drift_sigma: 0.8 * dim_scale,
            seed: master_seed.wrapping_add(1),
            ..Default::default()
        },
        corpus: CorpusConfig {
            n_tokens: params.corpus_tokens,
            seed: master_seed.wrapping_add(2),
            ..Default::default()
        },
        extra_token_frac: 0.02,
    };
    let pair = tracer.time("corpus.generate", || TemporalPair::build(&cfg));
    let stats = |corpus: &embedstab_corpus::Corpus| {
        tracer.time("embeddings.stats", || {
            CorpusStats::compute(Arc::new(corpus.clone()), params.vocab_size, params.window)
        })
    };
    let stats17 = stats(&pair.corpus17);
    let stats18 = stats(&pair.corpus18);
    let (sentiment, ner) = tracer.time("downstream.datasets", || {
        let sentiment = SentimentSpec::all_four()
            .into_iter()
            .map(|mut spec| {
                spec.n_train = params.sentiment_train;
                spec.n_valid = (params.sentiment_train / 5).max(20);
                spec.n_test = params.sentiment_test;
                Arc::new(spec.generate(&pair.model17))
            })
            .collect();
        let ner = NerSpec {
            n_train: params.ner_train,
            n_valid: (params.ner_train / 5).max(10),
            n_test: params.ner_test,
            ..Default::default()
        }
        .generate(&pair.model17);
        (sentiment, Arc::new(ner))
    });
    World {
        params: params.clone(),
        master_seed,
        pair,
        stats17,
        stats18,
        sentiment,
        ner,
    }
}

/// A hash of what identifies a world's content, cheaply.
fn world_identity(w: &World) -> u64 {
    let parts = [
        w.stream_fingerprint(),
        w.pair.corpus17.content_fingerprint(),
        w.stats17.ppmi.nnz() as u64,
        w.stats18.ppmi.nnz() as u64,
        w.ner.train.len() as u64,
    ];
    let sizes = w.sentiment.iter().map(|d| d.train.len() as u64);
    parts
        .into_iter()
        .chain(sizes)
        .fold(0, |h, x| crate::mix(h, x, 1))
}

/// Builds the world (master seed = the run seed) and then `rest`, which
/// builds whatever else the workload needs on it, and sets `setup_s` to
/// the time both took.
///
/// In a traced run the world is built by [`traced_world`], which gives the
/// corpus / embeddings / downstream set-up spans; after the timing it is
/// checked against a `World::build` of the same seed.
pub fn build<T>(
    ctx: &Ctx,
    tracer: &Tracer,
    out: &mut Outcome,
    rest: impl FnOnce(&World) -> T,
) -> (World, T) {
    let params = small_params();
    let start = Instant::now();
    let world = if tracer.enabled() {
        traced_world(&params, ctx.seed, tracer)
    } else {
        World::build(&params, ctx.seed)
    };
    let extra = rest(&world);
    out.set("setup_s", start.elapsed().as_secs_f64());
    if tracer.enabled() {
        let reference = World::build(&params, ctx.seed);
        out.check(
            "step-by-step world build equals World::build",
            world_identity(&world) == world_identity(&reference),
        );
    }
    (world, extra)
}
