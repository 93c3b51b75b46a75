//! Keystone test for the incremental-worlds subsystem.
//!
//! The contract, end to end: a service that streams corpus increments
//! must hold *bitwise* the same counting state — co-occurrence table and
//! PPMI matrix — as the batch functions ([`Cooc::count`] and [`ppmi`])
//! over the concatenated corpus, and its first retrain must be bitwise
//! [`PpmiSvdTrainer::train`] on that PPMI. Only the warm-started SVD
//! stage is allowed to drift, and that drift is pinned under
//! [`WARM_SVD_EIS_TOLERANCE`].

use embedstab_core::MeasureSuite;
use embedstab_corpus::{
    ppmi, Cooc, CoocConfig, Corpus, CorpusConfig, LatentModel, LatentModelConfig, SparseMatrix,
};
use embedstab_embeddings::{Embedding, PpmiSvdTrainer};
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::{Scale, World};
use embedstab_quant::Precision;
use embedstab_serve::{Slo, TenantRegistry};
use embedstab_stream::{
    checkpoint_path, ContinuousRetrainer, RetrainerConfig, StreamError, WARM_SVD_EIS_TOLERANCE,
};

const VOCAB: usize = 60;
const WINDOW: usize = 3;

fn cooc_config() -> CoocConfig {
    CoocConfig {
        window: WINDOW,
        distance_weighting: false,
    }
}

fn retrainer_config() -> RetrainerConfig {
    RetrainerConfig {
        cooc: cooc_config(),
        ..RetrainerConfig::default()
    }
}

fn service() -> ContinuousRetrainer {
    ContinuousRetrainer::new(VOCAB, retrainer_config(), registry()).expect("valid config")
}

/// The batch reference: one count of the whole corpus.
fn count(docs: &[Vec<u32>]) -> Cooc {
    Cooc::count(&Corpus::from_docs(docs.to_vec()), VOCAB, &cooc_config()).expect("in vocab")
}

/// The batch reference: a cold train of `ppmi` with the service's
/// trainer and seed.
fn cold_train(ppmi: &SparseMatrix, dim: usize) -> Embedding {
    let config = retrainer_config();
    PpmiSvdTrainer::new(config.trainer).train(ppmi, dim, config.svd_seed)
}

fn registry() -> TenantRegistry {
    TenantRegistry::new(scratch_dir("stream_keystone"))
}

/// A deterministic base corpus plus a sequence of drifted increments.
fn corpus_and_increments(n_increments: usize) -> (Vec<Vec<u32>>, Vec<Vec<Vec<u32>>>) {
    let model = LatentModel::new(&LatentModelConfig {
        vocab_size: VOCAB,
        latent_dim: 6,
        n_topics: 4,
        seed: 7,
        ..Default::default()
    });
    let base = model
        .generate_corpus(&CorpusConfig {
            n_tokens: 3000,
            seed: 11,
            ..Default::default()
        })
        .docs()
        .to_vec();
    let increments = (0..n_increments)
        .map(|k| {
            model
                .generate_corpus(&CorpusConfig {
                    n_tokens: 400,
                    seed: 100 + k as u64,
                    ..Default::default()
                })
                .docs()
                .to_vec()
        })
        .collect();
    (base, increments)
}

fn cooc_bits(c: &Cooc) -> (u64, Vec<(u32, u32, u64)>, Vec<u64>) {
    (
        c.total().to_bits(),
        c.entries()
            .into_iter()
            .map(|(i, j, v)| (i, j, v.to_bits()))
            .collect(),
        c.row_sums().iter().map(|v| v.to_bits()).collect(),
    )
}

fn ppmi_bits(m: &SparseMatrix) -> Vec<(u32, u32, u64)> {
    m.iter_entries()
        .map(|(i, j, v)| (i, j, v.to_bits()))
        .collect()
}

fn emb_bits(e: &Embedding) -> Vec<u64> {
    e.mat().as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn incremental_statistics_match_from_scratch_bitwise() {
    let (base, increments) = corpus_and_increments(3);
    let mut svc = service();
    let mut all = base.clone();
    svc.ingest(base).expect("base in vocab");
    for delta in increments {
        all.extend(delta.iter().cloned());
        svc.ingest(delta).expect("increment in vocab");
        svc.refresh_statistics().expect("refresh");
        let scratch = count(&all);
        // The streamed table is bitwise the recounted table...
        assert_eq!(cooc_bits(svc.cooc()), cooc_bits(&scratch));
        // ...and the refreshed PPMI is bitwise the batch PPMI of the
        // recount: the exact-PPMI path has no tolerance.
        assert_eq!(ppmi_bits(svc.ppmi()), ppmi_bits(&ppmi(&scratch)));
    }
}

#[test]
fn first_incremental_retrain_is_bitwise_cold_then_warm_stays_in_tolerance() {
    let (base, increments) = corpus_and_increments(2);
    let dim = 8;
    let mut svc = service();
    let mut all = base.clone();
    svc.ingest(base).expect("base in vocab");

    // Step 1: no stored basis yet, so the service trains cold on bitwise
    // the batch PPMI with the same seed — identical bits.
    let first = svc.retrain(dim).expect("retrain");
    assert_eq!(
        emb_bits(&first),
        emb_bits(&cold_train(&ppmi(&count(&all)), dim))
    );

    // Later steps: the warm start is the one approximate stage. Pin its
    // EIS drift from the cold retrain of the same statistics under the
    // recorded tolerance.
    for delta in increments {
        all.extend(delta.iter().cloned());
        svc.ingest(delta).expect("increment in vocab");
        let warm = svc.retrain(dim).expect("warm retrain");
        let cold = cold_train(&ppmi(&count(&all)), dim);
        let suite = MeasureSuite::new(&cold, &cold, 3.0, 42);
        let eis = suite.compute_all(&cold, &warm).eis;
        assert!(
            eis < WARM_SVD_EIS_TOLERANCE,
            "warm-vs-cold EIS {eis} exceeds recorded tolerance {WARM_SVD_EIS_TOLERANCE}"
        );
    }
}

#[test]
fn fingerprint_is_split_invariant() {
    let (base, increments) = corpus_and_increments(3);
    // One service takes everything as a single increment...
    let mut one_shot = service();
    let mut all = base.clone();
    for delta in &increments {
        all.extend(delta.iter().cloned());
    }
    one_shot.ingest(all).expect("in vocab");
    // ...the other streams the same documents in four pieces.
    let mut streamed = service();
    streamed.ingest(base).expect("in vocab");
    for delta in increments {
        streamed.ingest(delta).expect("in vocab");
    }
    assert_eq!(one_shot.fingerprint(), streamed.fingerprint());
    assert_ne!(one_shot.increments(), streamed.increments());
}

#[test]
fn from_world_adopts_state_and_stream_fingerprint() {
    let world = World::build(&Scale::Tiny.params(), 3);
    let svc = ContinuousRetrainer::from_world(&world, retrainer_config(), registry())
        .expect("valid config");
    // Before any increment the service *is* the world's '18 corpus state:
    // content fingerprints agree, and the adopted table is the cached one.
    assert_eq!(svc.fingerprint(), world.stream_fingerprint());
    assert_eq!(cooc_bits(svc.cooc()), cooc_bits(&world.stats18.cooc_flat));
    assert_eq!(ppmi_bits(svc.ppmi()), ppmi_bits(&world.stats18.ppmi));
    // The config is pinned to the world's counting parameters, whatever
    // the caller passed.
    assert_eq!(svc.config().cooc.window, world.params.window);
    assert!(!svc.config().cooc.distance_weighting);
}

#[test]
fn checkpoint_roundtrip_resumes_bitwise() {
    let dir = scratch_dir("stream_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let (base, increments) = corpus_and_increments(2);
    let mut svc = service();
    svc.ingest(base).expect("in vocab");
    svc.ingest(increments[0].clone()).expect("in vocab");
    svc.retrain(8).expect("retrain stores a warm basis");

    let path = svc.save_checkpoint(&dir).expect("checkpoint write");
    assert_eq!(path, checkpoint_path(&dir, svc.fingerprint()));

    let resumed = ContinuousRetrainer::resume(&path, retrainer_config(), registry())
        .expect("read ok")
        .expect("checkpoint decodes");
    assert_eq!(resumed.fingerprint(), svc.fingerprint());
    assert_eq!(resumed.increments(), svc.increments());
    assert_eq!(cooc_bits(resumed.cooc()), cooc_bits(svc.cooc()));
    assert_eq!(ppmi_bits(resumed.ppmi()), ppmi_bits(svc.ppmi()));

    // Both copies stream the next increment to the same bits: resuming is
    // invisible to the keystone contract.
    let mut live = svc;
    let mut cold = resumed;
    live.ingest(increments[1].clone()).expect("in vocab");
    cold.ingest(increments[1].clone()).expect("in vocab");
    live.refresh_statistics().expect("refresh");
    cold.refresh_statistics().expect("refresh");
    assert_eq!(cooc_bits(live.cooc()), cooc_bits(cold.cooc()));
    assert_eq!(ppmi_bits(live.ppmi()), ppmi_bits(cold.ppmi()));

    // Corrupt and mismatched files are misses, never panics.
    let mut bytes = std::fs::read(&path).expect("read back");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(
        ContinuousRetrainer::resume(&path, retrainer_config(), registry(),)
            .expect("read ok")
            .is_none()
    );
    assert!(ContinuousRetrainer::resume(
        &dir.join("stream_0000000000000000.ckpt"),
        retrainer_config(),
        registry(),
    )
    .expect("missing file is a miss, not an error")
    .is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_between_ingest_and_refresh_resumes_on_current_ppmi() {
    // Saved after an ingest and before the next refresh: the counts are
    // newer than the last-refreshed PPMI. The resumed copy must still
    // retrain exactly as the uninterrupted service does.
    let dir = scratch_dir("stream_ckpt_unrefreshed");
    let _ = std::fs::remove_dir_all(&dir);
    let (base, increments) = corpus_and_increments(1);
    let mut live = service();
    live.ingest(base).expect("in vocab");
    live.retrain(8).expect("retrain stores a warm basis");
    live.ingest(increments[0].clone()).expect("in vocab");
    let path = live.save_checkpoint(&dir).expect("checkpoint write");
    let mut resumed = ContinuousRetrainer::resume(&path, retrainer_config(), registry())
        .expect("read ok")
        .expect("checkpoint decodes");
    let want = live.retrain(8).expect("warm retrain");
    let got = resumed.retrain(8).expect("warm retrain");
    assert_eq!(ppmi_bits(resumed.ppmi()), ppmi_bits(live.ppmi()));
    assert_eq!(emb_bits(&got), emb_bits(&want));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn step_submits_gate_scored_candidates_per_tenant() {
    let dir = scratch_dir("stream_step");
    let _ = std::fs::remove_dir_all(&dir);
    let (base, increments) = corpus_and_increments(2);
    let mut registry = TenantRegistry::new(&dir);
    // An unbounded tenant always promotes; the strict tenant's ceiling of
    // zero holds every post-bootstrap candidate (any drift scores > 0).
    registry
        .register_config("open", Slo::unbounded(8 * 32), 8, Precision::FULL)
        .expect("valid tenant");
    registry
        .register_config(
            "strict",
            Slo {
                max_predicted_instability: 0.0,
                memory_budget_bits: 8 * 32,
            },
            8,
            Precision::FULL,
        )
        .expect("valid tenant");

    let mut svc =
        ContinuousRetrainer::new(VOCAB, retrainer_config(), registry).expect("valid config");

    let report = svc.step(base).expect("first step");
    assert_eq!(report.outcomes.len(), 2);
    for t in &report.outcomes {
        assert!(
            t.outcome.is_live() && t.outcome.evaluation().is_none(),
            "first submit bootstraps {}",
            t.tenant
        );
    }

    for delta in increments {
        let report = svc.step(delta).expect("step");
        let names: Vec<&str> = report.outcomes.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["open", "strict"], "tenant-name order");
        let open = &report.outcomes[0].outcome;
        let strict = &report.outcomes[1].outcome;
        assert!(open.is_live(), "unbounded SLO promotes");
        assert!(!strict.is_live(), "zero-ceiling SLO holds");
        // Held candidates still carry their gate scores — the monitoring
        // half of the Submit contract.
        let eval = strict.evaluation().expect("held candidates are scored");
        assert!(eval.predicted_instability > 0.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_typed_and_leave_state_intact() {
    let mut svc = service();
    svc.ingest(vec![vec![0, 1, 2]]).expect("in vocab");
    let fp = svc.fingerprint();

    let err = svc
        .ingest(vec![vec![0], vec![VOCAB as u32]])
        .expect_err("token out of vocabulary");
    assert!(matches!(err, StreamError::Cooc(_)));
    assert_eq!(svc.fingerprint(), fp, "failed ingest leaves state alone");

    let err = svc.retrain(0).expect_err("dim 0 invalid");
    assert!(matches!(err, StreamError::InvalidDim { dim: 0, .. }));
    let err = svc.retrain(VOCAB + 1).expect_err("dim > vocab invalid");
    assert!(matches!(err, StreamError::InvalidDim { .. }));

    let zero_window = ContinuousRetrainer::new(
        VOCAB,
        RetrainerConfig {
            cooc: CoocConfig {
                window: 0,
                distance_weighting: false,
            },
            ..RetrainerConfig::default()
        },
        registry(),
    );
    assert!(matches!(zero_window, Err(StreamError::Cooc(_))));
}

#[test]
fn streamed_service_matches_one_shot_count() {
    // The delta path against the ground truth `Cooc::count`, through the
    // service API rather than `Cooc::accumulate` directly.
    let (base, increments) = corpus_and_increments(2);
    let mut svc = service();
    let mut all = base.clone();
    svc.ingest(base).expect("in vocab");
    for delta in increments {
        all.extend(delta.iter().cloned());
        svc.ingest(delta).expect("in vocab");
    }
    assert_eq!(cooc_bits(svc.cooc()), cooc_bits(&count(&all)));
}
