//! Golden test for `ContinuousRetrainer::step`: the bits a retrain step
//! produces are pinned, not just compared between two paths.
//!
//! A Tiny world seeds the service, an empty step bootstraps three tenants
//! (two dimensions, one quantized, one that holds every candidate), and
//! five drifted increments then run through `step`. One FNV-64 hash
//! covers every gate evaluation (all five measures, the aligned candidate
//! and its quantized form), every published snapshot file, and the final
//! checkpoint (corpus, co-occurrence table and warm bases). Speed work on
//! the step — pools, split refreshes, precomputed gate references — must
//! leave this value unchanged; so must the worker count
//! (`EMBEDSTAB_THREADS`).

use std::path::Path;

use embedstab_corpus::codec::Fnv64;
use embedstab_corpus::{CorpusConfig, DriftConfig};
use embedstab_linalg::Mat;
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::{Scale, World};
use embedstab_quant::Precision;
use embedstab_serve::{GateOutcome, Slo, TenantRegistry};
use embedstab_stream::{ContinuousRetrainer, RetrainerConfig};

/// The hash the step sequence below produced when it was pinned.
const GOLDEN: u64 = 0xec96_3d4e_a66d_aea4;

fn put_mat(h: &mut Fnv64, m: &Mat) {
    h.write_u64(m.rows() as u64).write_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.write_u64(v.to_bits());
    }
}

fn put_outcome(h: &mut Fnv64, outcome: &GateOutcome) {
    h.write_u64(outcome.version().map_or(u64::MAX, |v| v.0));
    if let Some(e) = outcome.evaluation() {
        let m = &e.measures;
        for v in [
            m.eis,
            m.knn_dist,
            m.semantic_displacement,
            m.pip_loss,
            m.overlap_dist,
            e.predicted_instability,
        ] {
            h.write_u64(v.to_bits());
        }
        put_mat(h, e.aligned.mat());
        put_mat(h, e.quantized.mat());
    }
}

/// Every file under `dir`, in name order, as (name, bytes).
fn put_dir(h: &mut Fnv64, dir: &Path) {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("list dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    names.sort();
    for path in names {
        if path.is_dir() {
            put_dir(h, &path);
            continue;
        }
        let name = path.file_name().expect("file name").to_string_lossy();
        h.write(name.as_bytes());
        h.write(&std::fs::read(&path).expect("read file"));
    }
}

fn increment(world: &World, step: u64) -> Vec<Vec<u32>> {
    world
        .pair
        .model18
        .drifted(&DriftConfig {
            drift_sigma: 0.2,
            seed: 500 + step,
            ..Default::default()
        })
        .generate_corpus(&CorpusConfig {
            n_tokens: world.params.corpus_tokens / 20,
            seed: 900 + step,
            ..Default::default()
        })
        .docs()
        .to_vec()
}

#[test]
fn five_steps_reproduce_the_pinned_bits() {
    let dir = scratch_dir("stream_golden");
    let _ = std::fs::remove_dir_all(&dir);
    let world = World::build(&Scale::Tiny.params(), 5);
    let mut registry = TenantRegistry::new(dir.join("tenants"));
    let q8 = Precision::new(8);
    registry
        .register_config("a8", Slo::unbounded(8 * 8), 8, q8)
        .expect("tenant a8");
    registry
        .register_config("b16", Slo::unbounded(16 * 32), 16, Precision::FULL)
        .expect("tenant b16");
    let strict = Slo {
        max_predicted_instability: 0.0,
        memory_budget_bits: 8 * 8,
    };
    registry
        .register_config("c8", strict, 8, q8)
        .expect("tenant c8");
    let mut svc = ContinuousRetrainer::from_world(&world, RetrainerConfig::default(), registry)
        .expect("service");

    let mut h = Fnv64::new();
    let boot = svc.step(Vec::new()).expect("bootstrap step");
    assert!(boot
        .outcomes
        .iter()
        .all(|t| matches!(t.outcome, GateOutcome::Bootstrapped { .. })));
    for step in 0..5 {
        let report = svc.step(increment(&world, step)).expect("step");
        let names: Vec<&str> = report.outcomes.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["a8", "b16", "c8"]);
        assert!(report.outcomes[0].outcome.is_live());
        assert!(!report.outcomes[2].outcome.is_live());
        for t in &report.outcomes {
            put_outcome(&mut h, &t.outcome);
        }
    }
    put_dir(&mut h, &dir.join("tenants"));
    let ckpt = svc.save_checkpoint(&dir.join("ckpt")).expect("checkpoint");
    h.write(&std::fs::read(ckpt).expect("read checkpoint"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(h.finish(), GOLDEN, "step bits moved: {:#018x}", h.finish());
}
