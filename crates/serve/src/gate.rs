//! The stability gate: score a retrained candidate against the live
//! snapshot *before* promoting it, using the paper's embedding-distance
//! measures instead of retraining downstream models.
//!
//! This is the serving-side use of the paper's central result: downstream
//! prediction churn between two embeddings can be predicted cheaply from
//! the embeddings alone (Section 4, Table 1). The gate follows the
//! paper's pair-comparison protocol — align the candidate to the live
//! snapshot with orthogonal Procrustes, quantize it with the clip
//! threshold *shared from the live side* (Appendix C.2's convention, the
//! one [`quantize_pair`](embedstab_quant::quantize_pair) implements for
//! offline pairs), then run the [`MeasureSuite`] — and compares EIS, the
//! paper's best selector, against the tenant's [`Slo`].
//!
//! One deliberate difference from the offline `Experiment` sweep: the
//! sweep anchors EIS on the highest-dimensional full-precision pair and
//! scores the top-m most frequent words, while the gate has only the live
//! snapshot to anchor on, so it anchors EIS on the (live, candidate) pair
//! itself over the full served vocabulary
//! ([`MeasureSuite::pair_anchored`]). Calibrate
//! [`Slo::max_predicted_instability`] on this anchor's scores, not on
//! sweep values.
//!
//! Because the live snapshot, its stored clip, and every measure are
//! deterministic, scoring the same candidate twice gives bitwise-identical
//! results (the `serve` proptests pin this).
//!
//! **Live side and candidate side.** Half of a score depends on the live
//! snapshot alone: the suite's [`MeasureReference`] (its SVD, its
//! rank-truncated left basis, and the neighbour lists of the k-NN
//! measure's query words). Each tenant keeps one, for its current live
//! version only: it is computed the first time a candidate is scored
//! against that version (or ahead of time, by
//! [`TenantRegistry::prepare_references`](crate::TenantRegistry::prepare_references),
//! which the streaming retrainer runs beside its training lane), reused
//! by every later candidate, and dropped when a publish replaces the live
//! version. The candidate side aligns and quantizes the candidate, then
//! runs [`MeasureSuite::score`]. The split changes no bit:
//! [`StabilityGate::score`] is exactly reference plus candidate side.

use std::io;

use embedstab_core::measures::{MeasureReference, MeasureSuite, MeasureValues, EIS_ALPHA};
use embedstab_embeddings::Embedding;
use embedstab_quant::quantize;

use crate::snapshot::Snapshot;

/// A tenant's serving contract: how much instability each retrain may
/// introduce, and how much memory the served snapshot may use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slo {
    /// Ceiling on the gate's predicted instability (the candidate's EIS)
    /// for a candidate to be promoted.
    pub max_predicted_instability: f64,
    /// Memory budget in bits/word; the tenant registry picks the
    /// (dimension, precision) candidate on exactly this budget line.
    pub memory_budget_bits: u64,
}

impl Slo {
    /// An SLO that promotes every candidate — useful when the gate is run
    /// for its scores only (e.g. monitoring churn without blocking).
    pub fn unbounded(memory_budget_bits: u64) -> Slo {
        Slo {
            max_predicted_instability: f64::INFINITY,
            memory_budget_bits,
        }
    }
}

/// The result of scoring one candidate against the live snapshot.
#[derive(Clone, Debug)]
pub struct GateEvaluation {
    /// All five embedding distance measures over the (live, candidate)
    /// pair, computed by the shared [`MeasureSuite`].
    pub measures: MeasureValues,
    /// The EIS value — what the SLO is checked against.
    pub predicted_instability: f64,
    /// The candidate aligned to the live snapshot (full precision); this
    /// is what gets published if the gate admits it.
    pub aligned: Embedding,
    /// The aligned candidate quantized with the live snapshot's clip (the
    /// shared-clip convention) — the pair `(live, quantized)` is what the
    /// measures scored, and what downstream churn monitoring should
    /// compare.
    pub quantized: Embedding,
}

/// Scores candidates against live snapshots with the paper's measure
/// settings. One gate is shared by every tenant of a registry; it holds
/// only the measure suite, no per-tenant state.
#[derive(Clone, Debug)]
pub struct StabilityGate {
    suite: MeasureSuite,
}

impl Default for StabilityGate {
    fn default() -> Self {
        StabilityGate {
            suite: MeasureSuite::pair_anchored(EIS_ALPHA, 0),
        }
    }
}

impl StabilityGate {
    /// A gate at the paper's settings: EIS gating with `alpha = 3`, k-NN
    /// at `k = 5` over 1000 queries (capped at the vocabulary) sampled
    /// with seed 0, the auto-dispatched SVD backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live side of every score against `live`.
    pub(crate) fn reference(&self, live: &Snapshot) -> MeasureReference {
        self.suite.reference(live.embedding())
    }

    /// Scores a full-precision retrained `candidate` against the live
    /// snapshot: align (Procrustes), quantize with the live clip
    /// (shared-clip convention), compute all five measures. This is
    /// the live side (`reference`) followed by the candidate side; a
    /// tenant reuses the reference across candidates instead.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if the candidate's shape
    /// differs from the live snapshot's (the same taxonomy
    /// [`TenantRegistry::submit`](crate::TenantRegistry::submit) reports;
    /// a serving process must reject such a candidate, not crash on it).
    pub fn score(&self, live: &Snapshot, candidate: &Embedding) -> io::Result<GateEvaluation> {
        check_shape(live, candidate)?;
        self.score_against(live, &self.reference(live), candidate)
    }

    /// The candidate side of [`StabilityGate::score`], against a
    /// `reference` computed from `live`.
    pub(crate) fn score_against(
        &self,
        live: &Snapshot,
        reference: &MeasureReference,
        candidate: &Embedding,
    ) -> io::Result<GateEvaluation> {
        check_shape(live, candidate)?;
        let aligned = candidate.align_to(live.embedding());
        let q = quantize(&aligned, live.meta().precision, live.meta().clip);
        let measures = self.suite.score(live.embedding(), reference, &q.embedding);
        Ok(GateEvaluation {
            predicted_instability: measures.eis,
            measures,
            aligned,
            quantized: q.embedding,
        })
    }

    /// Whether an evaluation satisfies the SLO (promote) or not (hold).
    pub fn admits(&self, evaluation: &GateEvaluation, slo: &Slo) -> bool {
        evaluation.predicted_instability <= slo.max_predicted_instability
    }
}

/// Rejects a candidate whose shape differs from the live snapshot's.
fn check_shape(live: &Snapshot, candidate: &Embedding) -> io::Result<()> {
    if candidate.shape() == live.embedding().shape() {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "candidate shape {:?} must match the live snapshot's {:?}",
            candidate.shape(),
            live.embedding().shape()
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_core::measures::{
        overlap_distance_from_bases, DistanceMeasure, EisMeasure, KnnMeasure, PipLoss,
        SemanticDisplacement, SvdMethod,
    };
    use embedstab_linalg::Mat;
    use embedstab_pipeline::cache::scratch_dir;
    use embedstab_quant::Precision;
    use rand::SeedableRng;

    use crate::snapshot::SnapshotStore;

    fn emb(seed: u64, n: usize, d: usize) -> Embedding {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Embedding::new(Mat::random_normal(n, d, &mut rng))
    }

    fn live_store(label: &str, base: &Embedding, prec: Precision) -> SnapshotStore {
        let dir = scratch_dir(label);
        std::fs::remove_dir_all(&dir).ok();
        let mut store = SnapshotStore::open(&dir).expect("open");
        store.publish(base, prec, None).expect("publish");
        store
    }

    #[test]
    fn identical_candidate_scores_near_zero_and_noise_scores_higher() {
        let base = emb(0, 40, 6);
        let store = live_store("gate_scores", &base, Precision::FULL);
        let live = store.live().expect("live");
        let gate = StabilityGate::new();
        let same = gate.score(live, &base).expect("score");
        assert!(
            same.predicted_instability < 1e-6,
            "identical retrain must score ~0, got {}",
            same.predicted_instability
        );
        let noisy = gate.score(live, &emb(99, 40, 6)).expect("score");
        assert!(
            noisy.predicted_instability > same.predicted_instability,
            "an unrelated retrain must score higher"
        );
        // The SLO line separates them.
        let slo = Slo {
            max_predicted_instability: (same.predicted_instability + noisy.predicted_instability)
                / 2.0,
            memory_budget_bits: 6 * 32,
        };
        assert!(gate.admits(&same, &slo));
        assert!(!gate.admits(&noisy, &slo));
        assert!(gate.admits(&noisy, &Slo::unbounded(6 * 32)));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn split_score_is_bitwise_the_one_shot_measures() {
        // The measures computed directly on (live, quantized candidate),
        // as a gate without a live side would: the reference plus
        // candidate-side split must not move a bit.
        let base = emb(7, 60, 5);
        let store = live_store("gate_split", &base, Precision::new(4));
        let live = store.live().expect("live");
        let gate = StabilityGate::new();
        let eval = gate.score(live, &emb(8, 60, 5)).expect("score");
        let (x, q) = (live.embedding(), &eval.quantized);
        let svd_x = x.mat().svd_with(SvdMethod::Auto);
        let svd_q = q.mat().svd_with(SvdMethod::Auto);
        let (ux, uq) = (svd_x.u_rank(1e-10), svd_q.u_rank(1e-10));
        let eis = EisMeasure::from_reference_svds(&svd_x, &svd_q, 60, 3.0);
        let direct = [
            eis.distance_from_bases(&ux, &uq),
            KnnMeasure::new(5, 1000, 0).distance(x, q),
            SemanticDisplacement.distance(x, q),
            PipLoss.distance(x, q),
            overlap_distance_from_bases(&ux, &uq),
        ];
        let m = &eval.measures;
        let split = [
            m.eis,
            m.knn_dist,
            m.semantic_displacement,
            m.pip_loss,
            m.overlap_dist,
        ];
        assert_eq!(split.map(f64::to_bits), direct.map(f64::to_bits));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn quantized_candidate_shares_the_live_clip() {
        let base = emb(1, 30, 4);
        let prec = Precision::new(4);
        let store = live_store("gate_clip", &base, prec);
        let live = store.live().expect("live");
        let gate = StabilityGate::new();
        let eval = gate.score(live, &emb(2, 30, 4)).expect("score");
        // Every quantized value sits on the live clip's uniform levels.
        let clip = live.meta().clip.expect("quantized snapshot has a clip");
        for &v in eval.quantized.mat().as_slice() {
            let requantized = embedstab_quant::quantize_value(v, clip, prec);
            assert_eq!(requantized.to_bits(), v.to_bits());
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let base = emb(5, 20, 4);
        let store = live_store("gate_shape", &base, Precision::FULL);
        let gate = StabilityGate::new();
        let err = gate
            .score(store.live().expect("live"), &emb(6, 20, 5))
            .expect_err("mismatched candidate shape must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
