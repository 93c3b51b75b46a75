//! The continuous-retraining service.
//!
//! [`ContinuousRetrainer`] owns one world's counting state — corpus,
//! co-occurrence table, PPMI — plus a [`TenantRegistry`] to publish
//! through. Feed it corpus increments; it streams them into the counts,
//! refreshes PPMI, trains one candidate per tenant dimension (warm-started
//! from the previous basis), and submits each through the serving layer's
//! stability gate. This is the ROADMAP's gate-scored `Submit`
//! path: retrains arrive as increments and reach tenants only if their
//! predicted instability clears the SLO.

use std::collections::{BTreeMap, BTreeSet};

use embedstab_corpus::{
    corpus_state_fingerprint, ppmi, Cooc, CoocConfig, CoocError, Corpus, SparseMatrix,
};
use embedstab_embeddings::{Embedding, PpmiSvdConfig, PpmiSvdTrainer};
use embedstab_linalg::{pool, Mat};
use embedstab_pipeline::World;
use embedstab_serve::{GateOutcome, TenantRegistry};

use crate::error::StreamError;

/// Measured ceiling on the EIS distance between a warm-started retrain
/// and the cold retrain of the *same* PPMI matrix. The exact-PPMI half of
/// the pipeline is bitwise; the warm SVD is the one approximate stage,
/// and its drift is pinned under this tolerance by the keystone test
/// (`tests/keystone.rs`) and recorded in `BENCH_incremental.json` so
/// every bench run re-measures it.
pub const WARM_SVD_EIS_TOLERANCE: f64 = 0.05;

/// Configuration for a [`ContinuousRetrainer`].
#[derive(Clone, Debug)]
pub struct RetrainerConfig {
    /// Counting configuration every increment is applied with.
    pub cooc: CoocConfig,
    /// Trainer hyperparameters (shared by the warm and cold paths).
    pub trainer: PpmiSvdConfig,
    /// SVD sketch seed, fixed so retrains are deterministic functions of
    /// the accumulated corpus.
    pub svd_seed: u64,
}

impl Default for RetrainerConfig {
    fn default() -> Self {
        RetrainerConfig {
            cooc: CoocConfig::default(),
            trainer: PpmiSvdConfig::default(),
            svd_seed: 0x5eed,
        }
    }
}

/// What an increment did to the co-occurrence table.
#[derive(Clone, Debug)]
pub struct DeltaReport {
    /// Sorted ids of rows whose *counts* changed: how far the increment
    /// reaches. A diagnostic only — any added mass moves the global total
    /// and therefore every PPMI entry, so the refresh rebuilds all rows.
    pub dirty_rows: Vec<u32>,
    /// Number of documents the increment appended.
    pub added_docs: usize,
    /// Number of tokens the increment appended.
    pub added_tokens: usize,
}

/// One tenant's gate outcome within a [`StepReport`].
#[derive(Debug)]
pub struct TenantOutcome {
    /// The tenant the candidate was submitted to.
    pub tenant: String,
    /// What the gate did with it.
    pub outcome: GateOutcome,
}

/// What one [`ContinuousRetrainer::step`] did: the applied delta and the
/// per-tenant gate outcomes, in tenant-name order.
#[derive(Debug)]
pub struct StepReport {
    /// The increment's effect on the co-occurrence table.
    pub delta: DeltaReport,
    /// Gate outcome per registered tenant.
    pub outcomes: Vec<TenantOutcome>,
}

/// A long-lived retraining service: owns the counting state of one world,
/// accepts corpus increments, and publishes gate-scored candidates to its
/// tenants.
///
/// The service is a deterministic function of (initial state, increment
/// sequence, configuration): no clocks, no ambient randomness — which is
/// what makes its checkpoints ([`crate::checkpoint`]) and the bitwise
/// keystone test possible.
pub struct ContinuousRetrainer {
    registry: TenantRegistry,
    lane: TrainingLane,
}

/// Everything a step's training lane touches — counting state, PPMI,
/// warm bases — kept apart from the registry so the gate's reference
/// lane can borrow the registry beside it.
struct TrainingLane {
    vocab_size: usize,
    config: RetrainerConfig,
    corpus: Corpus,
    cooc: Cooc,
    ppmi: SparseMatrix,
    ppmi_fresh: bool,
    bases: BTreeMap<usize, Mat>,
    increments: u64,
}

impl TrainingLane {
    fn ingest(&mut self, docs: Vec<Vec<u32>>) -> Result<DeltaReport, StreamError> {
        let dirty_rows = self.cooc.accumulate(&docs, &self.config.cooc)?;
        let report = DeltaReport {
            dirty_rows,
            added_docs: docs.len(),
            added_tokens: docs.iter().map(Vec::len).sum(),
        };
        self.corpus.append_docs(docs);
        // Any added mass moves the PPMI total: a changed count stales every row.
        self.ppmi_fresh &= report.dirty_rows.is_empty();
        self.increments += 1;
        Ok(report)
    }

    fn refresh_statistics(&mut self) {
        if !self.ppmi_fresh {
            self.ppmi = ppmi(&self.cooc);
            self.ppmi_fresh = true;
        }
    }

    fn retrain(&mut self, dim: usize) -> Result<Embedding, StreamError> {
        let invalid = StreamError::InvalidDim {
            dim,
            vocab_size: self.vocab_size,
        };
        if dim == 0 || dim > self.vocab_size {
            return Err(invalid);
        }
        self.refresh_statistics();
        let trainer = PpmiSvdTrainer::new(self.config.trainer.clone());
        let seed = self.config.svd_seed;
        let candidate = match self.bases.get(&dim) {
            Some(warm) => trainer
                .train_warm(&self.ppmi, dim, seed, warm)
                .ok_or(invalid)?,
            None => trainer.train(&self.ppmi, dim, seed),
        };
        // The orthonormalized embedding columns span the candidate's
        // dominant left subspace — next step's warm seed.
        self.bases.insert(dim, candidate.mat().orthonormalize());
        Ok(candidate)
    }
}

impl ContinuousRetrainer {
    /// A service over an initially empty corpus.
    ///
    /// # Errors
    ///
    /// [`StreamError::Cooc`] with [`CoocError::ZeroWindow`] if the
    /// counting window is zero.
    pub fn new(
        vocab_size: usize,
        config: RetrainerConfig,
        registry: TenantRegistry,
    ) -> Result<Self, StreamError> {
        // Surfaces ZeroWindow now rather than on the first increment.
        if config.cooc.window == 0 {
            return Err(CoocError::ZeroWindow.into());
        }
        Ok(Self::from_parts(
            vocab_size,
            config,
            registry,
            Corpus::from_docs(Vec::new()),
            Cooc::empty(vocab_size),
            SparseMatrix::new(vocab_size, vocab_size),
            BTreeMap::new(),
            0,
        ))
    }

    /// A service seeded from a built [`World`]: the accumulated ('18)
    /// corpus, its flat co-occurrence table, and its PPMI matrix are
    /// adopted as the starting state — no recounting. The world cached
    /// its table in counting order, so streaming continues the exact
    /// accumulation sequence a from-scratch count would have produced:
    /// the bitwise contract holds across the seed boundary.
    ///
    /// `config.cooc` is overridden with the world's counting parameters
    /// (its window, flat weighting) — the adopted statistics were counted
    /// that way, and mixing configurations would silently break the
    /// bitwise contract. Consequently
    /// [`ContinuousRetrainer::fingerprint`] starts equal to
    /// [`World::stream_fingerprint`] and diverges on the first increment.
    pub fn from_world(
        world: &World,
        mut config: RetrainerConfig,
        registry: TenantRegistry,
    ) -> Result<Self, StreamError> {
        config.cooc = CoocConfig {
            window: world.params.window,
            distance_weighting: false,
        };
        let mut svc = Self::new(world.params.vocab_size, config, registry)?;
        svc.lane.corpus = Corpus::clone(&world.pair.corpus18);
        svc.lane.cooc = world.stats18.cooc_flat.clone();
        svc.lane.ppmi = world.stats18.ppmi.clone();
        Ok(svc)
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.lane.vocab_size
    }

    /// The service configuration.
    pub fn config(&self) -> &RetrainerConfig {
        &self.lane.config
    }

    /// The accumulated corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.lane.corpus
    }

    /// The standing co-occurrence table.
    pub fn cooc(&self) -> &Cooc {
        &self.lane.cooc
    }

    /// The PPMI matrix as of the last refresh (empty until the first
    /// retrain if the service started empty).
    pub fn ppmi(&self) -> &SparseMatrix {
        &self.lane.ppmi
    }

    /// The tenant registry candidates are submitted through.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Mutable registry access (tenant registration).
    pub fn registry_mut(&mut self) -> &mut TenantRegistry {
        &mut self.registry
    }

    /// Number of increments applied over the service's lifetime
    /// (checkpoint-persistent).
    pub fn increments(&self) -> u64 {
        self.lane.increments
    }

    /// The content fingerprint of the world this service now holds:
    /// [`corpus_state_fingerprint`] over the accumulated corpus under the
    /// service's counting configuration. Two services that reached the
    /// same final corpus by different increment splits fingerprint
    /// identically — and identically to [`World::stream_fingerprint`]
    /// when seeded from a world before any increment. Checkpoints key on
    /// this value.
    pub fn fingerprint(&self) -> u64 {
        corpus_state_fingerprint(
            &self.lane.corpus,
            self.lane.vocab_size,
            &self.lane.config.cooc,
        )
    }

    /// Applies a corpus increment: streams it into the co-occurrence
    /// table through [`Cooc::accumulate`] — which checks every token
    /// before it counts one, and leaves the table bitwise what a one-shot
    /// count over the concatenated corpus would hold — and appends it to
    /// the corpus. Statistics are refreshed lazily at the next
    /// [`ContinuousRetrainer::retrain`].
    ///
    /// # Errors
    ///
    /// [`StreamError::Cooc`] if a token is out of vocabulary; the service
    /// state is untouched on error.
    pub fn ingest(&mut self, docs: Vec<Vec<u32>>) -> Result<DeltaReport, StreamError> {
        self.lane.ingest(docs)
    }

    /// Brings the PPMI matrix up to date with the counting state:
    /// [`ppmi`](fn@ppmi) over the standing table, bitwise the PPMI of a one-shot
    /// count of the accumulated corpus. Normally called through
    /// [`ContinuousRetrainer::retrain`]; exposed for callers that want
    /// fresh statistics without training.
    ///
    /// # Errors
    ///
    /// None at present: the refresh is total. The `Result` lets callers
    /// chain it with the fallible steps.
    pub fn refresh_statistics(&mut self) -> Result<(), StreamError> {
        self.lane.refresh_statistics();
        Ok(())
    }

    /// Trains a `dim`-dimensional candidate on the current statistics
    /// (refreshing them first if stale). The SVD warm-starts from the
    /// previous basis at this dimension when one exists and runs cold
    /// otherwise; the new basis is retained for the next step.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidDim`] if `dim` is outside
    /// `1..=vocab_size`.
    pub fn retrain(&mut self, dim: usize) -> Result<Embedding, StreamError> {
        self.lane.retrain(dim)
    }

    /// One full service step: ingest the increment, retrain one candidate
    /// per distinct tenant dimension, and submit to every tenant through
    /// the stability gate. Outcomes come back in tenant-name order.
    ///
    /// The step runs two lanes on the worker pool: the training lane
    /// (ingest, PPMI refresh, warm SVD per dimension, with the refresh
    /// rows and the sparse products split across the pool) beside the
    /// gate's reference lane, which computes the live side of the gate of
    /// every tenant whose live version has none yet
    /// ([`TenantRegistry::prepare_references`]). The submits follow, one
    /// tenant at a time, each running only the gate's candidate side.
    /// Every lane does the arithmetic of a serial step in the same order,
    /// so the bits are those of a serial step.
    ///
    /// # Errors
    ///
    /// Anything [`ContinuousRetrainer::ingest`],
    /// [`ContinuousRetrainer::retrain`], or
    /// [`TenantRegistry::submit`] can return. A training error fails the
    /// step before any tenant is submitted; after a submit error, tenants
    /// before the failure keep their outcomes (snapshot stores are
    /// per-tenant, so there is no cross-tenant rollback to do).
    pub fn step(&mut self, docs: Vec<Vec<u32>>) -> Result<StepReport, StreamError> {
        let specs: Vec<(String, usize)> = self
            .registry
            .tenants()
            .map(|t| (t.name().to_string(), t.dim()))
            .collect();
        let dims: BTreeSet<usize> = specs.iter().map(|&(_, dim)| dim).collect();
        let (lane, registry) = (&mut self.lane, &mut self.registry);
        let (trained, ()) = pool::join(
            || -> Result<_, StreamError> {
                let delta = lane.ingest(docs)?;
                let mut candidates = BTreeMap::new();
                for dim in dims {
                    candidates.insert(dim, lane.retrain(dim)?);
                }
                Ok((delta, candidates))
            },
            || registry.prepare_references(),
        );
        let (delta, candidates) = trained?;
        let mut outcomes = Vec::with_capacity(specs.len());
        for (tenant, dim) in specs {
            let outcome = self.registry.submit(&tenant, &candidates[&dim])?;
            outcomes.push(TenantOutcome { tenant, outcome });
        }
        Ok(StepReport { delta, outcomes })
    }

    /// Internal constructor for checkpoint resume: adopts decoded state
    /// wholesale.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        vocab_size: usize,
        config: RetrainerConfig,
        registry: TenantRegistry,
        corpus: Corpus,
        cooc: Cooc,
        ppmi: SparseMatrix,
        bases: BTreeMap<usize, Mat>,
        increments: u64,
    ) -> Self {
        ContinuousRetrainer {
            registry,
            lane: TrainingLane {
                vocab_size,
                config,
                corpus,
                cooc,
                ppmi,
                ppmi_fresh: true,
                bases,
                increments,
            },
        }
    }

    /// Checkpoint-internal view of the warm bases.
    pub(crate) fn bases(&self) -> &BTreeMap<usize, Mat> {
        &self.lane.bases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(window: usize) -> Result<ContinuousRetrainer, StreamError> {
        let config = RetrainerConfig {
            cooc: CoocConfig {
                window,
                distance_weighting: false,
            },
            ..RetrainerConfig::default()
        };
        // No tenants: ingest never touches the registry's directory.
        ContinuousRetrainer::new(4, config, TenantRegistry::new("unused"))
    }

    #[test]
    fn zero_window_rejected_at_construction() {
        let err = service(0).err().expect("zero window");
        assert!(matches!(err, StreamError::Cooc(CoocError::ZeroWindow)));
    }

    #[test]
    fn ingest_checks_every_token_before_counting() {
        let mut svc = service(2).expect("valid config");
        svc.ingest(vec![vec![0, 1, 2]]).expect("in vocab");
        let (total, docs) = (svc.cooc().total().to_bits(), svc.corpus().docs().to_vec());
        // The bad token ends the batch: a count-as-you-go ingest would
        // already have moved the table.
        let err = svc
            .ingest(vec![vec![3, 1], vec![1, 4]])
            .expect_err("out of vocab");
        assert!(matches!(
            err,
            StreamError::Cooc(CoocError::TokenOutOfVocab {
                token: 4,
                vocab_size: 4
            })
        ));
        assert_eq!(svc.cooc().total().to_bits(), total);
        assert_eq!(svc.corpus().docs(), &docs[..]);
        assert_eq!(svc.increments(), 1);
    }

    #[test]
    fn ingest_streams_bitwise_and_reports_dirty_rows() {
        let base = vec![vec![0u32, 1, 2], vec![2, 0]];
        let inc = vec![vec![3u32, 1], vec![1, 1, 3]];
        let mut svc = service(2).expect("valid config");
        svc.ingest(base.clone()).expect("in vocab");
        let report = svc.ingest(inc.clone()).expect("in vocab");
        assert_eq!(report.dirty_rows, vec![1, 3]);
        assert_eq!(report.added_docs, 2);
        assert_eq!(report.added_tokens, 5);
        let mut full = base;
        full.extend(inc);
        let one_shot =
            Cooc::count(&Corpus::from_docs(full), 4, &svc.config().cooc).expect("in vocab");
        assert_eq!(svc.cooc().total().to_bits(), one_shot.total().to_bits());
        let bits = |c: &Cooc| {
            c.entries()
                .into_iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(svc.cooc()), bits(&one_shot));
    }
}
