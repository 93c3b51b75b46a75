//! Multi-tenant serving: each tenant gets a configuration picked on its
//! memory-budget line, its own snapshot store, and stability-gated
//! retrain promotion under its [`Slo`].

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

use embedstab_core::measures::MeasureReference;
use embedstab_core::selection::{candidates_in_budget, pick_lowest_measure, ConfigPoint};
use embedstab_embeddings::Embedding;
use embedstab_quant::Precision;

use crate::gate::{GateEvaluation, Slo, StabilityGate};
use crate::snapshot::{Snapshot, SnapshotStore, Version};

/// One tenant: a named consumer of embeddings with a serving contract.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    slo: Slo,
    dim: usize,
    precision: Precision,
    store: SnapshotStore,
    /// The gate's live side and the version it was computed from, for
    /// the current live version only; dropped when a publish replaces it.
    reference: Option<(Version, MeasureReference)>,
}

impl Tenant {
    /// The tenant's name (also its snapshot subdirectory).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's serving contract.
    pub fn slo(&self) -> &Slo {
        &self.slo
    }

    /// The embedding dimension the tenant serves.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The precision the tenant's snapshots are quantized to.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The tenant's snapshot store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The tenant's live snapshot, if one has been published.
    pub fn live(&self) -> Option<&Snapshot> {
        self.store.live()
    }

    /// The gate reference held for the live version, if one has been
    /// computed since the last publish.
    fn reference(&self) -> Option<&(Version, MeasureReference)> {
        let live = self.store.live()?.meta().version;
        self.reference
            .as_ref()
            .filter(|(version, _)| *version == live)
    }

    /// Computes the gate reference for the live snapshot unless the one
    /// held is already for it (no-op before the first publish).
    fn prepare_reference(&mut self, gate: &StabilityGate) {
        let Some(live) = self.store.live() else {
            return;
        };
        if self.reference().is_none() {
            self.reference = Some((live.meta().version, gate.reference(live)));
        }
    }

    /// Submits a full-precision retrained candidate through the gate; see
    /// [`TenantRegistry::submit`].
    pub fn submit(
        &mut self,
        gate: &StabilityGate,
        candidate: &Embedding,
    ) -> io::Result<GateOutcome> {
        if candidate.dim() != self.dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "candidate dimension {} does not match tenant '{}' configuration (dim {})",
                    candidate.dim(),
                    self.name,
                    self.dim
                ),
            ));
        }
        let Some(live) = self.store.live() else {
            let version = self.store.publish(candidate, self.precision, None)?;
            return Ok(GateOutcome::Bootstrapped { version });
        };
        // A retrain on accumulated data can grow the vocabulary; the gate's
        // measures need row-aligned vocabularies, so a serving process must
        // reject (not crash on) such a candidate — the operator truncates
        // or re-bootstraps deliberately.
        if candidate.vocab_size() != live.meta().vocab_size {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "candidate vocabulary {} does not match the live snapshot's {} for tenant \
                     '{}'; truncate to the shared vocabulary before submitting",
                    candidate.vocab_size(),
                    live.meta().vocab_size,
                    self.name
                ),
            ));
        }
        let version = live.meta().version;
        if self
            .reference
            .as_ref()
            .is_some_and(|(held, _)| *held != version)
        {
            self.reference = None;
        }
        let (_, reference) = self
            .reference
            .get_or_insert_with(|| (version, gate.reference(live)));
        let evaluation = gate.score_against(live, reference, candidate)?;
        if gate.admits(&evaluation, &self.slo) {
            let version = self.store.publish(
                &evaluation.aligned,
                self.precision,
                Some(evaluation.predicted_instability),
            )?;
            self.reference = None;
            Ok(GateOutcome::Promoted {
                version,
                evaluation,
            })
        } else {
            Ok(GateOutcome::Held { evaluation })
        }
    }
}

/// What the gate did with a submitted candidate.
#[derive(Debug)]
pub enum GateOutcome {
    /// First publish for this tenant — nothing live to compare against.
    Bootstrapped {
        /// The version the candidate was published as.
        version: Version,
    },
    /// The candidate satisfied the SLO and is now live.
    Promoted {
        /// The version the candidate was published as.
        version: Version,
        /// The gate scores that admitted it.
        evaluation: GateEvaluation,
    },
    /// The candidate violated the SLO; the previous snapshot stays live.
    Held {
        /// The gate scores that rejected it.
        evaluation: GateEvaluation,
    },
}

impl GateOutcome {
    /// True unless the candidate was held.
    pub fn is_live(&self) -> bool {
        !matches!(self, GateOutcome::Held { .. })
    }

    /// The published version, if the candidate went live.
    pub fn version(&self) -> Option<Version> {
        match self {
            GateOutcome::Bootstrapped { version } | GateOutcome::Promoted { version, .. } => {
                Some(*version)
            }
            GateOutcome::Held { .. } => None,
        }
    }

    /// The gate evaluation, absent only for a bootstrap publish.
    pub fn evaluation(&self) -> Option<&GateEvaluation> {
        match self {
            GateOutcome::Bootstrapped { .. } => None,
            GateOutcome::Promoted { evaluation, .. } | GateOutcome::Held { evaluation } => {
                Some(evaluation)
            }
        }
    }
}

/// The registry of tenants sharing one gate and one root directory (each
/// tenant's snapshots live under `root/<name>/`).
pub struct TenantRegistry {
    root: PathBuf,
    gate: StabilityGate,
    tenants: BTreeMap<String, Tenant>,
}

impl TenantRegistry {
    /// Creates a registry rooted at `root` with a default
    /// [`StabilityGate`].
    pub fn new(root: impl Into<PathBuf>) -> Self {
        TenantRegistry {
            root: root.into(),
            gate: StabilityGate::new(),
            tenants: BTreeMap::new(),
        }
    }

    /// The shared gate.
    pub fn gate(&self) -> &StabilityGate {
        &self.gate
    }

    /// Registers a tenant, picking its (dimension, precision) from the
    /// measured `candidates` that sit on the SLO's memory-budget line —
    /// the same [`candidates_in_budget`] + [`pick_lowest_measure`] ranking
    /// path `core::selection::budget_selection` evaluates offline (paper
    /// Section 5.2, Table 3), so the pick's oracle gap is exactly what
    /// that evaluation reports.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if the name is taken or no
    /// candidate sits on the budget line, and any I/O error from opening
    /// the tenant's snapshot store.
    pub fn register(
        &mut self,
        name: &str,
        slo: Slo,
        candidates: &[ConfigPoint],
    ) -> io::Result<&Tenant> {
        let on_line = candidates_in_budget(candidates, slo.memory_budget_bits);
        let pick = pick_lowest_measure(&on_line).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "no candidate on the {} bits/word budget line for tenant '{name}'",
                    slo.memory_budget_bits
                ),
            )
        })?;
        let (dim, precision) = (pick.dim, Precision::new(pick.bits));
        self.register_config(name, slo, dim, precision)
    }

    /// Registers a tenant with an explicitly chosen configuration (for
    /// callers that ran no measurement sweep). The configuration must sit
    /// on the SLO's budget line (`dim * bits == memory_budget_bits`) —
    /// the invariant [`TenantRegistry::register`] guarantees by
    /// construction — so the recorded SLO never misstates what the tenant
    /// actually serves.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if the name is invalid or
    /// taken, or the configuration is off the SLO's budget line, and any
    /// I/O error from opening the tenant's snapshot store.
    pub fn register_config(
        &mut self,
        name: &str,
        slo: Slo,
        dim: usize,
        precision: Precision,
    ) -> io::Result<&Tenant> {
        if name.is_empty() || name.contains(['/', '\\']) || name == "." || name == ".." {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("tenant name '{name}' is not a valid snapshot subdirectory"),
            ));
        }
        if self.tenants.contains_key(name) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("tenant '{name}' is already registered"),
            ));
        }
        let footprint = embedstab_quant::bits_per_word(dim, precision);
        if footprint != slo.memory_budget_bits {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "configuration (dim={dim}, {precision}) serves {footprint} bits/word but \
                     tenant '{name}' declares a {} bits/word budget",
                    slo.memory_budget_bits
                ),
            ));
        }
        let store = SnapshotStore::open(self.root.join(name))?;
        let tenant = Tenant {
            name: name.to_string(),
            slo,
            dim,
            precision,
            store,
            reference: None,
        };
        Ok(self.tenants.entry(name.to_string()).or_insert(tenant))
    }

    /// A registered tenant by name.
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenants.get(name)
    }

    /// Registered tenant names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.tenants.keys().map(String::as_str).collect()
    }

    /// Iterates over the registered tenants in name order — what a
    /// retraining service walks to learn which (dimension, precision)
    /// candidates it must produce each step.
    pub fn tenants(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.values()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True if no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Computes the gate reference (the live side of a score; see
    /// [`crate::gate`]) of every tenant whose live version has none yet,
    /// so the next [`TenantRegistry::submit`] runs only the candidate
    /// side. The
    /// streaming retrainer calls this beside its training lane; calling
    /// it is never required, since `submit` computes a missing reference
    /// itself.
    pub fn prepare_references(&mut self) {
        for tenant in self.tenants.values_mut() {
            tenant.prepare_reference(&self.gate);
        }
    }

    /// Submits a full-precision retrained candidate for a tenant. With no
    /// live snapshot the candidate bootstraps the store; otherwise the
    /// gate aligns and scores it against the live snapshot and either
    /// promotes it (SLO satisfied) or holds it (the live snapshot keeps
    /// serving).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::NotFound`] for an unknown tenant,
    /// [`io::ErrorKind::InvalidInput`] if the candidate's dimension (or,
    /// once a snapshot is live, its vocabulary) does not match the
    /// tenant's serving shape, and any I/O error from persisting a
    /// promoted snapshot.
    pub fn submit(&mut self, name: &str, candidate: &Embedding) -> io::Result<GateOutcome> {
        let tenant = self.tenants.get_mut(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("tenant '{name}' is not registered"),
            )
        })?;
        tenant.submit(&self.gate, candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_linalg::Mat;
    use embedstab_pipeline::cache::scratch_dir;
    use rand::SeedableRng;

    fn emb(seed: u64, n: usize, d: usize) -> Embedding {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Embedding::new(Mat::random_normal(n, d, &mut rng))
    }

    fn pt(dim: usize, bits: u8, measure: f64, instability: f64) -> ConfigPoint {
        ConfigPoint {
            dim,
            bits,
            measure,
            instability,
        }
    }

    fn scratch(label: &str) -> PathBuf {
        let dir = scratch_dir(label);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn register_picks_on_the_budget_line() {
        let root = scratch("tenant_pick");
        let mut registry = TenantRegistry::new(&root);
        let candidates = vec![
            pt(8, 4, 0.2, 0.06),   // 32 bits/word
            pt(4, 8, 0.1, 0.08),   // 32 bits/word, lowest measure
            pt(16, 4, 0.05, 0.01), // 64 bits/word: off the line
        ];
        let slo = Slo {
            max_predicted_instability: 0.5,
            memory_budget_bits: 32,
        };
        let tenant = registry
            .register("shared", slo, &candidates)
            .expect("register");
        assert_eq!((tenant.dim(), tenant.precision().bits()), (4, 8));
        // No candidate on a 48-bit line.
        let err = registry
            .register("other", Slo::unbounded(48), &candidates)
            .expect_err("no candidates");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Duplicate names are rejected.
        let err = registry
            .register("shared", slo, &candidates)
            .expect_err("duplicate");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn submit_bootstraps_then_gates() {
        let root = scratch("tenant_submit");
        let mut registry = TenantRegistry::new(&root);
        registry
            .register_config(
                "t",
                Slo {
                    max_predicted_instability: 1e-6,
                    memory_budget_bits: 4 * 32,
                },
                4,
                Precision::FULL,
            )
            .expect("register");
        let base = emb(0, 25, 4);
        let boot = registry.submit("t", &base).expect("bootstrap");
        assert!(boot.is_live());
        assert!(boot.evaluation().is_none());
        assert_eq!(boot.version(), Some(Version(1)));
        // An identical retrain passes the (tight) SLO.
        let again = registry.submit("t", &base).expect("same");
        assert!(again.is_live());
        assert_eq!(again.version(), Some(Version(2)));
        // An unrelated retrain is held; live stays at v2.
        let held = registry.submit("t", &emb(9, 25, 4)).expect("noise");
        assert!(!held.is_live());
        assert!(held.evaluation().expect("scored").predicted_instability > 1e-6);
        let tenant = registry.tenant("t").expect("tenant");
        assert_eq!(tenant.live().expect("live").meta().version, Version(2));
        assert_eq!(tenant.store().len(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gate_reference_follows_the_live_version_only() {
        let root = scratch("tenant_reference");
        let mut registry = TenantRegistry::new(&root);
        let slo = Slo {
            max_predicted_instability: 1e-6,
            memory_budget_bits: 4 * 32,
        };
        registry
            .register_config("t", slo, 4, Precision::FULL)
            .expect("register");
        let reference = |r: &TenantRegistry| {
            r.tenant("t")
                .expect("tenant")
                .reference()
                .map(|(version, _)| *version)
        };
        // Nothing live, nothing to prepare.
        registry.prepare_references();
        assert_eq!(reference(&registry), None);
        let base = emb(0, 25, 4);
        registry.submit("t", &base).expect("bootstrap");
        assert_eq!(reference(&registry), None);
        registry.prepare_references();
        assert_eq!(reference(&registry), Some(Version(1)));
        // A held candidate keeps the live version and its reference.
        let noisy = emb(9, 25, 4);
        let held = registry.submit("t", &noisy).expect("noise");
        assert!(!held.is_live());
        assert_eq!(reference(&registry), Some(Version(1)));
        // A promotion drops it; the next submit computes the new one.
        registry.submit("t", &base).expect("same");
        assert_eq!(reference(&registry), None);
        let again = registry.submit("t", &noisy).expect("noise");
        assert_eq!(reference(&registry), Some(Version(2)));
        // Scored against the prepared reference or a fresh one: same bits.
        let tenant = registry.tenant("t").expect("tenant");
        let fresh = registry
            .gate()
            .score(tenant.live().expect("live"), &noisy)
            .expect("score");
        let prepared = again.evaluation().expect("scored");
        assert_eq!(
            fresh.predicted_instability.to_bits(),
            prepared.predicted_instability.to_bits()
        );
        assert_eq!(
            fresh.measures.knn_dist.to_bits(),
            prepared.measures.knn_dist.to_bits()
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn off_budget_configuration_is_rejected() {
        let root = scratch("tenant_budget");
        let mut registry = TenantRegistry::new(&root);
        // (dim=16, b=8) serves 128 bits/word, not the declared 32.
        let err = registry
            .register_config("t", Slo::unbounded(32), 16, Precision::new(8))
            .expect_err("off the budget line");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        registry
            .register_config("t", Slo::unbounded(128), 16, Precision::new(8))
            .expect("on the budget line");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn path_escaping_tenant_names_are_rejected() {
        let root = scratch("tenant_names");
        let mut registry = TenantRegistry::new(&root);
        for bad in ["", "a/b", "..", "a\\b"] {
            let err = registry
                .register_config(bad, Slo::unbounded(32), 4, Precision::FULL)
                .expect_err("invalid name");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "name {bad:?}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mismatched_candidate_shapes_are_errors_not_panics() {
        let root = scratch("tenant_shapes");
        let mut registry = TenantRegistry::new(&root);
        registry
            .register_config("t", Slo::unbounded(128), 4, Precision::FULL)
            .expect("register");
        // Wrong dimension: rejected before anything is published.
        let err = registry.submit("t", &emb(0, 20, 5)).expect_err("bad dim");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Bootstrap, then a grown-vocabulary retrain: rejected, live kept.
        registry.submit("t", &emb(1, 20, 4)).expect("bootstrap");
        let err = registry.submit("t", &emb(2, 25, 4)).expect_err("bad vocab");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let tenant = registry.tenant("t").expect("tenant");
        assert_eq!(tenant.live().expect("live").meta().version, Version(1));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unknown_tenant_is_not_found() {
        let root = scratch("tenant_missing");
        let mut registry = TenantRegistry::new(&root);
        let err = registry
            .submit("ghost", &emb(0, 4, 2))
            .expect_err("missing");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&root).ok();
    }
}
