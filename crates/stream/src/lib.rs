//! Incremental worlds: retrain cost proportional to the corpus *delta*,
//! not the corpus.
//!
//! The paper's setting is retraining — an embedding refreshed on an
//! updated corpus (Wiki'17 → Wiki'18) and the question of how much
//! downstream predictions flip. The batch pipeline rebuilds every
//! statistic from scratch per temporal step; this crate streams instead:
//!
//! ```text
//!   corpus increment (appended docs)
//!        │ ContinuousRetrainer::ingest — validated, then += into the
//!        ▼                               existing counts (bitwise the
//!   Cooc (+ dirty-row set)               one-shot count's accumulators)
//!        │ corpus::ppmi                — marginals summed along the
//!        ▼                               sorted rows; every row rebuilt
//!   PPMI (bitwise == from-scratch)
//!        │ PpmiSvdTrainer::train_warm  — previous basis seeds the
//!        ▼                               range finder + subspace refresh
//!   candidate Embedding (≈ cold train, within measured tolerance)
//!        │ TenantRegistry::submit      — Procrustes align, shared-clip
//!        ▼                               quantize, measure-suite score
//!   GateOutcome (promoted / held per tenant SLO)
//! ```
//!
//! The bitwise contract: streaming any split of a corpus through
//! [`ContinuousRetrainer::ingest`] leaves the co-occurrence table —
//! values, `total`, entry order, `row_sums` — bit-identical to one
//! [`Cooc::count`](embedstab_corpus::Cooc::count) over the concatenated
//! corpus, so the PPMI refresh ([`ppmi`](fn@embedstab_corpus::ppmi) over
//! that table) reproduces the from-scratch PPMI bit-for-bit. Only the
//! warm-started SVD is approximate, and [`ContinuousRetrainer`] pins its
//! drift under [`WARM_SVD_EIS_TOLERANCE`].
//!
//! [`ContinuousRetrainer`] packages the whole loop as a service: it owns
//! a world's counting state, accepts increments, produces candidates per
//! tenant dimension, and submits them through the serving layer's
//! stability gate. A step runs its training lane beside the gate's
//! reference lane on the worker pool (see
//! [`ContinuousRetrainer::step`]), bitwise the same as a serial step. [`checkpoint`] persists that state keyed by the
//! *content* fingerprint ([`ContinuousRetrainer::fingerprint`]), so an
//! incremental world always identifies as the corpus it now holds.
//!
//! This crate's sources sit under the `no-panic-in-hot-path` and
//! `no-wallclock-in-fingerprint` lint rules: malformed input surfaces as
//! [`StreamError`] / `Option`, never a panic, and nothing here reads the
//! clock (timing belongs to the bench binaries).

pub mod checkpoint;
mod error;
pub mod service;

pub use checkpoint::{checkpoint_path, STREAM_CHECKPOINT_FORMAT_VERSION};
pub use error::StreamError;
pub use service::{
    ContinuousRetrainer, DeltaReport, RetrainerConfig, StepReport, TenantOutcome,
    WARM_SVD_EIS_TOLERANCE,
};
