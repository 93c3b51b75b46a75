//! # embedstab
//!
//! A full-system Rust reproduction of *Understanding the Downstream
//! Instability of Word Embeddings* (Leszczynski et al., MLSys 2020).
//!
//! This facade crate re-exports every subsystem in the workspace so that
//! examples, integration tests, and downstream users can depend on a single
//! crate:
//!
//! - [`linalg`] — dense matrices, GEMM, QR, Jacobi SVD, Procrustes.
//! - [`corpus`] — synthetic latent-topic corpora with temporal drift,
//!   co-occurrence counting, PPMI.
//! - [`embeddings`] — CBOW, GloVe, matrix completion, and fastText trainers.
//! - [`quant`] — uniform quantization with MSE-optimal clipping.
//! - [`core`] — the paper's contribution: the eigenspace instability measure,
//!   baseline distance measures, selection algorithms, and statistics.
//! - [`downstream`] — synthetic sentiment/NER tasks behind the pluggable
//!   [`Task`](downstream::Task) trait, and from-scratch
//!   logistic-regression, CNN, and BiLSTM(+CRF) models.
//! - [`kge`] — TransE knowledge-graph embeddings and their evaluation.
//! - [`ctx`] — a mini-BERT transformer encoder for contextual embeddings.
//! - [`serve`] — the serving layer: versioned quantized embedding
//!   snapshots ([`serve::SnapshotStore`]), stability-gated promotion
//!   against per-tenant SLOs ([`serve::StabilityGate`],
//!   [`serve::TenantRegistry`]), and batched GEMM-backed query paths.
//! - [`fleet`] — machine-spanning shard fleets: a TCP coordinator/worker
//!   pair with content-addressed cache shipping
//!   ([`pipeline::CacheStore`]), lease-based work-queue retry
//!   ([`fleet::WorkQueue`]), and bitwise-reproducible fan-in.
//! - [`stream`] — incremental worlds: streaming co-occurrence increments
//!   ([`stream::ContinuousRetrainer::ingest`]) that keep the table
//!   bitwise identical to a one-shot count, incremental PPMI refresh,
//!   warm-started retrains, and a continuous-retraining service
//!   ([`stream::ContinuousRetrainer`]) that submits gated candidates to
//!   the serving layer.
//! - [`pipeline`] — the end-to-end experiment harness used by the
//!   table/figure reproduction binaries: the
//!   [`Experiment`](pipeline::Experiment) builder sweeps tasks over the
//!   `algo x dim x precision x seed` grid with deterministic process
//!   sharding, one on-disk cache directory of built worlds and trained
//!   embedding pairs ([`pipeline::CacheStore`]), and streaming row sinks.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end tour: generate a drifted
//! corpus pair, train embeddings, compress them, measure downstream
//! prediction disagreement, and compare it against the eigenspace
//! instability measure.

pub use embedstab_core as core;
pub use embedstab_corpus as corpus;
pub use embedstab_ctx as ctx;
pub use embedstab_downstream as downstream;
pub use embedstab_embeddings as embeddings;
pub use embedstab_fleet as fleet;
pub use embedstab_kge as kge;
pub use embedstab_linalg as linalg;
pub use embedstab_pipeline as pipeline;
pub use embedstab_quant as quant;
pub use embedstab_serve as serve;
pub use embedstab_stream as stream;
