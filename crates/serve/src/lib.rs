//! The serving layer: stability-gated embedding snapshots behind a
//! multi-tenant API.
//!
//! The paper's motivating setting is production serving — embeddings are
//! retrained on accumulated data, and every retrain risks downstream
//! prediction churn (15% disagreement from 1% more data). Its central
//! result is that this churn can be *predicted cheaply* from
//! embedding-distance measures, without retraining a single downstream
//! model. This crate turns that result into an operational surface:
//!
//! - [`SnapshotStore`] — versioned, quantized embedding snapshots with
//!   atomic on-disk persistence, a live pointer, and rollback
//!   ([`snapshot`]).
//! - [`StabilityGate`] — when a retrained candidate arrives, align it to
//!   the live snapshot (Procrustes), quantize it with the live clip
//!   (the paper's shared-clip convention), score it with the pluggable
//!   measure suite (EIS / k-NN / PIP via
//!   [`MeasureSuite`](embedstab_core::measures::MeasureSuite)), and check
//!   the tenant's [`Slo`] ([`gate`]).
//! - [`TenantRegistry`] — per-tenant SLOs and snapshot stores; each
//!   tenant's (dimension, precision) is picked on its memory-budget line
//!   through the same `core::selection` ranking path the paper's Table 3
//!   evaluates ([`tenant`]).
//! - Batched query paths — [`Snapshot::try_lookup_batch`] gathers rows,
//!   and [`Snapshot::try_nearest_batch`] answers whole batches through the shared
//!   cosine top-k kernel (`embedstab_linalg::cosine_top_k`, the same one
//!   the k-NN measure uses). Similarity is the scalar cosine, clamped to
//!   `[-1, 1]` and `0` against a zero row; lists are ordered by
//!   descending similarity, NaN last, lower word id first, and are bitwise
//!   a naive scan's. Malformed input degrades to a typed [`QueryError`]
//!   instead of a panic ([`snapshot`], [`error`]).
//! - The network front-end — a length-prefixed binary protocol
//!   ([`wire`]) and a threaded TCP server ([`server`]) that batches each
//!   tenant's queries naturally (a lone query is answered at once; those
//!   that queue while a batch runs share the next batched call), with
//!   hot snapshot promote/rollback and zero dropped in-flight queries
//!   (`embedstab_bench`'s `serve_front` binary runs it; `serve_loadgen`
//!   drives it).
//!
//! # Example
//!
//! ```no_run
//! use embedstab_core::selection::ConfigPoint;
//! use embedstab_embeddings::Embedding;
//! use embedstab_linalg::Mat;
//! use embedstab_serve::{Slo, TenantRegistry};
//!
//! // Measured offline (e.g. by an `Experiment` sweep): per-configuration
//! // measure values and observed instabilities.
//! let candidates = vec![
//!     ConfigPoint { dim: 8, bits: 4, measure: 0.2, instability: 0.06 },
//!     ConfigPoint { dim: 4, bits: 8, measure: 0.1, instability: 0.04 },
//! ];
//! let mut registry = TenantRegistry::new("serve-data");
//! let slo = Slo { max_predicted_instability: 0.15, memory_budget_bits: 32 };
//! registry.register("search", slo, &candidates).unwrap();
//!
//! // Month 0 bootstraps; later retrains are gated against the live
//! // snapshot and promoted only if the predicted instability fits the SLO.
//! let retrained = Embedding::new(Mat::zeros(100, 4));
//! let outcome = registry.submit("search", &retrained).unwrap();
//! assert!(outcome.is_live());
//! ```

pub mod error;
pub mod gate;
pub mod server;
pub mod snapshot;
pub mod tenant;
pub mod wire;

pub use error::QueryError;
pub use gate::{GateEvaluation, Slo, StabilityGate};
pub use server::{serve, ServeHandle, ServerConfig, TenantConfig};
pub use snapshot::{Snapshot, SnapshotMeta, SnapshotStore, Version, SNAPSHOT_FORMAT_VERSION};
pub use tenant::{GateOutcome, Tenant, TenantRegistry};
