//! Synthetic corpus substrate for the `embedstab` workspace.
//!
//! The paper trains embeddings on two full Wikipedia dumps collected a year
//! apart (Wiki'17 and Wiki'18, ~4.5B tokens each). This crate provides the
//! laptop-scale substitute: a seeded **latent-topic corpus generator** whose
//! ground truth is an explicit latent semantic space, together with a
//! **temporal drift model** that perturbs that space the way a year of
//! Wikipedia edits perturbs co-occurrence statistics.
//!
//! The pieces:
//!
//! - [`LatentModel`] — every word owns a latent vector near one of `K`
//!   topic centers; unigram frequencies are Zipfian.
//! - [`Corpus`] / [`LatentModel::generate_corpus`] — documents are sampled
//!   LDA-style: a document draws a small topic mixture, tokens draw a topic
//!   then a word.
//! - [`DriftConfig`] / [`LatentModel::drifted`] — the Wiki'17 → Wiki'18
//!   change: a fraction of words drift in latent space, and the newer corpus
//!   is re-sampled (optionally larger).
//! - [`Cooc`] — windowed co-occurrence counting (flat or `1/distance`
//!   weighted, GloVe-style).
//! - [`ppmi()`] — positive pointwise mutual information sparse matrices,
//!   the input to the matrix-completion embedding algorithm.
//!
//! # Example
//!
//! ```
//! use embedstab_corpus::{CorpusConfig, LatentModel, LatentModelConfig};
//!
//! let model = LatentModel::new(&LatentModelConfig { vocab_size: 200, ..Default::default() });
//! let corpus = model.generate_corpus(&CorpusConfig { n_tokens: 5_000, seed: 1, ..Default::default() });
//! assert!(corpus.n_tokens() >= 5_000);
//! ```

pub mod alias;
pub mod codec;
pub mod cooc;
pub mod generate;
pub mod latent;
pub mod ppmi;
pub mod vocab;

pub use alias::AliasTable;
pub use cooc::{Cooc, CoocConfig, CoocError};
pub use generate::{
    corpus_state_fingerprint, Corpus, CorpusConfig, TemporalPair, TemporalPairConfig,
};
pub use latent::{DocPlan, DriftConfig, LatentModel, LatentModelConfig};
pub use ppmi::{ppmi, SparseMatrix};
pub use vocab::Vocab;
