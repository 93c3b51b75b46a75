//! The worker pool behind embedding grid training and downstream grid
//! evaluation: re-exports of the workspace's one pool,
//! [`embedstab_linalg::pool`].

pub use embedstab_linalg::pool::{parallel_map, THREADS_ENV};
