//! Machine-spanning shard fleets: a TCP coordinator/worker pair that
//! ships caches by fingerprint and survives worker deaths.
//!
//! Every sharded grid run goes through this crate: workers connect over
//! TCP, pull the coordinator's world (and warm pair-cache entries) by
//! content-addressed key, lease shard slices from a retrying work queue,
//! and stream row files back. On one box the `coordinator` binary is a
//! loopback fleet — the same coordinator, bound to `127.0.0.1`, with
//! local `fleet_worker` processes that share its cache directories, so
//! nothing is pulled. The contract carried over from everything else in
//! this workspace: a fleet run's merged rows are **bitwise identical** to
//! the unsharded run, worker deaths included.
//!
//! The moving parts:
//!
//! - [`wire`] — the protocol's op table (requests, responses, chunked
//!   cache transfer) on `embedstab_serve::wire`'s shared transport;
//! - [`queue`] — the lease ledger: heartbeat timeouts, capped-backoff
//!   re-dispatch, attempt caps, injected time;
//! - [`transfer`] — chunked pulls with receipt-time verification
//!   (whole-file hash + cache-header-vs-key);
//! - [`coordinator`] — the serving side, the protocol's `Handler`: staged
//!   row commits, crash-fast lease release on disconnect;
//! - [`worker`] — the pulling side: cache sync, shard subprocess
//!   supervision, heartbeats, fault injection for drills.
//!
//! The runnable entry points are `coordinator`, `fleet_coordinator` and
//! `fleet_worker` in the bench crate; `crates/bench/tests/fleet.rs` and
//! `crates/bench/tests/coordinator.rs` pin the bitwise guarantee end to
//! end with an injected mid-slice worker death.

pub mod coordinator;
pub mod error;
pub mod queue;
pub mod transfer;
pub mod wire;
pub mod worker;

pub use coordinator::{run_coordinator, CoordinatorConfig};
pub use error::FleetError;
pub use queue::{LeaseOutcome, QueueConfig, WorkQueue};
pub use transfer::{ensure_key, pull_key};
pub use wire::{FleetSpec, Request, Response};
pub use worker::{run_worker, WorkerConfig, WorkerReport, FAIL_ONCE_ENV};
