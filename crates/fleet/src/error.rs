//! The fleet's typed error taxonomy.
//!
//! Every failure mode a coordinator or worker can hit — transport, a
//! malformed peer, a corrupt cache transfer, an exhausted slice — has a
//! variant here. Nothing in this crate panics on peer-controlled input
//! (the `no-panic-in-hot-path` lint covers `crates/fleet/src/**`): a
//! broken peer costs one connection or one lease, never the fleet.

use std::io;

use embedstab_pipeline::StoreError;

use crate::wire::{ErrorCode, Response};

/// Any fleet-level failure.
#[derive(Debug)]
pub enum FleetError {
    /// A transport error on the coordinator connection.
    Io(io::Error),
    /// The peer sent bytes that do not decode as the fleet protocol.
    Protocol {
        /// What failed to decode.
        detail: String,
    },
    /// The coordinator answered with a typed wire error.
    Remote {
        /// The wire error code.
        code: ErrorCode,
        /// The coordinator's message.
        message: String,
    },
    /// A cache transfer assembled to bytes that fail verification (wrong
    /// content hash, or a header that does not match the key) — re-pull.
    CorruptTransfer {
        /// The key being pulled.
        key: String,
        /// What failed to verify.
        detail: String,
    },
    /// The content-addressed store refused a key or bytes.
    Store(StoreError),
    /// A slice ran out of re-dispatch attempts; the fleet has failed.
    Exhausted {
        /// The slice that could not be completed.
        slice: u32,
        /// How many dispatch attempts it burned.
        attempts: u32,
    },
    /// The coordinator connection is gone and could not be re-established.
    CoordinatorGone {
        /// The last transport failure.
        detail: String,
    },
    /// The coordinator reported the fleet failed; the worker should stop.
    FleetFailed {
        /// The coordinator's reason.
        message: String,
    },
    /// A shard subprocess could not be spawned.
    SpawnFailed {
        /// The binary path that failed to launch.
        bin: String,
        /// The OS error.
        detail: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet transport error: {e}"),
            FleetError::Protocol { detail } => {
                write!(f, "fleet protocol violation: {detail}")
            }
            FleetError::Remote { code, message } => {
                write!(f, "coordinator error ({code:?}): {message}")
            }
            FleetError::CorruptTransfer { key, detail } => {
                write!(f, "corrupt transfer of '{key}': {detail}")
            }
            FleetError::Store(e) => write!(f, "cache store error: {e}"),
            FleetError::Exhausted { slice, attempts } => write!(
                f,
                "slice {slice} failed {attempts} dispatch attempts; fleet failed"
            ),
            FleetError::CoordinatorGone { detail } => {
                write!(f, "coordinator unreachable: {detail}")
            }
            FleetError::FleetFailed { message } => {
                write!(f, "coordinator reports the fleet failed: {message}")
            }
            FleetError::SpawnFailed { bin, detail } => {
                write!(f, "cannot spawn shard binary '{bin}': {detail}")
            }
        }
    }
}

impl FleetError {
    /// The error for a reply to `op` that the worker cannot use: a typed
    /// wire error is [`FleetError::Remote`], any other reply a protocol
    /// violation.
    pub(crate) fn unexpected(op: &str, reply: Response) -> FleetError {
        match reply {
            Response::Error { code, message } => FleetError::Remote { code, message },
            other => FleetError::Protocol {
                detail: format!("unexpected {op} response: {other:?}"),
            },
        }
    }
}

impl std::error::Error for FleetError {}

impl From<io::Error> for FleetError {
    fn from(e: io::Error) -> FleetError {
        FleetError::Io(e)
    }
}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> FleetError {
        FleetError::Store(e)
    }
}
