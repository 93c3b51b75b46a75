//! The streaming subsystem's error type.

use std::fmt;
use std::io;

use embedstab_corpus::CoocError;

/// Why a streaming operation could not proceed. The service is long-lived
/// by design, so everything a caller can get wrong — malformed
/// increments, impossible dimensions, snapshot I/O — arrives as a value,
/// never a panic.
#[derive(Debug)]
pub enum StreamError {
    /// The increment failed co-occurrence validation (zero window,
    /// out-of-vocabulary token). The counting state is untouched when
    /// this is returned.
    Cooc(CoocError),
    /// A retrain was requested at a dimension outside `1..=vocab_size`.
    InvalidDim {
        /// The requested embedding dimension.
        dim: usize,
        /// The service's vocabulary size.
        vocab_size: usize,
    },
    /// Snapshot-store or gate I/O failed while submitting a candidate.
    Io(io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Cooc(e) => write!(f, "invalid corpus increment: {e}"),
            StreamError::InvalidDim { dim, vocab_size } => {
                write!(
                    f,
                    "retrain dimension {dim} outside 1..={vocab_size} (vocabulary size)"
                )
            }
            StreamError::Io(e) => write!(f, "serving submit failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Cooc(e) => Some(e),
            StreamError::Io(e) => Some(e),
            StreamError::InvalidDim { .. } => None,
        }
    }
}

impl From<CoocError> for StreamError {
    fn from(e: CoocError) -> Self {
        StreamError::Cooc(e)
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}
