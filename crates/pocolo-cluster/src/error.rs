//! Error types for cluster placement.

use std::error::Error as StdError;
use std::fmt;

use pocolo_core::error::CoreError;

/// Errors from matrix construction and assignment solving.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The performance matrix was empty or ragged.
    InvalidMatrix(String),
    /// More best-effort apps than servers — a one-BE-per-server assignment
    /// does not exist.
    TooManyApps {
        /// Number of best-effort applications to place.
        apps: usize,
        /// Number of candidate servers.
        servers: usize,
    },
    /// The LP solver found the problem infeasible (should not happen for
    /// well-formed assignment instances).
    Infeasible,
    /// The LP solver detected an unbounded objective (malformed input).
    Unbounded,
    /// An underlying economics-model error.
    Model(CoreError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidMatrix(msg) => write!(f, "invalid performance matrix: {msg}"),
            ClusterError::TooManyApps { apps, servers } => write!(
                f,
                "cannot place {apps} best-effort apps on {servers} servers (one per server)"
            ),
            ClusterError::Infeasible => write!(f, "assignment LP is infeasible"),
            ClusterError::Unbounded => write!(f, "assignment LP is unbounded"),
            ClusterError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl StdError for ClusterError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ClusterError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ClusterError {
    fn from(e: CoreError) -> Self {
        ClusterError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(ClusterError::Infeasible.to_string().contains("infeasible"));
        assert!(ClusterError::TooManyApps {
            apps: 5,
            servers: 4
        }
        .to_string()
        .contains("5"));
        let e = ClusterError::Model(CoreError::SingularSystem);
        assert!(StdError::source(&e).is_some());
    }
}
