//! The one error type every wire-layer operation returns.

use std::fmt;

/// Anything that can go wrong on the wire path. Every variant is a typed,
/// recoverable error — the daemons never panic on peer misbehaviour.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, deadline expiry).
    Io(std::io::Error),
    /// The peer sent bytes that are not a well-formed frame (bad length
    /// prefix, oversized frame, malformed JSON payload).
    Frame(String),
    /// The frame decoded but violates the protocol (wrong version, an
    /// unknown message type, missing fields, an unexpected reply).
    Protocol(String),
    /// The peer reported an application-level error.
    Remote(String),
    /// A bounded retry schedule ran out of attempts.
    Exhausted {
        /// Attempts made before giving up.
        attempts: usize,
        /// What was being retried.
        what: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Frame(m) => write!(f, "bad frame: {m}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Remote(m) => write!(f, "peer error: {m}"),
            NetError::Exhausted { attempts, what } => {
                write!(f, "gave up on {what} after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<pocolo_json::ParseError> for NetError {
    fn from(e: pocolo_json::ParseError) -> Self {
        NetError::Frame(e.to_string())
    }
}

impl From<pocolo_json::JsonError> for NetError {
    fn from(e: pocolo_json::JsonError) -> Self {
        NetError::Protocol(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = NetError::Exhausted {
            attempts: 8,
            what: "connect to clusterd".into(),
        };
        assert!(e.to_string().contains("8 attempts"));
        assert!(NetError::Frame("oversized".into())
            .to_string()
            .contains("oversized"));
    }
}
