//! Engine error type.

use std::fmt;

/// Errors raised while compiling, optimizing or executing a query.
#[derive(Debug)]
pub enum EngineError {
    /// The XPath expression did not parse.
    Parse(vamana_xpath::ParseError),
    /// Storage-level failure.
    Storage(vamana_mass::MassError),
    /// The expression uses a feature the engine does not support
    /// (e.g. unbound variables).
    Unsupported(String),
    /// A function was called with the wrong arguments.
    BadFunctionCall { name: String, reason: String },
    /// The store has no documents to query.
    NoDocuments,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Unsupported(what) => write!(f, "unsupported: {what}"),
            EngineError::BadFunctionCall { name, reason } => {
                write!(f, "bad call to {name}(): {reason}")
            }
            EngineError::NoDocuments => write!(f, "no documents loaded"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vamana_xpath::ParseError> for EngineError {
    fn from(e: vamana_xpath::ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<vamana_mass::MassError> for EngineError {
    fn from(e: vamana_mass::MassError) -> Self {
        EngineError::Storage(e)
    }
}

/// Result alias for the engine.
pub type Result<T> = std::result::Result<T, EngineError>;
