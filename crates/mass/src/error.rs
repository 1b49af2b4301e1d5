//! Error type for the MASS storage structure.

use std::fmt;

/// Errors raised by storage and index operations.
#[derive(Debug)]
pub enum MassError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A page id was out of range or a page image was malformed.
    CorruptPage {
        /// The offending page id.
        page: u32,
        /// What was wrong with it.
        reason: String,
    },
    /// A record did not decode.
    CorruptRecord(String),
    /// The requested key does not exist in the store.
    KeyNotFound,
    /// A structural update was invalid (e.g. inserting under a missing
    /// parent, or between keys that are not adjacent siblings).
    InvalidUpdate(String),
    /// Sibling label space was exhausted during an insert.
    Label(vamana_flex::LabelError),
    /// A writer needed exclusive store access while a reader still held
    /// it: a scan whose stream was leaked instead of dropped.
    WriterConflict,
}

impl fmt::Display for MassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MassError::Io(e) => write!(f, "I/O error: {e}"),
            MassError::CorruptPage { page, reason } => {
                write!(f, "corrupt page {page}: {reason}")
            }
            MassError::CorruptRecord(r) => write!(f, "corrupt record: {r}"),
            MassError::KeyNotFound => write!(f, "key not found"),
            MassError::InvalidUpdate(r) => write!(f, "invalid update: {r}"),
            MassError::Label(e) => write!(f, "label allocation failed: {e}"),
            MassError::WriterConflict => {
                write!(f, "writer conflict: store pinned by active readers")
            }
        }
    }
}

impl std::error::Error for MassError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MassError::Io(e) => Some(e),
            MassError::Label(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MassError {
    fn from(e: std::io::Error) -> Self {
        MassError::Io(e)
    }
}

impl From<vamana_flex::LabelError> for MassError {
    fn from(e: vamana_flex::LabelError) -> Self {
        MassError::Label(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, MassError>;
