//! Error type for the build pipeline.

use std::error::Error;
use std::fmt;

use revelio_crypto::wire::WireError;
use revelio_storage::StorageError;

/// Errors surfaced while building images.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A path was malformed (must be absolute, no `..`, no trailing `/`).
    InvalidPath(String),
    /// A path already exists with a conflicting entry type.
    PathConflict(String),
    /// A referenced package (named here) does not exist in the registry.
    PackageNotFound(String),
    /// The assembled content exceeded the disk geometry in the spec.
    ImageTooLarge {
        /// Bytes required.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// Underlying storage failure while assembling the disk.
    Storage(StorageError),
    /// Malformed serialized build artifact.
    Wire(WireError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidPath(p) => write!(f, "invalid path {p:?}"),
            BuildError::PathConflict(p) => write!(f, "conflicting entry at {p:?}"),
            BuildError::PackageNotFound(name) => write!(f, "package {name} not in registry"),
            BuildError::ImageTooLarge { needed, available } => {
                write!(f, "image needs {needed} bytes but disk offers {available}")
            }
            BuildError::Storage(e) => write!(f, "storage error: {e}"),
            BuildError::Wire(e) => write!(f, "wire format error: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Storage(e) => Some(e),
            BuildError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for BuildError {
    fn from(e: StorageError) -> Self {
        BuildError::Storage(e)
    }
}

impl From<WireError> for BuildError {
    fn from(e: WireError) -> Self {
        BuildError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        assert!(BuildError::InvalidPath("a/../b".into())
            .to_string()
            .contains("a/../b"));
        let e = BuildError::PackageNotFound("nginx".into());
        assert!(e.to_string().contains("nginx"));
    }
}
