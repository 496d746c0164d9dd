//! Error type for the collaboration suite.

use std::error::Error;
use std::fmt;

use revelio_crypto::wire::WireError;
use revelio_crypto::CryptoError;
use revelio_storage::StorageError;

/// Errors surfaced by the pad server and client.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PadError {
    /// The pad id does not exist on the server.
    PadNotFound(u64),
    /// An edit failed to decrypt — wrong pad secret or server tampering.
    DecryptionFailed {
        /// Index of the offending edit in the history.
        edit_index: usize,
    },
    /// The server answered with an unexpected status.
    ServerStatus(u16),
    /// Malformed message bytes.
    Wire(WireError),
    /// Cryptographic failure.
    Crypto(CryptoError),
    /// Persistence (sealed volume) failure.
    Storage(StorageError),
}

impl fmt::Display for PadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PadError::PadNotFound(id) => write!(f, "pad {id} not found"),
            PadError::DecryptionFailed { edit_index } => {
                write!(
                    f,
                    "edit {edit_index} failed to decrypt (wrong key or tampering)"
                )
            }
            PadError::ServerStatus(s) => write!(f, "server returned status {s}"),
            PadError::Wire(e) => write!(f, "wire format error: {e}"),
            PadError::Crypto(e) => write!(f, "crypto error: {e}"),
            PadError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl Error for PadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PadError::Wire(e) => Some(e),
            PadError::Crypto(e) => Some(e),
            PadError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for PadError {
    fn from(e: WireError) -> Self {
        PadError::Wire(e)
    }
}

impl From<CryptoError> for PadError {
    fn from(e: CryptoError) -> Self {
        PadError::Crypto(e)
    }
}

impl From<StorageError> for PadError {
    fn from(e: StorageError) -> Self {
        PadError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_detail() {
        assert!(PadError::PadNotFound(9).to_string().contains('9'));
        assert!(PadError::DecryptionFailed { edit_index: 3 }
            .to_string()
            .contains('3'));
    }
}
