//! Error type for the IC simulation.

use std::error::Error;
use std::fmt;

use revelio_crypto::wire::WireError;

/// Errors surfaced by the IC substrate and boundary nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IcError {
    /// No subnet hosts the requested canister.
    CanisterNotFound(u64),
    /// The canister rejected the call.
    CanisterRejected(String),
    /// Too few replicas agreed on a response (Byzantine threshold not
    /// reached).
    NoConsensus {
        /// Matching responses observed.
        agreeing: usize,
        /// Required threshold.
        needed: usize,
    },
    /// A certified response failed signature verification.
    CertificateInvalid,
    /// Malformed message bytes.
    Wire(WireError),
}

impl fmt::Display for IcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcError::CanisterNotFound(id) => write!(f, "canister {id} not found"),
            IcError::CanisterRejected(why) => write!(f, "canister rejected call: {why}"),
            IcError::NoConsensus { agreeing, needed } => {
                write!(f, "only {agreeing} replicas agree, {needed} needed")
            }
            IcError::CertificateInvalid => write!(f, "subnet certificate invalid"),
            IcError::Wire(e) => write!(f, "wire format error: {e}"),
        }
    }
}

impl Error for IcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IcError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for IcError {
    fn from(e: WireError) -> Self {
        IcError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        assert!(IcError::CanisterNotFound(7).to_string().contains('7'));
        let e = IcError::NoConsensus {
            agreeing: 1,
            needed: 3,
        };
        assert!(e.to_string().contains('3'));
    }
}
