//! Error type for the simulated SEV-SNP platform.

use std::error::Error;
use std::fmt;

use revelio_crypto::wire::WireError;
use revelio_crypto::CryptoError;

/// Errors surfaced by the simulated platform, KDS, and verifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnpError {
    /// The guest policy is unacceptable to a verifier (it permits
    /// debugging).
    PolicyRejected(String),
    /// A signature over a report or certificate failed to verify.
    SignatureInvalid,
    /// A certificate chain did not validate; the message names the link.
    ChainInvalid(String),
    /// The report's TCB or chip identity disagrees with the certificate.
    ReportBindingMismatch,
    /// Malformed serialized data.
    Wire(WireError),
    /// An underlying cryptographic failure.
    Crypto(CryptoError),
}

impl fmt::Display for SnpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnpError::PolicyRejected(why) => write!(f, "guest policy rejected: {why}"),
            SnpError::SignatureInvalid => write!(f, "attestation signature invalid"),
            SnpError::ChainInvalid(link) => write!(f, "certificate chain invalid: {link}"),
            SnpError::ReportBindingMismatch => {
                write!(f, "report chip or tcb disagrees with vcek certificate")
            }
            SnpError::Wire(e) => write!(f, "wire format error: {e}"),
            SnpError::Crypto(e) => write!(f, "crypto error: {e}"),
        }
    }
}

impl Error for SnpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnpError::Wire(e) => Some(e),
            SnpError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for SnpError {
    fn from(e: WireError) -> Self {
        SnpError::Wire(e)
    }
}

impl From<CryptoError> for SnpError {
    fn from(e: CryptoError) -> Self {
        SnpError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SnpError::PolicyRejected("debug".into())
            .to_string()
            .contains("debug"));
        assert!(SnpError::ChainInvalid("ask".into())
            .to_string()
            .contains("ask"));
    }

    #[test]
    fn source_chains_through() {
        let e = SnpError::from(CryptoError::InvalidSignature);
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&SnpError::SignatureInvalid).is_none());
    }
}
