//! Error type for the PKI simulation.

use std::error::Error;
use std::fmt;

use revelio_crypto::wire::WireError;
use revelio_crypto::CryptoError;

/// Errors surfaced by certificate operations and the ACME CA.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PkiError {
    /// A certificate or CSR signature failed to verify.
    SignatureInvalid,
    /// A certificate chain link did not validate; names the subject.
    ChainInvalid(String),
    /// The certificate is outside its validity window.
    Expired {
        /// Validation time (ms).
        now_ms: u64,
        /// Expiry time (ms).
        not_after_ms: u64,
    },
    /// The certificate's subject does not cover the requested domain.
    DomainMismatch {
        /// Domain the caller wanted.
        requested: String,
        /// Subject the certificate carries.
        subject: String,
    },
    /// ACME DNS-01 challenge token was absent or wrong.
    ChallengeFailed(String),
    /// Too many certificates issued for this registered domain in the
    /// current window (Let's Encrypt-style rate limit, §3.4.6).
    RateLimited {
        /// The registered domain that hit the limit.
        domain: String,
        /// When the window resets (ms on the simulated clock).
        retry_at_ms: u64,
    },
    /// Malformed serialized object.
    Wire(WireError),
    /// Underlying cryptographic failure.
    Crypto(CryptoError),
}

impl fmt::Display for PkiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PkiError::SignatureInvalid => write!(f, "certificate signature invalid"),
            PkiError::ChainInvalid(s) => write!(f, "certificate chain invalid at {s}"),
            PkiError::Expired {
                now_ms,
                not_after_ms,
            } => {
                write!(
                    f,
                    "certificate expired: now {now_ms} ms, not-after {not_after_ms} ms"
                )
            }
            PkiError::DomainMismatch { requested, subject } => {
                write!(f, "certificate for {subject} does not cover {requested}")
            }
            PkiError::ChallengeFailed(d) => write!(f, "dns-01 challenge failed for {d}"),
            PkiError::RateLimited {
                domain,
                retry_at_ms,
            } => {
                write!(f, "rate limit for {domain}; retry at {retry_at_ms} ms")
            }
            PkiError::Wire(e) => write!(f, "wire format error: {e}"),
            PkiError::Crypto(e) => write!(f, "crypto error: {e}"),
        }
    }
}

impl Error for PkiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PkiError::Wire(e) => Some(e),
            PkiError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for PkiError {
    fn from(e: WireError) -> Self {
        PkiError::Wire(e)
    }
}

impl From<CryptoError> for PkiError {
    fn from(e: CryptoError) -> Self {
        PkiError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_subjects() {
        let e = PkiError::DomainMismatch {
            requested: "a.com".into(),
            subject: "b.com".into(),
        };
        assert!(e.to_string().contains("a.com"));
        assert!(e.to_string().contains("b.com"));
    }
}
