//! Error type for the Revelio core.

use std::error::Error;
use std::fmt;

use revelio_boot::BootError;
use revelio_build::BuildError;
use revelio_crypto::wire::WireError;
use revelio_crypto::CryptoError;
use revelio_http::HttpError;
use revelio_net::NetError;
use revelio_pki::PkiError;
use sev_snp::SnpError;

/// Errors surfaced by Revelio provisioning, distribution and verification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RevelioError {
    /// A provisioning run was asked to manage zero nodes — a caller
    /// configuration bug, distinct from any per-node rejection.
    EmptyFleet,
    /// A node's attestation did not pass the SP node's checks; names the
    /// node and the reason.
    NodeRejected {
        /// Bootstrap address of the offending node.
        node: String,
        /// Why it was rejected.
        reason: String,
    },
    /// Every node address of the simulated world is taken: host numbers
    /// are one octet and unique world-wide.
    AddressSpaceExhausted,
    /// A peer's report was rejected during mutual attestation.
    MutualAttestationFailed(String),
    /// The evidence bundle failed verification; names the failing check.
    EvidenceRejected(String),
    /// The measurement is not among the registered golden values.
    UnknownMeasurement(String),
    /// The TLS connection's public key does not match the key bound in the
    /// attestation report — the man-in-the-middle signal.
    TlsBindingMismatch,
    /// The site serves no Revelio evidence at the well-known URL.
    NotRevelioSite(String),
    /// A flow gave up after retrying transient network faults; no verdict
    /// about attestation was reached (the paper's verifier must never
    /// conflate a dropped packet with a failed attestation).
    TransientNetwork {
        /// The component that exhausted its retries (e.g. `"extension"`).
        component: String,
        /// Attempts made, including the first.
        attempts: u32,
        /// Rendering of the final transient error.
        last_error: String,
    },
    /// The decrypted TLS key does not match the distributed certificate.
    KeyCertificateMismatch,
    /// An internal invariant of the extension or control plane was
    /// violated — a bug surfaced as an error instead of a process abort.
    /// Never transient, never an attestation verdict about the site.
    Internal(String),
    /// Hardware attestation error.
    Snp(SnpError),
    /// Boot failure.
    Boot(BootError),
    /// Image build failure.
    Build(BuildError),
    /// PKI failure (issuance, validation, rate limit).
    Pki(PkiError),
    /// HTTP failure.
    Http(HttpError),
    /// Network failure.
    Net(NetError),
    /// Wire-format failure.
    Wire(WireError),
    /// Cryptographic failure.
    Crypto(CryptoError),
}

impl RevelioError {
    /// Whether this error is a transient network condition (directly, or
    /// wrapped in the HTTP/TLS/PKI layers) rather than a verdict about
    /// attestation or protocol state. Callers must treat transient errors
    /// as "retry later" — never as "attestation failed".
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            RevelioError::TransientNetwork { .. } => true,
            RevelioError::Net(e) => e.is_transient(),
            // A 5xx is the server saying "try again later" (RFC 9110
            // §15.6); it carries no verdict about attestation. 4xx codes
            // stay non-transient — a 404 on the well-known URL *is* the
            // not-a-Revelio-site verdict. revelio-http keeps `Status`
            // opaque; the protocol-level reading lives here.
            RevelioError::Http(HttpError::Status(status)) => *status >= 500,
            RevelioError::Http(e) => e.is_transient(),
            RevelioError::Pki(e) => e.is_transient(),
            _ => false,
        }
    }

    /// Whether this error is a certificate-expiry condition (directly, or
    /// wrapped in the HTTP/TLS layers). Expiry is an *operational* state —
    /// the fleet's shared certificate aged past `not_after_ms` — not
    /// evidence tampering; the reconciler's renewal path keys off it.
    #[must_use]
    pub fn is_certificate_expired(&self) -> bool {
        match self {
            RevelioError::Pki(e) => matches!(e, PkiError::Expired { .. }),
            RevelioError::Http(HttpError::Tls(revelio_tls::TlsError::Certificate(e))) => {
                matches!(e, PkiError::Expired { .. })
            }
            _ => false,
        }
    }
}

impl fmt::Display for RevelioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RevelioError::EmptyFleet => {
                write!(f, "provisioning requires at least one bootstrap address")
            }
            RevelioError::NodeRejected { node, reason } => {
                write!(f, "node {node} rejected: {reason}")
            }
            RevelioError::AddressSpaceExhausted => {
                write!(f, "no free node address left in the simulated world")
            }
            RevelioError::MutualAttestationFailed(why) => {
                write!(f, "mutual attestation failed: {why}")
            }
            RevelioError::EvidenceRejected(why) => write!(f, "evidence rejected: {why}"),
            RevelioError::UnknownMeasurement(m) => {
                write!(f, "measurement {m} is not a registered golden value")
            }
            RevelioError::TlsBindingMismatch => {
                write!(f, "tls connection key does not match attested key")
            }
            RevelioError::NotRevelioSite(d) => write!(f, "{d} serves no revelio evidence"),
            RevelioError::TransientNetwork {
                component,
                attempts,
                last_error,
            } => {
                write!(
                    f,
                    "transient network failure in {component} after {attempts} attempts: \
                     {last_error} — retry, no attestation verdict reached"
                )
            }
            RevelioError::KeyCertificateMismatch => {
                write!(f, "distributed key does not match certificate")
            }
            RevelioError::Internal(why) => write!(f, "internal invariant violated: {why}"),
            RevelioError::Snp(e) => write!(f, "attestation error: {e}"),
            RevelioError::Boot(e) => write!(f, "boot error: {e}"),
            RevelioError::Build(e) => write!(f, "build error: {e}"),
            RevelioError::Pki(e) => write!(f, "pki error: {e}"),
            RevelioError::Http(e) => write!(f, "http error: {e}"),
            RevelioError::Net(e) => write!(f, "network error: {e}"),
            RevelioError::Wire(e) => write!(f, "wire format error: {e}"),
            RevelioError::Crypto(e) => write!(f, "crypto error: {e}"),
        }
    }
}

impl Error for RevelioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RevelioError::Snp(e) => Some(e),
            RevelioError::Boot(e) => Some(e),
            RevelioError::Build(e) => Some(e),
            RevelioError::Pki(e) => Some(e),
            RevelioError::Http(e) => Some(e),
            RevelioError::Net(e) => Some(e),
            RevelioError::Wire(e) => Some(e),
            RevelioError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

macro_rules! impl_from {
    ($($source:ty => $variant:ident),* $(,)?) => {
        $(impl From<$source> for RevelioError {
            fn from(e: $source) -> Self { RevelioError::$variant(e) }
        })*
    };
}

impl_from! {
    SnpError => Snp,
    BootError => Boot,
    BuildError => Build,
    PkiError => Pki,
    HttpError => Http,
    NetError => Net,
    WireError => Wire,
    CryptoError => Crypto,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_nodes_and_reasons() {
        let e = RevelioError::NodeRejected {
            node: "10.0.0.1:8080".into(),
            reason: "bad csr".into(),
        };
        assert!(e.to_string().contains("10.0.0.1:8080"));
        assert!(e.to_string().contains("bad csr"));
    }

    #[test]
    fn from_conversions_work() {
        let e: RevelioError = SnpError::SignatureInvalid.into();
        assert!(matches!(e, RevelioError::Snp(_)));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn transient_classification_unwraps_layers() {
        assert!(RevelioError::Net(NetError::Timeout("a".into())).is_transient());
        assert!(RevelioError::Http(HttpError::Net(NetError::Dropped("a".into()))).is_transient());
        assert!(RevelioError::TransientNetwork {
            component: "extension".into(),
            attempts: 4,
            last_error: "timed out".into(),
        }
        .is_transient());
        assert!(RevelioError::Pki(PkiError::Unavailable("acme".into())).is_transient());
        // Verdict-bearing errors must never classify as transient.
        assert!(!RevelioError::TlsBindingMismatch.is_transient());
        assert!(!RevelioError::EvidenceRejected("x".into()).is_transient());
        assert!(!RevelioError::UnknownMeasurement("m".into()).is_transient());
        assert!(!RevelioError::Pki(PkiError::SignatureInvalid).is_transient());
        assert!(!RevelioError::EmptyFleet.is_transient());
    }

    #[test]
    fn certificate_expiry_unwraps_layers_and_is_never_transient() {
        let expired = PkiError::Expired {
            now_ms: 2,
            not_after_ms: 1,
        };
        // Bare PKI expiry, and expiry surfaced through the TLS handshake
        // (the path a browse against an aged-out fleet actually takes).
        let direct = RevelioError::Pki(expired.clone());
        let via_tls =
            RevelioError::Http(HttpError::Tls(revelio_tls::TlsError::Certificate(expired)));
        assert!(direct.is_certificate_expired());
        assert!(via_tls.is_certificate_expired());
        assert!(!direct.is_transient());
        assert!(!via_tls.is_transient());
        // Other PKI failures are verdicts, not expiry.
        assert!(!RevelioError::Pki(PkiError::SignatureInvalid).is_certificate_expired());
        assert!(!RevelioError::TlsBindingMismatch.is_certificate_expired());
    }

    #[test]
    fn internal_errors_are_not_transient_and_name_the_invariant() {
        let e = RevelioError::Internal("page visit lost its response".into());
        assert!(!e.is_transient());
        assert!(!e.is_certificate_expired());
        assert!(e.to_string().contains("page visit lost its response"));
    }

    #[test]
    fn http_5xx_is_transient_but_4xx_is_a_verdict() {
        assert!(RevelioError::Http(HttpError::Status(500)).is_transient());
        assert!(RevelioError::Http(HttpError::Status(503)).is_transient());
        assert!(!RevelioError::Http(HttpError::Status(404)).is_transient());
        assert!(!RevelioError::Http(HttpError::Status(403)).is_transient());
    }
}
