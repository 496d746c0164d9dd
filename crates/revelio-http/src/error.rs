//! Error type for the HTTP layer.

use std::error::Error;
use std::fmt;

use revelio_net::NetError;
use revelio_tls::TlsError;

/// Errors surfaced by HTTP clients and servers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HttpError {
    /// The request or response text could not be parsed.
    Malformed(String),
    /// The TLS layer failed (handshake, certificate, records).
    Tls(TlsError),
    /// The transport failed.
    Net(NetError),
    /// The server answered with an error status the caller treats as fatal.
    Status(u16),
}

impl HttpError {
    /// Whether this error is a transient transport condition worth
    /// retrying. Transient [`NetError`]s can surface directly
    /// ([`HttpError::Net`]) or wrapped by a failed TLS handshake
    /// ([`HttpError::Tls`] around [`TlsError::Net`]); everything else —
    /// parse failures, certificate rejections, error statuses —
    /// is durable.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            HttpError::Net(e) => e.is_transient(),
            HttpError::Tls(TlsError::Net(e)) => e.is_transient(),
            _ => false,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed http message: {why}"),
            HttpError::Tls(e) => write!(f, "tls failure: {e}"),
            HttpError::Net(e) => write!(f, "network failure: {e}"),
            HttpError::Status(s) => write!(f, "unexpected http status {s}"),
        }
    }
}

impl Error for HttpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HttpError::Tls(e) => Some(e),
            HttpError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TlsError> for HttpError {
    fn from(e: TlsError) -> Self {
        HttpError::Tls(e)
    }
}

impl From<NetError> for HttpError {
    fn from(e: NetError) -> Self {
        HttpError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(HttpError::Status(404).to_string().contains("404"));
    }

    #[test]
    fn transient_classification_sees_through_tls() {
        assert!(HttpError::Net(NetError::Timeout("a".into())).is_transient());
        assert!(HttpError::Net(NetError::Dropped("a".into())).is_transient());
        assert!(HttpError::Tls(TlsError::Net(NetError::ConnectionClosed)).is_transient());
        assert!(!HttpError::Net(NetError::ConnectionRefused("a".into())).is_transient());
        assert!(!HttpError::Status(503).is_transient());
        assert!(!HttpError::Malformed("x".into()).is_transient());
    }
}
