//! The client-side service worker (paper §4.2): translates ordinary
//! requests to IC messages *inside the browser* and verifies subnet
//! certificates itself, so a lying boundary node can censor but never
//! forge.
//!
//! The paper notes the service-worker path "should be avoided for now"
//! for *Revelio attestation* because its (re-)loading is only partially
//! controllable — a malicious boundary node could serve a compromised
//! worker on first contact. The simulation exposes both facts: the
//! worker's verification is sound once you have an honest copy, and the
//! bootstrap remains the weak point unless the boundary node itself is a
//! Revelio VM.

use revelio_crypto::ed25519::VerifyingKey;

use crate::boundary::API_CALL_PATH;
use crate::canister::{decode_asset_response, CallKind};
use crate::ic::IcRequest;
use crate::subnet::CertifiedResponse;
use crate::IcError;

/// A transport that can POST bytes to a boundary node (implemented by
/// HTTPS sessions in integration tests and examples).
pub trait BoundaryTransport {
    /// Posts `body` to `path`, returning the response body.
    ///
    /// # Errors
    ///
    /// Returns [`IcError::CanisterRejected`] describing transport failures
    /// (the worker surfaces them to the page as network errors).
    fn post(&mut self, path: &str, body: Vec<u8>) -> Result<Vec<u8>, IcError>;
}

/// The in-browser service worker with pinned subnet keys.
pub struct ServiceWorker {
    subnet_keys: Vec<VerifyingKey>,
    threshold: usize,
}

impl std::fmt::Debug for ServiceWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceWorker")
            .field("subnet_keys", &self.subnet_keys.len())
            .field("threshold", &self.threshold)
            .finish_non_exhaustive()
    }
}

impl ServiceWorker {
    /// Creates a worker pinning the target subnet's keys and threshold.
    #[must_use]
    pub fn new(subnet_keys: Vec<VerifyingKey>, threshold: usize) -> Self {
        ServiceWorker {
            subnet_keys,
            threshold,
        }
    }

    /// Performs a verified IC call through the boundary node.
    ///
    /// # Errors
    ///
    /// Returns [`IcError::CertificateInvalid`] when the boundary node's
    /// response fails threshold verification (tampering detected), plus
    /// transport and decode errors.
    pub fn call(
        &self,
        transport: &mut dyn BoundaryTransport,
        request: &IcRequest,
    ) -> Result<Vec<u8>, IcError> {
        let raw = transport.post(API_CALL_PATH, request.to_bytes())?;
        let certified = CertifiedResponse::from_bytes(&raw)?;
        if certified.canister_id != request.canister_id {
            return Err(IcError::CertificateInvalid);
        }
        certified.verify(&self.subnet_keys, self.threshold)?;
        Ok(certified.payload)
    }

    /// Fetches a web asset through the verified path: the in-browser
    /// equivalent of the dapp's `fetch("/...")`.
    ///
    /// # Errors
    ///
    /// As for [`ServiceWorker::call`].
    pub fn fetch_asset(
        &self,
        transport: &mut dyn BoundaryTransport,
        frontend_canister: u64,
        path: &str,
    ) -> Result<(String, Vec<u8>), IcError> {
        let payload = self.call(
            transport,
            &IcRequest {
                canister_id: frontend_canister,
                kind: CallKind::Query,
                method: "http_request".into(),
                arg: path.as_bytes().to_vec(),
            },
        )?;
        decode_asset_response(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::BoundaryNode;
    use crate::canister::AssetCanister;
    use crate::ic::InternetComputer;
    use revelio_http::message::{Request, Response};
    use revelio_http::router::Router;
    use std::sync::Arc;

    /// Drives the boundary router directly (no network) as a transport.
    struct DirectTransport {
        router: Router,
    }

    impl BoundaryTransport for DirectTransport {
        fn post(&mut self, path: &str, body: Vec<u8>) -> Result<Vec<u8>, IcError> {
            let resp: Response = self.router.dispatch(&Request::post(path, body));
            if resp.is_success() {
                Ok(resp.body)
            } else {
                Err(IcError::CanisterRejected(format!(
                    "boundary status {}",
                    resp.status
                )))
            }
        }
    }

    fn setup() -> (ServiceWorker, BoundaryNode, u64) {
        let ic = Arc::new(InternetComputer::new(1, 4, 5));
        let mut assets = AssetCanister::new();
        assets.insert("/", "text/html", b"<html>verified dapp</html>".to_vec());
        let id = ic.create_canister(&assets);
        let subnet = ic.subnet_of(id).unwrap();
        let worker = ServiceWorker::new(subnet.public_keys().to_vec(), subnet.threshold());
        let bn = BoundaryNode::new(ic, id);
        (worker, bn, id)
    }

    #[test]
    fn verified_fetch_through_honest_boundary() {
        let (worker, bn, id) = setup();
        let mut transport = DirectTransport {
            router: bn.router(),
        };
        let (ct, body) = worker.fetch_asset(&mut transport, id, "/").unwrap();
        assert_eq!(ct, "text/html");
        assert_eq!(body, b"<html>verified dapp</html>");
    }

    #[test]
    fn tampering_boundary_detected_by_worker() {
        let (worker, bn, id) = setup();
        bn.set_tampering(true);
        let mut transport = DirectTransport {
            router: bn.router(),
        };
        assert_eq!(
            worker.fetch_asset(&mut transport, id, "/").unwrap_err(),
            IcError::CertificateInvalid
        );
    }

    #[test]
    fn worker_with_wrong_subnet_keys_rejects_everything() {
        let (_, bn, id) = setup();
        let other_ic = InternetComputer::new(1, 4, 999);
        let other_subnet = other_ic
            .subnet_of(other_ic.create_canister(&AssetCanister::new()))
            .unwrap();
        let worker = ServiceWorker::new(
            other_subnet.public_keys().to_vec(),
            other_subnet.threshold(),
        );
        let mut transport = DirectTransport {
            router: bn.router(),
        };
        assert!(worker.fetch_asset(&mut transport, id, "/").is_err());
    }

    #[test]
    fn mismatched_canister_id_rejected() {
        let (worker, bn, _) = setup();
        let mut transport = DirectTransport {
            router: bn.router(),
        };
        // Ask for canister 1 but the transport returns a response for it;
        // now forge a request claiming canister 7 — id mismatch triggers.
        let req = IcRequest {
            canister_id: 7,
            kind: CallKind::Query,
            method: "http_request".into(),
            arg: b"/".to_vec(),
        };
        assert!(worker.call(&mut transport, &req).is_err());
    }
}
