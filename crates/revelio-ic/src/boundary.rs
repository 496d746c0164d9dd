//! The boundary node: HTTP ↔ IC protocol translation (paper §4.2, Fig. 2).
//!
//! The returned [`Router`] is exactly what gets mounted as the application
//! inside a Revelio VM: ordinary browsers GET dapp assets, the service
//! worker POSTs raw IC messages, and both paths go through certified
//! subnet responses. A tamper switch models the malicious boundary node
//! whose possibility motivates running the proxy confidentially in the
//! first place.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use revelio_http::message::{Request, Response};
use revelio_http::router::Router;
use revelio_net::retry::RetryPolicy;
use revelio_telemetry::{retry_with_telemetry, Telemetry};

use crate::canister::{decode_asset_response, CallKind};
use crate::ic::{IcRequest, InternetComputer};
use crate::subnet::CertifiedResponse;
use crate::IcError;

/// The API path the service worker posts raw IC messages to.
pub const API_CALL_PATH: &str = "/api/v2/call";

/// The path serving the service-worker script on first contact.
pub const SERVICE_WORKER_PATH: &str = "/service-worker.js";

/// Decorrelates the boundary retry jitter stream from other components.
const BOUNDARY_JITTER_SEED: u64 = 0x626f_756e; // "boun"

/// Retry wiring for upstream replica calls, installed via
/// [`BoundaryNode::with_upstream_retry`].
#[derive(Clone)]
struct UpstreamRetry {
    policy: RetryPolicy,
    telemetry: Telemetry,
}

/// The boundary node's link to its IC replicas: injects simulated
/// outages and applies the configured retry policy before a call is
/// reported failed.
#[derive(Clone)]
struct Upstream {
    ic: Arc<InternetComputer>,
    outage_remaining: Arc<AtomicU32>,
    retry: Option<UpstreamRetry>,
}

impl Upstream {
    fn execute_once(&self, request: &IcRequest) -> Result<CertifiedResponse, IcError> {
        let remaining = self.outage_remaining.load(Ordering::SeqCst);
        if remaining > 0 {
            self.outage_remaining.store(remaining - 1, Ordering::SeqCst);
            return Err(IcError::Unavailable("ic upstream".into()));
        }
        self.ic.execute(request)
    }

    fn execute(&self, request: &IcRequest) -> Result<CertifiedResponse, IcError> {
        let Some(retry) = &self.retry else {
            return self.execute_once(request);
        };
        retry_with_telemetry(
            &retry.policy,
            &retry.telemetry,
            "boundary",
            IcError::is_transient,
            |_| self.execute_once(request),
        )
    }
}

/// A boundary node bound to one IC and one frontend (asset) canister.
pub struct BoundaryNode {
    upstream: Upstream,
    frontend_canister: u64,
    tamper: Arc<AtomicBool>,
}

impl std::fmt::Debug for BoundaryNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundaryNode")
            .field("frontend_canister", &self.frontend_canister)
            .finish_non_exhaustive()
    }
}

impl BoundaryNode {
    /// Creates a boundary node proxying `ic`, with `frontend_canister`
    /// answering direct browser GETs.
    #[must_use]
    pub fn new(ic: Arc<InternetComputer>, frontend_canister: u64) -> Self {
        BoundaryNode {
            upstream: Upstream {
                ic,
                outage_remaining: Arc::new(AtomicU32::new(0)),
                retry: None,
            },
            frontend_canister,
            tamper: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Enables bounded retry of transient upstream failures. Backoff
    /// advances `telemetry`'s clock, and retries feed its
    /// `revelio_boundary_retry_*` counters.
    #[must_use]
    pub fn with_upstream_retry(mut self, policy: RetryPolicy, telemetry: Telemetry) -> Self {
        self.upstream.retry = Some(UpstreamRetry {
            policy: policy.with_jitter_seed(BOUNDARY_JITTER_SEED),
            telemetry,
        });
        self
    }

    /// Makes the next `calls` upstream executions fail with
    /// [`IcError::Unavailable`] before recovering — a simulated replica
    /// outage window for chaos testing.
    pub fn set_upstream_outage(&self, calls: u32) {
        self.upstream
            .outage_remaining
            .store(calls, Ordering::SeqCst);
    }

    /// ATTACK: make this boundary node rewrite every payload it proxies —
    /// the malicious node of §4.2 that "compromises the Byzantine fault
    /// tolerance of the IC" for its users.
    pub fn set_tampering(&self, enabled: bool) {
        self.tamper.store(enabled, Ordering::Relaxed);
    }

    fn maybe_tamper(tamper: &AtomicBool, mut payload: Vec<u8>) -> Vec<u8> {
        if tamper.load(Ordering::Relaxed) {
            // Replace the dapp's answer wholesale.
            payload = b"<html><body>send your tokens to attacker-wallet-666</body></html>".to_vec();
        }
        payload
    }

    /// Builds the HTTP router for this boundary node: mount it inside a
    /// Revelio VM (or a plain VM, to demonstrate the risk).
    ///
    /// Routes:
    /// * `GET /` and `GET /<asset>` — direct translation: HTTP →
    ///   `http_request` query → certified response → HTTP.
    /// * `GET /service-worker.js` — the client-side translation script.
    /// * `POST /api/v2/call` — raw IC messages from the service worker;
    ///   the *certified response bytes* are returned so the client can
    ///   verify the subnet certificate itself.
    #[must_use]
    pub fn router(&self) -> Router {
        let mut router = Router::new().get(SERVICE_WORKER_PATH, |_req| {
            Response::ok(SERVICE_WORKER_SOURCE.as_bytes().to_vec())
                .with_header("Content-Type", "application/javascript")
        });

        // Direct-translation routes for every published asset. The probe
        // runs at router-build time, straight at the replicas: it must not
        // consume a chaos outage budget meant for live traffic.
        let asset_paths = {
            let resp = self.upstream.ic.execute(&IcRequest {
                canister_id: self.frontend_canister,
                kind: CallKind::Query,
                method: "http_request".into(),
                arg: b"/".to_vec(),
            });
            // The canister enumerates its paths via the boundary config in
            // a real deployment; the simulation registers "/" plus any the
            // caller adds through `router_with_assets`.
            match resp {
                Ok(_) => vec!["/".to_owned()],
                Err(_) => Vec::new(),
            }
        };
        router = self.add_asset_routes(router, &asset_paths);

        // Service-worker API: raw IC messages in, certified bytes out.
        let upstream = self.upstream.clone();
        let tamper = Arc::clone(&self.tamper);
        router.post(API_CALL_PATH, move |req: &Request| {
            let Ok(ic_request) = IcRequest::from_bytes(&req.body) else {
                return Response::status(400);
            };
            match upstream.execute(&ic_request) {
                Ok(mut certified) => {
                    certified.payload = Self::maybe_tamper(&tamper, certified.payload);
                    Response::ok(certified.to_bytes())
                }
                // 503 marks the transient case so clients can distinguish
                // "try again" from a broken upstream.
                Err(IcError::Unavailable(_)) => Response::status(503),
                Err(e) => Response::status(502)
                    .with_header("X-Ic-Error", &e.to_string().replace(['\r', '\n'], " ")),
            }
        })
    }

    /// Like [`BoundaryNode::router`] with explicit asset paths to publish
    /// as direct HTTP routes.
    #[must_use]
    pub fn router_with_assets(&self, paths: &[&str]) -> Router {
        let base = self.router();
        self.add_asset_routes(
            base,
            &paths.iter().map(|p| (*p).to_owned()).collect::<Vec<_>>(),
        )
    }

    fn add_asset_routes(&self, mut router: Router, paths: &[String]) -> Router {
        for path in paths {
            let upstream = self.upstream.clone();
            let tamper = Arc::clone(&self.tamper);
            let canister = self.frontend_canister;
            let path_owned = path.clone();
            router = router.get(path, move |_req| {
                let result = upstream.execute(&IcRequest {
                    canister_id: canister,
                    kind: CallKind::Query,
                    method: "http_request".into(),
                    arg: path_owned.as_bytes().to_vec(),
                });
                match result {
                    Ok(certified) => match decode_asset_response(&certified.payload) {
                        Ok((content_type, body)) => {
                            let body = Self::maybe_tamper(&tamper, body);
                            Response::ok(body).with_header("Content-Type", &content_type)
                        }
                        Err(_) => Response::status(502),
                    },
                    Err(IcError::Unavailable(_)) => Response::status(503),
                    Err(_) => Response::status(502),
                }
            });
        }
        router
    }
}

/// The service-worker script served on first contact (§4.2). Its logic is
/// implemented natively by [`crate::service_worker::ServiceWorker`]; the
/// source here is what a browser would receive and activate.
pub const SERVICE_WORKER_SOURCE: &str = r#"// Revelio IC service worker (simulation stand-in)
// Translates fetch() into IC protocol messages, posts them to
// /api/v2/call, and verifies the subnet threshold certificate on every
// response before handing bytes to the page.
self.addEventListener('fetch', (event) => { /* see revelio-ic::service_worker */ });
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canister::AssetCanister;
    use revelio_net::clock::SimClock;

    fn setup() -> (Arc<InternetComputer>, BoundaryNode) {
        let ic = Arc::new(InternetComputer::new(1, 4, 3));
        let mut assets = AssetCanister::new();
        assets.insert("/", "text/html", b"<html>dapp</html>".to_vec());
        assets.insert(
            "/app.js",
            "application/javascript",
            b"console.log(1)".to_vec(),
        );
        let id = ic.create_canister(&assets);
        let bn = BoundaryNode::new(Arc::clone(&ic), id);
        (ic, bn)
    }

    #[test]
    fn direct_translation_serves_assets() {
        let (_, bn) = setup();
        let router = bn.router_with_assets(&["/", "/app.js"]);
        let resp = router.dispatch(&Request::get("/"));
        assert_eq!(resp.body, b"<html>dapp</html>");
        assert_eq!(resp.header("Content-Type"), Some("text/html"));
        let resp = router.dispatch(&Request::get("/app.js"));
        assert_eq!(resp.body, b"console.log(1)");
    }

    #[test]
    fn service_worker_script_served() {
        let (_, bn) = setup();
        let resp = bn.router().dispatch(&Request::get(SERVICE_WORKER_PATH));
        assert!(resp.is_success());
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("service worker"));
    }

    #[test]
    fn api_call_returns_certified_bytes() {
        let (ic, bn) = setup();
        let router = bn.router();
        let request = IcRequest {
            canister_id: 1,
            kind: CallKind::Query,
            method: "http_request".into(),
            arg: b"/".to_vec(),
        };
        let resp = router.dispatch(&Request::post(API_CALL_PATH, request.to_bytes()));
        assert!(resp.is_success());
        let certified = crate::subnet::CertifiedResponse::from_bytes(&resp.body).unwrap();
        let subnet = ic.subnet_of(1).unwrap();
        certified
            .verify(subnet.public_keys(), subnet.threshold())
            .unwrap();
    }

    #[test]
    fn malformed_api_call_is_400() {
        let (_, bn) = setup();
        let resp = bn
            .router()
            .dispatch(&Request::post(API_CALL_PATH, b"junk".to_vec()));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn tampering_boundary_rewrites_direct_path_invisibly() {
        // The §4.2 threat: without Revelio (or a verifying service
        // worker), the user cannot tell.
        let (_, bn) = setup();
        bn.set_tampering(true);
        let resp = bn.router_with_assets(&["/"]).dispatch(&Request::get("/"));
        assert!(resp.is_success()); // looks fine at the HTTP level!
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("attacker-wallet"));
    }

    #[test]
    fn tampering_boundary_cannot_forge_certificates() {
        // With the service-worker path the client verifies the threshold
        // signature over the payload: tampering is detected.
        let (ic, bn) = setup();
        bn.set_tampering(true);
        let router = bn.router();
        let request = IcRequest {
            canister_id: 1,
            kind: CallKind::Query,
            method: "http_request".into(),
            arg: b"/".to_vec(),
        };
        let resp = router.dispatch(&Request::post(API_CALL_PATH, request.to_bytes()));
        let certified = crate::subnet::CertifiedResponse::from_bytes(&resp.body).unwrap();
        let subnet = ic.subnet_of(1).unwrap();
        assert_eq!(
            certified.verify(subnet.public_keys(), subnet.threshold()),
            Err(crate::IcError::CertificateInvalid)
        );
    }

    #[test]
    fn upstream_outage_without_retry_is_503() {
        let (_, bn) = setup();
        let router = bn.router_with_assets(&["/"]);
        bn.set_upstream_outage(1);
        assert_eq!(router.dispatch(&Request::get("/")).status, 503);
        // The outage window is consumed; the next call recovers.
        assert!(router.dispatch(&Request::get("/")).is_success());
    }

    #[test]
    fn upstream_outage_with_retry_recovers_invisibly() {
        let (ic, _) = setup();
        let clock = SimClock::new();
        let telemetry = Telemetry::new(clock.clone());
        let bn = BoundaryNode::new(Arc::clone(&ic), 1)
            .with_upstream_retry(RetryPolicy::default(), telemetry.clone());
        let router = bn.router_with_assets(&["/"]);
        bn.set_upstream_outage(2);
        let resp = router.dispatch(&Request::get("/"));
        assert!(resp.is_success(), "retries absorbed the outage");
        assert_eq!(
            telemetry.counter("revelio_boundary_retry_attempts_total"),
            2
        );
        assert_eq!(telemetry.counter("revelio_boundary_retry_gave_up_total"), 0);
        assert!(clock.now_us() > 0, "backoff spent simulated time");
    }

    #[test]
    fn sustained_upstream_outage_gives_up_with_503() {
        let (ic, _) = setup();
        let telemetry = Telemetry::new(SimClock::new());
        let bn = BoundaryNode::new(Arc::clone(&ic), 1)
            .with_upstream_retry(RetryPolicy::default(), telemetry.clone());
        let router = bn.router_with_assets(&["/"]);
        bn.set_upstream_outage(u32::MAX);
        assert_eq!(router.dispatch(&Request::get("/")).status, 503);
        assert_eq!(telemetry.counter("revelio_boundary_retry_gave_up_total"), 1);
    }

    #[test]
    fn unknown_canister_is_502() {
        let (_, bn) = setup();
        let request = IcRequest {
            canister_id: 404,
            kind: CallKind::Query,
            method: "get".into(),
            arg: vec![],
        };
        let resp = bn
            .router()
            .dispatch(&Request::post(API_CALL_PATH, request.to_bytes()));
        assert_eq!(resp.status, 502);
    }
}
