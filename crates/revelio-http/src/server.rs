//! HTTP servers: TLS-terminated for the public interface, plaintext for
//! provider-internal traffic.

use std::sync::Arc;

use revelio_net::net::{ConnectionHandler, Listener, SimNet};
use revelio_net::NetError;
use revelio_telemetry::Telemetry;
use revelio_tls::{AppHandler, TlsListener, TlsServerConfig};

use crate::message::{Request, Response};
use crate::router::Router;
use crate::HttpError;

/// Bridges the router into the TLS application layer.
struct RouterApp {
    router: Router,
}

impl AppHandler for RouterApp {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let response = match Request::from_bytes(request) {
            Ok(req) => self.router.dispatch(&req),
            Err(e) => Response::status(400)
                .with_header("X-Parse-Error", &e.to_string().replace(['\r', '\n'], " ")),
        };
        // A handler that built an unencodable response (header injection)
        // must not take the connection down with it.
        response
            .to_bytes()
            .unwrap_or_else(|_| INTERNAL_ERROR_BYTES.to_vec())
    }
}

/// The wire bytes of a bare `500` response: the fallback for a handler
/// response that cannot be encoded. Written out rather than encoded at
/// run time, so the fallback itself cannot fail.
const INTERNAL_ERROR_BYTES: &[u8] =
    b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n";

/// Binds `router` behind TLS at `address` — the public face of a Revelio
/// VM (only this port is reachable; everything else refuses connections).
///
/// # Errors
///
/// Returns [`HttpError::Net`] when the address is taken.
pub fn serve_https(
    net: &SimNet,
    address: &str,
    tls: TlsServerConfig,
    router: Router,
) -> Result<(), HttpError> {
    let listener = TlsListener::new(tls, Arc::new(RouterApp { router }));
    net.bind(address, Arc::new(listener))?;
    Ok(())
}

/// A plaintext HTTP listener (provider-internal networks only).
struct PlainHttpListener {
    router: Router,
}

struct PlainConnection {
    router: Router,
}

impl ConnectionHandler for PlainConnection {
    fn on_message(&mut self, message: &[u8]) -> Result<Vec<u8>, NetError> {
        let response = match Request::from_bytes(message) {
            Ok(req) => self.router.dispatch(&req),
            Err(_) => Response::status(400),
        };
        Ok(response
            .to_bytes()
            .unwrap_or_else(|_| INTERNAL_ERROR_BYTES.to_vec()))
    }
}

impl Listener for PlainHttpListener {
    fn accept(&self) -> Box<dyn ConnectionHandler> {
        Box::new(PlainConnection {
            router: self.router.clone(),
        })
    }
}

/// Binds `router` over plain HTTP at `address` (the SP node's internal
/// endpoints, §5.3.1 — isolated from the public cloud).
///
/// # Errors
///
/// Returns [`HttpError::Net`] when the address is taken.
pub fn serve_http(net: &SimNet, address: &str, router: Router) -> Result<(), HttpError> {
    net.bind(address, Arc::new(PlainHttpListener { router }))?;
    Ok(())
}

/// A plaintext HTTP client call (provider-internal networks only).
///
/// # Errors
///
/// Returns [`HttpError`] on transport or parse failure.
pub fn plain_request(
    net: &SimNet,
    address: &str,
    request: &Request,
) -> Result<Response, HttpError> {
    let mut conn = net.dial(address)?;
    // The path labels the exchange so per-route fault plans apply.
    let bytes = conn.exchange_routed(&request.path, &request.to_bytes()?)?;
    Response::from_bytes(&bytes)
}

/// [`plain_request`] with trace-context propagation: when a span is open
/// in `telemetry`, its context is injected as a `traceparent` header (an
/// explicit header on the request wins) so the server side can stitch the
/// call into the caller's trace.
///
/// # Errors
///
/// Returns [`HttpError`] on transport or parse failure.
pub fn plain_request_traced(
    net: &SimNet,
    address: &str,
    request: &Request,
    telemetry: &Telemetry,
) -> Result<Response, HttpError> {
    match telemetry.current_context() {
        Some(context) if request.header(crate::router::TRACEPARENT_HEADER).is_none() => {
            let traced = request
                .clone()
                .with_header(crate::router::TRACEPARENT_HEADER, &context.to_traceparent());
            plain_request(net, address, &traced)
        }
        _ => plain_request(net, address, request),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_net::clock::SimClock;
    use revelio_net::net::NetConfig;

    fn net() -> SimNet {
        SimNet::new(SimClock::new(), NetConfig::default())
    }

    #[test]
    fn plain_http_roundtrip() {
        let net = net();
        let router = Router::new().get("/ping", |_| Response::ok(b"pong".to_vec()));
        serve_http(&net, "10.1.0.1:80", router).unwrap();
        let res = plain_request(&net, "10.1.0.1:80", &Request::get("/ping")).unwrap();
        assert_eq!(res.status, 200);
        assert_eq!(res.body, b"pong");
    }

    #[test]
    fn unknown_route_is_404() {
        let net = net();
        serve_http(&net, "10.1.0.1:80", Router::new()).unwrap();
        let res = plain_request(&net, "10.1.0.1:80", &Request::get("/nope")).unwrap();
        assert_eq!(res.status, 404);
    }

    #[test]
    fn malformed_request_is_400() {
        let net = net();
        serve_http(&net, "10.1.0.1:80", Router::new()).unwrap();
        let mut conn = net.dial("10.1.0.1:80").unwrap();
        let res = Response::from_bytes(&conn.exchange(b"garbage").unwrap()).unwrap();
        assert_eq!(res.status, 400);
    }

    #[test]
    fn internal_error_fallback_is_a_bare_500() {
        assert_eq!(
            INTERNAL_ERROR_BYTES,
            Response::status(500).to_bytes().unwrap().as_slice()
        );
    }

    #[test]
    fn unencodable_response_falls_back_to_500() {
        let net = net();
        let router = Router::new().get("/inject", |_| {
            Response::ok(Vec::new()).with_header("X-Injected", "a\r\nSet-Cookie: b")
        });
        serve_http(&net, "10.1.0.1:80", router).unwrap();
        let res = plain_request(&net, "10.1.0.1:80", &Request::get("/inject")).unwrap();
        assert_eq!(res.status, 500);
    }

    #[test]
    fn double_bind_surfaces_as_http_error() {
        let net = net();
        serve_http(&net, "10.1.0.1:80", Router::new()).unwrap();
        assert!(matches!(
            serve_http(&net, "10.1.0.1:80", Router::new()),
            Err(HttpError::Net(NetError::AddressInUse(_)))
        ));
    }
}
