//! A tiny exact-path router with optional trace-context extraction.

use std::collections::HashMap;
use std::sync::Arc;

use revelio_telemetry::{Telemetry, TraceContext};

use crate::message::{Method, Request, Response};

/// The header carrying a [`TraceContext`] across node boundaries
/// (W3C-`traceparent`-style; see [`TraceContext::parse_traceparent`]).
pub(crate) const TRACEPARENT_HEADER: &str = "traceparent";

/// A request handler.
pub(crate) type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// Routes requests by `(method, path)`; unmatched requests go to the
/// fallback handler (404 by default).
///
/// A router with tracing attached ([`Router::with_tracing`]) extracts the
/// `traceparent` header from every request and wraps the handler in an
/// `http.server` span parented to the remote caller, stitching cross-node
/// traces together. Requests carrying a *malformed* `traceparent` are
/// rejected with 400 before any handler runs — with or without tracing
/// attached — so a bad propagation header can never half-join a trace.
#[derive(Clone, Default)]
pub struct Router {
    routes: HashMap<(Method, String), Arc<Handler>>,
    fallback: Option<Arc<Handler>>,
    /// Telemetry registry + component label for server-side spans.
    tracing: Option<(Telemetry, String)>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("routes", &self.routes.len())
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Creates an empty router.
    #[must_use]
    pub fn new() -> Self {
        Router::default()
    }

    /// Registers a GET handler.
    #[must_use]
    pub fn get(
        self,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.route(Method::Get, path, handler)
    }

    /// Registers a POST handler.
    #[must_use]
    pub fn post(
        self,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.route(Method::Post, path, handler)
    }

    /// Registers a handler for `method` + `path`.
    #[must_use]
    pub(crate) fn route(
        mut self,
        method: Method,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes
            .insert((method, path.to_owned()), Arc::new(handler));
        self
    }

    /// Sets the handler for unmatched requests (e.g. delegate to an inner
    /// application router).
    #[must_use]
    pub fn with_fallback(
        mut self,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.fallback = Some(Arc::new(handler));
        self
    }

    /// Attaches a telemetry registry: incoming `traceparent` contexts are
    /// re-opened as `http.server` spans labelled with `component`.
    #[must_use]
    pub fn with_tracing(mut self, telemetry: Telemetry, component: &str) -> Self {
        self.tracing = Some((telemetry, component.to_string()));
        self
    }

    /// Dispatches a request, handling trace-context extraction first.
    #[must_use]
    pub fn dispatch(&self, request: &Request) -> Response {
        let context = match request.header(TRACEPARENT_HEADER) {
            Some(value) => match TraceContext::parse_traceparent(value) {
                Some(context) => Some(context),
                // Rejected independently of whether tracing is attached:
                // propagation correctness is a protocol property, not a
                // telemetry option.
                None => {
                    return Response::status(400)
                        .with_header("X-Trace-Error", "malformed traceparent")
                }
            },
            None => None,
        };
        match (&self.tracing, context) {
            (Some((telemetry, component)), Some(context)) => {
                let span = telemetry.span_with_remote_parent(
                    "http.server",
                    &[("component", component), ("path", &request.path)],
                    context,
                );
                let response = self.dispatch_inner(request);
                span.attr("status", &response.status.to_string());
                span.finish_ms();
                response
            }
            _ => self.dispatch_inner(request),
        }
    }

    fn dispatch_inner(&self, request: &Request) -> Response {
        match self.routes.get(&(request.method, request.path.clone())) {
            Some(handler) => handler(request),
            None => match &self.fallback {
                Some(f) => f(request),
                None => Response::status(404),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_matches_method_and_path() {
        let router = Router::new()
            .get("/", |_| Response::ok(b"index".to_vec()))
            .post("/submit", |req| Response::ok(req.body.clone()));
        assert_eq!(router.dispatch(&Request::get("/")).body, b"index");
        assert_eq!(
            router
                .dispatch(&Request::post("/submit", b"x".to_vec()))
                .body,
            b"x"
        );
    }

    #[test]
    fn unmatched_is_404() {
        let router = Router::new().get("/", |_| Response::ok(vec![]));
        assert_eq!(router.dispatch(&Request::get("/missing")).status, 404);
        // Same path, wrong method:
        assert_eq!(router.dispatch(&Request::post("/", vec![])).status, 404);
    }

    #[test]
    fn handlers_see_request_state() {
        let router = Router::new().post("/echo-header", |req| {
            Response::ok(req.header("X-In").unwrap_or("none").as_bytes().to_vec())
        });
        let req = Request::post("/echo-header", vec![]).with_header("X-In", "v");
        assert_eq!(router.dispatch(&req).body, b"v");
    }

    #[test]
    fn malformed_traceparent_rejected_even_without_tracing() {
        let router = Router::new().get("/", |_| Response::ok(vec![]));
        let req = Request::get("/").with_header(TRACEPARENT_HEADER, "not-a-context");
        let res = router.dispatch(&req);
        assert_eq!(res.status, 400);
        assert_eq!(res.header("X-Trace-Error"), Some("malformed traceparent"));
    }

    #[test]
    fn valid_traceparent_opens_server_span_with_remote_parent() {
        use revelio_net::clock::SimClock;
        use revelio_telemetry::Telemetry;

        let telemetry = Telemetry::new(SimClock::new());
        let router = Router::new()
            .get("/", |_| Response::ok(vec![]))
            .with_tracing(telemetry.clone(), "test");
        let context = TraceContext {
            trace_id: 5,
            span_id: 17,
        };
        let req = Request::get("/").with_header(TRACEPARENT_HEADER, &context.to_traceparent());
        assert_eq!(router.dispatch(&req).status, 200);
        let span = telemetry.span_record(0).unwrap();
        assert_eq!(span.name, "http.server");
        assert_eq!(span.trace_id, 5);
        assert_eq!(span.parent, Some(17));
        assert_eq!(span.attrs["component"], "test");
        assert_eq!(span.attrs["path"], "/");
        assert_eq!(span.attrs["status"], "200");
        assert!(span.end_us.is_some(), "server span finished with response");
    }

    #[test]
    fn untraced_requests_record_no_span() {
        use revelio_net::clock::SimClock;
        use revelio_telemetry::Telemetry;

        let telemetry = Telemetry::new(SimClock::new());
        let router = Router::new()
            .get("/", |_| Response::ok(vec![]))
            .with_tracing(telemetry.clone(), "test");
        assert_eq!(router.dispatch(&Request::get("/")).status, 200);
        assert_eq!(telemetry.span_count(), 0);
    }
}
