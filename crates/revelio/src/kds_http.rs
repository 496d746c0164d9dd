//! The AMD Key Distribution Service mounted on the simulated network, and
//! the caching client verifiers use.
//!
//! Table 3's dominant cost is the KDS round trip (427.3 ms of the 778.9 ms
//! attestation path); "since the VCEK is the same until the SEV-SNP
//! firmware is updated, it can be cached" (§6.4). Every client therefore
//! caches, and its cache is explicit: shared by clones, flushed on
//! revocation and TCB-floor events.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use revelio_crypto::wire::{ByteReader, ByteWriter};
use revelio_http::message::{Request, Response};
use revelio_http::router::Router;
use revelio_http::server::{plain_request_traced, serve_http};
use revelio_http::HttpError;
use revelio_net::net::SimNet;
use revelio_net::retry::RetryPolicy;
use revelio_telemetry::{retry_with_telemetry, Telemetry};
use sev_snp::ids::{ChipId, TcbVersion};
use sev_snp::kds::{AmdCert, KeyDistributionService, VcekCertChain};

use crate::RevelioError;

/// Conventional address the simulated KDS is mounted at.
pub const KDS_ADDRESS: &str = "kds.amd.test:443";

fn encode_query(chip_id: &ChipId, tcb: &TcbVersion) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(chip_id.as_bytes());
    w.put_u64(tcb.to_u64());
    w.into_bytes()
}

fn decode_query(bytes: &[u8]) -> Result<(ChipId, TcbVersion), RevelioError> {
    let mut r = ByteReader::new(bytes);
    let chip = ChipId::from_bytes(r.get_array::<64>()?);
    let tcb = TcbVersion::from_u64(r.get_u64()?);
    r.finish()?;
    Ok((chip, tcb))
}

/// Mounts `kds` at `address` on `net` (plain HTTP; the real KDS is public
/// data over HTTPS — confidentiality is irrelevant, the chain is
/// self-authenticating). Incoming `traceparent` contexts are re-opened in
/// `telemetry` as `http.server` spans labelled `kds`, so the KDS hop
/// appears in assembled cross-node traces.
///
/// # Errors
///
/// Returns [`RevelioError::Http`] when the address is taken.
pub fn serve_kds(
    net: &SimNet,
    address: &str,
    kds: KeyDistributionService,
    telemetry: Telemetry,
) -> Result<(), RevelioError> {
    let chain_kds = kds.clone();
    let router = Router::new()
        .post("/vcek", move |req: &Request| {
            match decode_query(&req.body)
                .and_then(|(chip, tcb)| kds.vcek_chain(&chip, &tcb).map_err(RevelioError::Snp))
            {
                Ok(chain) => Response::ok(chain.to_bytes()),
                Err(_) => Response::status(400),
            }
        })
        .get("/cert_chain", move |_req: &Request| {
            // The real KDS serves the chip-independent ARK → ASK prefix at
            // its own route; having the sibling here lets chaos tests make
            // `/vcek` lossy while `/cert_chain` stays healthy.
            let (ark, ask) = chain_kds.cert_chain();
            let mut w = ByteWriter::new();
            w.put_var_bytes(&ark.to_bytes());
            w.put_var_bytes(&ask.to_bytes());
            Response::ok(w.into_bytes())
        })
        .with_tracing(telemetry, "kds");
    serve_http(net, address, router)?;
    Ok(())
}

/// Cache of fetched VCEK chains, keyed by (chip id, packed TCB), stamped
/// with the generation it was filled under.
///
/// Reads vastly outnumber writes — a chain is fetched once per firmware
/// TCB and then served to every warm-cache browse — so the map sits
/// behind a read-write lock and is edited in place: a hit takes the
/// read lock and clones one chain, an insert takes the write lock
/// (racing fetches of the *same* key insert the same chain, so
/// last-writer-wins is harmless). No guard is held across the network
/// fetch.
///
/// The generation is the invalidation path the verdict cache also
/// has: [`KdsHttpClient::flush_cache`] bumps it and clears the map, and
/// a fetch that began under the old generation skips its insert — a
/// revoked chain can never be re-filed into the new generation by an
/// in-flight fetch.
#[derive(Debug, Default)]
struct VcekCacheState {
    generation: u64,
    chains: HashMap<(ChipId, u64), VcekCertChain>,
}

type VcekCache = Arc<RwLock<VcekCacheState>>;

/// Decorrelates the KDS retry jitter stream from other components.
const KDS_JITTER_SEED: u64 = 0x006b_6473; // "kds"

/// A KDS client with a VCEK-chain cache shared by its clones.
#[derive(Clone)]
pub struct KdsHttpClient {
    net: SimNet,
    address: String,
    cache: VcekCache,
    telemetry: Telemetry,
    retry: RetryPolicy,
}

impl std::fmt::Debug for KdsHttpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KdsHttpClient")
            .field("address", &self.address)
            .finish_non_exhaustive()
    }
}

impl KdsHttpClient {
    /// The retry policy new clients start with: the crate-wide default
    /// budget on the KDS-specific jitter stream. [`crate::world::RetryTuning`]
    /// uses this as its `kds` default.
    #[must_use]
    pub fn default_retry_policy() -> RetryPolicy {
        RetryPolicy::default().with_jitter_seed(KDS_JITTER_SEED)
    }

    /// A client with an empty cache, recording into a private registry
    /// on `net`'s clock.
    #[must_use]
    pub fn new(net: SimNet, address: &str) -> Self {
        KdsHttpClient {
            telemetry: Telemetry::new(net.clock().clone()),
            net,
            address: address.to_owned(),
            cache: VcekCache::default(),
            retry: Self::default_retry_policy(),
        }
    }

    /// Records the `kds.fetch` span of each network fetch, the cache
    /// hit/miss counters and the fetch-latency histogram into `telemetry`
    /// instead of the private registry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the retry policy applied to transient transport failures
    /// on the KDS fetch path.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Fetches (or serves from cache) the VCEK chain for `(chip, tcb)`.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError`] on transport failure or a malformed
    /// response.
    pub fn vcek_chain(
        &self,
        chip_id: &ChipId,
        tcb: &TcbVersion,
    ) -> Result<VcekCertChain, RevelioError> {
        // Capture the generation *before* the fetch: the insert below is
        // valid only for the cache state the miss was observed under.
        let fetch_generation = {
            let state = self.cache.read();
            if let Some(chain) = state.chains.get(&(*chip_id, tcb.to_u64())) {
                self.telemetry
                    .counter_add("revelio_kds_client_cache_hits_total", 1);
                return Ok(chain.clone());
            }
            state.generation
        };
        self.telemetry
            .counter_add("revelio_kds_client_cache_misses_total", 1);
        let span = self
            .telemetry
            .span_with("kds.fetch", &[("address", &self.address)]);
        let result = (|| {
            // The 427 ms KDS round trip crosses the public internet —
            // transient drops are retried under the same kds.fetch span.
            let response = self.request(&Request::post("/vcek", encode_query(chip_id, tcb)))?;
            if !response.is_success() {
                return Err(RevelioError::EvidenceRejected(
                    format!("kds returned status {}", response.status).into(),
                ));
            }
            Ok(VcekCertChain::from_bytes(&response.body)?)
        })();
        let ms = span.finish_ms();
        self.telemetry.observe("revelio_kds_client_fetch_ms", ms);
        let chain = result?;
        let mut state = self.cache.write();
        // A flush moved the generation while this fetch was in flight:
        // the chain may be exactly the stale endorsement the flush
        // evicted, so the insert is skipped — the race loses cleanly,
        // never misfiles.
        if state.generation == fetch_generation {
            state.chains.insert((*chip_id, tcb.to_u64()), chain.clone());
        }
        Ok(chain)
    }

    /// One KDS request, with transient transport faults retried.
    fn request(&self, request: &Request) -> Result<Response, HttpError> {
        retry_with_telemetry(
            &self.retry,
            &self.telemetry,
            "kds",
            HttpError::is_transient,
            |_attempt| plain_request_traced(&self.net, &self.address, request, &self.telemetry),
        )
    }

    /// Drops every cached VCEK chain and bumps the cache generation —
    /// the invalidation path for revocation and TCB-floor events
    /// ("Insecure Despite Proven Updated": a revoked endorsement must
    /// not be served from cache for even one more verification). A fetch
    /// already in flight under the old generation skips its insert.
    ///
    /// The flush is counted as
    /// `revelio_kds_client_cache_invalidations_total`.
    pub fn flush_cache(&self) {
        {
            let mut state = self.cache.write();
            state.generation += 1;
            state.chains.clear();
        }
        self.telemetry
            .counter_add("revelio_kds_client_cache_invalidations_total", 1);
    }

    /// The current cache generation.
    #[must_use]
    pub fn cache_generation(&self) -> u64 {
        self.cache.read().generation
    }

    /// Number of VCEK chains currently cached.
    #[must_use]
    pub fn cached_chains(&self) -> usize {
        self.cache.read().chains.len()
    }

    /// Fetches the chip-independent ARK → ASK certificates from the KDS
    /// `/cert_chain` route. Never cached: the payload is two small
    /// certificates, and the route exists mostly so chaos runs can fault
    /// `/vcek` and `/cert_chain` independently.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError`] on transport failure or a malformed
    /// response.
    pub fn cert_chain(&self) -> Result<(AmdCert, AmdCert), RevelioError> {
        let response = self.request(&Request::get("/cert_chain"))?;
        if !response.is_success() {
            return Err(RevelioError::EvidenceRejected(
                format!("kds returned status {}", response.status).into(),
            ));
        }
        let mut r = ByteReader::new(&response.body);
        let ark = AmdCert::from_bytes(r.get_var_bytes()?)?;
        let ask = AmdCert::from_bytes(r.get_var_bytes()?)?;
        r.finish()?;
        Ok((ark, ask))
    }
}

/// Mounts at `address` a plain-HTTP proxy that forwards `/vcek` to the
/// KDS at [`KDS_ADDRESS`] and runs `hook` first: the seam that lands a
/// cache event (a flush, a revocation) inside a client's fetch.
#[cfg(test)]
pub(crate) fn serve_hooked_kds_proxy(
    net: &SimNet,
    address: &str,
    hook: impl Fn() + Send + Sync + 'static,
) {
    let upstream = net.clone();
    let router = Router::new().post("/vcek", move |req: &Request| {
        hook();
        revelio_http::server::plain_request(&upstream, KDS_ADDRESS, req)
            .unwrap_or_else(|_| Response::status(502))
    });
    serve_http(net, address, router).expect("proxy address is free");
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_net::clock::SimClock;
    use revelio_net::net::NetConfig;
    use sev_snp::platform::AmdRootOfTrust;

    fn setup() -> (SimClock, SimNet, Arc<AmdRootOfTrust>) {
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), NetConfig::default());
        let amd = Arc::new(AmdRootOfTrust::from_seed([4; 32]));
        serve_kds(
            &net,
            KDS_ADDRESS,
            KeyDistributionService::new(Arc::clone(&amd)),
            Telemetry::new(clock.clone()),
        )
        .unwrap();
        (clock, net, amd)
    }

    #[test]
    fn fetch_returns_valid_chain() {
        let (_, net, amd) = setup();
        let client = KdsHttpClient::new(net, KDS_ADDRESS);
        let chip = ChipId::from_seed(1);
        let tcb = TcbVersion::new(1, 0, 8, 115);
        let chain = client.vcek_chain(&chip, &tcb).unwrap();
        chain.validate_with(&amd.ark_public_key().expand()).unwrap();
    }

    #[test]
    fn a_repeated_vcek_query_is_served_from_the_kds_store() {
        use revelio_crypto::metrics::thread_scalar_mul_ops;

        let (_, net, _) = setup();
        let query = Request::post(
            "/vcek",
            encode_query(&ChipId::from_seed(1), &TcbVersion::new(1, 0, 8, 115)),
        );
        // The fabric runs the handler on this thread, so the thread's
        // counter covers the server side: the first query for a (chip,
        // TCB) derives the VCEK and signs its certificate.
        let start = thread_scalar_mul_ops();
        let first = plain_request_traced(
            &net,
            KDS_ADDRESS,
            &query,
            &Telemetry::new(net.clock().clone()),
        )
        .unwrap();
        let before = thread_scalar_mul_ops();
        assert_eq!(before - start, 2);
        let again = plain_request_traced(
            &net,
            KDS_ADDRESS,
            &query,
            &Telemetry::new(net.clock().clone()),
        )
        .unwrap();
        assert_eq!(thread_scalar_mul_ops(), before);
        assert_eq!((first.status, again.status), (200, 200));
        assert_eq!(again.body, first.body);
    }

    #[test]
    fn cache_eliminates_second_round_trip() {
        let (clock, net, _) = setup();
        net.peer(KDS_ADDRESS).latency_us(213_650); // paper: 427.3 ms round trip
        let client = KdsHttpClient::new(net, KDS_ADDRESS);
        let chip = ChipId::from_seed(1);
        let tcb = TcbVersion::default();

        let (_, first) = clock.time_ms(|| client.vcek_chain(&chip, &tcb).unwrap());
        let (_, second) = clock.time_ms(|| client.vcek_chain(&chip, &tcb).unwrap());
        assert!(first > 400.0, "first fetch {first} ms");
        assert_eq!(second, 0.0, "cached fetch should be free");
    }

    #[test]
    fn brief_kds_outage_is_retried_to_success() {
        let (clock, net, amd) = setup();
        net.peer(KDS_ADDRESS)
            .fault_plan(revelio_net::FaultPlan::fail_first(2));
        let client = KdsHttpClient::new(net, KDS_ADDRESS);
        let chip = ChipId::from_seed(1);
        let tcb = TcbVersion::default();
        let before = clock.now_us();
        let chain = client.vcek_chain(&chip, &tcb).unwrap();
        chain.validate_with(&amd.ark_public_key().expand()).unwrap();
        // Two timeouts plus two backoffs were paid in virtual time.
        assert!(clock.now_us() > before + 2_000_000);
    }

    #[test]
    fn sustained_kds_outage_surfaces_a_transient_error() {
        let (_, net, _) = setup();
        net.peer(KDS_ADDRESS)
            .fault_plan(revelio_net::FaultPlan::outage());
        let telemetry = revelio_telemetry::Telemetry::new(net.clock().clone());
        let client = KdsHttpClient::new(net, KDS_ADDRESS).with_telemetry(telemetry.clone());
        let err = client
            .vcek_chain(&ChipId::from_seed(1), &TcbVersion::default())
            .unwrap_err();
        assert!(err.is_transient(), "outage must stay transient, got {err}");
        assert_eq!(telemetry.counter("revelio_kds_retry_gave_up_total"), 1);
        assert_eq!(telemetry.counter("revelio_kds_retry_attempts_total"), 3);
    }

    #[test]
    fn cert_chain_route_serves_verifiable_ark_ask() {
        let (_, net, amd) = setup();
        let client = KdsHttpClient::new(net, KDS_ADDRESS);
        let (ark, ask) = client.cert_chain().unwrap();
        assert_eq!(ark.public_key, amd.ark_public_key());
        ark.verify_with(&amd.ark_public_key().expand()).unwrap();
        ask.verify_with(&ark.public_key.expand()).unwrap();
    }

    #[test]
    fn flush_evicts_cached_chains_and_bumps_the_generation() {
        let (clock, net, _) = setup();
        net.peer(KDS_ADDRESS).latency_us(213_650);
        let telemetry = revelio_telemetry::Telemetry::new(net.clock().clone());
        let client = KdsHttpClient::new(net, KDS_ADDRESS).with_telemetry(telemetry.clone());
        let chip = ChipId::from_seed(1);
        let tcb = TcbVersion::default();

        // Fill, then hit for free.
        let (_, first) = clock.time_ms(|| client.vcek_chain(&chip, &tcb).unwrap());
        let (_, hit) = clock.time_ms(|| client.vcek_chain(&chip, &tcb).unwrap());
        assert!(first > 400.0);
        assert_eq!(hit, 0.0);
        assert_eq!(client.cached_chains(), 1);
        assert_eq!(client.cache_generation(), 0);

        // A revocation/TCB-floor event flushes: generation moves, map
        // empties, and the next fetch pays the round trip again.
        client.flush_cache();
        assert_eq!(client.cache_generation(), 1);
        assert_eq!(client.cached_chains(), 0);
        let (_, refetch) = clock.time_ms(|| client.vcek_chain(&chip, &tcb).unwrap());
        assert!(refetch > 400.0, "flushed chain must be re-fetched");

        assert_eq!(
            telemetry.counter("revelio_kds_client_cache_invalidations_total"),
            1
        );
        assert_eq!(telemetry.counter("revelio_kds_client_cache_hits_total"), 1);
        assert_eq!(
            telemetry.counter("revelio_kds_client_cache_misses_total"),
            2
        );
    }

    #[test]
    fn a_flush_during_a_fetch_leaves_the_chain_uncached() {
        const PROXY: &str = "kds-proxy.test:80";
        let (_, net, _) = setup();
        let telemetry = Telemetry::new(net.clock().clone());
        let client = KdsHttpClient::new(net.clone(), PROXY).with_telemetry(telemetry.clone());
        let flusher = client.clone();
        serve_hooked_kds_proxy(&net, PROXY, move || flusher.flush_cache());
        let chip = ChipId::from_seed(1);
        let tcb = TcbVersion::default();

        // The miss read generation 0; the flush landed mid-fetch and
        // moved it to 1. The caller still gets its chain, but the cache
        // must not file it under the new generation.
        client.vcek_chain(&chip, &tcb).unwrap();
        assert_eq!(client.cache_generation(), 1);
        assert_eq!(
            client.cached_chains(),
            0,
            "in-flight chain survived a flush"
        );

        // So the next query misses and fetches again.
        client.vcek_chain(&chip, &tcb).unwrap();
        assert_eq!(telemetry.counter("revelio_kds_client_cache_hits_total"), 0);
        assert_eq!(
            telemetry.counter("revelio_kds_client_cache_misses_total"),
            2
        );
    }

    #[test]
    fn flush_is_shared_across_clones() {
        let (_, net, _) = setup();
        let client = KdsHttpClient::new(net, KDS_ADDRESS);
        let clone = client.clone();
        clone
            .vcek_chain(&ChipId::from_seed(1), &TcbVersion::default())
            .unwrap();
        assert_eq!(client.cached_chains(), 1, "clones share the cache cell");
        client.flush_cache();
        assert_eq!(clone.cached_chains(), 0, "flush reaches every clone");
        assert_eq!(clone.cache_generation(), 1);
    }

    #[test]
    fn different_tcbs_are_distinct_cache_entries() {
        let (_, net, _) = setup();
        let client = KdsHttpClient::new(net, KDS_ADDRESS);
        let chip = ChipId::from_seed(1);
        let a = client
            .vcek_chain(&chip, &TcbVersion::new(1, 0, 7, 100))
            .unwrap();
        let b = client
            .vcek_chain(&chip, &TcbVersion::new(1, 0, 8, 100))
            .unwrap();
        assert_ne!(a.vcek.public_key, b.vcek.public_key);
    }
}
