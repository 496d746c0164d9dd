//! The simulated network fabric: listeners, connections, latency, and
//! man-in-the-middle hooks.
//!
//! # One store: the published routing view
//!
//! The fabric is built for thousand-node fleets driven from many OS
//! threads. All routing state — listeners, latency overrides, redirects,
//! tamper hooks, fault plans, installed fault domains and the fault
//! seed — lives in one immutable `RoutingView` published behind a
//! [`crate::snapshot::Snapshot`]; there is no second copy. Every
//! mutation (bind/unbind, shaper edits, fault-domain install/clear,
//! `set_fault_seed`) is a copy-on-write edit of that view made under one
//! writer lock and published before the call returns. Outside a batch,
//! a dial or exchange resolves against the view with one atomic snapshot
//! load and no lock.
//!
//! The view is a persistent slot tree ([`crate::view::SlotTree`]): an
//! edit path-copies O(levels) interior nodes and shares everything else
//! with the previous view. Inside [`SimNet::batch`] a burst of mutations
//! (fleet provisioning) edits one pending, unshared view instead — each
//! tree path is copied on first touch only — and the outermost scope
//! publishes it once. While a batch is open, dials and exchanges resolve
//! against the pending view under the writer lock, so every thread still
//! observes its own writes in program order.
//!
//! Fault draws lock only per-entry mutexes: the view publishes each
//! plan's live `Arc<Mutex<FaultEntry>>` and each domain's stream table,
//! shared by every view version that holds them.
//!
//! # Determinism
//!
//! Every fault stream is keyed by its address (or `(address,
//! route-prefix)`, or `(domain, destination)`) and seeded as
//! `fabric_seed ^ fnv1a(key)`, so equal seeds produce byte-identical
//! decision streams regardless of thread count or dial interleaving
//! across addresses. Mutations publish before returning, so a thread
//! observes its own writes in program order. The global fault counter is
//! a relaxed atomic: its total is a sum of per-stream counts and
//! therefore equally interleaving-independent.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::clock::SimClock;
use crate::domain::{domain_stream_key, DomainEffect, FaultDomain};
use crate::fault::{route_stream_key, FaultEntry, FaultKind, FaultObserver, FaultPlan};
use crate::snapshot::Snapshot;
use crate::view::{PeerView, SharedFaultEntry, SlotTree};
use crate::NetError;

/// Per-connection server-side state machine.
///
/// One handler instance exists per accepted connection; `on_message`
/// receives each client message and returns the response — the synchronous
/// exchange model every protocol in this workspace builds on.
pub trait ConnectionHandler: Send {
    /// Handles one client message, producing the response.
    ///
    /// # Errors
    ///
    /// Implementations return [`NetError::Protocol`] (or
    /// [`NetError::ConnectionClosed`]) to abort the connection.
    fn on_message(&mut self, message: &[u8]) -> Result<Vec<u8>, NetError>;
}

/// A service bound to an address; accepts connections.
pub trait Listener: Send + Sync {
    /// Creates the per-connection handler state.
    fn accept(&self) -> Box<dyn ConnectionHandler>;
}

/// Tampering hook: may rewrite a client→server message in flight.
pub type TamperFn = dyn Fn(&[u8]) -> Vec<u8> + Send + Sync;

/// Fabric configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Default one-way link latency in microseconds.
    pub default_one_way_us: u64,
}

impl Default for NetConfig {
    /// 2.6 ms one way — the paper's 5.2 ms base round trip (Table 3).
    fn default() -> Self {
        NetConfig {
            default_one_way_us: 2600,
        }
    }
}

/// One installed [`FaultDomain`] plus the per-destination decision
/// streams a degraded domain creates on first draw (partitions draw
/// nothing). Shared by every view version that lists the domain; the
/// streams sit behind the domain's own leaf mutex.
struct DomainState {
    domain: FaultDomain,
    streams: Mutex<HashMap<String, FaultEntry>>,
}

impl DomainState {
    fn new(domain: FaultDomain) -> Arc<Self> {
        Arc::new(DomainState {
            domain,
            streams: Mutex::new(HashMap::new()),
        })
    }
}

/// The fabric's routing state — its only store. Published immutable;
/// mutations edit a copy (see [`Fabric::edit`]).
#[derive(Clone)]
struct RoutingView {
    /// Per-address state, keyed by the address hash.
    tree: SlotTree,
    /// Installed fault domains, in installation (= evaluation) order.
    domains: Vec<Arc<DomainState>>,
    /// Fabric-wide fault seed; every fault stream derives from it.
    fault_seed: u64,
    /// No plan on any peer and no domain installed: the per-exchange
    /// fault check can answer "clean" from one field load, without
    /// hashing the dialed address into the tree. On a faultless fleet
    /// (the common case, and the benchmark's browse phase) this is what
    /// keeps the exchange cheaper than an uncontended lock.
    all_clean: bool,
    /// Generation of the published view this one is, or was copied from
    /// (a batch's pending view keeps its base's). [`Fabric::view_gen`]
    /// equals it only while this very view is live and unedited: every
    /// publish bumps the counter, and so does a batch's first edit. A
    /// [`Connection`] stamps its clean verdict with it and revalidates
    /// the stamp per exchange with one atomic load.
    generation: u64,
}

impl RoutingView {
    fn peer(&self, address: &str) -> Option<&PeerView> {
        self.tree.peer(address)
    }

    /// Applies `f`, then refreshes the stored `all_clean` flag.
    fn edit<R>(&mut self, f: impl FnOnce(&mut RoutingView) -> R) -> R {
        let out = f(self);
        self.all_clean = self.domains.is_empty() && self.tree.planned() == 0;
        out
    }

    /// The installed domains whose window covers the current sim time and
    /// which match `src → dst`, in evaluation order. The clock is read
    /// only when a domain is installed.
    fn domains_covering<'a>(
        &'a self,
        clock: &'a SimClock,
        src: Option<&'a str>,
        dst: &'a str,
    ) -> impl Iterator<Item = &'a DomainState> {
        self.domains.iter().map(Arc::as_ref).filter(move |state| {
            state.domain.is_active_at(clock.now_us()) && state.domain.matches(src, dst)
        })
    }
}

/// The writer side of the fabric, behind its one writer lock.
#[derive(Default)]
struct BatchState {
    /// Nesting depth of open batch scopes (batches compose).
    depth: usize,
    /// The view an open batch edits: copied from the published view by
    /// the batch's first mutation, published when the outermost scope
    /// closes. Unshared, so each tree path is copied on first touch only.
    pending: Option<RoutingView>,
}

/// The shared interior of a [`SimNet`] (and of every [`Connection`]).
struct Fabric {
    /// The published routing view.
    view: Snapshot<RoutingView>,
    /// Generation of the latest *published or pending* routing view.
    /// Bumped (fetch-add) before every swap, so the counter is never
    /// behind a live view: a connection's stamped generation matching
    /// this counter proves the view it judged clean is still the live
    /// one (a counter ahead of the view merely forces a spurious
    /// re-check). A batch's first edit also bumps it, which is what
    /// invalidates every outstanding clean stamp while the pending view
    /// diverges from the published one.
    view_gen: AtomicU64,
    /// Nonzero while a [`SimNet::batch`] scope is open somewhere. Dials
    /// and exchanges check it (one relaxed load) and then resolve against
    /// the pending view. Mirrors `batch.depth`; the mutex holds the truth.
    batch_depth: AtomicUsize,
    /// The one writer lock: every mutation takes it, and it guards the
    /// open batch's pending view.
    batch: Mutex<BatchState>,
    /// Total faults injected. Relaxed: the total is a sum of per-stream
    /// counts, so no ordering is needed for it to be deterministic.
    faults_injected: AtomicU64,
    fault_observer: RwLock<Option<Arc<FaultObserver>>>,
}

impl Fabric {
    fn new() -> Self {
        Fabric {
            view: Snapshot::new(Arc::new(RoutingView {
                tree: SlotTree::default(),
                domains: Vec::new(),
                fault_seed: 0,
                all_clean: true,
                generation: 0,
            })),
            view_gen: AtomicU64::new(0),
            batch_depth: AtomicUsize::new(0),
            batch: Mutex::new(BatchState::default()),
            faults_injected: AtomicU64::new(0),
            fault_observer: RwLock::new(None),
        }
    }

    /// Runs `f` on the view dials and exchanges resolve against: an open
    /// batch's pending view (under the writer lock), else the published
    /// view (one snapshot read, no lock). `f` may take leaf locks (fault
    /// entries, domain streams) but must never mutate the fabric.
    fn with_view<R>(&self, stripe: usize, f: impl FnOnce(&RoutingView) -> R) -> R {
        if self.batch_depth.load(Ordering::Relaxed) > 0 {
            let batch = self.batch.lock();
            if let Some(pending) = &batch.pending {
                return f(pending);
            }
            // No edit yet in the open batch (or it just closed): the
            // published view is current.
        }
        self.view.read_at(stripe, f)
    }

    /// Applies one mutation under the writer lock. Inside a batch it
    /// edits the pending view; otherwise it edits a copy of the published
    /// view and publishes it before returning.
    fn edit<R>(&self, f: impl FnOnce(&mut RoutingView) -> R) -> R {
        let mut batch = self.batch.lock();
        if batch.depth > 0 {
            let pending = batch.pending.get_or_insert_with(|| {
                // First edit of this batch: invalidate every outstanding
                // clean stamp before the pending view diverges.
                self.view_gen.fetch_add(1, Ordering::SeqCst);
                RoutingView::clone(&self.view.load())
            });
            return pending.edit(f);
        }
        let mut next = RoutingView::clone(&self.view.load());
        let out = next.edit(f);
        self.publish(next);
        out
    }

    /// Publishes `view` under a fresh generation, bumped with a fetch-add
    /// before the swap so the counter is never behind the live view (see
    /// `view_gen`). Callers hold the writer lock.
    fn publish(&self, mut view: RoutingView) {
        view.generation = self.view_gen.fetch_add(1, Ordering::SeqCst) + 1;
        self.view.store(Arc::new(view));
    }

    /// Opens a batch scope (scopes nest).
    fn begin_batch(&self) {
        let mut batch = self.batch.lock();
        batch.depth += 1;
        self.batch_depth.store(batch.depth, Ordering::SeqCst);
    }

    /// Closes a batch scope; the outermost close publishes the pending
    /// view **before** clearing the depth marker, so a dial can never
    /// read a stale view as "not batching".
    fn end_batch(&self) {
        let mut batch = self.batch.lock();
        batch.depth -= 1;
        if batch.depth == 0 {
            if let Some(pending) = batch.pending.take() {
                self.publish(pending);
            }
        }
        self.batch_depth.store(batch.depth, Ordering::SeqCst);
    }

    /// Records an injected fault and returns the observer to notify (the
    /// caller invokes it outside the view read).
    fn record_fault(&self) -> Option<Arc<FaultObserver>> {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        self.fault_observer.read().clone()
    }
}

/// Hands out snapshot reader stripes to [`SimNet`] handles: one fetch
/// per handle creation instead of a lazily initialised thread-local
/// lookup on every dial.
static NEXT_HANDLE_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// The shared network fabric.
pub struct SimNet {
    clock: SimClock,
    config: NetConfig,
    fabric: Arc<Fabric>,
    /// The source address this handle dials from, set via
    /// [`SimNet::bound_to`]. Only consulted by source-scoped fault
    /// domains (asymmetric links); `None` handles never match them.
    local: Option<String>,
    /// Snapshot reader stripe this handle (and its connections)
    /// announces in. Handles are typically cloned per worker thread, so
    /// round-robin assignment at clone time spreads threads across
    /// stripes without the hot path touching thread-local storage. Any
    /// value is correct — stripe counters sum — sharing just bounces a
    /// cache line.
    stripe: usize,
}

impl Clone for SimNet {
    fn clone(&self) -> Self {
        SimNet {
            clock: self.clock.clone(),
            config: self.config.clone(),
            fabric: Arc::clone(&self.fabric),
            local: self.local.clone(),
            stripe: NEXT_HANDLE_STRIPE.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SimNet {
    /// Creates a network fabric on `clock`.
    #[must_use]
    pub fn new(clock: SimClock, config: NetConfig) -> Self {
        let fabric = Arc::new(Fabric::new());
        SimNet {
            clock,
            config,
            fabric,
            local: None,
            stripe: NEXT_HANDLE_STRIPE.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A handle on the same fabric that dials *from* `local_address` —
    /// the source side of asymmetric fault domains
    /// ([`FaultDomain::from_sources`]). Shaping, listeners, seeds, and
    /// counters are all shared with the parent handle.
    #[must_use]
    pub fn bound_to(&self, local_address: &str) -> SimNet {
        SimNet {
            local: Some(local_address.to_owned()),
            ..self.clone()
        }
    }

    /// The source address this handle dials from, if bound.
    #[must_use]
    pub fn local_address(&self) -> Option<&str> {
        self.local.as_deref()
    }

    /// The fabric's clock.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The fabric's configuration.
    #[must_use]
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Binds `listener` at `address` (e.g. `"203.0.113.7:443"`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AddressInUse`] when already bound.
    pub fn bind(&self, address: &str, listener: Arc<dyn Listener>) -> Result<(), NetError> {
        self.fabric.edit(|view| {
            view.tree.edit(address, |peer| {
                if peer.listener.is_some() {
                    return Err(NetError::AddressInUse(address.to_owned()));
                }
                peer.listener = Some(listener);
                Ok(())
            })
        })
    }

    /// Removes the listener at `address` (service shutdown).
    pub fn unbind(&self, address: &str) {
        self.fabric
            .edit(|view| view.tree.edit(address, |peer| peer.listener = None));
    }

    /// Removes every listener on the fabric: the teardown of a world.
    /// Listeners routinely own handles on the fabric they are bound to
    /// (a node's routes hold the node, which dials through a `SimNet`),
    /// so a fabric with listeners still bound is never freed.
    pub fn unbind_all(&self) {
        self.fabric.edit(|view| {
            let mut bound = Vec::new();
            view.tree.for_each(|address, peer| {
                if peer.listener.is_some() {
                    bound.push(address.to_owned());
                }
            });
            for address in bound {
                view.tree.edit(&address, |peer| peer.listener = None);
            }
        });
    }

    /// Runs `f` with every mutation applied to one pending routing view,
    /// then publishes it as **one** update — the write-side fast path
    /// for bursts like fleet provisioning, where per-mutation publishes
    /// would each copy interior tree nodes for no reader to see.
    ///
    /// Scopes nest; the outermost scope publishes. While a batch is open
    /// anywhere on the fabric, dials and exchanges resolve against the
    /// pending view under the writer lock, so the batching thread still
    /// observes its own mutations in program order (and concurrent
    /// readers stay correct — merely serialized until the publish). The
    /// publish runs even if `f` panics.
    pub fn batch<R>(&self, f: impl FnOnce(&SimNet) -> R) -> R {
        struct Guard<'a>(&'a Fabric);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.end_batch();
            }
        }
        self.fabric.begin_batch();
        let _guard = Guard(&self.fabric);
        f(self)
    }

    /// Returns the traffic-shaping handle for `address`: the single entry
    /// point for latency overrides, tamper hooks, redirects, and fault
    /// plans. Each builder call applies immediately, so calls chain:
    ///
    /// ```
    /// # use revelio_net::clock::SimClock;
    /// # use revelio_net::net::{NetConfig, SimNet};
    /// # use revelio_net::FaultPlan;
    /// # let net = SimNet::new(SimClock::new(), NetConfig::default());
    /// net.peer("kds.amd.test:443")
    ///     .latency_us(213_650)
    ///     .fault_plan(FaultPlan::fail_first(2));
    /// ```
    #[must_use]
    pub fn peer(&self, address: &str) -> PeerShaper<'_> {
        PeerShaper {
            net: self,
            address: address.to_owned(),
        }
    }

    /// Sets the fabric-wide fault seed. Each faulted stream derives its
    /// own decision sequence from this seed and its key (address, or
    /// address + route prefix), so dial order across addresses cannot
    /// perturb another stream. Call before installing plans;
    /// already-installed plans are reseeded (and their fail-first windows
    /// reset), and degraded-domain streams restart from the new seed.
    pub fn set_fault_seed(&self, seed: u64) {
        let reseed = |entry: &SharedFaultEntry, key: &str| {
            let mut entry = entry.lock();
            *entry = FaultEntry::new(entry.plan.clone(), seed, key);
        };
        self.fabric.edit(|view| {
            view.fault_seed = seed;
            // Plan entries are shared by every view version, so they are
            // reseeded in place, through their own locks.
            view.tree.for_each(|address, peer| {
                if let Some(entry) = peer.fault() {
                    reseed(entry, address);
                }
                for (prefix, entry) in peer.routes().unwrap_or_default() {
                    reseed(entry, &route_stream_key(address, prefix));
                }
            });
            // Fresh (empty) stream tables: a draw still resolving against
            // an older view cannot leave an old-seed stream in a table
            // the new view uses.
            view.domains = view
                .domains
                .iter()
                .map(|state| DomainState::new(state.domain.clone()))
                .collect();
        });
    }

    /// Installs a correlated-failure domain (replacing any domain with
    /// the same name). Domains are evaluated in installation order and
    /// sit **below** the per-address/per-route plans: an active matching
    /// [`DomainEffect::Partition`] times out dials and drops exchanges;
    /// a [`DomainEffect::Degraded`] domain draws per-exchange decisions
    /// from a `(domain, destination)`-keyed stream. See [`FaultDomain`].
    pub fn install_fault_domain(&self, domain: FaultDomain) {
        let state = DomainState::new(domain);
        self.fabric.edit(|view| {
            match view
                .domains
                .iter_mut()
                .find(|s| s.domain.name == state.domain.name)
            {
                Some(slot) => *slot = state,
                None => view.domains.push(state),
            }
        });
    }

    /// Snapshot of every installed fault domain, in installation order.
    /// The reconciler reads these to learn each outage's scheduled heal
    /// (`until_us`) so it defers re-admission probes until the partition
    /// is due to lift instead of burning retries into a black hole.
    #[must_use]
    pub fn fault_domains(&self) -> Vec<FaultDomain> {
        self.fabric.with_view(self.stripe, |view| {
            view.domains
                .iter()
                .map(|state| state.domain.clone())
                .collect()
        })
    }

    /// Removes the fault domain named `name` (an unscheduled heal).
    pub fn clear_fault_domain(&self, name: &str) {
        self.fabric
            .edit(|view| view.domains.retain(|state| state.domain.name != name));
    }

    /// Removes every installed fault domain.
    pub fn clear_fault_domains(&self) {
        self.fabric.edit(|view| view.domains.clear());
    }

    /// Installs an observer invoked on every injected fault (outside the
    /// fabric locks). The harness mirrors injections into telemetry.
    pub fn set_fault_observer(&self, observer: Arc<FaultObserver>) {
        *self.fabric.fault_observer.write() = Some(observer);
    }

    /// Total faults injected so far, across all addresses and routes.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.fabric.faults_injected.load(Ordering::Relaxed)
    }

    /// Cumulative spin/yield iterations snapshot writers spent waiting
    /// for reader stripes to drain while retiring old routing views (the
    /// `revelio_net_snapshot_retire_spins` counter) — writer-stall time,
    /// reported honestly by the fleet benchmark.
    #[must_use]
    pub fn snapshot_retire_spins(&self) -> u64 {
        self.fabric.view.retire_spins()
    }

    /// Deterministic estimate of the routing view's heap footprint in
    /// bytes (structure sizes and string lengths, never allocator or
    /// capacity artifacts). The fleet benchmark divides it by the node
    /// count for its memory-per-node column.
    #[must_use]
    pub fn routing_memory_bytes(&self) -> usize {
        self.fabric
            .with_view(self.stripe, |view| view.tree.estimated_bytes())
    }

    /// A canonical dump of the fabric's routing state: every address
    /// sorted, with its listener/latency/redirect/tamper presence and the
    /// full parameters of every installed plan, then every installed
    /// fault domain in evaluation order (name, effect, window, timeout,
    /// prefixes), then a count footer. Inside an open [`SimNet::batch`]
    /// it describes the pending view. Byte-identical across batched and
    /// unbatched mutation orders — the write-burst suites diff it to
    /// prove the view converged.
    #[must_use]
    pub fn view_fingerprint(&self) -> String {
        fn describe(view: &PeerView) -> String {
            let mut line = String::new();
            let _ = write!(
                line,
                "listener:{} latency:{:?} redirect:{:?} tamper:{}",
                u8::from(view.listener.is_some()),
                view.latency_us,
                view.redirect(),
                u8::from(view.tamper().is_some()),
            );
            if let Some(entry) = view.fault() {
                let _ = write!(line, " plan:[{}]", entry.lock().plan.fingerprint());
            }
            if let Some(routes) = view.routes() {
                let mut routes: Vec<(String, String)> = routes
                    .iter()
                    .map(|(prefix, entry)| (prefix.clone(), entry.lock().plan.fingerprint()))
                    .collect();
                routes.sort();
                for (prefix, plan) in routes {
                    let _ = write!(line, " route:{prefix}:[{plan}]");
                }
            }
            line
        }
        self.fabric.with_view(self.stripe, |view| {
            let mut entries: Vec<(String, String, bool)> = Vec::new();
            view.tree.for_each(|address, peer| {
                entries.push((address.to_owned(), describe(peer), peer.planned()));
            });
            debug_assert_eq!(entries.len(), view.tree.len(), "tree len out of sync");
            entries.sort();
            let planned = entries.iter().filter(|(_, _, planned)| *planned).count();
            let mut out = String::new();
            for (address, line, _) in &entries {
                let _ = writeln!(out, "{address} | {line}");
            }
            for state in &view.domains {
                let domain = &state.domain;
                let effect = match &domain.effect {
                    DomainEffect::Partition => "partition".to_owned(),
                    DomainEffect::Degraded(plan) => format!("degraded[{}]", plan.fingerprint()),
                };
                let _ = writeln!(
                    out,
                    "domain {} | effect:{effect} window:{}..{:?} timeout:{} dst:{:?} src:{:?}",
                    domain.name,
                    domain.from_us,
                    domain.until_us,
                    domain.timeout_us,
                    domain.dst_prefixes,
                    domain.src_prefixes,
                );
            }
            let _ = writeln!(
                out,
                "-- entries:{} planned:{planned} domains:{}",
                entries.len(),
                view.domains.len()
            );
            out
        })
    }

    /// Opens a connection to `address`.
    ///
    /// Resolves against the routing view in one read: an active
    /// partition covering the address times the dial out, then the
    /// address-wide plan's fail-first window, then the (possibly
    /// redirected) listener is looked up.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ConnectionRefused`] when nothing listens there —
    /// which is exactly what connecting to a Revelio VM's SSH port yields —
    /// or [`NetError::Timeout`] when a partition domain covers the address
    /// or its fault plan is inside a fail-first window.
    pub fn dial(&self, address: &str) -> Result<Connection, NetError> {
        /// What the view decided for this dial.
        enum Route {
            /// Listener, one-way latency override, tamper hook, and the
            /// clean stamp (see [`Connection::clean_gen`]).
            Open(
                Arc<dyn Listener>,
                Option<u64>,
                Option<Arc<TamperFn>>,
                Option<u64>,
            ),
            Refused,
            /// A partition or a fail-first window fired; charge this
            /// timeout.
            TimedOut(u64),
        }
        // `accept()` and fault bookkeeping run after the view read, so
        // user code (handlers, fault observers) can never stall — or, by
        // mutating the fabric, deadlock — a view writer.
        let route = self.fabric.with_view(self.stripe, |view| {
            // An active partition is the lowest network layer: the dial
            // times out before any per-address plan or listener lookup.
            if let Some(state) = view
                .domains_covering(&self.clock, self.local.as_deref(), address)
                .find(|state| matches!(state.domain.effect, DomainEffect::Partition))
            {
                return Route::TimedOut(state.domain.timeout_us);
            }
            let Some(peer) = view.peer(address) else {
                return Route::Refused;
            };
            // A fail-first window makes the service unreachable: the dial
            // times out before anything is delivered. Only the
            // address-wide plan applies — the route is not known until an
            // exchange.
            if let Some(entry) = peer.fault() {
                let mut entry = entry.lock();
                if entry.dial_fails() {
                    return Route::TimedOut(entry.plan.timeout_us);
                }
            }
            // The dialed address wins for latency and tamper lookups: an
            // override installed on the victim keeps applying after a
            // redirect, falling back to the attacker's setting only when
            // the victim has none.
            let (listener, fallback_latency, fallback_tamper) = match peer.redirect() {
                Some(effective) if effective != address => match view.peer(effective) {
                    Some(target) => (
                        target.listener.clone(),
                        target.latency_us,
                        target.tamper().cloned(),
                    ),
                    None => (None, None, None),
                },
                _ => (peer.listener.clone(), None, None),
            };
            let Some(listener) = listener else {
                return Route::Refused;
            };
            // Exchange-clean (no plan of either kind here, no domain
            // anywhere): stamp the generation so exchanges revalidate the
            // verdict with one atomic load.
            let clean_gen = (view.domains.is_empty() && !peer.planned()).then_some(view.generation);
            Route::Open(
                listener,
                peer.latency_us.or(fallback_latency),
                peer.tamper().cloned().or(fallback_tamper),
                clean_gen,
            )
        });
        match route {
            Route::Open(listener, latency, tamper, clean_gen) => Ok(Connection {
                clock: self.clock.clone(),
                handler: listener.accept(),
                one_way_us: latency.unwrap_or(self.config.default_one_way_us),
                tamper,
                dialed: address.to_owned(),
                local: self.local.clone(),
                closed: false,
                timeout_us: FaultPlan::default().timeout_us,
                clean_gen,
                stripe: self.stripe,
                fabric: Arc::clone(&self.fabric),
            }),
            Route::Refused => Err(NetError::ConnectionRefused(address.to_owned())),
            Route::TimedOut(timeout_us) => {
                let observer = self.fabric.record_fault();
                self.clock.advance_us(timeout_us);
                if let Some(obs) = observer {
                    obs(address, FaultKind::Timeout);
                }
                Err(NetError::Timeout(address.to_owned()))
            }
        }
    }
}

/// A traffic-shaping handle for one peer address, returned by
/// [`SimNet::peer`]. Every call applies immediately (and publishes the
/// routing view) and returns the handle, so settings chain fluently.
pub struct PeerShaper<'a> {
    net: &'a SimNet,
    address: String,
}

impl std::fmt::Debug for PeerShaper<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerShaper")
            .field("address", &self.address)
            .finish()
    }
}

impl PeerShaper<'_> {
    /// Applies `f` to this address's view entry. `f` also receives the
    /// fault seed, read under the same writer lock the edit holds, so a
    /// concurrent `set_fault_seed` cannot leave a new plan on the old
    /// seed.
    fn edit(&self, f: impl FnOnce(&mut PeerView, u64)) {
        self.net.fabric.edit(|view| {
            let seed = view.fault_seed;
            view.tree.edit(&self.address, |peer| f(peer, seed));
        });
    }

    /// Sets the one-way latency for dials *to* this address, in
    /// microseconds — e.g. a distant AMD KDS.
    pub fn latency_us(self, one_way_us: u64) -> Self {
        self.edit(|peer, _| peer.latency_us = Some(one_way_us));
        self
    }

    /// ATTACK: installs a message-tampering hook on dials to this address.
    pub fn tamper(self, tamper: Arc<TamperFn>) -> Self {
        self.edit(|peer, _| peer.extra_mut().tamper = Some(tamper));
        self
    }

    /// ATTACK: silently rewires future dials of this address to
    /// `attacker` (BGP hijack / hostile middlebox). TLS endpoint checks
    /// must catch it.
    pub fn redirect_to(self, attacker: &str) -> Self {
        self.edit(|peer, _| peer.extra_mut().redirect = Some(attacker.to_owned()));
        self
    }

    /// Removes a redirect.
    pub fn clear_redirect(self) -> Self {
        self.edit(|peer, _| peer.extra_mut().redirect = None);
        self
    }

    /// Installs (or replaces) the address-wide fault plan for dials *to*
    /// this address. Plans are keyed by the **dialed** address — under a
    /// redirect the victim's plan applies, matching the latency/tamper
    /// precedence.
    pub fn fault_plan(self, plan: FaultPlan) -> Self {
        self.edit(|peer, seed| {
            let entry = FaultEntry::new(plan, seed, &self.address);
            peer.extra_mut().fault = Some(Arc::new(Mutex::new(entry)));
        });
        self
    }

    /// Installs (or replaces) a fault plan for exchanges on this address
    /// whose route starts with `prefix` (e.g. `"/vcek"` on the KDS while
    /// `"/cert_chain"` stays healthy). The longest matching prefix wins;
    /// the address-wide plan is the fallback. Route plans draw from their
    /// own `(address, prefix)`-keyed stream and apply per exchange — the
    /// dial itself is only governed by the address-wide plan's fail-first
    /// window, since no route exists before the first exchange.
    pub fn fault_plan_for_route(self, prefix: &str, plan: FaultPlan) -> Self {
        self.edit(|peer, seed| {
            let key = route_stream_key(&self.address, prefix);
            let entry = Arc::new(Mutex::new(FaultEntry::new(plan, seed, &key)));
            let extra = peer.extra_mut();
            let mut routes = extra.routes.as_deref().unwrap_or_default().to_vec();
            match routes.iter_mut().find(|(p, _)| p == prefix) {
                Some(slot) => slot.1 = entry,
                None => routes.push((prefix.to_owned(), entry)),
            }
            extra.routes = Some(routes.into());
        });
        self
    }

    /// Removes every fault plan for this address — address-wide and
    /// per-route — the "faults clear" moment.
    pub fn clear_fault_plan(self) -> Self {
        self.edit(|peer, _| {
            let extra = peer.extra_mut();
            extra.fault = None;
            extra.routes = None;
        });
        self
    }

    /// Clears *all* shaping for this address: latency override, tamper
    /// hook, redirect, and every fault plan.
    pub fn clear(self) -> Self {
        self.edit(|peer, _| {
            peer.latency_us = None;
            peer.extra = None;
        });
        self
    }
}

/// A client-side connection performing synchronous exchanges.
pub struct Connection {
    clock: SimClock,
    handler: Box<dyn ConnectionHandler>,
    one_way_us: u64,
    tamper: Option<Arc<TamperFn>>,
    dialed: String,
    /// Source address of the dialing handle (asymmetric domains).
    local: Option<String>,
    closed: bool,
    /// Timeout window charged for drops/timeouts; refreshed from the
    /// governing fault plan or domain on each exchange.
    timeout_us: u64,
    /// `Some(g)` when the routing view at generation `g` judged this
    /// address exchange-clean (no plan of either kind on it, no domain
    /// anywhere). While [`Fabric::view_gen`] still reads `g`, the live
    /// view is that very one, so each exchange's fault check is a single
    /// atomic load. Any publish invalidates the stamp; the next exchange
    /// re-checks against the current view and re-stamps.
    clean_gen: Option<u64>,
    /// Snapshot reader stripe, inherited from the dialing handle.
    stripe: usize,
    fabric: Arc<Fabric>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("dialed", &self.dialed)
            .field("one_way_us", &self.one_way_us)
            .finish_non_exhaustive()
    }
}

impl Connection {
    /// Sends `message` and waits for the response. Advances the clock by
    /// one round trip. Equivalent to [`Connection::exchange_routed`] with
    /// an empty route: only address-wide fault plans apply.
    ///
    /// # Errors
    ///
    /// Propagates handler errors; a closed connection returns
    /// [`NetError::ConnectionClosed`].
    pub fn exchange(&mut self, message: &[u8]) -> Result<Vec<u8>, NetError> {
        self.exchange_routed("", message)
    }

    /// Sends `message` labelled with `route` (an HTTP path, for protocols
    /// that have one) and waits for the response. The label exists purely
    /// for fault injection: a per-route plan whose prefix matches `route`
    /// governs this exchange instead of the address-wide plan.
    ///
    /// # Errors
    ///
    /// Propagates handler errors; a closed connection returns
    /// [`NetError::ConnectionClosed`].
    pub fn exchange_routed(&mut self, route: &str, message: &[u8]) -> Result<Vec<u8>, NetError> {
        if self.closed {
            return Err(NetError::ConnectionClosed);
        }
        let (jitter_us, fault) = self.fault_decision(route);
        let one_way_us = self.one_way_us.saturating_add(jitter_us);
        if let Some(err) = fault {
            self.closed = true;
            // The client spends simulated time discovering the fault: a
            // full timeout window for drops/timeouts, one (jittered)
            // one-way trip for a reset.
            let cost_us = match &err {
                NetError::ConnectionClosed => one_way_us,
                _ => self.timeout_us,
            };
            self.clock.advance_us(cost_us);
            return Err(err);
        }
        self.clock.advance_us(one_way_us);
        let delivered = match &self.tamper {
            Some(t) => t(message),
            None => message.to_vec(),
        };
        let result = self.handler.on_message(&delivered);
        self.clock.advance_us(one_way_us);
        if result.is_err() {
            self.closed = true;
        }
        result
    }

    /// Decides this exchange's fate against the routing view, returning
    /// the one-way jitter and the fault to surface, if any. The first
    /// active fault domain covering the link is consulted first (a
    /// partition always drops; a degraded domain draws from its
    /// `(domain, destination)` stream), then the longest matching route
    /// plan, else the address-wide plan. Faults fire **before** delivery:
    /// the handler never runs, so server-side state is untouched and a
    /// retry is always safe.
    ///
    /// The common clean case — no domain installed, no plan on this
    /// address — is answered by the dial-time stamp with one atomic load,
    /// or else from the view without hashing the address when no plan
    /// exists anywhere. A draw locks only the governing entry's mutex.
    fn fault_decision(&mut self, route: &str) -> (u64, Option<NetError>) {
        if let Some(gen) = self.clean_gen {
            if self.fabric.view_gen.load(Ordering::SeqCst) == gen {
                return (0, None);
            }
        }
        /// What the view decided for this exchange.
        #[derive(Default)]
        struct Decision {
            /// Clean-stamp generation (see [`Connection::clean_gen`]).
            stamp: Option<u64>,
            jitter_us: u64,
            fault: Option<FaultKind>,
            /// Timeout window of the governing domain or plan, if any.
            timeout_us: Option<u64>,
        }
        let (local, dialed) = (self.local.as_deref(), self.dialed.as_str());
        let decision = self.fabric.with_view(self.stripe, |view| {
            let mut decision = Decision::default();
            if view.all_clean {
                decision.stamp = Some(view.generation);
                return decision;
            }
            // Domains model the layer below per-address shaping. A
            // degraded draw that injects nothing still contributes its
            // jitter; the plans then get their say.
            if let Some(state) = view.domains_covering(&self.clock, local, dialed).next() {
                match &state.domain.effect {
                    DomainEffect::Partition => {
                        decision.fault = Some(FaultKind::Dropped);
                        decision.timeout_us = Some(state.domain.timeout_us);
                        return decision;
                    }
                    DomainEffect::Degraded(plan) => {
                        let mut streams = state.streams.lock();
                        let entry = streams.entry(dialed.to_owned()).or_insert_with(|| {
                            let key = domain_stream_key(&state.domain.name, dialed);
                            FaultEntry::new(plan.clone(), view.fault_seed, &key)
                        });
                        (decision.jitter_us, decision.fault) = entry.exchange_decision();
                        decision.timeout_us = Some(entry.plan.timeout_us);
                        if decision.fault.is_some() {
                            return decision;
                        }
                    }
                }
            }
            let peer = view.peer(dialed);
            let governing = peer.and_then(|peer| {
                let route_entry = peer.routes().and_then(|routes| {
                    routes
                        .iter()
                        .filter(|(prefix, _)| route.starts_with(prefix.as_str()))
                        .max_by_key(|(prefix, _)| prefix.len())
                        .map(|(_, entry)| entry)
                });
                route_entry.or_else(|| peer.fault())
            });
            match governing {
                Some(entry) => {
                    let mut entry = entry.lock();
                    let (jitter_us, fault) = entry.exchange_decision();
                    decision.jitter_us = decision.jitter_us.saturating_add(jitter_us);
                    decision.fault = fault;
                    decision.timeout_us = Some(entry.plan.timeout_us);
                }
                // No plan here and no domain anywhere: stamp. A planned
                // address whose route plans all miss this route is clean
                // too, but not stampable — another route could match.
                None => {
                    if view.domains.is_empty() && !peer.is_some_and(PeerView::planned) {
                        decision.stamp = Some(view.generation);
                    }
                }
            }
            decision
        });
        self.clean_gen = decision.stamp;
        if let Some(timeout_us) = decision.timeout_us {
            self.timeout_us = timeout_us;
        }
        let Some(kind) = decision.fault else {
            return (decision.jitter_us, None);
        };
        if let Some(obs) = self.fabric.record_fault() {
            obs(&self.dialed, kind);
        }
        (decision.jitter_us, Some(self.fault_error(kind)))
    }

    /// The [`NetError`] a client observes for an injected fault kind.
    fn fault_error(&self, kind: FaultKind) -> NetError {
        match kind {
            FaultKind::Dropped => NetError::Dropped(self.dialed.clone()),
            FaultKind::Timeout => NetError::Timeout(self.dialed.clone()),
            FaultKind::Reset => NetError::ConnectionClosed,
        }
    }

    /// The address this connection was dialed to (pre-redirect).
    #[must_use]
    pub fn dialed_address(&self) -> &str {
        &self.dialed
    }

    /// Closes the connection; further exchanges fail.
    pub fn close(&mut self) {
        self.closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Listener for Echo {
        fn accept(&self) -> Box<dyn ConnectionHandler> {
            struct H;
            impl ConnectionHandler for H {
                fn on_message(&mut self, m: &[u8]) -> Result<Vec<u8>, NetError> {
                    Ok(m.to_vec())
                }
            }
            Box::new(H)
        }
    }

    struct Marker(&'static [u8]);
    impl Listener for Marker {
        fn accept(&self) -> Box<dyn ConnectionHandler> {
            struct H(&'static [u8]);
            impl ConnectionHandler for H {
                fn on_message(&mut self, _m: &[u8]) -> Result<Vec<u8>, NetError> {
                    Ok(self.0.to_vec())
                }
            }
            Box::new(H(self.0))
        }
    }

    fn fabric() -> (SimClock, SimNet) {
        let clock = SimClock::new();
        let net = SimNet::new(
            clock.clone(),
            NetConfig {
                default_one_way_us: 1000,
            },
        );
        (clock, net)
    }

    /// Installs a fault domain that covers no address the tests bind:
    /// behaviour is unchanged, but every dial and exchange now walks the
    /// domain list and no connection is stamped clean.
    fn install_idle_domain(net: &SimNet) {
        net.install_fault_domain(FaultDomain::partition("idle", "192.0.2."));
    }

    /// Per-address behaviour tests run with and without an inert fault
    /// domain installed.
    fn fabrics() -> [(SimClock, SimNet); 2] {
        let with_domain = fabric();
        install_idle_domain(&with_domain.1);
        [fabric(), with_domain]
    }

    #[test]
    fn exchange_advances_clock_by_round_trip() {
        for (clock, net) in fabrics() {
            net.bind("a:1", Arc::new(Echo)).unwrap();
            let mut conn = net.dial("a:1").unwrap();
            conn.exchange(b"x").unwrap();
            assert_eq!(clock.now_us(), 2000);
            conn.exchange(b"x").unwrap();
            assert_eq!(clock.now_us(), 4000);
        }
    }

    #[test]
    fn unbound_port_refuses() {
        for (_, net) in fabrics() {
            assert_eq!(
                net.dial("vm:22").unwrap_err(),
                NetError::ConnectionRefused("vm:22".into())
            );
        }
    }

    #[test]
    fn double_bind_rejected_and_unbind_frees() {
        for (_, net) in fabrics() {
            net.bind("a:1", Arc::new(Echo)).unwrap();
            assert!(net.bind("a:1", Arc::new(Echo)).is_err());
            net.unbind("a:1");
            net.bind("a:1", Arc::new(Echo)).unwrap();
        }
    }

    #[test]
    fn per_address_latency_override() {
        for (clock, net) in fabrics() {
            net.bind("kds:443", Arc::new(Echo)).unwrap();
            net.peer("kds:443").latency_us(100_000); // a distant service
            let mut conn = net.dial("kds:443").unwrap();
            conn.exchange(b"q").unwrap();
            assert_eq!(clock.now_us(), 200_000);
        }
    }

    #[test]
    fn redirect_reroutes_to_attacker() {
        for (_, net) in fabrics() {
            net.bind("honest:443", Arc::new(Marker(b"honest"))).unwrap();
            net.bind("evil:443", Arc::new(Marker(b"evil"))).unwrap();
            net.peer("honest:443").redirect_to("evil:443");
            let mut conn = net.dial("honest:443").unwrap();
            assert_eq!(conn.exchange(b"hello").unwrap(), b"evil");
            net.peer("honest:443").clear_redirect();
            let mut conn = net.dial("honest:443").unwrap();
            assert_eq!(conn.exchange(b"hello").unwrap(), b"honest");
        }
    }

    /// A tamper hook that appends `tag` to every message.
    fn append(tag: u8) -> Arc<TamperFn> {
        Arc::new(move |m: &[u8]| {
            let mut v = m.to_vec();
            v.push(tag);
            v
        })
    }

    #[test]
    fn victim_latency_and_tamper_survive_redirect() {
        // Settings installed on the dialed (victim) address must keep
        // applying after a redirect; the attacker's address only fills
        // gaps the victim left.
        for (clock, net) in fabrics() {
            net.bind("honest:443", Arc::new(Marker(b"honest"))).unwrap();
            net.bind("evil:443", Arc::new(Echo)).unwrap();
            net.peer("honest:443")
                .latency_us(50_000)
                .tamper(append(b'!'))
                .redirect_to("evil:443");
            net.peer("evil:443").latency_us(7).tamper(append(b'?'));
            let start = clock.now_us();
            let mut conn = net.dial("honest:443").unwrap();
            // The attacker echoes (redirected), and the victim's tamper
            // hook, not the attacker's, rewrote the message.
            assert_eq!(conn.exchange(b"hello").unwrap(), b"hello!");
            // The victim's 50 ms one-way override wins over the attacker's.
            assert_eq!(clock.now_us() - start, 100_000);
        }
    }

    #[test]
    fn attacker_settings_apply_when_victim_has_none() {
        for (clock, net) in fabrics() {
            net.bind("evil:443", Arc::new(Echo)).unwrap();
            net.peer("evil:443").latency_us(9_000).tamper(append(b'?'));
            net.peer("honest:443").redirect_to("evil:443");
            let start = clock.now_us();
            let mut conn = net.dial("honest:443").unwrap();
            assert_eq!(conn.exchange(b"hello").unwrap(), b"hello?");
            assert_eq!(clock.now_us() - start, 18_000);
        }
    }

    #[test]
    fn tamper_rewrites_messages() {
        for (_, net) in fabrics() {
            net.bind("a:1", Arc::new(Echo)).unwrap();
            net.peer("a:1").tamper(Arc::new(|m: &[u8]| {
                let mut v = m.to_vec();
                if !v.is_empty() {
                    v[0] ^= 0xff;
                }
                v
            }));
            let mut conn = net.dial("a:1").unwrap();
            assert_eq!(conn.exchange(&[1, 2]).unwrap(), vec![0xfe, 2]);
        }
    }

    #[test]
    fn handler_error_closes_connection() {
        struct Fail;
        impl Listener for Fail {
            fn accept(&self) -> Box<dyn ConnectionHandler> {
                struct H;
                impl ConnectionHandler for H {
                    fn on_message(&mut self, _m: &[u8]) -> Result<Vec<u8>, NetError> {
                        Err(NetError::Protocol("boom".into()))
                    }
                }
                Box::new(H)
            }
        }
        for (_, net) in fabrics() {
            net.bind("a:1", Arc::new(Fail)).unwrap();
            let mut conn = net.dial("a:1").unwrap();
            assert!(matches!(conn.exchange(b"x"), Err(NetError::Protocol(_))));
            assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
        }
    }

    #[test]
    fn outage_plan_drops_every_exchange_before_delivery() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct Count(Arc<AtomicU32>);
        impl Listener for Count {
            fn accept(&self) -> Box<dyn ConnectionHandler> {
                struct H(Arc<AtomicU32>);
                impl ConnectionHandler for H {
                    fn on_message(&mut self, _m: &[u8]) -> Result<Vec<u8>, NetError> {
                        self.0.fetch_add(1, Ordering::SeqCst);
                        Ok(vec![])
                    }
                }
                Box::new(H(Arc::clone(&self.0)))
            }
        }
        for (clock, net) in fabrics() {
            let delivered = Arc::new(AtomicU32::new(0));
            net.bind("a:1", Arc::new(Count(Arc::clone(&delivered))))
                .unwrap();
            net.set_fault_seed(1);
            net.peer("a:1").fault_plan(FaultPlan::outage());
            let start = clock.now_us();
            let mut conn = net.dial("a:1").unwrap();
            assert_eq!(conn.exchange(b"x"), Err(NetError::Dropped("a:1".into())));
            // The handler never ran, and a full timeout window was spent.
            assert_eq!(delivered.load(Ordering::SeqCst), 0);
            assert_eq!(clock.now_us() - start, 1_000_000);
            assert_eq!(net.faults_injected(), 1);
            // Clearing the plan restores delivery.
            net.peer("a:1").clear_fault_plan();
            let mut conn = net.dial("a:1").unwrap();
            assert!(conn.exchange(b"x").is_ok());
            assert_eq!(delivered.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn fail_first_window_times_out_dials_then_recovers() {
        for (clock, net) in fabrics() {
            net.bind("a:1", Arc::new(Echo)).unwrap();
            net.set_fault_seed(3);
            net.peer("a:1").fault_plan(FaultPlan {
                timeout_us: 250_000,
                ..FaultPlan::fail_first(2)
            });
            let start = clock.now_us();
            assert_eq!(
                net.dial("a:1").unwrap_err(),
                NetError::Timeout("a:1".into())
            );
            assert_eq!(
                net.dial("a:1").unwrap_err(),
                NetError::Timeout("a:1".into())
            );
            assert_eq!(clock.now_us() - start, 500_000);
            let mut conn = net.dial("a:1").unwrap();
            assert!(conn.exchange(b"x").is_ok());
            assert_eq!(net.faults_injected(), 2);
        }
    }

    #[test]
    fn reset_fault_surfaces_connection_closed() {
        for (_, net) in fabrics() {
            net.bind("a:1", Arc::new(Echo)).unwrap();
            net.set_fault_seed(5);
            net.peer("a:1").fault_plan(FaultPlan {
                reset_probability: 1.0,
                ..FaultPlan::default()
            });
            let mut conn = net.dial("a:1").unwrap();
            assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
            // A faulted connection is closed; later exchanges fail fast.
            assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
            assert_eq!(net.faults_injected(), 1);
        }
    }

    #[test]
    fn jitter_stretches_round_trips_deterministically() {
        let run = |seed: u64| {
            let (clock, net) = fabric();
            net.bind("a:1", Arc::new(Echo)).unwrap();
            net.set_fault_seed(seed);
            net.peer("a:1").fault_plan(FaultPlan {
                jitter_us: 800,
                ..FaultPlan::default()
            });
            let mut conn = net.dial("a:1").unwrap();
            for _ in 0..8 {
                conn.exchange(b"x").unwrap();
            }
            clock.now_us()
        };
        let base = {
            let (clock, net) = fabric();
            net.bind("a:1", Arc::new(Echo)).unwrap();
            let mut conn = net.dial("a:1").unwrap();
            for _ in 0..8 {
                conn.exchange(b"x").unwrap();
            }
            clock.now_us()
        };
        let a = run(21);
        assert_eq!(a, run(21), "same seed, same timings");
        assert!(a >= base && a <= base + 8 * 2 * 800);
    }

    #[test]
    fn same_seed_yields_identical_fault_streams() {
        let stream = |seed: u64| {
            let (_, net) = fabric();
            net.bind("a:1", Arc::new(Echo)).unwrap();
            net.set_fault_seed(seed);
            net.peer("a:1").fault_plan(FaultPlan {
                drop_probability: 0.3,
                timeout_probability: 0.2,
                reset_probability: 0.1,
                ..FaultPlan::default()
            });
            let mut out = Vec::new();
            for _ in 0..32 {
                let mut conn = net.dial("a:1").unwrap();
                out.push(conn.exchange(b"x").is_ok());
            }
            out
        };
        assert_eq!(stream(99), stream(99));
        assert_ne!(stream(99), stream(100));
    }

    #[test]
    fn inert_domain_does_not_change_fault_streams() {
        // Streams are keyed by address (or address and route prefix): a
        // domain that covers none of the traffic leaves every decision
        // and every simulated timing unchanged.
        let run = |with_domain: bool| {
            let (clock, net) = fabric();
            if with_domain {
                install_idle_domain(&net);
            }
            for i in 0..8 {
                net.bind(&format!("node-{i}:443"), Arc::new(Echo)).unwrap();
            }
            net.set_fault_seed(0xFEED);
            for i in 0..8 {
                net.peer(&format!("node-{i}:443")).fault_plan(FaultPlan {
                    drop_probability: 0.4,
                    jitter_us: 900,
                    ..FaultPlan::default()
                });
            }
            net.peer("node-0:443")
                .fault_plan_for_route(
                    "/v1",
                    FaultPlan {
                        reset_probability: 0.5,
                        ..FaultPlan::default()
                    },
                )
                .fault_plan_for_route("/v1/healthz", FaultPlan::default());
            net.peer("node-1:443").fault_plan(FaultPlan::fail_first(3));
            let mut outcomes = Vec::new();
            for round in 0..16 {
                for i in 0..8 {
                    let address = format!("node-{}:443", (i + round) % 8);
                    let route = ["/v1/healthz", "/v1/users", "/other"][(i + round) % 3];
                    let outcome = net
                        .dial(&address)
                        .and_then(|mut conn| conn.exchange_routed(route, b"x"));
                    outcomes.push((address, route, outcome));
                }
            }
            (outcomes, clock.now_us(), net.faults_injected())
        };
        let plain = run(false);
        assert!(plain.2 > 3, "the workload must inject faults");
        assert_eq!(plain, run(true));
    }

    #[test]
    fn batch_coalesces_mutations_into_one_republish() {
        let build = |batched: bool| {
            let (_, net) = fabric();
            let before = net.fabric.view_gen.load(Ordering::SeqCst);
            let provision = |net: &SimNet| {
                for i in 0..50 {
                    let address = format!("node-{i}:443");
                    net.bind(&address, Arc::new(Echo)).unwrap();
                    net.peer(&address).latency_us(1_000 + i);
                }
            };
            if batched {
                net.batch(|net| provision(net));
            } else {
                provision(&net);
            }
            let republishes = net.fabric.view_gen.load(Ordering::SeqCst) - before;
            (net, republishes)
        };
        let (batched, batched_gens) = build(true);
        let (unbatched, unbatched_gens) = build(false);
        // One generation bump to invalidate clean stamps when the first
        // mutation edits the pending view, one for the single publish —
        // versus one per mutation unbatched.
        assert_eq!(batched_gens, 2);
        assert_eq!(unbatched_gens, 100);
        assert_eq!(batched.view_fingerprint(), unbatched.view_fingerprint());
        // The published view serves dials as usual.
        let mut conn = batched.dial("node-7:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
    }

    #[test]
    fn batch_preserves_program_order_for_own_dials() {
        let (clock, net) = fabric();
        net.set_fault_seed(0xBA7C);
        let echoed = net.batch(|net| {
            // A bind must be visible to a dial later in the same
            // batch (the deferral only delays the *published* view).
            net.bind("kds:443", Arc::new(Echo)).unwrap();
            let mut conn = net.dial("kds:443").unwrap();
            let echoed = conn.exchange(b"ping").unwrap();
            // A plan installed mid-batch governs the very next
            // exchange, exactly as it would outside a batch.
            net.peer("kds:443").fault_plan(FaultPlan::outage());
            let mut conn = net.dial("kds:443").unwrap();
            assert!(matches!(conn.exchange(b"q"), Err(NetError::Dropped(_))));
            echoed
        });
        assert_eq!(echoed, b"ping");
        assert_eq!(net.faults_injected(), 1);
        assert!(clock.now_us() > 0);
    }

    #[test]
    fn nested_batches_flush_at_outermost_exit() {
        let (_, net) = fabric();
        let before = net.fabric.view_gen.load(Ordering::SeqCst);
        net.batch(|net| {
            net.bind("outer:443", Arc::new(Echo)).unwrap();
            net.batch(|net| {
                net.bind("inner:443", Arc::new(Echo)).unwrap();
            });
            // The inner scope ended but the outer batch is still open:
            // nothing has been published yet beyond the stamp bump.
            assert_eq!(net.fabric.view_gen.load(Ordering::SeqCst), before + 1);
        });
        assert_eq!(net.fabric.view_gen.load(Ordering::SeqCst), before + 2);
        net.dial("outer:443").unwrap();
        net.dial("inner:443").unwrap();
    }

    #[test]
    fn batch_flushes_even_when_the_closure_panics() {
        let (_, net) = fabric();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.batch(|net| {
                net.bind("survivor:443", Arc::new(Echo)).unwrap();
                panic!("mid-batch failure");
            })
        }));
        assert!(result.is_err());
        // The guard published the pending view on unwind: the bind is
        // published and the batch depth is back to zero (the published
        // view serves the dial).
        assert_eq!(net.fabric.batch_depth.load(Ordering::Relaxed), 0);
        let mut conn = net.dial("survivor:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
    }

    #[test]
    fn large_batch_converges_to_unbatched_view() {
        // 1,074 binds touch most of the tree's 4,096 leaf buckets, so the
        // pending view copies nearly every path on first touch and edits
        // many in place afterwards; the result must be indistinguishable.
        const NODES: usize = 1_074;
        let (_, net) = fabric();
        net.batch(|net| {
            for i in 0..NODES {
                net.bind(&format!("node-{i}:443"), Arc::new(Echo)).unwrap();
            }
        });
        let (_, twin) = fabric();
        for i in 0..NODES {
            twin.bind(&format!("node-{i}:443"), Arc::new(Echo)).unwrap();
        }
        assert_eq!(net.view_fingerprint(), twin.view_fingerprint());
        assert_eq!(net.routing_memory_bytes(), twin.routing_memory_bytes());
        net.dial(&format!("node-{}:443", NODES - 1)).unwrap();
    }

    #[test]
    fn view_fingerprint_lists_every_entry_and_plan() {
        let (_, net) = fabric();
        net.set_fault_seed(0xF1F1);
        net.bind("kds:443", Arc::new(Echo)).unwrap();
        net.bind("vm:8080", Arc::new(Echo)).unwrap();
        net.peer("kds:443")
            .latency_us(30_000)
            .fault_plan(FaultPlan {
                drop_probability: 0.25,
                ..FaultPlan::default()
            });
        net.peer("vm:8080")
            .fault_plan_for_route("/attest", FaultPlan::fail_first(2));
        net.peer("vm:8080").redirect_to("kds:443");
        let print = net.view_fingerprint();
        assert!(print
            .contains("kds:443 | listener:1 latency:Some(30000) redirect:None tamper:0 plan:["));
        assert!(print.contains(
            "vm:8080 | listener:1 latency:None redirect:Some(\"kds:443\") tamper:0 route:/attest:["
        ));
        assert!(print.ends_with("-- entries:2 planned:2 domains:0\n"));
    }

    #[test]
    fn view_fingerprint_lists_domains_and_reads_the_pending_view() {
        let (_, net) = fabric();
        net.install_fault_domain(
            FaultDomain::partition("rack-1", "10.1.")
                .starting_at_us(5)
                .healing_at_us(9),
        );
        let inside = net.batch(|net| {
            net.install_fault_domain(
                FaultDomain::degraded("lossy", "10.2.", FaultPlan::outage()).from_sources("10.3."),
            );
            net.bind("10.2.0.1:443", Arc::new(Echo)).unwrap();
            net.view_fingerprint()
        });
        assert_eq!(inside, net.view_fingerprint());
        assert!(inside.contains(
            "domain rack-1 | effect:partition window:5..Some(9) timeout:1000000 \
             dst:[\"10.1.\"] src:[]\n"
        ));
        assert!(inside.contains(
            "domain lossy | effect:degraded[d1.0/t0.0/r0.0/ff0/to1000000/j0] \
             window:0..None timeout:1000000 dst:[\"10.2.\"] src:[\"10.3.\"]\n"
        ));
        assert!(inside.ends_with("-- entries:1 planned:0 domains:2\n"));
    }

    #[test]
    fn route_plan_governs_matching_exchanges_only() {
        for (_, net) in fabrics() {
            net.bind("kds:443", Arc::new(Echo)).unwrap();
            net.set_fault_seed(11);
            net.peer("kds:443")
                .fault_plan_for_route("/vcek", FaultPlan::outage());
            let mut conn = net.dial("kds:443").unwrap();
            // The lossy route drops; its sibling is untouched.
            assert!(matches!(
                conn.exchange_routed("/vcek", b"q"),
                Err(NetError::Dropped(_))
            ));
            let mut conn = net.dial("kds:443").unwrap();
            assert!(conn.exchange_routed("/cert_chain", b"q").is_ok());
            // Unrouted exchanges never match a non-empty prefix.
            let mut conn = net.dial("kds:443").unwrap();
            assert!(conn.exchange(b"q").is_ok());
            assert_eq!(net.faults_injected(), 1);
        }
    }

    #[test]
    fn longest_route_prefix_wins_and_address_plan_is_fallback() {
        for (_, net) in fabrics() {
            net.bind("api:443", Arc::new(Echo)).unwrap();
            net.set_fault_seed(12);
            // Address-wide: resets. /v1: drops. /v1/healthz: clean.
            net.peer("api:443")
                .fault_plan(FaultPlan {
                    reset_probability: 1.0,
                    ..FaultPlan::default()
                })
                .fault_plan_for_route("/v1", FaultPlan::outage())
                .fault_plan_for_route("/v1/healthz", FaultPlan::default());
            let mut conn = net.dial("api:443").unwrap();
            assert!(conn.exchange_routed("/v1/healthz", b"q").is_ok());
            let mut conn = net.dial("api:443").unwrap();
            assert!(matches!(
                conn.exchange_routed("/v1/users", b"q"),
                Err(NetError::Dropped(_))
            ));
            let mut conn = net.dial("api:443").unwrap();
            assert_eq!(
                conn.exchange_routed("/other", b"q"),
                Err(NetError::ConnectionClosed)
            );
        }
    }

    #[test]
    fn route_streams_are_independent_of_sibling_traffic() {
        // Hammering one route must not perturb another route's decision
        // stream — the per-(address, prefix) seeding at work.
        let outcomes = |noise: usize| {
            let (_, net) = fabric();
            net.bind("kds:443", Arc::new(Echo)).unwrap();
            net.set_fault_seed(77);
            net.peer("kds:443")
                .fault_plan_for_route(
                    "/vcek",
                    FaultPlan {
                        drop_probability: 0.5,
                        ..FaultPlan::default()
                    },
                )
                .fault_plan_for_route(
                    "/cert_chain",
                    FaultPlan {
                        drop_probability: 0.5,
                        ..FaultPlan::default()
                    },
                );
            let mut conn = net.dial("kds:443").unwrap();
            for _ in 0..noise {
                let _ = conn.exchange_routed("/cert_chain", b"noise");
            }
            let mut out = Vec::new();
            for _ in 0..16 {
                let mut conn = net.dial("kds:443").unwrap();
                out.push(conn.exchange_routed("/vcek", b"q").is_ok());
            }
            out
        };
        assert_eq!(outcomes(0), outcomes(13));
    }

    #[test]
    fn peer_clear_removes_all_shaping() {
        for (clock, net) in fabrics() {
            net.bind("a:1", Arc::new(Marker(b"a"))).unwrap();
            net.bind("b:1", Arc::new(Marker(b"b"))).unwrap();
            net.set_fault_seed(1);
            net.peer("a:1")
                .latency_us(99_000)
                .tamper(Arc::new(|m: &[u8]| m.to_vec()))
                .redirect_to("b:1")
                .fault_plan(FaultPlan::fail_first(100))
                .fault_plan_for_route("/x", FaultPlan::outage());
            assert!(net.dial("a:1").is_err());
            net.peer("a:1").clear();
            let start = clock.now_us();
            let mut conn = net.dial("a:1").unwrap();
            assert_eq!(conn.exchange(b"q").unwrap(), b"a");
            assert_eq!(clock.now_us() - start, 2000);
            assert_eq!(net.faults_injected(), 1);
        }
    }

    #[test]
    fn fault_observer_sees_every_injection() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for (_, net) in fabrics() {
            net.bind("a:1", Arc::new(Echo)).unwrap();
            net.set_fault_seed(1);
            net.peer("a:1").fault_plan(FaultPlan::outage());
            let seen = Arc::new(AtomicU32::new(0));
            let seen2 = Arc::clone(&seen);
            net.set_fault_observer(Arc::new(move |address, kind| {
                assert_eq!(address, "a:1");
                assert_eq!(kind, FaultKind::Dropped);
                seen2.fetch_add(1, Ordering::SeqCst);
            }));
            for _ in 0..5 {
                let mut conn = net.dial("a:1").unwrap();
                let _ = conn.exchange(b"x");
            }
            assert_eq!(seen.load(Ordering::SeqCst), 5);
            assert_eq!(net.faults_injected(), 5);
        }
    }

    #[test]
    fn connections_have_independent_handler_state() {
        struct Counter;
        impl Listener for Counter {
            fn accept(&self) -> Box<dyn ConnectionHandler> {
                struct H(u32);
                impl ConnectionHandler for H {
                    fn on_message(&mut self, _m: &[u8]) -> Result<Vec<u8>, NetError> {
                        self.0 += 1;
                        Ok(vec![self.0 as u8])
                    }
                }
                Box::new(H(0))
            }
        }
        for (_, net) in fabrics() {
            net.bind("a:1", Arc::new(Counter)).unwrap();
            let mut c1 = net.dial("a:1").unwrap();
            let mut c2 = net.dial("a:1").unwrap();
            assert_eq!(c1.exchange(b"").unwrap(), vec![1]);
            assert_eq!(c1.exchange(b"").unwrap(), vec![2]);
            assert_eq!(c2.exchange(b"").unwrap(), vec![1]);
        }
    }

    #[test]
    fn unbind_all_releases_every_listener() {
        let (_, net) = fabric();
        let listener: Arc<dyn Listener> = Arc::new(Echo);
        for i in 0..40 {
            net.bind(&format!("n{i}:443"), Arc::clone(&listener))
                .unwrap();
        }
        net.peer("n0:443").latency_us(10);
        net.unbind_all();
        assert_eq!(
            Arc::strong_count(&listener),
            1,
            "a listener outlived unbind_all"
        );
        assert!(matches!(
            net.dial("n1:443"),
            Err(NetError::ConnectionRefused(_))
        ));
        // Shaping is not a listener: it stays.
        assert!(net
            .view_fingerprint()
            .contains("n0:443 | listener:0 latency:Some(10)"));
        net.bind("n1:443", listener).unwrap();
        net.dial("n1:443").unwrap();
    }

    #[test]
    fn snapshot_sees_mutations_in_program_order() {
        // Republish happens inside the mutating call, so a bind/shape
        // followed by a dial on the same thread always observes it.
        let (_, net) = fabric();
        for round in 0..32 {
            let address = format!("churn-{round}:443");
            net.bind(&address, Arc::new(Echo)).unwrap();
            net.dial(&address).expect("bound just now");
            net.unbind(&address);
            assert!(net.dial(&address).is_err(), "unbind not visible");
        }
    }

    #[test]
    fn partition_domain_blocks_dials_until_it_heals() {
        use crate::domain::FaultDomain;
        let (clock, net) = fabric();
        net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
        net.bind("10.2.0.1:443", Arc::new(Echo)).unwrap();
        net.install_fault_domain(
            FaultDomain::partition("rack-1", "10.1.")
                .healing_at_us(clock.now_us() + 5_000_000)
                .with_timeout_us(250_000),
        );
        // Inside the partition: the dial times out and charges the
        // discovery timeout to the clock.
        let start = clock.now_us();
        assert!(matches!(
            net.dial("10.1.0.1:443"),
            Err(NetError::Timeout(_))
        ));
        assert_eq!(clock.now_us() - start, 250_000);
        assert_eq!(net.faults_injected(), 1);
        // A sibling subnet is untouched.
        let mut conn = net.dial("10.2.0.1:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
        // After the scheduled heal the subnet is reachable again.
        clock.advance_us(5_000_000);
        let mut conn = net.dial("10.1.0.1:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
    }

    #[test]
    fn partition_domain_drops_inflight_exchanges() {
        use crate::domain::FaultDomain;
        let (_, net) = fabric();
        net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
        let mut conn = net.dial("10.1.0.1:443").unwrap();
        conn.exchange(b"x").unwrap();
        // The partition arrives while the connection is open: further
        // exchanges are dropped, not delivered.
        net.install_fault_domain(FaultDomain::partition("rack-1", "10.1."));
        assert!(matches!(conn.exchange(b"x"), Err(NetError::Dropped(_))));
        assert_eq!(net.faults_injected(), 1);
        // Like every injected fault, the drop closes the connection.
        assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
        net.clear_fault_domain("rack-1");
        let mut conn = net.dial("10.1.0.1:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
    }

    #[test]
    fn asymmetric_domain_only_hits_bound_sources() {
        use crate::domain::FaultDomain;
        let (_, net) = fabric();
        net.bind("10.2.0.1:443", Arc::new(Echo)).unwrap();
        net.install_fault_domain(FaultDomain::partition("uplink", "10.2.").from_sources("10.1."));
        // An unbound handle (no source address) does not match a
        // source-scoped domain.
        let mut conn = net.dial("10.2.0.1:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
        // The reverse direction from an unaffected source also works.
        let from_safe = net.bound_to("10.3.0.9:443");
        assert!(from_safe.dial("10.2.0.1:443").is_ok());
        // Traffic *from* the 10.1. subnet is dark.
        let from_dark = net.bound_to("10.1.0.9:443");
        assert_eq!(from_dark.local_address(), Some("10.1.0.9:443"));
        assert!(matches!(
            from_dark.dial("10.2.0.1:443"),
            Err(NetError::Timeout(_))
        ));
    }

    #[test]
    fn degraded_domain_streams_are_deterministic_and_reseedable() {
        use crate::domain::{DomainEffect, FaultDomain};
        let outcomes = |seed: u64, noise: usize| {
            let (_, net) = fabric();
            net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
            net.bind("10.1.0.2:443", Arc::new(Echo)).unwrap();
            net.set_fault_seed(seed);
            net.install_fault_domain(FaultDomain::degraded(
                "lossy",
                "10.1.",
                FaultPlan {
                    drop_probability: 0.5,
                    ..FaultPlan::default()
                },
            ));
            // Hammering a sibling destination must not perturb this
            // destination's stream (per-(domain, dst) seeding).
            for _ in 0..noise {
                let mut sibling = net.dial("10.1.0.2:443").unwrap();
                let _ = sibling.exchange(b"noise");
            }
            (0..16)
                .map(|_| {
                    let mut conn = net.dial("10.1.0.1:443").unwrap();
                    conn.exchange(b"q").is_ok()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(7, 0), outcomes(7, 13));
        assert_ne!(outcomes(7, 0), outcomes(8, 0));

        // Degraded domains leave dials alone (the link is up, just
        // lossy) and reseeding mid-run restarts the streams.
        let (_, net) = fabric();
        net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
        net.set_fault_seed(7);
        net.install_fault_domain(FaultDomain::degraded(
            "lossy",
            "10.1.",
            FaultPlan {
                drop_probability: 0.5,
                ..FaultPlan::default()
            },
        ));
        let run = |net: &SimNet| {
            (0..16)
                .map(|_| {
                    let mut conn = net.dial("10.1.0.1:443").unwrap();
                    conn.exchange(b"q").is_ok()
                })
                .collect::<Vec<_>>()
        };
        let first = run(&net);
        assert!(first.iter().any(|ok| !ok), "plan never fired");
        net.set_fault_seed(7);
        assert_eq!(first, run(&net), "reseeding must restart the streams");
        // Replacing by name swaps the effect: 10.1. is clean again.
        net.install_fault_domain(FaultDomain::partition("lossy", "10.9."));
        assert!(run(&net).iter().all(|ok| *ok));
        net.clear_fault_domains();
        assert!(matches!(
            FaultDomain::partition("x", "10.").effect,
            DomainEffect::Partition
        ));
    }

    #[test]
    fn domains_take_precedence_over_address_plans() {
        use crate::domain::FaultDomain;
        let (_, net) = fabric();
        net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
        net.set_fault_seed(1);
        // The address plan alone would reset the connection; the
        // partition (the lower layer) wins and drops instead.
        net.peer("10.1.0.1:443").fault_plan(FaultPlan {
            reset_probability: 1.0,
            ..FaultPlan::default()
        });
        let mut conn = net.dial("10.1.0.1:443").unwrap();
        net.install_fault_domain(FaultDomain::partition("rack-1", "10.1."));
        assert!(matches!(conn.exchange(b"x"), Err(NetError::Dropped(_))));
        net.clear_fault_domain("rack-1");
        assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
    }

    #[test]
    fn concurrent_dials_to_disjoint_addresses_succeed() {
        for (_, net) in fabrics() {
            for i in 0..64 {
                net.bind(&format!("n{i}:443"), Arc::new(Echo)).unwrap();
            }
            std::thread::scope(|s| {
                for t in 0..8 {
                    let net = net.clone();
                    s.spawn(move || {
                        for i in 0..64 {
                            let address = format!("n{}:443", (t * 8 + i) % 64);
                            let mut conn = net.dial(&address).unwrap();
                            assert_eq!(conn.exchange(b"ping").unwrap(), b"ping");
                        }
                    });
                }
            });
        }
    }
}
