//! The simulated network fabric: listeners, connections, latency, and
//! man-in-the-middle hooks.
//!
//! # One fabric: shard maps under a lock-free routing view
//!
//! The fabric is built for thousand-node fleets driven from many OS
//! threads. All per-address state (listeners, latency overrides,
//! redirects, tamper hooks, fault plans) lives in a fixed array of
//! sixteen `RwLock` shards keyed by `fnv1a(address)` — the
//! **write-side store**. Every mutating operation (bind/unbind, shaper
//! edits, fault-domain install/heal) republishes an immutable
//! `RoutingView` behind a [`crate::snapshot::Snapshot`] before it
//! returns, and a dial to a clean address — no fault plan, no fault
//! domain — touches **zero locks**: one atomic snapshot load, one hash
//! lookup, done.
//!
//! The view is a persistent slot tree ([`crate::view::SlotTree`]): a
//! single-address republish path-copies O(levels) interior nodes and
//! shares everything else with the previous view, and [`SimNet::batch`]
//! coalesces a burst of mutations (fleet provisioning) into one
//! republish. Fault draws read **live entries published inside the
//! view** (`Arc<Mutex<FaultEntry>>` shared with the shard maps), so
//! chaos-mode traffic locks only a per-entry mutex, never a shard.
//!
//! The shard maps are also the slow read path: while a fault domain is
//! installed or a batch is open, dials and exchanges read them under a
//! read lock (`dial_locked`, `fault_decision_locked`), because domain
//! activity depends on sim time and a batch's view is stale until it
//! flushes.
//!
//! # Determinism
//!
//! Every fault stream is keyed by its address (or `(address,
//! route-prefix)`) and seeded as `fabric_seed ^ fnv1a(key)`, so equal
//! seeds produce byte-identical decision streams regardless of thread
//! count, dial interleaving across addresses, or whether a draw went
//! through the view or the shard maps. Mutations republish the view
//! before returning, so a thread observes its own writes in program
//! order. The global fault counter is a relaxed atomic: its total is a
//! sum of per-stream counts and therefore equally
//! interleaving-independent.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::clock::SimClock;
use crate::domain::{domain_stream_key, DomainEffect, FaultDomain};
use crate::fault::{fnv1a, route_stream_key, FaultEntry, FaultKind, FaultObserver, FaultPlan};
use crate::snapshot::Snapshot;
use crate::view::{PeerExtra, PeerView, SharedFaultEntry, SlotTree};
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

/// Everything a clean (fault-free) dial needs from the routing view:
/// the effective listener, an optional one-way latency override, and an
/// optional tamper hook. `None` means nothing listens at the address.
type CleanRoute = Option<(Arc<dyn Listener>, Option<u64>, Option<Arc<TamperFn>>)>;

/// Shard count: enough to keep 16 benchmark threads off each other's
/// cache lines without bloating small single-threaded worlds. A power of
/// two, so an address's shard is `fnv1a(address) & (SHARDS - 1)`.
const SHARDS: usize = 16;

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

/// All per-address state of one shard.
#[derive(Default)]
struct ShardState {
    listeners: HashMap<String, Arc<dyn Listener>>,
    latency_overrides: HashMap<String, u64>,
    redirects: HashMap<String, String>,
    tamper: HashMap<String, Arc<TamperFn>>,
    /// Address-wide fault plans. Entries are shared (`Arc<Mutex<_>>`)
    /// with the published routing view, so the view and the locked
    /// fallback consume the same decision stream.
    faults: HashMap<String, SharedFaultEntry>,
    /// Per-route fault plans: address → `(path-prefix, entry)` list. The
    /// longest matching prefix wins; the address-wide plan is the
    /// fallback when no prefix matches.
    route_faults: HashMap<String, Vec<(String, SharedFaultEntry)>>,
}

impl ShardState {
    /// Builds the published view of one address from this slot's maps —
    /// the incremental-republish unit: six single-key lookups, not a
    /// whole-slot collapse. Returns `None` when nothing is known.
    fn peer_view_of(&self, address: &str) -> Option<PeerView> {
        let redirect = self.redirects.get(address).cloned();
        let tamper = self.tamper.get(address).cloned();
        let fault = self.faults.get(address).cloned();
        let routes: Option<Arc<[(String, SharedFaultEntry)]>> =
            self.route_faults.get(address).map(|routes| {
                routes
                    .iter()
                    .map(|(prefix, entry)| (prefix.clone(), Arc::clone(entry)))
                    .collect()
            });
        let extra = (redirect.is_some() || tamper.is_some() || fault.is_some() || routes.is_some())
            .then(|| {
                Box::new(PeerExtra {
                    redirect,
                    tamper,
                    fault,
                    routes,
                })
            });
        let view = PeerView {
            listener: self.listeners.get(address).cloned(),
            latency_us: self.latency_overrides.get(address).copied(),
            extra,
        };
        (!view.is_empty()).then_some(view)
    }

    /// Appends every address known to this slot, with its view, to
    /// `out` (the full-rebuild path). Merges the six maps in one pass —
    /// one probe per stored fact — instead of calling [`Self::peer_view_of`]
    /// (six probes) per address; on a freshly provisioned fleet, where
    /// almost every address has exactly one fact (its listener), that is
    /// six times fewer hash lookups on the batch-overflow flush.
    fn collect_views(&self, out: &mut Vec<(String, PeerView)>) {
        // Freshly provisioned shards hold exactly one fact per address —
        // its listener. Skip the merge map entirely for that shape; it
        // is the whole working set of the batch-overflow flush right
        // after `deploy_fleet`.
        if self.latency_overrides.is_empty()
            && self.redirects.is_empty()
            && self.tamper.is_empty()
            && self.faults.is_empty()
            && self.route_faults.is_empty()
        {
            out.reserve(self.listeners.len());
            for (address, listener) in &self.listeners {
                out.push((
                    address.clone(),
                    PeerView {
                        listener: Some(Arc::clone(listener)),
                        ..PeerView::default()
                    },
                ));
            }
            return;
        }
        let mut views: HashMap<&str, PeerView> = HashMap::with_capacity(self.listeners.len());
        for (address, listener) in &self.listeners {
            views.entry(address.as_str()).or_default().listener = Some(Arc::clone(listener));
        }
        for (address, latency) in &self.latency_overrides {
            views.entry(address.as_str()).or_default().latency_us = Some(*latency);
        }
        for (address, target) in &self.redirects {
            views
                .entry(address.as_str())
                .or_default()
                .extra_mut()
                .redirect = Some(target.clone());
        }
        for (address, tamper) in &self.tamper {
            views
                .entry(address.as_str())
                .or_default()
                .extra_mut()
                .tamper = Some(Arc::clone(tamper));
        }
        for (address, entry) in &self.faults {
            views.entry(address.as_str()).or_default().extra_mut().fault = Some(Arc::clone(entry));
        }
        for (address, routes) in &self.route_faults {
            views
                .entry(address.as_str())
                .or_default()
                .extra_mut()
                .routes = Some(
                routes
                    .iter()
                    .map(|(prefix, entry)| (prefix.clone(), Arc::clone(entry)))
                    .collect(),
            );
        }
        out.reserve(views.len());
        for (address, view) in views {
            if !view.is_empty() {
                out.push((address.to_owned(), view));
            }
        }
    }
}

/// The immutable routing snapshot published by mutating operations. The
/// routing data lives in a persistent [`SlotTree`] keyed by the address
/// hash, so a republish path-copies O(levels) nodes.
struct RoutingView {
    tree: SlotTree,
    /// Whether any fault domain is installed. Domain activity windows
    /// depend on sim time, so the view only gates the emptiness check;
    /// non-empty sends dials to the locked domain logic.
    has_domains: bool,
    /// No plan on any peer (the tree's stored planned count is zero) and
    /// no domain installed: the per-exchange fault check can answer
    /// "clean" from two field loads, without hashing the dialed address
    /// into the tree. On a faultless fleet (the common case, and the
    /// benchmark's browse phase) this is what keeps the snapshot
    /// exchange cheaper than an uncontended lock.
    all_clean: bool,
    /// Publish sequence number, strictly increasing across republishes.
    /// A [`Connection`] stamps its dial-time clean verdict with this and
    /// [`Fabric::view_gen`] revalidates it per exchange with one atomic
    /// load: generations equal ⟹ the live view is the very one the
    /// verdict came from.
    generation: u64,
}

impl RoutingView {
    fn peer(&self, address: &str) -> Option<&PeerView> {
        self.tree.peer(address)
    }

    /// The stored-flag value: true iff no peer carries a plan and no
    /// domain is installed.
    fn derive_all_clean(tree: &SlotTree, has_domains: bool) -> bool {
        !has_domains && tree.planned() == 0
    }
}

/// Once a batch has deferred this many distinct republishes, the flush
/// switches from incremental leaf updates to one full rebuild — at that
/// size the rebuild is cheaper than path-copying per address.
const BATCH_REBUILD_THRESHOLD: usize = 1024;

/// Mutations deferred by an open [`SimNet::batch`] scope.
#[derive(Default)]
struct BatchState {
    /// Nesting depth of open batch scopes (batches compose).
    depth: usize,
    /// Addresses whose view entry must be refreshed at flush time.
    /// Duplicates are fine — the flush dedupes.
    dirty: Vec<String>,
    /// Set once `dirty` crosses [`BATCH_REBUILD_THRESHOLD`]: the flush
    /// rebuilds the whole tree instead of tracking every address.
    rebuild_all: bool,
}

/// One installed [`FaultDomain`] plus its lazily created per-destination
/// decision streams (degraded domains only; partitions draw nothing).
struct DomainState {
    domain: FaultDomain,
    entries: HashMap<String, FaultEntry>,
}

/// The shared interior of a [`SimNet`] (and of every [`Connection`]).
struct Fabric {
    /// The write-side store; an address lives in shard
    /// `fnv1a(address) & (SHARDS - 1)`.
    shards: [RwLock<ShardState>; SHARDS],
    /// The published routing snapshot.
    view: Snapshot<RoutingView>,
    /// Generation of the latest *published or in-flight* routing view.
    /// Bumped (fetch-add) before every swap, so the counter is never
    /// behind a live view: a connection's stamped generation matching
    /// this counter proves the view it judged clean is still the live
    /// one (a counter ahead of the view merely forces a spurious
    /// re-check). A batch's first deferred mutation also bumps it, which
    /// is what invalidates every outstanding clean stamp while the view
    /// is stale. Exchanges validate against it with a single atomic
    /// load — the cheapest possible clean-path fault check.
    view_gen: AtomicU64,
    /// Nonzero while a [`SimNet::batch`] scope is open somewhere. The
    /// snapshot fast paths check it (one relaxed load) and fall back to
    /// the locked path while mutations are deferred — a thread inside
    /// its own batch therefore still observes its writes in program
    /// order. Mirrors `batch.depth`; the mutex holds the truth.
    batch_depth: AtomicUsize,
    /// Deferred-republish state for open batch scopes.
    batch: Mutex<BatchState>,
    /// Fabric-wide fault seed; per-stream RNGs derive from it.
    fault_seed: AtomicU64,
    /// Total faults injected. Relaxed: the total is a sum of per-stream
    /// counts, so no ordering is needed for it to be deterministic.
    faults_injected: AtomicU64,
    fault_observer: RwLock<Option<Arc<FaultObserver>>>,
    /// Correlated-failure domains, fabric-wide because a domain spans
    /// shards. Not a shard lock: the no-domain fast path is a view flag,
    /// and the locked fallback checks emptiness under one read lock.
    domains: RwLock<Vec<DomainState>>,
}

impl Fabric {
    fn new() -> Self {
        Fabric {
            shards: std::array::from_fn(|_| RwLock::default()),
            view: Snapshot::new(Arc::new(RoutingView {
                tree: SlotTree::default(),
                has_domains: false,
                all_clean: true,
                generation: 0,
            })),
            view_gen: AtomicU64::new(0),
            batch_depth: AtomicUsize::new(0),
            batch: Mutex::new(BatchState::default()),
            fault_seed: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            fault_observer: RwLock::new(None),
            domains: RwLock::new(Vec::new()),
        }
    }

    /// The shard `address` lives in.
    fn shard(&self, address: &str) -> &RwLock<ShardState> {
        &self.shards[(fnv1a(address) & (SHARDS as u64 - 1)) as usize]
    }

    /// Runs `f` under a read lock on `address`'s shard. Never called with
    /// another shard lock held, so two-shard lookups cannot deadlock.
    fn read<R>(&self, address: &str, f: impl FnOnce(&ShardState) -> R) -> R {
        f(&self.shard(address).read())
    }

    /// Runs `f` under a write lock on `address`'s shard.
    fn write<R>(&self, address: &str, f: impl FnOnce(&mut ShardState) -> R) -> R {
        f(&mut self.shard(address).write())
    }

    /// Runs `f` on every shard in turn (write-locked one at a time).
    fn for_each_shard(&self, mut f: impl FnMut(&mut ShardState)) {
        for shard in &self.shards {
            f(&mut shard.write());
        }
    }

    /// The generation for the next published view, bumped with a
    /// fetch-add so it is strictly increasing across republishes *and*
    /// batch-start bumps — a stale clean stamp can therefore never alias
    /// a later generation. Republish callers hold the snapshot writer
    /// lock; bumping before the swap keeps the counter never-behind the
    /// live view (see `view_gen`'s invariant).
    fn next_view_gen(&self) -> u64 {
        self.view_gen.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Republishes the snapshot entry for `address` (after a mutation
    /// there). Inside an open batch scope the republish is deferred:
    /// the address is noted dirty and the flush publishes everything at
    /// once.
    fn republish_address(&self, address: &str) {
        if self.batch_depth.load(Ordering::Relaxed) > 0 {
            let mut batch = self.batch.lock();
            if batch.depth > 0 {
                if !batch.rebuild_all {
                    if batch.dirty.is_empty() {
                        // First deferral of this batch: invalidate every
                        // outstanding clean stamp so connections re-check
                        // (and, seeing the open batch, go locked).
                        self.view_gen.fetch_add(1, Ordering::SeqCst);
                    }
                    if batch.dirty.len() >= BATCH_REBUILD_THRESHOLD {
                        batch.rebuild_all = true;
                        batch.dirty = Vec::new();
                    } else {
                        batch.dirty.push(address.to_owned());
                    }
                }
                return;
            }
            // The batch ended between the atomic check and the lock:
            // publish immediately like any unbatched mutation.
        }
        self.publish_addresses(std::slice::from_ref(&address.to_owned()));
    }

    /// Publishes fresh view entries for `addresses` (deduplicated) in
    /// one copy-on-write tree update. Entry views are computed under the
    /// snapshot writer lock so concurrent republishes of the same
    /// address compose instead of overwriting each other.
    fn publish_addresses(&self, addresses: &[String]) {
        let mut seen: HashSet<&str> = HashSet::with_capacity(addresses.len());
        let unique: Vec<&String> = addresses
            .iter()
            .filter(|a| seen.insert(a.as_str()))
            .collect();
        self.view.update(|current| {
            let updates: Vec<(String, Option<PeerView>)> = unique
                .iter()
                .map(|address| {
                    let entry = self.read(address, |state| state.peer_view_of(address));
                    ((*address).clone(), entry)
                })
                .collect();
            let tree = current.tree.with_updates(updates);
            let all_clean = RoutingView::derive_all_clean(&tree, current.has_domains);
            (
                Arc::new(RoutingView {
                    tree,
                    has_domains: current.has_domains,
                    all_clean,
                    generation: self.next_view_gen(),
                }),
                (),
            )
        });
    }

    /// Rebuilds and republishes the whole view from the shard maps (the
    /// batch-overflow flush path).
    fn publish_rebuild_all(&self) {
        self.view.update(|current| {
            let mut entries = Vec::new();
            for shard in &self.shards {
                shard.read().collect_views(&mut entries);
            }
            let tree = SlotTree::rebuilt_from(entries);
            let all_clean = RoutingView::derive_all_clean(&tree, current.has_domains);
            (
                Arc::new(RoutingView {
                    tree,
                    has_domains: current.has_domains,
                    all_clean,
                    generation: self.next_view_gen(),
                }),
                (),
            )
        });
    }

    /// Republishes the domain-emptiness flag (after install/clear). A
    /// flag-only republish: the new view **shares** the previous view's
    /// tree (one `Arc` clone) instead of cloning any routing data.
    fn republish_domains(&self) {
        self.view.update(|current| {
            let has_domains = !self.domains.read().is_empty();
            let all_clean = RoutingView::derive_all_clean(&current.tree, has_domains);
            (
                Arc::new(RoutingView {
                    tree: current.tree.clone(),
                    has_domains,
                    all_clean,
                    generation: self.next_view_gen(),
                }),
                (),
            )
        });
    }

    /// Opens a batch scope (scopes nest). While open, republishes are
    /// deferred and the snapshot fast paths detour to the locked path,
    /// so every thread still observes its own mutations in program
    /// order.
    fn begin_batch(&self) {
        let mut batch = self.batch.lock();
        batch.depth += 1;
        self.batch_depth.store(batch.depth, Ordering::SeqCst);
    }

    /// Closes a batch scope; the outermost close flushes every deferred
    /// republish in one view update **before** clearing the depth
    /// marker, so a dial can never read a stale view as "not batching".
    fn end_batch(&self) {
        let mut batch = self.batch.lock();
        batch.depth -= 1;
        if batch.depth == 0 {
            let dirty = std::mem::take(&mut batch.dirty);
            let rebuild_all = std::mem::take(&mut batch.rebuild_all);
            if rebuild_all {
                self.publish_rebuild_all();
            } else if !dirty.is_empty() {
                self.publish_addresses(&dirty);
            }
        }
        self.batch_depth.store(batch.depth, Ordering::SeqCst);
    }

    /// Records an injected fault and returns the observer to notify (the
    /// caller invokes it after releasing any shard lock).
    fn record_fault(&self) -> Option<Arc<FaultObserver>> {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        self.fault_observer.read().clone()
    }

    /// Whether an active [`DomainEffect::Partition`] covers `src → dst`
    /// at sim time `now_us`; returns the discovery timeout to charge.
    /// Degraded domains do not fail dials (the link is up, just lossy).
    fn domain_dial_fault(&self, now_us: u64, src: Option<&str>, dst: &str) -> Option<u64> {
        let domains = self.domains.read();
        domains
            .iter()
            .find(|state| {
                matches!(state.domain.effect, DomainEffect::Partition)
                    && state.domain.is_active_at(now_us)
                    && state.domain.matches(src, dst)
            })
            .map(|state| state.domain.timeout_us)
    }

    /// Consults the first active domain covering `src → dst`: a
    /// partition always drops; a degraded domain draws one decision from
    /// its `(domain, dst)` stream. `None` when no domain matches — the
    /// per-address/per-route plans then get their say.
    fn domain_exchange_decision(
        &self,
        now_us: u64,
        src: Option<&str>,
        dst: &str,
    ) -> Option<(u64, Option<FaultKind>, u64)> {
        // Fast path: no domains installed — a read-lock emptiness check.
        if self.domains.read().is_empty() {
            return None;
        }
        let seed = self.fault_seed.load(Ordering::Relaxed);
        let mut domains = self.domains.write();
        for state in domains.iter_mut() {
            if !state.domain.is_active_at(now_us) || !state.domain.matches(src, dst) {
                continue;
            }
            match &state.domain.effect {
                DomainEffect::Partition => {
                    return Some((0, Some(FaultKind::Dropped), state.domain.timeout_us));
                }
                DomainEffect::Degraded(plan) => {
                    let plan = plan.clone();
                    let name = state.domain.name.clone();
                    let entry = state.entries.entry(dst.to_owned()).or_insert_with(|| {
                        FaultEntry::new(plan, seed, &domain_stream_key(&name, dst))
                    });
                    let (jitter, fault) = entry.exchange_decision();
                    return Some((jitter, fault, entry.plan.timeout_us));
                }
            }
        }
        None
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
        self.fabric.write(address, |state| {
            if state.listeners.contains_key(address) {
                return Err(NetError::AddressInUse(address.to_owned()));
            }
            state.listeners.insert(address.to_owned(), listener);
            Ok(())
        })?;
        self.fabric.republish_address(address);
        Ok(())
    }

    /// Removes the listener at `address` (service shutdown).
    pub fn unbind(&self, address: &str) {
        self.fabric.write(address, |state| {
            state.listeners.remove(address);
        });
        self.fabric.republish_address(address);
    }

    /// Removes every listener on the fabric: the teardown of a world.
    /// Listeners routinely own handles on the fabric they are bound to
    /// (a node's routes hold the node, which dials through a `SimNet`),
    /// so a fabric with listeners still bound is never freed.
    pub fn unbind_all(&self) {
        self.fabric.for_each_shard(|state| state.listeners.clear());
        self.fabric.publish_rebuild_all();
    }

    /// Runs `f` with every shaper/bind republish deferred, then publishes
    /// them as **one** routing-view update — the write-side fast path for
    /// bursts like fleet provisioning, where per-mutation republishes
    /// would each copy interior tree nodes for no reader to see.
    ///
    /// Scopes nest; the outermost scope flushes. While a batch is open
    /// anywhere on the fabric, dials and exchanges detour to the locked
    /// read path, so the batching thread still observes its own
    /// mutations in program order (and concurrent readers stay
    /// correct — merely slower until the flush). The flush runs even if
    /// `f` panics.
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
    /// reset). No snapshot republish is needed: plan *presence* — all
    /// the view carries — is unchanged.
    pub fn set_fault_seed(&self, seed: u64) {
        self.fabric.fault_seed.store(seed, Ordering::Relaxed);
        // Entries are shared with the published view, so reseeding them
        // in place (through their own locks) is immediately visible to
        // the view and the locked fallback alike.
        self.fabric.for_each_shard(|state| {
            for (address, entry) in &mut state.faults {
                let mut entry = entry.lock();
                let plan = entry.plan.clone();
                *entry = FaultEntry::new(plan, seed, address);
            }
            for (address, routes) in &mut state.route_faults {
                for (prefix, entry) in routes.iter_mut() {
                    let mut entry = entry.lock();
                    let plan = entry.plan.clone();
                    *entry = FaultEntry::new(plan, seed, &route_stream_key(address, prefix));
                }
            }
        });
        // Degraded-domain streams re-derive lazily from the new seed.
        for state in self.fabric.domains.write().iter_mut() {
            state.entries.clear();
        }
    }

    /// Installs a correlated-failure domain (replacing any domain with
    /// the same name). Domains are evaluated in installation order and
    /// sit **below** the per-address/per-route plans: an active matching
    /// [`DomainEffect::Partition`] times out dials and drops exchanges;
    /// a [`DomainEffect::Degraded`] domain draws per-exchange decisions
    /// from a `(domain, destination)`-keyed stream. See [`FaultDomain`].
    pub fn install_fault_domain(&self, domain: FaultDomain) {
        {
            let mut domains = self.fabric.domains.write();
            let state = DomainState {
                domain,
                entries: HashMap::new(),
            };
            match domains
                .iter_mut()
                .find(|s| s.domain.name == state.domain.name)
            {
                Some(slot) => *slot = state,
                None => domains.push(state),
            }
        }
        self.fabric.republish_domains();
    }

    /// Snapshot of every installed fault domain, in installation order.
    /// The reconciler reads these to learn each outage's scheduled heal
    /// (`until_us`) so it defers re-admission probes until the partition
    /// is due to lift instead of burning retries into a black hole.
    #[must_use]
    pub fn fault_domains(&self) -> Vec<FaultDomain> {
        self.fabric
            .domains
            .read()
            .iter()
            .map(|state| state.domain.clone())
            .collect()
    }

    /// Removes the fault domain named `name` (an unscheduled heal).
    pub fn clear_fault_domain(&self, name: &str) {
        self.fabric
            .domains
            .write()
            .retain(|state| state.domain.name != name);
        self.fabric.republish_domains();
    }

    /// Removes every installed fault domain.
    pub fn clear_fault_domains(&self) {
        self.fabric.domains.write().clear();
        self.fabric.republish_domains();
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

    /// Deterministic estimate of the published routing view's heap
    /// footprint in bytes (structure sizes and string lengths, never
    /// allocator or capacity artifacts). The fleet benchmark divides it
    /// by the node count for its memory-per-node column.
    #[must_use]
    pub fn routing_memory_bytes(&self) -> usize {
        self.fabric
            .view
            .read_at(self.stripe, |view| view.tree.estimated_bytes())
    }

    /// A canonical dump of the fabric's routing state: every published
    /// address sorted, with its listener/latency/redirect/tamper
    /// presence and the full parameters of every installed plan, plus a
    /// planned-count/domain footer. Byte-identical across (after the
    /// flush) batched vs unbatched mutation orders — the write-burst
    /// suites diff it to prove the view converged. Do not call inside an open [`SimNet::batch`]
    /// scope: the snapshot is stale until the flush.
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
        let mut entries: Vec<(String, String, bool)> = Vec::new();
        let view = self.fabric.view.load_at(self.stripe);
        view.tree.for_each(|address, peer| {
            entries.push((address.to_owned(), describe(peer), peer.planned()));
        });
        debug_assert_eq!(entries.len(), view.tree.len(), "tree len out of sync");
        entries.sort();
        let planned = entries.iter().filter(|(_, _, planned)| *planned).count();
        let domains = self.fabric.domains.read().len();
        let mut out = String::new();
        for (address, line, _) in &entries {
            let _ = writeln!(out, "{address} | {line}");
        }
        let _ = writeln!(
            out,
            "-- entries:{} planned:{planned} domains:{domains}",
            entries.len()
        );
        out
    }

    /// Opens a connection to `address`.
    ///
    /// A clean dial — no installed fault plan, no fault domain anywhere —
    /// resolves entirely from the immutable routing view: one atomic
    /// load, no locks. Anything else falls back to the locked path.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ConnectionRefused`] when nothing listens there —
    /// which is exactly what connecting to a Revelio VM's SSH port yields —
    /// or [`NetError::Timeout`] when the address's fault plan is inside a
    /// fail-first window.
    pub fn dial(&self, address: &str) -> Result<Connection, NetError> {
        // While a batch is open the view may be stale: the locked path
        // (reading the authoritative shard maps) keeps program order.
        if self.fabric.batch_depth.load(Ordering::Relaxed) > 0 {
            return self.dial_locked(address);
        }
        // Clean-path resolution happens under a guard-style read (no Arc
        // round-trip); `accept()` and fault bookkeeping run after the
        // guard is gone, so user code (handlers, fault observers) can
        // never stall — or, by republishing, deadlock — a view writer.
        enum Fast {
            Clean(CleanRoute, Option<u64>),
            /// A fail-first window fired; charge this timeout.
            Faulted(u64),
            Fallback,
        }
        let fast = self.fabric.view.read_at(self.stripe, |view| {
            if view.has_domains {
                return Fast::Fallback;
            }
            match view.peer(address) {
                Some(peer) => {
                    if let Some(entry) = peer.fault() {
                        // The view publishes the live entry: the
                        // fail-first window is consumed through its own
                        // (leaf) lock — no shard locks.
                        let mut entry = entry.lock();
                        if entry.dial_fails() {
                            return Fast::Faulted(entry.plan.timeout_us);
                        }
                    }
                    // Exchange-clean (no plan of either kind): stamp the
                    // view generation so exchanges revalidate the verdict
                    // with one atomic load.
                    let clean_gen = (!peer.planned()).then_some(view.generation);
                    Fast::Clean(Self::resolve_clean(view, address, peer), clean_gen)
                }
                // Nothing at all is known about the address: no listener,
                // no redirect, no plan — refused, lock-free.
                None => Fast::Clean(None, None),
            }
        });
        match fast {
            Fast::Clean(Some((listener, latency, tamper)), clean_gen) => Ok(Connection {
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
            Fast::Clean(None, _) => Err(NetError::ConnectionRefused(address.to_owned())),
            Fast::Faulted(timeout_us) => {
                let observer = self.fabric.record_fault();
                self.clock.advance_us(timeout_us);
                if let Some(obs) = observer {
                    obs(address, FaultKind::Timeout);
                }
                Err(NetError::Timeout(address.to_owned()))
            }
            Fast::Fallback => self.dial_locked(address),
        }
    }

    /// Resolves a clean dial's listener, latency override, and tamper
    /// hook from the routing view. `peer` is `address`'s view entry;
    /// `None` means nothing listens at the effective address.
    fn resolve_clean(view: &RoutingView, address: &str, peer: &PeerView) -> CleanRoute {
        // The dialed address wins for latency and tamper lookups: an
        // override installed on the victim keeps applying after a
        // redirect, falling back to the attacker's setting only when the
        // victim has none.
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
        Some((
            listener?,
            peer.latency_us.or(fallback_latency),
            peer.tamper().cloned().or(fallback_tamper),
        ))
    }

    /// The locked dial path: authoritative whenever fault domains are
    /// installed or a batch is open.
    fn dial_locked(&self, address: &str) -> Result<Connection, NetError> {
        // An active partition domain is the lowest network layer: the
        // dial times out before any per-address plan or listener lookup.
        if let Some(timeout_us) =
            self.fabric
                .domain_dial_fault(self.clock.now_us(), self.local.as_deref(), address)
        {
            let observer = self.fabric.record_fault();
            self.clock.advance_us(timeout_us);
            if let Some(obs) = observer {
                obs(address, FaultKind::Timeout);
            }
            return Err(NetError::Timeout(address.to_owned()));
        }
        // One read lock resolves everything about the dialed address;
        // the fail-first draw (when a fault plan is installed) goes
        // through the shared entry's own lock, never a shard write lock
        // (a fail-first window makes the service unreachable: the dial
        // times out before anything is delivered; only address-wide plans
        // apply — the route is not known until an exchange).
        let (fault, redirect, victim_latency, victim_tamper, victim_listener) =
            self.fabric.read(address, |state| {
                (
                    state.faults.get(address).cloned(),
                    state.redirects.get(address).cloned(),
                    state.latency_overrides.get(address).copied(),
                    state.tamper.get(address).cloned(),
                    state.listeners.get(address).cloned(),
                )
            });
        if let Some(entry) = fault {
            let timed_out = {
                let mut entry = entry.lock();
                entry.dial_fails().then_some(entry.plan.timeout_us)
            };
            if let Some(timeout_us) = timed_out {
                let observer = self.fabric.record_fault();
                self.clock.advance_us(timeout_us);
                if let Some(obs) = observer {
                    obs(address, FaultKind::Timeout);
                }
                return Err(NetError::Timeout(address.to_owned()));
            }
        }
        // The dialed address wins for latency and tamper lookups: an
        // override installed on the victim keeps applying after a
        // redirect, falling back to the attacker's setting only when the
        // victim has none.
        let (listener, fallback_latency, fallback_tamper) = match redirect {
            Some(effective) if effective != address => self.fabric.read(&effective, |state| {
                (
                    state.listeners.get(&effective).cloned(),
                    state.latency_overrides.get(&effective).copied(),
                    state.tamper.get(&effective).cloned(),
                )
            }),
            _ => (victim_listener, None, None),
        };
        let listener = listener.ok_or_else(|| NetError::ConnectionRefused(address.to_owned()))?;
        let one_way_us = victim_latency
            .or(fallback_latency)
            .unwrap_or(self.config.default_one_way_us);
        let tamper = victim_tamper.or(fallback_tamper);
        Ok(Connection {
            clock: self.clock.clone(),
            handler: listener.accept(),
            one_way_us,
            tamper,
            dialed: address.to_owned(),
            local: self.local.clone(),
            closed: false,
            timeout_us: FaultPlan::default().timeout_us,
            // Locked dials never stamp a clean verdict: the first
            // exchange consults the view.
            clean_gen: None,
            stripe: self.stripe,
            fabric: Arc::clone(&self.fabric),
        })
    }
}

/// A traffic-shaping handle for one peer address, returned by
/// [`SimNet::peer`]. Every call applies immediately (and republishes the
/// routing snapshot) and returns the handle, so settings chain fluently.
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
    fn fabric(&self) -> &Fabric {
        &self.net.fabric
    }

    /// Sets the one-way latency for dials *to* this address, in
    /// microseconds — e.g. a distant AMD KDS.
    pub fn latency_us(self, one_way_us: u64) -> Self {
        self.fabric().write(&self.address, |state| {
            state
                .latency_overrides
                .insert(self.address.clone(), one_way_us);
        });
        self.fabric().republish_address(&self.address);
        self
    }

    /// ATTACK: installs a message-tampering hook on dials to this address.
    pub fn tamper(self, tamper: Arc<TamperFn>) -> Self {
        self.fabric().write(&self.address, |state| {
            state.tamper.insert(self.address.clone(), tamper);
        });
        self.fabric().republish_address(&self.address);
        self
    }

    /// ATTACK: silently rewires future dials of this address to
    /// `attacker` (BGP hijack / hostile middlebox). TLS endpoint checks
    /// must catch it.
    pub fn redirect_to(self, attacker: &str) -> Self {
        self.fabric().write(&self.address, |state| {
            state
                .redirects
                .insert(self.address.clone(), attacker.to_owned());
        });
        self.fabric().republish_address(&self.address);
        self
    }

    /// Removes a redirect.
    pub fn clear_redirect(self) -> Self {
        self.fabric().write(&self.address, |state| {
            state.redirects.remove(&self.address);
        });
        self.fabric().republish_address(&self.address);
        self
    }

    /// Installs (or replaces) the address-wide fault plan for dials *to*
    /// this address. Plans are keyed by the **dialed** address — under a
    /// redirect the victim's plan applies, matching the latency/tamper
    /// precedence.
    pub fn fault_plan(self, plan: FaultPlan) -> Self {
        let seed = self.fabric().fault_seed.load(Ordering::Relaxed);
        self.fabric().write(&self.address, |state| {
            let entry = Arc::new(Mutex::new(FaultEntry::new(plan, seed, &self.address)));
            state.faults.insert(self.address.clone(), entry);
        });
        self.fabric().republish_address(&self.address);
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
        let seed = self.fabric().fault_seed.load(Ordering::Relaxed);
        self.fabric().write(&self.address, |state| {
            let entry = Arc::new(Mutex::new(FaultEntry::new(
                plan,
                seed,
                &route_stream_key(&self.address, prefix),
            )));
            let routes = state.route_faults.entry(self.address.clone()).or_default();
            match routes.iter_mut().find(|(p, _)| p == prefix) {
                Some(slot) => slot.1 = entry,
                None => routes.push((prefix.to_owned(), entry)),
            }
        });
        self.fabric().republish_address(&self.address);
        self
    }

    /// Removes every fault plan for this address — address-wide and
    /// per-route — the "faults clear" moment.
    pub fn clear_fault_plan(self) -> Self {
        self.fabric().write(&self.address, |state| {
            state.faults.remove(&self.address);
            state.route_faults.remove(&self.address);
        });
        self.fabric().republish_address(&self.address);
        self
    }

    /// Clears *all* shaping for this address: latency override, tamper
    /// hook, redirect, and every fault plan.
    pub fn clear(self) -> Self {
        self.fabric().write(&self.address, |state| {
            state.latency_overrides.remove(&self.address);
            state.tamper.remove(&self.address);
            state.redirects.remove(&self.address);
            state.faults.remove(&self.address);
            state.route_faults.remove(&self.address);
        });
        self.fabric().republish_address(&self.address);
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
    /// governing fault plan on each exchange.
    timeout_us: u64,
    /// `Some(g)` when the routing view at generation `g` judged this
    /// address exchange-clean (no plan of either kind on it, no domain
    /// anywhere). While [`Fabric::view_gen`] still reads `g`, the live
    /// view is that very one, so each exchange's fault check is a single
    /// atomic load. Any republish invalidates the stamp; the next
    /// exchange re-checks against the current view and re-stamps.
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

    /// Consults the governing fault plan for this exchange — the longest
    /// matching route plan, else the address-wide plan — returning the
    /// one-way jitter and the fault to surface, if any. Faults fire
    /// **before** delivery: the handler never runs, so server-side state
    /// is untouched and a retry is always safe.
    ///
    /// The overwhelmingly common clean case — no domains installed, no
    /// plan on this address — is answered from the routing view without
    /// touching a single lock. A *planned* address is almost as cheap:
    /// the view publishes the live fault entries, so the draw locks only
    /// the entry's own mutex. Only fault domains (and open batch scopes)
    /// fall back to the locked path.
    fn fault_decision(&mut self, route: &str) -> (u64, Option<NetError>) {
        // Dial-time (or prior-exchange) clean verdict still valid? One
        // atomic load answers the common case.
        if let Some(gen) = self.clean_gen {
            if self.fabric.view_gen.load(Ordering::SeqCst) == gen {
                return (0, None);
            }
        }
        if self.fabric.batch_depth.load(Ordering::Relaxed) > 0 {
            return self.fault_decision_locked(route);
        }
        enum Verdict {
            /// No plan anywhere near this address: stamp this generation
            /// and skip future checks while it lives.
            Clean(u64),
            /// Route plans exist but none match this route and there is
            /// no address-wide fallback: clean, but not stampable
            /// (another route could match).
            NoDraw,
            /// This entry governs the exchange.
            Draw(SharedFaultEntry),
            /// Domains installed: the locked path arbitrates.
            Fallback,
        }
        let verdict = self.fabric.view.read_at(self.stripe, |view| {
            if view.has_domains {
                return Verdict::Fallback;
            }
            if view.all_clean {
                return Verdict::Clean(view.generation);
            }
            let Some(peer) = view.peer(&self.dialed) else {
                return Verdict::Clean(view.generation);
            };
            if !peer.planned() {
                return Verdict::Clean(view.generation);
            }
            let route_entry = peer.routes().and_then(|routes| {
                routes
                    .iter()
                    .filter(|(prefix, _)| route.starts_with(prefix.as_str()))
                    .max_by_key(|(prefix, _)| prefix.len())
                    .map(|(_, entry)| Arc::clone(entry))
            });
            match route_entry.or_else(|| peer.fault().cloned()) {
                Some(entry) => Verdict::Draw(entry),
                None => Verdict::NoDraw,
            }
        });
        match verdict {
            Verdict::Clean(gen) => {
                self.clean_gen = Some(gen);
                (0, None)
            }
            Verdict::NoDraw => {
                self.clean_gen = None;
                (0, None)
            }
            Verdict::Draw(entry) => {
                self.clean_gen = None;
                // The draw happens outside the read guard (the entry Arc
                // keeps it alive) so the observer below can never stall a
                // view writer.
                let ((jitter_us, fault), timeout_us) = {
                    let mut entry = entry.lock();
                    (entry.exchange_decision(), entry.plan.timeout_us)
                };
                self.timeout_us = timeout_us;
                let Some(kind) = fault else {
                    return (jitter_us, None);
                };
                if let Some(obs) = self.fabric.record_fault() {
                    obs(&self.dialed, kind);
                }
                (jitter_us, Some(self.fault_error(kind)))
            }
            Verdict::Fallback => self.fault_decision_locked(route),
        }
    }

    /// The locked decision path: consulted whenever a domain is
    /// installed or a batch is open.
    fn fault_decision_locked(&mut self, route: &str) -> (u64, Option<NetError>) {
        // Correlated-failure domains are consulted first — they model the
        // layer below per-address shaping. A domain that injects nothing
        // still contributes its jitter; the plans then get their say.
        let mut domain_jitter_us = 0;
        if let Some((jitter_us, fault, timeout_us)) = self.fabric.domain_exchange_decision(
            self.clock.now_us(),
            self.local.as_deref(),
            &self.dialed,
        ) {
            self.timeout_us = timeout_us;
            if let Some(kind) = fault {
                // The observer runs outside every fabric lock.
                if let Some(obs) = self.fabric.record_fault() {
                    obs(&self.dialed, kind);
                }
                return (jitter_us, Some(self.fault_error(kind)));
            }
            domain_jitter_us = jitter_us;
        }
        // One read lock picks the governing entry (longest matching
        // route prefix, else the address-wide plan); the draw itself
        // goes through the shared entry's own lock, so even the locked
        // path never takes a shard write lock per draw.
        let governing = self.fabric.read(&self.dialed, |state| {
            if let Some(routes) = state.route_faults.get(&self.dialed) {
                let best = routes
                    .iter()
                    .filter(|(prefix, _)| route.starts_with(prefix.as_str()))
                    .max_by_key(|(prefix, _)| prefix.len());
                if let Some((_, entry)) = best {
                    return Some(Arc::clone(entry));
                }
            }
            state.faults.get(&self.dialed).cloned()
        });
        let Some(entry) = governing else {
            return (domain_jitter_us, None);
        };
        let ((jitter_us, fault), timeout_us) = {
            let mut entry = entry.lock();
            (entry.exchange_decision(), entry.plan.timeout_us)
        };
        let jitter_us = domain_jitter_us.saturating_add(jitter_us);
        self.timeout_us = timeout_us;
        let Some(kind) = fault else {
            return (jitter_us, None);
        };
        // The observer runs outside every fabric lock.
        if let Some(obs) = self.fabric.record_fault() {
            obs(&self.dialed, kind);
        }
        (jitter_us, Some(self.fault_error(kind)))
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
    use std::sync::mpsc;
    use std::time::Duration;

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
    /// behaviour is unchanged, but every dial and exchange now takes the
    /// locked fallback (`dial_locked`, `fault_decision_locked`).
    fn install_idle_domain(net: &SimNet) {
        net.install_fault_domain(FaultDomain::partition("idle", "192.0.2."));
    }

    /// Per-address behaviour tests run on both read paths: the lock-free
    /// view and the locked fallback.
    fn fabrics() -> [(SimClock, SimNet); 2] {
        let locked = fabric();
        install_idle_domain(&locked.1);
        [fabric(), locked]
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
    fn locked_fallback_does_not_change_fault_streams() {
        // Streams are keyed by address (or address and route prefix),
        // not by read path: the lock-free view and the locked fallback
        // draw identical decisions and identical simulated timings.
        let run = |locked: bool| {
            let (clock, net) = fabric();
            if locked {
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
        let view = run(false);
        assert!(view.2 > 3, "the workload must inject faults");
        assert_eq!(view, run(true));
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
        // mutation is deferred, one for the single flush — versus one per
        // mutation unbatched.
        assert_eq!(batched_gens, 2);
        assert_eq!(unbatched_gens, 100);
        assert_eq!(batched.view_fingerprint(), unbatched.view_fingerprint());
        // The coalesced view serves the snapshot fast path as usual.
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
        // The guard flushed the deferred mutations on unwind: the bind is
        // published and the batch depth is back to zero (the fast path
        // serves the dial).
        assert_eq!(net.fabric.batch_depth.load(Ordering::Relaxed), 0);
        let mut conn = net.dial("survivor:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
    }

    #[test]
    fn batch_overflow_falls_back_to_full_rebuild() {
        let (_, net) = fabric();
        net.batch(|net| {
            for i in 0..(BATCH_REBUILD_THRESHOLD + 50) {
                net.bind(&format!("node-{i}:443"), Arc::new(Echo)).unwrap();
            }
        });
        // Above the dirty-list threshold the flush rebuilds the whole
        // tree from the shards; the result must be indistinguishable.
        let (_, twin) = fabric();
        for i in 0..(BATCH_REBUILD_THRESHOLD + 50) {
            twin.bind(&format!("node-{i}:443"), Arc::new(Echo)).unwrap();
        }
        assert_eq!(net.view_fingerprint(), twin.view_fingerprint());
        net.dial(&format!("node-{}:443", BATCH_REBUILD_THRESHOLD + 49))
            .unwrap();
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

    /// Dials `a:1` and exchanges once on another thread while this
    /// thread holds every shard's write lock; reports whether the
    /// exchange finished within `timeout`.
    fn exchange_with_every_shard_write_locked(net: &SimNet, timeout: Duration) -> bool {
        let guards: Vec<_> = net.fabric.shards.iter().map(RwLock::write).collect();
        let (done, finished) = mpsc::channel();
        let worker = {
            let net = net.clone();
            std::thread::spawn(move || {
                let mut conn = net.dial("a:1").unwrap();
                conn.exchange(b"x").unwrap();
                let _ = done.send(());
            })
        };
        let completed = finished.recv_timeout(timeout).is_ok();
        drop(guards);
        worker.join().unwrap();
        completed
    }

    #[test]
    fn clean_traffic_takes_no_shard_lock() {
        let (_, net) = fabric();
        net.bind("a:1", Arc::new(Echo)).unwrap();
        net.peer("a:1").latency_us(10);
        assert!(
            exchange_with_every_shard_write_locked(&net, Duration::from_secs(30)),
            "a clean dial + exchange waited on a shard lock"
        );
        // A fault domain anywhere (even one that does not cover `a:1`)
        // sends dials to the locked path, so the same dial now blocks.
        install_idle_domain(&net);
        assert!(
            !exchange_with_every_shard_write_locked(&net, Duration::from_millis(200)),
            "the locked fallback did not take a shard lock"
        );
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
