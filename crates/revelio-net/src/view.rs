//! The persistent (structurally shared) routing-view tree: the fabric's
//! only store of per-address state.
//!
//! The tree is a fixed-depth persistent trie:
//!
//! * [`VIEW_FANOUT`]-way interior nodes, [`VIEW_LEVELS`] levels deep, so
//!   the tree fans out to [`VIEW_BUCKETS`] leaf buckets keyed purely by
//!   `fnv1a(address)`;
//! * [`SlotTree::edit`] walks one root-to-leaf path with
//!   `Arc::make_mut`. On a tree shared with a published view it copies
//!   the O([`VIEW_LEVELS`]) nodes on that path and shares every other
//!   subtree (`Arc` per child) — a single-address edit clones a handful
//!   of nodes regardless of fleet size. On an unshared tree (a batch's
//!   pending view) a node is copied the first time the batch touches it
//!   and edited in place after that.
//!
//! The tree also carries the view-level bookkeeping the dial fast path
//! wants for free: total entry count and the count of *planned* peers
//! (any fault or route plan installed), so `all_clean` stays a stored
//! flag rather than a scan.
//!
//! [`PeerView`] publishes the **live fault entries**
//! (`Arc<Mutex<FaultEntry>>`), so a chaos-mode draw locks only the tiny
//! per-entry mutex, and every view version holding the entry draws from
//! the same stream.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::fault::{fnv1a, FaultEntry};
use crate::net::{Listener, TamperFn};

/// Fan-out of each interior node (one hex nibble of the address hash).
pub(crate) const VIEW_FANOUT: usize = 16;

/// Interior levels between the root and the leaf buckets.
pub(crate) const VIEW_LEVELS: usize = 3;

/// Leaf buckets: `VIEW_FANOUT ^ VIEW_LEVELS`.
pub(crate) const VIEW_BUCKETS: usize = VIEW_FANOUT.pow(VIEW_LEVELS as u32);

// The nibble walk consumes 4 bits per level; the bucket count must match
// or lookups and updates would disagree on leaf placement.
const _: () = assert!(VIEW_BUCKETS == 1 << (4 * VIEW_LEVELS));

/// A fault entry published in the routing view and shared by every view
/// version that holds it. The mutex is a leaf lock: holders never
/// acquire anything else, so locking it inside a snapshot read guard
/// (or under the fabric's writer lock, as `set_fault_seed` does) cannot
/// deadlock.
pub(crate) type SharedFaultEntry = Arc<Mutex<FaultEntry>>;

/// Everything the snapshot read path needs to know about one address.
/// The routing *shape* (listener, latency, redirect, tamper) is
/// immutable once published; the fault entries are shared mutable leaves
/// (see [`SharedFaultEntry`]) so draws lock nothing else.
#[derive(Default, Clone)]
pub(crate) struct PeerView {
    pub(crate) listener: Option<Arc<dyn Listener>>,
    pub(crate) latency_us: Option<u64>,
    /// The cold fields (redirect, tamper, fault plans), boxed: the
    /// overwhelmingly common fleet entry is listener-only, and keeping
    /// it at 40 bytes instead of 112 cuts the leaf-copy memory traffic —
    /// and the leaf-bucket cache footprint the dial path walks — by
    /// almost 3×.
    pub(crate) extra: Option<Box<PeerExtra>>,
}

/// The rarely-populated tail of a [`PeerView`].
#[derive(Default, Clone)]
pub(crate) struct PeerExtra {
    pub(crate) redirect: Option<String>,
    pub(crate) tamper: Option<Arc<TamperFn>>,
    /// The address-wide fault plan's live entry, if installed.
    pub(crate) fault: Option<SharedFaultEntry>,
    /// Per-route fault entries: `(path-prefix, entry)` in installation
    /// order; the longest matching prefix governs an exchange.
    pub(crate) routes: Option<Arc<[(String, SharedFaultEntry)]>>,
}

impl PeerExtra {
    fn is_empty(&self) -> bool {
        self.redirect.is_none()
            && self.tamper.is_none()
            && self.fault.is_none()
            && self.routes.is_none()
    }
}

impl PeerView {
    pub(crate) fn redirect(&self) -> Option<&str> {
        self.extra.as_deref()?.redirect.as_deref()
    }

    pub(crate) fn tamper(&self) -> Option<&Arc<TamperFn>> {
        self.extra.as_deref()?.tamper.as_ref()
    }

    pub(crate) fn fault(&self) -> Option<&SharedFaultEntry> {
        self.extra.as_deref()?.fault.as_ref()
    }

    pub(crate) fn routes(&self) -> Option<&[(String, SharedFaultEntry)]> {
        self.extra.as_deref()?.routes.as_deref()
    }

    /// The cold tail, allocated on first use; [`SlotTree::edit`] drops
    /// it again once it is empty.
    pub(crate) fn extra_mut(&mut self) -> &mut PeerExtra {
        self.extra.get_or_insert_with(Default::default)
    }

    /// Whether any plan (address-wide or per-route) is installed — the
    /// per-peer contribution to the view's planned count.
    pub(crate) fn planned(&self) -> bool {
        self.extra
            .as_deref()
            .is_some_and(|extra| extra.fault.is_some() || extra.routes.is_some())
    }

    /// Whether the view holds anything at all for the address; empty
    /// views are dropped from the tree instead of stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.listener.is_none()
            && self.latency_us.is_none()
            && self.extra.as_deref().is_none_or(PeerExtra::is_empty)
    }

    /// Deterministic size estimate for one published entry, in bytes.
    /// Counts structure sizes and string lengths — never allocator or
    /// `HashMap`-capacity artifacts — so the fleet benchmark's
    /// memory-per-node column is byte-identical across runs.
    pub(crate) fn estimated_bytes(&self, address: &str) -> usize {
        // String header + bytes for the key, plus the entry struct.
        let mut bytes = 24 + address.len() + std::mem::size_of::<PeerView>();
        if let Some(extra) = self.extra.as_deref() {
            bytes += std::mem::size_of::<PeerExtra>();
            if let Some(redirect) = &extra.redirect {
                bytes += 24 + redirect.len();
            }
            if extra.fault.is_some() {
                bytes += SHARED_ENTRY_BYTES;
            }
            if let Some(routes) = &extra.routes {
                for (prefix, _) in routes.iter() {
                    bytes += 24 + prefix.len() + 16 + SHARED_ENTRY_BYTES;
                }
            }
        }
        bytes
    }
}

/// Estimated heap cost of one `Arc<Mutex<FaultEntry>>`.
const SHARED_ENTRY_BYTES: usize = 16 + std::mem::size_of::<Mutex<FaultEntry>>();

/// FNV-1a hasher for the leaf buckets. The leaf probe sits on the
/// clean-dial fast path, where SipHash's per-probe setup cost is
/// measurable at sub-microsecond dial latencies — and HashDoS
/// resistance buys nothing against the simulator's own address strings.
/// Matches [`fnv1a`] so the bucket nibbles and the in-bucket hash come
/// from the same function family.
pub(crate) struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        // Avalanche finalizer (murmur3's): every key in one leaf bucket
        // shares the low [`VIEW_LEVELS`]·4 hash bits that *picked* the
        // bucket, and the map derives its slot index from exactly those
        // low bits — raw FNV would collapse each leaf map into a linear
        // collision scan.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Builds [`FnvHasher`]s seeded with the FNV offset basis.
#[derive(Default, Clone)]
pub(crate) struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// One leaf bucket's map.
type Bucket = HashMap<String, PeerView, FnvBuild>;

/// Estimated cost of one interior node (`Arc` header + child array).
const INTERIOR_BYTES: usize = 16 + std::mem::size_of::<ViewNode>();

/// Estimated fixed cost of one leaf bucket's map.
const LEAF_BYTES: usize = 16 + 48;

/// One node of the persistent view trie.
#[derive(Clone)]
enum ViewNode {
    /// An interior node; children indexed by the next hash nibble.
    /// `None` children are empty subtrees.
    Interior([Option<Arc<ViewNode>>; VIEW_FANOUT]),
    /// A leaf bucket: the addresses whose hash maps to this path.
    Leaf(Bucket),
}

/// The hash nibble indexing an interior node's children at `depth`.
fn nibble(hash: u64, depth: usize) -> usize {
    ((hash >> (4 * depth)) & (VIEW_FANOUT as u64 - 1)) as usize
}

/// Runs `f` on the leaf bucket `hash` selects below `slot` (at `depth`),
/// creating missing nodes and un-sharing shared ones on the way down,
/// and pruning nodes left empty on the way back up.
fn edit_bucket<R>(
    slot: &mut Option<Arc<ViewNode>>,
    depth: usize,
    hash: u64,
    f: impl FnOnce(&mut Bucket) -> R,
) -> R {
    let node = slot.get_or_insert_with(|| {
        Arc::new(if depth == VIEW_LEVELS {
            ViewNode::Leaf(Bucket::default())
        } else {
            ViewNode::Interior(Default::default())
        })
    });
    let (out, empty) = match Arc::make_mut(node) {
        ViewNode::Interior(children) => {
            let out = edit_bucket(&mut children[nibble(hash, depth)], depth + 1, hash, f);
            (out, children.iter().all(Option::is_none))
        }
        ViewNode::Leaf(bucket) => {
            let out = f(bucket);
            (out, bucket.is_empty())
        }
    };
    if empty {
        *slot = None;
    }
    out
}

/// The persistent routing tree: a fixed-depth trie over
/// `fnv1a(address)` with structural sharing between versions. Cloning a
/// `SlotTree` clones one `Arc` and two counters; [`SlotTree::edit`]
/// copies only the shared nodes on the way to the touched leaf bucket.
#[derive(Default, Clone)]
pub(crate) struct SlotTree {
    root: Option<Arc<ViewNode>>,
    /// Number of addresses with a published entry.
    len: usize,
    /// Number of entries carrying any fault or route plan — the stored
    /// input to the view's `all_clean` flag.
    planned: usize,
}

impl SlotTree {
    /// Number of published entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of entries carrying any plan.
    pub(crate) fn planned(&self) -> usize {
        self.planned
    }

    /// Looks up `address`'s published view: one hash, [`VIEW_LEVELS`]
    /// child hops, one leaf-map probe. No locks.
    pub(crate) fn peer(&self, address: &str) -> Option<&PeerView> {
        let hash = fnv1a(address);
        let mut node = self.root.as_deref()?;
        for depth in 0..VIEW_LEVELS {
            let ViewNode::Interior(children) = node else {
                unreachable!("interior node above leaf depth");
            };
            node = children[nibble(hash, depth)].as_deref()?;
        }
        let ViewNode::Leaf(bucket) = node else {
            unreachable!("leaf node at leaf depth");
        };
        bucket.get(address)
    }

    /// Runs `f` on `address`'s entry (a default, empty one if absent),
    /// copying each node on the path that is shared with another tree
    /// version first. An entry left empty is removed, and subtrees left
    /// empty are pruned, so the tree's shape depends only on its
    /// contents.
    pub(crate) fn edit<R>(&mut self, address: &str, f: impl FnOnce(&mut PeerView) -> R) -> R {
        let (mut len, mut planned) = (self.len, self.planned);
        let out = edit_bucket(&mut self.root, 0, fnv1a(address), |bucket| {
            let (key, mut view) = match bucket.remove_entry(address) {
                Some((key, view)) => {
                    len -= 1;
                    planned -= usize::from(view.planned());
                    (key, view)
                }
                None => (address.to_owned(), PeerView::default()),
            };
            let out = f(&mut view);
            if view.extra.as_deref().is_some_and(PeerExtra::is_empty) {
                view.extra = None;
            }
            if !view.is_empty() {
                len += 1;
                planned += usize::from(view.planned());
                bucket.insert(key, view);
            }
            out
        });
        self.len = len;
        self.planned = planned;
        out
    }

    /// Visits every published entry, in unspecified order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&str, &PeerView)) {
        fn walk(node: &ViewNode, f: &mut impl FnMut(&str, &PeerView)) {
            match node {
                ViewNode::Interior(children) => {
                    for child in children.iter().flatten() {
                        walk(child, f);
                    }
                }
                ViewNode::Leaf(bucket) => {
                    for (address, view) in bucket {
                        f(address, view);
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            walk(root, &mut f);
        }
    }

    /// Deterministic estimate of the tree's heap footprint in bytes
    /// (structure sizes and string lengths only — see
    /// [`PeerView::estimated_bytes`]). The fleet benchmark divides this
    /// by the node count for its memory-per-node column.
    pub(crate) fn estimated_bytes(&self) -> usize {
        fn walk(node: &ViewNode, bytes: &mut usize) {
            match node {
                ViewNode::Interior(children) => {
                    *bytes += INTERIOR_BYTES;
                    for child in children.iter().flatten() {
                        walk(child, bytes);
                    }
                }
                ViewNode::Leaf(bucket) => {
                    *bytes += LEAF_BYTES;
                    for (address, view) in bucket {
                        *bytes += view.estimated_bytes(address);
                    }
                }
            }
        }
        let mut bytes = std::mem::size_of::<SlotTree>();
        if let Some(root) = &self.root {
            walk(root, &mut bytes);
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_with_latency(latency: u64) -> PeerView {
        PeerView {
            latency_us: Some(latency),
            ..PeerView::default()
        }
    }

    /// A tree holding `node-{i}:443` with latency `i`, for `i < n`.
    fn fleet(n: u64) -> SlotTree {
        let mut tree = SlotTree::default();
        for i in 0..n {
            tree.edit(&format!("node-{i}:443"), |view| view.latency_us = Some(i));
        }
        tree
    }

    #[test]
    fn lookup_roundtrips_and_counts() {
        let tree = fleet(500);
        assert_eq!(tree.len(), 500);
        assert_eq!(tree.planned(), 0);
        for i in 0..500 {
            let peer = tree.peer(&format!("node-{i}:443")).expect("published");
            assert_eq!(peer.latency_us, Some(i));
        }
        assert!(tree.peer("missing:443").is_none());
    }

    #[test]
    fn edit_leaves_a_shared_tree_untouched() {
        let base = fleet(200);
        let base_bytes = base.estimated_bytes();
        let mut next = base.clone();
        next.edit("node-0:443", |view| view.latency_us = Some(99));
        next.edit("node-1:443", |view| *view = PeerView::default());
        next.edit("fresh:443", |view| *view = view_with_latency(7));
        // The old version still holds every value it held (persistence).
        assert_eq!(base.len(), 200);
        assert_eq!(base.estimated_bytes(), base_bytes);
        for i in 0..200 {
            let peer = base.peer(&format!("node-{i}:443")).unwrap();
            assert_eq!(peer.latency_us, Some(i));
        }
        assert!(base.peer("fresh:443").is_none());
        // The new version sees its edits.
        assert_eq!(next.len(), 200);
        assert_eq!(next.peer("node-0:443").unwrap().latency_us, Some(99));
        assert!(next.peer("node-1:443").is_none());
        assert_eq!(next.peer("fresh:443").unwrap().latency_us, Some(7));
        // Root children off the edited paths are shared, not copied.
        let touched: Vec<usize> = ["node-0:443", "node-1:443", "fresh:443"]
            .iter()
            .map(|a| nibble(fnv1a(a), 0))
            .collect();
        let (Some(ViewNode::Interior(old)), Some(ViewNode::Interior(new))) =
            (base.root.as_deref(), next.root.as_deref())
        else {
            panic!("a populated tree has an interior root");
        };
        for i in (0..VIEW_FANOUT).filter(|i| !touched.contains(i)) {
            match (&old[i], &new[i]) {
                (Some(a), Some(b)) => assert!(Arc::ptr_eq(a, b), "child {i} was copied"),
                (a, b) => assert_eq!(a.is_some(), b.is_some()),
            }
        }
    }

    #[test]
    fn edit_on_an_unshared_tree_copies_nothing() {
        let mut tree = fleet(50);
        let root = tree.root.as_ref().map(Arc::as_ptr);
        tree.edit("node-3:443", |view| view.latency_us = Some(1));
        assert_eq!(tree.root.as_ref().map(Arc::as_ptr), root);
    }

    #[test]
    fn removal_and_empty_views_prune_entries() {
        let mut tree = SlotTree::default();
        tree.edit("a:1", |view| view.latency_us = Some(1));
        tree.edit("b:1", |view| view.latency_us = Some(2));
        tree.edit("a:1", |view| view.latency_us = None);
        // An extra tail left empty counts as no entry at all.
        tree.edit("b:1", |view| {
            view.latency_us = None;
            view.extra_mut().redirect = None;
        });
        tree.edit("never:1", |_| ());
        assert_eq!(tree.len(), 0);
        assert!(tree.peer("a:1").is_none());
        assert!(tree.peer("b:1").is_none());
        // Empty subtrees are pruned: the shape depends only on contents.
        assert!(tree.root.is_none());
        assert_eq!(
            tree.estimated_bytes(),
            SlotTree::default().estimated_bytes()
        );
    }

    #[test]
    fn planned_count_tracks_fault_entries() {
        use crate::fault::FaultPlan;
        let entry: SharedFaultEntry =
            Arc::new(Mutex::new(FaultEntry::new(FaultPlan::default(), 0, "a:1")));
        let mut tree = SlotTree::default();
        tree.edit("a:1", |view| view.extra_mut().fault = Some(entry));
        tree.edit("b:1", |view| view.latency_us = Some(5));
        assert_eq!(tree.planned(), 1);
        tree.edit("a:1", |view| {
            view.extra = None;
            view.latency_us = Some(9);
        });
        assert_eq!(tree.planned(), 0);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn bucket_constants_agree() {
        assert_eq!(VIEW_BUCKETS, 4096);
        // Every bucket index must be reachable from the hash nibbles.
        assert_eq!(VIEW_FANOUT.pow(VIEW_LEVELS as u32), VIEW_BUCKETS);
    }
}
