//! The persistent (structurally shared) routing-view tree.
//!
//! A flat view that mirrors the lock-shard array must clone the *entire*
//! slot array on every mutation — O(slots) per write, which made fleet
//! provisioning ~25× slower. This module lays the view out as a
//! fixed-depth persistent trie instead:
//!
//! * [`VIEW_FANOUT`]-way interior nodes, [`VIEW_LEVELS`] levels deep, so
//!   the tree fans out to [`VIEW_BUCKETS`] leaf buckets keyed purely by
//!   `fnv1a(address)`, independent of the lock shards;
//! * a republish path-copies the O([`VIEW_LEVELS`]) interior nodes on the
//!   way to one leaf bucket and shares every untouched subtree with the
//!   previous view (`Arc` per child) — a single-address republish clones
//!   a handful of nodes regardless of fleet size;
//! * a batch flush applies all its updates in one pass, cloning each
//!   touched leaf bucket exactly once.
//!
//! The tree also carries the view-level bookkeeping the dial fast path
//! wants for free: total entry count and the count of *planned* peers
//! (any fault or route plan installed), so `all_clean` stays a stored
//! flag rather than a scan.
//!
//! [`PeerView`] publishes the **live fault entries**
//! (`Arc<Mutex<FaultEntry>>` shared with the authoritative shard maps),
//! not plan-presence flags that would bounce every non-clean dial back
//! to the shard locks. A chaos-mode draw locks only the tiny per-entry mutex — the same
//! entry object the locked fallback consumes, so the decision streams
//! stay byte-identical whichever path a draw takes.

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

// `rebuilt_from` stores bucket indices as `u16`.
const _: () = assert!(VIEW_BUCKETS <= 1 << 16);

/// A fault entry shared between the authoritative shard map and the
/// published routing view. The mutex is a leaf lock: holders never
/// acquire anything else, so locking it inside a snapshot read guard
/// (or under a shard lock, as `set_fault_seed` does) cannot deadlock.
pub(crate) type SharedFaultEntry = Arc<Mutex<FaultEntry>>;

/// Everything the snapshot read path needs to know about one address.
/// The routing *shape* (listener, latency, redirect, tamper) is
/// immutable once published; the fault entries are shared mutable leaves
/// (see [`SharedFaultEntry`]) so draws never fall back to shard locks.
#[derive(Default, Clone)]
pub(crate) struct PeerView {
    pub(crate) listener: Option<Arc<dyn Listener>>,
    pub(crate) latency_us: Option<u64>,
    /// The cold fields (redirect, tamper, fault plans), boxed: the
    /// overwhelmingly common fleet entry is listener-only, and keeping
    /// it at 40 bytes instead of 112 cuts the batch-flush memory
    /// traffic — and the leaf-bucket cache footprint the dial path
    /// walks — by almost 3×.
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

    /// The cold tail, allocated on first use (construction sites only).
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

/// The flattened leaf-bucket index for a hash: root nibble in the high
/// bits, so each chunk of [`VIEW_FANOUT`] adjacent buckets shares one
/// parent in [`SlotTree::rebuilt_from`]'s bottom-up assembly and the
/// order matches [`SlotTree::peer`]'s root-to-leaf walk.
fn bucket_index(hash: u64) -> usize {
    let mut idx = 0usize;
    for depth in 0..VIEW_LEVELS {
        idx = (idx << 4) | nibble(hash, depth);
    }
    idx
}

/// The persistent routing tree: a fixed-depth trie over
/// `fnv1a(address)` with structural sharing between versions. Cloning a
/// `SlotTree` clones one `Arc` and two counters; [`SlotTree::with_updates`]
/// path-copies only the nodes on the way to the touched leaf buckets.
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

    /// Returns a new tree with `updates` applied (`None` removes the
    /// address; an empty view also removes it). Updates are applied in
    /// order, so a later entry for the same address wins. Only the
    /// interior nodes on the paths to touched leaf buckets are copied;
    /// every other subtree is shared with `self`.
    pub(crate) fn with_updates(&self, updates: Vec<(String, Option<PeerView>)>) -> SlotTree {
        let mut updates: Vec<(u64, String, Option<PeerView>)> = updates
            .into_iter()
            .map(|(address, view)| {
                let view = view.filter(|v| !v.is_empty());
                (fnv1a(&address), address, view)
            })
            .collect();
        let mut len = self.len;
        let mut planned = self.planned;
        let root =
            Self::node_with_updates(self.root.as_ref(), 0, &mut updates, &mut len, &mut planned);
        SlotTree { root, len, planned }
    }

    /// Recursive path-copy: applies `updates` (all belonging to this
    /// subtree) to `node` at `depth`, adjusting the entry/planned counts.
    fn node_with_updates(
        node: Option<&Arc<ViewNode>>,
        depth: usize,
        updates: &mut Vec<(u64, String, Option<PeerView>)>,
        len: &mut usize,
        planned: &mut usize,
    ) -> Option<Arc<ViewNode>> {
        if depth == VIEW_LEVELS {
            let mut bucket = match node.map(Arc::as_ref) {
                Some(ViewNode::Leaf(bucket)) => bucket.clone(),
                None => Bucket::default(),
                Some(ViewNode::Interior(_)) => unreachable!("interior node at leaf depth"),
            };
            for (_, address, view) in updates.drain(..) {
                if let Some(old) = bucket.remove(&address) {
                    *len -= 1;
                    *planned -= usize::from(old.planned());
                }
                if let Some(view) = view {
                    *len += 1;
                    *planned += usize::from(view.planned());
                    bucket.insert(address, view);
                }
            }
            return (!bucket.is_empty()).then(|| Arc::new(ViewNode::Leaf(bucket)));
        }
        let mut children = match node.map(Arc::as_ref) {
            Some(ViewNode::Interior(children)) => children.clone(),
            None => std::array::from_fn(|_| None),
            Some(ViewNode::Leaf(_)) => unreachable!("leaf node above leaf depth"),
        };
        // Partition the updates by this level's nibble and recurse only
        // into touched children; untouched subtrees stay shared.
        let mut by_child: [Vec<(u64, String, Option<PeerView>)>; VIEW_FANOUT] =
            std::array::from_fn(|_| Vec::new());
        for update in updates.drain(..) {
            by_child[nibble(update.0, depth)].push(update);
        }
        for (i, subset) in by_child.iter_mut().enumerate() {
            if subset.is_empty() {
                continue;
            }
            children[i] =
                Self::node_with_updates(children[i].as_ref(), depth + 1, subset, len, planned);
        }
        (!children.iter().all(Option::is_none)).then(|| Arc::new(ViewNode::Interior(children)))
    }

    /// Builds a tree from scratch (the batch-overflow rebuild path).
    /// Buckets every entry directly by its three hash nibbles and
    /// assembles the interior levels bottom-up — one pass over the
    /// entries, instead of re-partitioning the whole set at every level
    /// the way the incremental path does. At 100k entries this is the
    /// difference between the batched provision flush being a blip and
    /// being half the provisioning bill.
    pub(crate) fn rebuilt_from(entries: Vec<(String, PeerView)>) -> SlotTree {
        // Hash once into a side index, count per bucket, then move each
        // entry straight into an exactly-sized map: repeated `HashMap`
        // growth re-moves every (large) entry log-many times, which at
        // 100k entries costs more than the extra counting pass.
        let indices: Vec<u16> = entries
            .iter()
            .map(|(address, _)| bucket_index(fnv1a(address)) as u16)
            .collect();
        let mut counts = vec![0usize; VIEW_BUCKETS];
        for (idx, (_, view)) in indices.iter().zip(&entries) {
            counts[*idx as usize] += usize::from(!view.is_empty());
        }
        let mut buckets: Vec<Bucket> = counts
            .into_iter()
            .map(|count| Bucket::with_capacity_and_hasher(count, FnvBuild))
            .collect();
        let mut len = 0usize;
        let mut planned = 0usize;
        for (idx, (address, view)) in indices.into_iter().zip(entries) {
            if view.is_empty() {
                continue;
            }
            planned += usize::from(view.planned());
            if let Some(old) = buckets[idx as usize].insert(address, view) {
                // A later duplicate wins, exactly as in `with_updates`.
                planned -= usize::from(old.planned());
            } else {
                len += 1;
            }
        }
        let mut level: Vec<Option<Arc<ViewNode>>> = buckets
            .into_iter()
            .map(|bucket| (!bucket.is_empty()).then(|| Arc::new(ViewNode::Leaf(bucket))))
            .collect();
        while level.len() > 1 {
            level = level
                .chunks_mut(VIEW_FANOUT)
                .map(|chunk| {
                    if chunk.iter().all(Option::is_none) {
                        return None;
                    }
                    let children: [Option<Arc<ViewNode>>; VIEW_FANOUT] =
                        std::array::from_fn(|i| chunk[i].take());
                    Some(Arc::new(ViewNode::Interior(children)))
                })
                .collect();
        }
        let root = level.into_iter().next().flatten();
        SlotTree { root, len, planned }
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

    #[test]
    fn lookup_roundtrips_and_counts() {
        let mut updates = Vec::new();
        for i in 0..500 {
            updates.push((format!("node-{i}:443"), Some(view_with_latency(i))));
        }
        let tree = SlotTree::default().with_updates(updates);
        assert_eq!(tree.len(), 500);
        assert_eq!(tree.planned(), 0);
        for i in 0..500 {
            let peer = tree.peer(&format!("node-{i}:443")).expect("published");
            assert_eq!(peer.latency_us, Some(i));
        }
        assert!(tree.peer("missing:443").is_none());
    }

    #[test]
    fn updates_share_untouched_structure() {
        let base = SlotTree::default().with_updates(
            (0..200)
                .map(|i| (format!("node-{i}:443"), Some(view_with_latency(i))))
                .collect(),
        );
        let next = base.with_updates(vec![("node-0:443".to_owned(), Some(view_with_latency(99)))]);
        // The untouched entries read identically from both versions and
        // the old version still holds its value (persistence).
        assert_eq!(base.peer("node-0:443").unwrap().latency_us, Some(0));
        assert_eq!(next.peer("node-0:443").unwrap().latency_us, Some(99));
        assert_eq!(next.len(), base.len());
        for i in 1..200 {
            let address = format!("node-{i}:443");
            let (a, b) = (base.peer(&address).unwrap(), next.peer(&address).unwrap());
            assert_eq!(a.latency_us, b.latency_us);
        }
    }

    #[test]
    fn removal_and_empty_views_prune_entries() {
        let tree = SlotTree::default().with_updates(vec![
            ("a:1".to_owned(), Some(view_with_latency(1))),
            ("b:1".to_owned(), Some(view_with_latency(2))),
        ]);
        let tree = tree.with_updates(vec![
            ("a:1".to_owned(), None),
            ("b:1".to_owned(), Some(PeerView::default())), // empty view = removal
        ]);
        assert_eq!(tree.len(), 0);
        assert!(tree.peer("a:1").is_none());
        assert!(tree.peer("b:1").is_none());
    }

    #[test]
    fn later_duplicate_update_wins() {
        let tree = SlotTree::default().with_updates(vec![
            ("a:1".to_owned(), Some(view_with_latency(1))),
            ("a:1".to_owned(), Some(view_with_latency(2))),
        ]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.peer("a:1").unwrap().latency_us, Some(2));
    }

    #[test]
    fn planned_count_tracks_fault_entries() {
        use crate::fault::FaultPlan;
        let entry: SharedFaultEntry =
            Arc::new(Mutex::new(FaultEntry::new(FaultPlan::default(), 0, "a:1")));
        let mut planned_view = PeerView::default();
        planned_view.extra_mut().fault = Some(entry);
        let tree = SlotTree::default().with_updates(vec![
            ("a:1".to_owned(), Some(planned_view.clone())),
            ("b:1".to_owned(), Some(view_with_latency(5))),
        ]);
        assert_eq!(tree.planned(), 1);
        let cleared = tree.with_updates(vec![("a:1".to_owned(), Some(view_with_latency(9)))]);
        assert_eq!(cleared.planned(), 0);
        assert_eq!(cleared.len(), 2);
    }

    #[test]
    fn rebuild_matches_incremental_construction() {
        let entries: Vec<(String, PeerView)> = (0..300)
            .map(|i| (format!("node-{i}:443"), view_with_latency(i)))
            .collect();
        let incremental = entries.iter().fold(SlotTree::default(), |tree, (a, v)| {
            tree.with_updates(vec![(a.clone(), Some(v.clone()))])
        });
        let rebuilt = SlotTree::rebuilt_from(entries);
        assert_eq!(incremental.len(), rebuilt.len());
        let mut count = 0;
        rebuilt.for_each(|address, view| {
            count += 1;
            assert_eq!(
                incremental.peer(address).unwrap().latency_us,
                view.latency_us
            );
        });
        assert_eq!(count, 300);
        // The estimate depends only on contents, not construction order.
        assert_eq!(incremental.estimated_bytes(), rebuilt.estimated_bytes());
    }

    #[test]
    fn bucket_constants_agree() {
        assert_eq!(VIEW_BUCKETS, 4096);
        // Every bucket index must be reachable from the hash nibbles.
        assert_eq!(VIEW_FANOUT.pow(VIEW_LEVELS as u32), VIEW_BUCKETS);
    }
}
