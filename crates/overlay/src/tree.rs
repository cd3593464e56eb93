//! The overlay multicast tree.
//!
//! [`MulticastTree`] is the shared substrate of every construction
//! algorithm in this workspace: a single-source data-delivery tree whose
//! nodes have out-degree limits derived from their outbound bandwidths
//! (§1 of the paper). Besides plain attach/detach it implements the two
//! restructuring primitives the paper's algorithms need:
//!
//! - [`usurp`](MulticastTree::usurp) — an orphan subtree root takes over
//!   an existing node's position (the relaxed bandwidth-/time-ordered
//!   baselines), displacing the evictee and any children beyond the
//!   usurper's spare capacity. A newcomer's
//!   [`replace`](MulticastTree::replace) is a childless orphan's `usurp`:
//!   both run one takeover;
//! - [`swap_with_parent`](MulticastTree::swap_with_parent) — ROST's
//!   switching operation (§3.3, Fig. 2): a child exchanges positions with
//!   its parent, excess grandchildren spilling into the promoted node's
//!   spare slots.
//!
//! When a node departs, its children become *orphan subtree roots*: their
//! subtrees stay intact but are detached from the source until the engine
//! rejoins them. The tree is therefore transiently a forest, and most
//! queries distinguish *attached* members (reachable from the source) from
//! detached ones.
//!
//! # Arena representation
//!
//! Internally the tree is a dense slab arena, not an id-keyed map: each
//! member's [`NodeId`] is interned to a [`NodeIndex`] (a `u32` slot
//! number) exactly once at insert, slots live in a flat `Vec`, and all
//! parent/child links are index-typed. The id→index map is an [`IdMap`]:
//! an id-keyed lookup is one probe into a short directory of id pages
//! (a binary search only where the directory has a gap below the page)
//! plus one array read, and iterating the map yields ids in
//! ascending order, which defines every id-ordered output (member
//! iteration, `attached_by_depth`, invariant checks). Everything else —
//! walks, depth restamps, the per-event hot paths of the construction
//! algorithms — follows raw indices with no map lookups and no per-call
//! allocation. Removed slots go on a free list and are reused (their
//! child `Vec` allocation included). The index assignment itself is
//! deterministic for a given operation sequence but deliberately
//! unobservable: every public iteration order is defined in terms of ids
//! and depths, so the arena produces byte-identical output to the
//! id-keyed representation it replaced.
//!
//! # Plain and indexed trees
//!
//! Both kinds of tree keep each attached member's depth in its slot and
//! a count of attached members per depth, which is all that
//! [`max_depth`](MulticastTree::max_depth) and
//! [`attached_by_depth`](MulticastTree::attached_by_depth) read. Only a
//! tree built with [`with_order_index`](MulticastTree::with_order_index)
//! also keeps the per-depth eviction and free-slot indices that the
//! centralized algorithms query (`weakest_by_bandwidth`,
//! `weakest_by_age`, `shallowest_free_depth`, `free_layer`). A
//! plain tree, built with [`new`](MulticastTree::new) for every
//! distributed algorithm, moves a subtree by rewriting each moved node's
//! depth and attachment and two per-depth counters, with no B-tree work,
//! and panics on an order query rather than answer it wrongly. Both kinds
//! share one mutation path: the order index is updated from the same
//! hooks that keep the counts.

// rom-lint: allow(send-hostile-state) -- RefCell is Send (only !Sync); the sweep engine moves each sim whole onto one worker, pinned by the Send assertion in rom-bench's sweep tests
use std::cell::RefCell;
use std::collections::BTreeSet;

use rom_obs::Prof;
use rom_sim::SimTime;

use crate::error::{InvariantViolation, TreeError};
use crate::id::NodeId;
use crate::id_map::IdMap;
use crate::member::MemberProfile;
use crate::order_index::{FreeEntry, OrderIndex};

/// A member's slot number in the tree's internal arena.
///
/// Interned from the member's [`NodeId`] when it first enters the tree
/// (via [`MulticastTree::index_of`]); stable until the member is removed,
/// after which the slot may be reused for a different member. Index-based
/// accessors (`*_ix`) skip the id→index map entirely, which is what makes
/// the per-event hot paths allocation- and lookup-free.
///
/// Debug builds additionally stamp each index with the generation of the
/// slot it was minted from; every `*_ix` accessor verifies the stamp, so
/// an index held across a `remove`/`replace` panics at the first use
/// instead of silently aliasing whichever member recycled the slot. The
/// stamp (and every check) compiles out of release builds: there a
/// `NodeIndex` is exactly a `u32`.
#[derive(Debug, Clone, Copy)]
pub struct NodeIndex {
    ix: u32,
    /// The arena generation this index was minted under (debug only).
    #[cfg(debug_assertions)]
    generation: u32,
}

// Identity, ordering and hashing are over the slot number alone: the
// debug-only generation stamp must never change what release builds
// compare (NIL sentinels, stored parent/child links).
impl PartialEq for NodeIndex {
    fn eq(&self, other: &Self) -> bool {
        self.ix == other.ix
    }
}

impl Eq for NodeIndex {}

impl PartialOrd for NodeIndex {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeIndex {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ix.cmp(&other.ix)
    }
}

impl std::hash::Hash for NodeIndex {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ix.hash(state);
    }
}

impl NodeIndex {
    /// Sentinel for "no slot" (absent parent links, free-list markers).
    const NIL: NodeIndex = NodeIndex::mint(u32::MAX, 0);

    /// An index for slot `ix` minted under `_generation` (the parameter
    /// vanishes with the field in release builds).
    const fn mint(ix: u32, _generation: u32) -> NodeIndex {
        NodeIndex {
            ix,
            #[cfg(debug_assertions)]
            generation: _generation,
        }
    }

    /// The raw slot number as a `usize` (for array indexing).
    #[must_use]
    pub fn index(self) -> usize {
        self.ix as usize
    }
}

/// One arena slot. Size is audited: at `--mega` scale the arena holds a
/// million of these, so each slot byte is a megabyte of resident set.
/// Release layout is 88 bytes — `profile` 40 (id 8, bandwidth 8,
/// join\_time 8, lifetime 8, location 4+pad), `capacity` 8, `parent` 4,
/// `children` 24 (Vec header), `depth` 8, `attached` 1, rounded up to
/// 8-byte alignment. A regression test pins the total; widen it only
/// with an updated audit here.
#[derive(Debug, Clone)]
struct TreeSlot {
    /// The member's profile; `profile.id` is the id this slot belongs to
    /// (stale once freed).
    profile: MemberProfile,
    capacity: usize,
    /// `NodeIndex::NIL` for the root, orphan roots, and freed slots.
    parent: NodeIndex,
    children: Vec<NodeIndex>,
    depth: usize,
    attached: bool,
    /// Bumped each time the slot is freed, so indices minted before the
    /// free are detectably stale (debug only; absent in release).
    #[cfg(debug_assertions)]
    generation: u32,
}

/// What [`MulticastTree::remove`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct RemovedMember {
    /// The departed member's profile.
    pub profile: MemberProfile,
    /// Children of the departed member, now orphan subtree roots that must
    /// rejoin the tree.
    pub orphaned_children: Vec<NodeId>,
    /// All descendants of the departed member (the members that experience
    /// a streaming disruption when the departure is abrupt).
    pub affected_descendants: Vec<NodeId>,
}

/// What [`MulticastTree::replace`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaceOutcome {
    /// Members that must rejoin: the evictee itself plus any of its former
    /// children that did not fit under the newcomer.
    pub displaced: Vec<NodeId>,
    /// Former children of the evictee now served by the newcomer.
    pub adopted: Vec<NodeId>,
}

/// What [`MulticastTree::swap_with_parent`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRecord {
    /// The node that moved up.
    pub promoted: NodeId,
    /// The former parent that moved down.
    pub demoted: NodeId,
    /// Number of members whose parent changed — the paper's ≈ 2d + 1
    /// protocol-overhead unit for one switch.
    pub parent_changes: usize,
    /// The members whose parent pointer changed (the promoted node, the
    /// demoted node, the siblings that followed, and the grandchildren the
    /// demoted node kept). Length equals `parent_changes`.
    pub reparented: Vec<NodeId>,
    /// Former children of the promoted node that were reconnected to it
    /// (they did not fit under the demoted node).
    pub spilled_to_promoted: Vec<NodeId>,
    /// Members that fit nowhere and must rejoin (only possible when the
    /// promoted node's capacity shrank concurrently; normally empty).
    pub displaced: Vec<NodeId>,
}

/// A single-source overlay multicast tree with degree constraints.
///
/// [`new`](Self::new) builds the plain tree the distributed algorithms
/// use; [`with_order_index`](Self::with_order_index) builds one that also
/// answers the centralized algorithms' order queries (see the module
/// docs).
///
/// # Examples
///
/// ```
/// use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId};
/// use rom_sim::SimTime;
///
/// let source = MemberProfile::new(NodeId::SOURCE, 100.0, SimTime::ZERO, 1e9, Location(0));
/// let mut tree = MulticastTree::new(source);
///
/// let m = MemberProfile::new(NodeId(1), 2.0, SimTime::ZERO, 600.0, Location(1));
/// tree.attach(m, NodeId::SOURCE)?;
/// assert_eq!(tree.depth(NodeId(1)), Some(1));
/// assert_eq!(tree.attached_count(), 2);
/// # Ok::<(), rom_overlay::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MulticastTree {
    root: NodeId,
    root_ix: NodeIndex,
    /// The slab arena. Freed slots are recycled through `free`.
    slots: Vec<TreeSlot>,
    free: Vec<NodeIndex>,
    /// The id→index map; every id-ordered iteration the public API
    /// exposes is defined through it.
    ids: IdMap<NodeIndex>,
    /// Number of attached members at each depth. The deepest non-zero
    /// entry is the tree's [`max_depth`](Self::max_depth), and the counts
    /// give each depth's run in the `attached_by_depth` counting sort.
    depth_counts: Vec<usize>,
    /// O(1) cache: number of attached members (the sum of
    /// `depth_counts`).
    attached_total: usize,
    /// The eviction and free-slot indices; `Some` only on a tree built
    /// with [`with_order_index`](Self::with_order_index).
    order: Option<OrderIndex>,
    /// Reusable frontier stack for `&self` walks (descendants,
    /// subtree_size); never held across a public call boundary.
    // rom-lint: allow(send-hostile-state) -- interior mutability is confined to &self walks within one call; the tree stays Send because RefCell<Vec<_>> is Send
    scratch: RefCell<Vec<NodeIndex>>,
    /// Reusable frontier stack for `&mut self` depth restamps.
    restamp_buf: Vec<(NodeIndex, usize)>,
    /// Span profiler handle (disabled by default; see
    /// [`set_prof`](Self::set_prof)). Wall-clock readings taken through it
    /// reach only the `.profile.json` sidecar, never the tree's outputs.
    prof: Prof,
}

/// The panic message of an order query on a plain tree.
const NO_ORDER_INDEX: &str =
    "order query on a plain tree: build it with MulticastTree::with_order_index";

impl MulticastTree {
    /// Creates a plain tree containing only the multicast source: the
    /// tree every distributed algorithm uses. It keeps no order index, so
    /// the order queries ([`weakest_by_bandwidth`](Self::weakest_by_bandwidth)
    /// and the rest) panic on it.
    #[must_use]
    pub fn new(source: MemberProfile) -> Self {
        Self::build(source, None)
    }

    /// Creates a tree containing only the multicast source that also
    /// keeps the per-depth eviction and free-slot indices the centralized
    /// algorithms query. Every attach, detach and subtree move then
    /// re-keys those indices for each node it touches.
    #[must_use]
    pub fn with_order_index(source: MemberProfile) -> Self {
        Self::build(source, Some(OrderIndex::default()))
    }

    fn build(source: MemberProfile, order: Option<OrderIndex>) -> Self {
        let root = source.id;
        let capacity = source.out_capacity();
        let root_ix = NodeIndex::mint(0, 0);
        let slots = vec![TreeSlot {
            profile: source,
            capacity,
            parent: NodeIndex::NIL,
            children: Vec::new(),
            depth: 0,
            attached: true,
            #[cfg(debug_assertions)]
            generation: 0,
        }];
        let mut ids = IdMap::new();
        ids.insert(root, root_ix);
        let mut tree = MulticastTree {
            root,
            root_ix,
            slots,
            free: Vec::new(),
            ids,
            depth_counts: Vec::new(),
            attached_total: 0,
            order,
            scratch: RefCell::new(Vec::new()), // rom-lint: allow(send-hostile-state) -- constructor for the allowed scratch field above
            restamp_buf: Vec::new(),
            prof: Prof::disabled(),
        };
        tree.index_insert(root_ix, 0);
        tree
    }

    /// True if the tree keeps the order index, i.e. was built with
    /// [`with_order_index`](Self::with_order_index).
    #[must_use]
    pub fn has_order_index(&self) -> bool {
        self.order.is_some()
    }

    /// The order index behind the centralized algorithms' queries.
    #[track_caller]
    fn order_index(&self) -> &OrderIndex {
        self.order.as_ref().expect(NO_ORDER_INDEX)
    }

    /// Installs a span-profiler handle. Structural operations
    /// (`attach`/`reattach`/`remove`/`replace`/`usurp`/`swap_with_parent`
    /// and the eviction scan) record scope timings through it; with the
    /// default disabled handle each span is a single branch.
    pub fn set_prof(&mut self, prof: Prof) {
        self.prof = prof;
    }

    /// The tree's span-profiler handle (disabled unless installed via
    /// [`set_prof`](Self::set_prof)). Exposed so collaborating layers
    /// (algorithms, rost, cer) can open spans on the same profile tree
    /// without carrying their own handle.
    #[must_use]
    pub fn prof(&self) -> &Prof {
        &self.prof
    }

    #[inline]
    #[track_caller]
    fn s(&self, ix: NodeIndex) -> &TreeSlot {
        self.check_generation(ix);
        &self.slots[ix.index()]
    }

    #[inline]
    #[track_caller]
    fn sm(&mut self, ix: NodeIndex) -> &mut TreeSlot {
        self.check_generation(ix);
        &mut self.slots[ix.index()]
    }

    /// Debug-only use-after-free check: every slot access through an
    /// index verifies the index's generation stamp against the slot's
    /// current generation. A mismatch means the slot was freed (and
    /// possibly recycled for a different member) after the index was
    /// minted. Compiles to nothing in release builds.
    #[inline]
    #[track_caller]
    #[allow(unused_variables)] // `ix` is only consulted in debug builds
    fn check_generation(&self, ix: NodeIndex) {
        #[cfg(debug_assertions)]
        {
            let current = self.slots[ix.index()].generation;
            assert!(
                current == ix.generation,
                "stale NodeIndex: slot {} is at generation {current} but this index was \
                 minted at generation {} — the slot was freed (and possibly reused) since; \
                 re-intern via index_of",
                ix.index(),
                ix.generation,
            );
        }
    }

    /// Takes a slot for a new member, recycling a freed one (and its child
    /// `Vec` allocation) when available.
    fn alloc(
        &mut self,
        profile: MemberProfile,
        capacity: usize,
        parent: NodeIndex,
        depth: usize,
        attached: bool,
    ) -> NodeIndex {
        if let Some(freed) = self.free.pop() {
            // `freed` still carries its pre-free generation stamp, so it
            // must not escape: access the slot by raw index and mint a
            // fresh index at the slot's current generation.
            let slot = &mut self.slots[freed.index()];
            slot.profile = profile;
            slot.capacity = capacity;
            slot.parent = parent;
            slot.children.clear();
            slot.depth = depth;
            slot.attached = attached;
            #[cfg(debug_assertions)]
            let ix = NodeIndex::mint(freed.ix, slot.generation);
            #[cfg(not(debug_assertions))]
            let ix = freed;
            ix
        } else {
            assert!(
                self.slots.len() < NodeIndex::NIL.index(),
                "tree arena exhausted the u32 index space"
            );
            let ix = NodeIndex::mint(self.slots.len() as u32, 0);
            self.slots.push(TreeSlot {
                profile,
                capacity,
                parent,
                children: Vec::new(),
                depth,
                attached,
                #[cfg(debug_assertions)]
                generation: 0,
            });
            ix
        }
    }

    /// Returns a slot to the free list. The child `Vec` is kept (cleared)
    /// so its allocation is reused; `attached` is cleared so arena-wide
    /// scans (e.g. [`mean_internal_out_degree`](Self::mean_internal_out_degree))
    /// skip freed slots naturally.
    fn free_slot(&mut self, ix: NodeIndex) {
        let slot = &mut self.slots[ix.index()];
        slot.parent = NodeIndex::NIL;
        slot.children.clear();
        slot.attached = false;
        // Invalidate every outstanding index to this slot: uses before
        // the slot is even recycled are just as stale as uses after.
        #[cfg(debug_assertions)]
        {
            slot.generation = slot.generation.wrapping_add(1);
        }
        self.free.push(ix);
    }

    /// The multicast source.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total members, attached or not (including the source).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if only the source is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.len() == 1
    }

    /// Number of members currently connected to the source. O(1): an
    /// incrementally maintained counter, not a per-layer sum.
    #[must_use]
    pub fn attached_count(&self) -> usize {
        self.attached_total
    }

    /// One past the highest arena slot number in use: every
    /// [`NodeIndex::index`] of this tree is below it, so a caller can keep
    /// a per-member side table in a `Vec` of this length.
    #[must_use]
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// True if `id` is present (attached or orphaned).
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.ids.contains_key(id)
    }

    /// The member's arena index, if present. Intern once, then use the
    /// `*_ix` accessors to skip the id→index map on every later access.
    #[must_use]
    pub fn index_of(&self, id: NodeId) -> Option<NodeIndex> {
        self.ids.get(id).copied()
    }

    /// The id occupying arena slot `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds. Debug builds also panic if the
    /// slot was freed since `ix` was minted (generation check); release
    /// builds return whatever id currently occupies the slot — only pass
    /// indices obtained from this tree's current state.
    #[must_use]
    pub fn id_of(&self, ix: NodeIndex) -> NodeId {
        self.s(ix).profile.id
    }

    /// True if `id` is present and connected to the source.
    #[must_use]
    pub fn is_attached(&self, id: NodeId) -> bool {
        self.index_of(id).is_some_and(|ix| self.s(ix).attached)
    }

    /// Index-typed [`is_attached`](Self::is_attached).
    #[must_use]
    pub fn is_attached_ix(&self, ix: NodeIndex) -> bool {
        self.s(ix).attached
    }

    /// The member's profile, if present.
    #[must_use]
    pub fn profile(&self, id: NodeId) -> Option<&MemberProfile> {
        self.index_of(id).map(|ix| &self.s(ix).profile)
    }

    /// Index-typed [`profile`](Self::profile).
    #[must_use]
    pub fn profile_ix(&self, ix: NodeIndex) -> &MemberProfile {
        &self.s(ix).profile
    }

    /// The member's parent; `None` for the root, orphan roots and unknown
    /// ids.
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let ix = self.index_of(id)?;
        let p = self.s(ix).parent;
        (p != NodeIndex::NIL).then(|| self.s(p).profile.id)
    }

    /// Index-typed [`parent`](Self::parent).
    #[must_use]
    pub fn parent_ix(&self, ix: NodeIndex) -> Option<NodeIndex> {
        let p = self.s(ix).parent;
        (p != NodeIndex::NIL).then_some(p)
    }

    /// The member's children in adoption order (empty for unknown ids).
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let slice: &[NodeIndex] = self
            .index_of(id)
            .map_or(&[][..], |ix| &self.s(ix).children);
        slice.iter().map(move |&c| self.s(c).profile.id)
    }

    /// The member's children as arena indices, in adoption order.
    #[must_use]
    pub fn children_ix(&self, ix: NodeIndex) -> &[NodeIndex] {
        &self.s(ix).children
    }

    /// Number of children of `id` (0 for unknown ids).
    #[must_use]
    pub fn child_count(&self, id: NodeId) -> usize {
        self.index_of(id).map_or(0, |ix| self.s(ix).children.len())
    }

    /// Index-typed [`child_count`](Self::child_count).
    #[must_use]
    pub fn child_count_ix(&self, ix: NodeIndex) -> usize {
        self.s(ix).children.len()
    }

    /// The member's depth below the source (root = 0); `None` when the
    /// member is detached or unknown.
    #[must_use]
    pub fn depth(&self, id: NodeId) -> Option<usize> {
        let slot = self.s(self.index_of(id)?);
        slot.attached.then_some(slot.depth)
    }

    /// Index-typed [`depth`](Self::depth).
    #[must_use]
    pub fn depth_ix(&self, ix: NodeIndex) -> Option<usize> {
        let slot = self.s(ix);
        slot.attached.then_some(slot.depth)
    }

    /// The member's out-degree capacity.
    #[must_use]
    pub fn capacity(&self, id: NodeId) -> usize {
        self.index_of(id).map_or(0, |ix| self.s(ix).capacity)
    }

    /// Index-typed [`capacity`](Self::capacity).
    #[must_use]
    pub fn capacity_ix(&self, ix: NodeIndex) -> usize {
        self.s(ix).capacity
    }

    /// Unused forwarding slots of `id` (0 for unknown ids).
    #[must_use]
    pub fn free_slots(&self, id: NodeId) -> usize {
        self.index_of(id).map_or(0, |ix| self.free_slots_ix(ix))
    }

    /// Index-typed [`free_slots`](Self::free_slots).
    #[must_use]
    pub fn free_slots_ix(&self, ix: NodeIndex) -> usize {
        let slot = self.s(ix);
        slot.capacity.saturating_sub(slot.children.len())
    }

    /// True if `id` can accept one more child.
    #[must_use]
    pub fn has_free_slot(&self, id: NodeId) -> bool {
        self.free_slots(id) > 0
    }

    /// Index-typed [`has_free_slot`](Self::has_free_slot).
    #[must_use]
    pub fn has_free_slot_ix(&self, ix: NodeIndex) -> bool {
        self.free_slots_ix(ix) > 0
    }

    /// True if `ix` is an orphan subtree root: detached with no parent.
    /// The slot's own fields are the whole record; no orphan set is kept.
    fn is_orphan_root(&self, ix: NodeIndex) -> bool {
        let slot = self.s(ix);
        !slot.attached && slot.parent == NodeIndex::NIL
    }

    /// Current orphan subtree roots, in id order. A scan of the whole
    /// membership, for tests and diagnostics rather than hot paths.
    pub fn orphan_roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.member_entries()
            .filter(|&(_, ix)| self.is_orphan_root(ix))
            .map(|(id, _)| id)
    }

    /// All member ids, attached and detached, in id order.
    pub fn member_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.keys()
    }

    /// All members with their arena indices, in id order.
    pub fn member_entries(&self) -> impl Iterator<Item = (NodeId, NodeIndex)> + '_ {
        self.ids.iter().map(|(id, &ix)| (id, ix))
    }

    /// Attached members in breadth-first (depth, then id) order — the
    /// "search from high to low layers" order of the relaxed ordered
    /// algorithms. Computed on demand by a counting sort into one buffer
    /// sized by [`attached_count`](Self::attached_count): the per-depth
    /// attached counts give each depth's start offset, and one id-ordered
    /// pass over the membership drops every attached member into its
    /// depth's run. O(M) per call; the callers sample the tree once per
    /// interval, so no index is kept for this order. The iterator owns
    /// the buffer and does not borrow the tree.
    pub fn attached_by_depth(&self) -> impl Iterator<Item = NodeId> {
        let mut next = Vec::with_capacity(self.depth_counts.len());
        let mut start = 0;
        for &count in &self.depth_counts {
            next.push(start);
            start += count;
        }
        let mut order = vec![self.root; self.attached_total];
        for (id, &ix) in self.ids.iter() {
            let slot = self.s(ix);
            if slot.attached {
                order[next[slot.depth]] = id;
                next[slot.depth] += 1;
            }
        }
        order.into_iter()
    }

    /// The deepest attached layer index: the deepest depth with a
    /// non-zero attached count. O(layers).
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.depth_counts
            .iter()
            .rposition(|&count| count > 0)
            .unwrap_or(0)
    }

    /// The attached member at `depth` with the minimum (bandwidth, id) —
    /// the node the relaxed bandwidth-ordered eviction rule targets in
    /// that layer. Answered from the per-depth ordered index in
    /// O(log layer) instead of a layer scan. The returned bandwidth is
    /// numerically equal to the member's (`-0.0` reads back as `0.0`).
    ///
    /// # Panics
    ///
    /// Panics on a plain tree (see [`with_order_index`](Self::with_order_index)).
    #[must_use]
    #[track_caller]
    pub fn weakest_by_bandwidth(&self, depth: usize) -> Option<(f64, NodeId)> {
        self.order_index().weakest_by_bandwidth(depth)
    }

    /// The attached member at `depth` with the minimum (age at `now`, id)
    /// — the relaxed time-ordered eviction target in that layer. The
    /// index is ordered by descending join time, which equals ascending
    /// age at any `now`; distinct join times can still collapse onto one
    /// age (the clamp at zero for not-yet-joined members, f64 subtraction
    /// rounding), so the id tie-break walks the equal-age prefix. Ages
    /// are recomputed exactly as [`MemberProfile::age`] computes them,
    /// from join times recovered bit-for-bit out of the index keys.
    ///
    /// # Panics
    ///
    /// Panics on a plain tree (see [`with_order_index`](Self::with_order_index)).
    #[must_use]
    #[track_caller]
    pub fn weakest_by_age(&self, depth: usize, now: SimTime) -> Option<(f64, NodeId)> {
        self.order_index().weakest_by_age(depth, now)
    }

    /// The shallowest depth holding an attached member with at least one
    /// free forwarding slot — where the minimum-depth join rule will
    /// place the next leaf. O(max_depth) probes of per-depth free-slot
    /// layers instead of a scan over the whole membership.
    ///
    /// # Panics
    ///
    /// Panics on a plain tree (see [`with_order_index`](Self::with_order_index)).
    #[must_use]
    #[track_caller]
    pub fn shallowest_free_depth(&self) -> Option<usize> {
        self.order_index().shallowest_free_depth()
    }

    /// The attached members at `depth` with at least one free forwarding
    /// slot, each with its location, in **no particular order**: listing
    /// appends and unlisting swap-removes, so the order depends on the
    /// operation history. A caller that picks one entry must break ties
    /// itself, as [`Proximity::nearest_free`](crate::Proximity::nearest_free)
    /// does by id.
    ///
    /// # Panics
    ///
    /// Panics on a plain tree (see [`with_order_index`](Self::with_order_index)).
    #[must_use]
    #[track_caller]
    pub fn free_layer(&self, depth: usize) -> &[FreeEntry] {
        self.order_index().free_layer(depth)
    }

    /// Ancestors of `id` from its parent up to the subtree root (the source
    /// for attached members). Empty for roots and unknown ids.
    #[must_use]
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        self.ancestors_iter(id).collect()
    }

    /// Non-allocating [`ancestors`](Self::ancestors): walks parent links
    /// lazily.
    pub fn ancestors_iter(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self
            .index_of(id)
            .map_or(NodeIndex::NIL, |ix| self.s(ix).parent);
        std::iter::from_fn(move || {
            if cur == NodeIndex::NIL {
                return None;
            }
            let slot = self.s(cur);
            cur = slot.parent;
            Some(slot.profile.id)
        })
    }

    /// True if `ancestor` lies on the path from `id` to its subtree root.
    #[must_use]
    pub fn is_ancestor(&self, ancestor: NodeId, id: NodeId) -> bool {
        let Some(ix) = self.index_of(id) else {
            return false;
        };
        let mut cur = self.s(ix).parent;
        while cur != NodeIndex::NIL {
            let slot = self.s(cur);
            if slot.profile.id == ancestor {
                return true;
            }
            cur = slot.parent;
        }
        false
    }

    /// Depth of the lowest common ancestor of two *attached* members —
    /// the paper's loss-correlation level between a pair of receivers
    /// (`lca_depth(a, a)` is `a`'s own depth). `None` when either member
    /// is detached or unknown. Allocation-free: equalizes depths along
    /// parent links, then walks both paths up in lockstep.
    #[must_use]
    pub fn lca_depth(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let (mut x, mut y) = (self.index_of(a)?, self.index_of(b)?);
        let (sx, sy) = (self.s(x), self.s(y));
        if !sx.attached || !sy.attached {
            return None;
        }
        let (mut dx, mut dy) = (sx.depth, sy.depth);
        while dx > dy {
            x = self.s(x).parent;
            dx -= 1;
        }
        while dy > dx {
            y = self.s(y).parent;
            dy -= 1;
        }
        while x != y {
            x = self.s(x).parent;
            y = self.s(y).parent;
            dx -= 1;
        }
        Some(dx)
    }

    /// All descendants of `id` (excluding `id`), in the tree's canonical
    /// walk order (children in adoption order, deepest-last-child first).
    #[must_use]
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.descendants_into(id, &mut out);
        out
    }

    /// Appends the descendants of `id` to `out` (same order as
    /// [`descendants`](Self::descendants)) without allocating a frontier:
    /// callers that already own a buffer get an allocation-free walk.
    pub fn descendants_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        let Some(ix) = self.index_of(id) else {
            return;
        };
        let mut frontier = self.scratch.borrow_mut();
        frontier.clear();
        frontier.push(ix);
        while let Some(n) = frontier.pop() {
            for &c in &self.s(n).children {
                out.push(self.s(c).profile.id);
                frontier.push(c);
            }
        }
    }

    /// Number of members in the subtree rooted at `id`, including `id`
    /// itself (0 for unknown ids). A counting walk — no result `Vec`.
    #[must_use]
    pub fn subtree_size(&self, id: NodeId) -> usize {
        let Some(ix) = self.index_of(id) else {
            return 0;
        };
        let mut frontier = self.scratch.borrow_mut();
        frontier.clear();
        frontier.push(ix);
        let mut count = 0;
        while let Some(n) = frontier.pop() {
            count += 1;
            frontier.extend(self.s(n).children.iter().copied());
        }
        count
    }

    /// The overlay path from the source to `id` (inclusive), or `None` when
    /// `id` is detached or unknown. Exactly one allocation, filled
    /// backwards from the member's known depth.
    #[must_use]
    pub fn overlay_path(&self, id: NodeId) -> Option<Vec<NodeId>> {
        let ix = self.index_of(id)?;
        let slot = self.s(ix);
        if !slot.attached {
            return None;
        }
        let mut path = vec![id; slot.depth + 1];
        let mut cur = slot.parent;
        let mut i = slot.depth;
        while cur != NodeIndex::NIL {
            i -= 1;
            let s = self.s(cur);
            path[i] = s.profile.id;
            cur = s.parent;
        }
        Some(path)
    }

    /// Counts the attached member at `ix` at `depth` and, on an indexed
    /// tree, adds its order-index entries. Key material is read from the
    /// slot, so callers must finalize the slot's profile, capacity and
    /// children first.
    fn index_insert(&mut self, ix: NodeIndex, depth: usize) {
        if self.depth_counts.len() <= depth {
            self.depth_counts.resize(depth + 1, 0);
        }
        self.depth_counts[depth] += 1;
        self.attached_total += 1;
        if let Some(order) = &mut self.order {
            let slot = &self.slots[ix.index()];
            order.insert(
                &slot.profile,
                ix,
                depth,
                slot.capacity > slot.children.len(),
            );
        }
    }

    /// Undoes [`index_insert`](Self::index_insert) for an attached member
    /// leaving `depth`.
    fn index_remove(&mut self, ix: NodeIndex, depth: usize) {
        self.depth_counts[depth] -= 1;
        self.attached_total -= 1;
        if let Some(order) = &mut self.order {
            order.remove(&self.slots[ix.index()].profile, ix, depth);
        }
    }

    /// Re-evaluates `ix`'s membership in the free-slot index after a
    /// child-count or capacity change. A no-op on a plain tree and for
    /// detached slots, which are never indexed.
    fn refresh_free_slot(&mut self, ix: NodeIndex) {
        let Some(order) = &mut self.order else {
            return;
        };
        let slot = &self.slots[ix.index()];
        if slot.attached {
            let has_free = slot.capacity > slot.children.len();
            order.set_free(&slot.profile, ix, slot.depth, has_free);
        }
    }

    /// Marks the subtree rooted at `ix` attached/detached and rebuilds its
    /// depths starting from `base_depth`. Uses the tree's reusable restamp
    /// stack — no per-call allocation.
    fn restamp_subtree(&mut self, ix: NodeIndex, base_depth: usize, attached: bool) {
        let mut frontier = std::mem::take(&mut self.restamp_buf);
        frontier.clear();
        frontier.push((ix, base_depth));
        while let Some((n, d)) = frontier.pop() {
            let slot = &mut self.slots[n.index()];
            let was_attached = slot.attached;
            let old_depth = slot.depth;
            slot.attached = attached;
            slot.depth = d;
            if was_attached {
                self.index_remove(n, old_depth);
            }
            if attached {
                self.index_insert(n, d);
            }
            for &c in &self.slots[n.index()].children {
                frontier.push((c, d + 1));
            }
        }
        self.restamp_buf = frontier;
    }

    /// Attaches a brand-new member as a leaf under `parent`.
    ///
    /// # Errors
    ///
    /// [`TreeError::DuplicateMember`] if the id is already present,
    /// [`TreeError::UnknownMember`] / [`TreeError::ParentDetached`] /
    /// [`TreeError::ParentFull`] if the parent cannot serve it.
    pub fn attach(&mut self, profile: MemberProfile, parent: NodeId) -> Result<(), TreeError> {
        let _span = self.prof.span("overlay.attach");
        let id = profile.id;
        if self.contains(id) {
            return Err(TreeError::DuplicateMember(id));
        }
        let pix = self
            .index_of(parent)
            .ok_or(TreeError::UnknownMember(parent))?;
        let pslot = self.s(pix);
        if !pslot.attached {
            return Err(TreeError::ParentDetached(parent));
        }
        if pslot.children.len() >= pslot.capacity {
            return Err(TreeError::ParentFull(parent));
        }
        let depth = pslot.depth + 1;
        let capacity = profile.out_capacity();
        let ix = self.alloc(profile, capacity, pix, depth, true);
        self.sm(pix).children.push(ix);
        self.refresh_free_slot(pix);
        self.ids.insert(id, ix);
        self.index_insert(ix, depth);
        Ok(())
    }

    /// Reattaches the orphan subtree rooted at `orphan` under `parent`.
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAnOrphan`] if `orphan` is not currently an orphan
    /// subtree root, [`TreeError::WouldCycle`] if `parent` lies inside the
    /// orphan's own subtree, plus the same parent errors as
    /// [`attach`](Self::attach).
    pub fn reattach(&mut self, orphan: NodeId, parent: NodeId) -> Result<(), TreeError> {
        let _span = self.prof.span("overlay.reattach");
        let Some(oix) = self.index_of(orphan).filter(|&ix| self.is_orphan_root(ix)) else {
            return Err(TreeError::NotAnOrphan(orphan));
        };
        let pix = self
            .index_of(parent)
            .ok_or(TreeError::UnknownMember(parent))?;
        let pslot = self.s(pix);
        if !pslot.attached {
            // Covers both detached parents and parents inside this orphan's
            // own subtree (which are necessarily detached).
            if parent == orphan || self.is_ancestor(orphan, parent) {
                return Err(TreeError::WouldCycle(parent));
            }
            return Err(TreeError::ParentDetached(parent));
        }
        if pslot.children.len() >= pslot.capacity {
            return Err(TreeError::ParentFull(parent));
        }
        let base_depth = pslot.depth + 1;
        self.sm(pix).children.push(oix);
        self.refresh_free_slot(pix);
        self.sm(oix).parent = pix;
        self.restamp_subtree(oix, base_depth, true);
        Ok(())
    }

    /// Removes a member (abrupt departure). Its children become orphan
    /// subtree roots; the returned record lists them along with every
    /// affected descendant.
    ///
    /// # Errors
    ///
    /// [`TreeError::RootImmovable`] for the source,
    /// [`TreeError::UnknownMember`] otherwise.
    pub fn remove(&mut self, id: NodeId) -> Result<RemovedMember, TreeError> {
        let _span = self.prof.span("overlay.remove");
        if id == self.root {
            return Err(TreeError::RootImmovable);
        }
        let Some(ix) = self.index_of(id) else {
            return Err(TreeError::UnknownMember(id));
        };
        let affected_descendants = self.descendants(id);
        let slot = self.s(ix);
        let profile = slot.profile.clone();
        let parent = slot.parent;
        let attached = slot.attached;
        let depth = slot.depth;
        let child_ixs = slot.children.clone();

        // Detach from the parent (if any).
        if parent != NodeIndex::NIL {
            self.sm(parent).children.retain(|&c| c != ix);
            self.refresh_free_slot(parent);
        }
        if attached {
            self.index_remove(ix, depth);
        }

        // Children become orphan roots; their subtrees go detached.
        let orphaned_children: Vec<NodeId> =
            child_ixs.iter().map(|&c| self.s(c).profile.id).collect();
        for &c in &child_ixs {
            self.sm(c).parent = NodeIndex::NIL;
            self.restamp_subtree(c, 0, false);
        }

        self.ids.remove(id);
        self.free_slot(ix);
        Ok(RemovedMember {
            profile,
            orphaned_children,
            affected_descendants,
        })
    }

    /// A newcomer takes over `evict`'s position (relaxed ordered
    /// algorithms, §5): it inherits the evictee's parent and as many of the
    /// evictee's children as its capacity allows, preferring to keep the
    /// children ranked highest by `keep_priority`. The evictee and any
    /// overflow children become orphan roots listed in the outcome.
    ///
    /// The newcomer enters as a childless orphan root and then takes over
    /// exactly as [`usurp`](Self::usurp) would; a failed call changes
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`TreeError::RootImmovable`] if `evict` is the source,
    /// [`TreeError::DuplicateMember`] if the newcomer is already present,
    /// [`TreeError::UnknownMember`] if the evictee is absent or detached.
    pub fn replace(
        &mut self,
        evict: NodeId,
        newcomer: MemberProfile,
        keep_priority: impl Fn(&MemberProfile) -> f64,
    ) -> Result<ReplaceOutcome, TreeError> {
        let _span = self.prof.span("overlay.replace");
        if evict == self.root {
            return Err(TreeError::RootImmovable);
        }
        if self.contains(newcomer.id) {
            return Err(TreeError::DuplicateMember(newcomer.id));
        }
        let eix = self.attached_evictee(evict)?;
        let new_id = newcomer.id;
        let capacity = newcomer.out_capacity();
        let nix = self.alloc(newcomer, capacity, NodeIndex::NIL, 0, false);
        self.ids.insert(new_id, nix);
        Ok(self.take_over(eix, nix, keep_priority))
    }

    /// Like [`replace`](Self::replace), but the usurper is an existing
    /// orphan subtree root rejoining the tree (relaxed ordered algorithms
    /// apply the same eviction rule to rejoins as to joins, §5). The
    /// usurper keeps its own children; the evictee's children are adopted
    /// only into the usurper's *remaining* capacity, ranked by
    /// `keep_priority`.
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAnOrphan`] if `usurper` is not an orphan subtree
    /// root, plus the same errors as [`replace`](Self::replace).
    pub fn usurp(
        &mut self,
        evict: NodeId,
        usurper: NodeId,
        keep_priority: impl Fn(&MemberProfile) -> f64,
    ) -> Result<ReplaceOutcome, TreeError> {
        let _span = self.prof.span("overlay.usurp");
        if evict == self.root {
            return Err(TreeError::RootImmovable);
        }
        let Some(uix) = self.index_of(usurper).filter(|&ix| self.is_orphan_root(ix)) else {
            return Err(TreeError::NotAnOrphan(usurper));
        };
        let eix = self.attached_evictee(evict)?;
        Ok(self.take_over(eix, uix, keep_priority))
    }

    /// The slot of `evict`, which must be an attached non-root member.
    fn attached_evictee(&self, evict: NodeId) -> Result<NodeIndex, TreeError> {
        let eix = self
            .index_of(evict)
            .filter(|&ix| self.s(ix).attached)
            .ok_or(TreeError::UnknownMember(evict))?;
        debug_assert!(
            self.s(eix).parent != NodeIndex::NIL,
            "attached non-root has a parent"
        );
        Ok(eix)
    }

    /// The takeover behind [`replace`](Self::replace) and
    /// [`usurp`](Self::usurp): the orphan root `uix` takes the attached
    /// non-root `eix`'s position. It adopts the evictee's highest-ranked
    /// children into its spare slots, enters the tree at the evictee's
    /// depth once its child list is final (so its free-slot entry sees the
    /// final shape), and orphans the evictee and the overflow children.
    /// Only the usurper's own former subtrees change depth; the adopted
    /// ones keep theirs.
    fn take_over(
        &mut self,
        eix: NodeIndex,
        uix: NodeIndex,
        keep_priority: impl Fn(&MemberProfile) -> f64,
    ) -> ReplaceOutcome {
        let eslot = self.s(eix);
        let evict = eslot.profile.id;
        let pix = eslot.parent;
        let depth = eslot.depth;
        let mut former: Vec<(NodeId, NodeIndex)> = eslot
            .children
            .iter()
            .map(|&c| (self.s(c).profile.id, c))
            .collect();
        self.rank(&mut former, &keep_priority);
        let own = self.s(uix).children.len();
        let keep = former.len().min(self.free_slots_ix(uix));
        let (adopted, overflow) = former.split_at(keep);

        let siblings = &mut self.sm(pix).children;
        let pos = siblings.iter().position(|&c| c == eix).expect("linked");
        siblings[pos] = uix;

        // Index the usurper only once its child list is final, so its
        // free-slot entry sees the post-takeover shape.
        let u = self.sm(uix);
        u.parent = pix;
        u.depth = depth;
        u.attached = true;
        u.children.extend(adopted.iter().map(|&(_, c)| c));
        for &(_, c) in adopted {
            self.sm(c).parent = uix;
        }
        self.index_insert(uix, depth);

        let e = self.sm(eix);
        e.parent = NodeIndex::NIL;
        e.children.clear();
        e.attached = false;
        self.index_remove(eix, depth);
        for &(_, c) in overflow {
            self.sm(c).parent = NodeIndex::NIL;
            self.restamp_subtree(c, 0, false);
        }

        // The usurper's own subtrees come first in its child list and
        // attach one level below it.
        for i in 0..own {
            let c = self.s(uix).children[i];
            self.restamp_subtree(c, depth + 1, true);
        }

        let mut displaced = vec![evict];
        displaced.extend(overflow.iter().map(|&(cid, _)| cid));
        let adopted = adopted.iter().map(|&(cid, _)| cid).collect();
        ReplaceOutcome { displaced, adopted }
    }

    /// Sorts `members` by `priority` descending, ties by ascending id: the
    /// order every restructuring primitive keeps or spills children in.
    fn rank(&self, members: &mut [(NodeId, NodeIndex)], priority: &impl Fn(&MemberProfile) -> f64) {
        members.sort_by(|a, b| {
            let pa = priority(&self.s(a.1).profile);
            let pb = priority(&self.s(b.1).profile);
            pb.total_cmp(&pa).then_with(|| a.0.cmp(&b.0))
        });
    }

    /// ROST's switching operation (§3.3, Fig. 2): `child` exchanges
    /// positions with its parent. The promoted child adopts its former
    /// siblings plus the demoted parent; the demoted parent keeps as many
    /// of the child's former children as fit, spilling the rest — highest
    /// `priority` first, as the paper prescribes — into the promoted
    /// node's spare slots.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownMember`] if `child` is absent,
    /// [`TreeError::RootImmovable`] if `child` is the source,
    /// [`TreeError::NoSwitchableParent`] if `child` is detached, an orphan
    /// root, or a direct child of the source with no non-root parent.
    pub fn swap_with_parent(
        &mut self,
        child: NodeId,
        priority: impl Fn(&MemberProfile) -> f64,
    ) -> Result<SwitchRecord, TreeError> {
        let _span = self.prof.span("overlay.switch");
        if child == self.root {
            return Err(TreeError::RootImmovable);
        }
        let cix = self
            .index_of(child)
            .ok_or(TreeError::UnknownMember(child))?;
        let cslot = self.s(cix);
        if !cslot.attached {
            return Err(TreeError::NoSwitchableParent(child));
        }
        if cslot.parent == NodeIndex::NIL {
            return Err(TreeError::NoSwitchableParent(child));
        }
        let pix = cslot.parent;
        if pix == self.root_ix {
            return Err(TreeError::NoSwitchableParent(child));
        }
        let child_capacity = cslot.capacity;
        let child_children: Vec<(NodeId, NodeIndex)> = cslot
            .children
            .iter()
            .map(|&c| (self.s(c).profile.id, c))
            .collect();
        let pslot = self.s(pix);
        let parent = pslot.profile.id;
        debug_assert!(
            pslot.parent != NodeIndex::NIL,
            "attached non-root parent has a parent"
        );
        let gix = pslot.parent;
        let parent_capacity = pslot.capacity;
        let parent_depth = pslot.depth;
        // Former siblings of the child (they will follow the promoted node).
        let siblings: Vec<(NodeId, NodeIndex)> = pslot
            .children
            .iter()
            .filter(|&&c| c != cix)
            .map(|&c| (self.s(c).profile.id, c))
            .collect();

        if child_capacity == 0 {
            // The child cannot serve even the demoted parent.
            return Err(TreeError::InsufficientCapacity(child));
        }

        // The promoted node's new children: former siblings + the demoted
        // parent. Under ROST's bandwidth guard (child bw ≥ parent bw) all
        // siblings fit, because |siblings| + 1 ≤ parent capacity ≤ child
        // capacity; without the guard the lowest-priority siblings are
        // displaced to keep the tree legal.
        let mut ranked_siblings = siblings;
        self.rank(&mut ranked_siblings, &priority);
        let sibling_keep = ranked_siblings.len().min(child_capacity - 1);
        let (followed, displaced_siblings) = ranked_siblings.split_at(sibling_keep);

        // Distribute the child's former children: the demoted parent keeps
        // the lowest-priority ones, the highest-priority spill to the
        // promoted node's spare slots (paper: "chooses f, the node with the
        // largest BTP, and reconnects to node b").
        let mut ranked = child_children;
        self.rank(&mut ranked, &priority);
        let keep_count = ranked.len().min(parent_capacity);
        let spill_count = ranked.len() - keep_count;
        let (spilled, kept) = ranked.split_at(spill_count);

        let spare = child_capacity.saturating_sub(followed.len() + 1);
        let to_spare = spilled.len().min(spare);
        let (to_promoted, overflow) = spilled.split_at(to_spare);
        let mut displaced: Vec<(NodeId, NodeIndex)> = overflow.to_vec();
        displaced.extend(displaced_siblings.iter().copied());

        // Count parent-pointer changes before surgery: the promoted child,
        // the demoted parent, every sibling that followed the promotion,
        // and every former child of the promoted node that stays with the
        // demoted parent. Spilled nodes keep their parent (the promoted
        // node) and displaced nodes are counted by the rejoin they
        // trigger, not here.
        let parent_changes = 2 + followed.len() + kept.len();
        let mut reparented = vec![child, parent];
        reparented.extend(followed.iter().map(|&(id, _)| id));
        reparented.extend(kept.iter().map(|&(id, _)| id));

        // --- pointer surgery ---
        let gp_children = &mut self.sm(gix).children;
        let pos = gp_children
            .iter()
            .position(|&c| c == pix)
            .expect("linked");
        gp_children[pos] = cix;

        {
            let cslot = self.sm(cix);
            cslot.parent = gix;
            cslot.children.clear();
        }
        // Promoted child's new children, in order: followed siblings, the
        // demoted parent, then the spilled grandchildren.
        let mut promoted_children: Vec<NodeIndex> =
            followed.iter().map(|&(_, c)| c).collect();
        promoted_children.push(pix);
        promoted_children.extend(to_promoted.iter().map(|&(_, c)| c));
        self.sm(cix).children = promoted_children;
        {
            let pslot = self.sm(pix);
            pslot.parent = cix;
            pslot.children.clear();
        }
        let kept_ix: Vec<NodeIndex> = kept.iter().map(|&(_, c)| c).collect();
        self.sm(pix).children.extend(kept_ix.iter().copied());
        for &(_, s) in followed {
            self.sm(s).parent = cix;
        }
        for &k in &kept_ix {
            self.sm(k).parent = pix;
        }
        for &(_, t) in to_promoted {
            self.sm(t).parent = cix;
        }
        for &(_, d) in &displaced {
            self.sm(d).parent = NodeIndex::NIL;
            self.restamp_subtree(d, 0, false);
        }

        // Depths: a switch only perturbs depths by ±1 inside known
        // partitions. The promoted child rises one level and the demoted
        // parent sinks one; followed siblings and kept grandchildren keep
        // their depths (only their parent pointer changed, which nothing
        // keys on); each subtree spilled to the promoted node rises one
        // level wholesale, shape intact. Nothing here changes attachment,
        // and counts and index entries move only after the children lists
        // above are final, so free-slot membership is computed on the
        // post-switch shape.
        {
            let _restamp = self.prof.span("overlay.switch_restamp");
            self.index_remove(cix, parent_depth + 1);
            self.index_remove(pix, parent_depth);
            self.slots[cix.index()].depth = parent_depth;
            self.slots[pix.index()].depth = parent_depth + 1;
            self.index_insert(cix, parent_depth);
            self.index_insert(pix, parent_depth + 1);
            for &(_, t) in to_promoted {
                self.restamp_subtree(t, parent_depth + 1, true);
            }
        }

        Ok(SwitchRecord {
            promoted: child,
            demoted: parent,
            parent_changes,
            reparented,
            spilled_to_promoted: to_promoted.iter().map(|&(id, _)| id).collect(),
            displaced: displaced.iter().map(|&(id, _)| id).collect(),
        })
    }

    /// Changes `id`'s outbound bandwidth in place (access-link
    /// degradation). The member's out-degree capacity is recomputed from
    /// the new bandwidth; if it now serves more children than it can
    /// afford, the most recently adopted children are detached into
    /// orphan subtree roots (the same recovery path an abrupt departure
    /// triggers) and returned, in detachment order.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownMember`] if `id` is not in the tree.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is negative or not finite.
    pub fn set_bandwidth(&mut self, id: NodeId, bandwidth: f64) -> Result<Vec<NodeId>, TreeError> {
        assert!(
            bandwidth >= 0.0 && bandwidth.is_finite(),
            "bandwidth must be finite and non-negative"
        );
        let ix = self.index_of(id).ok_or(TreeError::UnknownMember(id))?;
        let slot = &mut self.slots[ix.index()];
        let attached = slot.attached;
        let depth = slot.depth;
        let old_bandwidth = slot.profile.bandwidth;
        slot.profile.bandwidth = bandwidth;
        slot.capacity = slot.profile.out_capacity();
        let mut shed_ix = Vec::new();
        while slot.children.len() > slot.capacity {
            if let Some(child) = slot.children.pop() {
                shed_ix.push(child);
            } else {
                break;
            }
        }
        // Re-key the member's order-index entry under its new bandwidth,
        // and re-evaluate its free-slot membership once shedding settles
        // the child count. Detached members carry no index entries.
        if let (true, Some(order)) = (attached, &mut self.order) {
            order.rekey_bandwidth(id, depth, old_bandwidth, bandwidth);
        }
        let shed: Vec<NodeId> = shed_ix.iter().map(|&c| self.s(c).profile.id).collect();
        for &c in &shed_ix {
            self.sm(c).parent = NodeIndex::NIL;
            self.restamp_subtree(c, 0, false);
        }
        if attached {
            self.refresh_free_slot(ix);
        }
        Ok(shed)
    }

    /// Mean out-degree of attached members that have at least one child —
    /// the `d` of the paper's `2d + 1` switch-overhead estimate. A
    /// contiguous scan of the arena (freed slots are detached and
    /// childless, so they filter out naturally).
    #[must_use]
    pub fn mean_internal_out_degree(&self) -> f64 {
        let mut total = 0usize;
        let mut count = 0usize;
        for slot in &self.slots {
            if slot.attached && !slot.children.is_empty() {
                total += slot.children.len();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Test helper: forcibly detaches `id` (with its subtree) into orphan
    /// state without removing any member.
    #[cfg(test)]
    pub(crate) fn remove_parent_link_for_test(&mut self, id: NodeId) {
        let ix = self.index_of(id).expect("exists");
        let pix = self.s(ix).parent;
        assert!(pix != NodeIndex::NIL, "test node has a parent");
        self.sm(pix).children.retain(|&c| c != ix);
        self.refresh_free_slot(pix);
        self.sm(ix).parent = NodeIndex::NIL;
        self.restamp_subtree(ix, 0, false);
    }

    /// Verifies every structural invariant; used by tests and property
    /// tests after each mutation.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |msg: String| Err(InvariantViolation::new(msg));

        // Arena bookkeeping sanity.
        if self.ids.len() + self.free.len() != self.slots.len() {
            return fail(format!(
                "{} ids + {} free slots != {} arena slots",
                self.ids.len(),
                self.free.len(),
                self.slots.len()
            ));
        }

        // Root sanity.
        let root_slot = match self.index_of(self.root) {
            Some(ix) if ix == self.root_ix => self.s(ix),
            _ => return fail("root is missing".into()),
        };
        if !root_slot.attached || root_slot.depth != 0 || root_slot.parent != NodeIndex::NIL {
            return fail("root must be attached at depth 0 with no parent".into());
        }

        let mut reachable = 0usize;
        let mut recount = vec![0usize; self.depth_counts.len()];
        let mut free_expected = 0usize;
        let mut interned = 0usize;
        let mut previous: Option<NodeId> = None;
        for (id, &ix) in self.ids.iter() {
            // The id table iterates every entry once, in ascending order.
            if let Some(p) = previous.filter(|&p| p >= id) {
                return fail(format!("id table yields {id} after {p}"));
            }
            previous = Some(id);
            interned += 1;
            let slot = self.s(ix);
            // Interning consistency.
            if slot.profile.id != id {
                return fail(format!("{id} interned to slot holding {}", slot.profile.id));
            }
            // Degree constraint.
            if slot.children.len() > slot.capacity {
                return fail(format!(
                    "{id} has {} children but capacity {}",
                    slot.children.len(),
                    slot.capacity
                ));
            }
            // Parent/child pointer symmetry.
            if slot.parent != NodeIndex::NIL {
                let p = self.s(slot.parent).profile.id;
                let pslot = self.s(slot.parent);
                if !pslot.children.contains(&ix) {
                    return fail(format!("{p} does not list child {id}"));
                }
                if slot.attached {
                    if !pslot.attached {
                        return fail(format!("attached {id} under detached parent {p}"));
                    }
                    if slot.depth != pslot.depth + 1 {
                        return fail(format!(
                            "{id} depth {} but parent depth {}",
                            slot.depth, pslot.depth
                        ));
                    }
                }
            } else if id != self.root && slot.attached {
                return fail(format!("attached {id} has no parent"));
            }
            for &c in &slot.children {
                let cslot = self.s(c);
                if self.index_of(cslot.profile.id) != Some(c) {
                    return fail(format!("{id} lists missing child slot {}", c.index()));
                }
                if cslot.parent != ix {
                    return fail(format!(
                        "{} does not point back at parent {id}",
                        cslot.profile.id
                    ));
                }
            }
            // Per-depth counts, and on an indexed tree order-index
            // agreement: every attached member appears in both ordered
            // eviction sets at its depth under its documented keys, and in
            // its depth's free-slot layer exactly when it has spare
            // capacity, at its back-pointer's position with its location.
            if slot.attached {
                reachable += 1;
                let depth = slot.depth;
                let Some(count) = recount.get_mut(depth) else {
                    return fail(format!(
                        "{id} attached at depth {depth} past the depth counts"
                    ));
                };
                *count += 1;
                if let Some(order) = &self.order {
                    let has_free = slot.capacity > slot.children.len();
                    free_expected += usize::from(has_free);
                    if let Err(msg) = order.check_member(&slot.profile, ix, depth, has_free) {
                        return fail(msg);
                    }
                }
            }
        }

        if interned != self.ids.len() {
            return fail(format!(
                "id table iterates {interned} entries but counts {}",
                self.ids.len()
            ));
        }

        // The cached counts agree with a recount, and the index totals
        // rule out stale index extras.
        if self.attached_total != reachable {
            return fail(format!(
                "attached_count cache {} but {reachable} attached members exist",
                self.attached_total
            ));
        }
        if recount != self.depth_counts {
            return fail(format!(
                "per-depth attached counts {:?} but a recount gives {recount:?}",
                self.depth_counts
            ));
        }
        if let Some(order) = &self.order {
            if let Err(msg) = order.check_totals(reachable, free_expected) {
                return fail(msg);
            }
        }

        // Attached members are exactly those reachable from the root
        // (also proves acyclicity of the attached part).
        let mut seen = 0usize;
        let mut frontier = vec![self.root_ix];
        let mut visited = BTreeSet::new();
        while let Some(n) = frontier.pop() {
            if !visited.insert(n) {
                return fail(format!("cycle through {}", self.s(n).profile.id));
            }
            seen += 1;
            frontier.extend(self.s(n).children.iter().copied());
        }
        if seen != reachable {
            return fail(format!(
                "{seen} members reachable from root but {reachable} marked attached"
            ));
        }

        // Freed slots carry no live state. (Direct slot access: free-list
        // entries intentionally carry stale generation stamps, so they
        // must not go through the checked `s()` accessor.)
        for &f in &self.free {
            let s = &self.slots[f.index()];
            if s.attached || !s.children.is_empty() || self.index_of(s.profile.id) == Some(f) {
                return fail(format!("freed slot {} still holds live state", f.index()));
            }
        }
        Ok(())
    }
}

/// Convenience constructor for the paper's source node: bandwidth 100
/// ("resembling the capability of a powerful source server", §5),
/// effectively infinite lifetime, id [`NodeId::SOURCE`].
#[must_use]
pub fn paper_source(location: crate::id::Location) -> MemberProfile {
    MemberProfile::new(NodeId::SOURCE, 100.0, SimTime::ZERO, 1e12, location)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Location;

    fn profile(id: u64, bw: f64) -> MemberProfile {
        MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, Location(id as u32))
    }

    /// Pins the audited arena slot size (see the `TreeSlot` doc). Debug
    /// builds carry two extra generation counters (slot + parent index),
    /// so the release budget is only asserted without debug assertions.
    #[test]
    fn tree_slot_size_stays_audited() {
        let size = std::mem::size_of::<TreeSlot>();
        #[cfg(not(debug_assertions))]
        assert!(
            size <= 88,
            "TreeSlot grew to {size} bytes; re-audit the layout comment"
        );
        #[cfg(debug_assertions)]
        assert!(
            size <= 96,
            "TreeSlot (debug) grew to {size} bytes; re-audit the layout comment"
        );
    }

    fn tree_with_capacity(root_bw: f64) -> MulticastTree {
        MulticastTree::new(profile(0, root_bw))
    }

    fn children_of(t: &MulticastTree, id: u64) -> Vec<NodeId> {
        t.children(NodeId(id)).collect()
    }

    /// The attached members at exactly `depth`, in id order.
    fn layer(t: &MulticastTree, depth: usize) -> Vec<NodeId> {
        t.member_entries()
            .filter(|&(_, ix)| t.depth_ix(ix) == Some(depth))
            .map(|(id, _)| id)
            .collect()
    }

    /// Every order query on a plain tree fails loudly, naming the
    /// constructor that builds the index, where `None` would read as "no
    /// member at this depth".
    #[test]
    fn order_queries_on_a_plain_tree_panic_naming_the_indexed_constructor() {
        let t = tree_with_capacity(10.0);
        let queries: [(&str, &dyn Fn()); 4] = [
            ("weakest_by_bandwidth", &|| {
                let _ = t.weakest_by_bandwidth(0);
            }),
            ("weakest_by_age", &|| {
                let _ = t.weakest_by_age(0, SimTime::ZERO);
            }),
            ("shallowest_free_depth", &|| {
                let _ = t.shallowest_free_depth();
            }),
            ("free_layer", &|| {
                let _ = t.free_layer(0);
            }),
        ];
        for (name, query) in queries {
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(query)).expect_err(name);
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            assert_eq!(msg, Some(NO_ORDER_INDEX), "{name}");
        }
        assert!(NO_ORDER_INDEX.contains("MulticastTree::with_order_index"));

        let t = MulticastTree::with_order_index(profile(0, 10.0));
        assert!(t.has_order_index() && !tree_with_capacity(10.0).has_order_index());
        assert_eq!(t.weakest_by_bandwidth(0), Some((10.0, NodeId(0))));
        assert_eq!(t.weakest_by_age(0, SimTime::ZERO), Some((0.0, NodeId(0))));
        assert_eq!(t.shallowest_free_depth(), Some(0));
        let root = t.profile(NodeId(0)).expect("root");
        assert_eq!(
            t.free_layer(0)
                .iter()
                .map(|e| (e.id, e.location))
                .collect::<BTreeSet<_>>(),
            BTreeSet::from([(root.id, root.location)])
        );
    }

    #[test]
    fn new_tree_has_only_root() {
        let t = tree_with_capacity(100.0);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.attached_count(), 1);
        assert_eq!(t.depth(NodeId(0)), Some(0));
        assert_eq!(t.capacity(NodeId(0)), 100);
        t.check_invariants().unwrap();
    }

    #[test]
    fn attach_builds_layers() {
        let mut t = tree_with_capacity(2.0);
        t.attach(profile(1, 2.0), NodeId(0)).unwrap();
        t.attach(profile(2, 1.0), NodeId(0)).unwrap();
        t.attach(profile(3, 0.5), NodeId(1)).unwrap();
        assert_eq!(t.depth(NodeId(3)), Some(2));
        assert_eq!(t.max_depth(), 2);
        assert_eq!(layer(&t, 1), vec![NodeId(1), NodeId(2)]);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(children_of(&t, 1), vec![NodeId(3)]);
        assert_eq!(
            t.overlay_path(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn attach_errors() {
        let mut t = tree_with_capacity(1.0);
        t.attach(profile(1, 0.5), NodeId(0)).unwrap();
        // Root is now full.
        assert_eq!(
            t.attach(profile(2, 1.0), NodeId(0)),
            Err(TreeError::ParentFull(NodeId(0)))
        );
        // Free-rider (capacity 0) cannot accept children.
        assert_eq!(
            t.attach(profile(3, 1.0), NodeId(1)),
            Err(TreeError::ParentFull(NodeId(1)))
        );
        assert_eq!(
            t.attach(profile(1, 1.0), NodeId(0)),
            Err(TreeError::DuplicateMember(NodeId(1)))
        );
        assert_eq!(
            t.attach(profile(4, 1.0), NodeId(99)),
            Err(TreeError::UnknownMember(NodeId(99)))
        );
    }

    #[test]
    fn set_bandwidth_recomputes_capacity_and_sheds_excess_children() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 1.0), NodeId(1)).unwrap();
        t.attach(profile(3, 1.0), NodeId(1)).unwrap();
        t.attach(profile(4, 1.0), NodeId(1)).unwrap();
        t.attach(profile(5, 1.0), NodeId(3)).unwrap();

        // Shrinking within budget sheds nobody.
        assert_eq!(t.set_bandwidth(NodeId(1), 3.5).unwrap(), vec![]);
        assert_eq!(t.capacity(NodeId(1)), 3);

        // Dropping to one slot sheds the most recently adopted children,
        // subtrees included, into orphan state.
        let shed = t.set_bandwidth(NodeId(1), 1.2).unwrap();
        assert_eq!(shed, vec![NodeId(4), NodeId(3)]);
        assert_eq!(t.capacity(NodeId(1)), 1);
        assert_eq!(children_of(&t, 1), vec![NodeId(2)]);
        assert!(!t.is_attached(NodeId(3)));
        assert!(!t.is_attached(NodeId(5)));
        assert_eq!(
            t.orphan_roots().collect::<Vec<_>>(),
            vec![NodeId(3), NodeId(4)]
        );
        t.check_invariants().unwrap();

        // The orphans recover through the normal reattach path.
        t.reattach(NodeId(3), NodeId(0)).unwrap();
        t.reattach(NodeId(4), NodeId(0)).unwrap();
        t.check_invariants().unwrap();

        assert_eq!(
            t.set_bandwidth(NodeId(77), 1.0),
            Err(TreeError::UnknownMember(NodeId(77)))
        );
    }

    #[test]
    fn remove_orphans_children_and_reports_descendants() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(1)).unwrap();
        t.attach(profile(3, 2.0), NodeId(1)).unwrap();
        t.attach(profile(4, 1.0), NodeId(2)).unwrap();

        let removed = t.remove(NodeId(1)).unwrap();
        assert_eq!(removed.profile.id, NodeId(1));
        assert_eq!(removed.orphaned_children, vec![NodeId(2), NodeId(3)]);
        let mut affected = removed.affected_descendants.clone();
        affected.sort();
        assert_eq!(affected, vec![NodeId(2), NodeId(3), NodeId(4)]);

        assert!(!t.contains(NodeId(1)));
        assert!(!t.is_attached(NodeId(2)));
        assert!(!t.is_attached(NodeId(4)));
        assert_eq!(t.depth(NodeId(4)), None);
        assert_eq!(
            t.orphan_roots().collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(3)]
        );
        assert_eq!(t.attached_count(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn reattach_restores_subtree() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(1)).unwrap();
        t.attach(profile(3, 1.0), NodeId(2)).unwrap();
        t.remove(NodeId(1)).unwrap();

        t.reattach(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(t.depth(NodeId(2)), Some(1));
        assert_eq!(t.depth(NodeId(3)), Some(2));
        assert!(t.orphan_roots().next().is_none());
        assert_eq!(t.attached_count(), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn reattach_rejects_cycles_and_non_orphans() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(1)).unwrap();
        t.attach(profile(3, 2.0), NodeId(2)).unwrap();
        t.remove(NodeId(1)).unwrap(); // orphan root: 2 (with child 3)

        assert_eq!(
            t.reattach(NodeId(3), NodeId(0)),
            Err(TreeError::NotAnOrphan(NodeId(3)))
        );
        assert_eq!(
            t.reattach(NodeId(2), NodeId(3)),
            Err(TreeError::WouldCycle(NodeId(3)))
        );
        assert_eq!(
            t.reattach(NodeId(2), NodeId(2)),
            Err(TreeError::WouldCycle(NodeId(2)))
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn cannot_remove_root() {
        let mut t = tree_with_capacity(1.0);
        assert_eq!(t.remove(NodeId(0)), Err(TreeError::RootImmovable));
    }

    #[test]
    fn replace_adopts_children_and_displaces_overflow() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 1.0), NodeId(1)).unwrap();
        t.attach(profile(3, 2.0), NodeId(1)).unwrap();
        t.attach(profile(4, 0.5), NodeId(1)).unwrap();

        // Newcomer with capacity 2 replaces node 1 (3 children): keeps the
        // two highest-bandwidth children, displaces the rest.
        let outcome = t
            .replace(NodeId(1), profile(5, 2.5), |p| p.bandwidth)
            .unwrap();
        assert_eq!(outcome.adopted, vec![NodeId(3), NodeId(2)]);
        assert_eq!(outcome.displaced, vec![NodeId(1), NodeId(4)]);

        assert_eq!(t.parent(NodeId(5)), Some(NodeId(0)));
        assert_eq!(t.depth(NodeId(5)), Some(1));
        assert_eq!(t.depth(NodeId(3)), Some(2));
        assert!(!t.is_attached(NodeId(1)));
        assert!(!t.is_attached(NodeId(4)));
        assert_eq!(
            t.orphan_roots().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(4)]
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn replace_guards() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        assert_eq!(
            t.replace(NodeId(0), profile(5, 2.0), |p| p.bandwidth),
            Err(TreeError::RootImmovable)
        );
        assert_eq!(
            t.replace(NodeId(1), profile(1, 2.0), |p| p.bandwidth),
            Err(TreeError::DuplicateMember(NodeId(1)))
        );
        assert_eq!(
            t.replace(NodeId(9), profile(5, 2.0), |p| p.bandwidth),
            Err(TreeError::UnknownMember(NodeId(9)))
        );
    }

    /// Reconstructs the paper's Fig. 2 switching example.
    #[test]
    fn swap_matches_paper_figure_2() {
        // g (root, large capacity)
        //   a (capacity 2): children b, c
        //     b (capacity 3): children d, e, f
        // BTPs are proxied by bandwidth here: b=12 > a=10, f largest of
        // d/e/f.
        let mut t = tree_with_capacity(10.0); // g = node 0
        let a = profile(1, 2.0);
        let b = profile(2, 3.0);
        let c = profile(3, 0.5);
        let d = profile(4, 0.3);
        let e = profile(5, 0.4);
        let f = profile(6, 0.5);
        t.attach(a, NodeId(0)).unwrap();
        t.attach(b, NodeId(1)).unwrap();
        t.attach(c, NodeId(1)).unwrap();
        t.attach(d, NodeId(2)).unwrap();
        t.attach(e, NodeId(2)).unwrap();
        t.attach(f, NodeId(2)).unwrap();

        let record = t.swap_with_parent(NodeId(2), |p| p.bandwidth).unwrap();
        assert_eq!(record.promoted, NodeId(2));
        assert_eq!(record.demoted, NodeId(1));
        // b is now the child of g; a is b's child; c follows b; f (largest
        // priority among d,e,f) spills to b; d,e stay with a.
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(6)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(4)), Some(NodeId(1)));
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(1)));
        assert_eq!(record.spilled_to_promoted, vec![NodeId(6)]);
        assert!(record.displaced.is_empty());
        // Parent changes: b, a, c, d, e — five pointers (2d+1 with d=2).
        assert_eq!(record.parent_changes, 5);
        // Depths updated.
        assert_eq!(t.depth(NodeId(2)), Some(1));
        assert_eq!(t.depth(NodeId(1)), Some(2));
        assert_eq!(t.depth(NodeId(4)), Some(3));
        assert_eq!(t.depth(NodeId(6)), Some(2));
        t.check_invariants().unwrap();
    }

    #[test]
    fn swap_guards() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 3.0), NodeId(1)).unwrap();
        // Child of root cannot switch above the root.
        assert_eq!(
            t.swap_with_parent(NodeId(1), |p| p.bandwidth),
            Err(TreeError::NoSwitchableParent(NodeId(1)))
        );
        assert_eq!(
            t.swap_with_parent(NodeId(0), |p| p.bandwidth),
            Err(TreeError::RootImmovable)
        );
        assert_eq!(
            t.swap_with_parent(NodeId(9), |p| p.bandwidth),
            Err(TreeError::UnknownMember(NodeId(9)))
        );
        // Orphans cannot switch.
        t.remove(NodeId(1)).unwrap();
        assert_eq!(
            t.swap_with_parent(NodeId(2), |p| p.bandwidth),
            Err(TreeError::NoSwitchableParent(NodeId(2)))
        );
    }

    #[test]
    fn swap_preserves_membership_and_capacity() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 2.0), NodeId(0)).unwrap();
        t.attach(profile(2, 5.0), NodeId(1)).unwrap();
        for i in 3..8 {
            t.attach(profile(i, 0.5), NodeId(2)).unwrap();
        }
        let before = t.len();
        let record = t.swap_with_parent(NodeId(2), |p| p.bandwidth).unwrap();
        assert_eq!(t.len(), before);
        t.check_invariants().unwrap();
        // Demoted parent (capacity 2) keeps 2, the rest spill to node 2
        // (capacity 5, 2 slots used by node 1 + nothing else → 3 spare).
        assert_eq!(t.child_count(NodeId(1)), 2);
        assert_eq!(record.spilled_to_promoted.len(), 3);
        assert!(record.displaced.is_empty());
    }

    #[test]
    fn ancestors_and_descendants() {
        let mut t = tree_with_capacity(5.0);
        t.attach(profile(1, 2.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(1)).unwrap();
        t.attach(profile(3, 2.0), NodeId(2)).unwrap();
        assert_eq!(
            t.ancestors(NodeId(3)),
            vec![NodeId(2), NodeId(1), NodeId(0)]
        );
        assert_eq!(
            t.ancestors_iter(NodeId(3)).collect::<Vec<_>>(),
            t.ancestors(NodeId(3))
        );
        assert!(t.is_ancestor(NodeId(0), NodeId(3)));
        assert!(t.is_ancestor(NodeId(1), NodeId(3)));
        assert!(!t.is_ancestor(NodeId(3), NodeId(1)));
        let mut desc = t.descendants(NodeId(1));
        desc.sort();
        assert_eq!(desc, vec![NodeId(2), NodeId(3)]);
        assert_eq!(t.subtree_size(NodeId(1)), 3);
        assert_eq!(t.subtree_size(NodeId(99)), 0);
    }

    #[test]
    fn attached_by_depth_is_breadth_first() {
        let mut t = tree_with_capacity(5.0);
        t.attach(profile(2, 2.0), NodeId(0)).unwrap();
        t.attach(profile(1, 2.0), NodeId(0)).unwrap();
        t.attach(profile(3, 2.0), NodeId(2)).unwrap();
        let order: Vec<NodeId> = t.attached_by_depth().collect();
        assert_eq!(order, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn mean_internal_out_degree() {
        let mut t = tree_with_capacity(5.0);
        assert_eq!(t.mean_internal_out_degree(), 0.0);
        t.attach(profile(1, 2.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(0)).unwrap();
        t.attach(profile(3, 2.0), NodeId(1)).unwrap();
        // Root has 2 children, node 1 has 1 → mean 1.5.
        assert_eq!(t.mean_internal_out_degree(), 1.5);
    }

    #[test]
    fn usurp_rejoins_orphan_at_evicted_position() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(1)).unwrap();
        t.attach(profile(3, 1.0), NodeId(2)).unwrap();
        t.attach(profile(4, 0.5), NodeId(0)).unwrap();
        // Orphan node 2 (with child 3) by removing node 1.
        t.remove(NodeId(1)).unwrap();
        assert!(t.orphan_roots().any(|o| o == NodeId(2)));

        // Node 2 usurps node 4's position at depth 1.
        let outcome = t.usurp(NodeId(4), NodeId(2), |p| p.bandwidth).unwrap();
        assert_eq!(outcome.displaced, vec![NodeId(4)]);
        assert!(outcome.adopted.is_empty());
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(0)));
        assert_eq!(t.depth(NodeId(2)), Some(1));
        assert_eq!(t.depth(NodeId(3)), Some(2));
        assert!(!t.is_attached(NodeId(4)));
        assert_eq!(t.orphan_roots().collect::<Vec<_>>(), vec![NodeId(4)]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn usurp_adopts_into_spare_capacity_only() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 2.0), NodeId(0)).unwrap(); // capacity 2
        t.attach(profile(2, 3.0), NodeId(0)).unwrap();
        t.attach(profile(3, 1.5), NodeId(2)).unwrap();
        t.attach(profile(4, 0.5), NodeId(2)).unwrap();
        t.attach(profile(5, 0.4), NodeId(1)).unwrap(); // node 1 has 1 child
                                                       // Orphan node 1 (child 5 still under it).
        t.remove_parent_link_for_test(NodeId(1));

        // Node 1 (capacity 2, one child) usurps node 2 (two children):
        // one adopted (highest bw = node 3), one displaced (node 4).
        let outcome = t.usurp(NodeId(2), NodeId(1), |p| p.bandwidth).unwrap();
        assert_eq!(outcome.adopted, vec![NodeId(3)]);
        assert_eq!(outcome.displaced, vec![NodeId(2), NodeId(4)]);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(t.depth(NodeId(5)), Some(2));
        t.check_invariants().unwrap();
    }

    #[test]
    fn usurp_guards() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(0)).unwrap();
        // Node 1 is attached, not an orphan.
        assert_eq!(
            t.usurp(NodeId(2), NodeId(1), |p| p.bandwidth),
            Err(TreeError::NotAnOrphan(NodeId(1)))
        );
        t.remove_parent_link_for_test(NodeId(1));
        assert_eq!(
            t.usurp(NodeId(0), NodeId(1), |p| p.bandwidth),
            Err(TreeError::RootImmovable)
        );
        assert_eq!(
            t.usurp(NodeId(42), NodeId(1), |p| p.bandwidth),
            Err(TreeError::UnknownMember(NodeId(42)))
        );
    }

    #[test]
    fn paper_source_has_capacity_100() {
        let src = paper_source(Location(0));
        assert_eq!(src.out_capacity(), 100);
        assert_eq!(src.id, NodeId::SOURCE);
    }

    // --- arena-specific behaviour ---

    #[test]
    fn slot_reuse_after_remove() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 2.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(0)).unwrap();
        let freed = t.index_of(NodeId(1)).unwrap();
        t.remove(NodeId(1)).unwrap();
        assert_eq!(t.index_of(NodeId(1)), None);
        // The next insert recycles the freed slot; the re-interned index
        // points at the same raw slot (the old stamp is dead — using
        // `freed` itself would trip the debug generation check).
        t.attach(profile(3, 2.0), NodeId(0)).unwrap();
        let reused = t.index_of(NodeId(3)).unwrap();
        assert_eq!(reused.index(), freed.index());
        assert_eq!(t.id_of(reused), NodeId(3));
        assert_eq!(t.len(), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn index_accessors_agree_with_id_accessors() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(1)).unwrap();
        t.attach(profile(3, 1.0), NodeId(1)).unwrap();
        for (id, ix) in t.member_entries() {
            assert_eq!(t.id_of(ix), id);
            assert_eq!(t.index_of(id), Some(ix));
            assert_eq!(t.depth_ix(ix), t.depth(id));
            assert_eq!(t.capacity_ix(ix), t.capacity(id));
            assert_eq!(t.free_slots_ix(ix), t.free_slots(id));
            assert_eq!(t.child_count_ix(ix), t.child_count(id));
            assert_eq!(t.is_attached_ix(ix), t.is_attached(id));
            assert_eq!(t.profile_ix(ix).id, id);
            assert_eq!(
                t.parent_ix(ix).map(|p| t.id_of(p)),
                t.parent(id)
            );
            let via_ix: Vec<NodeId> = t.children_ix(ix).iter().map(|&c| t.id_of(c)).collect();
            assert_eq!(via_ix, t.children(id).collect::<Vec<_>>());
        }
        let by_layers: Vec<NodeId> = (0..=t.max_depth()).flat_map(|d| layer(&t, d)).collect();
        assert_eq!(by_layers, t.attached_by_depth().collect::<Vec<_>>());
    }

    #[test]
    fn cached_counters_match_recomputation() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(1)).unwrap();
        t.attach(profile(3, 2.0), NodeId(2)).unwrap();
        t.remove(NodeId(1)).unwrap();
        assert_eq!(t.attached_count(), t.attached_by_depth().count());
        // Deepest attached member is the root again → max_depth falls to 0.
        assert_eq!(t.max_depth(), 0);
        t.reattach(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(t.attached_count(), t.attached_by_depth().count());
        assert_eq!(t.max_depth(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn lca_depth_matches_path_intersection() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(1)).unwrap();
        t.attach(profile(3, 2.0), NodeId(1)).unwrap();
        t.attach(profile(4, 1.0), NodeId(2)).unwrap();
        // Path 0-1-2-4 vs 0-1-3: LCA is node 1 at depth 1.
        assert_eq!(t.lca_depth(NodeId(4), NodeId(3)), Some(1));
        assert_eq!(t.lca_depth(NodeId(3), NodeId(4)), Some(1));
        // Ancestor pair: LCA is the ancestor itself.
        assert_eq!(t.lca_depth(NodeId(1), NodeId(4)), Some(1));
        // Same node: its own depth.
        assert_eq!(t.lca_depth(NodeId(4), NodeId(4)), Some(3));
        // Detached or unknown members have no correlation level.
        t.remove_parent_link_for_test(NodeId(2));
        assert_eq!(t.lca_depth(NodeId(4), NodeId(3)), None);
        assert_eq!(t.lca_depth(NodeId(99), NodeId(3)), None);
    }

    #[test]
    fn descendants_into_appends_in_walk_order() {
        let mut t = tree_with_capacity(10.0);
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 2.0), NodeId(1)).unwrap();
        t.attach(profile(3, 2.0), NodeId(1)).unwrap();
        t.attach(profile(4, 1.0), NodeId(2)).unwrap();
        let direct = t.descendants(NodeId(1));
        let mut buf = vec![NodeId(77)];
        t.descendants_into(NodeId(1), &mut buf);
        assert_eq!(buf[0], NodeId(77));
        assert_eq!(&buf[1..], &direct[..]);
    }
}
