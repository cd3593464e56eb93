//! Old-vs-new tree representation equivalence wall.
//!
//! PR 5 replaced the `BTreeMap<NodeId, TreeSlot>` core of
//! `rom_overlay::MulticastTree` with a dense slab arena. The pre-arena
//! implementation is embedded below, extracted from git history, and both
//! representations are driven through identical randomized operation
//! sequences. After every operation, every public observation — membership,
//! parent links, children order, depths, layer order, descendants walks,
//! orphan roots, subtree sizes, overlay paths, cached counters, and the
//! structured outcomes of each mutation — must agree exactly. Any
//! divergence is a bug in the arena rewrite, not a tolerable drift: the
//! determinism walls depend on the two cores being observationally
//! indistinguishable.
//!
//! The arena comes in two kinds, plain and with the order index the
//! centralized algorithms query; both are driven through every sequence
//! next to the model, so the index cannot change what either kind shows.

use proptest::prelude::*;
use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId, TreeError};
use rom_sim::SimTime;

/// The pre-arena `MulticastTree` (`BTreeMap` slots keyed by id), verbatim
/// from the last commit before the slab rewrite with only the `crate::`
/// paths rewritten to `rom_overlay::` imports. Kept as a reference model:
/// do not "fix" or optimize this copy.
#[allow(dead_code)]
mod old_model {
    use std::collections::{BTreeMap, BTreeSet};

    use rom_overlay::{MemberProfile, NodeId, TreeError};

    /// Local stand-in for `rom_overlay::InvariantViolation`, whose
    /// constructor is crate-private; the wall only checks `== Ok(())`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct InvariantViolation(String);

    impl InvariantViolation {
        fn new(description: String) -> Self {
            InvariantViolation(description)
        }
    }

    /// The capacity rule the model was frozen with, ⌊bandwidth / rate⌋
    /// (`MemberProfile::out_capacity` no longer takes a rate).
    fn out_capacity(profile: &MemberProfile, stream_rate: f64) -> usize {
        (profile.bandwidth / stream_rate).floor() as usize
    }


#[derive(Debug, Clone)]
struct TreeSlot {
    profile: MemberProfile,
    capacity: usize,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    depth: usize,
    attached: bool,
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
    stream_rate: f64,
    root: NodeId,
    nodes: BTreeMap<NodeId, TreeSlot>,
    /// Attached members bucketed by depth; `BTreeSet` keeps iteration
    /// deterministic.
    depth_index: Vec<BTreeSet<NodeId>>,
    orphan_roots: BTreeSet<NodeId>,
}

impl MulticastTree {
    /// Creates a tree containing only the multicast source.
    ///
    /// # Panics
    ///
    /// Panics if `stream_rate` is not positive.
    #[must_use]
    pub fn new(source: MemberProfile, stream_rate: f64) -> Self {
        assert!(stream_rate > 0.0, "stream rate must be positive");
        let root = source.id;
        let capacity = out_capacity(&source, stream_rate);
        let mut nodes = BTreeMap::new();
        nodes.insert(
            root,
            TreeSlot {
                profile: source,
                capacity,
                parent: None,
                children: Vec::new(),
                depth: 0,
                attached: true,
            },
        );
        let mut depth_index = vec![BTreeSet::new()];
        depth_index[0].insert(root);
        MulticastTree {
            stream_rate,
            root,
            nodes,
            depth_index,
            orphan_roots: BTreeSet::new(),
        }
    }

    /// The multicast source.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The stream rate capacities are measured against.
    #[must_use]
    pub fn stream_rate(&self) -> f64 {
        self.stream_rate
    }

    /// Total members, attached or not (including the source).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if only the source is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of members currently connected to the source.
    #[must_use]
    pub fn attached_count(&self) -> usize {
        self.depth_index.iter().map(BTreeSet::len).sum()
    }

    /// True if `id` is present (attached or orphaned).
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// True if `id` is present and connected to the source.
    #[must_use]
    pub fn is_attached(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(|s| s.attached)
    }

    /// The member's profile, if present.
    #[must_use]
    pub fn profile(&self, id: NodeId) -> Option<&MemberProfile> {
        self.nodes.get(&id).map(|s| &s.profile)
    }

    /// The member's parent; `None` for the root, orphan roots and unknown
    /// ids.
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes.get(&id).and_then(|s| s.parent)
    }

    /// The member's children (empty slice for unknown ids).
    #[must_use]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.nodes.get(&id).map_or(&[], |s| &s.children)
    }

    /// The member's depth below the source (root = 0); `None` when the
    /// member is detached or unknown.
    #[must_use]
    pub fn depth(&self, id: NodeId) -> Option<usize> {
        let slot = self.nodes.get(&id)?;
        slot.attached.then_some(slot.depth)
    }

    /// The member's out-degree capacity.
    #[must_use]
    pub fn capacity(&self, id: NodeId) -> usize {
        self.nodes.get(&id).map_or(0, |s| s.capacity)
    }

    /// Unused forwarding slots of `id` (0 for unknown ids).
    #[must_use]
    pub fn free_slots(&self, id: NodeId) -> usize {
        self.nodes
            .get(&id)
            .map_or(0, |s| s.capacity.saturating_sub(s.children.len()))
    }

    /// True if `id` can accept one more child.
    #[must_use]
    pub fn has_free_slot(&self, id: NodeId) -> bool {
        self.free_slots(id) > 0
    }

    /// Current orphan subtree roots, in id order.
    pub fn orphan_roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.orphan_roots.iter().copied()
    }

    /// All member ids, attached and detached, in arbitrary order.
    pub fn member_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Attached members in breadth-first (depth, then id) order — the
    /// "search from high to low layers" order of the relaxed ordered
    /// algorithms.
    pub fn attached_by_depth(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.depth_index
            .iter()
            .flat_map(|layer| layer.iter().copied())
    }

    /// The attached members at exactly `depth`.
    pub fn layer(&self, depth: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.depth_index
            .get(depth)
            .into_iter()
            .flat_map(|layer| layer.iter().copied())
    }

    /// The deepest attached layer index.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.depth_index
            .iter()
            .rposition(|layer| !layer.is_empty())
            .unwrap_or(0)
    }

    /// Ancestors of `id` from its parent up to the subtree root (the source
    /// for attached members). Empty for roots and unknown ids.
    #[must_use]
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// True if `ancestor` lies on the path from `id` to its subtree root.
    #[must_use]
    pub fn is_ancestor(&self, ancestor: NodeId, id: NodeId) -> bool {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// All descendants of `id` (excluding `id`), breadth-first.
    #[must_use]
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut frontier = vec![id];
        while let Some(n) = frontier.pop() {
            for &c in self.children(n) {
                out.push(c);
                frontier.push(c);
            }
        }
        out
    }

    /// Number of members in the subtree rooted at `id`, including `id`
    /// itself (0 for unknown ids).
    #[must_use]
    pub fn subtree_size(&self, id: NodeId) -> usize {
        if self.contains(id) {
            1 + self.descendants(id).len()
        } else {
            0
        }
    }

    /// The overlay path from the source to `id` (inclusive), or `None` when
    /// `id` is detached or unknown.
    #[must_use]
    pub fn overlay_path(&self, id: NodeId) -> Option<Vec<NodeId>> {
        if !self.is_attached(id) {
            return None;
        }
        let mut path = self.ancestors(id);
        path.reverse();
        path.push(id);
        Some(path)
    }

    fn index_insert(&mut self, id: NodeId, depth: usize) {
        if self.depth_index.len() <= depth {
            self.depth_index.resize_with(depth + 1, BTreeSet::new);
        }
        self.depth_index[depth].insert(id);
    }

    fn index_remove(&mut self, id: NodeId, depth: usize) {
        if let Some(layer) = self.depth_index.get_mut(depth) {
            layer.remove(&id);
        }
    }

    /// Marks the subtree rooted at `id` attached/detached and rebuilds its
    /// depths starting from `base_depth`. Returns the subtree size.
    fn restamp_subtree(&mut self, id: NodeId, base_depth: usize, attached: bool) -> usize {
        let mut count = 0;
        let mut frontier = vec![(id, base_depth)];
        while let Some((n, d)) = frontier.pop() {
            count += 1;
            let slot = self.nodes.get_mut(&n).expect("subtree member exists");
            let was_attached = slot.attached;
            let old_depth = slot.depth;
            slot.attached = attached;
            slot.depth = d;
            let children = slot.children.clone();
            if was_attached {
                self.index_remove(n, old_depth);
            }
            if attached {
                self.index_insert(n, d);
            }
            for c in children {
                frontier.push((c, d + 1));
            }
        }
        count
    }

    /// Attaches a brand-new member as a leaf under `parent`.
    ///
    /// # Errors
    ///
    /// [`TreeError::DuplicateMember`] if the id is already present,
    /// [`TreeError::UnknownMember`] / [`TreeError::ParentDetached`] /
    /// [`TreeError::ParentFull`] if the parent cannot serve it.
    pub fn attach(&mut self, profile: MemberProfile, parent: NodeId) -> Result<(), TreeError> {
        let id = profile.id;
        if self.contains(id) {
            return Err(TreeError::DuplicateMember(id));
        }
        let parent_slot = self
            .nodes
            .get(&parent)
            .ok_or(TreeError::UnknownMember(parent))?;
        if !parent_slot.attached {
            return Err(TreeError::ParentDetached(parent));
        }
        if parent_slot.children.len() >= parent_slot.capacity {
            return Err(TreeError::ParentFull(parent));
        }
        let depth = parent_slot.depth + 1;
        let capacity = out_capacity(&profile, self.stream_rate);
        self.nodes
            .get_mut(&parent)
            .expect("checked")
            .children
            .push(id);
        self.nodes.insert(
            id,
            TreeSlot {
                profile,
                capacity,
                parent: Some(parent),
                children: Vec::new(),
                depth,
                attached: true,
            },
        );
        self.index_insert(id, depth);
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
        if !self.orphan_roots.contains(&orphan) {
            return Err(TreeError::NotAnOrphan(orphan));
        }
        let parent_slot = self
            .nodes
            .get(&parent)
            .ok_or(TreeError::UnknownMember(parent))?;
        if !parent_slot.attached {
            // Covers both detached parents and parents inside this orphan's
            // own subtree (which are necessarily detached).
            if parent == orphan || self.is_ancestor(orphan, parent) {
                return Err(TreeError::WouldCycle(parent));
            }
            return Err(TreeError::ParentDetached(parent));
        }
        if parent_slot.children.len() >= parent_slot.capacity {
            return Err(TreeError::ParentFull(parent));
        }
        let base_depth = parent_slot.depth + 1;
        self.nodes
            .get_mut(&parent)
            .expect("checked")
            .children
            .push(orphan);
        self.nodes.get_mut(&orphan).expect("orphan exists").parent = Some(parent);
        self.orphan_roots.remove(&orphan);
        self.restamp_subtree(orphan, base_depth, true);
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
        if id == self.root {
            return Err(TreeError::RootImmovable);
        }
        if !self.contains(id) {
            return Err(TreeError::UnknownMember(id));
        }
        let affected_descendants = self.descendants(id);
        let slot = self.nodes.get(&id).expect("checked").clone();

        // Detach from the parent (if any).
        if let Some(p) = slot.parent {
            let siblings = &mut self.nodes.get_mut(&p).expect("parent exists").children;
            siblings.retain(|&c| c != id);
        }
        if slot.attached {
            self.index_remove(id, slot.depth);
        }
        self.orphan_roots.remove(&id);

        // Children become orphan roots; their subtrees go detached.
        let orphaned_children = slot.children.clone();
        for &c in &orphaned_children {
            self.nodes.get_mut(&c).expect("child exists").parent = None;
            self.orphan_roots.insert(c);
            self.restamp_subtree(c, 0, false);
        }

        self.nodes.remove(&id);
        Ok(RemovedMember {
            profile: slot.profile,
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
        if evict == self.root {
            return Err(TreeError::RootImmovable);
        }
        if self.contains(newcomer.id) {
            return Err(TreeError::DuplicateMember(newcomer.id));
        }
        let evict_slot = self
            .nodes
            .get(&evict)
            .ok_or(TreeError::UnknownMember(evict))?;
        if !evict_slot.attached {
            return Err(TreeError::UnknownMember(evict));
        }
        let parent = evict_slot.parent.expect("attached non-root has a parent");
        let depth = evict_slot.depth;
        let mut former_children = evict_slot.children.clone();

        let new_id = newcomer.id;
        let new_capacity = out_capacity(&newcomer, self.stream_rate);

        // Swap the parent's child pointer.
        let siblings = &mut self.nodes.get_mut(&parent).expect("parent exists").children;
        let pos = siblings.iter().position(|&c| c == evict).expect("linked");
        siblings[pos] = new_id;

        // Rank the evictee's children: highest priority kept.
        former_children.sort_by(|a, b| {
            let pa = keep_priority(&self.nodes[a].profile);
            let pb = keep_priority(&self.nodes[b].profile);
            pb.total_cmp(&pa).then_with(|| a.cmp(b))
        });
        let adopted: Vec<NodeId> = former_children.iter().copied().take(new_capacity).collect();
        let overflow: Vec<NodeId> = former_children.iter().copied().skip(new_capacity).collect();

        // Install the newcomer.
        self.nodes.insert(
            new_id,
            TreeSlot {
                profile: newcomer,
                capacity: new_capacity,
                parent: Some(parent),
                children: adopted.clone(),
                depth,
                attached: true,
            },
        );
        self.index_insert(new_id, depth);
        for &c in &adopted {
            self.nodes.get_mut(&c).expect("child exists").parent = Some(new_id);
        }
        // Depths below the adopted children are unchanged (same level).

        // Evictee becomes a childless orphan root.
        let evict_slot = self.nodes.get_mut(&evict).expect("checked");
        evict_slot.parent = None;
        evict_slot.children.clear();
        evict_slot.attached = false;
        self.index_remove(evict, depth);
        self.orphan_roots.insert(evict);

        // Overflow children become orphan subtree roots.
        for &c in &overflow {
            self.nodes.get_mut(&c).expect("child exists").parent = None;
            self.orphan_roots.insert(c);
            self.restamp_subtree(c, 0, false);
        }

        let mut displaced = vec![evict];
        displaced.extend(overflow);
        Ok(ReplaceOutcome { displaced, adopted })
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
        if evict == self.root {
            return Err(TreeError::RootImmovable);
        }
        if !self.orphan_roots.contains(&usurper) {
            return Err(TreeError::NotAnOrphan(usurper));
        }
        let evict_slot = self
            .nodes
            .get(&evict)
            .ok_or(TreeError::UnknownMember(evict))?;
        if !evict_slot.attached {
            return Err(TreeError::UnknownMember(evict));
        }
        let parent = evict_slot.parent.expect("attached non-root has a parent");
        let depth = evict_slot.depth;
        let mut former_children = evict_slot.children.clone();

        let usurper_slot = &self.nodes[&usurper];
        let spare = usurper_slot
            .capacity
            .saturating_sub(usurper_slot.children.len());

        // Swap the parent's child pointer.
        let siblings = &mut self.nodes.get_mut(&parent).expect("parent exists").children;
        let pos = siblings.iter().position(|&c| c == evict).expect("linked");
        siblings[pos] = usurper;

        former_children.sort_by(|a, b| {
            let pa = keep_priority(&self.nodes[a].profile);
            let pb = keep_priority(&self.nodes[b].profile);
            pb.total_cmp(&pa).then_with(|| a.cmp(b))
        });
        let adopted: Vec<NodeId> = former_children.iter().copied().take(spare).collect();
        let overflow: Vec<NodeId> = former_children.iter().copied().skip(spare).collect();

        {
            let u = self.nodes.get_mut(&usurper).expect("checked");
            u.parent = Some(parent);
            u.children.extend(adopted.iter().copied());
        }
        self.orphan_roots.remove(&usurper);
        for &c in &adopted {
            self.nodes.get_mut(&c).expect("child exists").parent = Some(usurper);
        }

        // Evictee becomes a childless orphan root.
        {
            let e = self.nodes.get_mut(&evict).expect("checked");
            e.parent = None;
            e.children.clear();
            e.attached = false;
        }
        self.index_remove(evict, depth);
        self.orphan_roots.insert(evict);

        for &c in &overflow {
            self.nodes.get_mut(&c).expect("child exists").parent = None;
            self.orphan_roots.insert(c);
            self.restamp_subtree(c, 0, false);
        }

        // The usurper's whole subtree (its old children plus the adopted
        // ones) becomes attached at the evictee's former depth.
        self.restamp_subtree(usurper, depth, true);

        let mut displaced = vec![evict];
        displaced.extend(overflow);
        Ok(ReplaceOutcome { displaced, adopted })
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
        if child == self.root {
            return Err(TreeError::RootImmovable);
        }
        let child_slot = self
            .nodes
            .get(&child)
            .ok_or(TreeError::UnknownMember(child))?;
        if !child_slot.attached {
            return Err(TreeError::NoSwitchableParent(child));
        }
        let parent = child_slot
            .parent
            .ok_or(TreeError::NoSwitchableParent(child))?;
        if parent == self.root {
            return Err(TreeError::NoSwitchableParent(child));
        }
        let child_capacity = child_slot.capacity;
        let child_children = child_slot.children.clone();
        let parent_slot = &self.nodes[&parent];
        let grandparent = parent_slot
            .parent
            .expect("attached non-root parent has a parent");
        let parent_capacity = parent_slot.capacity;
        let parent_depth = parent_slot.depth;
        // Former siblings of the child (they will follow the promoted node).
        let siblings: Vec<NodeId> = parent_slot
            .children
            .iter()
            .copied()
            .filter(|&c| c != child)
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
        let mut ranked_siblings = siblings.clone();
        ranked_siblings.sort_by(|a, b| {
            let pa = priority(&self.nodes[a].profile);
            let pb = priority(&self.nodes[b].profile);
            pb.total_cmp(&pa).then_with(|| a.cmp(b))
        });
        let sibling_keep = ranked_siblings.len().min(child_capacity - 1);
        let followed: Vec<NodeId> = ranked_siblings[..sibling_keep].to_vec();
        let displaced_siblings: Vec<NodeId> = ranked_siblings[sibling_keep..].to_vec();
        let mut promoted_children: Vec<NodeId> = followed.clone();
        promoted_children.push(parent);

        // Distribute the child's former children: the demoted parent keeps
        // the lowest-priority ones, the highest-priority spill to the
        // promoted node's spare slots (paper: "chooses f, the node with the
        // largest BTP, and reconnects to node b").
        let mut ranked = child_children.clone();
        ranked.sort_by(|a, b| {
            let pa = priority(&self.nodes[a].profile);
            let pb = priority(&self.nodes[b].profile);
            pb.total_cmp(&pa).then_with(|| a.cmp(b))
        });
        let keep_count = ranked.len().min(parent_capacity);
        let spill_count = ranked.len() - keep_count;
        let spilled: Vec<NodeId> = ranked[..spill_count].to_vec();
        let kept: Vec<NodeId> = ranked[spill_count..].to_vec();

        let spare = child_capacity.saturating_sub(promoted_children.len());
        let (to_promoted, mut displaced): (Vec<NodeId>, Vec<NodeId>) = if spilled.len() <= spare {
            (spilled, Vec::new())
        } else {
            let (a, b) = spilled.split_at(spare);
            (a.to_vec(), b.to_vec())
        };
        promoted_children.extend(to_promoted.iter().copied());
        displaced.extend(displaced_siblings.iter().copied());

        // Count parent-pointer changes before surgery: the promoted child,
        // the demoted parent, every sibling that followed the promotion,
        // and every former child of the promoted node that stays with the
        // demoted parent. Spilled nodes keep their parent (the promoted
        // node) and displaced nodes are counted by the rejoin they
        // trigger, not here.
        let parent_changes = 2 + followed.len() + kept.len();
        let mut reparented = vec![child, parent];
        reparented.extend(followed.iter().copied());
        reparented.extend(kept.iter().copied());

        // --- pointer surgery ---
        let gp_children = &mut self
            .nodes
            .get_mut(&grandparent)
            .expect("grandparent exists")
            .children;
        let pos = gp_children
            .iter()
            .position(|&c| c == parent)
            .expect("linked");
        gp_children[pos] = child;

        {
            let child_slot = self.nodes.get_mut(&child).expect("exists");
            child_slot.parent = Some(grandparent);
            child_slot.children = promoted_children.clone();
        }
        {
            let parent_slot = self.nodes.get_mut(&parent).expect("exists");
            parent_slot.parent = Some(child);
            parent_slot.children = kept.clone();
        }
        for &s in &followed {
            self.nodes.get_mut(&s).expect("exists").parent = Some(child);
        }
        for &k in &kept {
            self.nodes.get_mut(&k).expect("exists").parent = Some(parent);
        }
        for &t in &to_promoted {
            self.nodes.get_mut(&t).expect("exists").parent = Some(child);
        }
        for &d in &displaced {
            self.nodes.get_mut(&d).expect("exists").parent = None;
            self.orphan_roots.insert(d);
            self.restamp_subtree(d, 0, false);
        }

        // Depths: everything under the promoted child may have shifted.
        self.restamp_subtree(child, parent_depth, true);

        Ok(SwitchRecord {
            promoted: child,
            demoted: parent,
            parent_changes,
            reparented,
            spilled_to_promoted: to_promoted,
            displaced,
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
        let slot = self.nodes.get_mut(&id).ok_or(TreeError::UnknownMember(id))?;
        slot.profile.bandwidth = bandwidth;
        slot.capacity = out_capacity(&slot.profile, self.stream_rate);
        let mut shed = Vec::new();
        while slot.children.len() > slot.capacity {
            if let Some(child) = slot.children.pop() {
                shed.push(child);
            } else {
                break;
            }
        }
        for &c in &shed {
            self.nodes.get_mut(&c).expect("child exists").parent = None;
            self.orphan_roots.insert(c);
            self.restamp_subtree(c, 0, false);
        }
        Ok(shed)
    }

    /// Mean out-degree of attached members that have at least one child —
    /// the `d` of the paper's `2d + 1` switch-overhead estimate.
    #[must_use]
    pub fn mean_internal_out_degree(&self) -> f64 {
        let mut total = 0usize;
        let mut count = 0usize;
        for slot in self.nodes.values() {
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
        let parent = self.nodes[&id].parent.expect("test node has a parent");
        self.nodes
            .get_mut(&parent)
            .expect("parent exists")
            .children
            .retain(|&c| c != id);
        self.nodes.get_mut(&id).expect("exists").parent = None;
        self.orphan_roots.insert(id);
        self.restamp_subtree(id, 0, false);
    }

    /// Verifies every structural invariant; used by tests and property
    /// tests after each mutation.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |msg: String| Err(InvariantViolation::new(msg));

        // Root sanity.
        let root_slot = match self.nodes.get(&self.root) {
            Some(s) => s,
            None => return fail("root is missing".into()),
        };
        if !root_slot.attached || root_slot.depth != 0 || root_slot.parent.is_some() {
            return fail("root must be attached at depth 0 with no parent".into());
        }

        let mut reachable = 0usize;
        for (&id, slot) in &self.nodes {
            // Degree constraint.
            if slot.children.len() > slot.capacity {
                return fail(format!(
                    "{id} has {} children but capacity {}",
                    slot.children.len(),
                    slot.capacity
                ));
            }
            // Parent/child pointer symmetry.
            if let Some(p) = slot.parent {
                let Some(pslot) = self.nodes.get(&p) else {
                    return fail(format!("{id} points at missing parent {p}"));
                };
                if !pslot.children.contains(&id) {
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
            } else if id != self.root && !self.orphan_roots.contains(&id) {
                return fail(format!("{id} has no parent but is not an orphan root"));
            }
            for &c in &slot.children {
                match self.nodes.get(&c) {
                    Some(cslot) if cslot.parent == Some(id) => {}
                    Some(_) => return fail(format!("{c} does not point back at parent {id}")),
                    None => return fail(format!("{id} lists missing child {c}")),
                }
            }
            // Depth-index agreement.
            if slot.attached {
                reachable += 1;
                let in_index = self
                    .depth_index
                    .get(slot.depth)
                    .is_some_and(|l| l.contains(&id));
                if !in_index {
                    return fail(format!("{id} missing from depth index at {}", slot.depth));
                }
            }
        }

        // Index contains nothing extra.
        let indexed: usize = self.depth_index.iter().map(BTreeSet::len).sum();
        if indexed != reachable {
            return fail(format!(
                "depth index holds {indexed} ids but {reachable} attached members exist"
            ));
        }

        // Attached members are exactly those reachable from the root
        // (also proves acyclicity of the attached part).
        let mut seen = 0usize;
        let mut frontier = vec![self.root];
        let mut visited = BTreeSet::new();
        while let Some(n) = frontier.pop() {
            if !visited.insert(n) {
                return fail(format!("cycle through {n}"));
            }
            seen += 1;
            frontier.extend(self.children(n).iter().copied());
        }
        if seen != reachable {
            return fail(format!(
                "{seen} members reachable from root but {reachable} marked attached"
            ));
        }

        // Orphan roots really are detached roots.
        for &o in &self.orphan_roots {
            match self.nodes.get(&o) {
                Some(s) if s.parent.is_none() && !s.attached => {}
                _ => return fail(format!("{o} is not a valid orphan root")),
            }
        }
        Ok(())
    }
}
}

/// One randomized mutation; picks are resolved against the current state
/// (identical in both trees by induction, so both see the same concrete
/// operation).
///
/// `Reattach`/`Usurp` normally draw their orphan from the orphan roots;
/// with `any_member` they draw from every non-root member instead, so
/// the `NotAnOrphan` guard also meets attached members and members
/// inside an orphaned subtree.
#[derive(Debug, Clone)]
enum Op {
    Attach {
        bw_tenths: u8,
        pick: u16,
    },
    Remove {
        pick: u16,
    },
    Reattach {
        pick: u16,
        parent_pick: u16,
        any_member: bool,
    },
    Swap {
        pick: u16,
    },
    Replace {
        bw_tenths: u8,
        pick: u16,
    },
    Usurp {
        pick: u16,
        evict_pick: u16,
        any_member: bool,
    },
    SetBandwidth {
        bw_tenths: u8,
        pick: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(bw_tenths, pick)| Op::Attach { bw_tenths, pick }),
        2 => any::<u16>().prop_map(|pick| Op::Remove { pick }),
        2 => (any::<u16>(), any::<u16>()).prop_map(|(pick, parent_pick)| Op::Reattach { pick, parent_pick, any_member: false }),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(pick, parent_pick)| Op::Reattach { pick, parent_pick, any_member: true }),
        2 => any::<u16>().prop_map(|pick| Op::Swap { pick }),
        1 => (any::<u8>(), any::<u16>()).prop_map(|(bw_tenths, pick)| Op::Replace { bw_tenths, pick }),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(pick, evict_pick)| Op::Usurp { pick, evict_pick, any_member: false }),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(pick, evict_pick)| Op::Usurp { pick, evict_pick, any_member: true }),
        1 => (any::<u8>(), any::<u16>()).prop_map(|(bw_tenths, pick)| Op::SetBandwidth { bw_tenths, pick }),
    ]
}

fn pick_from(items: &[NodeId], pick: u16) -> Option<NodeId> {
    if items.is_empty() {
        None
    } else {
        Some(items[pick as usize % items.len()])
    }
}

fn profile(id: u64, bw: f64) -> MemberProfile {
    MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, Location(id as u32))
}

/// Every public observation of the two representations must agree.
fn assert_equivalent(new: &MulticastTree, old: &old_model::MulticastTree) {
    assert_eq!(new.check_invariants(), Ok(()));
    assert_eq!(old.check_invariants(), Ok(()));

    let ids_new: Vec<NodeId> = new.member_ids().collect();
    let ids_old: Vec<NodeId> = old.member_ids().collect();
    assert_eq!(ids_new, ids_old, "member_ids diverged");

    assert_eq!(new.len(), old.len());
    assert_eq!(new.attached_count(), old.attached_count());
    assert_eq!(new.max_depth(), old.max_depth());
    assert_eq!(new.root(), old.root());

    let orphans_new: Vec<NodeId> = new.orphan_roots().collect();
    let orphans_old: Vec<NodeId> = old.orphan_roots().collect();
    assert_eq!(orphans_new, orphans_old, "orphan_roots diverged");

    let bfs_new: Vec<NodeId> = new.attached_by_depth().collect();
    let bfs_old: Vec<NodeId> = old.attached_by_depth().collect();
    assert_eq!(bfs_new, bfs_old, "attached_by_depth diverged");

    for depth in 0..=new.max_depth() {
        let layer_new: Vec<NodeId> = new
            .member_entries()
            .filter(|&(_, ix)| new.depth_ix(ix) == Some(depth))
            .map(|(id, _)| id)
            .collect();
        let layer_old: Vec<NodeId> = old.layer(depth).collect();
        assert_eq!(layer_new, layer_old, "layer {depth} diverged");
    }

    assert!(
        (new.mean_internal_out_degree() - old.mean_internal_out_degree()).abs() < 1e-12,
        "mean_internal_out_degree diverged"
    );

    for &id in &ids_new {
        assert_eq!(new.parent(id), old.parent(id), "parent({id:?})");
        assert_eq!(new.depth(id), old.depth(id), "depth({id:?})");
        assert_eq!(new.is_attached(id), old.is_attached(id));
        assert_eq!(new.capacity(id), old.capacity(id));
        assert_eq!(new.free_slots(id), old.free_slots(id));
        let kids_new: Vec<NodeId> = new.children(id).collect();
        let kids_old: Vec<NodeId> = old.children(id).to_vec();
        assert_eq!(kids_new, kids_old, "children({id:?}) order diverged");
        assert_eq!(new.child_count(id), kids_old.len());
        assert_eq!(
            new.descendants(id),
            old.descendants(id),
            "descendants({id:?}) walk order diverged"
        );
        assert_eq!(new.subtree_size(id), old.subtree_size(id));
        assert_eq!(new.ancestors(id), old.ancestors(id));
        assert_eq!(new.overlay_path(id), old.overlay_path(id));
        assert_eq!(
            new.profile(id).map(|p| p.bandwidth),
            old.profile(id).map(|p| p.bandwidth)
        );
    }
}

/// Applies `op` to every arena tree and to the reference model, asserting
/// that each arena tree's fallible calls return the model's outcomes
/// (success payloads and errors alike).
fn apply_all(
    news: &mut [MulticastTree],
    old: &mut old_model::MulticastTree,
    op: &Op,
    next_id: &mut u64,
) {
    // Resolution uses only observations already proven equivalent.
    let new = &news[0];
    let free_parents: Vec<NodeId> = new
        .attached_by_depth()
        .filter(|&n| new.has_free_slot(n))
        .collect();
    let non_root: Vec<NodeId> = new
        .attached_by_depth()
        .filter(|&n| n != new.root())
        .collect();
    let orphans: Vec<NodeId> = new.orphan_roots().collect();
    let members: Vec<NodeId> = new.member_ids().filter(|&n| n != new.root()).collect();
    match *op {
        Op::Attach { bw_tenths, pick } => {
            if let Some(parent) = pick_from(&free_parents, pick) {
                let bw = f64::from(bw_tenths) / 10.0;
                let b = old.attach(profile(*next_id, bw), parent);
                for new in news.iter_mut() {
                    let a = new.attach(profile(*next_id, bw), parent);
                    assert_eq!(a, b, "attach outcome diverged");
                }
                *next_id += 1;
            }
        }
        Op::Remove { pick } => {
            if let Some(v) = pick_from(&members, pick) {
                let b = old.remove(v).expect("known non-root member");
                for new in news.iter_mut() {
                    let a = new.remove(v).expect("known non-root member");
                    assert_eq!(a.profile, b.profile);
                    assert_eq!(a.orphaned_children, b.orphaned_children);
                    assert_eq!(a.affected_descendants, b.affected_descendants);
                }
            }
        }
        Op::Reattach {
            pick,
            parent_pick,
            any_member,
        } => {
            let pool = if any_member { &members } else { &orphans };
            if let (Some(o), Some(p)) =
                (pick_from(pool, pick), pick_from(&free_parents, parent_pick))
            {
                let b = old.reattach(o, p);
                for new in news.iter_mut() {
                    assert_eq!(new.reattach(o, p), b, "reattach outcome diverged");
                }
            }
        }
        Op::Swap { pick } => {
            if let Some(n) = pick_from(&non_root, pick) {
                let b = old.swap_with_parent(n, |p| p.bandwidth);
                for new in news.iter_mut() {
                    match (new.swap_with_parent(n, |p| p.bandwidth), &b) {
                        (Ok(ra), Ok(rb)) => {
                            assert_eq!(ra.promoted, rb.promoted);
                            assert_eq!(ra.demoted, rb.demoted);
                            assert_eq!(ra.parent_changes, rb.parent_changes);
                            assert_eq!(ra.reparented, rb.reparented);
                            assert_eq!(ra.spilled_to_promoted, rb.spilled_to_promoted);
                            assert_eq!(ra.displaced, rb.displaced);
                        }
                        (Err(ea), Err(eb)) => assert_eq!(&ea, eb),
                        (a, b) => panic!("swap outcome diverged: {a:?} vs {b:?}"),
                    }
                }
            }
        }
        Op::Replace { bw_tenths, pick } => {
            if let Some(t) = pick_from(&non_root, pick) {
                let bw = f64::from(bw_tenths) / 10.0;
                let b = old.replace(t, profile(*next_id, bw), |p| p.bandwidth);
                for new in news.iter_mut() {
                    compare_replace(new.replace(t, profile(*next_id, bw), |p| p.bandwidth), &b);
                }
                *next_id += 1;
            }
        }
        Op::Usurp {
            pick,
            evict_pick,
            any_member,
        } => {
            let pool = if any_member { &members } else { &orphans };
            if let (Some(o), Some(t)) = (pick_from(pool, pick), pick_from(&non_root, evict_pick)) {
                let b = old.usurp(t, o, |p| p.bandwidth);
                for new in news.iter_mut() {
                    compare_replace(new.usurp(t, o, |p| p.bandwidth), &b);
                }
            }
        }
        Op::SetBandwidth { bw_tenths, pick } => {
            if let Some(t) = pick_from(&non_root, pick) {
                let bw = f64::from(bw_tenths) / 10.0;
                let b = old.set_bandwidth(t, bw);
                for new in news.iter_mut() {
                    assert_eq!(
                        new.set_bandwidth(t, bw),
                        b,
                        "set_bandwidth outcome diverged"
                    );
                }
            }
        }
    }
}

fn compare_replace(
    a: Result<rom_overlay::ReplaceOutcome, TreeError>,
    b: &Result<old_model::ReplaceOutcome, TreeError>,
) {
    match (a, b) {
        (Ok(ra), Ok(rb)) => {
            assert_eq!(ra.displaced, rb.displaced);
            assert_eq!(ra.adopted, rb.adopted);
        }
        (Err(ea), Err(eb)) => assert_eq!(&ea, eb),
        (a, b) => panic!("replace/usurp outcome diverged: {a:?} vs {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena tree, plain and with the order index, and the pre-arena
    /// BTreeMap tree are observationally indistinguishable under arbitrary
    /// mutation sequences.
    #[test]
    fn arena_matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 1..140)) {
        let mut news = [
            MulticastTree::new(profile(0, 4.0)),
            MulticastTree::with_order_index(profile(0, 4.0)),
        ];
        let mut old = old_model::MulticastTree::new(profile(0, 4.0), 1.0);
        let mut next_id = 1u64;
        for new in &news {
            assert_equivalent(new, &old);
        }
        for op in &ops {
            apply_all(&mut news, &mut old, op, &mut next_id);
            for new in &news {
                assert_equivalent(new, &old);
            }
        }
    }
}
