//! Partial tree reconstruction from gossiped ancestor lists (§4.1).
//!
//! A member cannot see the whole multicast tree; it knows "a medium-sized
//! (e.g., 100) subset of other nodes. The information of each node
//! includes its own address, the addresses, layer numbers and out degrees
//! of all its ancestors." From those records it reconstructs the partial
//! tree `T` of Fig. 3 over which the MLC algorithm runs.
//!
//! The fragment is stored flat. Its nodes sit in one `Vec` ascending by
//! id, so a node's position is its index and index order is id order.
//! Each node holds its parent's index and a range of one shared child
//! array (a CSR layout), ascending by id. One BFS from the root at
//! construction fixes every node's depth and the level order Algorithm 1
//! walks.

use rom_overlay::{MulticastTree, NodeId};

/// Index sentinel: no parent, or no path to the root.
const NIL: u32 = u32::MAX;

/// One gossiped record: a known member plus its root path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AncestorRecord {
    /// The known member.
    pub node: NodeId,
    /// Its ancestors ordered root-first (so `ancestors[0]` is the source).
    pub ancestors: Vec<NodeId>,
}

impl AncestorRecord {
    /// Extracts the record for `node` from a full tree — what the member
    /// itself would gossip. `None` when detached or unknown.
    #[must_use]
    pub fn from_tree(tree: &MulticastTree, node: NodeId) -> Option<Self> {
        let mut path = tree.overlay_path(node)?;
        path.pop(); // drop the node itself, keep root-first ancestors
        Some(AncestorRecord {
            node,
            ancestors: path,
        })
    }
}

/// One fragment node.
#[derive(Debug, Clone, Copy)]
struct FragmentNode {
    id: NodeId,
    /// The parent's index, or `NIL` for the root and for nodes whose
    /// gossip named no accepted parent.
    parent: u32,
    /// Depth below the root, or `NIL` when the parent chain never reaches
    /// the root.
    depth: u32,
    /// The children are `children[first_child..][..child_count]`.
    first_child: u32,
    child_count: u32,
}

/// The ids [`PartialTree::from_tree`]'s walk has reached: an
/// open-addressed set with linear probing, kept at most half full. It
/// answers membership only and is never iterated into a result, so its
/// layout cannot reach the fragment.
struct IdSet {
    slots: Vec<Option<NodeId>>,
    len: usize,
}

impl IdSet {
    /// A set for `n` ids before it first grows.
    fn with_capacity(n: usize) -> Self {
        IdSet {
            slots: vec![None; (2 * n).next_power_of_two().max(16)],
            len: 0,
        }
    }

    /// Adds `id`; `false` if it was in already.
    fn insert(&mut self, id: NodeId) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![None; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            self.len = 0;
            for id in old.into_iter().flatten() {
                self.insert(id);
            }
        }
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: ids are dense integers, the multiply spreads them.
        let mut at = (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while let Some(other) = self.slots[at] {
            if other == id {
                return false;
            }
            at = (at + 1) & mask;
        }
        self.slots[at] = Some(id);
        self.len += 1;
        true
    }
}

/// A locally reconstructed fragment of the multicast tree.
///
/// Only parent/child relations are represented; members the local node has
/// never heard of simply do not appear (their subtrees collapse into the
/// known ancestors, exactly like Fig. 3's solid circles).
#[derive(Debug, Clone, Default)]
pub struct PartialTree {
    /// Every fragment node, ascending by id.
    nodes: Vec<FragmentNode>,
    /// The child ranges of all nodes, back to back.
    children: Vec<u32>,
    /// The nodes the root reaches, in BFS order: depth by depth, and
    /// within a depth each parent's children (ascending by id) in the
    /// order of their parents.
    bfs: Vec<u32>,
    /// `level_ends[d]` is the end of depth `d`'s run in `bfs`.
    level_ends: Vec<u32>,
    /// The directly known members (record subjects), ascending, as
    /// opposed to nodes that only appear as someone's ancestor.
    known: Vec<NodeId>,
    root: Option<u32>,
}

impl PartialTree {
    /// Builds a partial tree from gossiped records.
    ///
    /// Records are merged; inconsistent parents (stale gossip) resolve in
    /// favour of the first record seen. The first record's first path
    /// node is the root. An edge into the root is stale gossip too and is
    /// dropped, so the root never gains a parent and every walk from it
    /// ends.
    #[must_use]
    pub fn from_records<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = &'a AncestorRecord>,
    {
        let mut root = None;
        let mut known = Vec::new();
        // (child, parent) for every usable edge, in record order.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for record in records {
            known.push(record.node);
            let first = record.ancestors.first().copied().unwrap_or(record.node);
            let root = *root.get_or_insert(first);
            let mut parent = first;
            for &child in record.ancestors.iter().skip(1).chain([&record.node]) {
                // `child == parent` is a corrupt record's degenerate edge.
                if child != parent && child != root {
                    edges.push((child, parent));
                }
                parent = child;
            }
        }
        // First record wins: the stable sort keeps each child's edges in
        // record order and the dedup keeps the first of them.
        edges.sort_by_key(|&(child, _)| child);
        edges.dedup_by_key(|&mut (child, _)| child);
        let mut ids = known.clone();
        ids.extend(edges.iter().flat_map(|&(child, parent)| [child, parent]));
        ids.sort_unstable();
        ids.dedup();
        Self::assemble(root, &ids, &edges, known)
    }

    /// Builds the fragment that exact gossip from `members` would give:
    /// the same tree as [`from_records`](Self::from_records) over
    /// [`AncestorRecord::from_tree`] of each member, without building the
    /// records.
    ///
    /// Detached and unknown members are skipped, as they gossip no record.
    /// The fragment is the union of the attached members' root paths, so
    /// each member's walk up its parent links stops at the first node
    /// already in the fragment: the cost is one step per distinct
    /// fragment node plus one per member, whatever the tree's size.
    #[must_use]
    pub fn from_tree<I>(tree: &MulticastTree, members: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let members = members.into_iter();
        // About two fragment nodes per member; the set grows past that.
        let mut seen = IdSet::with_capacity(2 * members.size_hint().1.unwrap_or(64));
        let mut ids = Vec::new();
        let mut edges = Vec::new();
        let mut known = Vec::new();
        for member in members {
            let Some(mut ix) = tree.index_of(member) else {
                continue;
            };
            if !tree.is_attached_ix(ix) {
                continue;
            }
            known.push(member);
            let mut id = member;
            // Once one node of a root path is in, the rest of it is too.
            while seen.insert(id) {
                ids.push(id);
                let Some(parent) = tree.parent_ix(ix) else {
                    break; // the source
                };
                ix = parent;
                let parent_id = tree.id_of(parent);
                edges.push((id, parent_id));
                id = parent_id;
            }
        }
        ids.sort_unstable();
        let root = (!ids.is_empty()).then(|| tree.root());
        Self::assemble(root, &ids, &edges, known)
    }

    /// Lays out the fragment over the ascending, distinct `ids` with one
    /// `(child, parent)` edge per child, none into `root`: parent indices,
    /// child ranges, levels and the sorted known members.
    fn assemble(
        root: Option<NodeId>,
        ids: &[NodeId],
        edges: &[(NodeId, NodeId)],
        mut known: Vec<NodeId>,
    ) -> Self {
        let mut nodes: Vec<FragmentNode> = ids
            .iter()
            .map(|&id| FragmentNode {
                id,
                parent: NIL,
                depth: NIL,
                first_child: 0,
                child_count: 0,
            })
            .collect();
        for &(child, parent) in edges {
            if let (Ok(c), Ok(p)) = (ids.binary_search(&child), ids.binary_search(&parent)) {
                nodes[c].parent = p as u32;
                nodes[p].child_count += 1;
            }
        }
        let mut next = 0;
        for node in &mut nodes {
            node.first_child = next;
            next += node.child_count;
            node.child_count = 0;
        }
        // Filling in index order leaves every child range ascending.
        let mut children = vec![NIL; next as usize];
        for c in 0..nodes.len() {
            let p = nodes[c].parent;
            if p != NIL {
                let parent = &mut nodes[p as usize];
                children[(parent.first_child + parent.child_count) as usize] = c as u32;
                parent.child_count += 1;
            }
        }
        known.sort_unstable();
        known.dedup();
        let root = root.and_then(|r| ids.binary_search(&r).ok());
        let mut tree = PartialTree {
            bfs: Vec::with_capacity(nodes.len()),
            nodes,
            children,
            level_ends: Vec::new(),
            known,
            root: root.map(|r| r as u32),
        };
        tree.number_levels();
        tree
    }

    /// Fills `bfs`, `level_ends` and each reachable node's depth. The root
    /// has no parent, so no parent cycle is reachable from it.
    fn number_levels(&mut self) {
        let Some(root) = self.root else {
            return;
        };
        self.nodes[root as usize].depth = 0;
        self.bfs.push(root);
        let mut start = 0;
        while start < self.bfs.len() {
            let end = self.bfs.len();
            let depth = self.level_ends.len() as u32 + 1;
            self.level_ends.push(end as u32);
            for i in start..end {
                let n = self.nodes[self.bfs[i] as usize];
                let range = n.first_child as usize..(n.first_child + n.child_count) as usize;
                for &c in &self.children[range] {
                    self.nodes[c as usize].depth = depth;
                    self.bfs.push(c);
                }
            }
            start = end;
        }
    }

    fn index(&self, id: NodeId) -> Option<u32> {
        self.nodes
            .binary_search_by_key(&id, |n| n.id)
            .ok()
            .map(|i| i as u32)
    }

    /// The id of the node at index `i`.
    pub(crate) fn id_at(&self, i: u32) -> NodeId {
        self.nodes[i as usize].id
    }

    /// The children of the node at index `i`, ascending.
    pub(crate) fn child_indices(&self, i: u32) -> &[u32] {
        let n = &self.nodes[i as usize];
        &self.children[n.first_child as usize..(n.first_child + n.child_count) as usize]
    }

    /// The nodes at `depth`, as indices in [`level`](Self::level)'s order.
    pub(crate) fn level_indices(&self, depth: usize) -> &[u32] {
        let Some(&end) = self.level_ends.get(depth) else {
            return &[];
        };
        let start = depth.checked_sub(1).map_or(0, |d| self.level_ends[d]);
        &self.bfs[start as usize..end as usize]
    }

    /// The known members, ascending.
    pub(crate) fn known(&self) -> &[NodeId] {
        &self.known
    }

    /// Appends the descendants of the node at index `from` to `out` in
    /// [`descendants`](Self::descendants)' order, using `frontier` as the
    /// stack.
    ///
    /// Every node has one parent, so a node below `from` is reached only
    /// along its own parent chain, and only a parent cycle through `from`
    /// could lead back to a node already visited. Skipping `from` cuts
    /// that cycle: each node is visited at most once.
    pub(crate) fn descendants_into(&self, from: u32, frontier: &mut Vec<u32>, out: &mut Vec<u32>) {
        frontier.clear();
        frontier.push(from);
        while let Some(n) = frontier.pop() {
            for &c in self.child_indices(n) {
                if c != from {
                    out.push(c);
                    frontier.push(c);
                }
            }
        }
    }

    /// The root, if any record mentioned one.
    #[must_use]
    pub fn root(&self) -> Option<NodeId> {
        self.root.map(|r| self.id_at(r))
    }

    /// Number of distinct nodes in the fragment.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The directly known members (record subjects), in id order.
    #[must_use]
    pub fn known_members(&self) -> Vec<NodeId> {
        self.known.clone()
    }

    /// The node's parent within the fragment.
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let parent = self.nodes[self.index(node)? as usize].parent;
        (parent != NIL).then(|| self.id_at(parent))
    }

    /// The node's children within the fragment, in id order.
    #[must_use]
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        self.index(node).map_or_else(Vec::new, |i| {
            self.child_indices(i)
                .iter()
                .map(|&c| self.id_at(c))
                .collect()
        })
    }

    /// Depth of `node` below the fragment root (root = 0). `None` for
    /// nodes outside the fragment and for nodes whose parent chain does
    /// not reach the root.
    #[must_use]
    pub fn depth(&self, node: NodeId) -> Option<usize> {
        let depth = self.nodes[self.index(node)? as usize].depth;
        (depth != NIL).then_some(depth as usize)
    }

    /// All fragment nodes at exactly `depth`, in BFS order: the children
    /// of the nodes at `depth - 1`, taken parent by parent in that level's
    /// order, each parent's children in id order.
    #[must_use]
    pub fn level(&self, depth: usize) -> Vec<NodeId> {
        self.level_indices(depth)
            .iter()
            .map(|&i| self.id_at(i))
            .collect()
    }

    /// All fragment descendants of `node` (excluding `node`), in the order
    /// a stack-driven walk discovers them: when a node is expanded its
    /// children are listed together in id order, and the last node listed
    /// is expanded next. For root 0 with children 1 and 2, where 1 has
    /// child 3 and 2 has child 4, the order is 1, 2, 4, 3. Each node
    /// appears at most once, even in a fragment whose stale gossip formed
    /// a parent cycle.
    #[must_use]
    pub fn descendants(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        if let Some(i) = self.index(node) {
            self.descendants_into(i, &mut Vec::new(), &mut out);
        }
        out.into_iter().map(|i| self.id_at(i)).collect()
    }

    /// Loss correlation within the fragment: common root-path edges.
    /// `None` when either node cannot be traced to the root.
    ///
    /// The shared root-path prefix ends at the pair's lowest common
    /// ancestor, so instead of materializing both paths the walk equalizes
    /// depths along parent links and climbs in lockstep until the nodes
    /// meet — no allocation, and [`depth`](Self::depth) already rejects
    /// untraceable or cyclic fragments.
    #[must_use]
    pub fn loss_correlation(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let (mut x, mut y) = (self.index(a)?, self.index(b)?);
        let (mut dx, mut dy) = (self.nodes[x as usize].depth, self.nodes[y as usize].depth);
        if dx == NIL || dy == NIL {
            return None;
        }
        while dx > dy {
            x = self.nodes[x as usize].parent;
            dx -= 1;
        }
        while dy > dx {
            y = self.nodes[y as usize].parent;
            dy -= 1;
        }
        while x != y {
            x = self.nodes[x as usize].parent;
            y = self.nodes[y as usize].parent;
            dx -= 1;
        }
        Some(dx as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rom_overlay::{paper_source, Location, MemberProfile};
    use rom_sim::SimTime;

    fn record(node: u64, ancestors: &[u64]) -> AncestorRecord {
        AncestorRecord {
            node: NodeId(node),
            ancestors: ancestors.iter().map(|&a| NodeId(a)).collect(),
        }
    }

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn builds_fragment_from_records() {
        // Fragment: 0 → 1 → {2, 3}, 0 → 4.
        let records = vec![record(2, &[0, 1]), record(3, &[0, 1]), record(4, &[0])];
        let t = PartialTree::from_records(&records);
        assert_eq!(t.root(), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
        assert_eq!(t.children(NodeId(1)), vec![NodeId(2), NodeId(3)]);
        assert_eq!(t.children(NodeId(0)), vec![NodeId(1), NodeId(4)]);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.known_members(), vec![NodeId(2), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn levels_and_depths() {
        let records = vec![record(2, &[0, 1]), record(3, &[0, 1]), record(4, &[0])];
        let t = PartialTree::from_records(&records);
        assert_eq!(t.level(0), vec![NodeId(0)]);
        assert_eq!(t.level(1), vec![NodeId(1), NodeId(4)]);
        assert_eq!(t.level(2), vec![NodeId(2), NodeId(3)]);
        assert_eq!(t.depth(NodeId(0)), Some(0));
        assert_eq!(t.depth(NodeId(3)), Some(2));
        assert_eq!(t.depth(NodeId(99)), None);
    }

    #[test]
    fn levels_follow_parent_order_not_id_order() {
        // 0 → {1, 4}; 1 → 7; 4 → 5. Level 2 lists 1's child before 4's.
        let t = PartialTree::from_records(&[record(7, &[0, 1]), record(5, &[0, 4])]);
        assert_eq!(t.level(2), ids(&[7, 5]));
        assert!(t.level(3).is_empty());
    }

    #[test]
    fn descendants_within_fragment() {
        let records = vec![record(2, &[0, 1]), record(3, &[0, 1, 2])];
        let t = PartialTree::from_records(&records);
        let mut d = t.descendants(NodeId(1));
        d.sort();
        assert_eq!(d, vec![NodeId(2), NodeId(3)]);
        assert!(t.descendants(NodeId(3)).is_empty());
    }

    #[test]
    fn descendants_follow_the_stack_order() {
        // Three levels below the root: 0 → {1, 2}, 1 → {3, 4}, 2 → {5, 6},
        // 3 → 7, 6 → 8. Each expansion lists its children ascending and
        // the last one listed is expanded next: this order is what
        // Algorithm 1's step 4 draws from.
        let t = PartialTree::from_records(&[
            record(7, &[0, 1, 3]),
            record(4, &[0, 1]),
            record(5, &[0, 2]),
            record(8, &[0, 2, 6]),
        ]);
        assert_eq!(t.descendants(NodeId(0)), ids(&[1, 2, 5, 6, 8, 3, 4, 7]));
        assert_eq!(t.descendants(NodeId(1)), ids(&[3, 4, 7]));
        assert_eq!(t.descendants(NodeId(2)), ids(&[5, 6, 8]));
    }

    #[test]
    fn fragment_correlation_matches_definition() {
        let records = vec![record(2, &[0, 1]), record(3, &[0, 1]), record(4, &[0])];
        let t = PartialTree::from_records(&records);
        assert_eq!(t.loss_correlation(NodeId(2), NodeId(3)), Some(1));
        assert_eq!(t.loss_correlation(NodeId(2), NodeId(4)), Some(0));
        assert_eq!(t.loss_correlation(NodeId(2), NodeId(99)), None);
    }

    #[test]
    fn conflicting_records_keep_first_parent() {
        let records = vec![record(2, &[0, 1]), record(2, &[0, 3])];
        let t = PartialTree::from_records(&records);
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
        // 3 still hangs off the root; the rejected edge adds nothing.
        assert_eq!(t.children(NodeId(3)), Vec::<NodeId>::new());
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn edge_into_the_root_is_dropped() {
        // Stale gossip: `1 ← [0]`, then `0 ← [1]`. Accepting the second
        // edge would make 1 the root's parent; every level would then be
        // non-empty and Algorithm 1 would never return.
        let t = PartialTree::from_records(&[record(1, &[0]), record(0, &[1])]);
        assert_eq!(t.root(), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(t.children(NodeId(1)), Vec::<NodeId>::new());
        assert_eq!(t.level(1), ids(&[1]));
        assert!(t.level(2).is_empty());
        assert_eq!(t.known_members(), ids(&[0, 1]));
        let mut rng = rom_sim::SimRng::seed_from(1);
        let group = crate::find_mlc_group(&t, 3, &crate::MlcOptions::default(), &mut rng);
        assert_eq!(group, ids(&[1]));
    }

    #[test]
    fn parent_cycle_off_the_root_terminates() {
        // 1 and 2 name each other as parent; neither reaches the root.
        let t = PartialTree::from_records(&[record(9, &[0]), record(2, &[1]), record(1, &[2])]);
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
        assert_eq!(t.depth(NodeId(1)), None);
        assert_eq!(t.descendants(NodeId(1)), ids(&[2]));
        assert_eq!(t.descendants(NodeId(2)), ids(&[1]));
        assert_eq!(t.loss_correlation(NodeId(1), NodeId(9)), None);
        assert!(t.level(2).is_empty());
    }

    #[test]
    fn from_full_tree_roundtrip() {
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        let m = |id: u64| MemberProfile::new(NodeId(id), 2.0, SimTime::ZERO, 1e6, Location(0));
        tree.attach(m(1), NodeId(0)).unwrap();
        tree.attach(m(2), NodeId(1)).unwrap();
        tree.attach(m(3), NodeId(1)).unwrap();

        let rec = AncestorRecord::from_tree(&tree, NodeId(2)).unwrap();
        assert_eq!(rec.ancestors, vec![NodeId(0), NodeId(1)]);

        let records: Vec<AncestorRecord> = [2u64, 3]
            .iter()
            .map(|&n| AncestorRecord::from_tree(&tree, NodeId(n)).unwrap())
            .collect();
        let partial = PartialTree::from_records(&records);
        // The fragment's correlation agrees with the full tree's.
        assert_eq!(
            partial.loss_correlation(NodeId(2), NodeId(3)),
            crate::correlation::loss_correlation(&tree, NodeId(2), NodeId(3))
        );
        // The arena walk builds the same fragment without the records.
        let walked = PartialTree::from_tree(&tree, ids(&[2, 3, 77]));
        assert_eq!(walked.root(), Some(NodeId(0)));
        assert_eq!(walked.node_count(), 4);
        assert_eq!(walked.known_members(), ids(&[2, 3]));
        assert_eq!(walked.children(NodeId(1)), ids(&[2, 3]));
        assert_eq!(walked.level(2), partial.level(2));
    }

    #[test]
    fn id_set_grows_without_losing_ids() {
        let mut set = IdSet::with_capacity(1);
        for id in (0..200).map(|n| NodeId(n * 1_024)) {
            assert!(set.insert(id));
        }
        for id in (0..200).map(|n| NodeId(n * 1_024)) {
            assert!(!set.insert(id));
        }
        assert_eq!(set.len, 200);
        assert!(2 * set.len <= set.slots.len());
    }

    #[test]
    fn empty_fragment() {
        let t = PartialTree::from_records(&[]);
        assert_eq!(t.root(), None);
        assert_eq!(t.node_count(), 0);
        assert!(t.level(0).is_empty());
        let tree = MulticastTree::new(paper_source(Location(0)));
        let walked = PartialTree::from_tree(&tree, ids(&[5]));
        assert_eq!(walked.root(), None);
        assert_eq!(walked.node_count(), 0);
    }
}
