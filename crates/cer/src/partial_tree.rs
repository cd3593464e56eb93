//! Partial tree reconstruction from gossiped root paths (§4.1).
//!
//! A member cannot see the whole multicast tree; it knows "a medium-sized
//! (e.g., 100) subset of other nodes. The information of each node
//! includes its own address, the addresses, layer numbers and out degrees
//! of all its ancestors." From that gossip it reconstructs the partial
//! tree `T` of Fig. 3 over which the MLC algorithm runs. Gossip here is
//! exact, so the fragment is the union of the known members' root paths,
//! read straight off the arena.
//!
//! The fragment is stored flat. Its nodes sit in one `Vec` ascending by
//! id, so a node's position is its index and index order is id order.
//! Each node holds a range of one shared child array (a CSR layout),
//! ascending by id. One BFS from the root at construction fixes the level
//! order Algorithm 1 walks. Both orders fix Algorithm 1's random draws.

use rom_overlay::{MulticastTree, NodeId};

/// Index sentinel: the root's parent.
const NIL: u32 = u32::MAX;

/// One fragment node.
#[derive(Debug, Clone, Copy)]
struct FragmentNode {
    id: NodeId,
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

/// A locally reconstructed fragment of the multicast tree: the input of
/// [`find_mlc_group`](crate::find_mlc_group) and
/// [`random_group`](crate::random_group).
///
/// Only parent/child relations are represented; members the local node has
/// never heard of simply do not appear (their subtrees collapse into the
/// known ancestors, exactly like Fig. 3's solid circles).
#[derive(Debug)]
pub struct PartialTree {
    /// Every fragment node, ascending by id.
    nodes: Vec<FragmentNode>,
    /// The child ranges of all nodes, back to back.
    children: Vec<u32>,
    /// The nodes in BFS order: depth by depth, and within a depth each
    /// parent's children (ascending by id) in the order of their parents.
    bfs: Vec<u32>,
    /// `level_ends[d]` is the end of depth `d`'s run in `bfs`.
    level_ends: Vec<u32>,
    /// The directly known members, ascending, as opposed to nodes that
    /// only appear as someone's ancestor.
    known: Vec<NodeId>,
    root: Option<u32>,
}

impl PartialTree {
    /// Builds the fragment that exact gossip from `members` gives: the
    /// union of their root paths in `tree`.
    ///
    /// Detached and unknown members are skipped, as they gossip no root
    /// path. Each member's walk up its parent links stops at the first
    /// node already in the fragment, so the cost is one step per distinct
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
        Self::assemble(tree.root(), &ids, &edges, known)
    }

    /// Lays out the fragment over the ascending, distinct `ids`, which
    /// hold `root` unless they are empty, with one `(child, parent)` edge
    /// per other node: child ranges, levels and the sorted known members.
    fn assemble(
        root: NodeId,
        ids: &[NodeId],
        edges: &[(NodeId, NodeId)],
        mut known: Vec<NodeId>,
    ) -> Self {
        let mut nodes: Vec<FragmentNode> = ids
            .iter()
            .map(|&id| FragmentNode {
                id,
                first_child: 0,
                child_count: 0,
            })
            .collect();
        let mut parents = vec![NIL; ids.len()];
        for &(child, parent) in edges {
            if let (Ok(c), Ok(p)) = (ids.binary_search(&child), ids.binary_search(&parent)) {
                parents[c] = p as u32;
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
        let mut children = vec![0; next as usize];
        for (c, &p) in parents.iter().enumerate() {
            if p != NIL {
                let parent = &mut nodes[p as usize];
                children[(parent.first_child + parent.child_count) as usize] = c as u32;
                parent.child_count += 1;
            }
        }
        known.sort_unstable();
        known.dedup();
        let mut tree = PartialTree {
            bfs: Vec::with_capacity(nodes.len()),
            nodes,
            children,
            level_ends: Vec::new(),
            known,
            root: ids.binary_search(&root).ok().map(|r| r as u32),
        };
        tree.number_levels();
        tree
    }

    /// Fills `bfs` and `level_ends`.
    fn number_levels(&mut self) {
        let Some(root) = self.root else {
            return;
        };
        self.bfs.push(root);
        let mut start = 0;
        while start < self.bfs.len() {
            let end = self.bfs.len();
            self.level_ends.push(end as u32);
            for i in start..end {
                let n = self.nodes[self.bfs[i] as usize];
                let range = n.first_child as usize..(n.first_child + n.child_count) as usize;
                self.bfs.extend_from_slice(&self.children[range]);
            }
            start = end;
        }
    }

    /// The root's id; `None` for an empty fragment.
    pub(crate) fn root(&self) -> Option<NodeId> {
        self.root.map(|r| self.id_at(r))
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

    /// The nodes at `depth` in BFS order: the children of the nodes at
    /// `depth - 1`, taken parent by parent in that level's order, each
    /// parent's children ascending.
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

    /// Appends the descendants of the node at index `from` (excluding
    /// `from`) to `out` in the order a stack-driven walk discovers them,
    /// using `frontier` as the stack: when a node is expanded its children
    /// are listed together, ascending, and the last node listed is
    /// expanded next. For root 0 with children 1 and 2, where 1 has child
    /// 3 and 2 has child 4, the order is 1, 2, 4, 3.
    pub(crate) fn descendants_into(&self, from: u32, frontier: &mut Vec<u32>, out: &mut Vec<u32>) {
        frontier.clear();
        frontier.push(from);
        while let Some(n) = frontier.pop() {
            let children = self.child_indices(n);
            out.extend_from_slice(children);
            frontier.extend_from_slice(children);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rom_overlay::{paper_source, Location, MemberProfile};
    use rom_sim::SimTime;

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().map(|&n| NodeId(n)).collect()
    }

    /// A tree under the source (id 0) from `(child, parent)` pairs in
    /// attach order; every member has room for four children.
    fn tree(edges: &[(u64, u64)]) -> MulticastTree {
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        for &(child, parent) in edges {
            let profile = MemberProfile::new(NodeId(child), 4.0, SimTime::ZERO, 1e6, Location(0));
            tree.attach(profile, NodeId(parent)).unwrap();
        }
        tree
    }

    fn level(t: &PartialTree, depth: usize) -> Vec<NodeId> {
        t.level_indices(depth).iter().map(|&i| t.id_at(i)).collect()
    }

    fn children(t: &PartialTree, id: u64) -> Vec<NodeId> {
        let i = t.nodes.binary_search_by_key(&NodeId(id), |n| n.id).unwrap() as u32;
        t.child_indices(i).iter().map(|&c| t.id_at(c)).collect()
    }

    fn descendants(t: &PartialTree, id: u64) -> Vec<NodeId> {
        let i = t.nodes.binary_search_by_key(&NodeId(id), |n| n.id).unwrap() as u32;
        let mut out = Vec::new();
        t.descendants_into(i, &mut Vec::new(), &mut out);
        out.into_iter().map(|d| t.id_at(d)).collect()
    }

    #[test]
    fn fragment_is_the_union_of_root_paths() {
        // 0 → 1 → {2, 3}, 0 → 4; 5 under 4 and 6 under 3 stay unknown.
        let t = tree(&[(1, 0), (2, 1), (3, 1), (4, 0), (5, 4), (6, 3)]);
        let f = PartialTree::from_tree(&t, ids(&[2, 3, 4]));
        assert_eq!(f.root(), Some(NodeId(0)));
        assert_eq!(f.nodes.len(), 5);
        assert_eq!(children(&f, 0), ids(&[1, 4]));
        assert_eq!(children(&f, 1), ids(&[2, 3]));
        assert!(children(&f, 3).is_empty());
        assert_eq!(level(&f, 0), ids(&[0]));
        assert_eq!(level(&f, 1), ids(&[1, 4]));
        assert_eq!(level(&f, 2), ids(&[2, 3]));
        assert!(level(&f, 3).is_empty());
    }

    #[test]
    fn levels_follow_parent_order_not_id_order() {
        // 0 → {1, 4}; 1 → 7; 4 → 5. Level 2 lists 1's child before 4's.
        let t = tree(&[(4, 0), (1, 0), (5, 4), (7, 1)]);
        let f = PartialTree::from_tree(&t, ids(&[5, 7]));
        assert_eq!(level(&f, 1), ids(&[1, 4]));
        assert_eq!(level(&f, 2), ids(&[7, 5]));
        assert!(level(&f, 3).is_empty());
    }

    #[test]
    fn descendants_follow_the_stack_order() {
        // Three levels below the root: 0 → {1, 2}, 1 → {3, 4}, 2 → {5, 6},
        // 3 → 7, 6 → 8. Each expansion lists its children ascending and
        // the last one listed is expanded next: this order is what
        // Algorithm 1's step 4 draws from.
        let t = tree(&[
            (2, 0),
            (1, 0),
            (6, 2),
            (5, 2),
            (4, 1),
            (3, 1),
            (8, 6),
            (7, 3),
        ]);
        let f = PartialTree::from_tree(&t, ids(&[7, 4, 5, 8]));
        assert_eq!(descendants(&f, 0), ids(&[1, 2, 5, 6, 8, 3, 4, 7]));
        assert_eq!(descendants(&f, 1), ids(&[3, 4, 7]));
        assert_eq!(descendants(&f, 2), ids(&[5, 6, 8]));
        assert!(descendants(&f, 8).is_empty());
    }

    #[test]
    fn from_full_tree_roundtrip() {
        // 0 → 1 → {2, 3}, 0 → 4 → 5. Removing 4 leaves 5 detached.
        let mut t = tree(&[(1, 0), (2, 1), (3, 1), (4, 0), (5, 4)]);
        t.remove(NodeId(4)).unwrap();
        // Known members come out ascending, once each; the detached 5 and
        // the unknown 77 gossip nothing.
        let f = PartialTree::from_tree(&t, ids(&[77, 3, 5, 2, 3]));
        assert_eq!(f.known(), ids(&[2, 3]).as_slice());
        assert_eq!(f.nodes.len(), 4);
        assert_eq!(children(&f, 0), ids(&[1]));
        assert_eq!(children(&f, 1), ids(&[2, 3]));
        assert_eq!(level(&f, 2), ids(&[2, 3]));
        // An ancestor in the view is known too; the walk stops at it.
        let f = PartialTree::from_tree(&t, ids(&[2, 1]));
        assert_eq!(f.known(), ids(&[1, 2]).as_slice());
        assert_eq!(f.nodes.len(), 3);
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
        let t = tree(&[(1, 0)]);
        let f = PartialTree::from_tree(&t, ids(&[5]));
        assert_eq!(f.root(), None);
        assert!(f.nodes.is_empty());
        assert!(f.known().is_empty());
        assert!(level(&f, 0).is_empty());
    }
}
