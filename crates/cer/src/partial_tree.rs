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
//! The fragment is stored flat, in the order the walks discover its
//! nodes, and rebuilt in place: one mark per arena slot records which
//! fragment node the slot became in the current build. Each node links
//! its children in discovery order; a read that draws from them sorts
//! them by id first. A fragment is a union of whole root paths, so a
//! node's fragment depth is its arena depth, and the level widths are
//! counted during the walk. The level order Algorithm 1 walks (each
//! parent's children ascending by id, parents in level order) and the
//! children's id order fix its random draws.

use rom_overlay::{MulticastTree, NodeId};

/// Index sentinel: no child, no next sibling, nothing below a walk's start.
const NIL: u32 = u32::MAX;

/// One fragment node.
#[derive(Debug, Clone, Copy)]
struct FragmentNode {
    id: NodeId,
    /// The most recently linked child; the rest follow `next_sibling`.
    first_child: u32,
    next_sibling: u32,
}

/// What an arena slot became in the build stamped `epoch`.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    epoch: u32,
    /// The slot's fragment index, valid while `epoch` is current.
    at: u32,
}

/// A locally reconstructed fragment of the multicast tree: the input of
/// [`find_mlc_group`](crate::find_mlc_group) and
/// [`random_group`](crate::random_group).
///
/// Only parent/child relations are represented; members the local node has
/// never heard of simply do not appear (their subtrees collapse into the
/// known ancestors, exactly like Fig. 3's solid circles).
#[derive(Debug, Default)]
pub struct PartialTree {
    /// One mark per arena slot, indexed by `NodeIndex::index()`; a slot
    /// is in the fragment iff its mark carries the current `epoch`.
    marks: Vec<Mark>,
    /// The current build's stamp; never 0, which every cleared mark holds.
    epoch: u32,
    /// Every fragment node, in discovery order.
    nodes: Vec<FragmentNode>,
    /// `widths[d]` is the number of fragment nodes at depth `d`.
    widths: Vec<u32>,
    /// The directly known members in view order, repeats included, as
    /// opposed to nodes that only appear as someone's ancestor.
    known: Vec<NodeId>,
    root: Option<u32>,
}

impl PartialTree {
    /// Builds the fragment that exact gossip from `members` gives: the
    /// union of their root paths in `tree`. See [`Self::rebuild`].
    #[must_use]
    pub fn from_tree<I>(tree: &MulticastTree, members: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut fragment = Self::default();
        fragment.rebuild(tree, members);
        fragment
    }

    /// Replaces this fragment with the one [`Self::from_tree`] builds,
    /// reusing its buffers.
    ///
    /// Detached and unknown members are skipped, as they gossip no root
    /// path. Each member's walk up its parent links stops at the first
    /// slot already marked in this build, so the cost is one step per
    /// distinct fragment node plus one per member, whatever the tree's
    /// size.
    pub fn rebuild<I>(&mut self, tree: &MulticastTree, members: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // A mark stamped 2³² builds ago would read as current.
            self.marks.fill(Mark::default());
            self.epoch = 1;
        }
        if self.marks.len() < tree.arena_len() {
            self.marks.resize(tree.arena_len(), Mark::default());
        }
        self.nodes.clear();
        self.widths.clear();
        self.known.clear();
        self.root = None;
        for member in members {
            let Some(mut ix) = tree.index_of(member) else {
                continue;
            };
            if !tree.is_attached_ix(ix) {
                continue;
            }
            self.known.push(member);
            let mut below = NIL;
            loop {
                let mark = self.marks[ix.index()];
                if mark.epoch == self.epoch {
                    // Once one node of a root path is in, the rest of it is too.
                    self.link(below, mark.at);
                    break;
                }
                let at = self.nodes.len() as u32;
                self.marks[ix.index()] = Mark {
                    epoch: self.epoch,
                    at,
                };
                self.nodes.push(FragmentNode {
                    id: tree.id_of(ix),
                    first_child: NIL,
                    next_sibling: NIL,
                });
                self.link(below, at);
                // Every node on an attached member's root path is attached.
                if let Some(depth) = tree.depth_ix(ix) {
                    if self.widths.len() <= depth {
                        self.widths.resize(depth + 1, 0);
                    }
                    self.widths[depth] += 1;
                }
                let Some(parent) = tree.parent_ix(ix) else {
                    self.root = Some(at); // the source
                    break;
                };
                below = at;
                ix = parent;
            }
        }
    }

    /// Makes `child` (unless `NIL`) a child of `parent`.
    fn link(&mut self, child: u32, parent: u32) {
        if child != NIL {
            self.nodes[child as usize].next_sibling = self.nodes[parent as usize].first_child;
            self.nodes[parent as usize].first_child = child;
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

    /// The number of nodes at `depth`.
    pub(crate) fn level_width(&self, depth: usize) -> usize {
        self.widths.get(depth).map_or(0, |&w| w as usize)
    }

    /// Appends the children of the node at index `i` to `out`, ascending
    /// by id.
    pub(crate) fn children_into(&self, i: u32, out: &mut Vec<u32>) {
        let start = out.len();
        let mut c = self.nodes[i as usize].first_child;
        while c != NIL {
            out.push(c);
            c = self.nodes[c as usize].next_sibling;
        }
        out[start..].sort_unstable_by_key(|&c| self.nodes[c as usize].id);
    }

    /// Replaces `out` with the nodes at `depth` in BFS order: the children
    /// of the nodes at `depth - 1`, taken parent by parent in that level's
    /// order, each parent's children ascending. Only the levels above
    /// `depth` are expanded.
    pub(crate) fn level_into(&self, depth: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.root);
        let mut above = Vec::new();
        for _ in 0..depth {
            std::mem::swap(out, &mut above);
            out.clear();
            for &n in &above {
                self.children_into(n, out);
            }
        }
    }

    /// Replaces `out` with the known members that pass `keep`, ascending
    /// and once each.
    pub(crate) fn known_into(&self, keep: impl Fn(NodeId) -> bool, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.known.iter().copied().filter(|&n| keep(n)));
        out.sort_unstable();
        out.dedup();
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
            let start = out.len();
            self.children_into(n, out);
            frontier.extend_from_slice(&out[start..]);
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

    fn index(t: &PartialTree, id: u64) -> u32 {
        t.nodes.iter().position(|n| n.id == NodeId(id)).unwrap() as u32
    }

    fn level(t: &PartialTree, depth: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.level_into(depth, &mut out);
        assert_eq!(out.len(), t.level_width(depth));
        out.into_iter().map(|i| t.id_at(i)).collect()
    }

    fn children(t: &PartialTree, id: u64) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.children_into(index(t, id), &mut out);
        out.into_iter().map(|c| t.id_at(c)).collect()
    }

    fn descendants(t: &PartialTree, id: u64) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.descendants_into(index(t, id), &mut Vec::new(), &mut out);
        out.into_iter().map(|d| t.id_at(d)).collect()
    }

    fn known(t: &PartialTree) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.known_into(|_| true, &mut out);
        out
    }

    /// Everything a read can see, keyed by id: the root, each node's
    /// children, the level widths and the known members.
    type Shape = (
        Option<NodeId>,
        Vec<(NodeId, Vec<NodeId>)>,
        Vec<u32>,
        Vec<NodeId>,
    );

    fn shape(t: &PartialTree) -> Shape {
        let mut nodes: Vec<_> = t
            .nodes
            .iter()
            .map(|n| (n.id, children(t, n.id.0)))
            .collect();
        nodes.sort_unstable();
        (t.root(), nodes, t.widths.clone(), known(t))
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
        // 0 → {1, 4}; 1 → 7; 4 → 5. Level 2 lists 1's child before 4's,
        // although the walks discover 5 first.
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
        assert_eq!(known(&f), ids(&[2, 3]));
        assert_eq!(f.nodes.len(), 4);
        assert_eq!(children(&f, 0), ids(&[1]));
        assert_eq!(children(&f, 1), ids(&[2, 3]));
        assert_eq!(level(&f, 2), ids(&[2, 3]));
        // `keep` filters before the sort; the order stays ascending.
        let mut kept = Vec::new();
        f.known_into(|n| n != NodeId(2), &mut kept);
        assert_eq!(kept, ids(&[3]));
        // An ancestor in the view is known too; the walk stops at it.
        let f = PartialTree::from_tree(&t, ids(&[2, 1]));
        assert_eq!(known(&f), ids(&[1, 2]));
        assert_eq!(f.nodes.len(), 3);
    }

    #[test]
    fn rebuilds_across_the_epoch_wrap_match_fresh_fragments() {
        // 0 → 1 → {2, 3}, 0 → 4 → 5: the views' fragments share only the
        // root, so a mark left from an earlier build would show.
        let t = tree(&[(1, 0), (2, 1), (3, 1), (4, 0), (5, 4)]);
        let (a, b) = (ids(&[2, 3]), ids(&[5]));
        let mut f = PartialTree::from_tree(&t, a.clone());
        // The next build stamps u32::MAX and the one after wraps; a wrap
        // that only skipped 0 would stamp 1 again and take `a`'s old
        // marks for current ones.
        f.epoch = u32::MAX - 1;
        for view in [&b, &a, &b, &a] {
            f.rebuild(&t, view.iter().copied());
            assert_eq!(
                shape(&f),
                shape(&PartialTree::from_tree(&t, view.iter().copied()))
            );
        }
        assert_eq!(f.epoch, 3);
    }

    #[test]
    fn empty_fragment() {
        let t = tree(&[(1, 0)]);
        let f = PartialTree::from_tree(&t, ids(&[5]));
        assert_eq!(f.root(), None);
        assert!(f.nodes.is_empty());
        assert!(known(&f).is_empty());
        assert!(level(&f, 0).is_empty());
    }
}
