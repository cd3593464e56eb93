//! Loss correlation between multicast members (§4.1).
//!
//! "We assume a tree T = (V, E)... and define the loss correlation function
//! w : V × V → I, where w(v1, v2) represents the number of common edges
//! between the tree paths from the root r to v1 and v2." Two members with
//! zero correlation share no overlay ancestors below the root, so no
//! single upstream failure can silence both — exactly the property a
//! recovery group wants.

use rom_overlay::{MulticastTree, NodeId};

/// The number of common edges on the root paths of `a` and `b` — the
/// paper's `w(v1, v2)`. Returns `None` when either member is detached or
/// unknown (it has no root path).
///
/// The shared prefix of two root paths ends at the pair's lowest common
/// ancestor, so `w(a, b)` equals the LCA's depth.
///
/// # Examples
///
/// ```
/// use rom_cer::loss_correlation;
/// use rom_overlay::{paper_source, Location, MemberProfile, MulticastTree, NodeId};
/// use rom_sim::SimTime;
///
/// let mut tree = MulticastTree::new(paper_source(Location(0)));
/// let m = |id: u64| MemberProfile::new(NodeId(id), 2.0, SimTime::ZERO, 1e6, Location(id as u32));
/// tree.attach(m(1), NodeId(0))?;
/// tree.attach(m(2), NodeId(1))?;
/// tree.attach(m(3), NodeId(1))?;
/// tree.attach(m(4), NodeId(0))?;
///
/// // Siblings under node 1 share the root→1 edge.
/// assert_eq!(loss_correlation(&tree, NodeId(2), NodeId(3)), Some(1));
/// // Members in different root subtrees share nothing.
/// assert_eq!(loss_correlation(&tree, NodeId(2), NodeId(4)), Some(0));
/// # Ok::<(), rom_overlay::TreeError>(())
/// ```
#[must_use]
pub fn loss_correlation(tree: &MulticastTree, a: NodeId, b: NodeId) -> Option<usize> {
    // Two id→index lookups, then the walk follows arena parent links.
    tree.lca_depth(a, b)
}

/// Total pairwise loss correlation of a candidate recovery group — the
/// objective Algorithm 1 minimizes (`Σ_{vi,vj∈K} w(vi, vj)` over unordered
/// pairs). Detached or unknown members contribute nothing.
#[must_use]
pub fn group_correlation(tree: &MulticastTree, group: &[NodeId]) -> usize {
    let mut total = 0;
    for (i, &a) in group.iter().enumerate() {
        for &b in &group[i + 1..] {
            total += loss_correlation(tree, a, b).unwrap_or(0);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rom_overlay::{paper_source, Location, MemberProfile};
    use rom_sim::SimTime;

    fn profile(id: u64, bw: f64) -> MemberProfile {
        MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, Location(id as u32))
    }

    /// root(0) ── 1 ── 2 ── 4
    ///        │       └── 5
    ///        └─ 3 ── 6
    fn sample_tree() -> MulticastTree {
        let mut t = MulticastTree::new(paper_source(Location(0)));
        t.attach(profile(1, 3.0), NodeId(0)).unwrap();
        t.attach(profile(2, 3.0), NodeId(1)).unwrap();
        t.attach(profile(3, 3.0), NodeId(0)).unwrap();
        t.attach(profile(4, 1.0), NodeId(2)).unwrap();
        t.attach(profile(5, 1.0), NodeId(2)).unwrap();
        t.attach(profile(6, 1.0), NodeId(3)).unwrap();
        t
    }

    #[test]
    fn correlation_equals_lca_depth() {
        let t = sample_tree();
        assert_eq!(loss_correlation(&t, NodeId(4), NodeId(5)), Some(2)); // LCA 2
        assert_eq!(loss_correlation(&t, NodeId(4), NodeId(2)), Some(2)); // LCA 2 (ancestor)
        assert_eq!(loss_correlation(&t, NodeId(4), NodeId(1)), Some(1));
        assert_eq!(loss_correlation(&t, NodeId(4), NodeId(6)), Some(0)); // LCA root
        assert_eq!(loss_correlation(&t, NodeId(1), NodeId(3)), Some(0));
    }

    #[test]
    fn self_correlation_is_own_depth() {
        let t = sample_tree();
        assert_eq!(loss_correlation(&t, NodeId(4), NodeId(4)), Some(3));
        assert_eq!(loss_correlation(&t, NodeId(0), NodeId(0)), Some(0));
    }

    #[test]
    fn symmetric() {
        let t = sample_tree();
        for a in 0..7u64 {
            for b in 0..7u64 {
                assert_eq!(
                    loss_correlation(&t, NodeId(a), NodeId(b)),
                    loss_correlation(&t, NodeId(b), NodeId(a))
                );
            }
        }
    }

    #[test]
    fn detached_members_have_no_correlation() {
        let mut t = sample_tree();
        t.remove(NodeId(1)).unwrap(); // 2's subtree orphaned
        assert_eq!(loss_correlation(&t, NodeId(2), NodeId(6)), None);
        assert_eq!(loss_correlation(&t, NodeId(99), NodeId(6)), None);
    }

    #[test]
    fn group_objective() {
        let t = sample_tree();
        // {4, 5, 6}: w(4,5)=2, w(4,6)=0, w(5,6)=0 → 2.
        assert_eq!(group_correlation(&t, &[NodeId(4), NodeId(5), NodeId(6)]), 2);
        // A cross-subtree group has zero correlation.
        assert_eq!(group_correlation(&t, &[NodeId(2), NodeId(6)]), 0);
        assert_eq!(group_correlation(&t, &[]), 0);
        assert_eq!(group_correlation(&t, &[NodeId(4)]), 0);
    }
}
