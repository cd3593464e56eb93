//! Equivalence of the allocation-free LCA-walk loss correlation against
//! the root-path-prefix definition.
//!
//! PR 5 rewrote both `rom_cer::loss_correlation` (now delegating to the
//! arena tree's `lca_depth`) and `PartialTree::loss_correlation` (a
//! depth-equalizing parent walk) to stop materializing root-path `Vec`s in
//! the O(k²) group-objective pair loop. The paper defines `w(v1, v2)` as
//! the number of common edges on the root paths, so the reference
//! implementations below compute exactly that — build both paths, count
//! the shared prefix — and the property tests assert the walk-based
//! versions agree on every pair, including detached members, unknown ids,
//! and fragment nodes that cannot be traced to the root.

use proptest::prelude::*;
use rom_cer::{group_correlation, loss_correlation, AncestorRecord, PartialTree};
use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId};
use rom_sim::SimTime;

fn profile(id: u64, bw: f64) -> MemberProfile {
    MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, Location(id as u32))
}

/// Builds a tree from attach picks, then detaches some subtrees so the
/// queries also cover members without a root path.
fn build_tree(attach_picks: &[(u8, u8)], remove_picks: &[u8]) -> MulticastTree {
    let mut tree = MulticastTree::new(profile(0, 4.0));
    let mut next_id = 1u64;
    for &(bw_tenths, pick) in attach_picks {
        let parents: Vec<NodeId> = tree
            .attached_by_depth()
            .filter(|&n| tree.has_free_slot(n))
            .collect();
        if parents.is_empty() {
            break;
        }
        let parent = parents[pick as usize % parents.len()];
        let bw = 1.0 + f64::from(bw_tenths) / 10.0;
        tree.attach(profile(next_id, bw), parent).expect("free slot");
        next_id += 1;
    }
    for &pick in remove_picks {
        let victims: Vec<NodeId> = {
            let mut v: Vec<NodeId> = tree.member_ids().filter(|&n| n != tree.root()).collect();
            v.sort();
            v
        };
        if victims.is_empty() {
            break;
        }
        tree.remove(victims[pick as usize % victims.len()])
            .expect("known non-root member");
    }
    tree
}

/// Reference `w(a, b)`: materialize both root paths and count the shared
/// prefix (its last shared node is the LCA; edges = shared nodes − 1).
fn reference_full(tree: &MulticastTree, a: NodeId, b: NodeId) -> Option<usize> {
    let pa = tree.overlay_path(a)?;
    let pb = tree.overlay_path(b)?;
    let shared = pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count();
    Some(shared.saturating_sub(1))
}

/// Reference for the fragment: the pre-PR-5 implementation, verbatim.
fn reference_partial(tree: &PartialTree, a: NodeId, b: NodeId) -> Option<usize> {
    let node_count = tree.node_count();
    let path = |mut n: NodeId| -> Option<Vec<NodeId>> {
        let mut p = vec![n];
        while Some(n) != tree.root() {
            n = tree.parent(n)?;
            p.push(n);
            if p.len() > node_count + 2 {
                return None;
            }
        }
        p.reverse();
        Some(p)
    };
    let pa = path(a)?;
    let pb = path(b)?;
    let shared = pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count();
    Some(shared.saturating_sub(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full-tree correlation: the `lca_depth` walk equals the root-path
    /// prefix definition on every ordered pair, attached or not.
    #[test]
    fn full_tree_walk_matches_path_prefix(
        attach_picks in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40),
        remove_picks in prop::collection::vec(any::<u8>(), 0..6),
    ) {
        let tree = build_tree(&attach_picks, &remove_picks);
        let mut ids: Vec<NodeId> = tree.member_ids().collect();
        ids.push(NodeId(9_999)); // unknown member
        for &a in &ids {
            for &b in &ids {
                prop_assert_eq!(
                    loss_correlation(&tree, a, b),
                    reference_full(&tree, a, b),
                    "pair ({:?}, {:?})", a, b
                );
            }
        }
    }

    /// The group objective equals the naive pairwise sum over the
    /// reference correlation.
    #[test]
    fn group_objective_matches_naive_sum(
        attach_picks in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40),
        remove_picks in prop::collection::vec(any::<u8>(), 0..6),
        group_picks in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let tree = build_tree(&attach_picks, &remove_picks);
        let ids: Vec<NodeId> = tree.member_ids().collect();
        let group: Vec<NodeId> = group_picks
            .iter()
            .map(|&p| ids[p as usize % ids.len()])
            .collect();
        let mut naive = 0usize;
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                naive += reference_full(&tree, a, b).unwrap_or(0);
            }
        }
        prop_assert_eq!(group_correlation(&tree, &group), naive);
    }

    /// Fragment correlation: the depth-equalizing walk agrees with the
    /// pre-PR-5 path-materializing implementation on every pair of the
    /// fragment built from gossiped records of a random tree.
    #[test]
    fn partial_tree_walk_matches_old_implementation(
        attach_picks in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40),
        record_picks in prop::collection::vec(any::<u8>(), 1..20),
    ) {
        let tree = build_tree(&attach_picks, &[]);
        let ids: Vec<NodeId> = tree.member_ids().collect();
        let records: Vec<AncestorRecord> = record_picks
            .iter()
            .filter_map(|&p| AncestorRecord::from_tree(&tree, ids[p as usize % ids.len()]))
            .collect();
        let fragment = PartialTree::from_records(&records);
        let mut probes: Vec<NodeId> = ids.clone();
        probes.push(NodeId(9_999)); // outside the fragment
        for &a in &probes {
            for &b in &probes {
                prop_assert_eq!(
                    fragment.loss_correlation(a, b),
                    reference_partial(&fragment, a, b),
                    "fragment pair ({:?}, {:?})", a, b
                );
            }
        }
    }
}
