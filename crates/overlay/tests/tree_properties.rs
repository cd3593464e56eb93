//! Property-based tests: the multicast tree's structural invariants
//! survive arbitrary interleavings of every mutation the protocols
//! perform, on both kinds of tree (plain and with the order index), and
//! the order index's probes match exhaustive scans.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId, TreeError};
use rom_sim::SimTime;

/// One randomized mutation, to be resolved against the current tree state.
#[derive(Debug, Clone)]
enum Op {
    /// Attach a fresh member (bandwidth chosen from the value) under the
    /// k-th attached member with a free slot.
    Attach { bw_tenths: u8, pick: u16 },
    /// Remove the k-th non-root member.
    Remove { pick: u16 },
    /// Reattach the k-th orphan root under the j-th attached member with a
    /// free slot.
    Reattach { pick: u16, parent_pick: u16 },
    /// Swap the k-th attached member with its parent.
    Swap { pick: u16 },
    /// A fresh member replaces the k-th attached non-root member.
    Replace { bw_tenths: u8, pick: u16 },
    /// The k-th orphan root usurps the j-th attached non-root member.
    Usurp { pick: u16, evict_pick: u16 },
    /// Re-key the k-th member (root included) to a new bandwidth,
    /// shedding children past the recomputed capacity.
    SetBandwidth { bw_tenths: u8, pick: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(bw_tenths, pick)| Op::Attach { bw_tenths, pick }),
        2 => any::<u16>().prop_map(|pick| Op::Remove { pick }),
        2 => (any::<u16>(), any::<u16>()).prop_map(|(pick, parent_pick)| Op::Reattach { pick, parent_pick }),
        2 => any::<u16>().prop_map(|pick| Op::Swap { pick }),
        1 => (any::<u8>(), any::<u16>()).prop_map(|(bw_tenths, pick)| Op::Replace { bw_tenths, pick }),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(pick, evict_pick)| Op::Usurp { pick, evict_pick }),
        2 => (any::<u8>(), any::<u16>()).prop_map(|(bw_tenths, pick)| Op::SetBandwidth { bw_tenths, pick }),
    ]
}

fn apply_set_bandwidth(tree: &mut MulticastTree, bw_tenths: u8, pick: u16) {
    let mut members: Vec<NodeId> = tree.member_ids().collect();
    members.sort();
    if let Some(m) = pick_from(&members, pick) {
        tree.set_bandwidth(m, f64::from(bw_tenths) / 10.0).unwrap();
    }
}

fn pick_from(items: &[NodeId], pick: u16) -> Option<NodeId> {
    if items.is_empty() {
        None
    } else {
        Some(items[pick as usize % items.len()])
    }
}

fn attached_with_free_slot(tree: &MulticastTree) -> Vec<NodeId> {
    tree.attached_by_depth()
        .filter(|&n| tree.has_free_slot(n))
        .collect()
}

fn attached_non_root(tree: &MulticastTree) -> Vec<NodeId> {
    tree.attached_by_depth()
        .filter(|&n| n != tree.root())
        .collect()
}

/// A member whose join time spans negative, zero and positive seconds,
/// so the order index's age keys see every sign.
fn profile(id: u64, bw: f64) -> MemberProfile {
    let join_secs = (id % 13) as f64 - 6.0;
    MemberProfile::new(
        NodeId(id),
        bw,
        SimTime::from_secs(join_secs),
        1e6,
        Location(id as u32),
    )
}

/// A fresh tree of each kind: plain, then with the order index.
fn both_kinds() -> [MulticastTree; 2] {
    [
        MulticastTree::new(profile(0, 4.0)),
        MulticastTree::with_order_index(profile(0, 4.0)),
    ]
}

/// Resolves `op` against the tree's current state and applies it.
fn apply(tree: &mut MulticastTree, op: &Op, next_id: &mut u64) {
    match *op {
        Op::Attach { bw_tenths, pick } => {
            let parents = attached_with_free_slot(tree);
            if let Some(parent) = pick_from(&parents, pick) {
                let bw = f64::from(bw_tenths) / 10.0; // 0.0 ..= 25.5
                tree.attach(profile(*next_id, bw), parent).unwrap();
                *next_id += 1;
            }
        }
        Op::Remove { pick } => {
            let mut victims: Vec<NodeId> =
                tree.member_ids().filter(|&n| n != tree.root()).collect();
            victims.sort();
            if let Some(v) = pick_from(&victims, pick) {
                tree.remove(v).unwrap();
            }
        }
        Op::Reattach { pick, parent_pick } => {
            let orphans: Vec<NodeId> = tree.orphan_roots().collect();
            let parents = attached_with_free_slot(tree);
            if let (Some(o), Some(p)) =
                (pick_from(&orphans, pick), pick_from(&parents, parent_pick))
            {
                tree.reattach(o, p).unwrap();
            }
        }
        Op::Swap { pick } => {
            let nodes = attached_non_root(tree);
            if let Some(n) = pick_from(&nodes, pick) {
                match tree.swap_with_parent(n, |p| p.bandwidth) {
                    Ok(_)
                    | Err(TreeError::NoSwitchableParent(_))
                    | Err(TreeError::InsufficientCapacity(_)) => {}
                    Err(e) => panic!("unexpected swap error: {e}"),
                }
            }
        }
        Op::Replace { bw_tenths, pick } => {
            let targets = attached_non_root(tree);
            if let Some(t) = pick_from(&targets, pick) {
                let bw = f64::from(bw_tenths) / 10.0;
                tree.replace(t, profile(*next_id, bw), |p| p.bandwidth)
                    .unwrap();
                *next_id += 1;
            }
        }
        Op::Usurp { pick, evict_pick } => {
            let orphans: Vec<NodeId> = tree.orphan_roots().collect();
            let targets = attached_non_root(tree);
            if let (Some(o), Some(t)) = (pick_from(&orphans, pick), pick_from(&targets, evict_pick))
            {
                tree.usurp(t, o, |p| p.bandwidth).unwrap();
            }
        }
        Op::SetBandwidth { bw_tenths, pick } => {
            apply_set_bandwidth(tree, bw_tenths, pick);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants hold after every single mutation in a random sequence.
    #[test]
    fn invariants_survive_random_mutation_sequences(ops in prop::collection::vec(op_strategy(), 1..120)) {
        for mut tree in both_kinds() {
            let mut next_id = 1u64;
            for op in &ops {
                apply(&mut tree, op, &mut next_id);
                if let Err(v) = tree.check_invariants() {
                    panic!("after {op:?} (indexed: {}): {v}", tree.has_order_index());
                }
            }
        }
    }

    /// Membership conservation: mutations never lose or duplicate members
    /// except through explicit removal.
    #[test]
    fn membership_is_conserved(ops in prop::collection::vec(op_strategy(), 1..80)) {
        for mut tree in both_kinds() {
            let mut next_id = 1u64;
            let mut expected: std::collections::BTreeSet<u64> = [0].into_iter().collect();
            for op in &ops {
                match *op {
                    Op::Attach { bw_tenths, pick } => {
                        let parents = attached_with_free_slot(&tree);
                        if let Some(parent) = pick_from(&parents, pick) {
                            tree.attach(profile(next_id, f64::from(bw_tenths) / 10.0), parent).unwrap();
                            expected.insert(next_id);
                            next_id += 1;
                        }
                    }
                    Op::Remove { pick } => {
                        let mut victims: Vec<NodeId> =
                            tree.member_ids().filter(|&n| n != tree.root()).collect();
                        victims.sort();
                        if let Some(v) = pick_from(&victims, pick) {
                            tree.remove(v).unwrap();
                            expected.remove(&v.0);
                        }
                    }
                    Op::Swap { .. } => apply(&mut tree, op, &mut next_id),
                    _ => {}
                }
                let actual: std::collections::BTreeSet<u64> =
                    tree.member_ids().map(|n| n.0).collect();
                prop_assert_eq!(&actual, &expected);
            }
        }
    }

    /// The O(1) cached `attached_count` and the count-derived `max_depth`
    /// always match a from-scratch recomputation over the membership, on
    /// both kinds of tree, no matter how mutations interleave. A stale
    /// count would silently skew every report that reads the population
    /// size or the tree depth.
    #[test]
    fn cached_counters_match_recomputation(ops in prop::collection::vec(op_strategy(), 1..120)) {
        for mut tree in both_kinds() {
            let mut next_id = 1u64;
            for op in &ops {
                apply(&mut tree, op, &mut next_id);
                let recomputed_attached = tree
                    .member_ids()
                    .filter(|&n| tree.is_attached(n))
                    .count();
                prop_assert_eq!(tree.attached_count(), recomputed_attached);
                let recomputed_max_depth = tree
                    .member_ids()
                    .filter_map(|n| tree.depth(n))
                    .max()
                    .unwrap_or(0);
                prop_assert_eq!(tree.max_depth(), recomputed_max_depth);
            }
        }
    }

    /// Depths stored in the slots always match the distance to the root
    /// along parent pointers.
    #[test]
    fn depth_equals_ancestor_count(ops in prop::collection::vec(op_strategy(), 1..60)) {
        for mut tree in both_kinds() {
            let mut next_id = 1u64;
            for op in &ops {
                if matches!(op, Op::Attach { .. } | Op::Swap { .. }) {
                    apply(&mut tree, op, &mut next_id);
                }
                for id in tree.attached_by_depth() {
                    let depth = tree.depth(id).unwrap();
                    prop_assert_eq!(depth, tree.ancestors(id).len());
                }
            }
        }
    }

    /// The ordered eviction index and the free-slot index answer exactly
    /// what an exhaustive layer scan answers, no matter how mutations
    /// interleave — including `set_bandwidth` re-keying and slot reuse
    /// after removals (`check_invariants`, run every step, additionally
    /// proves index membership equals the attached set per depth).
    /// Join times span negative, zero, and positive seconds so the age
    /// probe's sign handling, clamp-at-zero ties, and id tie-breaks are
    /// all exercised at both probe times.
    #[test]
    fn eviction_probes_match_exhaustive_scans(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut tree = MulticastTree::with_order_index(profile(0, 4.0));
        let mut next_id = 1u64;
        for op in &ops {
            apply(&mut tree, op, &mut next_id);
            tree.check_invariants().unwrap();
            for now in [SimTime::from_secs(0.5), SimTime::from_secs(8.0)] {
                for depth in 0..=tree.max_depth() {
                    prop_assert_eq!(
                        tree.weakest_by_bandwidth(depth),
                        scan_weakest(&tree, depth, |p| p.bandwidth),
                        "bandwidth probe at depth {}", depth
                    );
                    prop_assert_eq!(
                        tree.weakest_by_age(depth, now),
                        scan_weakest(&tree, depth, |p| p.age(now)),
                        "age probe at depth {} now {:?}", depth, now
                    );
                }
            }
            // One pass over the membership buckets each attached member
            // with a free slot, with its location, by depth. A free layer
            // is unordered, so each is compared as a set.
            let mut scanned_free: Vec<BTreeSet<(NodeId, Location)>> =
                vec![BTreeSet::new(); tree.max_depth() + 1];
            for (id, ix) in tree.member_entries() {
                if let Some(depth) = tree.depth_ix(ix).filter(|_| tree.has_free_slot_ix(ix)) {
                    scanned_free[depth].insert((id, tree.profile_ix(ix).location));
                }
            }
            let scan_free_depth = scanned_free.iter().position(|layer| !layer.is_empty());
            prop_assert_eq!(tree.shallowest_free_depth(), scan_free_depth);
            for (depth, scanned) in scanned_free.into_iter().enumerate() {
                let layer = tree.free_layer(depth);
                let listed: BTreeSet<(NodeId, Location)> =
                    layer.iter().map(|e| (e.id, e.location)).collect();
                prop_assert_eq!(listed.len(), layer.len(), "duplicate free entry at depth {}", depth);
                prop_assert_eq!(listed, scanned, "free layer at depth {}", depth);
            }
        }
    }
}

/// The pre-index eviction search body: an exhaustive scan of one layer
/// for the minimum (key, id), using the same `==`/`<` comparisons the old
/// `find_eviction` used.
fn scan_weakest(
    tree: &MulticastTree,
    depth: usize,
    key: impl Fn(&MemberProfile) -> f64,
) -> Option<(f64, NodeId)> {
    let mut weakest: Option<(f64, NodeId)> = None;
    let layer = tree
        .member_entries()
        .filter(|&(_, ix)| tree.depth_ix(ix) == Some(depth));
    for (cand, ix) in layer {
        let k = key(tree.profile_ix(ix));
        let better = match weakest {
            None => true,
            Some((wk, wid)) => k < wk || (k == wk && cand < wid),
        };
        if better {
            weakest = Some((k, cand));
        }
    }
    weakest
}
