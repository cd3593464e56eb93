//! Property tests for the CER substrate: the sequence range set against a
//! naive model, stripe-plan invariants, and Algorithm 1's guarantees on
//! the fragments of arbitrary trees.

use proptest::prelude::*;
use rom_cer::{find_mlc_group, PartialTree, SeqRangeSet, StripePlan, STRIPE_MODULO};
use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId};
use rom_sim::{SimRng, SimTime};
use std::collections::HashSet;

proptest! {
    /// SeqRangeSet behaves exactly like a HashSet of sequence numbers
    /// under arbitrary interleavings of single and range inserts.
    #[test]
    fn range_set_matches_naive_model(
        ops in prop::collection::vec((0u64..300, 0u64..8), 1..150),
    ) {
        let mut set = SeqRangeSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        for (lo, width) in ops {
            set.insert_range(lo, lo + width);
            for v in lo..lo + width {
                model.insert(v);
            }
        }
        prop_assert_eq!(set.len(), model.len() as u64);
        for v in 0..320 {
            prop_assert_eq!(set.contains(v), model.contains(&v), "seq {}", v);
        }
        // Internal ranges stay sorted, disjoint and non-adjacent.
        for w in set.ranges().windows(2) {
            prop_assert!(w[0].1 < w[1].0);
        }
    }

    /// Stripe plans cover disjoint, ordered slot ranges and their coverage
    /// equals the (capped) residual sum.
    #[test]
    fn stripe_plan_invariants(residuals in prop::collection::vec(0.0f64..0.9, 0..8)) {
        let plan = StripePlan::plan(&residuals);
        let mut cursor = 0u64;
        for seg in plan.segments() {
            prop_assert!(seg.lo >= cursor, "segments out of order");
            prop_assert!(seg.hi > seg.lo);
            prop_assert!(seg.hi <= STRIPE_MODULO);
            cursor = seg.hi;
        }
        let total: f64 = residuals.iter().sum();
        prop_assert!((plan.coverage() - total.min(1.0)).abs() < 0.02);
        // Full-coverage plans assign every slot whenever anyone can serve.
        let full = StripePlan::plan_full_coverage(&residuals);
        if residuals.iter().any(|&e| e > 0.01) {
            for seq in 0..STRIPE_MODULO {
                prop_assert!(full.assigned_member(seq).is_some(), "slot {} uncovered", seq);
            }
        }
    }

    /// Algorithm 1 on the fragments of arbitrary trees: members are
    /// distinct, never the root, never excluded, and at most k.
    #[test]
    fn mlc_group_guarantees(
        parents in prop::collection::vec(0usize..20, 2..40),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Build a random tree over ids 0..=n (0 = root): node i+1 attaches
        // under a previous node. Every member has room for all the others.
        let n = parents.len();
        let profile = |id: usize| {
            MemberProfile::new(NodeId(id as u64), 64.0, SimTime::ZERO, 1e6, Location(0))
        };
        let mut tree = MulticastTree::new(profile(0));
        for (i, &pick) in parents.iter().enumerate() {
            tree.attach(profile(i + 1), NodeId((pick % (i + 1)) as u64)).unwrap();
        }
        let fragment = PartialTree::from_tree(&tree, (1..=n as u64).map(NodeId));
        let exclude = vec![NodeId(1), NodeId(2)];
        let mut rng = SimRng::seed_from(seed);
        let group = find_mlc_group(&fragment, k, &exclude, &mut rng);
        prop_assert!(group.len() <= k);
        let distinct: HashSet<&NodeId> = group.iter().collect();
        prop_assert_eq!(distinct.len(), group.len(), "duplicates in {:?}", group);
        for g in &group {
            prop_assert_ne!(*g, NodeId(0), "root selected");
            prop_assert!(!exclude.contains(g), "excluded member selected");
        }
    }
}
