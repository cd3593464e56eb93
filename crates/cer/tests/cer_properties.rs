//! Property tests for the CER substrate: the sequence range set against a
//! naive model, stripe-plan invariants, and Algorithm 1's guarantees on
//! arbitrary fragments.

use proptest::prelude::*;
use rom_cer::{
    find_mlc_group, AncestorRecord, MlcOptions, PartialTree, SeqRangeSet, StripePlan, STRIPE_MODULO,
};
use rom_overlay::NodeId;
use rom_sim::SimRng;
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
        // missing_in is the complement within any window.
        let missing = set.missing_in(0, 320);
        let missing_count: u64 = missing.iter().map(|&(l, h)| h - l).sum();
        prop_assert_eq!(missing_count, 320 - set.len());
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

    /// Algorithm 1 on arbitrary fragments: members are distinct, never the
    /// root, never excluded, and at most k.
    #[test]
    fn mlc_group_guarantees(
        parents in prop::collection::vec(0usize..20, 2..40),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Build a random tree over ids 0..n (0 = root): node i+1 attaches
        // under a previous node.
        let n = parents.len();
        let parent_of = |i: usize| -> usize { parents[i] % (i + 1) };
        let mut records = Vec::new();
        for i in 0..n {
            // Ancestor chain of node i+1, root-first.
            let mut chain = vec![i + 1];
            let mut cur = i;
            loop {
                let p = parent_of(cur);
                chain.push(p);
                if p == 0 {
                    break;
                }
                cur = p - 1;
            }
            chain.reverse();
            let node = NodeId(chain[chain.len() - 1] as u64);
            let ancestors = chain[..chain.len() - 1]
                .iter()
                .map(|&x| NodeId(x as u64))
                .collect();
            records.push(AncestorRecord { node, ancestors });
        }
        let tree = PartialTree::from_records(&records);
        let exclude = vec![NodeId(1), NodeId(2)];
        let options = MlcOptions { exclude: exclude.clone() };
        let mut rng = SimRng::seed_from(seed);
        let group = find_mlc_group(&tree, k, &options, &mut rng);
        prop_assert!(group.len() <= k);
        let distinct: HashSet<&NodeId> = group.iter().collect();
        prop_assert_eq!(distinct.len(), group.len(), "duplicates in {:?}", group);
        for g in &group {
            prop_assert_ne!(*g, NodeId(0), "root selected");
            prop_assert!(!exclude.contains(g), "excluded member selected");
        }
    }
}
