//! Algorithm 1: finding the minimum-loss-correlation recovery group (§4.1).
//!
//! Given the locally reconstructed [`PartialTree`], the member picks `K`
//! recovery nodes whose pairwise loss correlation is minimal:
//!
//! 1. find the first level `Li` with `|Li| < K ≤ |Li+1|`;
//! 2. for each `vi ∈ Li` repeatedly pick a random child into the root set
//!    `G0` until `|G0| ≥ K` — the roots of `K` (near-)disjoint subtrees;
//! 3. from each subtree pick one random descendant into the group `G`.
//!
//! "The randomized selection is used for the purpose of load balancing and
//! for also providing alternatives for the isolated nodes in search for
//! the nearest recovery nodes."

use rom_overlay::NodeId;
use rom_sim::SimRng;

use crate::partial_tree::PartialTree;

/// Options for [`find_mlc_group`].
#[derive(Debug, Clone, Default)]
pub struct MlcOptions {
    /// Members that must not appear in the group — typically the
    /// requesting member itself and its own ancestors (they fail together
    /// with it).
    pub exclude: Vec<NodeId>,
}

/// Runs Algorithm 1 over `tree`, returning up to `k` recovery members.
///
/// The result can be smaller than `k` when the fragment simply does not
/// contain `k` admissible members; callers treat that as "use what there
/// is". The fragment root (the multicast source) is never selected.
///
/// The random draws follow a fixed order, so a seed fixes the group: the
/// subtree roots are drawn level member by level member in
/// [`PartialTree::level`] order, each from that member's remaining
/// children (ascending, with the drawn child swap-removed); each subtree's
/// member is drawn from its admissible [`PartialTree::descendants`] in
/// that order; the backfill draws from the admissible known members in id
/// order, again by swap-remove.
///
/// # Panics
///
/// Panics if `k` is zero.
#[must_use]
pub fn find_mlc_group(
    tree: &PartialTree,
    k: usize,
    options: &MlcOptions,
    rng: &mut SimRng,
) -> Vec<NodeId> {
    assert!(k > 0, "recovery group size must be positive");
    let Some(root) = tree.root() else {
        return Vec::new();
    };
    let admissible = |n: NodeId| n != root && !options.exclude.contains(&n);

    // Step 2: the first level Li with |Li| < K ≤ |Li+1|. For K = 1 the
    // condition is unsatisfiable (|L0| = 1); the root level is the natural
    // choice. If the tree never widens to K, fall back to the widest
    // level — the algorithm then degrades gracefully to fewer subtrees.
    let level_len = |depth: usize| tree.level_indices(depth).len();
    let mut li = 0usize;
    if k > 1 {
        let mut widest = (0usize, level_len(0));
        loop {
            let here = level_len(li);
            let below = level_len(li + 1);
            if below == 0 {
                li = widest.0;
                break;
            }
            if here < k && below >= k {
                break;
            }
            if below > widest.1 {
                widest = (li + 1, below);
            }
            li += 1;
        }
    }

    // Step 3: collect subtree roots G0 by cycling over Li and drawing one
    // random remaining child per member per round. The remaining children
    // of all Li members sit back to back in one buffer, one
    // `(start, len)` range per member.
    let mut remaining: Vec<u32> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for &v in tree.level_indices(li) {
        let children = tree.child_indices(v);
        ranges.push((remaining.len(), children.len()));
        remaining.extend_from_slice(children);
    }
    let mut g0: Vec<u32> = Vec::new();
    loop {
        let mut picked_any = false;
        for (start, len) in &mut ranges {
            if g0.len() >= k {
                break;
            }
            if *len == 0 {
                continue;
            }
            // `Vec::swap_remove` within the member's range.
            let idx = *start + rng.index(*len);
            *len -= 1;
            g0.push(remaining[idx]);
            remaining[idx] = remaining[*start + *len];
            picked_any = true;
        }
        if g0.len() >= k || !picked_any {
            break;
        }
    }

    // Step 4: one random member from each subtree: a random descendant,
    // or the subtree root itself when it has none (or when every
    // descendant is excluded).
    let mut group: Vec<NodeId> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut found: Vec<u32> = Vec::new();
    let mut pool: Vec<NodeId> = Vec::new();
    for &sub_root in &g0 {
        if group.len() >= k {
            break;
        }
        found.clear();
        tree.descendants_into(sub_root, &mut frontier, &mut found);
        pool.clear();
        pool.extend(
            found
                .iter()
                .map(|&d| tree.id_at(d))
                .filter(|&d| admissible(d) && !group.contains(&d)),
        );
        let sub_root = tree.id_at(sub_root);
        if pool.is_empty() && admissible(sub_root) && !group.contains(&sub_root) {
            pool.push(sub_root);
        }
        if let Some(&choice) = rng.choose(&pool) {
            group.push(choice);
        }
    }

    // Backfill from any admissible fragment node if the subtree walk came
    // up short (tiny fragments).
    if group.len() < k {
        pool.clear();
        pool.extend(
            tree.known()
                .iter()
                .copied()
                .filter(|&n| admissible(n) && !group.contains(&n)),
        );
        while group.len() < k && !pool.is_empty() {
            let idx = rng.index(pool.len());
            group.push(pool.swap_remove(idx));
        }
    }

    group
}

/// Baseline for comparison: `k` uniformly random known members, ignoring
/// loss correlation entirely.
#[must_use]
pub fn random_group(
    tree: &PartialTree,
    k: usize,
    options: &MlcOptions,
    rng: &mut SimRng,
) -> Vec<NodeId> {
    let root = tree.root();
    let pool: Vec<NodeId> = tree
        .known()
        .iter()
        .copied()
        .filter(|&n| Some(n) != root && !options.exclude.contains(&n))
        .collect();
    rng.sample(&pool, k)
}

/// Total pairwise loss correlation of `group` within the fragment
/// (the objective Algorithm 1 minimizes). Pairs that cannot be traced to
/// the root contribute nothing.
#[must_use]
pub fn partial_group_correlation(tree: &PartialTree, group: &[NodeId]) -> usize {
    let mut total = 0;
    for (i, &a) in group.iter().enumerate() {
        for &b in &group[i + 1..] {
            total += tree.loss_correlation(a, b).unwrap_or(0);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial_tree::AncestorRecord;

    fn record(node: u64, ancestors: &[u64]) -> AncestorRecord {
        AncestorRecord {
            node: NodeId(node),
            ancestors: ancestors.iter().map(|&a| NodeId(a)).collect(),
        }
    }

    /// A three-subtree fragment: root 0 with children 1, 2, 3; each child
    /// has two known descendants.
    fn wide_fragment() -> PartialTree {
        PartialTree::from_records(&[
            record(11, &[0, 1]),
            record(12, &[0, 1]),
            record(21, &[0, 2]),
            record(22, &[0, 2]),
            record(31, &[0, 3]),
            record(32, &[0, 3]),
        ])
    }

    #[test]
    fn disjoint_subtrees_give_zero_correlation() {
        let tree = wide_fragment();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..50 {
            let group = find_mlc_group(&tree, 3, &MlcOptions::default(), &mut rng);
            assert_eq!(group.len(), 3);
            assert_eq!(
                partial_group_correlation(&tree, &group),
                0,
                "K ≤ root fan-out must yield fully uncorrelated groups: {group:?}"
            );
        }
    }

    #[test]
    fn mlc_beats_random_on_average() {
        let tree = wide_fragment();
        let mut rng = SimRng::seed_from(2);
        let rounds = 200;
        let mut mlc_total = 0usize;
        let mut random_total = 0usize;
        for _ in 0..rounds {
            let g = find_mlc_group(&tree, 3, &MlcOptions::default(), &mut rng);
            mlc_total += partial_group_correlation(&tree, &g);
            let r = random_group(&tree, 3, &MlcOptions::default(), &mut rng);
            random_total += partial_group_correlation(&tree, &r);
        }
        assert!(
            mlc_total < random_total,
            "MLC {mlc_total} should beat random {random_total}"
        );
    }

    #[test]
    fn group_never_contains_root_or_excluded() {
        let tree = wide_fragment();
        let mut rng = SimRng::seed_from(3);
        let options = MlcOptions {
            exclude: vec![NodeId(11), NodeId(21)],
        };
        for _ in 0..50 {
            let group = find_mlc_group(&tree, 3, &options, &mut rng);
            assert!(!group.contains(&NodeId(0)));
            assert!(!group.contains(&NodeId(11)));
            assert!(!group.contains(&NodeId(21)));
        }
    }

    #[test]
    fn group_members_are_distinct() {
        let tree = wide_fragment();
        let mut rng = SimRng::seed_from(4);
        for k in 1..=6 {
            let group = find_mlc_group(&tree, k, &MlcOptions::default(), &mut rng);
            let mut sorted = group.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), group.len(), "duplicates in {group:?}");
        }
    }

    #[test]
    fn k_larger_than_fragment_degrades_gracefully() {
        let tree = PartialTree::from_records(&[record(1, &[0]), record(2, &[0])]);
        let mut rng = SimRng::seed_from(5);
        let group = find_mlc_group(&tree, 10, &MlcOptions::default(), &mut rng);
        assert!(!group.is_empty());
        assert!(group.len() <= 10);
    }

    #[test]
    fn k_equals_one_works() {
        let tree = wide_fragment();
        let mut rng = SimRng::seed_from(6);
        let group = find_mlc_group(&tree, 1, &MlcOptions::default(), &mut rng);
        assert_eq!(group.len(), 1);
        assert_ne!(group[0], NodeId(0));
    }

    #[test]
    fn empty_fragment_yields_empty_group() {
        let tree = PartialTree::from_records(&[]);
        let mut rng = SimRng::seed_from(7);
        assert!(find_mlc_group(&tree, 3, &MlcOptions::default(), &mut rng).is_empty());
        assert!(random_group(&tree, 3, &MlcOptions::default(), &mut rng).is_empty());
    }

    #[test]
    fn deep_chain_fragment() {
        // A pure chain never widens: the algorithm falls back and still
        // returns somebody rather than failing.
        let tree = PartialTree::from_records(&[record(3, &[0, 1, 2])]);
        let mut rng = SimRng::seed_from(8);
        let group = find_mlc_group(&tree, 2, &MlcOptions::default(), &mut rng);
        assert!(!group.is_empty());
    }
}
