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

/// Runs Algorithm 1 over `tree`, returning up to `k` recovery members.
///
/// No member of `exclude` is selected: typically the requesting member
/// itself and its own ancestors, which fail together with it. The result
/// can be smaller than `k` when the fragment simply does not contain `k`
/// admissible members; callers treat that as "use what there is". The
/// fragment root (the multicast source) is never selected.
///
/// The random draws follow a fixed order, so a seed fixes the group: the
/// subtree roots are drawn level member by level member in BFS order,
/// each from that member's remaining children (ascending, with the drawn
/// child swap-removed); each subtree's member is drawn from its admissible
/// descendants in the order a stack-driven walk lists them; the backfill
/// draws from the admissible known members in id order, again by
/// swap-remove.
///
/// # Panics
///
/// Panics if `k` is zero.
#[must_use]
pub fn find_mlc_group(
    tree: &PartialTree,
    k: usize,
    exclude: &[NodeId],
    rng: &mut SimRng,
) -> Vec<NodeId> {
    assert!(k > 0, "recovery group size must be positive");
    let Some(root) = tree.root() else {
        return Vec::new();
    };
    let admissible = |n: NodeId| n != root && !exclude.contains(&n);

    // Step 2: the first level Li with |Li| < K ≤ |Li+1|. For K = 1 the
    // condition is unsatisfiable (|L0| = 1); the root level is the natural
    // choice. If the tree never widens to K, fall back to the widest
    // level — the algorithm then degrades gracefully to fewer subtrees.
    let level_len = |depth: usize| tree.level_width(depth);
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
    let mut level: Vec<u32> = Vec::new();
    tree.level_into(li, &mut level);
    let mut remaining: Vec<u32> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for &v in &level {
        let start = remaining.len();
        tree.children_into(v, &mut remaining);
        ranges.push((start, remaining.len() - start));
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
        tree.known_into(|n| admissible(n) && !group.contains(&n), &mut pool);
        while group.len() < k && !pool.is_empty() {
            let idx = rng.index(pool.len());
            group.push(pool.swap_remove(idx));
        }
    }

    group
}

/// Baseline for comparison: `k` uniformly random known members outside
/// `exclude`, ignoring loss correlation entirely.
#[must_use]
pub fn random_group(
    tree: &PartialTree,
    k: usize,
    exclude: &[NodeId],
    rng: &mut SimRng,
) -> Vec<NodeId> {
    let root = tree.root();
    let mut pool = Vec::new();
    tree.known_into(|n| Some(n) != root && !exclude.contains(&n), &mut pool);
    rng.sample(&pool, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::group_correlation;
    use rom_overlay::{paper_source, Location, MemberProfile, MulticastTree};
    use rom_sim::SimTime;

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

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().map(|&n| NodeId(n)).collect()
    }

    /// A three-subtree tree: root 0 with children 1, 2, 3; each child has
    /// two members below it, all six known.
    fn wide_tree() -> (MulticastTree, PartialTree) {
        let t = tree(&[
            (1, 0),
            (2, 0),
            (3, 0),
            (11, 1),
            (12, 1),
            (21, 2),
            (22, 2),
            (31, 3),
            (32, 3),
        ]);
        let fragment = PartialTree::from_tree(&t, ids(&[11, 12, 21, 22, 31, 32]));
        (t, fragment)
    }

    #[test]
    fn disjoint_subtrees_give_zero_correlation() {
        let (t, fragment) = wide_tree();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..50 {
            let group = find_mlc_group(&fragment, 3, &[], &mut rng);
            assert_eq!(group.len(), 3);
            assert_eq!(
                group_correlation(&t, &group),
                0,
                "K ≤ root fan-out must yield fully uncorrelated groups: {group:?}"
            );
        }
    }

    #[test]
    fn mlc_beats_random_on_average() {
        let (t, fragment) = wide_tree();
        let mut rng = SimRng::seed_from(2);
        let rounds = 200;
        let mut mlc_total = 0usize;
        let mut random_total = 0usize;
        for _ in 0..rounds {
            let g = find_mlc_group(&fragment, 3, &[], &mut rng);
            mlc_total += group_correlation(&t, &g);
            let r = random_group(&fragment, 3, &[], &mut rng);
            random_total += group_correlation(&t, &r);
        }
        assert!(
            mlc_total < random_total,
            "MLC {mlc_total} should beat random {random_total}"
        );
    }

    #[test]
    fn group_never_contains_root_or_excluded() {
        let (_, fragment) = wide_tree();
        let mut rng = SimRng::seed_from(3);
        let exclude = ids(&[11, 21]);
        for _ in 0..50 {
            let group = find_mlc_group(&fragment, 3, &exclude, &mut rng);
            assert!(!group.contains(&NodeId(0)));
            assert!(!group.contains(&NodeId(11)));
            assert!(!group.contains(&NodeId(21)));
        }
    }

    #[test]
    fn group_members_are_distinct() {
        let (_, fragment) = wide_tree();
        let mut rng = SimRng::seed_from(4);
        for k in 1..=6 {
            let group = find_mlc_group(&fragment, k, &[], &mut rng);
            let mut sorted = group.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), group.len(), "duplicates in {group:?}");
        }
    }

    #[test]
    fn k_larger_than_fragment_degrades_gracefully() {
        let t = tree(&[(1, 0), (2, 0)]);
        let fragment = PartialTree::from_tree(&t, ids(&[1, 2]));
        let mut rng = SimRng::seed_from(5);
        let group = find_mlc_group(&fragment, 10, &[], &mut rng);
        assert!(!group.is_empty());
        assert!(group.len() <= 10);
    }

    #[test]
    fn k_equals_one_works() {
        let (_, fragment) = wide_tree();
        let mut rng = SimRng::seed_from(6);
        let group = find_mlc_group(&fragment, 1, &[], &mut rng);
        assert_eq!(group.len(), 1);
        assert_ne!(group[0], NodeId(0));
    }

    #[test]
    fn empty_fragment_yields_empty_group() {
        let t = tree(&[]);
        let fragment = PartialTree::from_tree(&t, ids(&[9]));
        let mut rng = SimRng::seed_from(7);
        assert!(find_mlc_group(&fragment, 3, &[], &mut rng).is_empty());
        assert!(random_group(&fragment, 3, &[], &mut rng).is_empty());
    }

    #[test]
    fn deep_chain_fragment() {
        // A pure chain never widens: the algorithm falls back and still
        // returns somebody rather than failing.
        let t = tree(&[(1, 0), (2, 1), (3, 2)]);
        let fragment = PartialTree::from_tree(&t, ids(&[3]));
        let mut rng = SimRng::seed_from(8);
        let group = find_mlc_group(&fragment, 2, &[], &mut rng);
        assert!(!group.is_empty());
    }
}
