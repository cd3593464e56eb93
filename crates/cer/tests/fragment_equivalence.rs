//! Equivalence wall for CER's group selection.
//!
//! `PartialTree` stores its fragment in discovery order with linked child
//! lists that the reads sort by id, and the streaming engine rebuilds one
//! fragment in place per selection (`PartialTree::rebuild`, which
//! `from_tree` runs too), one walk up the arena's parent links per view
//! member, instead of merging gossiped records. The `BTreeMap` fragment
//! built from records, and the Algorithm 1 / random-baseline code that
//! ran over it, are kept below as a reference model. On exact fragments
//! of random arena trees both implementations return the same group and
//! leave the RNG at the same next draw, for a fresh fragment and for one
//! rebuilt over a tree that changes between builds.

use proptest::prelude::*;
use rom_cer::{find_mlc_group, random_group, PartialTree};
use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId};
use rom_sim::{SimRng, SimTime};

/// The `BTreeMap` fragment and the selection code that ran over it,
/// copied from the last commit before the CSR layout. The changes since:
/// an edge into the root is dropped, the record type is the model's own,
/// the exclusions are a slice, and the reads the selection code does not
/// make are gone. Do not optimize this copy.
mod model {
    use std::collections::{BTreeMap, BTreeSet};

    use rom_overlay::{MulticastTree, NodeId};
    use rom_sim::SimRng;

    /// One gossiped record: a known member plus its root path.
    pub struct Record {
        node: NodeId,
        /// Ordered root-first, so `ancestors[0]` is the source.
        ancestors: Vec<NodeId>,
    }

    impl Record {
        /// What `node` gossips: `None` when detached or unknown.
        pub fn from_tree(tree: &MulticastTree, node: NodeId) -> Option<Self> {
            let mut ancestors = tree.overlay_path(node)?;
            ancestors.pop();
            Some(Record { node, ancestors })
        }
    }

    #[derive(Debug, Clone, Default)]
    pub struct PartialTree {
        root: Option<NodeId>,
        parent: BTreeMap<NodeId, NodeId>,
        children: BTreeMap<NodeId, BTreeSet<NodeId>>,
        known: BTreeSet<NodeId>,
    }

    impl PartialTree {
        pub fn from_records<'a, I>(records: I) -> Self
        where
            I: IntoIterator<Item = &'a Record>,
        {
            let mut tree = PartialTree::default();
            for record in records {
                tree.known.insert(record.node);
                let mut path = record.ancestors.clone();
                path.push(record.node);
                if let Some(&first) = path.first() {
                    if tree.root.is_none() {
                        tree.root = Some(first);
                    }
                }
                for pair in path.windows(2) {
                    let (parent, child) = (pair[0], pair[1]);
                    if child == parent || Some(child) == tree.root {
                        continue;
                    }
                    let entry = tree.parent.entry(child).or_insert(parent);
                    if *entry == parent {
                        tree.children.entry(parent).or_default().insert(child);
                    }
                }
            }
            tree
        }

        pub fn root(&self) -> Option<NodeId> {
            self.root
        }

        pub fn known_members(&self) -> Vec<NodeId> {
            self.known.iter().copied().collect()
        }

        pub fn children(&self, node: NodeId) -> Vec<NodeId> {
            self.children
                .get(&node)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()
        }

        pub fn level(&self, depth: usize) -> Vec<NodeId> {
            let Some(root) = self.root else {
                return Vec::new();
            };
            let mut current = vec![root];
            for _ in 0..depth {
                let mut next = Vec::new();
                for n in &current {
                    next.extend(self.children(*n));
                }
                current = next;
            }
            current
        }

        /// Loops forever on a parent cycle through `node`: call it only
        /// on nodes the root reaches.
        pub fn descendants(&self, node: NodeId) -> Vec<NodeId> {
            let mut out = Vec::new();
            let mut frontier = vec![node];
            while let Some(n) = frontier.pop() {
                for c in self.children(n) {
                    out.push(c);
                    frontier.push(c);
                }
            }
            out
        }
    }

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

        let mut li = 0usize;
        if k > 1 {
            let mut widest = (0usize, tree.level(0).len());
            loop {
                let here = tree.level(li).len();
                let below = tree.level(li + 1).len();
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

        let level: Vec<NodeId> = tree.level(li);
        let mut remaining_children: Vec<Vec<NodeId>> =
            level.iter().map(|&v| tree.children(v)).collect();
        let mut g0: Vec<NodeId> = Vec::new();
        loop {
            let mut picked_any = false;
            for children in &mut remaining_children {
                if g0.len() >= k {
                    break;
                }
                if children.is_empty() {
                    continue;
                }
                let idx = rng.index(children.len());
                let child = children.swap_remove(idx);
                g0.push(child);
                picked_any = true;
            }
            if g0.len() >= k || !picked_any {
                break;
            }
        }

        let mut group: Vec<NodeId> = Vec::new();
        for &sub_root in &g0 {
            if group.len() >= k {
                break;
            }
            let mut pool: Vec<NodeId> = tree
                .descendants(sub_root)
                .into_iter()
                .filter(|&d| admissible(d) && !group.contains(&d))
                .collect();
            if pool.is_empty() && admissible(sub_root) && !group.contains(&sub_root) {
                pool.push(sub_root);
            }
            if let Some(&choice) = rng.choose(&pool) {
                group.push(choice);
            }
        }

        if group.len() < k {
            let mut pool: Vec<NodeId> = tree
                .known_members()
                .into_iter()
                .filter(|&n| admissible(n) && !group.contains(&n))
                .collect();
            while group.len() < k && !pool.is_empty() {
                let idx = rng.index(pool.len());
                group.push(pool.swap_remove(idx));
            }
        }

        group
    }

    pub fn random_group(
        tree: &PartialTree,
        k: usize,
        exclude: &[NodeId],
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let root = tree.root();
        let pool: Vec<NodeId> = tree
            .known_members()
            .into_iter()
            .filter(|&n| Some(n) != root && !exclude.contains(&n))
            .collect();
        rng.sample(&pool, k)
    }
}

fn profile(id: u64, bw: f64) -> MemberProfile {
    MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, Location(id as u32))
}

/// Applies a random mix of attaches, removals (which orphan the victim's
/// children and free its arena slot for a later attach) and reattaches of
/// orphaned subtrees to `tree`, numbering new members from `next_id`.
fn mutate(tree: &mut MulticastTree, next_id: &mut u64, ops: &[(u8, u8, u8)]) {
    for &(op, pick, bw_tenths) in ops {
        let parents: Vec<NodeId> = tree
            .member_ids()
            .filter(|&n| tree.is_attached(n) && tree.has_free_slot(n))
            .collect();
        match op % 4 {
            0 | 1 => {
                if parents.is_empty() {
                    continue;
                }
                let parent = parents[pick as usize % parents.len()];
                let bw = 1.0 + f64::from(bw_tenths % 30) / 10.0;
                tree.attach(profile(*next_id, bw), parent)
                    .expect("free slot");
                *next_id += 1;
            }
            2 => {
                let victims: Vec<NodeId> =
                    tree.member_ids().filter(|&n| n != tree.root()).collect();
                if victims.is_empty() {
                    continue;
                }
                tree.remove(victims[pick as usize % victims.len()])
                    .expect("known non-root member");
            }
            _ => {
                let orphans: Vec<NodeId> = tree.orphan_roots().collect();
                if orphans.is_empty() || parents.is_empty() {
                    continue;
                }
                let orphan = orphans[pick as usize % orphans.len()];
                let parent = parents[bw_tenths as usize % parents.len()];
                tree.reattach(orphan, parent)
                    .expect("attached parent with a free slot");
            }
        }
    }
}

/// A tree under the source (id 0) shaped by [`mutate`].
fn build_tree(ops: &[(u8, u8, u8)]) -> MulticastTree {
    let mut tree = MulticastTree::new(profile(0, 4.0));
    mutate(&mut tree, &mut 1, ops);
    tree
}

/// A view of `tree` drawn by `view_picks`, without the requester that
/// `requester_pick` draws, and the members the engine excludes for that
/// requester (itself and its ancestors).
fn view_and_exclude(
    tree: &MulticastTree,
    view_picks: &[u16],
    requester_pick: u16,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let members: Vec<NodeId> = tree.member_ids().collect();
    let requester = members[requester_pick as usize % members.len()];
    let view = view_picks
        .iter()
        .map(|&p| members[p as usize % members.len()])
        .filter(|&v| v != requester)
        .collect();
    let mut exclude = tree.ancestors(requester);
    exclude.push(requester);
    (view, exclude)
}

/// The model fragment that `view`'s gossip records give.
fn model_fragment(tree: &MulticastTree, view: &[NodeId]) -> model::PartialTree {
    let records: Vec<model::Record> = view
        .iter()
        .filter_map(|&v| model::Record::from_tree(tree, v))
        .collect();
    model::PartialTree::from_records(&records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Algorithm 1 and the random baseline over the fragment the engine
    /// builds draw exactly what the `BTreeMap` versions drew over the
    /// view's records: same group, same next draw, with the requester and
    /// its ancestors excluded as the engine excludes them.
    #[test]
    fn engine_group_selection_matches_model(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..80),
        view_picks in prop::collection::vec(any::<u16>(), 0..40),
        requester_pick in any::<u16>(),
        k in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let tree = build_tree(&ops);
        let (view, exclude) = view_and_exclude(&tree, &view_picks, requester_pick);
        let got_tree = PartialTree::from_tree(&tree, view.iter().copied());
        let want_tree = model_fragment(&tree, &view);

        let (mut got_rng, mut want_rng) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
        prop_assert_eq!(
            find_mlc_group(&got_tree, k, &exclude, &mut got_rng),
            model::find_mlc_group(&want_tree, k, &exclude, &mut want_rng)
        );
        prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        prop_assert_eq!(
            random_group(&got_tree, k, &exclude, &mut got_rng),
            model::random_group(&want_tree, k, &exclude, &mut want_rng)
        );
        prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
    }

    /// One fragment rebuilt in place, as the engine rebuilds it, over a
    /// tree that changes between builds: attaches grow the arena, removals
    /// free slots that later attaches reuse for other ids, and reattaches
    /// move orphaned subtrees. After every rebuild both selections draw
    /// what the model draws for each K in 1..=6, so no mark, level width,
    /// child link or known member of an earlier build leaks into a later
    /// one.
    #[test]
    fn rebuilt_fragment_matches_model_at_every_step(
        steps in prop::collection::vec(
            (
                prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..24),
                prop::collection::vec(any::<u16>(), 0..40),
                any::<u16>(),
                any::<u64>(),
            ),
            1..8,
        ),
    ) {
        let mut tree = MulticastTree::new(profile(0, 4.0));
        let mut next_id = 1;
        let mut fragment = PartialTree::default();
        for (ops, view_picks, requester_pick, seed) in steps {
            mutate(&mut tree, &mut next_id, &ops);
            let (view, exclude) = view_and_exclude(&tree, &view_picks, requester_pick);
            fragment.rebuild(&tree, view.iter().copied());
            let want_tree = model_fragment(&tree, &view);
            for k in 1..=6 {
                let (mut got_rng, mut want_rng) =
                    (SimRng::seed_from(seed), SimRng::seed_from(seed));
                prop_assert_eq!(
                    find_mlc_group(&fragment, k, &exclude, &mut got_rng),
                    model::find_mlc_group(&want_tree, k, &exclude, &mut want_rng)
                );
                prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
                prop_assert_eq!(
                    random_group(&fragment, k, &exclude, &mut got_rng),
                    model::random_group(&want_tree, k, &exclude, &mut want_rng)
                );
                prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
            }
        }
    }
}
