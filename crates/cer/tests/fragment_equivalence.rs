//! Equivalence wall for CER's fragment and group selection.
//!
//! `PartialTree` stores its fragment as id-sorted nodes with parent
//! indices and CSR child ranges, and the streaming engine builds it with
//! `PartialTree::from_tree`, one walk up the arena's parent links per
//! view member, instead of merging gossiped records. Two walls pin that:
//!
//! - On random arena trees shaped by attach, remove and reattach, the
//!   arena-walk fragment equals `from_records` over the view's
//!   `AncestorRecord::from_tree` in every accessor. The views hold
//!   detached members, orphaned subtrees, the source, the requester and
//!   ids that are not in the tree.
//! - The `BTreeMap` fragment and the Algorithm 1 / random-baseline code
//!   that ran over it are kept below as a reference model. On random,
//!   possibly conflicting records both implementations build the same
//!   fragment, return the same group and leave the RNG at the same next
//!   draw.

use proptest::prelude::*;
use rom_cer::{find_mlc_group, random_group, AncestorRecord, MlcOptions, PartialTree};
use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId};
use rom_sim::{SimRng, SimTime};

/// The `BTreeMap` fragment and the selection code that ran over it,
/// copied from the last commit before the CSR layout. The one change is
/// the stale-gossip fix both implementations share: an edge into the
/// root is dropped (without it, `1 ← [0]` then `0 ← [1]` would make
/// every level non-empty and `find_mlc_group` would never return). Do not
/// optimize this copy.
mod model {
    use std::collections::{BTreeMap, BTreeSet};

    use rom_cer::{AncestorRecord, MlcOptions};
    use rom_overlay::NodeId;
    use rom_sim::SimRng;

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
            I: IntoIterator<Item = &'a AncestorRecord>,
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

        pub fn node_count(&self) -> usize {
            let mut all: BTreeSet<NodeId> = self.parent.keys().copied().collect();
            all.extend(self.parent.values().copied());
            all.extend(self.known.iter().copied());
            all.len()
        }

        pub fn known_members(&self) -> Vec<NodeId> {
            self.known.iter().copied().collect()
        }

        pub fn parent(&self, node: NodeId) -> Option<NodeId> {
            self.parent.get(&node).copied()
        }

        pub fn children(&self, node: NodeId) -> Vec<NodeId> {
            self.children
                .get(&node)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()
        }

        pub fn depth(&self, node: NodeId) -> Option<usize> {
            if Some(node) == self.root {
                return Some(0);
            }
            let mut d = 0;
            let mut cur = node;
            while let Some(p) = self.parent(cur) {
                d += 1;
                cur = p;
                if Some(cur) == self.root {
                    return Some(d);
                }
                if d > self.parent.len() {
                    return None;
                }
            }
            None
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

        pub fn loss_correlation(&self, a: NodeId, b: NodeId) -> Option<usize> {
            let mut da = self.depth(a)?;
            let mut db = self.depth(b)?;
            let mut x = a;
            let mut y = b;
            while da > db {
                x = self.parent(x)?;
                da -= 1;
            }
            while db > da {
                y = self.parent(y)?;
                db -= 1;
            }
            while x != y {
                x = self.parent(x)?;
                y = self.parent(y)?;
                da -= 1;
            }
            Some(da)
        }
    }

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
        options: &MlcOptions,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let root = tree.root();
        let pool: Vec<NodeId> = tree
            .known_members()
            .into_iter()
            .filter(|&n| Some(n) != root && !options.exclude.contains(&n))
            .collect();
        rng.sample(&pool, k)
    }
}

/// Ids at and above this are never members of a generated tree.
const UNKNOWN: u64 = 9_000;

fn profile(id: u64, bw: f64) -> MemberProfile {
    MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, Location(id as u32))
}

/// A tree shaped by a random mix of attaches, removals (which orphan the
/// victim's children) and reattaches of orphaned subtrees.
fn build_tree(ops: &[(u8, u8, u8)]) -> MulticastTree {
    let mut tree = MulticastTree::new(profile(0, 4.0));
    let mut next_id = 1u64;
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
                tree.attach(profile(next_id, bw), parent)
                    .expect("free slot");
                next_id += 1;
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
    tree
}

/// Every accessor of `got` equals `want`'s, at every depth and for every
/// probe. `descendants` is compared only where `want` can run it.
fn assert_same_fragment<W: Fragment>(got: &PartialTree, want: &W, probes: &[NodeId]) {
    prop_assert_eq!(got.root(), want.root());
    prop_assert_eq!(got.node_count(), want.node_count());
    prop_assert_eq!(got.known_members(), want.known_members());
    for depth in 0..=got.node_count() + 1 {
        prop_assert_eq!(got.level(depth), want.level(depth), "level {}", depth);
    }
    for &n in probes {
        prop_assert_eq!(got.parent(n), want.parent(n), "parent of {:?}", n);
        prop_assert_eq!(got.children(n), want.children(n), "children of {:?}", n);
        prop_assert_eq!(got.depth(n), want.depth(n), "depth of {:?}", n);
        if want.depth(n).is_some() {
            prop_assert_eq!(
                got.descendants(n),
                want.descendants(n),
                "descendants of {:?}",
                n
            );
        }
        for &m in probes {
            prop_assert_eq!(
                got.loss_correlation(n, m),
                want.loss_correlation(n, m),
                "pair ({:?}, {:?})",
                n,
                m
            );
        }
    }
}

/// The accessors both fragment implementations share.
trait Fragment {
    fn root(&self) -> Option<NodeId>;
    fn node_count(&self) -> usize;
    fn known_members(&self) -> Vec<NodeId>;
    fn parent(&self, node: NodeId) -> Option<NodeId>;
    fn children(&self, node: NodeId) -> Vec<NodeId>;
    fn depth(&self, node: NodeId) -> Option<usize>;
    fn level(&self, depth: usize) -> Vec<NodeId>;
    fn descendants(&self, node: NodeId) -> Vec<NodeId>;
    fn loss_correlation(&self, a: NodeId, b: NodeId) -> Option<usize>;
}

macro_rules! impl_fragment {
    ($ty:ty) => {
        impl Fragment for $ty {
            fn root(&self) -> Option<NodeId> {
                <$ty>::root(self)
            }
            fn node_count(&self) -> usize {
                <$ty>::node_count(self)
            }
            fn known_members(&self) -> Vec<NodeId> {
                <$ty>::known_members(self)
            }
            fn parent(&self, node: NodeId) -> Option<NodeId> {
                <$ty>::parent(self, node)
            }
            fn children(&self, node: NodeId) -> Vec<NodeId> {
                <$ty>::children(self, node)
            }
            fn depth(&self, node: NodeId) -> Option<usize> {
                <$ty>::depth(self, node)
            }
            fn level(&self, depth: usize) -> Vec<NodeId> {
                <$ty>::level(self, depth)
            }
            fn descendants(&self, node: NodeId) -> Vec<NodeId> {
                <$ty>::descendants(self, node)
            }
            fn loss_correlation(&self, a: NodeId, b: NodeId) -> Option<usize> {
                <$ty>::loss_correlation(self, a, b)
            }
        }
    };
}
impl_fragment!(PartialTree);
impl_fragment!(model::PartialTree);

/// Gossip over a small id space: records share the root 0 unless
/// `rooted` is false, and ancestor lists repeat and contradict each
/// other, including edges into the root.
fn records_strategy() -> impl Strategy<Value = Vec<AncestorRecord>> {
    prop::collection::vec(
        (
            0u64..24,
            any::<bool>(),
            prop::collection::vec(0u64..24, 0..6),
        ),
        0..30,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(node, rooted, rest)| {
                let mut ancestors: Vec<NodeId> = Vec::new();
                if rooted {
                    ancestors.push(NodeId(0));
                }
                ancestors.extend(rest.into_iter().map(NodeId));
                AncestorRecord {
                    node: NodeId(node),
                    ancestors,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The arena walk builds exactly the fragment the view's exact
    /// records give, with the requester left out as the engine does.
    #[test]
    fn arena_walk_matches_records(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..80),
        view_picks in prop::collection::vec(any::<u16>(), 0..40),
        requester_pick in any::<u16>(),
    ) {
        let tree = build_tree(&ops);
        let mut pool: Vec<NodeId> = tree.member_ids().collect();
        pool.extend([NodeId(UNKNOWN), NodeId(UNKNOWN + 1)]);
        let requester = pool[requester_pick as usize % pool.len()];
        let mut view: Vec<NodeId> = view_picks
            .iter()
            .map(|&p| pool[p as usize % pool.len()])
            .collect();
        view.push(requester);
        let gossiping = || view.iter().copied().filter(|&v| v != requester);

        let walked = PartialTree::from_tree(&tree, gossiping());
        let records: Vec<AncestorRecord> = gossiping()
            .filter_map(|v| AncestorRecord::from_tree(&tree, v))
            .collect();
        let merged = PartialTree::from_records(&records);
        let model = model::PartialTree::from_records(&records);
        assert_same_fragment(&walked, &merged, &pool);
        assert_same_fragment(&merged, &model, &pool);
    }

    /// On any gossip, conflicting or cyclic, the CSR fragment shows what
    /// the `BTreeMap` fragment showed.
    #[test]
    fn records_build_the_model_fragment(records in records_strategy()) {
        let probes: Vec<NodeId> = (0..26).map(NodeId).collect();
        let got = PartialTree::from_records(&records);
        let want = model::PartialTree::from_records(&records);
        assert_same_fragment(&got, &want, &probes);
    }

    /// Algorithm 1 and the random baseline over indices draw exactly
    /// what the `BTreeMap` versions drew: same group, same next draw.
    #[test]
    fn group_selection_matches_model(
        records in records_strategy(),
        k in 1usize..=6,
        exclude in prop::collection::vec(0u64..24, 0..5),
        seed in any::<u64>(),
    ) {
        let got_tree = PartialTree::from_records(&records);
        let want_tree = model::PartialTree::from_records(&records);
        let options = MlcOptions { exclude: exclude.into_iter().map(NodeId).collect() };

        let (mut got_rng, mut want_rng) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
        prop_assert_eq!(
            find_mlc_group(&got_tree, k, &options, &mut got_rng),
            model::find_mlc_group(&want_tree, k, &options, &mut want_rng)
        );
        prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());

        prop_assert_eq!(
            random_group(&got_tree, k, &options, &mut got_rng),
            model::random_group(&want_tree, k, &options, &mut want_rng)
        );
        prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
    }

    /// The same on exact fragments of random arena trees, built by the
    /// engine's constructor, with the requester and its ancestors
    /// excluded as the engine excludes them.
    #[test]
    fn engine_group_selection_matches_model(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..80),
        view_picks in prop::collection::vec(any::<u16>(), 0..40),
        requester_pick in any::<u16>(),
        k in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let tree = build_tree(&ops);
        let members: Vec<NodeId> = tree.member_ids().collect();
        let requester = members[requester_pick as usize % members.len()];
        let view: Vec<NodeId> = view_picks
            .iter()
            .map(|&p| members[p as usize % members.len()])
            .filter(|&v| v != requester)
            .collect();
        let records: Vec<AncestorRecord> = view
            .iter()
            .filter_map(|&v| AncestorRecord::from_tree(&tree, v))
            .collect();
        let got_tree = PartialTree::from_tree(&tree, view.iter().copied());
        let want_tree = model::PartialTree::from_records(&records);
        let mut exclude = tree.ancestors(requester);
        exclude.push(requester);
        let options = MlcOptions { exclude };

        let (mut got_rng, mut want_rng) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
        prop_assert_eq!(
            find_mlc_group(&got_tree, k, &options, &mut got_rng),
            model::find_mlc_group(&want_tree, k, &options, &mut want_rng)
        );
        prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        prop_assert_eq!(
            random_group(&got_tree, k, &options, &mut got_rng),
            model::random_group(&want_tree, k, &options, &mut want_rng)
        );
        prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
    }
}
