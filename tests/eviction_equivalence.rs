//! Old-vs-new eviction search equivalence wall.
//!
//! PR 8 replaced the relaxed ordered baselines' O(M) per-join layer scan
//! (`find_eviction`) with probes of per-depth ordered indices, and the
//! switch path's full-subtree restamp with incremental ±1 depth
//! maintenance. The pre-index search is embedded below, verbatim from the
//! last commit before the rewrite, and both deciders are driven through
//! identical randomized operation sequences — joins, rejoins, abrupt
//! departures, ROST switches, and bandwidth decay at mixed depths —
//! under both order keys on several fixed seeds. At every placement the
//! two must emit the same `JoinDecision`; after every switch the
//! incrementally maintained depths must match a from-scratch
//! recomputation. Any divergence is a bug in the index maintenance, not
//! a tolerable drift: every figure bin's byte-determinism depends on the
//! indexed search being observationally identical to the scan.

use rom_engine::OracleProximity;
use rom_net::{DelayOracle, TransitStubConfig, TransitStubNetwork};
use rom_overlay::algorithms::{
    JoinContext, JoinDecision, RelaxedBandwidthOrdered, RelaxedTimeOrdered, TreeAlgorithm,
};
use rom_overlay::{
    IndexProximity, Location, MemberProfile, MulticastTree, NodeId, Proximity, TreeError,
    ZeroProximity,
};
use rom_sim::{SimRng, SimTime};

/// The pre-index eviction search and minimum-depth fallback, extracted
/// from `algorithms/ordered.rs` / `algorithms/mod.rs` before the indexed
/// rewrite with only visibility adjusted. Kept as a reference model: do
/// not "fix" or optimize this copy.
mod old_model {
    use super::*;

    /// The old `find_eviction`: an exhaustive high-to-low layer scan for
    /// the shallowest layer holding a member whose key is strictly below
    /// the joiner's, evicting that layer's weakest occupant (smallest id
    /// on key ties).
    pub fn find_eviction(
        tree: &MulticastTree,
        joiner: &MemberProfile,
        now: SimTime,
        key: impl Fn(&MemberProfile, SimTime) -> f64,
    ) -> Option<NodeId> {
        let joiner_key = key(joiner, now);
        for depth in 1..=tree.max_depth() {
            let mut weakest: Option<(f64, NodeId)> = None;
            let layer = tree
                .member_entries()
                .filter(|&(_, ix)| tree.depth_ix(ix) == Some(depth));
            for (cand, ix) in layer {
                let k = key(tree.profile_ix(ix), now);
                if k < joiner_key {
                    let better = match weakest {
                        None => true,
                        Some((wk, wid)) => k < wk || (k == wk && cand < wid),
                    };
                    if better {
                        weakest = Some((k, cand));
                    }
                }
            }
            if let Some((_, evict)) = weakest {
                return Some(evict);
            }
        }
        None
    }

    /// The old centralized fallback: `min_depth_parent` over an explicit
    /// candidate list materialized from the whole attached membership,
    /// exactly as the engine used to build it.
    pub fn min_depth_parent_all_attached(
        tree: &MulticastTree,
        joiner: &MemberProfile,
        proximity: &dyn Proximity,
    ) -> Option<NodeId> {
        let candidates: Vec<NodeId> = tree.attached_by_depth().collect();
        let mut best: Option<(usize, f64, NodeId)> = None;
        for &cand in &candidates {
            let Some(ix) = tree.index_of(cand) else {
                continue;
            };
            if !tree.has_free_slot_ix(ix) {
                continue;
            }
            let Some(depth) = tree.depth_ix(ix) else {
                continue;
            };
            let key_delay = || {
                let loc = tree.profile_ix(ix).location;
                proximity.delay_ms(joiner.location, loc)
            };
            match best {
                None => best = Some((depth, key_delay(), cand)),
                Some((bd, bdelay, bid)) => {
                    if depth < bd {
                        best = Some((depth, key_delay(), cand));
                    } else if depth == bd {
                        let delay = key_delay();
                        if delay < bdelay || (delay == bdelay && cand < bid) {
                            best = Some((depth, delay, cand));
                        }
                    }
                }
            }
        }
        best.map(|(_, _, id)| id)
    }

    /// The old `ordered_select`: eviction first, min-depth fallback,
    /// reject when neither applies.
    pub fn select(
        tree: &MulticastTree,
        joiner: &MemberProfile,
        now: SimTime,
        key: impl Fn(&MemberProfile, SimTime) -> f64,
        proximity: &dyn Proximity,
    ) -> JoinDecision {
        if let Some(evict) = find_eviction(tree, joiner, now, key) {
            return JoinDecision::Replace { evict };
        }
        match min_depth_parent_all_attached(tree, joiner, proximity) {
            Some(parent) => JoinDecision::Attach { parent },
            None => JoinDecision::Reject,
        }
    }
}

/// Deterministic xorshift64* stream so each (seed, key) wall run is
/// reproducible without any external RNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy, Debug)]
enum KeyKind {
    Bandwidth,
    Age,
}

impl KeyKind {
    fn key(self, profile: &MemberProfile, now: SimTime) -> f64 {
        match self {
            KeyKind::Bandwidth => profile.bandwidth,
            KeyKind::Age => profile.age(now),
        }
    }

    fn algorithm(self) -> &'static dyn TreeAlgorithm {
        match self {
            KeyKind::Bandwidth => &RelaxedBandwidthOrdered,
            KeyKind::Age => &RelaxedTimeOrdered,
        }
    }
}

/// The locations of the index-proximity runs: member `n` sits at `n % 17`.
fn index_locations() -> Vec<Location> {
    (0..17).map(Location).collect()
}

/// One engine-shaped wall run: the indexed decider and the embedded scan
/// must agree on every placement while the tree churns. Member `n` sits
/// at `locations[n % locations.len()]`.
fn run_wall(
    seed: u64,
    kind: KeyKind,
    proximity: &dyn Proximity,
    ops: usize,
    locations: &[Location],
) {
    let source = MemberProfile::new(NodeId(0), 6.0, SimTime::ZERO, 1e12, Location(0));
    let mut tree = MulticastTree::with_order_index(source);
    let mut rng = Rng::new(seed);
    let mut next_id = 1u64;
    let mut switches = 0usize;
    let mut decisions = 0usize;

    for step in 0..ops {
        let now = SimTime::from_secs(step as f64 * 0.5);
        match rng.below(10) {
            // Join a brand-new member (the dominant event).
            0..=4 => {
                // Quantized bandwidths and join offsets manufacture key
                // ties, so the smallest-id tie-break is exercised; join
                // times at or after `now` exercise the age clamp.
                let bw = rng.below(12) as f64 * 0.5;
                let join = now.as_secs() - rng.below(8) as f64 + 2.0;
                let profile = MemberProfile::new(
                    NodeId(next_id),
                    bw,
                    SimTime::from_secs(join),
                    1e6,
                    locations[(next_id % locations.len() as u64) as usize],
                );
                next_id += 1;
                decisions += 1;
                place(&mut tree, &profile, now, kind, proximity, false);
            }
            // Rejoin an orphan root (preserved profile, so under time
            // ordering these are the joiners old enough to evict).
            5..=6 => {
                let orphans: Vec<NodeId> = tree.orphan_roots().collect();
                if orphans.is_empty() {
                    continue;
                }
                let orphan = orphans[rng.below(orphans.len() as u64) as usize];
                let profile = tree.profile(orphan).unwrap().clone();
                let has_children = tree.child_count(orphan) > 0;
                decisions += 1;
                rejoin(&mut tree, orphan, &profile, now, kind, proximity, has_children);
            }
            // Abrupt departure at a random position.
            7 => {
                let members: Vec<NodeId> =
                    tree.member_ids().filter(|&m| m != tree.root()).collect();
                if members.is_empty() {
                    continue;
                }
                let victim = members[rng.below(members.len() as u64) as usize];
                tree.remove(victim).unwrap();
            }
            // ROST-style switch of a random attached member.
            8 => {
                let attached: Vec<NodeId> = tree
                    .attached_by_depth()
                    .filter(|&m| m != tree.root())
                    .collect();
                if attached.is_empty() {
                    continue;
                }
                let child = attached[rng.below(attached.len() as u64) as usize];
                match tree.swap_with_parent(child, |p| p.bandwidth) {
                    Ok(_) => {
                        switches += 1;
                        assert_restamp_equivalence(&tree);
                    }
                    Err(TreeError::NoSwitchableParent(_))
                    | Err(TreeError::InsufficientCapacity(_)) => {}
                    Err(e) => panic!("unexpected switch error: {e}"),
                }
            }
            // Bandwidth decay (or recovery) with tail-first shedding.
            _ => {
                let members: Vec<NodeId> = tree.member_ids().collect();
                let victim = members[rng.below(members.len() as u64) as usize];
                if victim == tree.root() {
                    continue;
                }
                let bw = rng.below(10) as f64 * 0.5;
                tree.set_bandwidth(victim, bw).unwrap();
            }
        }
        tree.check_invariants()
            .unwrap_or_else(|v| panic!("seed {seed} {kind:?} step {step}: {v}"));
    }
    // The mix must actually exercise the interesting paths.
    assert!(switches > 0, "seed {seed} {kind:?}: no switch ever applied");
    assert!(decisions > ops / 3, "seed {seed} {kind:?}: too few placements");
}

/// Compares old and new deciders for one join, then applies the decision.
fn place(
    tree: &mut MulticastTree,
    joiner: &MemberProfile,
    now: SimTime,
    kind: KeyKind,
    proximity: &dyn Proximity,
    _rejoin: bool,
) {
    let old = old_model::select(tree, joiner, now, |p, t| kind.key(p, t), proximity);
    let ctx = JoinContext {
        tree,
        joiner,
        candidates: &[],
        now,
    };
    let new = kind.algorithm().select(&ctx, proximity);
    assert_eq!(old, new, "join decision diverged for {}", joiner.id);
    match new {
        JoinDecision::Attach { parent } => {
            tree.attach(joiner.clone(), parent).unwrap();
        }
        JoinDecision::Replace { evict } => {
            tree.replace(evict, joiner.clone(), |p| p.bandwidth).unwrap();
        }
        JoinDecision::Reject => {}
    }
}

/// Compares old and new deciders for one orphan rejoin (the engine's
/// split: childless orphans may usurp, subtree roots only min-depth
/// reattach), then applies the decision.
fn rejoin(
    tree: &mut MulticastTree,
    orphan: NodeId,
    profile: &MemberProfile,
    now: SimTime,
    kind: KeyKind,
    proximity: &dyn Proximity,
    has_children: bool,
) {
    let (old, new) = if has_children {
        let old = match old_model::min_depth_parent_all_attached(tree, profile, proximity) {
            Some(parent) => JoinDecision::Attach { parent },
            None => JoinDecision::Reject,
        };
        let new = match rom_overlay::algorithms::min_depth_parent_indexed(tree, profile, proximity)
        {
            Some(parent) => JoinDecision::Attach { parent },
            None => JoinDecision::Reject,
        };
        (old, new)
    } else {
        let old = old_model::select(tree, profile, now, |p, t| kind.key(p, t), proximity);
        let ctx = JoinContext {
            tree,
            joiner: profile,
            candidates: &[],
            now,
        };
        (old, kind.algorithm().select(&ctx, proximity))
    };
    assert_eq!(old, new, "rejoin decision diverged for {orphan}");
    match new {
        JoinDecision::Attach { parent } => {
            tree.reattach(orphan, parent).unwrap();
        }
        JoinDecision::Replace { evict } => {
            tree.usurp(evict, orphan, |p| p.bandwidth).unwrap();
        }
        JoinDecision::Reject => {}
    }
}

/// Restamp equivalence: every attached member's incrementally maintained
/// depth must equal a from-scratch recomputation (its distance to the
/// root along parent links). `check_invariants` separately re-derives the
/// eviction and free-slot indices from those depths.
fn assert_restamp_equivalence(tree: &MulticastTree) {
    for id in tree.attached_by_depth() {
        assert_eq!(
            tree.depth(id).unwrap(),
            tree.ancestors(id).len(),
            "incremental depth of {id} diverged from a from-scratch restamp"
        );
    }
}

#[test]
fn bandwidth_ordered_matches_old_scan_across_seeds() {
    let locations = index_locations();
    for seed in [7, 42, 1337, 20260808] {
        run_wall(seed, KeyKind::Bandwidth, &IndexProximity, 400, &locations);
    }
}

#[test]
fn time_ordered_matches_old_scan_across_seeds() {
    let locations = index_locations();
    for seed in [7, 42, 1337, 20260808] {
        run_wall(seed, KeyKind::Age, &IndexProximity, 400, &locations);
    }
}

#[test]
fn flat_proximity_exercises_the_id_tiebreak() {
    // With every delay equal, the min-depth fallback's (delay, id)
    // ordering degenerates to pure id order — the tie-break most
    // sensitive to iteration-order differences between the candidate
    // scan and the free-slot index.
    let locations = index_locations();
    for seed in [3, 99, 4096] {
        run_wall(seed, KeyKind::Bandwidth, &ZeroProximity, 300, &locations);
        run_wall(seed, KeyKind::Age, &ZeroProximity, 300, &locations);
    }
}

#[test]
fn oracle_proximity_matches_old_scan_on_shared_stub_nodes() {
    // The engine's proximity, whose fallback scans a free layer against
    // one delay row, checked against the per-pair candidate scan. Members
    // share six stub nodes (16 and 19 in one stub domain, 28 and 31 in
    // another), so many candidates tie on delay and the id decides; the
    // source sits on transit node 0.
    let mut rng = SimRng::seed_from(5);
    let net = TransitStubNetwork::generate(&TransitStubConfig::small(), &mut rng);
    let oracle = DelayOracle::build(&net);
    let proximity = OracleProximity::new(&oracle);
    let stubs: Vec<Location> = net
        .stub_nodes()
        .step_by(3)
        .take(6)
        .map(|n| Location(n.0))
        .collect();
    assert_eq!(stubs[0], Location(net.transit_count() as u32));
    for seed in [11, 2024] {
        run_wall(seed, KeyKind::Bandwidth, &proximity, 400, &stubs);
        run_wall(seed, KeyKind::Age, &proximity, 400, &stubs);
    }
}
