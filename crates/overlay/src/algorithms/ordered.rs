//! The relaxed bandwidth-ordered and time-ordered centralized baselines.
//!
//! Strict BO/TO trees (§3.1) keep every layer ordered, which costs
//! recursive rejoins on every churn event. The paper therefore evaluates
//! *relaxed* variants (§5 algorithms 3–4): "when a member joins/rejoins the
//! tree, it always searches from the high to low layers to see if there is
//! a smaller-bandwidth or younger node, and if so, the located node is
//! replaced with the new one. The evicted node, and possibly together with
//! some of its children in the case of time ordering, are forced to rejoin
//! the tree. This results in bandwidth/time ordering among parents and
//! children... Note that both algorithms assume a central administrator
//! providing global topological information."

use crate::algorithms::{min_depth_parent_indexed, JoinContext, JoinDecision, TreeAlgorithm};
use crate::id::NodeId;
use crate::member::MemberProfile;
use crate::proximity::Proximity;
use crate::tree::MulticastTree;
use rom_sim::SimTime;

/// The ordering criterion a relaxed ordered tree maintains.
trait OrderKey {
    /// The sort key; *larger* keys deserve *higher* (shallower) positions.
    fn key(profile: &MemberProfile, now: SimTime) -> f64;

    /// The layer's weakest occupant under this ordering — the minimum
    /// (key, id) among attached members at `depth` — answered from the
    /// tree's per-depth eviction index instead of a layer scan.
    fn weakest(tree: &MulticastTree, depth: usize, now: SimTime) -> Option<(f64, NodeId)>;
}

/// Shared eviction search: the shallowest attached non-root member whose
/// key is strictly smaller than the joiner's — the paper's "searches from
/// the high to low layers to see if there is a smaller-bandwidth or
/// younger node". Within the first layer containing a qualifying member,
/// the *weakest* occupant is evicted (ties to the smallest id): evicting
/// the weakest keeps displacement cascades short, since the evictee
/// out-ranks almost nobody and simply reattaches.
///
/// Each layer is answered by one probe of the tree's ordered eviction
/// index: the layer's globally weakest occupant qualifies iff *any*
/// occupant does (every qualifying key is ≥ the minimum), and on key
/// ties the index already yields the smallest id — exactly the member
/// the former full layer scan selected.
fn find_eviction<K: OrderKey>(ctx: &JoinContext<'_>) -> Option<NodeId> {
    let _span = ctx.tree.prof().span("overlay.find_eviction");
    let joiner_key = K::key(ctx.joiner, ctx.now);
    let tree = ctx.tree;
    for depth in 1..=tree.max_depth() {
        if let Some((key, evict)) = K::weakest(tree, depth, ctx.now) {
            if key < joiner_key {
                return Some(evict);
            }
        }
    }
    None
}

fn ordered_select<K: OrderKey>(ctx: &JoinContext<'_>, proximity: &dyn Proximity) -> JoinDecision {
    if let Some(evict) = find_eviction::<K>(ctx) {
        return JoinDecision::Replace { evict };
    }
    // Centralized fallback over the whole attached membership, straight
    // from the tree's free-slot index — no candidate list needed.
    match min_depth_parent_indexed(ctx.tree, ctx.joiner, proximity) {
        Some(parent) => JoinDecision::Attach { parent },
        None => JoinDecision::Reject,
    }
}

struct BandwidthKey;

impl OrderKey for BandwidthKey {
    fn key(profile: &MemberProfile, _now: SimTime) -> f64 {
        profile.bandwidth
    }

    fn weakest(tree: &MulticastTree, depth: usize, _now: SimTime) -> Option<(f64, NodeId)> {
        tree.weakest_by_bandwidth(depth)
    }
}

struct AgeKey;

impl OrderKey for AgeKey {
    fn key(profile: &MemberProfile, now: SimTime) -> f64 {
        profile.age(now)
    }

    fn weakest(tree: &MulticastTree, depth: usize, now: SimTime) -> Option<(f64, NodeId)> {
        tree.weakest_by_age(depth, now)
    }
}

/// The relaxed bandwidth-ordered algorithm (§5 algorithm 3): high-bandwidth
/// members bubble toward the root by evicting weaker occupants, producing a
/// short tree at the cost of eviction-driven reconnections and a central
/// administrator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelaxedBandwidthOrdered;

impl TreeAlgorithm for RelaxedBandwidthOrdered {
    fn is_centralized(&self) -> bool {
        true
    }

    fn select(&self, ctx: &JoinContext<'_>, proximity: &dyn Proximity) -> JoinDecision {
        ordered_select::<BandwidthKey>(ctx, proximity)
    }
}

/// The relaxed time-ordered algorithm (§5 algorithm 4): older members
/// bubble toward the root by evicting younger occupants. More stable
/// parents, but a taller tree than bandwidth ordering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelaxedTimeOrdered;

impl TreeAlgorithm for RelaxedTimeOrdered {
    fn is_centralized(&self) -> bool {
        true
    }

    fn select(&self, ctx: &JoinContext<'_>, proximity: &dyn Proximity) -> JoinDecision {
        ordered_select::<AgeKey>(ctx, proximity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Location;
    use crate::proximity::ZeroProximity;
    use crate::tree::MulticastTree;

    fn profile(id: u64, bw: f64, join_secs: f64) -> MemberProfile {
        MemberProfile::new(
            NodeId(id),
            bw,
            SimTime::from_secs(join_secs),
            1e6,
            Location(id as u32),
        )
    }

    fn ctx<'a>(
        tree: &'a MulticastTree,
        joiner: &'a MemberProfile,
        candidates: &'a [NodeId],
        now_secs: f64,
    ) -> JoinContext<'a> {
        JoinContext {
            tree,
            joiner,
            candidates,
            now: SimTime::from_secs(now_secs),
        }
    }

    #[test]
    fn bo_evicts_shallowest_weaker_node() {
        let mut tree = MulticastTree::with_order_index(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 5.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 1.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(3, 0.5, 0.0), NodeId(1)).unwrap();
        let joiner = profile(9, 3.0, 10.0);
        let all: Vec<NodeId> = tree.attached_by_depth().collect();
        let c = ctx(&tree, &joiner, &all, 10.0);
        // Node 2 (bw 1 < 3) sits at depth 1; node 3 is weaker still but
        // deeper — the shallowest weaker node wins.
        assert_eq!(
            RelaxedBandwidthOrdered.select(&c, &ZeroProximity),
            JoinDecision::Replace { evict: NodeId(2) }
        );
    }

    #[test]
    fn bo_picks_weakest_within_layer() {
        let mut tree = MulticastTree::with_order_index(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 2.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 1.0, 0.0), NodeId(0)).unwrap();
        let joiner = profile(9, 3.0, 10.0);
        let all: Vec<NodeId> = tree.attached_by_depth().collect();
        let c = ctx(&tree, &joiner, &all, 10.0);
        assert_eq!(
            RelaxedBandwidthOrdered.select(&c, &ZeroProximity),
            JoinDecision::Replace { evict: NodeId(2) }
        );
    }

    #[test]
    fn bo_falls_back_to_min_depth_when_nothing_weaker() {
        let mut tree = MulticastTree::with_order_index(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 5.0, 0.0), NodeId(0)).unwrap();
        let joiner = profile(9, 0.7, 10.0); // weaker than everyone
        let all: Vec<NodeId> = tree.attached_by_depth().collect();
        let c = ctx(&tree, &joiner, &all, 10.0);
        assert_eq!(
            RelaxedBandwidthOrdered.select(&c, &ZeroProximity),
            JoinDecision::Attach { parent: NodeId(0) }
        );
    }

    #[test]
    fn to_evicts_younger_node() {
        let mut tree = MulticastTree::with_order_index(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 5.0, 10.0), NodeId(0)).unwrap(); // age 90 at t=100
        tree.attach(profile(2, 5.0, 80.0), NodeId(0)).unwrap(); // age 20
        let joiner = profile(9, 1.0, 50.0); // age 50: older than node 2 only
        let all: Vec<NodeId> = tree.attached_by_depth().collect();
        let c = ctx(&tree, &joiner, &all, 100.0);
        assert_eq!(
            RelaxedTimeOrdered.select(&c, &ZeroProximity),
            JoinDecision::Replace { evict: NodeId(2) }
        );
    }

    #[test]
    fn to_attaches_when_youngest() {
        let mut tree = MulticastTree::with_order_index(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 5.0, 10.0), NodeId(0)).unwrap();
        let joiner = profile(9, 9.0, 95.0); // youngest member
        let all: Vec<NodeId> = tree.attached_by_depth().collect();
        let c = ctx(&tree, &joiner, &all, 100.0);
        assert_eq!(
            RelaxedTimeOrdered.select(&c, &ZeroProximity),
            JoinDecision::Attach { parent: NodeId(0) }
        );
    }

    #[test]
    fn both_are_centralized() {
        assert!(RelaxedBandwidthOrdered.is_centralized());
        assert!(RelaxedTimeOrdered.is_centralized());
    }

    #[test]
    fn bandwidth_decay_rekeys_the_eviction_index() {
        // Regression for the indexed eviction path: `set_bandwidth` must
        // re-key the member's index entry, or a later ordered join probes
        // stale bandwidths and picks the wrong victim.
        let mut tree = MulticastTree::with_order_index(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 5.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 4.0, 0.0), NodeId(0)).unwrap();
        // Node 1 decays below node 2: the index must now rank it weakest.
        tree.set_bandwidth(NodeId(1), 2.0).unwrap();
        tree.check_invariants().unwrap();
        assert_eq!(tree.weakest_by_bandwidth(1), Some((2.0, NodeId(1))));
        let joiner = profile(9, 3.0, 10.0);
        let c = ctx(&tree, &joiner, &[], 10.0);
        assert_eq!(
            RelaxedBandwidthOrdered.select(&c, &ZeroProximity),
            JoinDecision::Replace { evict: NodeId(1) }
        );
    }

    #[test]
    fn bandwidth_decay_sheds_children_and_keeps_indices_coherent() {
        // Tail-first shedding drops subtrees out of the attached set; the
        // eviction and free-slot indices must follow, so the next ordered
        // join neither evicts a detached member nor misses the weakened
        // survivor.
        let mut tree = MulticastTree::with_order_index(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 3.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 4.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(3, 1.0, 0.0), NodeId(1)).unwrap();
        tree.attach(profile(4, 1.5, 0.0), NodeId(1)).unwrap();
        // Capacity 3 → 1 sheds the most recently adopted child (node 4).
        let shed = tree.set_bandwidth(NodeId(1), 1.2).unwrap();
        assert_eq!(shed, vec![NodeId(4)]);
        tree.check_invariants().unwrap();
        // Depth 2 now holds only node 3; the shed node is unprobeable.
        assert_eq!(tree.weakest_by_bandwidth(2), Some((1.0, NodeId(3))));
        // A joiner stronger than the decayed node 1 (bw 1.2) but weaker
        // than node 2 evicts node 1 — the post-decay weakest at depth 1.
        let joiner = profile(9, 2.0, 10.0);
        let c = ctx(&tree, &joiner, &[], 10.0);
        assert_eq!(
            RelaxedBandwidthOrdered.select(&c, &ZeroProximity),
            JoinDecision::Replace { evict: NodeId(1) }
        );
    }

    #[test]
    fn root_is_never_evicted() {
        let tree = MulticastTree::with_order_index(profile(0, 0.1, 50.0));
        let joiner = profile(9, 99.0, 0.0);
        let all: Vec<NodeId> = tree.attached_by_depth().collect();
        let c = ctx(&tree, &joiner, &all, 100.0);
        // Root is weaker and younger, but the search starts at depth 1;
        // root also has no free slot (capacity 0) so the result is Reject.
        assert_eq!(
            RelaxedBandwidthOrdered.select(&c, &ZeroProximity),
            JoinDecision::Reject
        );
        assert_eq!(
            RelaxedTimeOrdered.select(&c, &ZeroProximity),
            JoinDecision::Reject
        );
    }
}
