//! The minimum-depth baseline.

use crate::algorithms::{min_depth_parent, JoinContext, JoinDecision, TreeAlgorithm};
use crate::proximity::Proximity;

/// The minimum-depth algorithm (§2.1, §5 algorithm 1).
///
/// "It searches from the tree root downward to the leaf layer to identify a
/// parent with spare bandwidth capacity for a new node to join. If there
/// are multiple choices, the nearest parent (in terms of network delay) is
/// chosen." The member consults only its partial view (up to 100 members),
/// so this is a distributed algorithm with no maintenance and no protocol
/// overhead — but it is "completely reliability-ignorant" (§6).
///
/// # Examples
///
/// ```
/// use rom_overlay::algorithms::{JoinContext, JoinDecision, MinimumDepth, TreeAlgorithm};
/// use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId, ZeroProximity};
/// use rom_sim::SimTime;
///
/// let source = MemberProfile::new(NodeId::SOURCE, 100.0, SimTime::ZERO, 1e9, Location(0));
/// let tree = MulticastTree::new(source);
/// let joiner = MemberProfile::new(NodeId(1), 1.0, SimTime::ZERO, 600.0, Location(1));
/// let candidates = [NodeId::SOURCE];
///
/// let ctx = JoinContext { tree: &tree, joiner: &joiner, candidates: &candidates, now: SimTime::ZERO };
/// let decision = MinimumDepth.select(&ctx, &ZeroProximity);
/// assert_eq!(decision, JoinDecision::Attach { parent: NodeId::SOURCE });
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimumDepth;

impl TreeAlgorithm for MinimumDepth {
    fn select(&self, ctx: &JoinContext<'_>, proximity: &dyn Proximity) -> JoinDecision {
        match min_depth_parent(ctx, proximity) {
            Some(parent) => JoinDecision::Attach { parent },
            None => JoinDecision::Reject,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{Location, NodeId};
    use crate::member::MemberProfile;
    use crate::proximity::ZeroProximity;
    use crate::tree::MulticastTree;
    use rom_sim::SimTime;

    fn profile(id: u64, bw: f64) -> MemberProfile {
        MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, Location(id as u32))
    }

    #[test]
    fn attaches_at_shallowest_free_slot() {
        let mut tree = MulticastTree::new(profile(0, 1.0));
        tree.attach(profile(1, 2.0), NodeId(0)).unwrap(); // root full now
        tree.attach(profile(2, 2.0), NodeId(1)).unwrap();
        let joiner = profile(9, 0.5);
        let candidates = vec![NodeId(0), NodeId(1), NodeId(2)];
        let ctx = JoinContext {
            tree: &tree,
            joiner: &joiner,
            candidates: &candidates,
            now: SimTime::ZERO,
        };
        // Root full → node 1 at depth 1 wins over node 2 at depth 2.
        assert_eq!(
            MinimumDepth.select(&ctx, &ZeroProximity),
            JoinDecision::Attach { parent: NodeId(1) }
        );
    }

    #[test]
    fn rejects_when_view_has_no_capacity() {
        let tree = MulticastTree::new(profile(0, 0.0));
        let joiner = profile(9, 1.0);
        let candidates = vec![NodeId(0)];
        let ctx = JoinContext {
            tree: &tree,
            joiner: &joiner,
            candidates: &candidates,
            now: SimTime::ZERO,
        };
        assert_eq!(
            MinimumDepth.select(&ctx, &ZeroProximity),
            JoinDecision::Reject
        );
    }

    #[test]
    fn is_distributed() {
        assert!(!MinimumDepth.is_centralized());
    }
}
