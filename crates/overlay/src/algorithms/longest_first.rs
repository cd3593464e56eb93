//! The longest-first baseline.

use crate::algorithms::{JoinContext, JoinDecision, TreeAlgorithm};
use crate::id::NodeId;
use crate::proximity::Proximity;

/// The longest-first algorithm of Sripanidkulchai et al. (§2.1, §5
/// algorithm 2).
///
/// "Selects the longest-lived member among those with spare bandwidth
/// capacities as the new member's parent": under a long-tailed lifetime
/// distribution the oldest visible member is the least likely to leave
/// soon. The paper shows this "turns out to yield poor performance since it
/// results in a tall tree" — old members accumulate at every depth, so
/// joiners burrow deep instead of filling shallow slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LongestFirst;

impl TreeAlgorithm for LongestFirst {
    fn select(&self, ctx: &JoinContext<'_>, proximity: &dyn Proximity) -> JoinDecision {
        let mut best: Option<(f64, f64, NodeId)> = None;
        for &cand in ctx.candidates {
            let Some(ix) = ctx.tree.index_of(cand) else {
                continue;
            };
            if !ctx.tree.has_free_slot_ix(ix) || !ctx.tree.is_attached_ix(ix) {
                continue;
            }
            let p = ctx.tree.profile_ix(ix);
            let age = p.age(ctx.now);
            let delay = proximity.delay_ms(ctx.joiner.location, p.location);
            let better = match best {
                None => true,
                Some((bage, bdelay, bid)) => {
                    age > bage
                        || (age == bage && delay < bdelay)
                        || (age == bage && delay == bdelay && cand < bid)
                }
            };
            if better {
                best = Some((age, delay, cand));
            }
        }
        match best {
            Some((_, _, parent)) => JoinDecision::Attach { parent },
            None => JoinDecision::Reject,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Location;
    use crate::member::MemberProfile;
    use crate::proximity::ZeroProximity;
    use crate::tree::MulticastTree;
    use rom_sim::SimTime;

    fn profile(id: u64, bw: f64, join_secs: f64) -> MemberProfile {
        MemberProfile::new(
            NodeId(id),
            bw,
            SimTime::from_secs(join_secs),
            1e6,
            Location(id as u32),
        )
    }

    #[test]
    fn picks_oldest_with_capacity() {
        let mut tree = MulticastTree::new(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 2.0, 10.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 2.0, 5.0), NodeId(0)).unwrap(); // older than 1
        let joiner = profile(9, 1.0, 100.0);
        let candidates = vec![NodeId(1), NodeId(2)];
        let ctx = JoinContext {
            tree: &tree,
            joiner: &joiner,
            candidates: &candidates,
            now: SimTime::from_secs(100.0),
        };
        assert_eq!(
            LongestFirst.select(&ctx, &ZeroProximity),
            JoinDecision::Attach { parent: NodeId(2) }
        );
    }

    #[test]
    fn skips_full_members_even_if_oldest() {
        let mut tree = MulticastTree::new(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 1.0, 1.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 2.0, 50.0), NodeId(1)).unwrap(); // node 1 now full
        let joiner = profile(9, 1.0, 100.0);
        let candidates = vec![NodeId(1), NodeId(2)];
        let ctx = JoinContext {
            tree: &tree,
            joiner: &joiner,
            candidates: &candidates,
            now: SimTime::from_secs(100.0),
        };
        // Node 1 is older but full → node 2.
        assert_eq!(
            LongestFirst.select(&ctx, &ZeroProximity),
            JoinDecision::Attach { parent: NodeId(2) }
        );
    }

    #[test]
    fn skips_detached_and_unknown_candidates() {
        let mut tree = MulticastTree::new(profile(0, 10.0, 0.0));
        tree.attach(profile(1, 2.0, 50.0), NodeId(0)).unwrap();
        tree.attach(profile(3, 3.0, 1.0), NodeId(0)).unwrap();
        tree.attach(profile(4, 3.0, 2.0), NodeId(3)).unwrap();
        // Orphan node 4: the oldest candidate with free slots, but detached.
        tree.remove(NodeId(3)).unwrap();
        assert!(tree.has_free_slot(NodeId(4)) && !tree.is_attached(NodeId(4)));
        let joiner = profile(9, 1.0, 100.0);
        // Node 77 is not in the tree (a joiner still waiting to retry).
        let candidates = vec![NodeId(4), NodeId(77), NodeId(1)];
        let ctx = JoinContext {
            tree: &tree,
            joiner: &joiner,
            candidates: &candidates,
            now: SimTime::from_secs(100.0),
        };
        assert_eq!(
            LongestFirst.select(&ctx, &ZeroProximity),
            JoinDecision::Attach { parent: NodeId(1) }
        );
    }

    #[test]
    fn rejects_without_capacity() {
        let tree = MulticastTree::new(profile(0, 0.0, 0.0));
        let joiner = profile(9, 1.0, 1.0);
        let candidates = vec![NodeId(0)];
        let ctx = JoinContext {
            tree: &tree,
            joiner: &joiner,
            candidates: &candidates,
            now: SimTime::from_secs(1.0),
        };
        assert_eq!(
            LongestFirst.select(&ctx, &ZeroProximity),
            JoinDecision::Reject
        );
    }
}
