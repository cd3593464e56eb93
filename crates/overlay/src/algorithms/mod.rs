//! Tree-construction algorithms.
//!
//! The paper evaluates five ways of deciding where a (re)joining member
//! attaches (§5). Four are implemented here. The fifth, ROST, joins
//! through [`MinimumDepth`] (§3.3) and differs only by the switching
//! maintenance the `rom-rost` crate adds on top.
//!
//! | algorithm | knowledge | principle |
//! |---|---|---|
//! | [`MinimumDepth`] | partial view | shallowest parent with a free slot, nearest on ties |
//! | [`LongestFirst`] | partial view | oldest parent with a free slot |
//! | [`RelaxedBandwidthOrdered`] | global (centralized) | evict the shallowest smaller-bandwidth node |
//! | [`RelaxedTimeOrdered`] | global (centralized) | evict the shallowest younger node |

mod longest_first;
mod min_depth;
mod ordered;

pub use longest_first::LongestFirst;
pub use min_depth::MinimumDepth;
pub use ordered::{RelaxedBandwidthOrdered, RelaxedTimeOrdered};

use rom_sim::SimTime;

use crate::id::NodeId;
use crate::member::MemberProfile;
use crate::proximity::Proximity;
use crate::tree::MulticastTree;

/// Everything an algorithm may consult when placing one member.
#[derive(Debug)]
pub struct JoinContext<'a> {
    /// The current tree (read-only; the engine applies the decision).
    pub tree: &'a MulticastTree,
    /// The member being placed. For a rejoin this is the member's original
    /// profile — its age is preserved.
    pub joiner: &'a MemberProfile,
    /// Candidate parents. For distributed algorithms this is the joiner's
    /// partial view exactly as sampled. It may hold detached members,
    /// including the joiner's own orphaned subtree, and ids that are not
    /// in the tree at all (joiners waiting to retry). A distributed
    /// algorithm must skip both, as [`min_depth_parent`] and
    /// [`LongestFirst`] do. Centralized algorithms ignore this field
    /// entirely — they read the whole attached membership through the
    /// tree's indices — so the engine passes an empty slice for them.
    pub candidates: &'a [NodeId],
    /// Current simulation time (for age/BTP computations).
    pub now: SimTime,
}

/// An algorithm's placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinDecision {
    /// Attach the joiner as a new leaf under `parent`.
    Attach {
        /// The chosen parent.
        parent: NodeId,
    },
    /// Take over `evict`'s position; the evictee (and possibly some of its
    /// children) must rejoin. Only centralized algorithms emit this.
    Replace {
        /// The member being evicted.
        evict: NodeId,
    },
    /// No feasible placement among the candidates (the engine retries with
    /// a fresh view).
    Reject,
}

/// A strategy for placing joining and rejoining members.
///
/// Implementations must be deterministic functions of the context — any
/// randomness (view sampling) happens before the call.
pub trait TreeAlgorithm: std::fmt::Debug {
    /// True if the algorithm needs global topology information (§5 notes
    /// the relaxed ordered baselines "assume a central administrator").
    /// The engine then passes no candidates: the algorithm reads the
    /// attached membership through the tree's indices.
    fn is_centralized(&self) -> bool {
        false
    }

    /// Chooses a placement for `ctx.joiner`.
    fn select(&self, ctx: &JoinContext<'_>, proximity: &dyn Proximity) -> JoinDecision;
}

/// The minimum-depth parent choice behind [`MinimumDepth`], and so behind
/// ROST's joins: the shallowest candidate with a free slot, breaking
/// layer ties by network delay and then by id (§3.3). Candidates that
/// are detached or not in the tree are skipped.
///
/// The scan makes two passes over the view. The first resolves every
/// candidate's arena index; the lookups do not depend on one another, so
/// their cache misses can overlap instead of queueing behind each
/// candidate's slot reads and delay query. The second reads each
/// resolved slot and keeps the minimum (depth, delay, id), querying a
/// delay only for a candidate whose depth can still win.
#[must_use]
pub fn min_depth_parent(ctx: &JoinContext<'_>, proximity: &dyn Proximity) -> Option<NodeId> {
    let tree = ctx.tree;
    let _span = tree.prof().span("overlay.min_depth_scan");
    let mut resolved = Vec::with_capacity(ctx.candidates.len());
    resolved.extend(
        ctx.candidates
            .iter()
            .filter_map(|&cand| tree.index_of(cand)),
    );
    let mut best: Option<(usize, f64, NodeId)> = None;
    for &ix in &resolved {
        let Some(depth) = tree.depth_ix(ix).filter(|_| tree.has_free_slot_ix(ix)) else {
            continue;
        };
        if best.is_some_and(|(best_depth, _, _)| depth > best_depth) {
            continue;
        }
        let member = tree.profile_ix(ix);
        let key = (
            depth,
            proximity.delay_ms(ctx.joiner.location, member.location),
            member.id,
        );
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best.map(|(_, _, id)| id)
}

/// Centralized [`min_depth_parent`]: the same minimum-depth rule over the
/// *entire* attached membership, answered from the tree's per-depth
/// free-slot layers instead of a materialized candidate list. The first
/// layer with spare capacity decides the depth (deeper members can never
/// win the depth-first ordering), and within it
/// [`Proximity::nearest_free`] takes the minimum (delay, id), the
/// candidate scan's tie-break, in one pass over the layer's slice.
/// Detached members — including the joiner's own orphaned subtree — are
/// never listed, just as the candidate scan skips them.
#[must_use]
pub fn min_depth_parent_indexed(
    tree: &MulticastTree,
    joiner: &MemberProfile,
    proximity: &dyn Proximity,
) -> Option<NodeId> {
    let _span = tree.prof().span("overlay.min_depth_fallback");
    let depth = tree.shallowest_free_depth()?;
    proximity.nearest_free(joiner.location, tree.free_layer(depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Location;
    use crate::proximity::{IndexProximity, ZeroProximity};
    use proptest::prelude::*;

    pub(crate) fn profile(id: u64, bw: f64, join_secs: f64, loc: u32) -> MemberProfile {
        MemberProfile::new(
            NodeId(id),
            bw,
            SimTime::from_secs(join_secs),
            1e6,
            Location(loc),
        )
    }

    #[test]
    fn min_depth_parent_prefers_shallow_then_near() {
        let mut tree = MulticastTree::new(profile(0, 2.0, 0.0, 0));
        tree.attach(profile(1, 2.0, 0.0, 10), NodeId(0)).unwrap();
        tree.attach(profile(2, 2.0, 0.0, 3), NodeId(0)).unwrap();
        tree.attach(profile(3, 2.0, 0.0, 1), NodeId(1)).unwrap();
        let joiner = profile(9, 1.0, 5.0, 2);
        let candidates = vec![NodeId(1), NodeId(2), NodeId(3)];
        let ctx = JoinContext {
            tree: &tree,
            joiner: &joiner,
            candidates: &candidates,
            now: SimTime::from_secs(5.0),
        };
        // Nodes 1 and 2 are both depth 1; node 2 (loc 3) is nearer to
        // loc 2 than node 1 (loc 10).
        assert_eq!(min_depth_parent(&ctx, &IndexProximity), Some(NodeId(2)));
        // With flat proximity the tie breaks to the smaller id.
        assert_eq!(min_depth_parent(&ctx, &ZeroProximity), Some(NodeId(1)));
    }

    #[test]
    fn min_depth_parent_skips_full_and_detached() {
        let mut tree = MulticastTree::new(profile(0, 2.0, 0.0, 0));
        tree.attach(profile(1, 1.0, 0.0, 1), NodeId(0)).unwrap();
        tree.attach(profile(2, 0.0, 0.0, 2), NodeId(1)).unwrap(); // free-rider; 1 now full
        tree.attach(profile(3, 3.0, 0.0, 3), NodeId(0)).unwrap();
        tree.attach(profile(4, 3.0, 0.0, 4), NodeId(3)).unwrap();
        tree.attach(profile(5, 3.0, 0.0, 5), NodeId(4)).unwrap();
        // Orphan the subtree 4 → 5; both keep free slots while detached.
        tree.remove(NodeId(3)).unwrap();
        tree.attach(profile(6, 0.0, 0.0, 6), NodeId(0)).unwrap(); // root now full
        assert!(tree.has_free_slot(NodeId(5)) && !tree.is_attached(NodeId(5)));
        let joiner = profile(9, 1.0, 5.0, 5);
        // Node 77 is not in the tree (a joiner still waiting to retry).
        let candidates = vec![NodeId(0), NodeId(2), NodeId(5), NodeId(77)];
        let ctx = JoinContext {
            tree: &tree,
            joiner: &joiner,
            candidates: &candidates,
            now: SimTime::from_secs(5.0),
        };
        assert_eq!(min_depth_parent(&ctx, &ZeroProximity), None);
    }

    /// The single-pass scan [`min_depth_parent`] replaced, kept as its
    /// reference: each candidate in view order is looked up, checked and
    /// compared with the best so far, its delay queried only when its
    /// depth can still win.
    fn single_pass_scan(ctx: &JoinContext<'_>, proximity: &dyn Proximity) -> Option<NodeId> {
        let mut best: Option<(usize, f64, NodeId)> = None;
        for &cand in ctx.candidates {
            let Some(ix) = ctx.tree.index_of(cand) else {
                continue;
            };
            if !ctx.tree.has_free_slot_ix(ix) {
                continue;
            }
            let Some(depth) = ctx.tree.depth_ix(ix) else {
                continue;
            };
            let key_delay = || {
                let loc = ctx.tree.profile_ix(ix).location;
                proximity.delay_ms(ctx.joiner.location, loc)
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

    /// A tree grown from `(parent pick, bandwidth, location)` triples,
    /// each member attached under a pick among the attached members with
    /// a free slot, then thinned by departures that orphan the leavers'
    /// subtrees. Bandwidths 0–3 give capacities 0–3, so members fill up
    /// and depths repeat; six locations make delay ties common under
    /// [`IndexProximity`].
    fn grown_tree(members: &[(u64, u32, u32)], departures: &[u64]) -> MulticastTree {
        let mut tree = MulticastTree::new(profile(0, 3.0, 0.0, 0));
        for (id, &(pick, bw, loc)) in (1u64..).zip(members) {
            let open: Vec<NodeId> = tree
                .attached_by_depth()
                .filter(|&m| tree.has_free_slot(m))
                .collect();
            if open.is_empty() {
                break;
            }
            let parent = open[(pick % open.len() as u64) as usize];
            tree.attach(profile(id, f64::from(bw), 0.0, loc), parent)
                .expect("the parent has a free slot");
        }
        for &pick in departures {
            let leaver = NodeId(1 + pick % members.len() as u64);
            if tree.contains(leaver) {
                tree.remove(leaver).expect("a present member can leave");
            }
        }
        tree
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The resolve-first scan chooses what the single-pass scan
        /// chooses over views holding attached members, detached members (whole
        /// orphaned subtrees), unknown ids and repeated depths and
        /// delays, under flat and distinguishable proximity.
        #[test]
        fn min_depth_parent_matches_single_pass_scan(
            members in prop::collection::vec((any::<u64>(), 0u32..4, 0u32..6), 1..60),
            departures in prop::collection::vec(any::<u64>(), 0..6),
            view in prop::collection::vec(0u64..80, 0..100),
            joiner_location in 0u32..6,
        ) {
            let tree = grown_tree(&members, &departures);
            let joiner = profile(1_000, 1.0, 5.0, joiner_location);
            let candidates: Vec<NodeId> = view.into_iter().map(NodeId).collect();
            let ctx = JoinContext {
                tree: &tree,
                joiner: &joiner,
                candidates: &candidates,
                now: SimTime::from_secs(5.0),
            };
            prop_assert_eq!(
                min_depth_parent(&ctx, &ZeroProximity),
                single_pass_scan(&ctx, &ZeroProximity)
            );
            prop_assert_eq!(
                min_depth_parent(&ctx, &IndexProximity),
                single_pass_scan(&ctx, &IndexProximity)
            );
        }
    }
}
