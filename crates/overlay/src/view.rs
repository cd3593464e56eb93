//! Partial membership views.
//!
//! The paper's protocols are fully distributed: a joining member "queries
//! the existing members for information about other participants until it
//! obtains a certain number (say, 100) of known members" (§3.3), and during
//! the multicast "nodes periodically exchange neighbor information with
//! each other, so each node will know about a medium-sized (e.g., 100)
//! subset of other nodes" (§4.1).
//!
//! In the simulation we model the *steady state* of that gossip process:
//! whenever a member needs a view, it draws a uniform random subset of
//! [`PAPER_VIEW_SIZE`] members of the current membership
//! ([`sample_excluding_at`] for a joiner). Centralized baselines (the
//! relaxed ordered algorithms) skip the draw and see everything.

use rom_sim::SimRng;

use crate::id::NodeId;

/// The paper's view size: 100 known members (§3.3, §4.1).
pub const PAPER_VIEW_SIZE: usize = 100;

/// Samples a view of [`PAPER_VIEW_SIZE`] distinct members (uniform
/// without replacement; the whole rest when fewer remain) from
/// `membership`, excluding the member at `exclude_pos` (`None` when the
/// member is not in `membership`): a joiner never discovers itself; a
/// rejoining member's own descendants may still appear — they are
/// detached, and the join algorithms skip detached candidates.
/// `membership` must be duplicate-free, as a live-member list is.
///
/// Instead of materializing the filtered membership — an O(M) copy per
/// join, which at 10^6 live members dwarfed the decision it fed — this
/// samples *indices* of the virtual sequence with the excluded slot
/// spliced out and shifts them past the hole. The index stream and the
/// returned view are bitwise identical to filtering first.
///
/// # Examples
///
/// ```
/// use rom_overlay::{sample_excluding_at, NodeId, PAPER_VIEW_SIZE};
/// use rom_sim::SimRng;
///
/// let live: Vec<NodeId> = (0..1_000).map(NodeId).collect();
/// let mut rng = SimRng::seed_from(1);
/// let view = sample_excluding_at(&live, Some(7), &mut rng);
/// assert_eq!(view.len(), PAPER_VIEW_SIZE);
/// assert!(!view.contains(&NodeId(7)));
/// ```
///
/// # Panics
///
/// Panics if `exclude_pos` is out of range for `membership`.
#[must_use]
pub fn sample_excluding_at(
    membership: &[NodeId],
    exclude_pos: Option<usize>,
    rng: &mut SimRng,
) -> Vec<NodeId> {
    let Some(hole) = exclude_pos else {
        return rng.sample(membership, PAPER_VIEW_SIZE);
    };
    assert!(hole < membership.len(), "exclude position out of range");
    rng.sample_indices(membership.len() - 1, PAPER_VIEW_SIZE)
        .into_iter()
        .map(|i| membership[if i < hole { i } else { i + 1 }])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn view_is_bounded_and_distinct() {
        // 1 000 members: the sampler's dense path.
        let live = members(1_000);
        let mut rng = SimRng::seed_from(2);
        let view = sample_excluding_at(&live, None, &mut rng);
        assert_eq!(view.len(), PAPER_VIEW_SIZE);
        let mut sorted = view.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), PAPER_VIEW_SIZE);
    }

    #[test]
    fn small_membership_returned_whole() {
        let live = members(4);
        let mut rng = SimRng::seed_from(3);
        let mut view = sample_excluding_at(&live, None, &mut rng);
        view.sort();
        assert_eq!(view, live);
    }

    #[test]
    fn exclusion_respected() {
        let live = members(30);
        let mut rng = SimRng::seed_from(4);
        let view = sample_excluding_at(&live, Some(7), &mut rng);
        assert_eq!(view.len(), 29);
        assert!(!view.contains(&NodeId(7)));
    }

    #[test]
    fn positioned_sampling_matches_filtered_reference() {
        // `sample_excluding_at` must be bitwise-equivalent to filtering
        // the membership first (the pre-PR-10 implementation): identical
        // RNG consumption, identical view. Covers hole-at-ends,
        // hole-in-middle, absent member, a membership smaller than the
        // view, and both paths of `SimRng::sample_indices`: dense up to
        // 64 × 100 = 6 400 members, sparse above.
        for (n, hole) in [
            (30u64, Some(0usize)),
            (30, Some(29)),
            (500, Some(250)),
            (5000, Some(4321)),
            (5000, None),
            (6401, Some(6400)),
            (6402, Some(0)),
            (20000, Some(12345)),
            (20000, None),
        ] {
            let live = members(n);
            let exclude = hole.map_or(NodeId(n + 1), |p| live[p]);

            let mut rng = SimRng::seed_from(6);
            let got = sample_excluding_at(&live, hole, &mut rng);

            let mut reference_rng = SimRng::seed_from(6);
            let filtered: Vec<NodeId> = live.iter().copied().filter(|&m| m != exclude).collect();
            let want = reference_rng.sample(&filtered, PAPER_VIEW_SIZE);
            assert_eq!(got, want, "n={n} hole={hole:?}");
            assert_eq!(rng.uniform().to_bits(), reference_rng.uniform().to_bits());
        }
    }

    #[test]
    fn views_cover_membership_over_time() {
        // Uniformity smoke test: over many draws every member appears.
        let live = members(500);
        let mut rng = SimRng::seed_from(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.extend(sample_excluding_at(&live, None, &mut rng));
        }
        assert_eq!(seen.len(), 500);
    }
}
