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
//! whenever a member needs a view, [`ViewSampler`] draws a uniform random
//! subset of the current membership of the configured size. Centralized
//! baselines (the relaxed ordered algorithms) bypass the sampler and see
//! everything.

use rom_sim::SimRng;

use crate::id::NodeId;

/// Draws bounded random membership views, modelling gossip in steady state.
///
/// # Examples
///
/// ```
/// use rom_overlay::{NodeId, ViewSampler};
/// use rom_sim::SimRng;
///
/// let sampler = ViewSampler::new(3);
/// let live: Vec<NodeId> = (0..10).map(NodeId).collect();
/// let mut rng = SimRng::seed_from(1);
/// let view = sampler.sample(&live, &mut rng);
/// assert_eq!(view.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewSampler {
    view_size: usize,
}

impl ViewSampler {
    /// The paper's default view size of 100 known members.
    pub const PAPER_VIEW_SIZE: usize = 100;

    /// Creates a sampler producing views of at most `view_size` members.
    ///
    /// # Panics
    ///
    /// Panics if `view_size` is zero.
    #[must_use]
    pub fn new(view_size: usize) -> Self {
        assert!(view_size > 0, "view size must be positive");
        ViewSampler { view_size }
    }

    /// The paper's configuration (100 members).
    #[must_use]
    pub fn paper() -> Self {
        ViewSampler::new(Self::PAPER_VIEW_SIZE)
    }

    /// Maximum view size.
    #[must_use]
    pub fn view_size(&self) -> usize {
        self.view_size
    }

    /// Samples a view from `membership` (distinct members, uniform without
    /// replacement). Returns the whole membership when it is smaller than
    /// the view size.
    #[must_use]
    pub fn sample(&self, membership: &[NodeId], rng: &mut SimRng) -> Vec<NodeId> {
        rng.sample(membership, self.view_size)
    }

    /// Samples a view excluding the member at `exclude_pos` (`None` when
    /// the member is not in `membership`): a joiner never discovers
    /// itself; a rejoining member's own descendants may still appear —
    /// they are detached, and the join algorithms skip detached
    /// candidates. `membership` must be duplicate-free, as a live-member
    /// list is.
    ///
    /// Instead of materializing the filtered membership — an O(M) copy
    /// per join, which at 10^6 live members dwarfed the decision it fed —
    /// this samples *indices* of the virtual sequence with the excluded
    /// slot spliced out and shifts them past the hole. The index stream
    /// and the returned view are bitwise identical to filtering first.
    ///
    /// # Panics
    ///
    /// Panics if `exclude_pos` is out of range for `membership`.
    #[must_use]
    pub fn sample_excluding_at(
        &self,
        membership: &[NodeId],
        exclude_pos: Option<usize>,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let Some(hole) = exclude_pos else {
            return rng.sample(membership, self.view_size);
        };
        assert!(hole < membership.len(), "exclude position out of range");
        rng.sample_indices(membership.len() - 1, self.view_size)
            .into_iter()
            .map(|i| membership[if i < hole { i } else { i + 1 }])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn view_is_bounded_and_distinct() {
        let sampler = ViewSampler::new(10);
        let live = members(100);
        let mut rng = SimRng::seed_from(2);
        let view = sampler.sample(&live, &mut rng);
        assert_eq!(view.len(), 10);
        let mut sorted = view.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn small_membership_returned_whole() {
        let sampler = ViewSampler::new(10);
        let live = members(4);
        let mut rng = SimRng::seed_from(3);
        let mut view = sampler.sample(&live, &mut rng);
        view.sort();
        assert_eq!(view, live);
    }

    #[test]
    fn exclusion_respected() {
        let sampler = ViewSampler::new(50);
        let live = members(30);
        let mut rng = SimRng::seed_from(4);
        let view = sampler.sample_excluding_at(&live, Some(7), &mut rng);
        assert_eq!(view.len(), 29);
        assert!(!view.contains(&NodeId(7)));
    }

    #[test]
    fn positioned_sampling_matches_filtered_reference() {
        // `sample_excluding_at` must be bitwise-equivalent to filtering
        // the membership first (the pre-PR-10 implementation): identical
        // RNG consumption, identical view. Covers hole-at-ends,
        // hole-in-middle, absent member and both sampler code paths.
        for (n, view, hole) in [
            (30u64, 50, Some(0usize)),
            (30, 50, Some(29)),
            (500, 10, Some(250)),
            (5000, 100, Some(4321)),
            (5000, 100, None),
            (20000, 100, Some(12345)),
        ] {
            let sampler = ViewSampler::new(view);
            let live = members(n);
            let exclude = hole.map_or(NodeId(n + 1), |p| live[p]);

            let mut rng = SimRng::seed_from(6);
            let got = sampler.sample_excluding_at(&live, hole, &mut rng);

            let mut reference_rng = SimRng::seed_from(6);
            let filtered: Vec<NodeId> = live.iter().copied().filter(|&m| m != exclude).collect();
            let want = reference_rng.sample(&filtered, view);
            assert_eq!(got, want, "n={n} view={view} hole={hole:?}");
            assert_eq!(rng.uniform().to_bits(), reference_rng.uniform().to_bits());
        }
    }

    #[test]
    fn views_cover_membership_over_time() {
        // Uniformity smoke test: over many draws every member appears.
        let sampler = ViewSampler::new(5);
        let live = members(20);
        let mut rng = SimRng::seed_from(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.extend(sampler.sample(&live, &mut rng));
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn paper_default() {
        assert_eq!(ViewSampler::paper().view_size(), 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_view_rejected() {
        let _ = ViewSampler::new(0);
    }
}
