//! The loss-repair protocol (§4.2): distance-ordered recovery groups and
//! residual-bandwidth striping.
//!
//! "A member places the nodes of its recovery group in order of network
//! distance. Upon detecting a packet loss, it sends a packet repair
//! request to the first recovery node... If the first node has only a
//! residual bandwidth of ε₁ < 1..., it takes responsibility for sending
//! all packets that satisfy (n mod 100) < 100·ε₁ [and] passes the request
//! on to the second recovery node, which... takes care of repairing
//! packets whose sequence numbers satisfy 100·ε₁ ≤ (n mod 100) <
//! 100·(ε₁+ε₂). The process continues until the sum of all residual
//! bandwidths... is no less than 1, or all recovery nodes have been
//! contacted."

use rom_overlay::NodeId;

/// The modulo base of the paper's striping rule (`n mod 100`).
pub const STRIPE_MODULO: u64 = 100;

/// Orders a recovery group by network distance from its owner, nearest
/// first (ties by id for determinism), from `(member, distance)` pairs.
///
/// # Examples
///
/// ```
/// use rom_cer::order_by_distance;
/// use rom_overlay::NodeId;
///
/// let group = order_by_distance(vec![(NodeId(5), 40.0), (NodeId(2), 10.0), (NodeId(9), 25.0)]);
/// assert_eq!(group, [NodeId(2), NodeId(9), NodeId(5)]);
/// ```
#[must_use]
pub fn order_by_distance(mut members: Vec<(NodeId, f64)>) -> Vec<NodeId> {
    members.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    members.into_iter().map(|(n, _)| n).collect()
}

/// One member's stripe in a full-rate recovery: it repairs sequence
/// numbers with `lo ≤ (n mod 100) < hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripeSegment {
    /// Index of the member within the recovery group.
    pub member_index: usize,
    /// Inclusive lower bound on `n mod 100`.
    pub lo: u64,
    /// Exclusive upper bound on `n mod 100`.
    pub hi: u64,
    /// The residual bandwidth this member contributes (stream-rate units).
    pub rate_fraction: f64,
}

/// A full-stream recovery plan: residual bandwidths striped across the
/// group until they cover the stream or run out (§4.2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StripePlan {
    segments: Vec<StripeSegment>,
    coverage: f64,
}

impl StripePlan {
    /// Plans stripes over the group's residual bandwidths (in stream-rate
    /// units, i.e. `1.0` = a full stream), in group order. Members are
    /// consulted until the accumulated coverage reaches 1 or the group is
    /// exhausted; zero-residual members are skipped.
    ///
    /// # Panics
    ///
    /// Panics if any residual is negative or NaN.
    #[must_use]
    pub fn plan(residuals: &[f64]) -> Self {
        let mut segments = Vec::new();
        let mut acc = 0.0f64;
        for (i, &eps) in residuals.iter().enumerate() {
            assert!(eps >= 0.0, "residual bandwidth cannot be negative or NaN");
            if acc >= 1.0 {
                break;
            }
            if eps <= 0.0 {
                continue;
            }
            let lo = (acc * STRIPE_MODULO as f64).round() as u64;
            acc = (acc + eps).min(1.0);
            let hi = (acc * STRIPE_MODULO as f64).round() as u64;
            if hi > lo {
                segments.push(StripeSegment {
                    member_index: i,
                    lo,
                    hi,
                    rate_fraction: (hi - lo) as f64 / STRIPE_MODULO as f64,
                });
            }
        }
        StripePlan {
            segments,
            coverage: acc.min(1.0),
        }
    }

    /// Like [`plan`](Self::plan), but when the residuals sum to less than
    /// a full stream the stripe widths are scaled up proportionally so
    /// that *every* slot is assigned. Each member still serves at its own
    /// residual rate, so an under-provisioned group falls behind the live
    /// stream at rate `1 − Σε` and catches up only as the playback buffer
    /// allows — the best-effort repair behaviour of §4.2 ("the packet
    /// error recovery can be performed in a best-effort manner", §1).
    ///
    /// # Panics
    ///
    /// Panics if any residual is negative or NaN.
    #[must_use]
    pub fn plan_full_coverage(residuals: &[f64]) -> Self {
        let total: f64 = residuals
            .iter()
            .inspect(|&&eps| {
                assert!(eps >= 0.0, "residual bandwidth cannot be negative or NaN");
            })
            .sum();
        if total >= 1.0 || total <= 0.0 {
            return StripePlan::plan(residuals);
        }
        let scaled: Vec<f64> = residuals.iter().map(|&eps| eps / total).collect();
        let mut plan = StripePlan::plan(&scaled);
        // The slots are fully covered, but the *service* coverage is the
        // group's real aggregate rate.
        plan.coverage = total;
        plan
    }

    /// The planned stripes in group order.
    #[must_use]
    pub fn segments(&self) -> &[StripeSegment] {
        &self.segments
    }

    /// Fraction of the stream rate the plan covers (`min(1, Σ ε)`).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// The group member responsible for sequence number `seq`, if the plan
    /// covers its stripe slot.
    #[must_use]
    pub fn assigned_member(&self, seq: u64) -> Option<usize> {
        let slot = seq % STRIPE_MODULO;
        self.segments
            .iter()
            .find(|s| s.lo <= slot && slot < s.hi)
            .map(|s| s.member_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_by_distance() {
        let g = order_by_distance(vec![
            (NodeId(1), 30.0),
            (NodeId(2), 10.0),
            (NodeId(3), 10.0),
        ]);
        assert_eq!(g, [NodeId(2), NodeId(3), NodeId(1)]);
        assert!(order_by_distance(Vec::new()).is_empty());
    }

    #[test]
    fn stripes_follow_paper_rule() {
        // ε₁ = 0.4, ε₂ = 0.35: node 0 covers (n mod 100) < 40, node 1
        // covers 40 ≤ (n mod 100) < 75.
        let plan = StripePlan::plan(&[0.4, 0.35]);
        let segs = plan.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].lo, segs[0].hi), (0, 40));
        assert_eq!((segs[1].lo, segs[1].hi), (40, 75));
        assert!((plan.coverage() - 0.75).abs() < 1e-9);
        assert_eq!(plan.assigned_member(139), Some(0)); // 139 mod 100 = 39
        assert_eq!(plan.assigned_member(140), Some(1));
        assert_eq!(plan.assigned_member(175), None); // uncovered tail
    }

    #[test]
    fn striping_stops_at_full_coverage() {
        // The third member is not needed: Σ reaches 1 at the second.
        let plan = StripePlan::plan(&[0.6, 0.7, 0.5]);
        assert_eq!(plan.segments().len(), 2);
        assert_eq!(plan.coverage(), 1.0);
        assert_eq!((plan.segments()[1].lo, plan.segments()[1].hi), (60, 100));
        // Every slot is assigned.
        for seq in 0..200 {
            assert!(plan.assigned_member(seq).is_some(), "seq {seq} uncovered");
        }
    }

    #[test]
    fn zero_residual_members_skipped() {
        let plan = StripePlan::plan(&[0.0, 0.5, 0.0, 0.5]);
        let indices: Vec<usize> = plan.segments().iter().map(|s| s.member_index).collect();
        assert_eq!(indices, vec![1, 3]);
        assert_eq!(plan.coverage(), 1.0);
    }

    #[test]
    fn empty_group_covers_nothing() {
        let plan = StripePlan::plan(&[]);
        assert!(plan.segments().is_empty());
        assert_eq!(plan.coverage(), 0.0);
        assert_eq!(plan.assigned_member(7), None);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_residual_rejected() {
        let _ = StripePlan::plan(&[-0.1]);
    }

    #[test]
    fn full_coverage_scales_up_underprovisioned_groups() {
        // Two members with 0.2 + 0.3 = 0.5 of a stream: slots are split
        // 40/60 so everything is assigned, while the reported coverage is
        // the real aggregate service rate.
        let plan = StripePlan::plan_full_coverage(&[0.2, 0.3]);
        assert_eq!((plan.segments()[0].lo, plan.segments()[0].hi), (0, 40));
        assert_eq!((plan.segments()[1].lo, plan.segments()[1].hi), (40, 100));
        for seq in 0..200 {
            assert!(plan.assigned_member(seq).is_some());
        }
        assert!((plan.coverage() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn full_coverage_matches_plan_when_provisioned() {
        let provisioned = StripePlan::plan_full_coverage(&[0.6, 0.7]);
        assert_eq!(provisioned, StripePlan::plan(&[0.6, 0.7]));
        let empty = StripePlan::plan_full_coverage(&[]);
        assert!(empty.segments().is_empty());
    }
}
