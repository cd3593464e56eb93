//! Audited switching: §3.3's condition evaluated over §3.4's *verified*
//! values instead of self-reports.
//!
//! "Truth telling is critical for ROST. Without a mechanism to enforce
//! this, a node can simply report that it has a large bandwidth or has
//! stayed in the overlay for a long time in order to have itself gradually
//! moved up toward the root of the tree." The audited protocol closes that
//! hole: before a parent agrees to swap positions with a child, it
//! consults the child's referees; claims the referees will not vouch for
//! are refused, and members whose referees cannot be reached at all are
//! treated as newcomers (no switch).

use rom_overlay::{MulticastTree, NodeId};
use rom_sim::SimTime;

use crate::btp::Btp;
use crate::referee::{RefereeRegistry, Verification};
use crate::switching::{SwitchOutcome, SwitchingProtocol};

/// A member's self-reported resources, as carried in its switch request.
/// Honest members report their profile; cheaters report whatever they
/// like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceClaim {
    /// Claimed outbound bandwidth (stream-rate units).
    pub bandwidth: f64,
    /// Claimed age in seconds.
    pub age_secs: f64,
}

impl ResourceClaim {
    /// The claim an honest member makes at `now`: its true profile values.
    #[must_use]
    pub fn honest(tree: &MulticastTree, member: NodeId, now: SimTime) -> Option<Self> {
        let profile = tree.profile(member)?;
        Some(ResourceClaim {
            bandwidth: profile.bandwidth,
            age_secs: profile.age(now),
        })
    }

    /// The claimed bandwidth-time product.
    #[must_use]
    pub fn btp(&self) -> Btp {
        Btp::new((self.bandwidth * self.age_secs).max(0.0))
    }
}

/// Why an audited switch request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditRefusal {
    /// The referees contradict the claimed bandwidth (§3.4 cheating).
    BandwidthRejected,
    /// The referees contradict the claimed age (§3.4 cheating).
    AgeRejected,
    /// No live referee could vouch either way; the claim is treated as
    /// untrusted.
    Unverifiable,
    /// The claim is genuine but the §3.3 switching condition does not hold
    /// against the parent's witnessed values.
    ConditionNotMet,
}

/// Result of one audited switching attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditedOutcome {
    /// The claim passed the audit and the switch proceeded (which may
    /// still report lock contention etc. through the inner outcome).
    Proceeded(SwitchOutcome),
    /// The claim was refused before any tree mutation.
    Refused(AuditRefusal),
}

/// Audits one switch request: verifies the child's claimed bandwidth and
/// age against its referees, recomputes the §3.3 condition from *witnessed*
/// values, and only then lets the underlying protocol attempt the switch.
///
/// `is_live` reports referee liveness (the engine passes current
/// membership).
pub fn attempt_audited(
    protocol: &mut SwitchingProtocol,
    registry: &RefereeRegistry,
    tree: &mut MulticastTree,
    child: NodeId,
    claim: ResourceClaim,
    now: SimTime,
    is_live: impl Fn(NodeId) -> bool + Copy,
) -> AuditedOutcome {
    // Verify the two halves of the claim independently, exactly as a
    // suspicious parent would.
    match registry.verify_bandwidth(child, claim.bandwidth, is_live) {
        Verification::Confirmed { .. } => {}
        Verification::Rejected { .. } => {
            return AuditedOutcome::Refused(AuditRefusal::BandwidthRejected)
        }
        Verification::Unverifiable => return AuditedOutcome::Refused(AuditRefusal::Unverifiable),
    }
    match registry.verify_age(child, claim.age_secs, now, is_live) {
        Verification::Confirmed { .. } => {}
        Verification::Rejected { .. } => return AuditedOutcome::Refused(AuditRefusal::AgeRejected),
        Verification::Unverifiable => return AuditedOutcome::Refused(AuditRefusal::Unverifiable),
    }

    // The claim is consistent with the witnesses. Evaluate the §3.3
    // condition on the *witnessed* BTPs — never on self-reports.
    let Some(child_ix) = tree.index_of(child) else {
        return AuditedOutcome::Refused(AuditRefusal::ConditionNotMet);
    };
    let Some(parent_ix) = tree.parent_ix(child_ix) else {
        return AuditedOutcome::Refused(AuditRefusal::ConditionNotMet);
    };
    let parent = tree.id_of(parent_ix);
    if parent == tree.root() {
        return AuditedOutcome::Refused(AuditRefusal::ConditionNotMet);
    }
    let Some(child_btp) = registry.witnessed_btp(child, now, is_live) else {
        return AuditedOutcome::Refused(AuditRefusal::Unverifiable);
    };
    // The parent's own standing: witnessed where possible, profile
    // otherwise (the parent is not the one requesting promotion, so the
    // incentive to inflate is absent — §3.4's collusion argument).
    let parent_profile = tree.profile_ix(parent_ix);
    let parent_btp = registry
        .witnessed_btp(parent, now, is_live)
        .unwrap_or_else(|| Btp::of(parent_profile, now));
    if child_btp <= parent_btp {
        return AuditedOutcome::Refused(AuditRefusal::ConditionNotMet);
    }

    AuditedOutcome::Proceeded(protocol.attempt(tree, child, now))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RostConfig;
    use rom_overlay::{paper_source, Location, MemberProfile};

    fn profile(id: u64, bw: f64, join_secs: f64) -> MemberProfile {
        MemberProfile::new(
            NodeId(id),
            bw,
            SimTime::from_secs(join_secs),
            1e9,
            Location(id as u32),
        )
    }

    /// source → 1 (bw 1, old) → 2 (bw 4, newer): a genuine inversion.
    fn setup() -> (MulticastTree, SwitchingProtocol, RefereeRegistry) {
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        tree.attach(profile(1, 1.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 4.0, 100.0), NodeId(1)).unwrap();
        let protocol = SwitchingProtocol::new(RostConfig::paper());
        let mut registry = RefereeRegistry::new();
        for (member, join, bw) in [(NodeId(1), 0.0, 1.0), (NodeId(2), 100.0, 4.0)] {
            registry
                .register_join(member, SimTime::from_secs(join), &[NodeId(90), NodeId(91)])
                .unwrap();
            registry
                .record_bandwidth(member, &[bw], &[NodeId(92), NodeId(93)])
                .unwrap();
        }
        (tree, protocol, registry)
    }

    #[test]
    fn honest_claim_switches() {
        let (mut tree, mut protocol, registry) = setup();
        let now = SimTime::from_secs(500.0);
        let claim = ResourceClaim::honest(&tree, NodeId(2), now).unwrap();
        let outcome = attempt_audited(
            &mut protocol,
            &registry,
            &mut tree,
            NodeId(2),
            claim,
            now,
            |_| true,
        );
        match outcome {
            AuditedOutcome::Proceeded(SwitchOutcome::Switched { op, .. }) => {
                protocol.release(op);
            }
            other => panic!("expected a switch, got {other:?}"),
        }
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(0)));
    }

    #[test]
    fn inflated_bandwidth_refused() {
        let (mut tree, mut protocol, registry) = setup();
        // Node 2 at t=150 has BTP 200 < node 1's 150... actually 4·50=200
        // vs 1·150=150 — eligible. Instead test a node lying 10×.
        let now = SimTime::from_secs(150.0);
        let claim = ResourceClaim {
            bandwidth: 40.0,
            age_secs: 50.0,
        };
        let outcome = attempt_audited(
            &mut protocol,
            &registry,
            &mut tree,
            NodeId(2),
            claim,
            now,
            |_| true,
        );
        assert_eq!(
            outcome,
            AuditedOutcome::Refused(AuditRefusal::BandwidthRejected)
        );
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(1)), "tree untouched");
    }

    #[test]
    fn inflated_age_refused() {
        let (mut tree, mut protocol, registry) = setup();
        let now = SimTime::from_secs(150.0);
        let claim = ResourceClaim {
            bandwidth: 4.0,
            age_secs: 5_000.0, // true age is 50 s
        };
        let outcome = attempt_audited(
            &mut protocol,
            &registry,
            &mut tree,
            NodeId(2),
            claim,
            now,
            |_| true,
        );
        assert_eq!(outcome, AuditedOutcome::Refused(AuditRefusal::AgeRejected));
    }

    #[test]
    fn cheater_cannot_climb_early_with_honest_looking_claim() {
        // The subtle attack: claim values the referees WILL vouch for but
        // pretend the condition holds. The audit recomputes the condition
        // from witnessed values, so an early (not yet eligible) member is
        // refused even with a "valid" claim.
        let (mut tree, mut protocol, registry) = setup();
        let now = SimTime::from_secs(110.0); // node 2's BTP 40 < node 1's 110
        let claim = ResourceClaim::honest(&tree, NodeId(2), now).unwrap();
        let outcome = attempt_audited(
            &mut protocol,
            &registry,
            &mut tree,
            NodeId(2),
            claim,
            now,
            |_| true,
        );
        assert_eq!(
            outcome,
            AuditedOutcome::Refused(AuditRefusal::ConditionNotMet)
        );
    }

    #[test]
    fn unverifiable_members_are_refused() {
        let (mut tree, mut protocol, registry) = setup();
        let now = SimTime::from_secs(500.0);
        let claim = ResourceClaim::honest(&tree, NodeId(2), now).unwrap();
        // All referees dead.
        let outcome = attempt_audited(
            &mut protocol,
            &registry,
            &mut tree,
            NodeId(2),
            claim,
            now,
            |_| false,
        );
        assert_eq!(outcome, AuditedOutcome::Refused(AuditRefusal::Unverifiable));
    }

    #[test]
    fn unregistered_member_is_unverifiable() {
        let (mut tree, mut protocol, _) = setup();
        let empty = RefereeRegistry::new();
        let now = SimTime::from_secs(500.0);
        let claim = ResourceClaim::honest(&tree, NodeId(2), now).unwrap();
        let outcome = attempt_audited(
            &mut protocol,
            &empty,
            &mut tree,
            NodeId(2),
            claim,
            now,
            |_| true,
        );
        assert_eq!(outcome, AuditedOutcome::Refused(AuditRefusal::Unverifiable));
    }

    #[test]
    fn claim_btp_matches_product() {
        let claim = ResourceClaim {
            bandwidth: 2.5,
            age_secs: 100.0,
        };
        assert_eq!(claim.btp(), Btp::new(250.0));
        let negative = ResourceClaim {
            bandwidth: 1.0,
            age_secs: -5.0,
        };
        assert_eq!(negative.btp(), Btp::ZERO);
    }
}
