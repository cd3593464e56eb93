//! Failure injection on the referee mechanism (§3.4): referees are
//! maintained across continuous churn, verification stays truthful, and
//! audited switching keeps cheaters down while honest members climb.

use rom::overlay::{Location, MemberProfile, MulticastTree, NodeId};
use rom::rost::{
    attempt_audited, AuditRefusal, AuditedOutcome, RefereeRegistry, ResourceClaim, RostConfig,
    SwitchOutcome, SwitchingProtocol, Verification,
};
use rom::sim::{SimRng, SimTime};
use std::collections::HashSet;

struct RefereedOverlay {
    tree: MulticastTree,
    registry: RefereeRegistry,
    live: HashSet<NodeId>,
    rng: SimRng,
}

impl RefereedOverlay {
    fn new(seed: u64) -> Self {
        // A low-degree source (capacity 3) so the overlay actually grows
        // deep enough to exercise switching; the paper's capacity-100
        // source would absorb these small test populations at depth 1.
        let source = MemberProfile::new(NodeId(0), 3.0, SimTime::ZERO, 1e12, Location(0));
        let tree = MulticastTree::new(source);
        let mut live = HashSet::new();
        live.insert(NodeId(0));
        RefereedOverlay {
            tree,
            registry: RefereeRegistry::new(2, 2, 5.0),
            live,
            rng: SimRng::seed_from(seed),
        }
    }

    /// Joins a member under the shallowest free parent; the parent
    /// appoints referees from the current membership, and the measurer
    /// set records the member's true bandwidth.
    fn join(&mut self, id: u64, bandwidth: f64, now: SimTime) {
        let profile = MemberProfile::new(NodeId(id), bandwidth, now, 1e9, Location(id as u32));
        let parent = self
            .tree
            .attached_by_depth()
            .find(|&p| self.tree.has_free_slot(p))
            .expect("capacity available");
        self.tree.attach(profile, parent).unwrap();
        self.live.insert(NodeId(id));

        let mut candidates: Vec<NodeId> = self
            .live
            .iter()
            .copied()
            .filter(|&m| m != NodeId(id))
            .collect();
        candidates.sort();
        // Bootstrap: while the overlay is tiny the source doubles as a
        // referee so the r > 1 redundancy requirement can be met.
        while candidates.len() < 2 {
            candidates.push(NodeId(0));
        }
        let age_refs = self.rng.sample(&candidates, 2);
        let bw_refs = self.rng.sample(&candidates, 2);
        self.registry
            .register_join(NodeId(id), now, &age_refs)
            .unwrap();
        // The measurer set observes the member's *actual* outbound rate,
        // split across three measurers.
        let partials = [bandwidth * 0.4, bandwidth * 0.35, bandwidth * 0.25];
        self.registry
            .record_bandwidth(NodeId(id), &partials, &bw_refs)
            .unwrap();
    }

    /// A member departs; its referee duties are re-assigned from
    /// survivors wherever possible.
    fn depart(&mut self, id: NodeId) {
        self.live.remove(&id);
        if self.tree.contains(id) && id != self.tree.root() {
            let removed = self.tree.remove(id).unwrap();
            // Reattach orphans at the shallowest free slots (min-depth).
            for orphan in removed.orphaned_children {
                let parent = self
                    .tree
                    .attached_by_depth()
                    .find(|&p| self.tree.has_free_slot(p))
                    .expect("capacity available");
                self.tree.reattach(orphan, parent).unwrap();
            }
        }
        self.registry.forget(id);
        // Every member that used `id` as a referee replaces it.
        let members: Vec<NodeId> = self.live.iter().copied().collect();
        for &m in &members {
            let age_refs = self.registry.age_referees_of(m);
            if age_refs.contains(&id) {
                let replacement = self.fresh_referee(m, id, &age_refs);
                self.registry
                    .replace_age_referee(m, id, replacement)
                    .unwrap();
            }
            let bw_refs = self.registry.bandwidth_referees_of(m);
            if bw_refs.contains(&id) {
                let replacement = self.fresh_referee(m, id, &bw_refs);
                self.registry
                    .replace_bandwidth_referee(m, id, replacement)
                    .unwrap();
            }
        }
    }

    /// Picks a live replacement that is neither the subject, the failed
    /// referee, nor one of the subject's current referees (a duplicate
    /// would silently collapse the redundancy the mechanism exists for).
    fn fresh_referee(&mut self, subject: NodeId, failed: NodeId, current: &[NodeId]) -> NodeId {
        let mut candidates: Vec<NodeId> = self
            .live
            .iter()
            .copied()
            .filter(|&m| m != subject && m != failed && !current.contains(&m))
            .collect();
        candidates.sort();
        *self.rng.choose(&candidates).expect("members remain")
    }

    fn is_live(&self) -> impl Fn(NodeId) -> bool + Copy + '_ {
        move |n| self.live.contains(&n)
    }
}

/// Referee records survive waves of churn: every live member's honest
/// claims keep verifying, at every step.
#[test]
fn verification_survives_referee_churn() {
    let mut overlay = RefereedOverlay::new(1);
    // Build up 30 members.
    for id in 1..=30u64 {
        overlay.join(id, 1.0 + (id % 5) as f64, SimTime::from_secs(id as f64));
    }
    // Waves: remove one, add one, re-verify everyone.
    for wave in 0..15u64 {
        let victim = NodeId(1 + (wave * 2) % 30);
        if overlay.live.contains(&victim) {
            overlay.depart(victim);
        }
        let new_id = 100 + wave;
        let now = SimTime::from_secs(100.0 + wave as f64 * 10.0);
        overlay.join(new_id, 2.0, now);

        let check_time = SimTime::from_secs(400.0);
        let mut live: Vec<NodeId> = overlay.live.iter().copied().collect();
        live.sort();
        for &m in live.iter().filter(|&&m| m != NodeId(0)) {
            let profile = overlay.tree.profile(m).expect("live member in tree");
            let age = profile.age(check_time);
            let is_live = overlay.is_live();
            assert!(
                matches!(
                    overlay.registry.verify_age(m, age, check_time, is_live),
                    Verification::Confirmed { .. }
                ),
                "wave {wave}: honest age claim of {m} must verify"
            );
            assert!(
                matches!(
                    overlay
                        .registry
                        .verify_bandwidth(m, profile.bandwidth, is_live),
                    Verification::Confirmed { .. }
                ),
                "wave {wave}: honest bandwidth claim of {m} must verify"
            );
            // Inflation is still caught after all that churn.
            assert!(!matches!(
                overlay
                    .registry
                    .verify_bandwidth(m, profile.bandwidth * 10.0 + 5.0, is_live),
                Verification::Confirmed { .. }
            ));
        }
    }
}

/// Audited switching over a churned, refereed overlay: honest eligible
/// members get promoted; a cheater with inflated claims is refused every
/// single time.
#[test]
fn audited_switching_over_churned_overlay() {
    let mut overlay = RefereedOverlay::new(2);
    for id in 1..=20u64 {
        overlay.join(
            id,
            1.0 + (id % 4) as f64,
            SimTime::from_secs(id as f64 * 5.0),
        );
    }
    let mut protocol = SwitchingProtocol::new(RostConfig::paper());
    let now = SimTime::from_secs(5_000.0);

    let members: Vec<NodeId> = overlay.tree.attached_by_depth().collect();
    let mut promotions = 0;
    let mut refusals = 0;
    for &m in members.iter().filter(|&&m| m != NodeId(0)) {
        // Honest claim first.
        let claim = ResourceClaim::honest(&overlay.tree, m, now).unwrap();
        let registry = overlay.registry.clone();
        let live = overlay.live.clone();
        match attempt_audited(
            &mut protocol,
            &registry,
            &mut overlay.tree,
            m,
            claim,
            now,
            |n| live.contains(&n),
        ) {
            AuditedOutcome::Proceeded(SwitchOutcome::Switched { op, .. }) => {
                protocol.release(op);
                promotions += 1;
                overlay.tree.check_invariants().unwrap();
            }
            AuditedOutcome::Proceeded(_) | AuditedOutcome::Refused(_) => {}
        }

        // A 100× inflated claim is always rejected, never mutating the
        // tree.
        let inflated = ResourceClaim {
            bandwidth: claim.bandwidth * 100.0,
            age_secs: claim.age_secs * 100.0,
        };
        match attempt_audited(
            &mut protocol,
            &registry,
            &mut overlay.tree,
            m,
            inflated,
            now,
            |n| live.contains(&n),
        ) {
            AuditedOutcome::Refused(
                AuditRefusal::BandwidthRejected | AuditRefusal::AgeRejected,
            ) => refusals += 1,
            other => panic!("inflated claim must be caught, got {other:?}"),
        }
    }
    assert!(promotions > 0, "some honest inversions should resolve");
    assert_eq!(refusals as usize, members.len() - 1, "every cheat caught");
}
