//! The invariant layer: cross-cutting runtime checkers evaluated during
//! event dispatch.
//!
//! An [`Invariant`] sees two kinds of input: *signals* — semantic
//! notifications the engine emits at protocol-relevant moments (a
//! failure's recovery scope, a rejoin being scheduled or completing, an
//! MLC recovery group being chosen) — and *events* — a post-dispatch
//! hook with the tree state after every simulation event. Checkers keep
//! whatever state they need between calls and report [`Violation`]s,
//! which the [`InvariantRegistry`] collects, counts in metrics and
//! emits as `Warn`-level trace events.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rom_obs::{Level, Obs, Subsystem, TraceEvent};
use rom_overlay::{MulticastTree, NodeId};
use rom_sim::SimTime;

/// Why a member was scheduled to rejoin the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejoinCause {
    /// Its parent failed abruptly (it is an orphan subtree root).
    Failure,
    /// It was evicted by a replacement/usurp placement.
    Eviction,
    /// It was displaced by a ROST switch.
    Switch,
    /// Its parent left gracefully and handed it off.
    Graceful,
}

impl RejoinCause {
    /// Stable lowercase name for traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RejoinCause::Failure => "failure",
            RejoinCause::Eviction => "eviction",
            RejoinCause::Switch => "switch",
            RejoinCause::Graceful => "graceful",
        }
    }
}

/// A semantic notification from the engine to the invariant layer.
#[derive(Debug, Clone, Copy)]
pub enum Signal<'a> {
    /// A member failed abruptly. `rejoining` are its orphaned children
    /// (the only members that initiate recovery); `affected` is every
    /// descendant — those deeper than the children are ELN-suppressed
    /// and must *not* initiate their own recovery for this loss.
    FailureScope {
        /// The failed member.
        failed: NodeId,
        /// Orphan subtree roots that will rejoin.
        rejoining: &'a [NodeId],
        /// Every affected descendant (children included).
        affected: &'a [NodeId],
    },
    /// The engine queued `members` for a rejoin attempt.
    RejoinScheduled {
        /// Members with a pending recovery.
        members: &'a [NodeId],
        /// Why they need one.
        cause: RejoinCause,
    },
    /// A member's rejoin attempt is starting.
    RecoveryStart {
        /// The recovering member.
        member: NodeId,
    },
    /// A member's rejoin attempt succeeded; it is attached again.
    Reattached {
        /// The reattached member.
        member: NodeId,
    },
    /// Streaming recovery chose an MLC/random recovery group for a
    /// member that just reattached.
    RecoveryGroupChosen {
        /// The repaired member.
        member: NodeId,
        /// The chosen recovery-group members.
        group: &'a [NodeId],
    },
}

/// One observed violation of a registered invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the invariant that tripped.
    pub invariant: &'static str,
    /// Simulation time of the observation (seconds).
    pub time: f64,
    /// The member at fault, when one is identifiable.
    pub subject: Option<NodeId>,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl Violation {
    fn new(
        invariant: &'static str,
        now: SimTime,
        subject: Option<NodeId>,
        detail: impl Into<String>,
    ) -> Self {
        Violation {
            invariant,
            time: now.as_secs(),
            subject,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={:.3}] {}: {}", self.time, self.invariant, self.detail)
    }
}

/// A cross-cutting runtime checker.
///
/// Both hooks default to no-ops so an invariant implements only the side
/// it cares about. Checkers must be deterministic: same inputs in the
/// same order, same violations. Invariants are `Send` so a fully-armed
/// simulator can run on a sweep worker thread.
pub trait Invariant: fmt::Debug + Send {
    /// Stable name, used in reports and trace events.
    fn name(&self) -> &'static str;

    /// Reacts to a semantic engine signal.
    fn on_signal(
        &mut self,
        _tree: &MulticastTree,
        _now: SimTime,
        _signal: &Signal<'_>,
    ) -> Vec<Violation> {
        Vec::new()
    }

    /// Inspects the tree after an event was dispatched.
    fn on_event(&mut self, _tree: &MulticastTree, _now: SimTime) -> Vec<Violation> {
        Vec::new()
    }
}

/// Holds the armed invariants and everything they have found.
///
/// The registry is threaded through the engine's dispatch loop: the
/// engine calls [`signal`](Self::signal) at protocol-relevant moments
/// and [`after_event`](Self::after_event) once per dispatched event.
/// Every violation is recorded here, counted under the
/// `chaos.violations` metric and emitted as a `Warn` trace event under
/// [`Subsystem::Chaos`]. The default registry arms nothing.
#[derive(Debug, Default)]
pub struct InvariantRegistry {
    invariants: Vec<Box<dyn Invariant>>,
    violations: Vec<Violation>,
}

impl InvariantRegistry {
    /// A registry armed with every built-in invariant.
    #[must_use]
    pub fn with_all() -> Self {
        let mut registry = InvariantRegistry::default();
        registry.register(Box::new(TreeStructure));
        registry.register(Box::new(DegreeBudget));
        registry.register(Box::new(BtpMonotonic::default()));
        registry.register(Box::new(ElnNoDuplicateRecovery::default()));
        registry.register(Box::new(RecoveryGroupConsistent));
        registry.register(Box::new(CausalScheduling::default()));
        registry
    }

    /// Arms one more invariant.
    pub fn register(&mut self, invariant: Box<dyn Invariant>) {
        self.invariants.push(invariant);
    }

    /// Number of armed invariants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// True if no invariant is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Names of the armed invariants, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.invariants.iter().map(|i| i.name()).collect()
    }

    /// Feeds a semantic signal to every invariant.
    pub fn signal(
        &mut self,
        tree: &MulticastTree,
        now: SimTime,
        signal: &Signal<'_>,
        obs: &mut Obs,
    ) {
        for invariant in &mut self.invariants {
            let found = invariant.on_signal(tree, now, signal);
            record(&mut self.violations, found, obs);
        }
    }

    /// Runs the post-dispatch tree checks.
    pub fn after_event(&mut self, tree: &MulticastTree, now: SimTime, obs: &mut Obs) {
        for invariant in &mut self.invariants {
            let found = invariant.on_event(tree, now);
            record(&mut self.violations, found, obs);
        }
    }

    /// Everything found so far, in discovery order.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True if nothing has been found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn record(sink: &mut Vec<Violation>, found: Vec<Violation>, obs: &mut Obs) {
    for violation in found {
        obs.count("chaos.violations", 1);
        if obs.is_active() {
            let mut event = TraceEvent::new(violation.time, Subsystem::Chaos, "invariant_violation")
                .level(Level::Warn)
                .str("invariant", violation.invariant);
            if let Some(subject) = violation.subject {
                event = event.u64("subject", subject.0);
            }
            obs.emit(event);
        }
        sink.push(violation);
    }
}

/// Tree acyclicity, single-parent pointer symmetry, depth consistency —
/// delegated to [`MulticastTree::check_invariants`], which verifies the
/// whole structural story (BFS reachability doubles as the acyclicity
/// proof).
#[derive(Debug, Default, Clone, Copy)]
pub struct TreeStructure;

impl Invariant for TreeStructure {
    fn name(&self) -> &'static str {
        "tree-structure"
    }

    fn on_event(&mut self, tree: &MulticastTree, now: SimTime) -> Vec<Violation> {
        match tree.check_invariants() {
            Ok(()) => Vec::new(),
            Err(e) => vec![Violation::new(self.name(), now, None, e.to_string())],
        }
    }
}

/// Out-degree never exceeds the bandwidth budget: every member serves at
/// most `⌊bandwidth⌋` children (bandwidth in stream-rate units).
#[derive(Debug, Default, Clone, Copy)]
pub struct DegreeBudget;

impl Invariant for DegreeBudget {
    fn name(&self) -> &'static str {
        "degree-budget"
    }

    fn on_event(&mut self, tree: &MulticastTree, now: SimTime) -> Vec<Violation> {
        let mut found = Vec::new();
        for (id, ix) in tree.member_entries() {
            let degree = tree.child_count_ix(ix);
            let capacity = tree.capacity_ix(ix);
            if degree > capacity {
                found.push(Violation::new(
                    self.name(),
                    now,
                    Some(id),
                    format!("member {id} serves {degree} children with capacity {capacity}"),
                ));
            }
        }
        found
    }
}

/// BTP monotonicity between switches: a member's bandwidth-time product
/// only grows with age, so between two observations it may never shrink
/// — unless the member's bandwidth itself was changed (the degradation
/// injector does exactly that, legitimately resetting the slope).
#[derive(Debug, Default)]
pub struct BtpMonotonic {
    /// Per member: (bandwidth bits, last observed BTP).
    last: BTreeMap<NodeId, (u64, f64)>,
}

impl Invariant for BtpMonotonic {
    fn name(&self) -> &'static str {
        "btp-monotonic"
    }

    fn on_event(&mut self, tree: &MulticastTree, now: SimTime) -> Vec<Violation> {
        let mut found = Vec::new();
        self.last.retain(|id, _| tree.contains(*id));
        for id in tree.member_ids() {
            let Some(profile) = tree.profile(id) else {
                continue;
            };
            let btp = profile.btp(now);
            let bandwidth_bits = profile.bandwidth.to_bits();
            if let Some(&(prev_bits, prev_btp)) = self.last.get(&id) {
                if prev_bits == bandwidth_bits && btp < prev_btp {
                    found.push(Violation::new(
                        self.name(),
                        now,
                        Some(id),
                        format!("member {id} BTP fell from {prev_btp:.3} to {btp:.3}"),
                    ));
                }
            }
            self.last.insert(id, (bandwidth_bits, btp));
        }
        found
    }
}

/// ELN implies no duplicate recovery for one loss: only members with a
/// pending recovery cause (an orphaned child of a failure, an evictee, a
/// displaced switcher, a graceful hand-off) may start a rejoin; deeper
/// descendants of a failure are ELN-suppressed and must stay passive
/// until a cause of their own arrives.
#[derive(Debug, Default)]
pub struct ElnNoDuplicateRecovery {
    /// Members with an open recovery "ticket".
    open: BTreeSet<NodeId>,
    /// Members currently ELN-suppressed (affected but not rejoining).
    suppressed: BTreeSet<NodeId>,
}

impl Invariant for ElnNoDuplicateRecovery {
    fn name(&self) -> &'static str {
        "eln-no-duplicate-recovery"
    }

    fn on_signal(
        &mut self,
        _tree: &MulticastTree,
        now: SimTime,
        signal: &Signal<'_>,
    ) -> Vec<Violation> {
        match *signal {
            Signal::FailureScope {
                rejoining,
                affected,
                ..
            } => {
                for &m in rejoining {
                    self.suppressed.remove(&m);
                    self.open.insert(m);
                }
                for &m in affected {
                    if !rejoining.contains(&m) && !self.open.contains(&m) {
                        self.suppressed.insert(m);
                    }
                }
                Vec::new()
            }
            Signal::RejoinScheduled { members, .. } => {
                for &m in members {
                    self.suppressed.remove(&m);
                    self.open.insert(m);
                }
                Vec::new()
            }
            Signal::RecoveryStart { member } => {
                if self.open.contains(&member) {
                    return Vec::new();
                }
                let detail = if self.suppressed.contains(&member) {
                    format!("ELN-suppressed member {member} started a duplicate recovery")
                } else {
                    format!("member {member} started recovery with no pending loss")
                };
                vec![Violation::new(self.name(), now, Some(member), detail)]
            }
            Signal::Reattached { member } => {
                self.open.remove(&member);
                self.suppressed.remove(&member);
                Vec::new()
            }
            Signal::RecoveryGroupChosen { .. } => Vec::new(),
        }
    }
}

/// MLC recovery-group membership stays consistent with the tree: group
/// members are distinct, attached, and never the repaired member itself
/// or one of its ancestors (those lost the same packets).
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryGroupConsistent;

impl Invariant for RecoveryGroupConsistent {
    fn name(&self) -> &'static str {
        "recovery-group-consistent"
    }

    fn on_signal(
        &mut self,
        tree: &MulticastTree,
        now: SimTime,
        signal: &Signal<'_>,
    ) -> Vec<Violation> {
        let Signal::RecoveryGroupChosen { member, group } = *signal else {
            return Vec::new();
        };
        let mut found = Vec::new();
        if !tree.is_attached(member) {
            found.push(Violation::new(
                self.name(),
                now,
                Some(member),
                format!("recovery group chosen for detached member {member}"),
            ));
            return found;
        }
        let distinct: BTreeSet<NodeId> = group.iter().copied().collect();
        if distinct.len() != group.len() {
            found.push(Violation::new(
                self.name(),
                now,
                Some(member),
                format!("recovery group for {member} contains duplicates: {group:?}"),
            ));
        }
        let ancestors = tree.ancestors(member);
        for &g in group {
            if g == member {
                found.push(Violation::new(
                    self.name(),
                    now,
                    Some(member),
                    format!("member {member} is in its own recovery group"),
                ));
            } else if !tree.is_attached(g) {
                found.push(Violation::new(
                    self.name(),
                    now,
                    Some(g),
                    format!("recovery-group member {g} is not attached"),
                ));
            } else if ancestors.contains(&g) {
                found.push(Violation::new(
                    self.name(),
                    now,
                    Some(g),
                    format!("recovery-group member {g} is an ancestor of {member}"),
                ));
            }
        }
        found
    }
}

/// No event is dispatched in the past: observed dispatch times are
/// monotonically non-decreasing. (The kernel's `schedule` additionally
/// asserts nothing is *scheduled* before `now`; this checker catches any
/// path that would sidestep it.)
#[derive(Debug)]
pub struct CausalScheduling {
    last: f64,
}

impl Default for CausalScheduling {
    fn default() -> Self {
        CausalScheduling {
            last: f64::NEG_INFINITY,
        }
    }
}

impl Invariant for CausalScheduling {
    fn name(&self) -> &'static str {
        "causal-scheduling"
    }

    fn on_event(&mut self, _tree: &MulticastTree, now: SimTime) -> Vec<Violation> {
        let t = now.as_secs();
        if t < self.last {
            let detail = format!("event dispatched at t={t:.6} after t={:.6}", self.last);
            self.last = t;
            return vec![Violation::new(self.name(), now, None, detail)];
        }
        self.last = t;
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rom_overlay::{paper_source, Location, MemberProfile};

    fn small_tree() -> MulticastTree {
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        for i in 1..=4u64 {
            let profile = MemberProfile::new(NodeId(i), 4.0, SimTime::ZERO, 1e6, Location(0));
            tree.attach(profile, tree.root()).expect("attach");
        }
        tree
    }

    #[test]
    fn with_all_arms_six_and_starts_clean() {
        let registry = InvariantRegistry::with_all();
        assert_eq!(registry.len(), 6);
        assert!(registry.is_clean());
        assert_eq!(
            registry.names(),
            vec![
                "tree-structure",
                "degree-budget",
                "btp-monotonic",
                "eln-no-duplicate-recovery",
                "recovery-group-consistent",
                "causal-scheduling",
            ]
        );
    }

    #[test]
    fn clean_tree_passes_every_event_check() {
        let tree = small_tree();
        let mut registry = InvariantRegistry::with_all();
        let mut obs = Obs::enabled();
        for step in 1..=5 {
            registry.after_event(&tree, SimTime::from_secs(step as f64), &mut obs);
        }
        assert!(registry.is_clean(), "{:?}", registry.violations());
        assert_eq!(obs.snapshot().counter("chaos.violations"), 0);
    }

    #[test]
    fn recovery_without_cause_is_flagged() {
        let tree = small_tree();
        let mut registry = InvariantRegistry::with_all();
        let mut obs = Obs::enabled();
        let now = SimTime::from_secs(10.0);
        registry.signal(&tree, now, &Signal::RecoveryStart { member: NodeId(3) }, &mut obs);
        assert_eq!(registry.violations().len(), 1);
        assert_eq!(registry.violations()[0].invariant, "eln-no-duplicate-recovery");
        assert_eq!(obs.snapshot().counter("chaos.violations"), 1);
    }

    #[test]
    fn eln_suppressed_descendant_is_a_duplicate_recovery() {
        let tree = small_tree();
        let mut inv = ElnNoDuplicateRecovery::default();
        let now = SimTime::from_secs(5.0);
        // Failure of some member: child 2 rejoins, descendant 3 is
        // suppressed.
        let scope = Signal::FailureScope {
            failed: NodeId(9),
            rejoining: &[NodeId(2)],
            affected: &[NodeId(2), NodeId(3)],
        };
        assert!(inv.on_signal(&tree, now, &scope).is_empty());
        // The rejoining child may recover (repeatedly — retries are one
        // open ticket).
        let start = Signal::RecoveryStart { member: NodeId(2) };
        assert!(inv.on_signal(&tree, now, &start).is_empty());
        assert!(inv.on_signal(&tree, now, &start).is_empty());
        // The suppressed descendant may not.
        let dup = inv.on_signal(&tree, now, &Signal::RecoveryStart { member: NodeId(3) });
        assert_eq!(dup.len(), 1);
        assert!(dup[0].detail.contains("duplicate"));
        // Once reattached, the ticket closes; a fresh start is again a
        // violation.
        assert!(inv
            .on_signal(&tree, now, &Signal::Reattached { member: NodeId(2) })
            .is_empty());
        let stale = inv.on_signal(&tree, now, &Signal::RecoveryStart { member: NodeId(2) });
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn suppression_lifts_when_a_cause_of_its_own_arrives() {
        let tree = small_tree();
        let mut inv = ElnNoDuplicateRecovery::default();
        let now = SimTime::from_secs(5.0);
        let scope = Signal::FailureScope {
            failed: NodeId(9),
            rejoining: &[NodeId(2)],
            affected: &[NodeId(2), NodeId(3)],
        };
        assert!(inv.on_signal(&tree, now, &scope).is_empty());
        // Node 3's own parent later fails: it becomes a legitimate
        // recoverer.
        let own = Signal::RejoinScheduled {
            members: &[NodeId(3)],
            cause: RejoinCause::Failure,
        };
        assert!(inv.on_signal(&tree, now, &own).is_empty());
        assert!(inv
            .on_signal(&tree, now, &Signal::RecoveryStart { member: NodeId(3) })
            .is_empty());
    }

    #[test]
    fn recovery_group_checks_membership_against_tree() {
        let tree = small_tree();
        let mut inv = RecoveryGroupConsistent;
        let now = SimTime::from_secs(1.0);
        // Clean group: attached siblings.
        let ok = Signal::RecoveryGroupChosen {
            member: NodeId(1),
            group: &[NodeId(2), NodeId(3)],
        };
        assert!(inv.on_signal(&tree, now, &ok).is_empty());
        // Self, duplicate, unknown and ancestor members all trip it.
        let bad = Signal::RecoveryGroupChosen {
            member: NodeId(1),
            group: &[NodeId(1), NodeId(2), NodeId(2), NodeId(99), tree.root()],
        };
        let found = inv.on_signal(&tree, now, &bad);
        assert!(found.len() >= 3, "{found:?}");
    }

    #[test]
    fn causal_scheduling_flags_time_reversal() {
        let tree = small_tree();
        let mut inv = CausalScheduling::default();
        assert!(inv.on_event(&tree, SimTime::from_secs(5.0)).is_empty());
        assert!(inv.on_event(&tree, SimTime::from_secs(5.0)).is_empty());
        let found = inv.on_event(&tree, SimTime::from_secs(4.0));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].invariant, "causal-scheduling");
    }

    #[test]
    fn btp_monotonic_tolerates_bandwidth_change() {
        let mut tree = small_tree();
        let mut inv = BtpMonotonic::default();
        assert!(inv.on_event(&tree, SimTime::from_secs(10.0)).is_empty());
        assert!(inv.on_event(&tree, SimTime::from_secs(20.0)).is_empty());
        // Degrade one member's bandwidth: BTP drops, but because the
        // bandwidth changed the checker accepts the new baseline.
        let orphans = tree.set_bandwidth(NodeId(1), 1.0).expect("member exists");
        assert!(orphans.is_empty());
        assert!(inv.on_event(&tree, SimTime::from_secs(21.0)).is_empty());
        assert!(inv.on_event(&tree, SimTime::from_secs(30.0)).is_empty());
    }
}
