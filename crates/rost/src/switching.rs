//! The BTP-based switching protocol (§3.3).
//!
//! Every switching interval a member compares its BTP with its parent's.
//! "If its BTP exceeds that of its parent, and its bandwidth is no less
//! than the parent's bandwidth, then the switching operation is triggered.
//! The bandwidth comparing avoids unnecessary switching since if the child
//! has a smaller bandwidth, the BTP will eventually be exceeded by the
//! parent, and it will ultimately be placed below the parent."
//!
//! The operation locks the parent, grandparent, children and siblings; on
//! contention the member backs off for [`RostConfig::lock_retry_secs`] and
//! tries again.

use rom_overlay::{MulticastTree, NodeId, SwitchRecord};
use rom_sim::SimTime;

use crate::btp::Btp;
use crate::config::RostConfig;
use crate::locks::{LockTable, OpId};

/// Result of one switching attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchOutcome {
    /// The switch happened; the record carries the reconnection counts and
    /// the operation still holds its locks (release after
    /// [`RostConfig::lock_hold_secs`]).
    Switched {
        /// The tree surgery record.
        record: SwitchRecord,
        /// The lock-holding operation to release later.
        op: OpId,
    },
    /// The BTP/bandwidth condition does not hold — check again next
    /// interval.
    NotEligible,
    /// Some node in the lock set is busy with another operation — retry
    /// after the configured back-off.
    Busy,
}

/// Lifetime outcome counters for one [`SwitchingProtocol`], broken down
/// by [`SwitchOutcome`] variant. `attempts` is always the sum of the
/// other three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Total calls to [`SwitchingProtocol::attempt`].
    pub attempts: u64,
    /// Attempts that promoted the child ([`SwitchOutcome::Switched`]).
    pub switched: u64,
    /// Attempts refused by lock contention ([`SwitchOutcome::Busy`]).
    pub busy: u64,
    /// Attempts failing the §3.3 condition
    /// ([`SwitchOutcome::NotEligible`]).
    pub not_eligible: u64,
}

/// Driver state for ROST switching over one tree.
///
/// # Examples
///
/// ```
/// use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId, paper_source};
/// use rom_rost::{RostConfig, SwitchOutcome, SwitchingProtocol};
/// use rom_sim::SimTime;
///
/// let mut tree = MulticastTree::new(paper_source(Location(0)));
/// // A weak early parent and a strong late child.
/// let weak = MemberProfile::new(NodeId(1), 1.0, SimTime::ZERO, 1e6, Location(1));
/// let strong = MemberProfile::new(NodeId(2), 5.0, SimTime::from_secs(60.0), 1e6, Location(2));
/// tree.attach(weak, NodeId::SOURCE)?;
/// tree.attach(strong, NodeId(1))?;
///
/// let mut rost = SwitchingProtocol::new(RostConfig::paper());
/// // Early on the child's BTP is still smaller.
/// assert_eq!(rost.attempt(&mut tree, NodeId(2), SimTime::from_secs(70.0)), SwitchOutcome::NotEligible);
/// // Five minutes later it has overtaken: 5·(t−60) > 1·t for t > 75.
/// match rost.attempt(&mut tree, NodeId(2), SimTime::from_secs(400.0)) {
///     SwitchOutcome::Switched { op, .. } => rost.release(op),
///     other => panic!("expected a switch, got {other:?}"),
/// }
/// assert_eq!(tree.parent(NodeId(2)), Some(NodeId::SOURCE));
/// assert_eq!(tree.parent(NodeId(1)), Some(NodeId(2)));
/// # Ok::<(), rom_overlay::TreeError>(())
/// ```
#[derive(Debug)]
pub struct SwitchingProtocol {
    config: RostConfig,
    locks: LockTable,
    next_op: u64,
    stats: SwitchStats,
    /// Reusable lock-set buffer: one switching attempt per event makes
    /// this the hottest allocation in the ROST loop, so it is kept warm
    /// across attempts.
    lock_buf: Vec<NodeId>,
}

impl SwitchingProtocol {
    /// Creates a driver with the given configuration.
    #[must_use]
    pub fn new(config: RostConfig) -> Self {
        SwitchingProtocol {
            config,
            locks: LockTable::new(),
            next_op: 0,
            stats: SwitchStats::default(),
            lock_buf: Vec::new(),
        }
    }

    /// Lifetime counters over every [`attempt`](Self::attempt) outcome.
    #[must_use]
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Access to the lock table, so the engine can also lock nodes engaged
    /// in failure recovery (the paper treats recovery as a competing
    /// locker).
    pub fn locks_mut(&mut self) -> &mut LockTable {
        &mut self.locks
    }

    /// Read-only view of the lock table.
    #[must_use]
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Allocates a fresh operation id (also used by the engine for
    /// recovery locks).
    pub fn allocate_op(&mut self) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        op
    }

    /// The §3.3 switching condition: BTP strictly exceeds the parent's and
    /// bandwidth is no less than the parent's. False for detached members,
    /// children of the source, and unknown ids.
    #[must_use]
    pub fn eligible(tree: &MulticastTree, node: NodeId, now: SimTime) -> bool {
        Self::eligible_with(tree, node, now, true)
    }

    /// Like [`eligible`](Self::eligible), optionally skipping the
    /// bandwidth guard (ablation; see
    /// [`RostConfig::without_bandwidth_guard`]).
    #[must_use]
    pub fn eligible_with(
        tree: &MulticastTree,
        node: NodeId,
        now: SimTime,
        bandwidth_guard: bool,
    ) -> bool {
        // Intern once: the whole check then runs on arena indices with a
        // single id→index lookup instead of one per accessor.
        let Some(ix) = tree.index_of(node) else {
            return false;
        };
        let Some(pix) = tree.parent_ix(ix) else {
            return false;
        };
        if tree.id_of(pix) == tree.root() || !tree.is_attached_ix(ix) {
            return false;
        }
        let child_profile = tree.profile_ix(ix);
        let parent_profile = tree.profile_ix(pix);
        Btp::of(child_profile, now) > Btp::of(parent_profile, now)
            && (!bandwidth_guard || child_profile.bandwidth >= parent_profile.bandwidth)
    }

    /// The nodes a switch by `node` must lock: itself, its parent,
    /// grandparent, children and siblings (§3.3).
    #[must_use]
    pub fn lock_set(tree: &MulticastTree, node: NodeId) -> Vec<NodeId> {
        let mut set = Vec::new();
        Self::lock_set_into(tree, node, &mut set);
        set
    }

    /// [`lock_set`](Self::lock_set) into a caller-owned buffer (cleared
    /// first): the per-attempt path reuses one warm buffer instead of
    /// allocating a fresh `Vec` per switching check.
    pub fn lock_set_into(tree: &MulticastTree, node: NodeId, set: &mut Vec<NodeId>) {
        set.clear();
        set.push(node);
        let Some(ix) = tree.index_of(node) else {
            return;
        };
        if let Some(pix) = tree.parent_ix(ix) {
            set.push(tree.id_of(pix));
            if let Some(gp) = tree.parent_ix(pix) {
                set.push(tree.id_of(gp));
            }
            set.extend(
                tree.children_ix(pix)
                    .iter()
                    .filter(|&&s| s != ix)
                    .map(|&s| tree.id_of(s)),
            );
        }
        set.extend(tree.children_ix(ix).iter().map(|&c| tree.id_of(c)));
    }

    /// Runs one switching check for `node` at `now`.
    ///
    /// On success the locks stay held under the returned [`OpId`]; call
    /// [`release`](Self::release) once [`RostConfig::lock_hold_secs`] have
    /// elapsed.
    pub fn attempt(
        &mut self,
        tree: &mut MulticastTree,
        node: NodeId,
        now: SimTime,
    ) -> SwitchOutcome {
        let _span = tree.prof().span("rost.attempt");
        self.stats.attempts += 1;
        if !Self::eligible_with(tree, node, now, self.config.bandwidth_guard) {
            self.stats.not_eligible += 1;
            return SwitchOutcome::NotEligible;
        }
        let locked = {
            let _locking = tree.prof().span("rost.lock_assembly");
            let mut set = std::mem::take(&mut self.lock_buf);
            Self::lock_set_into(tree, node, &mut set);
            let op = self.allocate_op();
            let locked = self.locks.try_lock_all(op, &set);
            self.lock_buf = set;
            locked.then_some(op)
        };
        let Some(op) = locked else {
            self.stats.busy += 1;
            return SwitchOutcome::Busy;
        };
        match tree.swap_with_parent(node, |p| p.btp(now)) {
            Ok(record) => {
                self.stats.switched += 1;
                SwitchOutcome::Switched { record, op }
            }
            // The capacity guard can only fire for a zero-capacity child,
            // which the bandwidth condition excludes (its parent would
            // need capacity 0 too and could never have had a child); any
            // error leaves the tree untouched, so release the locks and
            // report the node ineligible.
            Err(_) => {
                self.locks.release(op);
                self.stats.not_eligible += 1;
                SwitchOutcome::NotEligible
            }
        }
    }

    /// Releases the locks of a completed switch.
    pub fn release(&mut self, op: OpId) {
        self.locks.release(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rom_overlay::{paper_source, Location, MemberProfile};

    fn profile(id: u64, bw: f64, join_secs: f64) -> MemberProfile {
        MemberProfile::new(
            NodeId(id),
            bw,
            SimTime::from_secs(join_secs),
            1e6,
            Location(id as u32),
        )
    }

    /// root → 1 → 2, where 2 out-bandwidths 1.
    fn two_level_tree() -> MulticastTree {
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        tree.attach(profile(1, 1.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 4.0, 100.0), NodeId(1)).unwrap();
        tree
    }

    #[test]
    fn eligibility_needs_btp_and_bandwidth() {
        let tree = two_level_tree();
        // t=120: BTP(1)=120, BTP(2)=80 → not yet.
        assert!(!SwitchingProtocol::eligible(
            &tree,
            NodeId(2),
            SimTime::from_secs(120.0)
        ));
        // t=200: BTP(1)=200, BTP(2)=400 → eligible.
        assert!(SwitchingProtocol::eligible(
            &tree,
            NodeId(2),
            SimTime::from_secs(200.0)
        ));
    }

    #[test]
    fn bandwidth_guard_blocks_weaker_children() {
        // §3.3: even with a larger BTP, a smaller-bandwidth child must not
        // switch (the parent would overtake it again).
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        tree.attach(profile(1, 2.0, 500.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 1.0, 0.0), NodeId(1)).unwrap();
        // t=600: BTP(1)=200, BTP(2)=600 — BTP condition holds, bandwidth
        // does not.
        assert!(!SwitchingProtocol::eligible(
            &tree,
            NodeId(2),
            SimTime::from_secs(600.0)
        ));
    }

    #[test]
    fn children_of_source_never_switch() {
        let tree = two_level_tree();
        assert!(!SwitchingProtocol::eligible(
            &tree,
            NodeId(1),
            SimTime::from_secs(1e6)
        ));
    }

    #[test]
    fn lock_set_covers_family() {
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        tree.attach(profile(1, 2.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 4.0, 100.0), NodeId(1)).unwrap();
        tree.attach(profile(3, 0.5, 0.0), NodeId(1)).unwrap(); // sibling of 2
        tree.attach(profile(4, 0.5, 0.0), NodeId(2)).unwrap(); // child of 2
        let mut set = SwitchingProtocol::lock_set(&tree, NodeId(2));
        set.sort();
        assert_eq!(
            set,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn busy_when_family_locked() {
        let mut tree = two_level_tree();
        let mut rost = SwitchingProtocol::new(RostConfig::paper());
        let recovery = rost.allocate_op();
        assert!(rost.locks_mut().try_lock_all(recovery, &[NodeId(1)]));
        assert_eq!(
            rost.attempt(&mut tree, NodeId(2), SimTime::from_secs(500.0)),
            SwitchOutcome::Busy
        );
        // After the competing operation completes, the switch goes through.
        rost.release(recovery);
        match rost.attempt(&mut tree, NodeId(2), SimTime::from_secs(500.0)) {
            SwitchOutcome::Switched { record, op } => {
                assert_eq!(record.promoted, NodeId(2));
                // Locks held until released.
                assert!(rost.locks().is_locked(NodeId(2)));
                rost.release(op);
                assert_eq!(rost.locks().locked_count(), 0);
            }
            other => panic!("expected switch, got {other:?}"),
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(0)));
    }

    #[test]
    fn switch_overhead_is_2d_plus_1_shaped() {
        // Fig. 2's shape: parent with 2 children, child with 3.
        let mut tree = MulticastTree::new(paper_source(Location(0)));
        tree.attach(profile(1, 2.0, 0.0), NodeId(0)).unwrap();
        tree.attach(profile(2, 3.0, 10.0), NodeId(1)).unwrap();
        tree.attach(profile(3, 0.5, 0.0), NodeId(1)).unwrap();
        for i in 4..7 {
            tree.attach(profile(i, 0.5, 0.0), NodeId(2)).unwrap();
        }
        let mut rost = SwitchingProtocol::new(RostConfig::paper());
        match rost.attempt(&mut tree, NodeId(2), SimTime::from_secs(10_000.0)) {
            SwitchOutcome::Switched { record, op } => {
                assert_eq!(record.parent_changes, 5); // 2d+1 with d=2
                rost.release(op);
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn stats_break_down_by_outcome() {
        let mut tree = two_level_tree();
        let mut rost = SwitchingProtocol::new(RostConfig::paper());
        // Not eligible yet.
        rost.attempt(&mut tree, NodeId(2), SimTime::from_secs(101.0));
        // Busy: the family is locked by a competing operation.
        let recovery = rost.allocate_op();
        assert!(rost.locks_mut().try_lock_all(recovery, &[NodeId(1)]));
        rost.attempt(&mut tree, NodeId(2), SimTime::from_secs(500.0));
        rost.release(recovery);
        // Switched.
        match rost.attempt(&mut tree, NodeId(2), SimTime::from_secs(500.0)) {
            SwitchOutcome::Switched { op, .. } => rost.release(op),
            other => panic!("expected switch, got {other:?}"),
        }
        let stats = rost.stats();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.switched, 1);
        assert_eq!(stats.busy, 1);
        assert_eq!(stats.not_eligible, 1);
        assert_eq!(
            stats.attempts,
            stats.switched + stats.busy + stats.not_eligible
        );
    }

    #[test]
    fn not_eligible_outcome_for_fresh_member() {
        let mut tree = two_level_tree();
        let mut rost = SwitchingProtocol::new(RostConfig::paper());
        assert_eq!(
            rost.attempt(&mut tree, NodeId(2), SimTime::from_secs(101.0)),
            SwitchOutcome::NotEligible
        );
        assert_eq!(rost.locks().locked_count(), 0);
    }
}
