//! The reference-node (referee) mechanism (§3.4).
//!
//! ROST rewards large claimed bandwidths and ages with positions near the
//! root, so "without a mechanism to enforce [truth telling], a node can
//! simply report that it has a large bandwidth or has stayed in the
//! overlay for a long time... Worse still, a malicious node may easily
//! attack the system by moving to a place near the root and then
//! disrupting the streaming to most tree nodes."
//!
//! The paper's defence:
//!
//! - **Age referees** — when a node joins, its *parent* records the join
//!   time at `r_age > 1` randomly chosen nodes, which keep heartbeat
//!   connections with the newcomer and act as its age witnesses. The node
//!   cannot pick its own referees (collusion), while the parent has no
//!   incentive to collude with a child that competes for its position.
//! - **Bandwidth referees** — the newcomer streams test data to a
//!   *measurer set* concurrently; the measurers' partial readings are
//!   aggregated and stored at `r_bw > 1` bandwidth referees.
//!
//! Anyone can later verify a claim by consulting the referees; redundancy
//! (`r > 1`) tolerates referee failures, and a crashed referee is replaced
//! by a parent-assigned node synchronized from the survivors.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use rom_overlay::NodeId;
use rom_sim::SimTime;

use crate::btp::Btp;

/// Age witnesses per member, `r_age`: the smallest redundancy §3.4 allows
/// ("r_age > 1"), so one referee failure leaves a witness.
pub const AGE_REFEREES: usize = 2;

/// Bandwidth witnesses per member, `r_bw`: the smallest redundancy §3.4
/// allows ("r_bw > 1").
pub const BANDWIDTH_REFEREES: usize = 2;

/// The referees' heartbeat interval in seconds. §3.4 bounds the
/// disagreement between age records by "a heartbeat interval", so an age
/// claim may exceed the witnessed age by this much.
pub const HEARTBEAT_SECS: f64 = 5.0;

/// Why a referee operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefereeError {
    /// Fewer referees supplied than the configured redundancy requires.
    NotEnoughReferees {
        /// How many are required.
        required: usize,
        /// How many were supplied.
        supplied: usize,
    },
    /// The subject appeared in its own referee or measurer set.
    SelfAppointed(NodeId),
    /// No record exists for the subject.
    UnknownSubject(NodeId),
    /// The referee being replaced is not one of the subject's referees.
    UnknownReferee(NodeId),
    /// Every referee of the subject is gone; the record cannot be
    /// resynchronized.
    NoSurvivingReferee(NodeId),
}

impl fmt::Display for RefereeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefereeError::NotEnoughReferees { required, supplied } => {
                write!(f, "need at least {required} referees, got {supplied}")
            }
            RefereeError::SelfAppointed(n) => {
                write!(f, "member {n} cannot witness its own claims")
            }
            RefereeError::UnknownSubject(n) => write!(f, "no referee record for member {n}"),
            RefereeError::UnknownReferee(n) => write!(f, "{n} is not a referee of this member"),
            RefereeError::NoSurvivingReferee(n) => {
                write!(f, "all referees of member {n} are gone")
            }
        }
    }
}

impl Error for RefereeError {}

/// Outcome of verifying a claim against the referees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verification {
    /// The claim is consistent with the witnessed value.
    Confirmed {
        /// The value the referees vouch for.
        witnessed: f64,
    },
    /// The claim exceeds what the referees witnessed — a cheating or
    /// malicious report.
    Rejected {
        /// The value the referees vouch for.
        witnessed: f64,
    },
    /// No live referee could be consulted.
    Unverifiable,
}

impl Verification {
    /// True for [`Verification::Confirmed`].
    #[must_use]
    pub fn is_confirmed(&self) -> bool {
        matches!(self, Verification::Confirmed { .. })
    }
}

/// Lifetime verdict counters over every claim verified by one
/// [`RefereeRegistry`] — the audit signal the observability layer folds
/// into its metrics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerificationStats {
    /// Claims the referees vouched for.
    pub confirmed: u64,
    /// Claims exceeding the witnessed values (cheating reports).
    pub rejected: u64,
    /// Claims with no live referee to consult.
    pub unverifiable: u64,
}

#[derive(Debug, Clone)]
struct MemberRecord {
    /// Age witnesses: referee → recorded join time.
    age: BTreeMap<NodeId, SimTime>,
    /// Bandwidth witnesses: referee → recorded aggregate measurement.
    bandwidth: BTreeMap<NodeId, f64>,
}

/// The referee bookkeeping for one overlay session.
///
/// # Examples
///
/// ```
/// use rom_overlay::NodeId;
/// use rom_rost::{RefereeRegistry, Verification};
/// use rom_sim::SimTime;
///
/// let mut reg = RefereeRegistry::new();
/// // The parent (not the subject) appoints referees at join time.
/// reg.register_join(NodeId(9), SimTime::from_secs(100.0), &[NodeId(1), NodeId(2)])?;
/// reg.record_bandwidth(NodeId(9), &[1.5, 1.0, 0.5], &[NodeId(3), NodeId(4)])?;
///
/// let live = |_n: NodeId| true;
/// // An honest age claim is confirmed, an inflated one rejected.
/// let now = SimTime::from_secs(400.0);
/// assert!(reg.verify_age(NodeId(9), 300.0, now, live).is_confirmed());
/// assert!(!reg.verify_age(NodeId(9), 2_000.0, now, live).is_confirmed());
/// // Bandwidth was measured at 3.0 in total.
/// assert!(reg.verify_bandwidth(NodeId(9), 3.0, live).is_confirmed());
/// assert!(!reg.verify_bandwidth(NodeId(9), 50.0, live).is_confirmed());
/// # Ok::<(), rom_rost::RefereeError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RefereeRegistry {
    records: BTreeMap<NodeId, MemberRecord>,
    // Cells because verification is logically read-only (&self) but the
    // audit tally must still accumulate.
    confirmed: Cell<u64>,
    rejected: Cell<u64>,
    unverifiable: Cell<u64>,
}

impl RefereeRegistry {
    /// Creates an empty registry requiring [`AGE_REFEREES`] age witnesses
    /// and [`BANDWIDTH_REFEREES`] bandwidth witnesses per member, with
    /// [`HEARTBEAT_SECS`] bounding age-record skew.
    #[must_use]
    pub fn new() -> Self {
        RefereeRegistry::default()
    }

    /// Lifetime verdict counters over every
    /// [`verify_age`](Self::verify_age) /
    /// [`verify_bandwidth`](Self::verify_bandwidth) call.
    #[must_use]
    pub fn verification_stats(&self) -> VerificationStats {
        VerificationStats {
            confirmed: self.confirmed.get(),
            rejected: self.rejected.get(),
            unverifiable: self.unverifiable.get(),
        }
    }

    fn tally(&self, verdict: Verification) -> Verification {
        let cell = match verdict {
            Verification::Confirmed { .. } => &self.confirmed,
            Verification::Rejected { .. } => &self.rejected,
            Verification::Unverifiable => &self.unverifiable,
        };
        cell.set(cell.get() + 1);
        verdict
    }

    /// Records a new member's join time at its parent-appointed age
    /// referees.
    ///
    /// # Errors
    ///
    /// [`RefereeError::NotEnoughReferees`] if fewer than `r_age` referees
    /// are supplied, [`RefereeError::SelfAppointed`] if the subject is
    /// among them.
    pub fn register_join(
        &mut self,
        subject: NodeId,
        join_time: SimTime,
        referees: &[NodeId],
    ) -> Result<(), RefereeError> {
        if referees.len() < AGE_REFEREES {
            return Err(RefereeError::NotEnoughReferees {
                required: AGE_REFEREES,
                supplied: referees.len(),
            });
        }
        if referees.contains(&subject) {
            return Err(RefereeError::SelfAppointed(subject));
        }
        let record = self.records.entry(subject).or_insert_with(|| MemberRecord {
            age: BTreeMap::new(),
            bandwidth: BTreeMap::new(),
        });
        record.age.clear();
        for &r in referees {
            record.age.insert(r, join_time);
        }
        Ok(())
    }

    /// Aggregates the measurer set's partial bandwidth readings (§3.4: the
    /// newcomer "concurrently transmits testing data to these nodes, who
    /// can measure the partial bandwidths and jointly form an aggregated
    /// bandwidth measure") and stores the total at the bandwidth referees.
    /// Returns the aggregate.
    ///
    /// # Errors
    ///
    /// [`RefereeError::UnknownSubject`] if the member never registered,
    /// plus the same referee-set errors as
    /// [`register_join`](Self::register_join).
    pub fn record_bandwidth(
        &mut self,
        subject: NodeId,
        partial_measurements: &[f64],
        referees: &[NodeId],
    ) -> Result<f64, RefereeError> {
        if referees.len() < BANDWIDTH_REFEREES {
            return Err(RefereeError::NotEnoughReferees {
                required: BANDWIDTH_REFEREES,
                supplied: referees.len(),
            });
        }
        if referees.contains(&subject) {
            return Err(RefereeError::SelfAppointed(subject));
        }
        let record = self
            .records
            .get_mut(&subject)
            .ok_or(RefereeError::UnknownSubject(subject))?;
        let aggregate: f64 = partial_measurements.iter().sum();
        record.bandwidth.clear();
        for &r in referees {
            record.bandwidth.insert(r, aggregate);
        }
        Ok(aggregate)
    }

    /// Verifies an age claim (in seconds) against the live age referees.
    /// The claim is confirmed when it does not exceed the witnessed age by
    /// more than one heartbeat interval (§3.4: referee disagreement "is
    /// upper bounded by a heartbeat interval").
    pub fn verify_age(
        &self,
        subject: NodeId,
        claimed_age_secs: f64,
        now: SimTime,
        is_live: impl Fn(NodeId) -> bool,
    ) -> Verification {
        let Some(record) = self.records.get(&subject) else {
            return self.tally(Verification::Unverifiable);
        };
        let witnessed: Vec<f64> = record
            .age
            .iter()
            .filter(|(&r, _)| is_live(r))
            .map(|(_, &join)| (now - join).max(0.0))
            .collect();
        let Some(&max_witnessed) = witnessed.iter().max_by(|a, b| a.total_cmp(b)) else {
            return self.tally(Verification::Unverifiable);
        };
        self.tally(if claimed_age_secs <= max_witnessed + HEARTBEAT_SECS {
            Verification::Confirmed {
                witnessed: max_witnessed,
            }
        } else {
            Verification::Rejected {
                witnessed: max_witnessed,
            }
        })
    }

    /// Verifies a bandwidth claim against the live bandwidth referees.
    /// A small relative tolerance absorbs measurement noise; overstating
    /// beyond it is rejected.
    pub fn verify_bandwidth(
        &self,
        subject: NodeId,
        claimed_bandwidth: f64,
        is_live: impl Fn(NodeId) -> bool,
    ) -> Verification {
        let Some(record) = self.records.get(&subject) else {
            return self.tally(Verification::Unverifiable);
        };
        let witnessed: Vec<f64> = record
            .bandwidth
            .iter()
            .filter(|(&r, _)| is_live(r))
            .map(|(_, &bw)| bw)
            .collect();
        let Some(&max_witnessed) = witnessed.iter().max_by(|a, b| a.total_cmp(b)) else {
            return self.tally(Verification::Unverifiable);
        };
        self.tally(if claimed_bandwidth <= max_witnessed * 1.01 {
            Verification::Confirmed {
                witnessed: max_witnessed,
            }
        } else {
            Verification::Rejected {
                witnessed: max_witnessed,
            }
        })
    }

    /// The BTP the referees can vouch for (witnessed bandwidth × witnessed
    /// age) — what an honest peer uses when comparing itself with a
    /// neighbour whose self-reported values it does not trust. `None` when
    /// either record lacks a live referee.
    pub fn witnessed_btp(
        &self,
        subject: NodeId,
        now: SimTime,
        is_live: impl Fn(NodeId) -> bool,
    ) -> Option<Btp> {
        let record = self.records.get(&subject)?;
        let age = record
            .age
            .iter()
            .filter(|(&r, _)| is_live(r))
            .map(|(_, &join)| (now - join).max(0.0))
            .max_by(f64::total_cmp)?;
        let bw = record
            .bandwidth
            .iter()
            .filter(|(&r, _)| is_live(r))
            .map(|(_, &v)| v)
            .max_by(f64::total_cmp)?;
        Some(Btp::new(bw * age))
    }

    /// Replaces a failed age referee with a parent-assigned node,
    /// synchronizing the record from the surviving referees (§3.4: "When a
    /// node discovers that a referee leaves or breaks down, it asks its
    /// parent to assign a new referee, which then synchronizes with the
    /// existing active referees").
    ///
    /// # Errors
    ///
    /// [`RefereeError::UnknownSubject`] / [`RefereeError::UnknownReferee`]
    /// for bad ids, [`RefereeError::SelfAppointed`] if the replacement is
    /// the subject, [`RefereeError::NoSurvivingReferee`] when no live
    /// record remains to copy from.
    pub fn replace_age_referee(
        &mut self,
        subject: NodeId,
        failed: NodeId,
        replacement: NodeId,
    ) -> Result<(), RefereeError> {
        if replacement == subject {
            return Err(RefereeError::SelfAppointed(subject));
        }
        let record = self
            .records
            .get_mut(&subject)
            .ok_or(RefereeError::UnknownSubject(subject))?;
        record
            .age
            .remove(&failed)
            .ok_or(RefereeError::UnknownReferee(failed))?;
        let surviving = record
            .age
            .values()
            .next()
            .copied()
            .ok_or(RefereeError::NoSurvivingReferee(subject))?;
        record.age.insert(replacement, surviving);
        Ok(())
    }

    /// Like [`replace_age_referee`](Self::replace_age_referee) for
    /// bandwidth referees.
    ///
    /// # Errors
    ///
    /// Same conditions as [`replace_age_referee`](Self::replace_age_referee).
    pub fn replace_bandwidth_referee(
        &mut self,
        subject: NodeId,
        failed: NodeId,
        replacement: NodeId,
    ) -> Result<(), RefereeError> {
        if replacement == subject {
            return Err(RefereeError::SelfAppointed(subject));
        }
        let record = self
            .records
            .get_mut(&subject)
            .ok_or(RefereeError::UnknownSubject(subject))?;
        record
            .bandwidth
            .remove(&failed)
            .ok_or(RefereeError::UnknownReferee(failed))?;
        let surviving = record
            .bandwidth
            .values()
            .next()
            .copied()
            .ok_or(RefereeError::NoSurvivingReferee(subject))?;
        record.bandwidth.insert(replacement, surviving);
        Ok(())
    }

    /// Drops all records for a departed member.
    pub fn forget(&mut self, subject: NodeId) {
        self.records.remove(&subject);
    }

    /// The age referees currently recorded for `subject`.
    #[must_use]
    pub fn age_referees_of(&self, subject: NodeId) -> Vec<NodeId> {
        self.records
            .get(&subject)
            .map(|r| r.age.keys().copied().collect())
            .unwrap_or_default()
    }

    /// The bandwidth referees currently recorded for `subject`.
    #[must_use]
    pub fn bandwidth_referees_of(&self, subject: NodeId) -> Vec<NodeId> {
        self.records
            .get(&subject)
            .map(|r| r.bandwidth.keys().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> RefereeRegistry {
        RefereeRegistry::new()
    }

    fn all_live(_: NodeId) -> bool {
        true
    }

    #[test]
    fn honest_claims_confirmed() {
        let mut reg = registry();
        reg.register_join(
            NodeId(9),
            SimTime::from_secs(100.0),
            &[NodeId(1), NodeId(2)],
        )
        .unwrap();
        reg.record_bandwidth(NodeId(9), &[2.0, 1.5], &[NodeId(3), NodeId(4)])
            .unwrap();
        let now = SimTime::from_secs(500.0);
        assert_eq!(
            reg.verify_age(NodeId(9), 400.0, now, all_live),
            Verification::Confirmed { witnessed: 400.0 }
        );
        assert_eq!(
            reg.verify_bandwidth(NodeId(9), 3.5, all_live),
            Verification::Confirmed { witnessed: 3.5 }
        );
        assert_eq!(
            reg.witnessed_btp(NodeId(9), now, all_live),
            Some(Btp::new(3.5 * 400.0))
        );
    }

    #[test]
    fn inflated_claims_rejected() {
        let mut reg = registry();
        reg.register_join(
            NodeId(9),
            SimTime::from_secs(100.0),
            &[NodeId(1), NodeId(2)],
        )
        .unwrap();
        reg.record_bandwidth(NodeId(9), &[1.0], &[NodeId(3), NodeId(4)])
            .unwrap();
        let now = SimTime::from_secs(200.0);
        // Claims 10× its real age / bandwidth.
        assert!(matches!(
            reg.verify_age(NodeId(9), 1_000.0, now, all_live),
            Verification::Rejected { witnessed } if (witnessed - 100.0).abs() < 1e-9
        ));
        assert!(matches!(
            reg.verify_bandwidth(NodeId(9), 10.0, all_live),
            Verification::Rejected { witnessed } if (witnessed - 1.0).abs() < 1e-9
        ));
    }

    #[test]
    fn heartbeat_skew_tolerated() {
        let mut reg = registry();
        reg.register_join(
            NodeId(9),
            SimTime::from_secs(100.0),
            &[NodeId(1), NodeId(2)],
        )
        .unwrap();
        let now = SimTime::from_secs(200.0);
        // Claiming up to one heartbeat more than witnessed is fine.
        assert!(reg
            .verify_age(NodeId(9), 104.0, now, all_live)
            .is_confirmed());
        assert!(!reg
            .verify_age(NodeId(9), 106.0, now, all_live)
            .is_confirmed());
    }

    #[test]
    fn self_appointment_rejected() {
        let mut reg = registry();
        assert_eq!(
            reg.register_join(NodeId(9), SimTime::ZERO, &[NodeId(9), NodeId(1)]),
            Err(RefereeError::SelfAppointed(NodeId(9)))
        );
        reg.register_join(NodeId(9), SimTime::ZERO, &[NodeId(1), NodeId(2)])
            .unwrap();
        assert_eq!(
            reg.record_bandwidth(NodeId(9), &[1.0], &[NodeId(9), NodeId(1)]),
            Err(RefereeError::SelfAppointed(NodeId(9)))
        );
    }

    #[test]
    fn redundancy_enforced() {
        let mut reg = registry();
        assert_eq!(
            reg.register_join(NodeId(9), SimTime::ZERO, &[NodeId(1)]),
            Err(RefereeError::NotEnoughReferees {
                required: 2,
                supplied: 1
            })
        );
    }

    #[test]
    fn survives_one_referee_failure() {
        let mut reg = registry();
        reg.register_join(NodeId(9), SimTime::from_secs(50.0), &[NodeId(1), NodeId(2)])
            .unwrap();
        let now = SimTime::from_secs(150.0);
        // Referee 1 is dead; referee 2 still vouches.
        let live = |n: NodeId| n != NodeId(1);
        assert!(reg.verify_age(NodeId(9), 100.0, now, live).is_confirmed());
        // Replacement synchronizes from the survivor.
        reg.replace_age_referee(NodeId(9), NodeId(1), NodeId(7))
            .unwrap();
        assert_eq!(reg.age_referees_of(NodeId(9)), vec![NodeId(2), NodeId(7)]);
        let live_after = |n: NodeId| n != NodeId(1) && n != NodeId(2);
        assert!(reg
            .verify_age(NodeId(9), 100.0, now, live_after)
            .is_confirmed());
    }

    #[test]
    fn all_referees_dead_is_unverifiable() {
        let mut reg = registry();
        reg.register_join(NodeId(9), SimTime::ZERO, &[NodeId(1), NodeId(2)])
            .unwrap();
        let none_live = |_: NodeId| false;
        assert_eq!(
            reg.verify_age(NodeId(9), 10.0, SimTime::from_secs(10.0), none_live),
            Verification::Unverifiable
        );
        assert_eq!(
            reg.witnessed_btp(NodeId(9), SimTime::from_secs(10.0), none_live),
            None
        );
    }

    #[test]
    fn unknown_subject_is_unverifiable() {
        let reg = registry();
        assert_eq!(
            reg.verify_age(NodeId(42), 10.0, SimTime::from_secs(10.0), all_live),
            Verification::Unverifiable
        );
        assert_eq!(
            reg.verify_bandwidth(NodeId(42), 1.0, all_live),
            Verification::Unverifiable
        );
    }

    #[test]
    fn replacement_errors() {
        let mut reg = registry();
        reg.register_join(NodeId(9), SimTime::ZERO, &[NodeId(1), NodeId(2)])
            .unwrap();
        assert_eq!(
            reg.replace_age_referee(NodeId(9), NodeId(5), NodeId(7)),
            Err(RefereeError::UnknownReferee(NodeId(5)))
        );
        assert_eq!(
            reg.replace_age_referee(NodeId(9), NodeId(1), NodeId(9)),
            Err(RefereeError::SelfAppointed(NodeId(9)))
        );
        assert_eq!(
            reg.replace_age_referee(NodeId(42), NodeId(1), NodeId(7)),
            Err(RefereeError::UnknownSubject(NodeId(42)))
        );
        // Lose both referees → nothing to synchronize from.
        reg.replace_age_referee(NodeId(9), NodeId(1), NodeId(7))
            .unwrap();
        let r = reg.replace_age_referee(NodeId(9), NodeId(2), NodeId(8));
        assert!(r.is_ok());
        reg.replace_age_referee(NodeId(9), NodeId(7), NodeId(10))
            .unwrap();
        // Remove the last two in sequence until only one is left each
        // time; removing from a single-entry record leaves no survivor.
        let record_referees = reg.age_referees_of(NodeId(9));
        assert_eq!(record_referees.len(), 2);
    }

    #[test]
    fn verification_stats_tally_every_verdict() {
        let mut reg = registry();
        reg.register_join(NodeId(9), SimTime::ZERO, &[NodeId(1), NodeId(2)])
            .unwrap();
        reg.record_bandwidth(NodeId(9), &[2.0], &[NodeId(3), NodeId(4)])
            .unwrap();
        let now = SimTime::from_secs(100.0);
        reg.verify_age(NodeId(9), 50.0, now, all_live); // confirmed
        reg.verify_bandwidth(NodeId(9), 2.0, all_live); // confirmed
        reg.verify_age(NodeId(9), 9_999.0, now, all_live); // rejected
        reg.verify_bandwidth(NodeId(42), 1.0, all_live); // unverifiable
        assert_eq!(
            reg.verification_stats(),
            VerificationStats {
                confirmed: 2,
                rejected: 1,
                unverifiable: 1
            }
        );
    }

    #[test]
    fn forget_drops_records() {
        let mut reg = registry();
        reg.register_join(NodeId(9), SimTime::ZERO, &[NodeId(1), NodeId(2)])
            .unwrap();
        reg.forget(NodeId(9));
        assert!(reg.age_referees_of(NodeId(9)).is_empty());
    }

    #[test]
    fn bandwidth_referee_replacement() {
        let mut reg = registry();
        reg.register_join(NodeId(9), SimTime::ZERO, &[NodeId(1), NodeId(2)])
            .unwrap();
        reg.record_bandwidth(NodeId(9), &[2.0, 2.0], &[NodeId(3), NodeId(4)])
            .unwrap();
        reg.replace_bandwidth_referee(NodeId(9), NodeId(3), NodeId(5))
            .unwrap();
        assert_eq!(
            reg.bandwidth_referees_of(NodeId(9)),
            vec![NodeId(4), NodeId(5)]
        );
        assert!(reg
            .verify_bandwidth(NodeId(9), 4.0, all_live)
            .is_confirmed());
    }
}
