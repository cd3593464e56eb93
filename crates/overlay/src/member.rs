//! Member profiles: the static and temporal properties of one participant.

use rom_sim::SimTime;

use crate::id::{Location, NodeId};

/// The properties of one multicast member.
///
/// A profile captures everything the tree-construction algorithms consult:
/// the member's *outbound bandwidth* (in units of the stream rate, so a
/// bandwidth of 3.2 can forward three full streams), its *join time* (from
/// which its age — and hence its bandwidth-time product — follows), its
/// scheduled *lifetime*, and its underlay attachment point.
///
/// # Examples
///
/// ```
/// use rom_overlay::{Location, MemberProfile, NodeId};
/// use rom_sim::SimTime;
///
/// let m = MemberProfile::new(NodeId(7), 3.5, SimTime::from_secs(100.0), 600.0, Location(2));
/// assert_eq!(m.out_capacity(), 3);
/// assert_eq!(m.age(SimTime::from_secs(160.0)), 60.0);
/// assert_eq!(m.btp(SimTime::from_secs(160.0)), 3.5 * 60.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemberProfile {
    /// Unique member id.
    pub id: NodeId,
    /// Outbound (access-link) bandwidth in stream-rate units.
    pub bandwidth: f64,
    /// The instant this member joined the overlay.
    pub join_time: SimTime,
    /// Scheduled session length in seconds. The simulation engine uses this
    /// to schedule the departure; protocols never peek at it.
    pub lifetime: f64,
    /// Underlay attachment point.
    pub location: Location,
}

impl MemberProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is negative/NaN or `lifetime` is not positive.
    #[must_use]
    pub fn new(
        id: NodeId,
        bandwidth: f64,
        join_time: SimTime,
        lifetime: f64,
        location: Location,
    ) -> Self {
        assert!(
            bandwidth >= 0.0 && bandwidth.is_finite(),
            "bandwidth must be finite and non-negative"
        );
        assert!(lifetime > 0.0, "lifetime must be positive");
        MemberProfile {
            id,
            bandwidth,
            join_time,
            lifetime,
            location,
        }
    }

    /// Number of full streams this member can forward: ⌊bandwidth⌋, the
    /// bandwidth being in units of the stream rate (§5 normalises the
    /// rate to 1).
    #[must_use]
    pub fn out_capacity(&self) -> usize {
        self.bandwidth.floor() as usize
    }

    /// Seconds this member has been in the overlay at `now`; clamped at 0
    /// for instants before the join.
    #[must_use]
    pub fn age(&self, now: SimTime) -> f64 {
        (now - self.join_time).max(0.0)
    }

    /// The bandwidth-time product at `now` — ROST's ordering criterion
    /// (§3.2): outbound bandwidth × age.
    #[must_use]
    pub fn btp(&self, now: SimTime) -> f64 {
        self.bandwidth * self.age(now)
    }

    /// The instant this member's session ends.
    #[must_use]
    pub fn departure_time(&self) -> SimTime {
        self.join_time + self.lifetime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(bw: f64) -> MemberProfile {
        MemberProfile::new(NodeId(1), bw, SimTime::from_secs(10.0), 100.0, Location(0))
    }

    #[test]
    fn capacity_floors() {
        assert_eq!(member(0.0).out_capacity(), 0);
        assert_eq!(member(0.99).out_capacity(), 0);
        assert_eq!(member(1.0).out_capacity(), 1);
        assert_eq!(member(7.9).out_capacity(), 7);
    }

    #[test]
    fn age_clamps_before_join() {
        let m = member(1.0);
        assert_eq!(m.age(SimTime::from_secs(5.0)), 0.0);
        assert_eq!(m.age(SimTime::from_secs(10.0)), 0.0);
        assert_eq!(m.age(SimTime::from_secs(25.0)), 15.0);
    }

    #[test]
    fn btp_grows_proportionally_to_bandwidth() {
        // §3.3: "a node's BTP increases at a rate proportional to its
        // bandwidth".
        let slow = member(1.0);
        let fast = member(4.0);
        let t = SimTime::from_secs(110.0);
        assert_eq!(fast.btp(t), 4.0 * slow.btp(t));
        // A zero-age node has zero BTP regardless of bandwidth.
        assert_eq!(fast.btp(SimTime::from_secs(10.0)), 0.0);
    }

    #[test]
    fn departure_time() {
        assert_eq!(member(1.0).departure_time(), SimTime::from_secs(110.0));
    }

    #[test]
    #[should_panic(expected = "lifetime")]
    fn zero_lifetime_rejected() {
        let _ = MemberProfile::new(NodeId(1), 1.0, SimTime::ZERO, 0.0, Location(0));
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn negative_bandwidth_rejected() {
        let _ = MemberProfile::new(NodeId(1), -1.0, SimTime::ZERO, 1.0, Location(0));
    }
}
