//! Virtual simulation time.
//!
//! All simulated clocks in this workspace are expressed as [`SimTime`], a
//! finite, non-NaN number of seconds since the start of the simulation. The
//! newtype exists so that wall-clock quantities, sequence numbers and other
//! `f64`s cannot be accidentally mixed with simulated time, and so that the
//! event queue can rely on a total order ([`Ord`]).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since the simulation epoch.
///
/// `SimTime` is totally ordered; constructing one from a NaN value is a
/// programming error and panics. Negative values are allowed (they are
/// occasionally useful for "before the epoch" sentinels such as warm-up
/// offsets) but the simulation engine itself never schedules into the past.
///
/// # Examples
///
/// ```
/// use rom_sim::SimTime;
///
/// let t = SimTime::from_secs(10.0) + 5.0;
/// assert_eq!(t.as_secs(), 15.0);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch (t = 0 s).
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time later than any time the engine will ever reach.
    pub const FAR_FUTURE: SimTime = SimTime(f64::INFINITY);

    /// Creates a time from a number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Returns the time as seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Elapsed seconds since `earlier`. Negative if `earlier` is later.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }

    /// The larger of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// True if the time is finite (not [`SimTime::FAR_FUTURE`]).
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

// SimTime bans NaN at construction, so `total_cmp` coincides with the
// numeric order; basing the whole comparison stack on it keeps Eq and Ord
// consistent by definition.
impl PartialEq for SimTime {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    fn add(self, secs: f64) -> SimTime {
        SimTime::from_secs(self.0 + secs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, secs: f64) {
        *self = *self + secs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;

    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl From<f64> for SimTime {
    fn from(secs: f64) -> Self {
        SimTime::from_secs(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0);
        assert_eq!((t + 5.0).as_secs(), 15.0);
        assert_eq!(t + 5.0 - t, 5.0);
        let mut u = t;
        u += 2.5;
        assert_eq!(u.as_secs(), 12.5);
    }

    #[test]
    fn since_is_signed() {
        let early = SimTime::from_secs(3.0);
        let late = SimTime::from_secs(7.0);
        assert_eq!(late.since(early), 4.0);
        assert_eq!(early.since(late), -4.0);
    }

    #[test]
    fn far_future_dominates() {
        assert!(SimTime::FAR_FUTURE > SimTime::from_secs(1e18));
        assert!(!SimTime::FAR_FUTURE.is_finite());
        assert!(SimTime::ZERO.is_finite());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500s");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn from_f64() {
        let t: SimTime = 4.0.into();
        assert_eq!(t.as_secs(), 4.0);
    }
}
