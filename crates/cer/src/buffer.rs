//! Playback buffering and deadline accounting (§4.2, §6).
//!
//! "For each packet in the stream, there is a delivery deadline and
//! playback deadline for a specific member. The playback deadline is the
//! delivery deadline plus the application's buffering time. Any packet
//! missing the playback deadline is meaningless." The §6 experiments
//! stream 10 packets/second with a default 5-second (50-packet) playback
//! buffer; the *starving time ratio* is the fraction of view time whose
//! packets never arrived in time.

use rom_sim::SimTime;

/// A set of received sequence numbers kept as sorted, disjoint, half-open
/// ranges — compact even for hours of stream.
///
/// # Examples
///
/// ```
/// use rom_cer::SeqRangeSet;
///
/// let mut set = SeqRangeSet::new();
/// set.insert_range(0, 100);
/// set.insert_range(150, 200);
/// assert!(set.contains(99));
/// assert!(!set.contains(100));
/// assert_eq!(set.len(), 150);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeqRangeSet {
    /// Sorted, disjoint, non-adjacent `[lo, hi)` ranges.
    ranges: Vec<(u64, u64)>,
}

impl SeqRangeSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        SeqRangeSet::default()
    }

    /// Inserts one sequence number.
    pub fn insert(&mut self, seq: u64) {
        self.insert_range(seq, seq + 1);
    }

    /// Inserts the half-open range `[lo, hi)`; empty ranges are ignored.
    pub fn insert_range(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        // Find all ranges overlapping or adjacent to [lo, hi) and merge.
        let start = self.ranges.partition_point(|&(_, h)| h < lo);
        let end = self.ranges.partition_point(|&(l, _)| l <= hi);
        let mut new_lo = lo;
        let mut new_hi = hi;
        if start < end {
            new_lo = new_lo.min(self.ranges[start].0);
            new_hi = new_hi.max(self.ranges[end - 1].1);
        }
        self.ranges.splice(start..end, [(new_lo, new_hi)]);
    }

    /// True if `seq` has been received.
    #[must_use]
    pub fn contains(&self, seq: u64) -> bool {
        let i = self.ranges.partition_point(|&(_, h)| h <= seq);
        self.ranges.get(i).is_some_and(|&(l, _)| l <= seq)
    }

    /// Number of distinct sequence numbers in the set.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.ranges.iter().map(|&(l, h)| h - l).sum()
    }

    /// True when no sequence number has been received.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The internal ranges (sorted, disjoint).
    #[must_use]
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }
}

impl FromIterator<u64> for SeqRangeSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut s = SeqRangeSet::new();
        for x in iter {
            s.insert(x);
        }
        s
    }
}

/// The stream's timing model: constant packet rate plus a playback buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamClock {
    rate_pps: f64,
    buffer_secs: f64,
}

impl StreamClock {
    /// The §6 experimental configuration: 10 packets/second, 5-second
    /// buffer.
    #[must_use]
    pub fn paper() -> Self {
        StreamClock::new(10.0, 5.0)
    }

    /// Creates a clock.
    ///
    /// # Panics
    ///
    /// Panics unless rate and buffer are positive.
    #[must_use]
    pub fn new(rate_pps: f64, buffer_secs: f64) -> Self {
        assert!(rate_pps > 0.0, "packet rate must be positive");
        assert!(buffer_secs > 0.0, "buffer must be positive");
        StreamClock {
            rate_pps,
            buffer_secs,
        }
    }

    /// Packets per second.
    #[must_use]
    pub fn rate_pps(&self) -> f64 {
        self.rate_pps
    }

    /// Playback buffer in seconds.
    #[must_use]
    pub fn buffer_secs(&self) -> f64 {
        self.buffer_secs
    }

    /// Buffer size in packets (the paper's "5 seconds, or 50 packets").
    #[must_use]
    pub fn buffer_packets(&self) -> u64 {
        (self.buffer_secs * self.rate_pps).round() as u64
    }

    /// The sequence number being generated at `t` (the live position).
    #[must_use]
    pub fn seq_at(&self, t: SimTime) -> u64 {
        (t.as_secs().max(0.0) * self.rate_pps).floor() as u64
    }

    /// When packet `seq` is generated at the source.
    #[must_use]
    pub fn generation_time(&self, seq: u64) -> SimTime {
        SimTime::from_secs(seq as f64 / self.rate_pps)
    }

    /// Packet `seq`'s playback deadline: generation plus the buffer.
    /// (Overlay path delays are tens of milliseconds against multi-second
    /// buffers, so the delivery deadline is approximated by the generation
    /// time, as the evaluation's §6 setup implies.)
    #[must_use]
    pub fn playback_deadline(&self, seq: u64) -> SimTime {
        self.generation_time(seq) + self.buffer_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = SeqRangeSet::new();
        s.insert(5);
        s.insert(7);
        s.insert(6);
        assert_eq!(s.ranges(), &[(5, 8)]); // coalesced
        assert!(s.contains(5) && s.contains(7));
        assert!(!s.contains(4) && !s.contains(8));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn range_merging() {
        let mut s = SeqRangeSet::new();
        s.insert_range(10, 20);
        s.insert_range(30, 40);
        s.insert_range(18, 32); // bridges both
        assert_eq!(s.ranges(), &[(10, 40)]);
        s.insert_range(0, 5);
        assert_eq!(s.ranges(), &[(0, 5), (10, 40)]);
        s.insert_range(5, 10); // adjacent: coalesce
        assert_eq!(s.ranges(), &[(0, 40)]);
    }

    #[test]
    fn empty_ranges_ignored() {
        let mut s = SeqRangeSet::new();
        s.insert_range(5, 5);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn random_inserts_match_naive_model() {
        // Cross-check the range set against a HashSet on a pseudo-random
        // workload.
        let mut s = SeqRangeSet::new();
        let mut naive = std::collections::HashSet::new();
        let mut x: u64 = 12345;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lo = (x >> 33) % 200;
            let hi = lo + (x % 7);
            s.insert_range(lo, hi);
            for v in lo..hi {
                naive.insert(v);
            }
        }
        for v in 0..210 {
            assert_eq!(s.contains(v), naive.contains(&v), "seq {v}");
        }
        assert_eq!(s.len(), naive.len() as u64);
        // Ranges are sorted, disjoint and non-adjacent.
        for w in s.ranges().windows(2) {
            assert!(w[0].1 < w[1].0);
        }
    }

    #[test]
    fn clock_positions() {
        let c = StreamClock::paper();
        assert_eq!(c.rate_pps(), 10.0);
        assert_eq!(c.buffer_packets(), 50);
        assert_eq!(c.seq_at(SimTime::from_secs(12.34)), 123);
        assert_eq!(c.generation_time(123).as_secs(), 12.3);
        assert_eq!(c.playback_deadline(0).as_secs(), 5.0);
        assert_eq!(c.playback_deadline(100).as_secs(), 15.0);
    }

    #[test]
    fn seq_at_clamps_negative_time() {
        let c = StreamClock::paper();
        assert_eq!(c.seq_at(SimTime::from_secs(-3.0)), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = StreamClock::new(0.0, 5.0);
    }
}
