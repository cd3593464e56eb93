//! A stable priority queue of timestamped events.
//!
//! Events that share a timestamp are delivered in insertion order, which
//! keeps simulations deterministic regardless of queue internals.
//!
//! The queue is a [`BinaryHeap`] of entries keyed by `(time, seq)`, where
//! `seq` is a global insertion counter. Every key is unique and totally
//! ordered, so *any* correct priority queue pops the exact same sequence;
//! `tests/queue_equivalence.rs` pins that sequence against a frozen
//! reference model over randomized schedules.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// A scheduled event. `seq` is the global insertion counter that pins FIFO
/// order within timestamp ties.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed `(time, seq)` order: `BinaryHeap` is a max-heap, so the
    /// earliest entry, first-pushed among ties, sits at the top.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A monotonically ordered queue of future events.
///
/// The queue is the heart of the simulation engine but is useful on its own
/// for custom drivers.
///
/// # Examples
///
/// ```
/// use rom_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "second");
/// q.push(SimTime::from_secs(1.0), "first");
/// q.push(SimTime::from_secs(2.0), "third"); // same time: FIFO with "second"
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "third")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    high_water: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Creates an empty queue pre-sized for `capacity` pending events, so
    /// a flash-crowd burst of that size does not reallocate mid-run.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            ..EventQueue::new()
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The firing time of the earliest event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Maximum number of events ever pending at once over this queue's
    /// lifetime (not reset by [`EventQueue::clear`]).
    ///
    /// This is the exact peak the observability layer's queue-depth
    /// gauge approximates by sampling.
    #[must_use]
    pub fn high_water_mark(&self) -> usize {
        self.high_water
    }

    /// Peak payload bytes held by the queue over its lifetime:
    /// [`EventQueue::high_water_mark`] times the per-entry footprint
    /// (time + sequence + event). Deterministic — a pure function of the
    /// schedule, unlike RSS — so it can appear in benchmark artifacts
    /// without breaking byte-identity. Excludes reserved but unfilled heap
    /// capacity.
    #[must_use]
    pub fn bytes_high_water(&self) -> u64 {
        self.high_water as u64 * std::mem::size_of::<Entry<E>>() as u64
    }

    /// Drops all pending events.
    ///
    /// The heap keeps its allocation, so a queue that is cleared and
    /// refilled (flash-crowd restarts) does not reallocate.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("high_water", &self.high_water)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), 3);
        q.push(SimTime::from_secs(1.0), 1);
        q.push(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_secs(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn tie_break_order_is_pinned_across_runs() {
        // Two identically-driven queues drain tied events in the same
        // order — insertion order, independent of queue internals. The
        // workload mixes tied and untied pushes with interleaved pops, so
        // ties are pushed both before and after their peers are popped.
        let drain = || {
            let mut q = EventQueue::new();
            let mut order = Vec::new();
            let mut next = 0u32;
            for round in 0..50u64 {
                for _ in 0..4 {
                    q.push(SimTime::from_secs((round % 7) as f64), next);
                    next += 1;
                }
                if round % 3 == 0 {
                    if let Some((t, e)) = q.pop() {
                        order.push((t, e));
                    }
                }
            }
            order.extend(std::iter::from_fn(|| q.pop()));
            order
        };
        let first = drain();
        let second = drain();
        assert_eq!(first.len(), 200);
        assert_eq!(first, second, "tie-break order must be reproducible");
        // Within every timestamp, events appear in insertion order.
        for w in first.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated at {:?}", w[0].0);
            }
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn high_water_mark_tracks_peak_pending() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water_mark(), 0);
        q.push(SimTime::from_secs(1.0), 1);
        q.push(SimTime::from_secs(2.0), 2);
        q.push(SimTime::from_secs(3.0), 3);
        assert_eq!(q.high_water_mark(), 3);
        q.pop();
        q.pop();
        // Popping never lowers the mark; a smaller refill keeps the peak.
        q.push(SimTime::from_secs(4.0), 4);
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water_mark(), 3);
        // The mark survives clear(): it is a lifetime peak.
        q.clear();
        assert_eq!(q.high_water_mark(), 3);
        q.push(SimTime::from_secs(5.0), 5);
        q.push(SimTime::from_secs(6.0), 6);
        q.push(SimTime::from_secs(7.0), 7);
        q.push(SimTime::from_secs(8.0), 8);
        assert_eq!(q.high_water_mark(), 4);
    }

    #[test]
    fn clear_retains_capacity_and_with_capacity_presizes() {
        // with_capacity pre-sizes the heap for the requested burst.
        let mut q: EventQueue<u64> = EventQueue::with_capacity(1000);
        assert!(q.heap.capacity() >= 1000);
        for i in 0..1000u64 {
            q.push(SimTime::from_secs(i as f64), i);
        }
        assert_eq!(q.high_water_mark(), 1000);
        // clear() keeps the allocation, so an identical refill fits in the
        // retained storage without growing it.
        q.clear();
        let cap_after_clear = q.heap.capacity();
        assert!(cap_after_clear >= 1000);
        for i in 0..1000u64 {
            q.push(SimTime::from_secs(i as f64), i);
        }
        assert_eq!(q.heap.capacity(), cap_after_clear);
        // High-water semantics are unchanged by capacity reuse: the mark
        // is about pending entries, never about reserved storage.
        assert_eq!(q.high_water_mark(), 1000);
        assert_eq!(q.len(), 1000);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10.0), 10);
        q.push(SimTime::from_secs(5.0), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        q.push(SimTime::from_secs(7.0), 7);
        q.push(SimTime::from_secs(6.0), 6);
        assert_eq!(q.pop().unwrap().1, 6);
        assert_eq!(q.pop().unwrap().1, 7);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn far_future_and_negative_times_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::FAR_FUTURE, "inf");
        q.push(SimTime::from_secs(-5.0), "past");
        q.push(SimTime::ZERO, "zero");
        q.push(SimTime::FAR_FUTURE, "inf2"); // FIFO with "inf"
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "zero");
        assert_eq!(q.pop().unwrap().1, "inf");
        assert_eq!(q.pop().unwrap().1, "inf2");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn large_monotone_burst_with_late_inserts_pops_in_order() {
        // A long monotone run with ties sprinkled in, then out-of-order
        // pushes into the already-queued span.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0..10_000u64 {
            let t = (i / 3) as f64; // runs of 3 ties
            q.push(SimTime::from_secs(t), i);
            expect.push((t, i));
        }
        for i in 0..500u64 {
            let t = (i * 7 % 3000) as f64 + 0.5;
            q.push(SimTime::from_secs(t), 100_000 + i);
            expect.push((t, 100_000 + i));
        }
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        while let Some((t, e)) = q.pop() {
            got.push((t.as_secs(), e));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn bytes_high_water_tracks_entry_footprint() {
        let mut q: EventQueue<u64> = EventQueue::new();
        assert_eq!(q.bytes_high_water(), 0);
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        let per_entry = std::mem::size_of::<Entry<u64>>() as u64;
        assert_eq!(q.bytes_high_water(), 2 * per_entry);
        q.pop();
        q.pop();
        assert_eq!(q.bytes_high_water(), 2 * per_entry, "peak, not current");
    }
}
