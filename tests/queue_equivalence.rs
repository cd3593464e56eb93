//! Event queue equivalence wall against a frozen reference model.
//!
//! `rom_sim::EventQueue` must preserve the pinned `(time, seq)` pop order
//! **bitwise**: every trace, manifest and figure artifact in this
//! workspace is a function of the exact event sequence, so "almost the
//! same order" is a determinism break, not a tolerable drift. The
//! `BinaryHeap` queue the pinned artifacts were first produced with is
//! embedded below as the reference, and both queues are driven through
//! identical randomized schedules — DES-shaped mostly-monotone pushes,
//! tie floods, wide scatters across epoch-boundary times (negative,
//! ±0.0, subnormal, huge, `FAR_FUTURE`), interleaved pops, burst drains
//! and mid-run clears — on several fixed seeds. After every operation the
//! two must agree on length, high-water mark and peek time; every pop
//! must return the same `(time, payload)` down to the bit pattern of the
//! timestamp.

use rom_sim::{EventQueue, SimTime};

/// The reference `EventQueue`, an independent copy of the heap-backed
/// queue with only naming adjusted. Kept as a frozen model: do not "fix",
/// optimize or share code with this copy, so a change to
/// `crates/sim/src/queue.rs` is always checked against it.
mod old_model {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use rom_sim::SimTime;

    #[derive(Debug)]
    struct Scheduled<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Scheduled<E> {}

    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest event pops
            // first, and break timestamp ties by insertion sequence (FIFO).
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The frozen heap-backed queue, API-compatible with `rom_sim::EventQueue`.
    #[derive(Debug)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        high_water: usize,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                high_water: 0,
            }
        }

        pub fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { time, seq, event });
            if self.heap.len() > self.high_water {
                self.high_water = self.heap.len();
            }
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|s| (s.time, s.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|s| s.time)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn high_water_mark(&self) -> usize {
            self.high_water
        }

        pub fn clear(&mut self) {
            self.heap.clear();
        }
    }
}

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Times sitting on representation boundaries: signs, zeros, subnormals,
/// exponent edges, infinity. The queue must keep all of them in
/// `total_cmp` order, FIFO within exact-bit ties.
const EPOCH_BOUNDARY_TIMES: [f64; 10] = [
    f64::NEG_INFINITY,
    -1.0e18,
    -1.5,
    -0.0,
    0.0,
    5.0e-324, // smallest positive subnormal
    f64::MIN_POSITIVE,
    1.0,
    1.0e300,
    f64::INFINITY,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// DES-shaped: mostly-monotone near-future pushes, pop-driven clock.
    Des,
    /// Heavy exact-time ties in large bursts, drained in chunks.
    TieFlood,
    /// Wide random scatter over epoch-boundary times with mid-run clears.
    Scatter,
}

/// Drives `rom_sim::EventQueue` and the embedded reference model through
/// one identical randomized schedule, checking bitwise agreement
/// throughout.
fn run_wall(seed: u64, workload: Workload, ops: usize) {
    let mut new_q: EventQueue<u64> = EventQueue::new();
    let mut old_q: old_model::HeapQueue<u64> = old_model::HeapQueue::new();
    let mut rng = Rng::new(seed);
    let mut clock = 0.0f64;
    let mut payload = 0u64;
    let mut recent: Vec<f64> = Vec::new();
    let (mut pushes, mut ties, mut pops, mut clears, mut boundary) = (0u64, 0u64, 0u64, 0u64, 0u64);

    let push_both = |new_q: &mut EventQueue<u64>,
                     old_q: &mut old_model::HeapQueue<u64>,
                     recent: &mut Vec<f64>,
                     t: f64,
                     payload: &mut u64| {
        let time = SimTime::from_secs(t);
        new_q.push(time, *payload);
        old_q.push(time, *payload);
        *payload += 1;
        if recent.len() < 64 {
            recent.push(t);
        } else {
            recent[(*payload % 64) as usize] = t;
        }
    };

    for _ in 0..ops {
        let roll = rng.below(100);
        match workload {
            Workload::Des => {
                if roll < 55 {
                    // Near-future push relative to the advancing clock.
                    let t = clock + rng.below(10_000) as f64 / 100.0;
                    push_both(&mut new_q, &mut old_q, &mut recent, t, &mut payload);
                    pushes += 1;
                } else if roll < 70 && !recent.is_empty() {
                    // Exact tie with a recently scheduled time.
                    let t = recent[rng.below(recent.len() as u64) as usize];
                    push_both(&mut new_q, &mut old_q, &mut recent, t, &mut payload);
                    ties += 1;
                } else if roll < 75 {
                    let t = EPOCH_BOUNDARY_TIMES[rng.below(10) as usize];
                    push_both(&mut new_q, &mut old_q, &mut recent, t, &mut payload);
                    boundary += 1;
                } else {
                    pops += pop_and_compare(&mut new_q, &mut old_q, &mut clock);
                }
            }
            Workload::TieFlood => {
                if roll < 50 {
                    // A burst of identical timestamps.
                    let t = clock + rng.below(50) as f64;
                    for _ in 0..(1 + rng.below(40)) {
                        push_both(&mut new_q, &mut old_q, &mut recent, t, &mut payload);
                        ties += 1;
                    }
                } else if roll < 60 {
                    let t = EPOCH_BOUNDARY_TIMES[rng.below(10) as usize];
                    for _ in 0..(1 + rng.below(10)) {
                        push_both(&mut new_q, &mut old_q, &mut recent, t, &mut payload);
                        boundary += 1;
                    }
                } else {
                    // Chunked drain.
                    for _ in 0..(1 + rng.below(30)) {
                        pops += pop_and_compare(&mut new_q, &mut old_q, &mut clock);
                    }
                }
            }
            Workload::Scatter => {
                if roll < 45 {
                    // Wide scatter: random magnitude, random sign.
                    let mag = rng.below(60) as i32 - 20;
                    let t = (rng.below(1_000_000) as f64 / 997.0) * 10f64.powi(mag)
                        * if rng.below(5) == 0 { -1.0 } else { 1.0 };
                    push_both(&mut new_q, &mut old_q, &mut recent, t, &mut payload);
                    pushes += 1;
                } else if roll < 60 {
                    let t = EPOCH_BOUNDARY_TIMES[rng.below(10) as usize];
                    push_both(&mut new_q, &mut old_q, &mut recent, t, &mut payload);
                    boundary += 1;
                } else if roll < 62 {
                    // Mid-run clear: high-water and FIFO seq survive.
                    new_q.clear();
                    old_q.clear();
                    clock = 0.0;
                    clears += 1;
                } else {
                    pops += pop_and_compare(&mut new_q, &mut old_q, &mut clock);
                }
            }
        }
        // Observable state must agree after every operation.
        assert_eq!(new_q.len(), old_q.len(), "length diverged (seed {seed})");
        assert_eq!(
            new_q.high_water_mark(),
            old_q.high_water_mark(),
            "high-water diverged (seed {seed})"
        );
        match (new_q.peek_time(), old_q.peek_time()) {
            (Some(a), Some(b)) => assert_eq!(
                a.as_secs().to_bits(),
                b.as_secs().to_bits(),
                "peek_time diverged (seed {seed})"
            ),
            (a, b) => assert_eq!(a.is_none(), b.is_none(), "peek presence diverged"),
        }
    }

    // Full drain: the tail must agree too.
    loop {
        let done = pop_and_compare(&mut new_q, &mut old_q, &mut clock) == 0;
        pops += u64::from(!done);
        if done {
            break;
        }
    }
    assert!(new_q.is_empty() && old_q.len() == 0);

    // The schedule actually exercised what it claims to.
    assert!(pushes > 0 || workload == Workload::TieFlood, "no pushes");
    assert!(ties > 0 || workload == Workload::Scatter, "no ties");
    assert!(pops > 0, "no pops");
    assert!(boundary > 0, "no epoch-boundary times");
    if workload == Workload::Scatter {
        assert!(clears > 0, "no clears");
    }
}

/// Pops both queues once and asserts bitwise agreement. Returns the number
/// of events popped (0 or 1) so callers can count drains.
fn pop_and_compare(
    new_q: &mut EventQueue<u64>,
    old_q: &mut old_model::HeapQueue<u64>,
    clock: &mut f64,
) -> u64 {
    let a = new_q.pop();
    let b = old_q.pop();
    match (a, b) {
        (None, None) => 0,
        (Some((ta, ea)), Some((tb, eb))) => {
            assert_eq!(
                ta.as_secs().to_bits(),
                tb.as_secs().to_bits(),
                "pop time diverged"
            );
            assert_eq!(ea, eb, "pop payload diverged at t={ta}");
            if ta.is_finite() {
                *clock = ta.as_secs().max(*clock);
            }
            1
        }
        (a, b) => panic!("pop presence diverged: new={a:?} old={b:?}"),
    }
}

const SEEDS: [u64; 4] = [7, 42, 1337, 20_260_808];

#[test]
fn des_schedules_pop_bitwise_identically() {
    for seed in SEEDS {
        run_wall(seed, Workload::Des, 20_000);
    }
}

#[test]
fn tie_floods_pop_bitwise_identically() {
    for seed in SEEDS {
        run_wall(seed, Workload::TieFlood, 4_000);
    }
}

#[test]
fn scattered_epoch_boundary_schedules_pop_bitwise_identically() {
    for seed in SEEDS {
        run_wall(seed, Workload::Scatter, 20_000);
    }
}
