//! Property tests for the event kernel: ordering, FIFO ties, and horizon
//! semantics hold for arbitrary schedules.

use proptest::prelude::*;
use rom_sim::{EventQueue, RunOutcome, SimTime, Simulation};

proptest! {
    /// Pops come out in nondecreasing time order, and events that share a
    /// timestamp preserve insertion order.
    #[test]
    fn queue_orders_time_then_fifo(times in prop::collection::vec(0u32..50, 1..200)) {
        let mut q = EventQueue::new();
        for (idx, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(f64::from(t)), idx);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated for equal timestamps");
                }
            }
            last = Some((t, idx));
        }
    }

    /// The queue's guarantee holds for arbitrary *interleaved* push/pop
    /// schedules, not just push-then-drain: the concatenation of
    /// everything popped is globally nondecreasing in time whenever the
    /// queue was popped to empty in between, FIFO within ties throughout,
    /// and no payload is lost or duplicated. Times are drawn from a small
    /// pool spanning negative, tied and huge values so tie floods, pushes
    /// behind already-queued times and epoch boundaries all occur.
    #[test]
    fn interleaved_drains_stay_sorted_and_fifo(
        ops in prop::collection::vec((any::<bool>(), 0usize..12), 1..400),
    ) {
        let pool = [-1.0e9, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0, 7.25, 3600.0, 1.0e12, 1.0e300, f64::INFINITY];
        let mut q = EventQueue::new();
        let mut pushed = 0usize;
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        for &(is_pop, t_idx) in &ops {
            if is_pop {
                if let Some(p) = q.pop() {
                    popped.push(p);
                }
            } else {
                q.push(SimTime::from_secs(pool[t_idx]), pushed);
                pushed += 1;
            }
        }
        let final_drain_from = popped.len();
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        prop_assert_eq!(popped.len(), pushed, "events lost or duplicated");
        // FIFO within ties holds globally: for a fixed timestamp, pops
        // appear in insertion order even across intermediate drains.
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at {}", w[0].0);
            }
        }
        // Each payload appears exactly once.
        let mut seen = vec![false; pushed];
        for &(_, idx) in &popped {
            prop_assert!(!seen[idx], "payload {} popped twice", idx);
            seen[idx] = true;
        }
        // And the final uninterrupted drain is nondecreasing in time.
        for w in popped[final_drain_from..].windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "drain went backwards in time");
        }
    }

    /// Every scheduled event at or before the horizon fires exactly once;
    /// everything later stays queued.
    #[test]
    fn simulation_respects_horizon(times in prop::collection::vec(0u32..100, 1..100), horizon in 0u32..100) {
        let mut sim: Simulation<usize> = Simulation::new();
        for (idx, &t) in times.iter().enumerate() {
            sim.schedule(SimTime::from_secs(f64::from(t)), idx);
        }
        let mut fired = Vec::new();
        let outcome = sim.run_until(SimTime::from_secs(f64::from(horizon)), |_, idx, _| {
            fired.push(idx);
        });
        let expected: Vec<usize> = {
            let mut tagged: Vec<(u32, usize)> = times
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t <= horizon)
                .map(|(i, &t)| (t, i))
                .collect();
            tagged.sort();
            tagged.into_iter().map(|(_, i)| i).collect()
        };
        prop_assert_eq!(fired.len(), expected.len());
        let later = times.iter().filter(|&&t| t > horizon).count();
        prop_assert_eq!(sim.pending(), later);
        if later == 0 {
            prop_assert_eq!(outcome, RunOutcome::Drained);
        } else {
            prop_assert_eq!(outcome, RunOutcome::HorizonReached);
        }
    }

    /// Forked RNG streams are reproducible and label-sensitive.
    #[test]
    fn rng_forks_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        use rom_sim::SimRng;
        let mut a = SimRng::seed_from(seed).fork(&label);
        let mut b = SimRng::seed_from(seed).fork(&label);
        for _ in 0..8 {
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }
}
